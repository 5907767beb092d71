//! Structure-of-arrays batched transient solving.
//!
//! Monte-Carlo sweeps (and parameter sweeps like the pulse-width ablation)
//! simulate the *same netlist topology* hundreds to thousands of times with
//! different device parameters, waveforms or environments. The scalar
//! solver ([`crate::sim`]) walks one instance at a time, which leaves the
//! device-model arithmetic — four transcendental kernels per MOSFET per
//! step — stuck in a serial dependency chain.
//!
//! [`BatchSim`] compiles the topology **once** and lays the per-instance
//! state out as contiguous per-field arrays (`voltages[node][instance]`,
//! `vt[mosfet][instance]`, …). Each derivative evaluation is one flat pass
//! over every device of every instance: the terminals are oriented into
//! `[mosfet * batch + instance]` scratch, a single
//! [`bpimc_device::Mosfet::ids_batch`] call evaluates the whole array
//! (its branch-free [`bpimc_device::fastmath`] body auto-vectorizes, so the
//! dominant cost of a sweep drops by the host's SIMD width), and the
//! currents are scattered back in element order — resistors, then MOSFETs
//! by index — so each node accumulates its terms in the scalar solver's
//! order. The step control runs node-major across instances too: the
//! step-size `min` fold and the Heun-error `max` fold are order-free, and
//! the accepted update is per-lane arithmetic masked by the lanes that
//! accepted, so all three vectorize without changing a bit. Only the
//! source-slew halving and the per-instance bookkeeping (time, storage,
//! retirement) stay a loop over instances.
//!
//! **This is a data-layout change, not a numerics change.** Every instance
//! keeps its own adaptive time step and makes exactly the step decisions
//! the scalar solver would make; the per-instance arithmetic is the same
//! IEEE operations in the same order, so traces and measurements are
//! **bit-identical** to running [`crate::netlist::Circuit::run`] per
//! instance (pinned by property tests in `tests/prop.rs`). Instances that
//! finish early simply stop advancing while the rest of the cohort runs on.
//!
//! # Examples
//!
//! ```
//! use bpimc_circuit::{BatchSim, Circuit, SimOptions, Waveform};
//! use bpimc_device::Env;
//!
//! // Three RC discharges with different resistances, one batched solve.
//! let circuits: Vec<Circuit> = [5e3, 10e3, 20e3]
//!     .iter()
//!     .map(|&r| {
//!         let mut ckt = Circuit::new(Env::nominal());
//!         let out = ckt.add_node("out", 10e-15, 0.9);
//!         ckt.add_resistor(out, ckt.gnd(), r);
//!         ckt
//!     })
//!     .collect();
//! let opts = SimOptions::for_window(1e-9);
//! let traces = BatchSim::new(&circuits, &opts).unwrap().run();
//! assert_eq!(traces.len(), 3);
//! // Identical to the scalar solver, bit for bit.
//! assert_eq!(traces[1], circuits[1].run(&opts));
//! ```

use crate::netlist::{Circuit, NodeKind};
use crate::sim::SimOptions;
use crate::trace::Trace;
use crate::wave::Waveform;
use crate::CircuitError;
use bpimc_device::{DeviceKind, MosParams, MosParamsLanes, Mosfet};

/// A batch of structurally identical circuits prepared for one
/// structure-of-arrays transient solve. See the module docs.
#[derive(Debug)]
pub struct BatchSim<'a> {
    insts: &'a [Circuit],
    opts: SimOptions,
    /// Nodes per instance (including ground).
    nodes: usize,
    /// Per-node capacitance, `[node * batch + j]`; `INFINITY` marks
    /// driven/ground nodes exactly like the scalar solver.
    caps: Vec<f64>,
    /// Whether a node is a state node (same for every instance).
    is_state: Vec<bool>,
    /// Resistor endpoints (shared topology).
    cond_ends: Vec<(usize, usize)>,
    /// Per-resistor conductance lanes, `[res * batch + j]`.
    cond_g: Vec<f64>,
    /// MOSFET topology: polarity and drain/gate/source node indices.
    mos_topo: Vec<(DeviceKind, usize, usize, usize)>,
    /// Per-mosfet parameter lanes, `[mos * batch + j]` each.
    vt: Vec<f64>,
    phi: Vec<f64>,
    keff: Vec<f64>,
    alpha: Vec<f64>,
    lambda: Vec<f64>,
    sat_frac: Vec<f64>,
    vdsat_min: Vec<f64>,
    /// Initial voltages, `[node * batch + j]`.
    v0: Vec<f64>,
    /// Driven nodes in ascending node order, with one waveform per
    /// instance.
    driven: Vec<(usize, Vec<&'a Waveform>)>,
    /// Ground nodes (held at 0 V).
    grounds: Vec<usize>,
}

impl<'a> BatchSim<'a> {
    /// Compiles `circuits` into one batched solve with options `opts`.
    ///
    /// All circuits must share instance 0's *structure*: node count, the
    /// kind of every node, resistor endpoints, and every MOSFET's polarity
    /// and terminal wiring. Electrical content — device parameters,
    /// capacitances, resistances, waveforms, initial voltages, operating
    /// environment — is free to differ per instance; that is the point.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::BatchMismatch`] naming the first instance
    /// (and difference) that breaks the shared topology.
    ///
    /// # Panics
    ///
    /// Panics if `circuits` is empty — there is no template to define the
    /// topology (callers sweep or shard a known-non-empty sample set).
    pub fn new(circuits: &'a [Circuit], opts: &SimOptions) -> Result<Self, CircuitError> {
        assert!(!circuits.is_empty(), "a batch needs at least one instance");
        let t0 = &circuits[0];
        for (idx, c) in circuits.iter().enumerate().skip(1) {
            check_topology(t0, c, idx)?;
        }
        let batch = circuits.len();
        let nodes = t0.node_count();

        let mut caps = vec![0.0; nodes * batch];
        let mut v0 = vec![0.0; nodes * batch];
        for (j, c) in circuits.iter().enumerate() {
            for (i, k) in c.kinds.iter().enumerate() {
                caps[i * batch + j] = match k {
                    NodeKind::State { cap } => *cap,
                    _ => f64::INFINITY,
                };
                v0[i * batch + j] = c.v0[i];
            }
        }
        let is_state = t0
            .kinds
            .iter()
            .map(|k| matches!(k, NodeKind::State { .. }))
            .collect();

        let cond_ends: Vec<(usize, usize)> =
            t0.resistors.iter().map(|&(a, b, _)| (a.0, b.0)).collect();
        let mut cond_g = vec![0.0; cond_ends.len() * batch];
        for (j, c) in circuits.iter().enumerate() {
            for (r, &(_, _, ohms)) in c.resistors.iter().enumerate() {
                cond_g[r * batch + j] = 1.0 / ohms;
            }
        }

        let mos_topo: Vec<(DeviceKind, usize, usize, usize)> = t0
            .mosfets
            .iter()
            .map(|m| (m.dev.kind(), m.d.0, m.g.0, m.s.0))
            .collect();
        let lanes = mos_topo.len() * batch;
        let (mut vt, mut phi, mut keff, mut alpha, mut lambda, mut sat_frac, mut vdsat_min) = (
            vec![0.0; lanes],
            vec![0.0; lanes],
            vec![0.0; lanes],
            vec![0.0; lanes],
            vec![0.0; lanes],
            vec![0.0; lanes],
            vec![0.0; lanes],
        );
        for (j, c) in circuits.iter().enumerate() {
            for (m, inst) in c.mosfets.iter().enumerate() {
                let p = MosParams::compile(&inst.dev, c.env());
                let at = m * batch + j;
                vt[at] = p.vt;
                phi[at] = p.phi;
                keff[at] = p.keff;
                alpha[at] = p.alpha;
                lambda[at] = p.lambda;
                sat_frac[at] = p.sat_frac;
                vdsat_min[at] = p.vdsat_min;
            }
        }

        let mut driven: Vec<(usize, Vec<&'a Waveform>)> = Vec::new();
        let mut grounds = Vec::new();
        for (i, k) in t0.kinds.iter().enumerate() {
            match k {
                NodeKind::Driven { .. } => {
                    let waves = circuits
                        .iter()
                        .map(|c| match &c.kinds[i] {
                            NodeKind::Driven { wave } => wave,
                            _ => unreachable!("topology checked above"),
                        })
                        .collect();
                    driven.push((i, waves));
                }
                NodeKind::Ground => grounds.push(i),
                NodeKind::State { .. } => {}
            }
        }

        Ok(Self {
            insts: circuits,
            opts: *opts,
            nodes,
            caps,
            is_state,
            cond_ends,
            cond_g,
            mos_topo,
            vt,
            phi,
            keff,
            alpha,
            lambda,
            sat_frac,
            vdsat_min,
            v0,
            driven,
            grounds,
        })
    }

    /// Number of instances in the batch.
    pub fn batch(&self) -> usize {
        self.insts.len()
    }

    /// Row `i` of a `[i * batch + j]` array: the lanes of node, device or
    /// resistor `i` across every instance `j`.
    fn row(&self, i: usize) -> std::ops::Range<usize> {
        let b = self.batch();
        i * b..(i + 1) * b
    }

    /// Element currents into `dvdt` and, when `gc` is given, the per-node
    /// stiffness rates — the batched twin of the scalar solver's
    /// `derivatives` / `derivatives_g`, same per-instance arithmetic.
    ///
    /// One pass over the devices in three stages: orient every device of
    /// every instance into the `[mos * batch + j]` scratch, evaluate all of
    /// them with a single [`Mosfet::ids_batch`] call over the parameter
    /// arrays (already laid out that way), then scatter in element order —
    /// resistors first, then MOSFETs by index, the scalar solver's order —
    /// so every node accumulates its terms in the same sequence.
    fn derivatives(
        &self,
        v: &[f64],
        dvdt: &mut [f64],
        mut gc: Option<&mut [f64]>,
        s: &mut Scratch,
    ) {
        let b = self.batch();
        for (m, &(kind, d, gnode, src)) in self.mos_topo.iter().enumerate() {
            let (vd, vg, vs) = (&v[self.row(d)], &v[self.row(gnode)], &v[self.row(src)]);
            let (vgs, vds, sgn) = (
                &mut s.vgs[self.row(m)],
                &mut s.vds[self.row(m)],
                &mut s.sgn[self.row(m)],
            );
            // Terminal orientation exactly as the scalar solver decides it:
            // `(hi, lo) = if v[d] >= v[s] { (d, s) } else { (s, d) }`.
            for j in 0..b {
                let fwd = vd[j] >= vs[j];
                let (hi, lo) = if fwd { (vd[j], vs[j]) } else { (vs[j], vd[j]) };
                vds[j] = hi - lo;
                vgs[j] = match kind {
                    DeviceKind::Nmos => vg[j] - lo,
                    DeviceKind::Pmos => hi - vg[j],
                };
                sgn[j] = if fwd { 1.0 } else { -1.0 };
            }
        }
        let lanes = MosParamsLanes {
            vt: &self.vt,
            phi: &self.phi,
            keff: &self.keff,
            alpha: &self.alpha,
            lambda: &self.lambda,
            sat_frac: &self.sat_frac,
            vdsat_min: &self.vdsat_min,
        };
        Mosfet::ids_batch(&lanes, &s.vgs, &s.vds, &mut s.cur, &mut s.gds);
        // Signed current in drain->source orientation; `x -= -i` and
        // `x += i` are the same IEEE operation, so per-instance results
        // match the scalar solver's hi/lo formulation bit for bit.
        for (c, sg) in s.cur.iter_mut().zip(&s.sgn) {
            *c *= sg;
        }

        dvdt.fill(0.0);
        if let Some(g) = gc.as_deref_mut() {
            g.fill(0.0);
        }
        for (r, &(a, bn)) in self.cond_ends.iter().enumerate() {
            let (gl, va, vb) = (&self.cond_g[self.row(r)], &v[self.row(a)], &v[self.row(bn)]);
            let cur = &mut s.res_cur;
            for j in 0..b {
                cur[j] = (va[j] - vb[j]) * gl[j];
            }
            sub_from(&mut dvdt[self.row(a)], cur);
            add_to(&mut dvdt[self.row(bn)], cur);
            if let Some(g) = gc.as_deref_mut() {
                add_to(&mut g[self.row(a)], gl);
                add_to(&mut g[self.row(bn)], gl);
            }
        }
        for (m, &(_, d, _, src)) in self.mos_topo.iter().enumerate() {
            let cur = &s.cur[self.row(m)];
            sub_from(&mut dvdt[self.row(d)], cur);
            add_to(&mut dvdt[self.row(src)], cur);
            if let Some(g) = gc.as_deref_mut() {
                let gds = &s.gds[self.row(m)];
                add_to(&mut g[self.row(d)], gds);
                add_to(&mut g[self.row(src)], gds);
            }
        }
        for (i, &state) in self.is_state.iter().enumerate() {
            let (caps, dv) = (&self.caps[self.row(i)], &mut dvdt[self.row(i)]);
            let g = gc.as_deref_mut().map(|g| &mut g[self.row(i)]);
            if state {
                div_by(dv, caps);
                if let Some(g) = g {
                    div_by(g, caps);
                }
            } else {
                dv.fill(0.0);
                if let Some(g) = g {
                    g.fill(0.0);
                }
            }
        }
    }

    /// Sets instance `j`'s driven and ground nodes for time `t`.
    fn apply_sources(&self, j: usize, t: f64, v: &mut [f64]) {
        let b = self.batch();
        for (node, waves) in &self.driven {
            v[node * b + j] = waves[j].at(t);
        }
        for &node in &self.grounds {
            v[node * b + j] = 0.0;
        }
    }

    /// Instance `j`'s fastest driven-node movement across `[t, t + dt]` —
    /// the scalar solver's `source_slew`, same sampling, same fold order.
    fn source_slew(&self, j: usize, t: f64, dt: f64, v: &[f64]) -> f64 {
        let b = self.batch();
        let mut worst = 0.0f64;
        for (node, waves) in &self.driven {
            for q in [0.5, 1.0] {
                worst = worst.max((waves[j].at(t + q * dt) - v[node * b + j]).abs());
            }
        }
        worst
    }

    /// Runs every instance to `t_stop` and returns one trace per instance,
    /// in batch order — each bit-identical to the scalar solver's trace
    /// for that instance.
    pub fn run(&self) -> Vec<Trace> {
        let b = self.batch();
        let n = self.nodes;
        let opts = &self.opts;
        let dv_max = opts.dv_max;
        let dt_min = opts.dt / f64::from(1u32 << opts.max_depth.min(30));
        let dt_max = opts.dt * opts.max_growth.max(1.0);
        let src_dv_max = 2.0 * dv_max;

        let mut v = self.v0.clone();
        for j in 0..b {
            self.apply_sources(j, 0.0, &mut v);
        }
        let mut k1 = vec![0.0; n * b];
        let mut k2 = vec![0.0; n * b];
        let mut tmp = vec![0.0; n * b];
        let mut gc = vec![0.0; n * b];
        let mut scratch = Scratch::new(b, self.mos_topo.len());
        let mut row = vec![0.0; n];

        let mut traces: Vec<Trace> = self
            .insts
            .iter()
            .map(|c| Trace::new(c.names.clone()))
            .collect();
        let mut t = vec![0.0f64; b];
        let mut dt_next = vec![opts.dt; b];
        let mut next_store = vec![opts.store_dt; b];
        let mut dts = vec![0.0f64; b];
        let mut err = vec![0.0f64; b];
        let mut active = vec![true; b];
        let mut accept = vec![false; b];
        for (j, tr) in traces.iter_mut().enumerate() {
            gather_row(&v, b, j, &mut row);
            tr.push(0.0, &row);
        }

        let mut n_active = b;
        while n_active > 0 {
            self.derivatives(&v, &mut k1, Some(&mut gc), &mut scratch);
            // Step sizing: the scalar solver's `dv_max` limit, folded node by
            // node across all lanes at once (a `min` fold, so the node-major
            // order changes nothing). A node whose `denom` is not positive
            // contributes `INFINITY`, which the `min` ignores exactly as the
            // scalar solver's skip does.
            for j in 0..b {
                dts[j] = dt_next[j].min(opts.t_stop - t[j]);
            }
            for i in 0..n {
                let (k, g) = (&k1[self.row(i)], &gc[self.row(i)]);
                for j in 0..b {
                    let denom = k[j].abs() - dv_max * g[j];
                    let limit = if denom > 0.0 {
                        dv_max / denom
                    } else {
                        f64::INFINITY
                    };
                    dts[j] = dts[j].min(limit);
                }
            }
            // Clamping and the source-slew halving stay per instance.
            for (j, dt_slot) in dts.iter_mut().enumerate() {
                if !active[j] {
                    *dt_slot = 0.0;
                    continue;
                }
                let mut dt_step = dt_slot.max(dt_min).min(opts.t_stop - t[j]);
                while dt_step > opts.dt && self.source_slew(j, t[j], dt_step, &v) > src_dv_max {
                    dt_step *= 0.5;
                }
                *dt_slot = dt_step;
            }
            // Damped predictor for every lane at once (inactive lanes get
            // `dt = 0`, i.e. scratch values that are never read back).
            for i in 0..n {
                let (x, a, g, p) = (
                    &v[self.row(i)],
                    &k1[self.row(i)],
                    &gc[self.row(i)],
                    &mut tmp[self.row(i)],
                );
                for j in 0..b {
                    let dt = dts[j];
                    p[j] = x[j] + a[j] * dt / (1.0 + g[j] * dt);
                }
            }
            for j in 0..b {
                if active[j] {
                    self.apply_sources(j, t[j] + dts[j], &mut tmp);
                }
            }
            self.derivatives(&tmp, &mut k2, None, &mut scratch);
            // Heun error of the smooth nodes, folded node-major: a `max` of
            // non-negative terms, where a stiff node contributes `0.0` (the
            // identity) instead of being skipped.
            err.fill(0.0);
            for i in 0..n {
                let (a, c, g) = (&k1[self.row(i)], &k2[self.row(i)], &gc[self.row(i)]);
                for j in 0..b {
                    let dt = dts[j];
                    let e = if g[j] * dt <= 1.0 {
                        (c[j] - a[j]).abs() * dt * 0.5
                    } else {
                        0.0
                    };
                    err[j] = err[j].max(e);
                }
            }
            // Accept or retry, per instance.
            for j in 0..b {
                let retry = err[j] > dv_max && dts[j] > dt_min * 1.5;
                accept[j] = active[j] && !retry;
                if active[j] && retry {
                    dt_next[j] = (dts[j] * 0.5).max(dt_min);
                }
            }
            // The accepted lanes' update, node-major; a rejected or finished
            // lane keeps its voltages.
            for i in 0..n {
                let (a, c, g, x) = (
                    &k1[self.row(i)],
                    &k2[self.row(i)],
                    &gc[self.row(i)],
                    &mut v[self.row(i)],
                );
                for j in 0..b {
                    let dt = dts[j];
                    let r = g[j] * dt;
                    let step = if r > 1.0 {
                        a[j] * dt / (1.0 + r)
                    } else {
                        0.5 * (a[j] + c[j]) * dt
                    };
                    x[j] = if accept[j] { x[j] + step } else { x[j] };
                }
            }
            for j in 0..b {
                if !accept[j] {
                    continue;
                }
                let dt_step = dts[j];
                self.apply_sources(j, t[j] + dt_step, &mut v);
                t[j] += dt_step;
                if t[j] + 1e-18 >= next_store[j] {
                    gather_row(&v, b, j, &mut row);
                    traces[j].push(t[j], &row);
                    next_store[j] = t[j] + opts.store_dt;
                }
                dt_next[j] = if err[j] < 0.25 * dv_max {
                    (dt_step * 2.0).min(dt_max)
                } else {
                    dt_step.min(dt_max)
                };
                if t[j] >= opts.t_stop - 1e-18 {
                    active[j] = false;
                    n_active -= 1;
                    if traces[j].times().last().copied() != Some(t[j]) {
                        gather_row(&v, b, j, &mut row);
                        traces[j].push(t[j], &row);
                    }
                }
            }
        }
        traces
    }
}

/// Evaluation scratch, reused across rounds: device terminal biases and
/// results in `[mos * batch + j]` layout, plus one resistor's currents.
struct Scratch {
    vgs: Vec<f64>,
    vds: Vec<f64>,
    sgn: Vec<f64>,
    cur: Vec<f64>,
    gds: Vec<f64>,
    res_cur: Vec<f64>,
}

impl Scratch {
    fn new(b: usize, mosfets: usize) -> Self {
        let lanes = b * mosfets;
        Self {
            vgs: vec![0.0; lanes],
            vds: vec![0.0; lanes],
            sgn: vec![0.0; lanes],
            cur: vec![0.0; lanes],
            gds: vec![0.0; lanes],
            res_cur: vec![0.0; b],
        }
    }
}

/// `dst[j] -= src[j]` lane by lane.
fn sub_from(dst: &mut [f64], src: &[f64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d -= s;
    }
}

/// `dst[j] += src[j]` lane by lane.
fn add_to(dst: &mut [f64], src: &[f64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// `dst[j] /= src[j]` lane by lane.
fn div_by(dst: &mut [f64], src: &[f64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d /= s;
    }
}

/// Copies instance `j`'s voltages out of the SoA layout.
fn gather_row(v: &[f64], b: usize, j: usize, row: &mut [f64]) {
    for (i, slot) in row.iter_mut().enumerate() {
        *slot = v[i * b + j];
    }
}

/// Structural equality of instance `idx` against the template.
fn check_topology(t0: &Circuit, c: &Circuit, idx: usize) -> Result<(), CircuitError> {
    let fail = |reason: String| {
        Err(CircuitError::BatchMismatch {
            instance: idx,
            reason,
        })
    };
    if c.node_count() != t0.node_count() {
        return fail(format!("{} nodes vs {}", c.node_count(), t0.node_count()));
    }
    for (i, (ka, kb)) in t0.kinds.iter().zip(&c.kinds).enumerate() {
        let same = matches!(
            (ka, kb),
            (NodeKind::State { .. }, NodeKind::State { .. })
                | (NodeKind::Driven { .. }, NodeKind::Driven { .. })
                | (NodeKind::Ground, NodeKind::Ground)
        );
        if !same {
            return fail(format!("node {i} kind differs"));
        }
    }
    if c.resistors.len() != t0.resistors.len() {
        return fail(format!(
            "{} resistors vs {}",
            c.resistors.len(),
            t0.resistors.len()
        ));
    }
    for (r, (ra, rb)) in t0.resistors.iter().zip(&c.resistors).enumerate() {
        if (ra.0, ra.1) != (rb.0, rb.1) {
            return fail(format!("resistor {r} endpoints differ"));
        }
    }
    if c.mosfets.len() != t0.mosfets.len() {
        return fail(format!(
            "{} mosfets vs {}",
            c.mosfets.len(),
            t0.mosfets.len()
        ));
    }
    for (m, (ma, mb)) in t0.mosfets.iter().zip(&c.mosfets).enumerate() {
        if ma.dev.kind() != mb.dev.kind() {
            return fail(format!("mosfet {m} polarity differs"));
        }
        if (ma.d, ma.g, ma.s) != (mb.d, mb.g, mb.s) {
            return fail(format!("mosfet {m} wiring differs"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpimc_device::{Env, VtFlavor};

    fn rc(r: f64) -> Circuit {
        let mut ckt = Circuit::new(Env::nominal());
        let out = ckt.add_node("out", 10e-15, 0.9);
        ckt.add_resistor(out, ckt.gnd(), r);
        ckt
    }

    fn nmos_pulldown(dvt: f64, vdd: f64) -> Circuit {
        let mut ckt = Circuit::new(Env::nominal());
        let gate = ckt.add_source("g", Waveform::step(0.0, vdd, 100e-12, 20e-12));
        let bl = ckt.add_node("bl", 20e-15, vdd);
        ckt.add_mosfet(
            Mosfet::nmos(VtFlavor::Rvt, 90.0, 30.0).with_dvt(dvt),
            bl,
            gate,
            ckt.gnd(),
        );
        ckt
    }

    #[test]
    fn batch_of_rcs_matches_scalar_bit_for_bit() {
        let circuits: Vec<Circuit> = [2e3, 5e3, 10e3, 20e3, 50e3].map(rc).into_iter().collect();
        let opts = SimOptions::for_window(1e-9);
        let traces = BatchSim::new(&circuits, &opts).unwrap().run();
        for (c, tr) in circuits.iter().zip(&traces) {
            assert_eq!(*tr, c.run(&opts));
        }
    }

    #[test]
    fn batch_of_mosfet_discharges_matches_scalar_bit_for_bit() {
        let circuits: Vec<Circuit> = (0..7)
            .map(|i| nmos_pulldown(i as f64 * 0.01 - 0.03, 0.9))
            .collect();
        let opts = SimOptions::for_window(2e-9);
        let traces = BatchSim::new(&circuits, &opts).unwrap().run();
        for (c, tr) in circuits.iter().zip(&traces) {
            let scalar = c.run(&opts);
            assert_eq!(tr.times(), scalar.times());
            assert_eq!(*tr, scalar);
        }
    }

    #[test]
    fn resistor_and_device_terms_sum_in_the_scalar_order() {
        // Node `mid` sums three currents every step (one MOSFET in, one
        // out, one resistor to ground); only the scalar solver's element
        // order — resistors, then MOSFETs by index — reproduces its bits.
        let circuits: Vec<Circuit> = (0..6)
            .map(|i| {
                let dvt = i as f64 * 0.01 - 0.025;
                let mut ckt = Circuit::new(Env::nominal());
                let vdd = ckt.add_source("vdd", Waveform::dc(0.9));
                let gate = ckt.add_source("g", Waveform::pulse(0.0, 0.9, 80e-12, 300e-12, 20e-12));
                let out = ckt.add_node("out", 10e-15, 0.9);
                let mid = ckt.add_node("mid", 4e-15, 0.0);
                let nmos = Mosfet::nmos(VtFlavor::Rvt, 120.0, 30.0);
                ckt.add_resistor(vdd, out, 20e3 + 1e3 * i as f64);
                ckt.add_mosfet(nmos.with_dvt(dvt), out, gate, mid);
                ckt.add_mosfet(nmos.with_dvt(-dvt), mid, gate, ckt.gnd());
                ckt.add_resistor(mid, ckt.gnd(), 60e3);
                ckt
            })
            .collect();
        let opts = SimOptions::for_window(1e-9);
        let traces = BatchSim::new(&circuits, &opts).unwrap().run();
        for (c, tr) in circuits.iter().zip(&traces) {
            assert_eq!(*tr, c.run(&opts));
        }
    }

    #[test]
    fn corrector_retries_match_scalar_bit_for_bit() {
        // A gate edge far shorter than the base step swings the
        // pulldown's current inside one step, so the Heun corrector
        // rejects it and retries smaller; a rejected lane must keep its
        // voltages while accepted lanes advance.
        let circuits: Vec<Circuit> = (0..5)
            .map(|i| {
                let mut ckt = Circuit::new(Env::nominal());
                let edge = Waveform::step(0.0, 0.9, 50e-12 + 7e-12 * i as f64, 1e-15);
                let gate = ckt.add_source("g", edge);
                let bl = ckt.add_node("bl", 1e-15, 0.9);
                let nmos = Mosfet::nmos(VtFlavor::Lvt, 400.0, 30.0);
                ckt.add_mosfet(nmos.with_dvt(0.01 * i as f64), bl, gate, ckt.gnd());
                ckt
            })
            .collect();
        let opts = SimOptions::for_window(0.3e-9);
        let traces = BatchSim::new(&circuits, &opts).unwrap().run();
        for (c, tr) in circuits.iter().zip(&traces) {
            assert_eq!(*tr, c.run(&opts));
        }
    }

    #[test]
    fn per_instance_waveforms_and_supplies_are_allowed() {
        // Different gate step times AND different VDD per instance: the
        // ablation/vrange sweep shape.
        let circuits: Vec<Circuit> = [(0.8, 50e-12), (0.9, 100e-12), (1.0, 200e-12)]
            .iter()
            .map(|&(vdd, t0)| {
                let mut ckt = Circuit::new(Env::nominal().with_vdd(vdd));
                let gate = ckt.add_source("g", Waveform::step(0.0, vdd, t0, 20e-12));
                let bl = ckt.add_node("bl", 20e-15, vdd);
                ckt.add_mosfet(Mosfet::nmos(VtFlavor::Rvt, 90.0, 30.0), bl, gate, ckt.gnd());
                ckt
            })
            .collect();
        let opts = SimOptions::for_window(2e-9);
        let traces = BatchSim::new(&circuits, &opts).unwrap().run();
        for (c, tr) in circuits.iter().zip(&traces) {
            assert_eq!(*tr, c.run(&opts));
        }
    }

    #[test]
    fn single_instance_batch_matches_scalar() {
        let circuits = vec![nmos_pulldown(0.0, 0.9)];
        let opts = SimOptions::for_window(1e-9);
        let traces = BatchSim::new(&circuits, &opts).unwrap().run();
        assert_eq!(traces[0], circuits[0].run(&opts));
    }

    #[test]
    fn mismatched_topology_is_rejected() {
        let a = rc(1e4);
        let b = nmos_pulldown(0.0, 0.9);
        let err = BatchSim::new(&[a, b], &SimOptions::for_window(1e-9)).unwrap_err();
        assert!(matches!(
            err,
            CircuitError::BatchMismatch { instance: 1, .. }
        ));
    }
}
