//! The `mc_fig2` workload: the paper's Fig. 2 Monte-Carlo experiment,
//! `bpimc_bench::experiments::fig2::run` at a fixed sample count, called
//! back to back. One op is one Monte-Carlo transient solve.
//!
//! The traced run replays the same experiment cohort by cohort from the
//! public pieces `fig2::run` is made of (`DisturbStudy::sampled_circuit`,
//! `BatchSim::new` / `BatchSim::run`, `BlComputeBench::measure`, the
//! claim-queue fan-out), timing each call, and checks that the replay
//! reproduces `fig2::run` bit for bit.

use crate::report::{metrics_from, Report};
use crate::sys::{peak_rss_mb, process_cpu, reset_peak_rss};
use crate::trace::{Span, SpanSet, Tracer};
use crate::{median, sliced_percentile, Rng, RunConfig, E2E_METRICS, LAYER_METRICS};
use bpimc_bench::experiments::fig2::{self, Fig2Result};
use bpimc_cell::blbench::BenchNodes;
use bpimc_cell::{BlComputeBench, BlOutcome, DisturbStudy, WlScheme};
use bpimc_circuit::mc::{sample_rng, BATCH_COHORT};
use bpimc_circuit::{BatchSim, Circuit, SimOptions, Trace};
use bpimc_device::{Env, MismatchModel};
use bpimc_stats::parallel::{par_claim_indexed_map, worker_count};
use bpimc_stats::TailFit;
use std::time::{Duration, Instant};

/// Samples per scheme the pinned digests were taken at.
pub const PINNED_SAMPLES: usize = 256;

/// Digests of `fig2::run(PINNED_SAMPLES, mc_seed(seed))` for `seed` in `0..32`,
/// pinned from the reference implementation. A seed outside the table is
/// still checked against the scalar reference solver and the replay.
const PINNED_DIGESTS: [u64; 32] = [
    0xf55b_79d2_ba23_9775,
    0x451c_a7fd_4ae1_a9df,
    0x5662_46f6_f3b4_78be,
    0xe75b_04b6_3677_9a5b,
    0xeadf_9998_4f1f_7848,
    0x3f3a_9a85_ccae_bd06,
    0x6baa_1dfe_77cc_282a,
    0x905a_b5d5_2113_604e,
    0x2315_a8d7_506f_c535,
    0x420f_120e_b89b_89bf,
    0xb4ce_c1da_5505_2b26,
    0xd3ba_b4f5_d7d3_ec78,
    0x9d23_7a68_24a2_e0bf,
    0x4bff_21d3_3ecd_c67c,
    0x4b2c_0c98_ed8c_d8aa,
    0xd2b1_fe95_3251_5439,
    0xcdf7_7743_c7b3_03d4,
    0x2210_208a_60f1_e89e,
    0x0044_16ef_90a9_3b16,
    0xdecc_28f3_1444_c077,
    0x769a_ea59_7361_6477,
    0x7011_6a52_c78a_caf1,
    0x0333_b790_85ef_d373,
    0x3636_cd60_8457_b604,
    0x87fa_99f0_d7f8_610f,
    0x679e_9f93_f1c0_9be3,
    0xb1d5_f0f6_8399_8ee8,
    0x61b1_ea2a_9486_e52b,
    0x50c6_821f_139e_4f93,
    0xe830_d924_1a67_6a80,
    0x5206_b9e3_7bbd_8eed,
    0xf0e8_f942_c0ce_03b7,
];

/// The Monte-Carlo seed a benchmark seed maps to.
pub fn mc_seed(seed: u64) -> u64 {
    Rng::new(seed, 0xF162, 0).next_u64()
}

/// Transient solves one `fig2::run(n, _)` call performs: `n` per scheme
/// for the delays plus the margin fits' samples.
pub fn solves_per_call(n: usize) -> u64 {
    (2 * n + 2 * (n / 2).clamp(16, 600)) as u64
}

/// FNV-1a over the bits of everything `fig2::run` returns.
pub fn digest(r: &Fig2Result) -> u64 {
    let words = r
        .wlud_delays
        .iter()
        .chain(&r.prop_delays)
        .chain([&r.wlud_failure, &r.prop_failure, &r.wlud_z, &r.prop_z])
        .map(|x| x.to_bits())
        .chain([r.samples as u64]);
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

/// The two studies `fig2::run` builds.
fn studies() -> (DisturbStudy, DisturbStudy) {
    let env = Env::nominal();
    let mm = MismatchModel::nominal();
    (
        DisturbStudy::new(
            BlComputeBench::new(128, env, WlScheme::Wlud { v_wl: 0.55 }),
            mm,
        ),
        DisturbStudy::new(
            BlComputeBench::new(128, env, WlScheme::short_boost_140ps()),
            mm,
        ),
    )
}

/// What one cohort-by-cohort replay of a study measured.
#[derive(Default)]
struct Batched {
    outcomes: Vec<BlOutcome>,
    /// Integrator steps over all samples.
    steps: u64,
    /// Lane slots the cohorts paid for: batch size times longest trace.
    slots: u64,
    /// Bit-line recharge energy over all samples, femtojoules.
    energy_fj: f64,
    /// Fan-out utilization: cohort busy time over wall time x workers.
    util: f64,
    /// Seconds the cohort took (summed into `util`).
    busy_s: f64,
    spans: Vec<Vec<Span>>,
}

/// Charge the precharger restores to both bit-lines after one access,
/// times VDD, in femtojoules.
fn bl_energy_fj(ckt: &Circuit, trace: &Trace, nodes: &BenchNodes, vdd: f64) -> f64 {
    [nodes.blt, nodes.blb]
        .iter()
        .map(|&n| {
            let cap = ckt.node_cap(n).unwrap_or(0.0);
            cap * vdd * (vdd - trace.last_voltage(n)).max(0.0) * 1e15
        })
        .sum()
}

/// `n` samples of `study` the way `DisturbStudy::delays` / `margins` run
/// them, with every layer call timed when `tracer_epoch` is set.
fn replay_study(
    study: &DisturbStudy,
    n: usize,
    seed: u64,
    tracer_epoch: Option<Instant>,
    call: u64,
) -> Batched {
    let nodes = study.bench_nodes();
    let opts = SimOptions::for_window(study.bench().window());
    let vdd = study.bench().env.vdd;
    let cohorts = n.div_ceil(BATCH_COHORT);
    let t0 = Instant::now();
    let per_cohort = par_claim_indexed_map(cohorts, |c| {
        let busy = Instant::now();
        let mut tr = tracer_epoch.map(Tracer::new);
        let parent = tr.as_mut().map(|t| t.open("mc.cohort", None, call));
        let mut timed = |name: &'static str, ops: usize, f: &mut dyn FnMut()| match tr.as_mut() {
            Some(t) => {
                let s = t.open(name, parent, call);
                f();
                t.close_ops(s, ops);
            }
            None => f(),
        };
        let start = c * BATCH_COHORT;
        let end = (start + BATCH_COHORT).min(n);
        let mut circuits = Vec::with_capacity(end - start);
        for i in start..end {
            timed("bitcell.disturb.build", 1, &mut || {
                let mut rng = sample_rng(seed, i as u64);
                circuits.push(study.sampled_circuit(&mut rng));
            });
        }
        let mut sim = None;
        timed("circuit.batch.new", circuits.len(), &mut || {
            sim =
                Some(BatchSim::new(&circuits, &opts).expect("cohort circuits share one topology"));
        });
        let mut traces = Vec::new();
        timed("circuit.batch.run", circuits.len(), &mut || {
            traces = sim.as_ref().expect("built above").run();
        });
        let mut out = Batched::default();
        let longest = traces.iter().map(Trace::len).max().unwrap_or(0);
        out.slots = (traces.len() * longest) as u64;
        for (ckt, trace) in circuits.iter().zip(&traces) {
            timed("bitcell.blbench.measure", 1, &mut || {
                out.outcomes
                    .push(study.bench().measure(trace, &nodes, false, true));
            });
            out.steps += trace.len() as u64;
            out.energy_fj += bl_energy_fj(ckt, trace, &nodes, vdd);
        }
        if let (Some(t), Some(p)) = (tr.as_mut(), parent) {
            t.close_ops(p, end - start);
        }
        out.spans = tr.map(|t| vec![t.into_spans()]).unwrap_or_default();
        out.busy_s = busy.elapsed().as_secs_f64();
        out
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut all = Batched::default();
    let mut busy = 0.0;
    for b in per_cohort {
        all.outcomes.extend(b.outcomes);
        all.steps += b.steps;
        all.slots += b.slots;
        all.energy_fj += b.energy_fj;
        all.spans.extend(b.spans);
        busy += b.busy_s;
    }
    all.util = busy / (wall * worker_count(cohorts) as f64);
    all
}

/// A cohort-by-cohort replay of one `fig2::run(n, seed)` call.
struct Replayed {
    wlud_delays: Vec<f64>,
    prop_delays: Vec<f64>,
    wlud_fit: TailFit,
    prop_fit: TailFit,
    steps: u64,
    slots: u64,
    energy_fj: f64,
    util: Vec<f64>,
    spans: Vec<Vec<Span>>,
}

fn replay_call(n: usize, seed: u64, tracer_epoch: Option<Instant>, call: u64) -> Replayed {
    let (wlud, prop) = studies();
    let n_fit = (n / 2).clamp(16, 600);
    let runs = [
        replay_study(&wlud, n, seed, tracer_epoch, call),
        replay_study(&prop, n, seed ^ 0x5555, tracer_epoch, call),
        replay_study(&wlud, n_fit, seed ^ 0xABCD, tracer_epoch, call),
        replay_study(&prop, n_fit, seed ^ 0xDCBA, tracer_epoch, call),
    ];
    let delays = |b: &Batched, window: f64| -> Vec<f64> {
        b.outcomes
            .iter()
            .map(|o| o.delay_s.unwrap_or(window))
            .collect()
    };
    let fit = |b: &Batched| {
        TailFit::from_margins(
            &b.outcomes
                .iter()
                .map(BlOutcome::worst_margin)
                .collect::<Vec<_>>(),
        )
    };
    Replayed {
        wlud_delays: delays(&runs[0], wlud.bench().window()),
        prop_delays: delays(&runs[1], prop.bench().window()),
        wlud_fit: fit(&runs[2]),
        prop_fit: fit(&runs[3]),
        steps: runs.iter().map(|b| b.steps).sum(),
        slots: runs.iter().map(|b| b.slots).sum(),
        energy_fj: runs.iter().fold(0.0, |acc, b| acc + b.energy_fj),
        util: runs.iter().map(|b| b.util).collect(),
        spans: runs.into_iter().flat_map(|b| b.spans).collect(),
    }
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Checks a `fig2::run` result against the cohort replay and the scalar
/// reference solver; returns what disagreed.
fn check_reference(r: &Fig2Result, rep: &Replayed, n: usize, seed: u64) -> Vec<String> {
    let mut bad = Vec::new();
    if !same_bits(&r.wlud_delays, &rep.wlud_delays) || !same_bits(&r.prop_delays, &rep.prop_delays)
    {
        bad.push("fig2 delays differ from the cohort replay".to_string());
    }
    let fits = [
        (r.wlud_failure, rep.wlud_fit.failure_probability()),
        (r.prop_failure, rep.prop_fit.failure_probability()),
        (r.wlud_z, rep.wlud_fit.z_margin()),
        (r.prop_z, rep.prop_fit.z_margin()),
    ];
    if fits.iter().any(|(a, b)| a.to_bits() != b.to_bits()) {
        bad.push("fig2 failure fits differ from the cohort replay".to_string());
    }
    // The first cohort of each scheme against the scalar one-instance
    // solver the batch engine is pinned to.
    let (wlud, prop) = studies();
    let k = BATCH_COHORT.min(n);
    if !same_bits(&r.wlud_delays[..k], &wlud.delays_scalar(k, seed))
        || !same_bits(&r.prop_delays[..k], &prop.delays_scalar(k, seed ^ 0x5555))
    {
        bad.push("fig2 delays differ from the scalar reference solver".to_string());
    }
    bad
}

/// The pinned digest for `seed` at `n` samples, when the table has one.
pub fn pinned(seed: u64, n: usize) -> Option<u64> {
    (n == PINNED_SAMPLES)
        .then(|| PINNED_DIGESTS.get(seed as usize).copied())
        .flatten()
}

/// Prints `seed digest` lines for the pinned table.
pub fn print_digests(count: u64) {
    for seed in 0..count {
        println!(
            "{seed} {:#018x}",
            digest(&fig2::run(PINNED_SAMPLES, mc_seed(seed)))
        );
    }
}

/// One timed call and what it produced.
struct Call {
    lat: Duration,
    slice: usize,
    traced: bool,
}

/// Runs the `mc_fig2` workload.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let n = cfg.scale.fig2_samples;
    let seed = mc_seed(cfg.seed);
    let solves = solves_per_call(n);
    let mut failures = Vec::new();

    // Warm-up (untimed): the reference result and its checks. It runs
    // first so that set-up is timed on a busy, not a waking, CPU.
    let reference = fig2::run(n, seed);
    let want = digest(&reference);
    let replayed = replay_call(n, seed, None, 0);
    failures.extend(check_reference(&reference, &replayed, n, seed));
    if let Some(pin) = pinned(cfg.seed, n) {
        if pin != want {
            failures.push(format!("digest {want:#018x} != pinned {pin:#018x}"));
        }
    }
    std::hint::black_box(fig2::run(n, seed));

    // Set-up: everything before the first integration step — the
    // experiment's studies and node maps, one cohort's sampled circuits
    // per scheme and their batch engines.
    let setup_times: Vec<f64> = (0..cfg.scale.setup_reps * 10)
        .map(|_| {
            let t = Instant::now();
            let (wlud, prop) = studies();
            for (study, seed) in [(&wlud, seed), (&prop, seed ^ 0x5555)] {
                let opts = SimOptions::for_window(study.bench().window());
                let circuits: Vec<Circuit> = (0..BATCH_COHORT.min(n))
                    .map(|i| study.sampled_circuit(&mut sample_rng(seed, i as u64)))
                    .collect();
                let sim = BatchSim::new(&circuits, &opts).expect("one topology");
                std::hint::black_box((study.bench_nodes(), sim.batch()));
            }
            t.elapsed().as_secs_f64()
        })
        .collect();
    let warm_failures = failures.len();

    let epoch = Instant::now();
    let slices = ((cfg.seconds / cfg.scale.slice_s).round() as u32).max(2);
    let slice = Duration::from_secs_f64(cfg.scale.slice_s);
    let mut calls: Vec<Call> = Vec::new();
    let mut spans = SpanSet::default();
    let mut utils = Vec::new();
    let (mut ok_calls, mut bad_calls) = (0u64, 0u64);
    reset_peak_rss();
    let cpu0 = process_cpu();
    let t0 = Instant::now();
    for k in 0..slices {
        let traced = cfg.trace && k % 2 == 1;
        let due = slice * (k + 1);
        // At least one call per slice, so traced and untraced calls both
        // exist even when a call outlasts a slice.
        loop {
            let id = calls.len() as u64;
            let t = Instant::now();
            let good = if traced {
                let rep = replay_call(n, seed, Some(epoch), id);
                let lat = t.elapsed();
                utils.extend(rep.util.iter().copied());
                for s in rep.spans {
                    spans.add(s);
                }
                calls.push(Call {
                    lat,
                    slice: k as usize,
                    traced,
                });
                same_bits(&rep.wlud_delays, &reference.wlud_delays)
                    && same_bits(&rep.prop_delays, &reference.prop_delays)
            } else {
                let mut r = fig2::run(n, seed);
                let lat = t.elapsed();
                calls.push(Call {
                    lat,
                    slice: k as usize,
                    traced,
                });
                if cfg.corrupt_at == Some(id) {
                    r.wlud_delays[0] = f64::from_bits(r.wlud_delays[0].to_bits() ^ 1);
                }
                digest(&r) == want
            };
            if good {
                ok_calls += 1;
            } else {
                bad_calls += 1;
                failures.push(format!("call {id}: result differs from the reference"));
            }
            if t0.elapsed() >= due {
                break;
            }
        }
    }
    let cpu = process_cpu().saturating_sub(cpu0);
    let peak_rss = peak_rss_mb();

    let rate = |traced: bool| {
        let rates: Vec<f64> = calls
            .iter()
            .filter(|c| c.traced == traced)
            .map(|c| solves as f64 / c.lat.as_secs_f64())
            .collect();
        median(&rates)
    };
    let lat_us: Vec<(usize, f64)> = calls
        .iter()
        .filter(|c| !c.traced)
        .map(|c| (c.slice, c.lat.as_secs_f64() * 1e6))
        .collect();
    let attempted = (ok_calls + bad_calls) * solves;
    let failed = bad_calls * solves + u64::from(warm_failures > 0);
    let metrics = if cfg.trace {
        let (untraced, traced) = (rate(false), rate(true));
        let values = [
            (
                "bitcell.disturb.build_us",
                spans.p50_us("bitcell.disturb.build"),
            ),
            (
                "bitcell.blbench.measure_us",
                spans.p50_us("bitcell.blbench.measure"),
            ),
            ("circuit.batch.new_us", spans.p50_us("circuit.batch.new")),
            ("circuit.batch.run_us", spans.p50_us("circuit.batch.run")),
            (
                "circuit.batch.lane_util",
                replayed.steps as f64 / replayed.slots as f64,
            ),
            ("stats.parallel.util", median(&utils)),
            ("trace.untraced_ops_per_s", untraced),
            ("trace.traced_ops_per_s", traced),
            ("trace.overhead_ratio", untraced / traced),
        ];
        let path = cfg
            .work_dir
            .join(format!("spans-mc_fig2-seed{}.jsonl", cfg.seed));
        if let Err(e) = spans.write_jsonl(&path) {
            eprintln!("e2ebench: writing {}: {e}", path.display());
        }
        metrics_from(&LAYER_METRICS, &values)
    } else {
        let ops = (calls.len() as u64 * solves) as f64;
        let values = [
            ("ops_per_s", rate(false)),
            ("lat_p50_us", sliced_percentile(&lat_us, 0.5)),
            ("lat_p90_us", sliced_percentile(&lat_us, 0.9)),
            ("cpu_us_per_op", cpu.as_secs_f64() * 1e6 / ops),
            ("sim_cycles_per_op", replayed.steps as f64 / solves as f64),
            ("sim_energy_fj_per_op", replayed.energy_fj / solves as f64),
            ("ok_ratio", (attempted - failed) as f64 / attempted as f64),
            ("peak_rss_mb", peak_rss),
            ("setup_s", median(&setup_times)),
        ];
        metrics_from(&E2E_METRICS, &values)
    };
    Ok(Report {
        correct: failures.is_empty(),
        attempted,
        failed,
        metrics,
        failures,
    })
}
