//! The serving workloads: `serve_small` (ephemeral sessions, tiny
//! requests) and `serve_durable` (durable sessions on a server recovered
//! from a crash image).
//!
//! Both are closed loops: `nproc` client threads, one connection each,
//! every connection keeps [`WINDOW`] requests in flight. Every response is
//! checked against a host-computed value, and at the end every session's
//! `stats` account must equal the client-side sum of what its requests
//! should have billed.

use crate::report::{metrics_from, Report};
use crate::sys::{nproc, peak_rss_mb, process_cpu, reset_peak_rss};
use crate::trace::{SpanSet, Tracer};
use crate::{median, sliced_percentile, Rng, RunConfig, Workload, E2E_METRICS, LAYER_METRICS};
use bpimc_bench::shapes::{program_request, SHAPE_COUNT};
use bpimc_core::{
    CompiledProgram, ImcMacro, Instr, LaneOp, MacroBank, MacroConfig, Precision, Program,
    ProgramBuilder, Request, RequestBody, Response, ResponseBody, SessionActivity, StoredTarget,
};
use bpimc_metrics::{paper_calibrated_params, EnergyParams};
use bpimc_nn::{chunks_per_class, classify_bindings, classify_from_outputs, classify_program};
use bpimc_server::{inspect, Client, FsyncPolicy, Server, ServerConfig, ServerHandle, StateConfig};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Requests each connection keeps in flight.
pub const WINDOW: usize = 8;
/// Operand precision of every request.
const P: Precision = Precision::P8;
/// Classes of the durable sessions' classifier model.
const CLASSES: usize = 10;
/// Features of the durable sessions' classifier model.
const DIM: usize = 64;
/// Requests in one period of the durable mix.
const DURABLE_PERIOD: u64 = 16;
/// How long a detached durable session lingers: far longer than any run.
const SESSION_TTL: Duration = Duration::from_secs(3600);

/// One request of a workload's stream.
#[derive(Debug, Clone, PartialEq)]
enum Op {
    /// 8-element dot product.
    Dot { x: Vec<u64>, w: Vec<u64> },
    /// 4-lane add.
    Add { a: Vec<u64>, b: Vec<u64> },
    /// Nearest-prototype classification against the session's model.
    Classify { x: Vec<u64> },
    /// One of the four stored `shapes` programs, rebound with key `k`.
    RunStored { shape: u64, k: u64 },
    /// Stores a shape under a temporary name.
    Store { shape: u64, name: String },
    /// Deletes a temporary stored program.
    Delete { name: String },
}

/// Billing class of an op: requests of one kind bill identical cycles
/// and energy whatever their operand values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Dot,
    Add,
    Classify,
    RunStored(u64),
    Control,
}

impl Op {
    fn kind(&self) -> Kind {
        match self {
            Op::Dot { .. } => Kind::Dot,
            Op::Add { .. } => Kind::Add,
            Op::Classify { .. } => Kind::Classify,
            Op::RunStored { shape, .. } => Kind::RunStored(*shape),
            Op::Store { .. } | Op::Delete { .. } => Kind::Control,
        }
    }
}

/// What a correct response holds.
#[derive(Debug, Clone, PartialEq)]
enum Expect {
    Scalar(u64),
    Words(Vec<u64>),
    Class(usize),
    Outputs { outputs: Vec<Vec<u64>>, cycles: u64 },
    Stored { writes: u64 },
    Ok,
}

fn shape_name(shape: u64) -> String {
    format!("shape-{shape}")
}

fn temp_name(conn: u64, i: u64) -> String {
    format!("tmp-{conn}-{i}")
}

/// Request `i` of connection `conn`: deterministic in `(seed, conn, i)`.
fn make_op(workload: Workload, seed: u64, conn: u64, i: u64) -> Op {
    match workload {
        Workload::ServeSmall => {
            let mut r = Rng::new(seed, 1 + conn, i);
            if i.is_multiple_of(2) {
                Op::Dot {
                    x: r.words(8, 256),
                    w: r.words(8, 256),
                }
            } else {
                Op::Add {
                    a: r.words(4, 256),
                    b: r.words(4, 256),
                }
            }
        }
        _ => {
            let mut r = Rng::new(seed, 101 + conn, i);
            // 6 classify, 8 run_stored (2 per shape), 1 store, 1 delete.
            match i % DURABLE_PERIOD {
                0 | 2 | 4 | 6 | 8 | 10 => Op::Classify {
                    x: r.words(DIM, 256),
                },
                14 => Op::Store {
                    shape: (i / DURABLE_PERIOD) % SHAPE_COUNT,
                    name: temp_name(conn, i),
                },
                15 => Op::Delete {
                    name: temp_name(conn, i - 1),
                },
                p => Op::RunStored {
                    shape: [0, 0, 0, 1, 0, 2, 0, 3, 0, 0, 0, 1, 2, 3][p as usize],
                    k: r.next_u64() % 4096,
                },
            }
        }
    }
}

/// The values bound to a program's writes, in order: the binding that
/// replays the program's data through `run_stored`.
fn write_bindings(prog: &Program) -> Vec<Option<Vec<u64>>> {
    prog.instrs()
        .iter()
        .filter_map(|i| match i {
            Instr::Write { values, .. } | Instr::WriteMult { values, .. } => {
                Some(Some(values.clone()))
            }
            _ => None,
        })
        .collect()
}

/// The program the server lowers a one-chunk `lanes add` request to.
fn add_program(a: &[u64], b: &[u64]) -> Program {
    let mut bld = ProgramBuilder::new();
    let (ra, rb, rd) = (bld.alloc(), bld.alloc(), bld.alloc());
    bld.write_to(ra, P, a.to_vec());
    bld.write_to(rb, P, b.to_vec());
    bld.push(Instr::Add {
        a: ra,
        b: rb,
        dst: rd,
        precision: P,
    });
    bld.read(rd, P, a.len());
    bld.finish()
}

/// Class prototypes of durable session `s`.
fn prototypes(seed: u64, s: usize) -> Vec<Vec<u64>> {
    (0..CLASSES as u64)
        .map(|c| Rng::new(seed, 7000 + s as u64, c).words(DIM, 256))
        .collect()
}

/// `|w|^2` of every prototype.
fn norms(protos: &[Vec<u64>]) -> Vec<u64> {
    protos
        .iter()
        .map(|w| w.iter().map(|v| v * v).sum())
        .collect()
}

/// The nearest prototype by `x.w - |w|^2 / 2`, lowest class on ties.
fn nearest(protos: &[Vec<u64>], norms: &[u64], x: &[u64]) -> usize {
    let mut best = (0, f64::NEG_INFINITY);
    for (c, (w, &ww)) in protos.iter().zip(norms).enumerate() {
        let xw: u64 = x.iter().zip(w).map(|(a, b)| a * b).sum();
        let score = xw as f64 - ww as f64 / 2.0;
        if score > best.1 {
            best = (c, score);
        }
    }
    best.0
}

/// The host's model of one connection's session: what every response
/// should be and what every request should bill.
struct Host {
    config: MacroConfig,
    params: EnergyParams,
    protos: Vec<Vec<u64>>,
    norms: Vec<u64>,
    template: Option<CompiledProgram>,
    shapes: Vec<CompiledProgram>,
    bills: Vec<(Kind, u64, f64)>,
}

impl Host {
    fn new(workload: Workload, seed: u64, session: usize) -> Result<Host, String> {
        let config = MacroConfig::paper_macro();
        let compile = |p: &Program| p.compile(&config).map_err(|e| e.to_string());
        let (protos, template) = if workload == Workload::ServeDurable {
            let protos = prototypes(seed, session);
            let template = compile(&classify_program(
                P,
                &protos,
                &[0; DIM],
                config.geometry.cols,
            ))?;
            (protos, Some(template))
        } else {
            (Vec::new(), None)
        };
        let norms = norms(&protos);
        let shapes = (0..SHAPE_COUNT)
            .map(|v| compile(&program_request(0, v).0))
            .collect::<Result<_, _>>()?;
        let mut host = Host {
            config,
            params: paper_calibrated_params(),
            protos,
            norms,
            template,
            shapes,
            bills: Vec::new(),
        };
        // One representative request per kind, run on a fresh macro
        // exactly as the server runs it, sets that kind's bill.
        let mut mac = ImcMacro::new(config);
        let samples = (0..2 * DURABLE_PERIOD).map(|i| make_op(workload, seed, 99, i));
        for op in samples {
            let kind = op.kind();
            if host.bills.iter().any(|b| b.0 == kind) {
                continue;
            }
            mac.clear_activity();
            exec(&mut mac, &op, &host, None)?;
            let bill = (
                kind,
                mac.activity().total_cycles(),
                host.params.log_energy_fj(mac.activity()),
            );
            host.bills.push(bill);
        }
        Ok(host)
    }

    fn bill(&self, kind: Kind) -> (u64, f64) {
        self.bills
            .iter()
            .find(|b| b.0 == kind)
            .map_or((0, 0.0), |b| (b.1, b.2))
    }

    /// The request body and the expected response of `op`.
    fn materialize(&self, op: &Op) -> (RequestBody, Expect) {
        match op {
            Op::Dot { x, w } => (
                RequestBody::Dot {
                    precision: P,
                    x: x.clone(),
                    w: w.clone(),
                },
                Expect::Scalar(x.iter().zip(w).map(|(a, b)| a * b).sum()),
            ),
            Op::Add { a, b } => (
                RequestBody::Lanes {
                    op: LaneOp::Add,
                    precision: P,
                    a: a.clone(),
                    b: b.clone(),
                },
                Expect::Words(a.iter().zip(b).map(|(x, y)| (x + y) & 0xFF).collect()),
            ),
            Op::Classify { x } => (
                RequestBody::Classify { x: x.clone() },
                Expect::Class(nearest(&self.protos, &self.norms, x)),
            ),
            Op::RunStored { shape, k } => {
                let (prog, outputs) = program_request(*k, *shape);
                (
                    RequestBody::RunStored {
                        target: StoredTarget::Name(shape_name(*shape)),
                        inputs: write_bindings(&prog),
                    },
                    Expect::Outputs {
                        outputs,
                        cycles: self.bill(Kind::RunStored(*shape)).0,
                    },
                )
            }
            Op::Store { shape, name } => {
                let prog = program_request(0, *shape).0;
                (
                    RequestBody::StoreProgram {
                        instrs: prog.instrs().to_vec(),
                        name: Some(name.clone()),
                    },
                    Expect::Stored {
                        writes: write_bindings(&prog).len() as u64,
                    },
                )
            }
            Op::Delete { name } => (
                RequestBody::DeleteProgram {
                    target: StoredTarget::Name(name.clone()),
                },
                Expect::Ok,
            ),
        }
    }
}

/// Compares a response with its expectation.
fn check(expect: &Expect, body: &ResponseBody) -> Result<(), String> {
    let ok = match (expect, body) {
        (Expect::Scalar(v), ResponseBody::Scalar(got)) => v == got,
        (Expect::Words(v), ResponseBody::Words(got)) => v == got,
        (Expect::Class(v), ResponseBody::Class(got)) => v == got,
        (Expect::Outputs { outputs, cycles }, ResponseBody::Program(r)) => {
            &r.outputs == outputs && r.total_cycles() == *cycles
        }
        (Expect::Stored { writes }, ResponseBody::Stored(meta)) => meta.writes == *writes,
        (Expect::Ok, ResponseBody::Ok) => true,
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("expected {expect:?}, got {body:?}"))
    }
}

/// Flips one bit of a response's payload (the injected wrong answer).
fn corrupt(body: &mut ResponseBody) {
    match body {
        ResponseBody::Scalar(v) => *v ^= 1,
        ResponseBody::Words(ws) => ws[0] ^= 1,
        ResponseBody::Class(c) => *c = (*c + 1) % CLASSES,
        ResponseBody::Program(r) => r.outputs[0][0] ^= 1,
        ResponseBody::Stored(meta) => meta.writes += 1,
        other => *other = ResponseBody::Pong,
    }
}

/// Times `f` as a span when a tracer is given.
fn span<T>(
    tr: &mut Option<(&mut Tracer, Option<usize>, u64)>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match tr {
        Some((t, parent, req)) => t.time(name, *parent, *req, f),
        None => f(),
    }
}

/// Runs `op` on a host macro the way the server does and returns the
/// response body it should produce (a stored program's pid reads 0).
fn exec(
    mac: &mut ImcMacro,
    op: &Op,
    host: &Host,
    mut tr: Option<(&mut Tracer, Option<usize>, u64)>,
) -> Result<ResponseBody, String> {
    let cols = mac.cols();
    Ok(match op {
        Op::Dot { x, w } => {
            let prog = bpimc_nn::dot_program(P, x, w, cols);
            let run =
                span(&mut tr, "core.prog.run", || prog.run(mac)).map_err(|e| e.to_string())?;
            ResponseBody::Scalar(run.outputs.iter().flatten().sum())
        }
        Op::Add { a, b } => {
            let prog = add_program(a, b);
            let run =
                span(&mut tr, "core.prog.run", || prog.run(mac)).map_err(|e| e.to_string())?;
            ResponseBody::Words(run.outputs.concat())
        }
        Op::Classify { x } => {
            let template = host.template.as_ref().ok_or("no model on this session")?;
            let inputs = span(&mut tr, "nn.classifier.host", || {
                classify_bindings(P, CLASSES, x, cols)
            });
            let outputs = span(&mut tr, "core.prog.run", || {
                template.run_outputs(mac, &inputs)
            })
            .map_err(|e| e.to_string())?;
            let chunks = chunks_per_class(P, DIM, cols);
            ResponseBody::Class(span(&mut tr, "nn.classifier.host", || {
                classify_from_outputs(&outputs, chunks, &host.norms)
            }))
        }
        Op::RunStored { shape, k } => {
            let bindings = write_bindings(&program_request(*k, *shape).0);
            let inputs: Vec<Option<&[u64]>> = bindings.iter().map(|b| b.as_deref()).collect();
            let compiled = &host.shapes[*shape as usize];
            let run = span(&mut tr, "core.prog.run", || {
                compiled.run_with_inputs(mac, &inputs)
            })
            .map_err(|e| e.to_string())?;
            ResponseBody::Program(bpimc_core::ProgramReport {
                outputs: run.outputs,
                cycles: run.instr_cycles,
                energy_fj: Vec::new(),
            })
        }
        Op::Store { shape, .. } => {
            let prog = program_request(0, *shape).0;
            let compiled = span(&mut tr, "core.prog.compile", || prog.compile(&host.config))
                .map_err(|e| e.to_string())?;
            ResponseBody::Stored(bpimc_core::StoredMeta {
                pid: 0,
                cycles: compiled.cycles(),
                writes: compiled.write_count() as u64,
                diagnostics: Vec::new(),
            })
        }
        Op::Delete { .. } => ResponseBody::Ok,
    })
}

/// Host execution must agree with what the server answered.
fn same_result(host: &ResponseBody, served: &ResponseBody) -> bool {
    match (host, served) {
        (ResponseBody::Program(h), ResponseBody::Program(s)) => {
            h.outputs == s.outputs && h.cycles == s.cycles
        }
        (ResponseBody::Stored(h), ResponseBody::Stored(s)) => {
            h.writes == s.writes && h.cycles == s.cycles
        }
        _ => host == served,
    }
}

/// A request in flight.
struct Pending {
    op: Op,
    expect: Expect,
    id: u64,
    seq: Option<u64>,
    body: Option<RequestBody>,
    sent_ns: u64,
    measured: bool,
    span: Option<usize>,
}

/// A traced request kept for the replay phase.
struct Recorded {
    conn: usize,
    op: Op,
    request: Request,
    response: Response,
}

/// One completed request of the measured phase.
#[derive(Debug, Clone, Copy)]
struct Sample {
    lat_ns: u32,
    slice: u16,
    traced: bool,
}

/// Spans each connection keeps (about a third as many requests).
const SPAN_CAP: usize = 60_000;

/// Latency samples each connection keeps. The buffer is allocated and
/// written up front, so the process's peak memory does not grow with the
/// request rate.
const SAMPLE_CAP: usize = 1 << 19;

/// The client-side account of one session.
#[derive(Debug, Clone, Copy)]
struct Account {
    requests: u64,
    cycles: u64,
    energy_fj: f64,
}

/// One client connection and everything it measured.
struct Conn<'a> {
    idx: usize,
    workload: Workload,
    seed: u64,
    client: Client,
    host: &'a Host,
    epoch: Instant,
    next_op: u64,
    next_seq: Option<u64>,
    inflight: VecDeque<Pending>,
    /// Server account at the start, and the client-side account since,
    /// its energy summed in request order from the start's.
    start: SessionActivity,
    acct: Account,
    /// Cycles and energy billed since the start, and their value at the
    /// end of the warm-up prefix.
    billed: (u64, f64),
    warm_bill: (u64, f64),
    ok: u64,
    failed: u64,
    failures: Vec<String>,
    samples: Vec<Sample>,
    n_samples: usize,
    /// Measured phase: its start and slice length, and requests completed
    /// per slice.
    t0_ns: u64,
    slice_ns: u64,
    slice_counts: Vec<u64>,
    tracer: Tracer,
    recorded: Vec<Recorded>,
    record_cap: usize,
    /// Request and response line bytes, counted during warm-up when traced.
    count_bytes: bool,
    req_bytes: u64,
    resp_bytes: u64,
    corrupt_at: Option<u64>,
}

impl<'a> Conn<'a> {
    fn new(
        idx: usize,
        cfg: &RunConfig,
        mut client: Client,
        resumed_seq: Option<Option<u64>>,
        host: &'a Host,
        epoch: Instant,
    ) -> Result<Conn<'a>, String> {
        // A durable session stamps a seq on every request; the client
        // continues after the session's last executed one.
        let next_seq = resumed_seq.map(|last| last.map_or(0, |s| s + 1));
        let start = client.stats().map_err(|e| format!("stats: {e}"))?;
        Ok(Conn {
            idx,
            workload: cfg.workload,
            seed: cfg.seed,
            client,
            host,
            epoch,
            next_op: 0,
            next_seq: next_seq.map(|s| s + 1),
            inflight: VecDeque::with_capacity(WINDOW),
            start,
            acct: Account {
                requests: 1,
                cycles: 0,
                energy_fj: start.energy_fj,
            },
            billed: (0, 0.0),
            warm_bill: (0, 0.0),
            ok: 0,
            failed: 0,
            failures: Vec::new(),
            samples: vec![
                Sample {
                    lat_ns: u32::MAX,
                    slice: u16::MAX,
                    traced: true,
                };
                SAMPLE_CAP
            ],
            n_samples: 0,
            t0_ns: 0,
            slice_ns: (cfg.scale.slice_s * 1e9) as u64,
            slice_counts: vec![0; slices(cfg)],
            tracer: Tracer::with_cap(epoch, SPAN_CAP),
            recorded: Vec::new(),
            record_cap: cfg.scale.replay_ops,
            count_bytes: false,
            req_bytes: 0,
            resp_bytes: 0,
            corrupt_at: if idx == 0 { cfg.corrupt_at } else { None },
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures
                .push(format!("connection {}: {msg}", self.idx));
        }
    }

    fn send_next(&mut self, measured: bool, traced: bool) -> Result<(), String> {
        let op = make_op(self.workload, self.seed, self.idx as u64, self.next_op);
        self.next_op += 1;
        let (body, expect) = self.host.materialize(&op);
        let seq = self.next_seq;
        self.next_seq = seq.map(|s| s + 1);
        // The body is kept for byte counting and for the replay phase.
        let keep = self.count_bytes || (traced && self.recorded.len() < self.record_cap);
        let kept = keep.then(|| body.clone());
        let sent_ns = self.now_ns();
        let span = traced.then(|| self.tracer.open("client.op", None, 0));
        let send = span.map(|p| self.tracer.open("server.client.send", Some(p), 0));
        let id = self.client.send(body).map_err(|e| format!("send: {e}"))?;
        if let (Some(p), Some(s)) = (span, send) {
            self.tracer.close(s);
            self.tracer.set_req(p, id);
            self.tracer.set_req(s, id);
        }
        if self.count_bytes {
            let line = Request {
                id,
                seq,
                timeout_ms: None,
                body: kept.clone().expect("kept for byte counting"),
            }
            .to_json_line();
            self.req_bytes += line.len() as u64 + 1;
        }
        self.inflight.push_back(Pending {
            op,
            expect,
            id,
            seq,
            body: kept,
            sent_ns,
            measured,
            span,
        });
        Ok(())
    }

    fn recv_one(&mut self) -> Result<(), String> {
        let p = self.inflight.pop_front().expect("a request in flight");
        let wait = p
            .span
            .map(|s| self.tracer.open("server.client.recv_wait", Some(s), p.id));
        let resp = self.client.recv().map_err(|e| format!("recv: {e}"))?;
        if let Some(w) = wait {
            self.tracer.close(w);
        }
        if resp.id != p.id {
            return Err(format!("response id {} for request {}", resp.id, p.id));
        }
        let mut body = resp.body;
        if self.corrupt_at == Some(self.next_op - self.inflight.len() as u64 - 1) {
            corrupt(&mut body);
        }
        match check(&p.expect, &body) {
            Ok(()) => {
                self.ok += 1;
                let (cycles, energy_fj) = self.host.bill(p.op.kind());
                self.acct.requests += 1;
                self.acct.cycles += cycles;
                self.acct.energy_fj += energy_fj;
                self.billed.0 += cycles;
                self.billed.1 += energy_fj;
            }
            Err(e) => self.fail(e),
        }
        let done_ns = self.now_ns();
        if self.count_bytes {
            let line = Response {
                id: p.id,
                body: body.clone(),
            }
            .to_json_line();
            self.resp_bytes += line.len() as u64 + 1;
        }
        let slice = done_ns.saturating_sub(self.t0_ns) / self.slice_ns;
        if p.measured && done_ns >= self.t0_ns && (slice as usize) < self.slice_counts.len() {
            self.slice_counts[slice as usize] += 1;
            if self.n_samples < SAMPLE_CAP {
                self.samples[self.n_samples] = Sample {
                    lat_ns: u32::try_from(done_ns - p.sent_ns).unwrap_or(u32::MAX),
                    slice: slice as u16,
                    traced: p.span.is_some(),
                };
                self.n_samples += 1;
            }
        }
        if let Some(s) = p.span {
            self.tracer.close(s);
            if let (Some(request), true) = (p.body, self.recorded.len() < self.record_cap) {
                self.recorded.push(Recorded {
                    conn: self.idx,
                    op: p.op,
                    request: Request {
                        id: p.id,
                        seq: p.seq,
                        timeout_ms: None,
                        body: request,
                    },
                    response: Response { id: p.id, body },
                });
            }
        }
        Ok(())
    }

    /// Sends `count` requests, or until `stop` is raised, keeping the
    /// window full, then drains.
    fn drive(
        &mut self,
        count: Option<u64>,
        stop: &AtomicBool,
        tracing: &AtomicBool,
    ) -> Result<(), String> {
        let measured = count.is_none();
        let mut sent = 0u64;
        loop {
            let more = |sent: u64| match count {
                Some(n) => sent < n,
                None => !stop.load(Ordering::Relaxed),
            };
            while self.inflight.len() < WINDOW && more(sent) {
                self.send_next(measured, measured && tracing.load(Ordering::Relaxed))?;
                sent += 1;
            }
            if self.inflight.is_empty() {
                return Ok(());
            }
            self.recv_one()?;
        }
    }

    /// The session's server-side account must equal the client-side sum.
    fn check_account(&mut self) -> Result<(), String> {
        let got = self.client.stats().map_err(|e| format!("stats: {e}"))?;
        let want = SessionActivity {
            requests: self.start.requests + self.acct.requests,
            errors: self.start.errors,
            cycles: self.start.cycles + self.acct.cycles,
            energy_fj: self.acct.energy_fj,
        };
        let exact = got.requests == want.requests
            && got.errors == want.errors
            && got.cycles == want.cycles
            && got.energy_fj.to_bits() == want.energy_fj.to_bits();
        if exact {
            self.ok += 1;
        } else {
            self.fail(format!(
                "server account {got:?} != client-side sum {want:?}"
            ));
        }
        Ok(())
    }
}

/// The serving stack one run drives, plus what set-up measured.
struct Stack {
    server: ServerHandle,
    clients: Vec<(Client, Option<Option<u64>>)>,
    setup_times: Vec<f64>,
    /// The durable run's state directory, crash image and its facts.
    state_dir: Option<PathBuf>,
    image: Option<PathBuf>,
    replayed_events: u64,
}

fn server_config(state: Option<StateConfig>) -> ServerConfig {
    ServerConfig {
        macros: nproc(),
        session_ttl: SESSION_TTL,
        state,
        ..ServerConfig::default()
    }
}

/// Journal settings: no fsync, and no periodic compaction. The journal's
/// own work (encoding, CRC, write syscalls) stays on the request path;
/// the disk's flush latency goes. A compacting snapshot fsyncs its file and
/// directory under the journal lock whatever the fsync policy, so with
/// compaction on, every request would wait on the disk once a second.
/// Snapshot encoding and decoding are still measured: every recovery boot
/// in set-up decodes one and writes one. It also keeps every journal record
/// countable.
fn state_config(dir: &Path) -> StateConfig {
    let mut state = StateConfig::new(dir);
    state.fsync = FsyncPolicy::Never;
    state.snapshot_interval = Duration::from_secs(365 * 24 * 3600);
    state.snapshot_min_records = u64::MAX;
    state
}

fn bind(config: ServerConfig) -> Result<ServerHandle, String> {
    Server::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))
}

fn connect(server: &ServerHandle) -> Result<Client, String> {
    Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("creating {}: {e}", to.display()))?;
    let entries =
        std::fs::read_dir(from).map_err(|e| format!("reading {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copying {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// Two requests (round `round`) that give a session history before the
/// crash.
fn session_traffic(client: &mut Client, seed: u64, s: usize, round: u64) -> Result<(), String> {
    let protos = prototypes(seed, s);
    let norms = norms(&protos);
    for i in 0..2 {
        let mut r = Rng::new(seed, 9000 + s as u64, 2 * round + i);
        let x = r.words(DIM, 256);
        let class = client.classify(&x).map_err(|e| format!("classify: {e}"))?;
        let want = nearest(&protos, &norms, &x);
        if class != want {
            return Err(format!(
                "pre-crash classify: class {class}, expected {want}"
            ));
        }
        let shape = i % SHAPE_COUNT;
        let (prog, outputs) = program_request(r.next_u64() % 4096, shape);
        let report = client
            .run_stored_named(shape_name(shape), &write_bindings(&prog))
            .map_err(|e| format!("run_stored: {e}"))?;
        if report.outputs != outputs {
            return Err("pre-crash run_stored: wrong outputs".into());
        }
    }
    Ok(())
}

/// Builds the crash image: `sessions` durable sessions with a model and
/// the four named shapes, a clean restart, then more traffic on some of
/// them, copied byte for byte while the server still runs (no
/// clean-shutdown marker). Returns the image and the session tokens.
fn build_crash_image(cfg: &RunConfig) -> Result<(PathBuf, Vec<String>), String> {
    let live = cfg.work_dir.join("live");
    let image = cfg.work_dir.join("image");
    let _ = std::fs::remove_dir_all(&live);
    let sessions = cfg.scale.sessions;
    let seed = cfg.seed;

    let server = bind(server_config(Some(state_config(&live))))?;
    let addr = server.local_addr();
    let lanes = nproc();
    let per_lane: Vec<Result<Vec<(usize, String)>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                scope.spawn(move || {
                    let mut tokens = Vec::new();
                    for s in (lane..sessions).step_by(lanes) {
                        let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                        let info = c.open_session().map_err(|e| format!("open: {e}"))?;
                        c.load_model(P, &prototypes(seed, s))
                            .map_err(|e| format!("load_model: {e}"))?;
                        for v in 0..SHAPE_COUNT {
                            c.store_program_named(&program_request(0, v).0, shape_name(v))
                                .map_err(|e| format!("store: {e}"))?;
                        }
                        session_traffic(&mut c, seed, s, 0)?;
                        tokens.push((s, info.token));
                    }
                    Ok(tokens)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("image builder panicked".into()))
            })
            .collect()
    });
    server.shutdown();
    let mut tokens = vec![String::new(); sessions];
    for lane in per_lane {
        for (s, token) in lane? {
            tokens[s] = token;
        }
    }

    // Warm restart, then a journal tail on top of its snapshot.
    let server = bind(server_config(Some(state_config(&live))))?;
    let stride = (sessions / cfg.scale.tail_sessions.max(1)).max(1);
    for s in (0..sessions).step_by(stride) {
        let mut c = connect(&server)?;
        c.resume_session(tokens[s].clone())
            .map_err(|e| format!("resume: {e}"))?;
        session_traffic(&mut c, seed, s, 1)?;
    }
    // Every detach is journaled by the server's reader thread once it sees
    // the connection close; wait for all of them so the image is the same
    // on every run.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let report = inspect(&live).map_err(|e| format!("inspect: {e}"))?;
        let settled = report.sessions.len() == sessions
            && report.corruptions.is_empty()
            && report
                .sessions
                .iter()
                .all(|s| s.detached_since_ms.is_some());
        if settled {
            break;
        }
        if Instant::now() > deadline {
            return Err("crash image never settled".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    copy_dir(&live, &image)?;
    server.shutdown();
    let _ = std::fs::remove_dir_all(&live);
    Ok((image, tokens))
}

/// One timed set-up of the serving stack. Without a crash image it is
/// `serve_small`'s: a bind plus `nproc` connects. With one it is
/// `serve_durable`'s: the cold recovery boot of a fresh copy of the image
/// (the clients connect and resume afterwards, untimed).
fn set_up(
    cfg: &RunConfig,
    image: Option<&Path>,
    rep: usize,
) -> Result<(ServerHandle, Vec<Client>, Option<PathBuf>, f64), String> {
    let dir = image
        .map(|image| {
            let dir = cfg.work_dir.join(format!("run-{rep}"));
            copy_dir(image, &dir).map(|()| dir)
        })
        .transpose()?;
    let t = Instant::now();
    let server = bind(server_config(dir.as_deref().map(state_config)))?;
    let clients = match image {
        Some(_) => Vec::new(),
        None => (0..nproc())
            .map(|_| connect(&server))
            .collect::<Result<_, _>>()?,
    };
    Ok((server, clients, dir, t.elapsed().as_secs_f64()))
}

/// Set-ups whose median is `setup_s`: a bind plus connects is cheap, so
/// `serve_small` repeats it ten times as often.
fn setup_reps(cfg: &RunConfig) -> usize {
    match cfg.workload {
        Workload::ServeSmall => 10 * cfg.scale.setup_reps,
        _ => cfg.scale.setup_reps,
    }
}

/// The first set-up, which then serves the run. The other set-ups run
/// after the measured phase ([`more_set_ups`]), on a CPU that is already
/// busy and without leaving their freed servers' memory in the heap that
/// `peak_rss_mb` sees.
fn first_set_up(cfg: &RunConfig) -> Result<Stack, String> {
    let (image, tokens, replayed_events) = match cfg.workload {
        Workload::ServeDurable => {
            let (image, tokens) = build_crash_image(cfg)?;
            let replayed = inspect(&image)
                .map_err(|e| format!("inspect: {e}"))?
                .replayed_events;
            (Some(image), tokens, replayed)
        }
        _ => (None, Vec::new(), 0),
    };
    let (server, clients, state_dir, secs) = set_up(cfg, image.as_deref(), 0)?;
    let clients = match image {
        Some(_) => (0..nproc())
            .map(|c| {
                let mut client = connect(&server)?;
                let info = client
                    .resume_session(tokens[c].clone())
                    .map_err(|e| format!("resume: {e}"))?;
                Ok((client, Some(info.last_seq)))
            })
            .collect::<Result<Vec<_>, String>>()?,
        None => clients.into_iter().map(|c| (c, None)).collect(),
    };
    Ok(Stack {
        server,
        clients,
        setup_times: vec![secs],
        state_dir,
        image,
        replayed_events,
    })
}

/// The remaining timed set-ups.
fn more_set_ups(cfg: &RunConfig, image: Option<&Path>) -> Result<Vec<f64>, String> {
    (1..setup_reps(cfg))
        .map(|rep| {
            let (server, clients, dir, secs) = set_up(cfg, image, rep)?;
            drop(clients);
            server.shutdown();
            if let Some(dir) = dir {
                let _ = std::fs::remove_dir_all(dir);
            }
            Ok(secs)
        })
        .collect()
}

/// Journal records and bytes of the newest generation.
fn journal_totals(dir: &Path) -> Result<(u64, u64), String> {
    let report = inspect(dir).map_err(|e| format!("inspect: {e}"))?;
    let newest = report
        .journals
        .iter()
        .max_by_key(|j| j.gen)
        .ok_or("no journal in the state dir")?;
    let bytes = std::fs::metadata(dir.join(format!("journal-{}.log", newest.gen)))
        .map_err(|e| format!("journal size: {e}"))?
        .len();
    Ok((newest.records, bytes))
}

/// What the replay phase of a traced run measured.
#[derive(Default)]
struct Replay {
    spans: SpanSet,
    /// Per replayed request: time of its parse, run and encode children.
    accounted_us: Vec<f64>,
    bank_util: Vec<f64>,
    failures: Vec<String>,
}

/// Replays the recorded requests through the wire codec and a host
/// executor, then in window-sized batches through a `MacroBank`.
fn replay(recorded: &[Recorded], hosts: &[Host]) -> Replay {
    let mut out = Replay::default();
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch);
    let config = MacroConfig::paper_macro();
    let mut mac = ImcMacro::new(config);
    for rec in recorded {
        let id = rec.request.id;
        let line = rec.request.to_json_line();
        let p = tr.open("replay.op", None, id);
        let parsed = tr.time("core.wire.parse", Some(p), id, || Request::parse(&line));
        let host_body = exec(
            &mut mac,
            &rec.op,
            &hosts[rec.conn],
            Some((&mut tr, Some(p), id)),
        );
        let encoded = tr.time("core.wire.encode", Some(p), id, || {
            rec.response.to_json_line()
        });
        let reparsed = tr.time("core.wire.resp_parse", Some(p), id, || {
            Response::parse(&encoded)
        });
        tr.close(p);
        if parsed.as_ref() != Ok(&rec.request) {
            out.failures
                .push(format!("request {id} does not survive the wire codec"));
        }
        if reparsed.as_ref() != Ok(&rec.response) {
            out.failures
                .push(format!("response {id} does not survive the wire codec"));
        }
        match host_body {
            Ok(b) if same_result(&b, &rec.response.body) => {}
            other => out.failures.push(format!(
                "request {id}: host run gave {other:?}, server {:?}",
                rec.response.body
            )),
        }
    }
    let mut bank = MacroBank::new(nproc(), config);
    for batch in recorded.chunks(WINDOW * nproc()) {
        bank.clear_activity();
        let s = tr.open("core.macrobank.batch", None, batch[0].request.id);
        let results = bank.try_run_batch(batch, |m, rec| exec(m, &rec.op, &hosts[rec.conn], None));
        tr.close_ops(s, batch.len());
        for (rec, res) in batch.iter().zip(results) {
            match res {
                Ok(Ok(b)) if same_result(&b, &rec.response.body) => {}
                _ => out.failures.push(format!(
                    "request {}: bank run disagrees with the server",
                    rec.request.id
                )),
            }
        }
        let makespan = bank.makespan_cycles();
        if makespan > 0 {
            out.bank_util
                .push(bank.total_cycles() as f64 / (bank.len() as f64 * makespan as f64));
        }
    }
    let spans = tr.into_spans();
    let selfs = crate::trace::self_times_ns(&spans);
    out.accounted_us = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "replay.op")
        .map(|(s, self_ns)| (s.end_ns - s.start_ns - self_ns) as f64 / 1e3)
        .collect();
    out.spans.add(spans);
    out
}

/// Measurement slices of the measured phase.
fn slices(cfg: &RunConfig) -> usize {
    ((cfg.seconds / cfg.scale.slice_s).round() as usize).max(2)
}

/// Runs one serving workload.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let stack = first_set_up(cfg)?;
    let n = stack.clients.len();
    let hosts = (0..n)
        .map(|c| Host::new(cfg.workload, cfg.seed, c))
        .collect::<Result<Vec<_>, _>>()?;
    let epoch = Instant::now();
    let stop = AtomicBool::new(false);
    let tracing = AtomicBool::new(false);
    let barrier = Barrier::new(n + 1);
    let slices = slices(cfg);
    let slice = Duration::from_secs_f64(cfg.scale.slice_s);
    let t0_shared = AtomicU64::new(0);

    // Journal records and bytes after the warm-up prefix (traced durable).
    let mut journal_warm = (0, 0);
    let mut cpu = Duration::ZERO;
    let mut peak_rss = 0.0;
    let results: Vec<Result<Conn, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = stack
            .clients
            .into_iter()
            .enumerate()
            .map(|(c, (client, resumed))| {
                let (host, stop, tracing, barrier) = (&hosts[c], &stop, &tracing, &barrier);
                let t0_shared = &t0_shared;
                scope.spawn(move || {
                    let mut conn = Conn::new(c, cfg, client, resumed, host, epoch);
                    let warm = conn.as_mut().map_err(|e| e.clone()).and_then(|conn| {
                        conn.count_bytes = cfg.trace;
                        let warm = conn.drive(Some(cfg.scale.warmup_ops), stop, tracing);
                        conn.count_bytes = false;
                        conn.warm_bill = conn.billed;
                        warm
                    });
                    // Every thread meets the main thread twice, even after
                    // an error, so nobody waits forever.
                    barrier.wait();
                    barrier.wait();
                    warm?;
                    let mut conn = conn?;
                    conn.t0_ns = t0_shared.load(Ordering::SeqCst);
                    conn.drive(None, stop, tracing)?;
                    conn.check_account()?;
                    Ok(conn)
                })
            })
            .collect();
        barrier.wait();
        if let (true, Some(dir)) = (cfg.trace, &stack.state_dir) {
            journal_warm = journal_totals(dir).unwrap_or((0, 0));
        }
        reset_peak_rss();
        let t0 = epoch.elapsed().as_nanos() as u64;
        t0_shared.store(t0, Ordering::SeqCst);
        barrier.wait();
        let cpu0 = process_cpu();
        for k in 0..slices {
            // A traced run alternates untraced and traced slices.
            tracing.store(cfg.trace && k % 2 == 1, Ordering::Relaxed);
            let due = Duration::from_nanos(t0) + slice * (k as u32 + 1);
            if let Some(wait) = due.checked_sub(epoch.elapsed()) {
                std::thread::sleep(wait);
            }
        }
        cpu = process_cpu().saturating_sub(cpu0);
        // Before the benchmark's own result processing adds to it.
        peak_rss = peak_rss_mb();
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    stack.server.shutdown();
    if let Some(dir) = &stack.state_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let mut conns = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    let mut setup_times = stack.setup_times;
    if !cfg.trace {
        setup_times.extend(more_set_ups(cfg, stack.image.as_deref())?);
    }

    let mut failures: Vec<String> = conns.iter().flat_map(|c| c.failures.clone()).collect();
    let attempted: u64 = conns.iter().map(|c| c.ok + c.failed).sum();
    let mut failed: u64 = conns.iter().map(|c| c.failed).sum();
    let samples: Vec<Sample> = conns
        .iter()
        .flat_map(|c| c.samples[..c.n_samples].iter().copied())
        .collect();
    let counts: Vec<u64> = (0..slices)
        .map(|k| conns.iter().map(|c| c.slice_counts[k]).sum())
        .collect();
    // Median over slices of requests completed per second; a traced run
    // keeps its untraced and traced slices apart.
    let slice_rate = |traced: bool| {
        let rates: Vec<f64> = counts
            .iter()
            .enumerate()
            .filter(|(k, _)| !cfg.trace || (k % 2 == 1) == traced)
            .map(|(_, &c)| c as f64 / cfg.scale.slice_s)
            .collect();
        median(&rates)
    };
    let lat_us: Vec<(usize, f64)> = samples
        .iter()
        .filter(|s| !s.traced)
        .map(|s| (usize::from(s.slice), f64::from(s.lat_ns) / 1e3))
        .collect();
    let warm_ops = (n as u64 * cfg.scale.warmup_ops) as f64;

    let metrics = if cfg.trace {
        let recorded: Vec<Recorded> = conns
            .iter_mut()
            .flat_map(|c| c.recorded.drain(..))
            .collect();
        let rep = replay(&recorded, &hosts);
        if !rep.failures.is_empty() {
            failed += 1;
            failures.extend(rep.failures.iter().take(8).cloned());
        }
        let req_bytes: u64 = conns.iter().map(|c| c.req_bytes).sum();
        let resp_bytes: u64 = conns.iter().map(|c| c.resp_bytes).sum();
        let mut live = SpanSet::default();
        for c in conns {
            live.add(c.tracer.into_spans());
        }
        let send = live.p50_us("server.client.send");
        let (untraced, traced) = (slice_rate(false), slice_rate(true));
        // Requests the journal saw by the end of warm-up: resume, the
        // opening `stats`, and the warm-up prefix.
        let warm_requests = (n as u64 * (cfg.scale.warmup_ops + 2)) as f64;
        let durable = stack.state_dir.is_some();
        let per_warm_request = |x: u64| {
            if durable {
                x as f64 / warm_requests
            } else {
                0.0
            }
        };
        let spans = &rep.spans;
        let values = [
            ("server.client.send_us", send),
            (
                "server.client.recv_wait_us",
                live.p50_us("server.client.recv_wait"),
            ),
            ("core.wire.req_bytes_per_op", req_bytes as f64 / warm_ops),
            ("core.wire.resp_bytes_per_op", resp_bytes as f64 / warm_ops),
            ("core.wire.parse_us", spans.p50_us("core.wire.parse")),
            ("core.wire.encode_us", spans.p50_us("core.wire.encode")),
            (
                "server.residual_us",
                sliced_percentile(&lat_us, 0.5) - send - median(&rep.accounted_us),
            ),
            ("core.prog.run_us", spans.p50_us("core.prog.run")),
            (
                "nn.classifier.host_us",
                spans.p50_us_per_parent("nn.classifier.host"),
            ),
            ("core.prog.compile_us", spans.p50_us("core.prog.compile")),
            (
                "core.macrobank.batch_us",
                spans.p50_us("core.macrobank.batch"),
            ),
            ("core.macrobank.util", median(&rep.bank_util)),
            (
                "server.persist.records_per_op",
                per_warm_request(journal_warm.0),
            ),
            (
                "server.persist.bytes_per_op",
                per_warm_request(journal_warm.1),
            ),
            (
                "server.persist.replayed_events",
                stack.replayed_events as f64,
            ),
            ("trace.untraced_ops_per_s", untraced),
            ("trace.traced_ops_per_s", traced),
            ("trace.overhead_ratio", untraced / traced),
        ];
        let path = cfg.work_dir.join(format!(
            "spans-{}-seed{}.jsonl",
            cfg.workload.name(),
            cfg.seed
        ));
        live.add(rep.spans.into_spans());
        if let Err(e) = live.write_jsonl(&path) {
            eprintln!("e2ebench: writing {}: {e}", path.display());
        }
        metrics_from(&LAYER_METRICS, &values)
    } else {
        let billed_cycles: u64 = conns.iter().map(|c| c.warm_bill.0).sum();
        let billed_energy = conns.iter().fold(0.0, |acc, c| acc + c.warm_bill.1);
        let ops = counts.iter().sum::<u64>() as f64;
        let values = [
            ("ops_per_s", slice_rate(false)),
            ("lat_p50_us", sliced_percentile(&lat_us, 0.5)),
            ("lat_p90_us", sliced_percentile(&lat_us, 0.9)),
            ("cpu_us_per_op", cpu.as_secs_f64() * 1e6 / ops),
            ("sim_cycles_per_op", billed_cycles as f64 / warm_ops),
            ("sim_energy_fj_per_op", billed_energy / warm_ops),
            ("ok_ratio", (attempted - failed) as f64 / attempted as f64),
            ("peak_rss_mb", peak_rss),
            ("setup_s", median(&setup_times)),
        ];
        metrics_from(&E2E_METRICS, &values)
    };
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        failures,
    })
}
