//! End-to-end and per-layer benchmark of the bpimc stack.
//!
//! Three closed-loop workloads put different layers under load:
//!
//! * [`Workload::ServeSmall`] — an in-process server on ephemeral sessions,
//!   tiny `dot` / `lanes add` requests: wire codec and thread handoffs.
//! * [`Workload::ServeDurable`] — a server recovered from a crash image,
//!   durable sessions with `seq` stamps, `classify` / `run_stored` /
//!   `store_program` + `delete_program`: executor, limb engine, journal.
//! * [`Workload::McFig2`] — the paper's Fig. 2 Monte-Carlo experiment:
//!   device evaluation, the `BatchSim` integrator and the MC fan-out.
//!
//! An untraced run reports the end-to-end metrics ([`E2E_METRICS`]); a
//! traced run reports the per-layer metrics ([`LAYER_METRICS`]) from spans
//! the benchmark records around its own calls into each layer. See
//! `README.md` next to this crate for the metric map and the run recipe.

pub mod mc;
pub mod report;
pub mod serve;
pub mod sys;
pub mod trace;

use report::Report;
use std::path::PathBuf;

/// The end-to-end metrics every untraced run reports, with their units.
pub const E2E_METRICS: [(&str, &str); 9] = [
    ("ops_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("lat_p90_us", "us"),
    ("cpu_us_per_op", "us"),
    ("sim_cycles_per_op", "cycles"),
    ("sim_energy_fj_per_op", "fJ"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The per-layer metrics every traced run reports, with their units. A
/// layer the workload does not run reports 0.
pub const LAYER_METRICS: [(&str, &str); 24] = [
    ("server.client.send_us", "us"),
    ("server.client.recv_wait_us", "us"),
    ("core.wire.req_bytes_per_op", "B"),
    ("core.wire.resp_bytes_per_op", "B"),
    ("core.wire.parse_us", "us"),
    ("core.wire.encode_us", "us"),
    ("server.residual_us", "us"),
    ("core.prog.run_us", "us"),
    ("nn.classifier.host_us", "us"),
    ("core.prog.compile_us", "us"),
    ("core.macrobank.batch_us", "us"),
    ("core.macrobank.util", "ratio"),
    ("server.persist.records_per_op", "count"),
    ("server.persist.bytes_per_op", "B"),
    ("server.persist.replayed_events", "count"),
    ("bitcell.disturb.build_us", "us"),
    ("bitcell.blbench.measure_us", "us"),
    ("circuit.batch.new_us", "us"),
    ("circuit.batch.run_us", "us"),
    ("circuit.batch.lane_util", "ratio"),
    ("stats.parallel.util", "ratio"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Metrics that are exact counts: for one seed and scale they repeat
/// bit for bit across runs, whatever the host's timing.
pub const EXACT_METRICS: [&str; 8] = [
    "sim_cycles_per_op",
    "sim_energy_fj_per_op",
    "core.wire.req_bytes_per_op",
    "core.wire.resp_bytes_per_op",
    "server.persist.records_per_op",
    "server.persist.bytes_per_op",
    "server.persist.replayed_events",
    "circuit.batch.lane_util",
];

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Ephemeral sessions, small pipelined `dot` / `lanes add` requests.
    ServeSmall,
    /// Durable sessions on a recovered crash image.
    ServeDurable,
    /// The Fig. 2 Monte-Carlo experiment.
    McFig2,
}

impl Workload {
    /// The workload's name as `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSmall => "serve_small",
            Workload::ServeDurable => "serve_durable",
            Workload::McFig2 => "mc_fig2",
        }
    }

    /// Parses a workload name as `BENCHMARK.json` spells it.
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "serve_small" => Some(Workload::ServeSmall),
            "serve_durable" => Some(Workload::ServeDurable),
            "mc_fig2" => Some(Workload::McFig2),
            _ => None,
        }
    }
}

/// Workload sizes. [`Scale::full`] is what the benchmark runs;
/// [`Scale::small`] keeps the crate's own tests quick.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Set-up repetitions whose median is `setup_s` (`serve_durable`;
    /// the cheaper set-ups of `serve_small` and `mc_fig2` repeat ten
    /// times as often).
    pub setup_reps: usize,
    /// Requests each connection sends before the measured phase. The
    /// exact per-op counts are taken over this fixed prefix.
    pub warmup_ops: u64,
    /// Durable sessions in the crash image.
    pub sessions: usize,
    /// Of those, sessions resumed and used again before the crash.
    pub tail_sessions: usize,
    /// Monte-Carlo samples per scheme in one `fig2::run` call. The full
    /// size makes a call ~0.2 s, long enough that a short vCPU stall of one
    /// fan-out lane moves its latency little.
    pub fig2_samples: usize,
    /// Recorded requests per connection the traced run replays.
    pub replay_ops: usize,
    /// Length of one measurement slice, seconds.
    pub slice_s: f64,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Scale {
        Scale {
            setup_reps: 7,
            warmup_ops: 2000,
            sessions: 300,
            tail_sessions: 100,
            fig2_samples: mc::PINNED_SAMPLES,
            replay_ops: 2000,
            slice_s: 1.0,
        }
    }

    /// Small sizes for tests.
    pub fn small() -> Scale {
        Scale {
            setup_reps: 2,
            warmup_ops: 64,
            sessions: 12,
            tail_sessions: 4,
            fig2_samples: 16,
            replay_ops: 64,
            slice_s: 0.1,
        }
    }
}

/// Everything one benchmark run needs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Scratch directory for state dirs and span dumps (created, and the
    /// state removed again, by the run).
    pub work_dir: PathBuf,
    /// Sizes.
    pub scale: Scale,
    /// Test hook: corrupt the response of this request index on the first
    /// connection (or this `fig2::run` call) before the output check sees
    /// it, so the run must fail its checks.
    pub corrupt_at: Option<u64>,
}

/// Runs one benchmark invocation.
///
/// # Errors
///
/// Returns a message when the run could not be carried out at all
/// (server would not bind, a connection broke). Wrong answers do not
/// error: they come back as a report with `correct == false`.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("creating {}: {e}", cfg.work_dir.display()))?;
    let report = match cfg.workload {
        Workload::ServeSmall | Workload::ServeDurable => serve::run(cfg),
        Workload::McFig2 => mc::run(cfg),
    };
    // State directories and crash images go; span dumps stay.
    if let Ok(entries) = std::fs::read_dir(&cfg.work_dir) {
        for entry in entries.flatten() {
            if entry.path().is_dir() {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
    report
}

/// SplitMix64: the benchmark's own input generator, so inputs depend on
/// the seed alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(seed, stream, index)` triple.
    pub fn new(seed: u64, stream: u64, index: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.0 ^= r.next_u64() ^ index.wrapping_mul(0x9FB2_1C65_1E98_DF25);
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `n` values below `bound`.
    pub fn words(&mut self, n: usize, bound: u64) -> Vec<u64> {
        (0..n).map(|_| self.next_u64() % bound).collect()
    }
}

/// Median of `xs` (sorted copy); 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Median over measurement slices of each slice's percentile `q`, from
/// `(slice, value)` samples: a latency tail that a stall in one or two
/// slices cannot move. 0 without samples.
pub fn sliced_percentile(samples: &[(usize, f64)], q: f64) -> f64 {
    let slices = samples.iter().map(|s| s.0 + 1).max().unwrap_or(0);
    let mut groups = vec![Vec::new(); slices];
    for &(k, v) in samples {
        groups[k].push(v);
    }
    let per_slice: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| percentile(g, q))
        .collect();
    median(&per_slice)
}

/// Nearest-rank percentile `q` in `[0, 1]` of `xs`; 0 for an empty slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&xs), 5.0);
        assert_eq!(percentile(&xs, 0.9), 9.0);
        assert_eq!(percentile(&xs, 1.0), 10.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn sliced_percentiles_take_the_median_over_slices() {
        let mut samples: Vec<(usize, f64)> = (0..3)
            .flat_map(|k| (1..=10).map(move |v| (k, f64::from(v))))
            .collect();
        // One stalled slice moves the whole-run p90, not the sliced one.
        samples.extend((0..10).map(|_| (3, 1000.0)));
        assert_eq!(sliced_percentile(&samples, 0.9), 9.0);
        assert_eq!(sliced_percentile(&samples, 0.5), 5.0);
        assert_eq!(sliced_percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn inputs_depend_on_the_seed_alone() {
        assert_eq!(
            Rng::new(1, 2, 3).words(8, 256),
            Rng::new(1, 2, 3).words(8, 256)
        );
        assert_ne!(
            Rng::new(1, 2, 3).words(8, 256),
            Rng::new(2, 2, 3).words(8, 256)
        );
    }
}
