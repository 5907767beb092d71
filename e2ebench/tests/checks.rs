//! The benchmark's own checks, at small sizes: every workload reports
//! every metric and passes its output checks on two seeds, the exact
//! counts repeat bit for bit, and a wrong answer fails the run.

use e2ebench::report::Report;
use e2ebench::{run, RunConfig, Scale, Workload, E2E_METRICS, EXACT_METRICS, LAYER_METRICS};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const WORKLOADS: [Workload; 3] = [
    Workload::ServeSmall,
    Workload::ServeDurable,
    Workload::McFig2,
];

fn config(workload: Workload, seed: u64, trace: bool) -> RunConfig {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "e2ebench-{}-{}-{}",
        workload.name(),
        std::process::id(),
        NEXT.fetch_add(1, Ordering::SeqCst)
    ));
    RunConfig {
        workload,
        seed,
        seconds: 0.4,
        trace,
        work_dir,
        scale: Scale::small(),
        corrupt_at: None,
    }
}

fn run_ok(cfg: &RunConfig) -> Report {
    let report = run(cfg).unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
    assert!(
        report.correct && report.failed == 0,
        "{}: {:?}",
        cfg.workload.name(),
        report.failures
    );
    report
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks_on_two_seeds() {
    for workload in WORKLOADS {
        for seed in [1, 2] {
            for (trace, table) in [(false, &E2E_METRICS[..]), (true, &LAYER_METRICS[..])] {
                let report = run_ok(&config(workload, seed, trace));
                let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
                let want: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
                assert_eq!(names, want);
                assert!(report.attempted > 0);
                assert!(report.metrics.iter().all(|m| m.value.is_finite()));
                let line = report.to_json();
                assert!(line.starts_with("{\"correct\": true, ") && !line.contains('\n'));
            }
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for workload in WORKLOADS {
        let report = run_ok(&config(workload, 3, false));
        for m in &report.metrics {
            assert!(
                m.value > 0.0,
                "{}: {} = {}",
                workload.name(),
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn exact_counts_repeat_bit_for_bit() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let a = run_ok(&config(workload, 5, trace));
            let b = run_ok(&config(workload, 5, trace));
            for name in EXACT_METRICS {
                let (Some(x), Some(y)) = (a.get(name), b.get(name)) else {
                    continue;
                };
                assert_eq!(x.to_bits(), y.to_bits(), "{}: {name}", workload.name());
            }
        }
    }
}

#[test]
fn layers_a_workload_runs_report_nonzero_counts() {
    let durable = run_ok(&config(Workload::ServeDurable, 1, true));
    for name in [
        "server.persist.records_per_op",
        "server.persist.bytes_per_op",
        "server.persist.replayed_events",
        "core.prog.compile_us",
        "nn.classifier.host_us",
        "core.wire.req_bytes_per_op",
    ] {
        assert!(durable.get(name) > Some(0.0), "serve_durable: {name}");
    }
    let small = run_ok(&config(Workload::ServeSmall, 1, true));
    assert_eq!(small.get("server.persist.records_per_op"), Some(0.0));
    let mc = run_ok(&config(Workload::McFig2, 1, true));
    let lane_util = mc.get("circuit.batch.lane_util").expect("reported");
    assert!(lane_util > 0.0 && lane_util <= 1.0);
    assert_eq!(mc.get("core.wire.req_bytes_per_op"), Some(0.0));
}

#[test]
fn an_injected_wrong_answer_fails_the_run() {
    for workload in WORKLOADS {
        let mut cfg = config(workload, 1, false);
        cfg.corrupt_at = Some(0);
        let report = run(&cfg).expect("the run itself completes");
        assert!(!report.correct, "{}: wrong answer passed", workload.name());
        assert!(report.failed > 0);
        assert!(report.get("ok_ratio") < Some(1.0));
        assert!(report.to_json().starts_with("{\"correct\": false"));
    }
}

#[test]
fn the_pinned_fig2_digest_matches() {
    use e2ebench::mc::{digest, mc_seed, pinned, PINNED_SAMPLES};
    let r = bpimc_bench::experiments::fig2::run(PINNED_SAMPLES, mc_seed(0));
    assert_eq!(pinned(0, PINNED_SAMPLES), Some(digest(&r)));
}
