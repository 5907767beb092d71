//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload serve_small|serve_durable|mc_fig2 --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints one JSON object as the last line of standard output: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits non-zero when an output check fails or the run
//! could not be carried out. `--digests N` prints the `mc_fig2` digest
//! table for seeds `0..N` instead.

use e2ebench::{RunConfig, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("e2ebench: {msg}");
    eprintln!(
        "usage: e2ebench --workload serve_small|serve_durable|mc_fig2 --seed N --seconds S --trace 0|1"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::from_name(&value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload '{value}'")),
            },
            "--seed" => match value.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage("--seed needs a whole number"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 => seconds = s,
                _ => return usage("--seconds needs a positive number"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            "--digests" => match value.parse() {
                Ok(count) => {
                    e2ebench::mc::print_digests(count);
                    return ExitCode::SUCCESS;
                }
                Err(_) => return usage("--digests needs a count"),
            },
            other => return usage(&format!("unknown option '{other}'")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let cfg = RunConfig {
        workload,
        seed,
        seconds,
        trace,
        work_dir: PathBuf::from(".bench_work").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
        scale: Scale::full(),
        corrupt_at: None,
    };
    let result = e2ebench::run(&cfg);
    // Removed when no span dump is left in it.
    let _ = std::fs::remove_dir(&cfg.work_dir);
    match result {
        Ok(report) => {
            for f in &report.failures {
                eprintln!("e2ebench: check failed: {f}");
            }
            println!("{}", report.to_json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
