//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload serve_flood|serve_interlock --seed N
//!           --seconds S --trace 0|1 [--serve-bin PATH] [--commit ID]
//! perfbench --record-campus-reference
//! ```
//!
//! Run it through `perfbench/run.sh`, which builds `mcps-serve` and this
//! program from source first. With `--trace 0` the last line of stdout
//! is the result with every end-to-end metric; with `--trace 1` it
//! carries every per-layer metric instead, and the spans are written to
//! `.perfbench/out/`; `serve_interlock`'s traced run also attributes
//! the campus simulator's layers. The line before it holds the run's
//! detail and environment. A run whose outputs fail a check prints `"correct":
//! false` and exits with code 1; a run that cannot start exits with
//! code 2 and prints no result.

mod campus;
mod metrics;
mod serve;
mod stats;
mod trace;

use metrics::{Metrics, ResultLine};
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// The default workload seed. (Seed 7 is the held-out one: it was not
/// used while the benchmark was tuned.)
const DEFAULT_SEED: u64 = 2026;

/// Everything a workload needs to know about the run.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
    pub commit: String,
    /// Cores available to this process; the campus runs one worker per
    /// core.
    pub nproc: usize,
    /// Scratch space inside the checkout (journals, server logs).
    pub work_dir: PathBuf,
    /// Where details and spans are written.
    pub out_dir: PathBuf,
}

/// What a workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every correctness check that failed, in words.
    pub failures: Vec<String>,
    pub metrics: Metrics,
    /// Workload-specific detail, as JSON text.
    pub detail: String,
}

impl Outcome {
    /// A run that could not produce measurements at all.
    pub fn broken(reason: impl Into<String>) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            failures: vec![reason.into()],
            metrics: Metrics::default(),
            detail: "null".into(),
        }
    }
}

/// Peak resident set (VmHWM) of a process (`"self"` or a pid), in MiB.
pub fn peak_rss_mb_of(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn die(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

fn parse_args() -> RunArgs {
    let mut args = std::env::args().skip(1);
    let mut run = RunArgs {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        serve_bin: std::env::current_exe()
            .ok()
            .and_then(|p| Some(p.parent()?.join("mcps-serve")))
            .unwrap_or_else(|| PathBuf::from("mcps-serve")),
        commit: "unknown".into(),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        work_dir: PathBuf::from(".perfbench/tmp"),
        out_dir: PathBuf::from(".perfbench/out"),
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| die(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => run.workload = value(),
            "--seed" => run.seed = value().parse().unwrap_or_else(|_| die("bad --seed")),
            "--seconds" => run.seconds = value().parse().unwrap_or_else(|_| die("bad --seconds")),
            "--trace" => {
                run.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => die("--trace takes 0 or 1"),
                }
            }
            "--serve-bin" => run.serve_bin = PathBuf::from(value()),
            "--commit" => run.commit = value(),
            "--record-campus-reference" => {
                println!("{}", campus::record_reference(run.nproc));
                std::process::exit(0);
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    if run.seconds.is_nan() || run.seconds <= 0.0 {
        die("--seconds must be positive");
    }
    run
}

#[derive(Serialize)]
struct Environment {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    nproc: usize,
    /// `run_campus` workers, in `serve_interlock`'s traced run.
    campus_workers: usize,
    commit: String,
}

fn main() {
    let args = parse_args();
    let params = match args.workload.as_str() {
        "serve_flood" => serve::FLOOD,
        "serve_interlock" => serve::INTERLOCK,
        "" => die("--workload is required (serve_flood|serve_interlock)"),
        other => die(&format!("unknown workload {other:?}")),
    };
    if !args.serve_bin.is_file() {
        die(&format!("server binary {} not found", args.serve_bin.display()));
    }
    for dir in [&args.work_dir, &args.out_dir] {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| die(&format!("creating {}: {e}", dir.display())));
    }

    let mut tracer = Tracer::new(Instant::now());
    let started = Instant::now();
    let mut outcome = serve::run(&args, &params, args.trace.then_some(&mut tracer));
    if outcome.attempted == 0 {
        for f in &outcome.failures {
            eprintln!("perfbench: {f}");
        }
        die("the workload could not run");
    }
    // The campus layers have no workload of their own (see the README).
    if args.trace && args.workload == "serve_interlock" {
        let failed = campus::attribution(args.nproc, &mut tracer, &mut outcome.metrics);
        outcome.failures.extend(failed);
    }
    let wall_s = started.elapsed().as_secs_f64();

    let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    if args.trace {
        let path = args.out_dir.join(format!("{stem}-spans.jsonl"));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    let env = Environment {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        nproc: args.nproc,
        campus_workers: args.nproc,
        commit: args.commit.clone(),
    };
    let env = serde_json::to_string(&env).expect("environment serializes");
    let failures = serde_json::to_string(&outcome.failures).expect("failures serialize");
    let detail = format!(
        "{{\"environment\":{env},\"wall_s\":{wall_s},\"failures\":{failures},\"workload\":{}}}",
        outcome.detail,
    );
    let _ = std::fs::write(args.out_dir.join(format!("{stem}.json")), &detail);

    for f in &outcome.failures {
        eprintln!("perfbench: FAILED: {f}");
    }
    let line = ResultLine::new(
        args.trace,
        outcome.failures.is_empty(),
        outcome.attempted,
        outcome.failed,
        &outcome.metrics,
    );
    println!("{detail}");
    println!("{}", serde_json::to_string(&line).expect("result serializes"));
    if !line.correct() {
        std::process::exit(1);
    }
}
