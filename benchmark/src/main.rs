//! End-to-end and per-layer benchmark of the CuLDA_CGS reproduction.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the traced
//! per-layer replica.  The last line of standard output is the JSON result;
//! everything before it is a human-readable table and the run context.
//! README.md beside this file documents the workloads and metrics.

mod report;
mod stats;
mod stream;
mod trace;
mod train;
mod workloads;

use report::{cpu_ticks, git_revision, steal_share, Report};
use std::path::Path;
use std::process::ExitCode;

/// End-to-end metrics, in `BENCHMARK.json` order, with their units.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("train_tokens_per_s", "tok/s"),
    ("time_to_ll_s", "s"),
    ("sim_tokens_per_s", "tok/s"),
    ("sim_time_to_ll_s", "s"),
    ("nll_per_token", "nats"),
    ("peak_rss_mb", "MB"),
    ("stream_docs_per_s", "docs/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
];

/// Per-layer metrics, in `BENCHMARK.json` order.  A layer a workload does
/// not exercise reads 0.
const PER_LAYER: [(&str, &str); 45] = [
    ("corpus.partition_s", "s"),
    ("model.init_s", "s"),
    ("sync.initial_s", "s"),
    ("session.setup_s", "s"),
    ("kernels.prepare.wall_s", "s"),
    ("kernels.prepare.sim_s", "s"),
    ("kernels.prepare.calls", "count"),
    ("kernels.sample.wall_s", "s"),
    ("kernels.sample.sim_s", "s"),
    ("kernels.sample.dram_bytes", "bytes"),
    ("kernels.sample.rng_draws", "count"),
    ("kernels.update_phi.wall_s", "s"),
    ("kernels.update_phi.sim_s", "s"),
    ("kernels.update_phi.atomic_ops", "count"),
    ("kernels.update_theta.wall_s", "s"),
    ("kernels.update_theta.sim_s", "s"),
    ("sync.phi.wall_s", "s"),
    ("sync.phi.sim_s", "s"),
    ("sync.phi.sim_exposed_s", "s"),
    ("sync.intra_bytes", "bytes"),
    ("sync.inter_bytes", "bytes"),
    ("sync.shards", "count"),
    ("schedule.iteration.wall_s", "s"),
    ("schedule.iteration.self_s", "s"),
    ("rayon.cpu_per_wall", "ratio"),
    ("session.ingest.wall_s", "s"),
    ("session.ingest.docs", "count"),
    ("session.retire.wall_s", "s"),
    ("session.train.wall_s", "s"),
    ("checkpoint.rotate.wall_s", "s"),
    ("checkpoint.rotate.bytes", "bytes"),
    ("checkpoint.resume.wall_s", "s"),
    ("checkpoint.resume.bytes", "bytes"),
    ("serve.foldin_p50_ms", "ms"),
    ("serve.foldin_p99_ms", "ms"),
    ("serve.query_p99_ms", "ms"),
    ("serve.requests", "count"),
    ("serve.failed", "count"),
    ("serve.epochs_seen", "count"),
    ("likelihood.eval_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("run.steal_share", "ratio"),
    ("run.nproc", "count"),
    ("run.workers", "count"),
    ("run.clients", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad(&"expected 0 or 1")),
            },
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {:?}",
            workloads::NAMES
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} is outside (0, 120]"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ticks_before = cpu_ticks();
    eprintln!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace
    );
    match (args.workload.as_str(), args.trace) {
        (stream::NAME, false) => stream::run(args.seed, args.seconds, &mut report),
        (stream::NAME, true) => stream::traced_run(args.seed, &mut report),
        (name, trace) => {
            let spec = if name == workloads::TAILHEAVY.name {
                &workloads::TAILHEAVY
            } else {
                &workloads::NYTIMES
            };
            if trace {
                train::traced(spec, args.seed, &mut report);
            } else {
                train::run(spec, args.seed, args.seconds, &mut report);
            }
        }
    }
    let steal = steal_share(ticks_before, cpu_ticks());

    let (order, missing): (&[(&str, &str)], f64) = if args.trace {
        report.metric("run.steal_share", steal);
        report.metric("run.nproc", Some(nproc as f64));
        (&PER_LAYER, 0.0)
    } else {
        (&END_TO_END, f64::NAN)
    };
    let outcome = report.outcome(order, missing);

    if let Some(tracer) = &report.tracer {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace_{}_seed{}.json", args.workload, args.seed));
        match tracer.write_chrome_trace(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write spans: {e}"),
        }
    }

    println!("# run context");
    println!("nproc            {nproc}");
    println!("revision         {}", git_revision());
    println!("workload         {}", args.workload);
    println!("seed             {}", args.seed);
    println!(
        "steal_share      {}",
        steal.map_or("unavailable".into(), |s| format!("{s:.4}"))
    );
    for (k, v) in &report.context {
        println!("{k:<16} {v}");
    }
    println!("# metrics");
    for m in &outcome.metrics {
        println!("{:<32} {:>20.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "# {} operations attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    for f in &report.failures {
        println!("# failure: {f}");
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
