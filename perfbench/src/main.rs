//! `perfbench` — the repository's seeded, correctness-gated benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dblp-cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run generates a DBLP-like graph from the seed, writes it as
//! N-Triples, sets the workload up several times (reporting the median),
//! drives the engine through its public calls for `--seconds`, then checks
//! every response against a cache-disabled reference preparation outside
//! the timed region. The last line of standard output is the JSON result;
//! with `--trace 1` it carries the per-layer metrics instead of the
//! end-to-end ones, and the spans are written to
//! `.bench_build/perfbench-traces/`. A mismatch, a failed set-up or a
//! generator that fell behind its schedule exits non-zero without a result.

mod cold;
mod common;
mod cpus;
mod hot;
mod inputs;
mod live;
mod rate;
mod report;
mod sharded;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use common::Ctx;
use report::Report;
use trace::Trace;

const WORKLOADS: &[&str] = &["dblp-cold", "dblp-hot", "dblp-sharded", "dblp-live"];

/// Where runs keep scratch files and traces, relative to the checkout.
const BUILD_DIR: &str = ".bench_build";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

/// The run's scratch directory; removed however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args) -> Result<String, String> {
    let origin = Instant::now();
    let work =
        WorkDir(PathBuf::from(BUILD_DIR).join(format!("perfbench-work-{}", std::process::id())));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("create {}: {e}", work.0.display()))?;

    let mut report = Report::default();
    let dataset = inputs::dataset(args.seed);
    let nt_path = work.0.join("graph.nt");
    let nt_bytes = kwsearch_datagen::write_ntriples_file(&dataset.graph, &nt_path)
        .map_err(|e| format!("write {}: {e}", nt_path.display()))?;
    report.note(format!(
        "workload {} seed {} tier {}: {} triples, {} N-Triples bytes; pools: {} authors, \
         {} venues, {} titles; cold stream {} queries, hot pool {} (zipf {}), live pool {}; \
         held-out seed {}",
        args.workload,
        args.seed,
        inputs::TIER,
        dataset.graph.edge_count(),
        nt_bytes,
        dataset.author_names.len(),
        dataset.venue_names.len(),
        dataset.titles.len(),
        inputs::COLD_QUERIES,
        inputs::HOT_POOL,
        inputs::HOT_ZIPF,
        inputs::LIVE_POOL,
        inputs::HELD_OUT_SEED,
    ));

    report.note(format!(
        "inputs generated at {:.2} s",
        origin.elapsed().as_secs_f64()
    ));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        origin,
        work: work.0.clone(),
        nt_path,
    };
    let span_cost = if args.trace {
        trace::span_cost_ms()
    } else {
        0.0
    };
    let trace: Trace = match args.workload.as_str() {
        "dblp-cold" => cold::run(&ctx, dataset, &mut report)?,
        "dblp-hot" => hot::run(&ctx, dataset, &mut report)?,
        "dblp-sharded" => sharded::run(&ctx, dataset, &mut report)?,
        "dblp-live" => live::run(&ctx, dataset, &mut report)?,
        other => return Err(format!("unknown workload {other}")),
    };

    if args.trace {
        let roots = trace.by_name().get("request").map_or(0.0, |t| t.total_ms);
        report.set(
            "trace.overhead_ratio",
            span_cost * trace.spans.len() as f64 / roots.max(1e-9),
        );
        report.set("trace.coverage", trace.child_coverage("request"));
        for (name, totals) in trace.by_name() {
            report.note(format!(
                "span {name}: {} spans, {:.3} ms total, {:.3} ms self",
                totals.count, totals.total_ms, totals.self_ms
            ));
        }
        let dir = PathBuf::from(BUILD_DIR).join("perfbench-traces");
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}-seed{}.tsv", args.workload, args.seed));
        let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        trace
            .write_tsv(std::io::BufWriter::new(file))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        report.note(format!("spans written to {}", path.display()));
    }
    report.render(args.trace)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
