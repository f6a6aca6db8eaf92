//! `dblp-sharded`: the `dblp-cold` query stream, sent by one closed-loop
//! client to a `ShardedService` over two shards with one worker each. Every
//! shard looks the keywords up, explores, and the coordinator merges the
//! streams; the answers are the proven bit-identical unsharded ones.

use std::time::Instant;

use kwsearch_core::serve::SearchRequest;
use kwsearch_core::shard::{partition, ShardedServiceOptions};
use kwsearch_core::ShardedService;
use kwsearch_datagen::DblpDataset;

use crate::common::{self, ms, ms_between, Ctx, Fingerprint, Reference, MIN_ANSWERS};
use crate::inputs::{self, Stream};
use crate::report::Report;
use crate::stats::Samples;
use crate::trace::{Trace, Tracer};

pub const SHARDS: usize = 2;

pub fn run(ctx: &Ctx, dataset: DblpDataset, report: &mut Report) -> Result<Trace, String> {
    let queries = inputs::queries(
        &dataset,
        ctx.seed,
        Stream::ColdQueries,
        inputs::COLD_QUERIES,
    );
    drop(dataset);

    let (service, times) = common::repeat_setup(report, |times| {
        let t0 = Instant::now();
        let graph = common::ingest(&ctx.nt_path)?;
        let t1 = Instant::now();
        let shards = partition(&graph, SHARDS).prepare_shards(&graph, Default::default());
        drop(graph);
        let service = ShardedService::start(
            shards,
            common::config(),
            ShardedServiceOptions {
                workers_per_shard: 1,
                ..ShardedServiceOptions::default()
            },
        );
        times.part("ingest", ms_between(t0, t1));
        times.part("prepare", ms(t1.elapsed()));
        Ok(service)
    })?;
    ctx.mark(report, "set-up");
    report.set("rdf.ingest_ms", times.median_part("ingest"));
    report.set("shard.prepare_ms", times.median_part("prepare"));

    let mut tracer = Tracer::new(ctx.trace, ctx.origin);
    let mut latency = Samples::default();
    let mut served: Vec<(usize, Fingerprint)> = Vec::new();
    let (mut scatter, mut merge, mut total, mut answer) = (0.0, 0.0, 0.0, 0.0);
    let (mut processed, mut answers) = (0.0, 0.0);
    let stats_before = service.stats();

    let start = Instant::now();
    let deadline = ctx.deadline(start);
    for (i, keywords) in queries.iter().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let id = i as u64;
        let t0 = Instant::now();
        let result =
            service.search(SearchRequest::new(keywords.iter()).with_min_answers(MIN_ANSWERS));
        let t1 = Instant::now();
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(_) => {
                report.timed.fail();
                continue;
            }
        };
        report.timed.ok();
        let phase = outcome
            .answer_phase
            .as_ref()
            .ok_or("dblp-sharded: a min_answers request came back without an answer phase")?;
        let (s, m, all) = (
            ms(outcome.scatter_time),
            ms(outcome.merge_time),
            ms_between(t0, t1),
        );
        latency.push(all);
        scatter += s;
        merge += m;
        total += all;
        answer += ms(phase.answer_time);
        processed += phase.queries_processed as f64;
        answers += phase.total_answers() as f64;

        let root = tracer.record("request", id, None, t0, t1);
        tracer.record_split("shard.scatter", id, Some(root), t0, 0.0, s);
        tracer.record_split("shard.merge", id, Some(root), t0, s, m);
        tracer.record_split(
            "query.answer_sharded",
            id,
            Some(root),
            t0,
            s + m,
            (all - s - m).max(0.0),
        );
        served.push((i, Fingerprint::of(&outcome.queries, phase.total_answers())));
    }
    let elapsed = start.elapsed().as_secs_f64();
    report.set("peak_rss_mb", crate::report::peak_rss_mb());

    let n = latency.len().max(1) as f64;
    common::set_latency(report, &latency);
    report.set("throughput_qps", latency.len() as f64 / elapsed);
    report.set("shard.scatter_ms", scatter / n);
    report.set("shard.merge_ms", merge / n);
    report.set("shard.merge_share", merge / total.max(1e-9));
    report.set("query.answer_ms", answer / n);
    report.set("query.queries_processed", processed / n);
    report.set("query.answers_per_query", answers / processed.max(1.0));
    let stats = service.stats();
    let merged = stats.merged_emissions - stats_before.merged_emissions;
    let early = stats.early_emissions - stats_before.early_emissions;
    report.set(
        "shard.early_emit_ratio",
        early as f64 / merged.max(1) as f64,
    );
    report.set(
        "shard.rejected",
        (stats.requests_rejected - stats_before.requests_rejected) as f64,
    );
    report.set(
        "shard.deadline_exceeded",
        (stats.requests_deadline_exceeded - stats_before.requests_deadline_exceeded) as f64,
    );
    report.set("loadgen.sent", report.timed.sent as f64);
    report.set(
        "loadgen.failed_ratio",
        report.timed.failed as f64 / report.timed.sent.max(1) as f64,
    );
    service.shutdown();

    ctx.mark(report, "timed phase");
    // Verification: the unsharded, cache-disabled reference.
    let reference = Reference::new(common::ingest(&ctx.nt_path)?);
    let asked: Vec<&[String]> = served.iter().map(|(i, _)| queries[*i].as_slice()).collect();
    let expected = reference.expected_for_all(&asked)?;
    for ((i, got), want) in served.iter().zip(&expected) {
        common::check("dblp-sharded", *i as u64, &queries[*i], got, &want.full)?;
        report.verify.ok();
    }

    ctx.mark(report, "verification");
    let mut trace = Trace::default();
    trace.absorb(tracer);
    Ok(trace)
}
