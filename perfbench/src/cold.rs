//! `dblp-cold`: one closed-loop client sends distinct queries straight to
//! `PreparedGraph::session`, then `next_query`, `into_outcome` and
//! `answer_queries`. Every request misses the augmentation cache, so keyword
//! lookup, augmentation and exploration do the work.

use std::time::Instant;

use kwsearch_core::PreparedGraph;
use kwsearch_datagen::DblpDataset;

use crate::common::{
    self, ms, ms_between, set_cache_deltas, Ctx, Fingerprint, LayerSums, Reference, MIN_ANSWERS,
};
use crate::cpus::CpuRotation;
use crate::inputs::{self, Stream};
use crate::report::Report;
use crate::stats::Samples;
use crate::trace::{Trace, Tracer};

pub fn run(ctx: &Ctx, dataset: DblpDataset, report: &mut Report) -> Result<Trace, String> {
    let queries = inputs::queries(
        &dataset,
        ctx.seed,
        Stream::ColdQueries,
        inputs::COLD_QUERIES,
    );
    drop(dataset);

    let (prepared, times) = common::repeat_setup(report, |times| {
        let t0 = Instant::now();
        let graph = common::ingest(&ctx.nt_path)?;
        let t1 = Instant::now();
        let prepared = PreparedGraph::index(graph);
        times.part("ingest", ms_between(t0, t1));
        times.part("index", ms(t1.elapsed()));
        Ok(prepared)
    })?;
    ctx.mark(report, "set-up");
    report.set("rdf.ingest_ms", times.median_part("ingest"));
    report.set("prepared.index_ms", times.median_part("index"));

    let mut tracer = Tracer::new(ctx.trace, ctx.origin);
    let mut latency = Samples::default();
    let mut first_query = Samples::default();
    let mut sums = LayerSums::default();
    let mut served: Vec<(usize, Fingerprint)> = Vec::new();
    let cache_before = prepared.augmentation_cache().stats();

    // The one client moves to the next CPU before each request, outside
    // its timing, so a run does not read the speed of whichever CPU the
    // scheduler happened to give it.
    let mut cpus = CpuRotation::new();
    let start = Instant::now();
    let deadline = ctx.deadline(start);
    for (i, keywords) in queries.iter().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        cpus.advance();
        let id = i as u64;
        let t0 = Instant::now();
        let mut session = match prepared.session(keywords, common::config()) {
            Ok(session) => session,
            Err(_) => {
                report.timed.fail();
                continue;
            }
        };
        let t1 = Instant::now();
        let first = session.next_query();
        let first_pops = session.stats().queue_pops;
        let t2 = Instant::now();
        let outcome = session.into_outcome();
        let t3 = Instant::now();
        let phase = prepared.answer_queries(&outcome.queries, MIN_ANSWERS);
        let t4 = Instant::now();
        if first.is_none() {
            report.timed.fail();
            continue;
        }
        report.timed.ok();

        latency.push(ms_between(t0, t4));
        first_query.push(ms_between(t0, t2));
        let lookup = ms(outcome.keyword_mapping_time);
        let session_ms = ms_between(t0, t1);
        let root = tracer.record("request", id, None, t0, t4);
        let open = tracer.record("session", id, Some(root), t0, t1);
        tracer.record_split("keyword_index.lookup", id, Some(open), t0, 0.0, lookup);
        tracer.record_split(
            "summary.augment",
            id,
            Some(open),
            t0,
            lookup,
            (session_ms - lookup).max(0.0),
        );
        tracer.record("exploration.next_query", id, Some(root), t1, t2);
        tracer.record("exploration.drain", id, Some(root), t2, t3);
        tracer.record("query.answer_queries", id, Some(root), t3, t4);

        sums.count(&outcome, &phase);
        sums.lookup_ms += lookup;
        sums.augment_ms += (session_ms - lookup).max(0.0);
        sums.exploration_ms += ms_between(t1, t3);
        sums.answer_ms += ms_between(t3, t4);
        sums.first_pops += first_pops as f64;
        served.push((i, Fingerprint::of(&outcome.queries, phase.total_answers())));
    }
    let elapsed = start.elapsed().as_secs_f64();
    report.note(format!("client rotated over {} CPUs", cpus.len()));
    drop(cpus);
    report.set("peak_rss_mb", crate::report::peak_rss_mb());

    common::set_latency(report, &latency);
    report.set("throughput_qps", latency.len() as f64 / elapsed);
    report.set("exploration.first_query_p50_ms", first_query.p50());
    sums.write(report);
    let cache = prepared.augmentation_cache().stats();
    set_cache_deltas(report, &cache_before, &cache);
    report.set("loadgen.sent", report.timed.sent as f64);
    report.set(
        "loadgen.failed_ratio",
        report.timed.failed as f64 / report.timed.sent.max(1) as f64,
    );
    if cache.hits != cache_before.hits {
        return Err("dblp-cold: a distinct query hit the augmentation cache".into());
    }
    drop(prepared);

    ctx.mark(report, "timed phase");
    // Verification, outside the timed region.
    let reference = Reference::new(common::ingest(&ctx.nt_path)?);
    let asked: Vec<&[String]> = served.iter().map(|(i, _)| queries[*i].as_slice()).collect();
    let expected = reference.expected_for_all(&asked)?;
    for ((i, got), want) in served.iter().zip(&expected) {
        common::check("dblp-cold", *i as u64, &queries[*i], got, &want.full)?;
        report.verify.ok();
    }

    ctx.mark(report, "verification");
    let mut trace = Trace::default();
    trace.absorb(tracer);
    Ok(trace)
}
