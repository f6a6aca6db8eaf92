//! `dblp-live`: a `LiveGraph` over a loaded snapshot, driven by two
//! open-loop threads at fixed rates. The reader takes `snapshot()` and runs
//! a session to ten answers over a query pool that fits the cache; the
//! writer applies single-triple additions (promotable links to existing
//! values, citation edges, and fresh values that invalidate the cache) and
//! runs one `compact()` after its last write. Writes beside reads show
//! cache invalidation and whole-graph applies in read latency; the
//! compaction, half a second before the window closes, stalls the last few
//! reads (`live.read_max_ms`) without reaching the p90 the tail rule
//! allows at this read count, where its length would swamp the tail.

use std::time::{Duration, Instant};

use kwsearch_core::{DeltaBatch, LiveGraph, PreparedGraph, WriteTicket};
use kwsearch_datagen::DblpDataset;

use crate::common::{self, ms, ms_between, Ctx, Fingerprint, Reference, MIN_ANSWERS};
use crate::inputs::{self, Stream, Write, WriteKind};
use crate::report::Report;
use crate::stats::Samples;
use crate::trace::{Trace, Tracer};

/// Reads per second offered by the reader thread: about half the reader's
/// capacity when most reads miss, and enough reads in a 12-second window
/// (102) for a p90 with ten samples beyond it.
pub const READ_RATE: f64 = 8.5;

/// Writes per second offered by the writer thread.
pub const WRITE_RATE: f64 = 1.0;

struct Read {
    seq: u64,
    epoch: u64,
    query: usize,
    fingerprint: Fingerprint,
}

#[derive(Default)]
struct ReaderOut {
    reads: Vec<Read>,
    latency: Samples,
    snapshot_wait: Samples,
    lag: Samples,
    sums: common::LayerSums,
    failed: u64,
}

#[derive(Default)]
struct WriterOut {
    tickets: Vec<(usize, WriteTicket)>,
    apply: Samples,
    ack: Samples,
    visible: Samples,
    lag: Samples,
    compact_ms: f64,
    compact_rows: usize,
    compactions: usize,
    error: Option<String>,
}

pub fn run(ctx: &Ctx, dataset: DblpDataset, report: &mut Report) -> Result<Trace, String> {
    let pool = inputs::queries(&dataset, ctx.seed, Stream::LivePool, inputs::LIVE_POOL);
    // Writes due within the window; the compaction follows the last one.
    let write_count = (WRITE_RATE * ctx.seconds).ceil() as usize;
    let writes = inputs::writes(&dataset, ctx.seed, write_count);
    drop(dataset);

    // The base snapshot the live graph starts from (not part of set-up).
    let snapshot_path = ctx.work.join("base.kws");
    PreparedGraph::index(common::ingest(&ctx.nt_path)?)
        .save_to_path(&snapshot_path)
        .map_err(|e| format!("save base snapshot: {e}"))?;
    let snapshot_bytes = std::fs::metadata(&snapshot_path).map_or(0, |m| m.len());
    report.set("persist.snapshot_bytes", snapshot_bytes as f64);

    let (live, times) = common::repeat_setup(report, |times| {
        let t0 = Instant::now();
        let loaded = PreparedGraph::load_from_path(&snapshot_path)
            .map_err(|e| format!("load base snapshot: {e}"))?;
        times.part("load", ms(t0.elapsed()));
        Ok(LiveGraph::new(loaded))
    })?;
    ctx.mark(report, "set-up");
    report.set("persist.load_ms", times.median_part("load"));

    // Warm-up: every pool query once, so the timed reads start on a warm
    // cache.
    for q in &pool {
        let snap = live.snapshot();
        match snap.session(q, common::config()) {
            Ok(mut session) => {
                let _ = session.answers_until(MIN_ANSWERS);
                report.warmup.ok();
            }
            Err(_) => report.warmup.fail(),
        }
    }

    let cache_before = live.snapshot().augmentation_cache().stats();
    let start = Instant::now() + Duration::from_millis(5);
    let reads_due = (READ_RATE * ctx.seconds).round() as usize;
    let (reader, writer, writer_tracer) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut tracer = Tracer::new(ctx.trace, ctx.origin);
            let out = read_loop(&live, &pool, start, reads_due, &mut tracer);
            (out, tracer)
        });
        let mut tracer = Tracer::new(ctx.trace, ctx.origin);
        let writer = write_loop(&live, &writes, start, &mut tracer);
        (reader.join(), writer, tracer)
    });
    let (reader, reader_tracer) = reader.map_err(|_| "dblp-live: the reader thread panicked")?;
    let elapsed = start.elapsed().as_secs_f64();
    report.set("peak_rss_mb", crate::report::peak_rss_mb());
    if let Some(e) = &writer.error {
        return Err(format!("dblp-live writer: {e}"));
    }

    for _ in 0..reader.reads.len() {
        report.timed.ok();
    }
    for _ in 0..reader.failed {
        report.timed.fail();
    }
    common::set_latency(report, &reader.latency);
    report.set("throughput_qps", reader.reads.len() as f64 / elapsed);
    reader.sums.write(report);
    common::set_cache_deltas(
        report,
        &cache_before,
        &live.snapshot().augmentation_cache().stats(),
    );
    report.set("live.apply_p50_ms", writer.apply.p50());
    report.set("live.apply_tail_ms", writer.apply.tail().value);
    report.set(
        "live.snapshot_wait_tail_ms",
        reader.snapshot_wait.tail().value,
    );
    report.set("live.read_max_ms", reader.latency.max());
    report.set("live.compact_ms", writer.compact_ms);
    report.set("live.compact_rows", writer.compact_rows as f64);
    let promoted = writer
        .tickets
        .iter()
        .filter(|(_, t)| t.cache_promoted())
        .count();
    let rebuilt = writer
        .tickets
        .iter()
        .filter(|(_, t)| t.summary_rebuilt())
        .count();
    report.set(
        "live.promoted_share",
        promoted as f64 / writer.tickets.len().max(1) as f64,
    );
    report.set("live.summary_rebuilds", rebuilt as f64);
    report.set("live.write_ack_p50_ms", writer.ack.p50());
    report.set("live.write_visible_p50_ms", writer.visible.p50());
    report.set("live.write_visible_tail_ms", writer.visible.tail().value);
    report.set("loadgen.sent", report.timed.sent as f64);
    report.set(
        "loadgen.failed_ratio",
        report.timed.failed as f64 / report.timed.sent.max(1) as f64,
    );
    let invalidating = writer
        .tickets
        .iter()
        .filter(|(i, _)| writes[*i].kind != WriteKind::LinkExistingValue)
        .count();
    report.note(format!(
        "writes: {} applied ({} promoted, {} invalidating), {} compaction(s)",
        writer.tickets.len(),
        promoted,
        invalidating,
        writer.compactions
    ));
    let mut lag = reader.lag.clone();
    lag.extend(&writer.lag);
    common::check_lag(report, &lag)?;
    drop(live);

    ctx.mark(report, "timed phase");
    verify(ctx, report, &pool, &writes, &writer.tickets, &reader.reads)?;

    ctx.mark(report, "verification");
    let mut trace = Trace::default();
    trace.absorb(reader_tracer);
    trace.absorb(writer_tracer);
    Ok(trace)
}

fn read_loop(
    live: &LiveGraph,
    pool: &[Vec<String>],
    start: Instant,
    reads_due: usize,
    tracer: &mut Tracer,
) -> ReaderOut {
    let mut out = ReaderOut::default();
    for k in 0..reads_due {
        let due = start + Duration::from_secs_f64(k as f64 / READ_RATE);
        if let Some(late) = common::wait_until(due) {
            out.lag.push(late);
        }
        let seq = k as u64;
        // Reads walk the pool in order: every run reads the same mix of
        // query sizes, and a query is read again only after the whole pool.
        let query = k % pool.len();
        let t0 = Instant::now();
        let snap = live.snapshot();
        let t1 = Instant::now();
        let mut session = match snap.session(&pool[query], common::config()) {
            Ok(session) => session,
            Err(_) => {
                out.failed += 1;
                continue;
            }
        };
        let t2 = Instant::now();
        let phase = session.answers_until(MIN_ANSWERS);
        let outcome = session.into_partial_outcome();
        let t3 = Instant::now();
        out.latency.push(ms_between(due, t3));
        out.snapshot_wait.push(ms_between(t0, t1));

        let root = tracer.record("request", seq, None, due.min(t0), t3);
        tracer.record("loadgen.behind", seq, Some(root), due.min(t0), t0);
        tracer.record("live.snapshot", seq, Some(root), t0, t1);
        let open = tracer.record("session", seq, Some(root), t1, t2);
        let lookup = ms(outcome.keyword_mapping_time);
        tracer.record_split("keyword_index.lookup", seq, Some(open), t1, 0.0, lookup);
        tracer.record_split(
            "summary.augment",
            seq,
            Some(open),
            t1,
            lookup,
            (ms_between(t1, t2) - lookup).max(0.0),
        );
        let until = tracer.record("query.answers_until", seq, Some(root), t2, t3);
        let answer = ms(phase.answer_time);
        let explore = (ms_between(t2, t3) - answer).max(0.0);
        tracer.record_split("exploration", seq, Some(until), t2, 0.0, explore);
        tracer.record_split("query.answer", seq, Some(until), t2, explore, answer);

        out.sums.count(&outcome, &phase);
        out.sums.lookup_ms += lookup;
        out.sums.augment_ms += (ms_between(t1, t2) - lookup).max(0.0);
        out.sums.exploration_ms += explore;
        out.sums.answer_ms += answer;
        out.reads.push(Read {
            seq,
            epoch: snap.write_epoch(),
            query,
            fingerprint: Fingerprint::of(&outcome.queries, phase.total_answers()),
        });
    }
    out
}

fn write_loop(
    live: &LiveGraph,
    writes: &[Write],
    start: Instant,
    tracer: &mut Tracer,
) -> WriterOut {
    let mut out = WriterOut::default();
    for (i, write) in writes.iter().enumerate() {
        // Half an interval in, so the compaction after the last write
        // starts half a second before the window closes.
        let due = start + Duration::from_secs_f64((i as f64 + 0.5) / WRITE_RATE);
        if let Some(late) = common::wait_until(due) {
            out.lag.push(late);
        }
        let seq = 1_000_000 + i as u64;
        let t0 = Instant::now();
        let ticket = match live.apply(&DeltaBatch::new().add(write.triple.clone())) {
            Ok(ticket) => ticket,
            Err(e) => {
                out.error = Some(format!("write {i} ({:?}) failed: {e}", write.triple));
                return out;
            }
        };
        let t1 = Instant::now();
        out.apply.push(ms_between(t0, t1));
        out.ack.push(ms_between(due, t1));
        out.tickets.push((i, ticket));
        let root = tracer.record("write", seq, None, due.min(t0), t1);
        tracer.record("live.apply", seq, Some(root), t0, t1);
        if let Some(keyword) = &write.fresh_keyword {
            let snap = live.snapshot();
            let visible = snap
                .session(&[keyword.as_str()], common::config())
                .ok()
                .and_then(|mut s| s.next_query())
                .is_some();
            let t2 = Instant::now();
            if !visible || snap.write_epoch() < ticket.epoch() {
                out.error = Some(format!("write {i}: {keyword} not visible after its ack"));
                return out;
            }
            out.visible.push(ms_between(due, t2));
            tracer.record("live.visibility", seq, Some(root), t1, t2);
        }
        if i + 1 == writes.len() {
            let t0 = Instant::now();
            match live.compact() {
                Ok(compaction) => {
                    out.compact_ms = ms(t0.elapsed());
                    out.compact_rows = compaction.folded_rows;
                    out.compactions += usize::from(compaction.compacted);
                    tracer.record("live.compact", seq, None, t0, Instant::now());
                }
                Err(e) => {
                    out.error = Some(format!("compaction failed: {e}"));
                    return out;
                }
            }
        }
    }
    out
}

/// Reads at two epochs — the first written-to epoch a read saw (served
/// from delta overlays) and the last one — must equal a fresh
/// cache-disabled preparation of the base plus the writes up to that epoch.
fn verify(
    ctx: &Ctx,
    report: &mut Report,
    pool: &[Vec<String>],
    writes: &[Write],
    tickets: &[(usize, WriteTicket)],
    reads: &[Read],
) -> Result<(), String> {
    let mut epochs: Vec<u64> = reads.iter().map(|r| r.epoch).filter(|&e| e > 0).collect();
    epochs.sort_unstable();
    epochs.dedup();
    let sample: Vec<u64> = match (epochs.first(), epochs.last()) {
        (Some(&a), Some(&b)) if a != b => vec![a, b],
        (Some(&a), _) => vec![a],
        _ => Vec::new(),
    };
    if sample.is_empty() {
        return Err("dblp-live: no read saw a write; nothing to verify".into());
    }
    for epoch in sample {
        let mut graph = common::ingest(&ctx.nt_path)?;
        for (i, ticket) in tickets {
            if ticket.epoch() <= epoch {
                graph
                    .insert_triple(&writes[*i].triple)
                    .map_err(|e| format!("replay write {i}: {e}"))?;
            }
        }
        let reference = Reference::new(graph);
        let at_epoch: Vec<&Read> = reads.iter().filter(|r| r.epoch == epoch).collect();
        let mut distinct: Vec<usize> = at_epoch.iter().map(|r| r.query).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let asked: Vec<&[String]> = distinct.iter().map(|&q| pool[q].as_slice()).collect();
        let expected = reference.expected_for_all(&asked)?;
        for read in at_epoch {
            let at = distinct
                .binary_search(&read.query)
                .map_err(|_| "read query not sampled")?;
            common::check(
                &format!("dblp-live@epoch{epoch}"),
                read.seq,
                &pool[read.query],
                &read.fingerprint,
                &expected[at].answered_prefix(),
            )?;
            report.verify.ok();
        }
    }
    Ok(())
}
