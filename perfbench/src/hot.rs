//! `dblp-hot`: an open loop at fixed rates into a two-worker
//! `SearchService` whose requests ask for at least ten answers. Queries are
//! Zipf-skewed over a pool a little larger than the augmentation cache, and
//! the cache is warmed before timing, so hits replay the cache and the
//! serve queue, cache policy and answer evaluation do most of the work.
//!
//! The timed phase runs a nominal rate first (its latencies are the
//! workload's `latency_p50_ms` and `latency_tail_ms`), then a closed window
//! of requests that keeps both workers busy (its completion rate is the
//! workload's `throughput_qps`), then a short ladder of rising rates below
//! that capacity that stops at the first step over the latency limit or
//! with a growing backlog: `serve.max_rate_qps` (see [`crate::rate`]).
//!
//! One thread paces and submits. Replies are awaited by a few threads that
//! do nothing but block on their tickets, so a slow miss delays only its
//! own reply, not the receipt of replies behind it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use kwsearch_core::serve::{
    SearchRequest, SearchResponse, SearchService, SearchTicket, ServeError,
};
use kwsearch_core::PreparedGraph;
use kwsearch_datagen::DblpDataset;

use crate::common::{self, ms, ms_between, Ctx, Fingerprint, Reference, MIN_ANSWERS};
use crate::inputs::{self, Stream};
use crate::rate::{self, Step};
use crate::report::{Phase, Report};
use crate::stats::Samples;
use crate::trace::{Trace, Tracer};

pub const WORKERS: usize = 2;

/// Offered rate of the nominal phase, requests per second: well under the
/// pool's capacity, so its latencies describe an unsaturated service.
pub const NOMINAL_RATE: f64 = 50.0;

/// Shares of `--seconds` spent at the nominal rate and at saturation; the
/// rest is the ladder.
const NOMINAL_SHARE: f64 = 0.5;
const SATURATION_SHARE: f64 = 0.35;

/// Requests kept outstanding at saturation: enough that both workers stay
/// busy while the oldest request is a slow miss.
const SATURATION_WINDOW: usize = 16;

/// Length of one ladder step.
const STEP_SECONDS: f64 = 0.9;

/// Ladder: starts at this share of the measured capacity, each step this
/// factor above the previous.
const LADDER_START: f64 = 0.6;
const LADDER_FACTOR: f64 = 1.4;

/// Threads blocked on reply tickets. Each holds one outstanding ticket, so
/// a reply is received as soon as it exists unless this many slower ones
/// are still pending.
const REPLY_WAITERS: usize = 4;

/// Zipf-ordered requests of the warm-up, after one pass over the pool.
const WARMUP_REQUESTS: usize = 200;

struct Sent {
    seq: u64,
    step: usize,
    due: Instant,
    query: usize,
    ticket: Result<SearchTicket, ServeError>,
}

struct Received {
    seq: u64,
    step: usize,
    due: Instant,
    receipt: Instant,
    query: usize,
    response: Option<SearchResponse>,
}

/// What the generator saw at each send of one step: outstanding requests
/// and the service's queue depth.
#[derive(Default)]
struct StepLoad {
    rate: f64,
    sends: Vec<(Instant, f64)>,
    peak_queue: usize,
}

impl StepLoad {
    fn halves(&self) -> (f64, f64) {
        let mid = self.sends.len() / 2;
        let mean = |s: &[(Instant, f64)]| {
            if s.is_empty() {
                0.0
            } else {
                s.iter().map(|x| x.1).sum::<f64>() / s.len() as f64
            }
        };
        (mean(&self.sends[..mid]), mean(&self.sends[mid..]))
    }
}

/// Submits `schedule` (due offset in seconds, pool index, step) at its due
/// times from this thread while [`REPLY_WAITERS`] threads receive the
/// replies. `rates` holds each step's offered rate; sending stops early
/// once `stop_after` returns true for a finished step.
#[allow(clippy::too_many_arguments)]
fn drive(
    service: &SearchService,
    pool: &[Vec<String>],
    schedule: &[(f64, usize, usize)],
    rates: &[f64],
    first_seq: u64,
    gen_tracer: &mut Tracer,
    lag: &mut Samples,
    mut stop_after: impl FnMut(usize, &[Received], &StepLoad) -> bool,
) -> (Vec<Received>, Vec<StepLoad>) {
    let completed = AtomicU64::new(0);
    let mut loads: Vec<StepLoad> = rates
        .iter()
        .map(|&rate| StepLoad {
            rate,
            ..StepLoad::default()
        })
        .collect();
    let start = Instant::now() + Duration::from_millis(5);
    let (tx, rx) = mpsc::channel::<Sent>();
    let rx = Mutex::new(rx);
    let (done_tx, done_rx) = mpsc::channel::<Received>();
    std::thread::scope(|scope| {
        for _ in 0..REPLY_WAITERS {
            let (rx, done_tx, completed) = (&rx, done_tx.clone(), &completed);
            scope.spawn(move || loop {
                let next = rx.lock().map(|rx| rx.recv());
                let Ok(Ok(sent)) = next else { break };
                let response = sent.ticket.ok().map(SearchTicket::wait);
                let receipt = Instant::now();
                completed.fetch_add(1, Ordering::Release);
                let _ = done_tx.send(Received {
                    seq: sent.seq,
                    step: sent.step,
                    due: sent.due,
                    receipt,
                    query: sent.query,
                    response,
                });
            });
        }
        drop(done_tx);
        let mut received: Vec<Received> = Vec::new();
        let mut current_step = 0;
        for (n, &(offset, query, step)) in schedule.iter().enumerate() {
            if step != current_step {
                // Step boundary: let the finished step's replies arrive,
                // then decide whether to go on.
                let step_end = start + Duration::from_secs_f64(offset);
                while let Ok(r) = done_rx.recv_timeout(
                    step_end
                        .saturating_duration_since(Instant::now())
                        .max(Duration::from_millis(1)),
                ) {
                    received.push(r);
                    if Instant::now() >= step_end {
                        break;
                    }
                }
                received.extend(done_rx.try_iter());
                if stop_after(current_step, &received, &loads[current_step]) {
                    break;
                }
                current_step = step;
            }
            let due = start + Duration::from_secs_f64(offset);
            if let Some(late) = common::wait_until(due) {
                lag.push(late);
            }
            let seq = first_seq + n as u64;
            let outstanding = n as u64 - completed.load(Ordering::Acquire);
            let load = &mut loads[step];
            load.sends.push((due, outstanding as f64));
            load.peak_queue = load.peak_queue.max(service.pending());
            let t0 = Instant::now();
            let ticket = service
                .submit(SearchRequest::new(pool[query].iter()).with_min_answers(MIN_ANSWERS));
            gen_tracer.record("serve.submit", seq, None, t0, Instant::now());
            let _ = tx.send(Sent {
                seq,
                step,
                due,
                query,
                ticket,
            });
        }
        drop(tx);
        received.extend(done_rx.iter());
        received.sort_by_key(|r| r.seq);
        (received, loads)
    })
}

/// `rate × seconds` requests of one step, evenly spaced from `from`
/// seconds, taking their queries from `order`.
fn schedule_at(
    rate: f64,
    seconds: f64,
    from: f64,
    step: usize,
    order: &mut impl Iterator<Item = usize>,
) -> Vec<(f64, usize, usize)> {
    let count = (rate * seconds).round() as usize;
    (0..count)
        .map(|k| (from + k as f64 / rate, order.next().unwrap_or(0), step))
        .collect()
}

pub fn run(ctx: &Ctx, dataset: DblpDataset, report: &mut Report) -> Result<Trace, String> {
    let pool = inputs::queries(&dataset, ctx.seed, Stream::HotPool, inputs::HOT_POOL);
    drop(dataset);
    let mut order = inputs::zipf_order(ctx.seed, Stream::HotOrder, pool.len(), 1 << 14).into_iter();

    let (service, times) = common::repeat_setup(report, |times| {
        let t0 = Instant::now();
        let graph = common::ingest(&ctx.nt_path)?;
        let t1 = Instant::now();
        let prepared = Arc::new(PreparedGraph::index(graph));
        let t2 = Instant::now();
        let service = SearchService::start(prepared, common::config(), WORKERS);
        times.part("ingest", ms_between(t0, t1));
        times.part("index", ms_between(t1, t2));
        Ok(service)
    })?;
    ctx.mark(report, "set-up");
    report.set("rdf.ingest_ms", times.median_part("ingest"));
    report.set("prepared.index_ms", times.median_part("index"));

    // Warm-up: one pass over the pool, then a Zipf stream, all submitted at
    // once.
    let warm: Vec<usize> = (0..pool.len())
        .chain(order.by_ref().take(WARMUP_REQUESTS))
        .collect();
    let tickets = service
        .submit_batch(
            warm.iter()
                .map(|&q| SearchRequest::new(pool[q].iter()).with_min_answers(MIN_ANSWERS)),
        )
        .map_err(|e| format!("dblp-hot warm-up: {e}"))?;
    let mut served: Vec<(u64, usize, Fingerprint)> = Vec::new();
    for (n, (ticket, &q)) in tickets.into_iter().zip(&warm).enumerate() {
        match fingerprint(&ticket.wait()) {
            Some(fp) => {
                report.warmup.ok();
                served.push((n as u64, q, fp));
            }
            None => report.warmup.fail(),
        }
    }
    ctx.mark(report, "warm-up");

    let prepared = Arc::clone(service.prepared());
    let cache_before = prepared.augmentation_cache().stats();
    let rejected_before = service.stats().jobs_rejected;
    let mut gen_tracer = Tracer::new(ctx.trace, ctx.origin);
    let mut lag = Samples::default();
    let timed_start = Instant::now();

    // Nominal phase.
    let nominal = schedule_at(
        NOMINAL_RATE,
        ctx.seconds * NOMINAL_SHARE,
        0.0,
        0,
        &mut order,
    );
    let first_seq = warm.len() as u64;
    let (nominal_replies, nominal_loads) = drive(
        &service,
        &pool,
        &nominal,
        &[NOMINAL_RATE],
        first_seq,
        &mut gen_tracer,
        &mut lag,
        |_, _, _| false,
    );

    // Saturation: the service's capacity.
    let saturation_seq = first_seq + nominal.len() as u64;
    let (capacity, saturation_replies) = saturate(
        &service,
        &pool,
        &mut order,
        ctx.seconds * SATURATION_SHARE,
        saturation_seq,
    );
    report.set("throughput_qps", capacity);

    // Ladder, below the capacity.
    let ladder_seconds = ctx.seconds * (1.0 - NOMINAL_SHARE - SATURATION_SHARE);
    let step_count = ((ladder_seconds / STEP_SECONDS).round() as usize).max(1);
    let rates = rate::ladder(LADDER_START * capacity, LADDER_FACTOR, step_count);
    let mut ladder = Vec::new();
    for (i, &r) in rates.iter().enumerate() {
        ladder.extend(schedule_at(
            r,
            STEP_SECONDS,
            i as f64 * STEP_SECONDS,
            i,
            &mut order,
        ));
    }
    let ladder_seq = saturation_seq + saturation_replies.len() as u64;
    let (ladder_replies, ladder_loads) = drive(
        &service,
        &pool,
        &ladder,
        &rates,
        ladder_seq,
        &mut gen_tracer,
        &mut lag,
        |step, received, load| !evaluate_step(step, received, load).passes(),
    );
    // Judged again once every reply is in.
    let steps: Vec<Step> = ladder_loads
        .iter()
        .enumerate()
        .filter(|(_, load)| !load.sends.is_empty())
        .map(|(i, load)| evaluate_step(i, &ladder_replies, load))
        .collect();
    let timed_elapsed = timed_start.elapsed().as_secs_f64();
    report.set("peak_rss_mb", crate::report::peak_rss_mb());

    let max_rate = rate::max_rate(&steps);
    for s in &steps {
        report.note(format!(
            "ladder step {:.1} req/s: tail {:.3} ms, backlog {:.2} -> {:.2}, {}",
            s.rate,
            s.tail_ms,
            s.backlog_first_half,
            s.backlog_second_half,
            if s.passes() { "pass" } else { "fail" }
        ));
    }
    report.set("serve.max_rate_qps", max_rate);

    // Latency at the nominal rate, from each request's due time.
    let mut latency = Samples::default();
    let mut queue_wait = Samples::default();
    let mut service_time = Samples::default();
    for r in &nominal_replies {
        if let Some(resp) = &r.response {
            let total = ms_between(r.due, r.receipt);
            latency.push(total);
            service_time.push(ms(resp.service_time));
            queue_wait.push((total - ms(resp.service_time)).max(0.0));
        }
    }
    common::set_latency(report, &latency);
    report.set("serve.queue_wait_p50_ms", queue_wait.p50());
    report.set("serve.queue_wait_tail_ms", queue_wait.tail().value);
    report.set("serve.service_p50_ms", service_time.p50());

    // Layer counters over every timed request.
    let mut tracer = Tracer::new(ctx.trace, ctx.origin);
    let mut sums = common::LayerSums::default();
    let mut busy_ms = 0.0;
    let mut timed = Phase::default();
    for r in nominal_replies
        .iter()
        .chain(&saturation_replies)
        .chain(&ladder_replies)
    {
        let Some(resp) = &r.response else {
            timed.fail();
            continue;
        };
        let Some(fp) = fingerprint(resp) else {
            timed.fail();
            continue;
        };
        timed.ok();
        served.push((r.seq, r.query, fp));
        busy_ms += ms(resp.service_time);
        let (Ok(outcome), Some(phase)) = (&resp.result, &resp.answer_phase) else {
            continue;
        };
        let receipt = r.receipt;
        let began = receipt - resp.service_time;
        let root = tracer.record("request", r.seq, None, r.due.min(began), receipt);
        tracer.record(
            "serve.queue_wait",
            r.seq,
            Some(root),
            r.due.min(began),
            began,
        );
        let work = tracer.record("serve.service", r.seq, Some(root), began, receipt);
        let lookup = ms(outcome.keyword_mapping_time);
        let explore = ms(outcome.exploration_time);
        let answer = ms(phase.answer_time);
        tracer.record_split(
            "keyword_index.lookup",
            r.seq,
            Some(work),
            began,
            0.0,
            lookup,
        );
        tracer.record_split("exploration", r.seq, Some(work), began, lookup, explore);
        tracer.record_split(
            "query.answer",
            r.seq,
            Some(work),
            began,
            lookup + explore,
            answer,
        );
        sums.count(outcome, phase);
        sums.lookup_ms += lookup;
        sums.exploration_ms += explore;
        sums.answer_ms += answer;
    }
    report.timed = timed;
    sums.write(report);
    report.set(
        "serve.busy_ratio",
        busy_ms / (WORKERS as f64 * timed_elapsed * 1000.0),
    );
    report.set(
        "serve.rejected",
        (service.stats().jobs_rejected - rejected_before) as f64,
    );
    let peak_queue = nominal_loads
        .iter()
        .chain(&ladder_loads)
        .map(|l| l.peak_queue)
        .max()
        .unwrap_or(0);
    report.set("serve.peak_queue_depth", peak_queue as f64);
    common::set_cache_deltas(
        report,
        &cache_before,
        &prepared.augmentation_cache().stats(),
    );
    report.set("loadgen.sent", report.timed.sent as f64);
    report.set(
        "loadgen.failed_ratio",
        report.timed.failed as f64 / report.timed.sent.max(1) as f64,
    );
    common::check_lag(report, &lag)?;
    drop(prepared);
    service.shutdown();

    ctx.mark(report, "timed phase");
    // Verification: one reference per pool query.
    let reference = Reference::new(common::ingest(&ctx.nt_path)?);
    let asked: Vec<&[String]> = pool.iter().map(Vec::as_slice).collect();
    let expected = reference.expected_for_all(&asked)?;
    for (seq, q, got) in &served {
        common::check(
            "dblp-hot",
            *seq,
            &pool[*q],
            got,
            &expected[*q].answered_prefix(),
        )?;
        report.verify.ok();
    }

    ctx.mark(report, "verification");
    let mut trace = Trace::default();
    trace.absorb(gen_tracer);
    trace.absorb(tracer);
    Ok(trace)
}

/// A successful response's fingerprint: the queries the answer phase
/// reached and its answer count.
fn fingerprint(response: &SearchResponse) -> Option<Fingerprint> {
    let outcome = response.result.as_ref().ok()?;
    let phase = response.answer_phase.as_ref()?;
    Some(Fingerprint::of(&outcome.queries, phase.total_answers()))
}

/// Keeps [`SATURATION_WINDOW`] requests outstanding for `seconds`,
/// submitting a new one as the oldest completes. Returns completions per
/// second within the window, and every reply.
fn saturate(
    service: &SearchService,
    pool: &[Vec<String>],
    order: &mut impl Iterator<Item = usize>,
    seconds: f64,
    first_seq: u64,
) -> (f64, Vec<Received>) {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut next_seq = first_seq;
    let mut submit = |order: &mut dyn Iterator<Item = usize>| {
        let query = order.next().unwrap_or(0);
        let seq = next_seq;
        next_seq += 1;
        let ticket =
            service.submit(SearchRequest::new(pool[query].iter()).with_min_answers(MIN_ANSWERS));
        (seq, query, Instant::now(), ticket)
    };
    let mut inflight: VecDeque<_> = (0..SATURATION_WINDOW).map(|_| submit(order)).collect();
    let mut replies = Vec::new();
    let mut completed = 0usize;
    while let Some((seq, query, sent, ticket)) = inflight.pop_front() {
        let response = ticket.ok().map(SearchTicket::wait);
        let receipt = Instant::now();
        if receipt < end {
            completed += 1;
            inflight.push_back(submit(order));
        }
        replies.push(Received {
            seq,
            step: 0,
            due: sent,
            receipt,
            query,
            response,
        });
    }
    (completed as f64 / seconds, replies)
}

/// Judges one ladder step from the replies received so far.
fn evaluate_step(step: usize, received: &[Received], load: &StepLoad) -> Step {
    let mut latency = Samples::default();
    for r in received.iter().filter(|r| r.step == step) {
        match &r.response {
            Some(resp) if resp.result.is_ok() => latency.push(ms_between(r.due, r.receipt)),
            // A refused or failed request misses the limit.
            _ => latency.push(f64::INFINITY),
        }
    }
    // Requests of the step still outstanding have waited at least this long.
    let now = Instant::now();
    let answered = latency.len();
    for &(due, _) in load.sends.iter().skip(answered) {
        latency.push(ms_between(due, now));
    }
    let (first, second) = load.halves();
    Step {
        rate: load.rate,
        tail_ms: latency.tail().value.min(1e9),
        backlog_first_half: first,
        backlog_second_half: second,
    }
}
