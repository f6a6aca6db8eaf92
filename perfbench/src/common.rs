//! Pieces every workload shares: the run context, repeated set-up, output
//! fingerprints and the cache-disabled reference they are checked against,
//! and open-loop pacing.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use kwsearch_core::{AnswerPhase, PreparedGraph, RankedQuery, SearchConfig, SearchOutcome};
use kwsearch_rdf::DataGraph;

use crate::report::Report;
use crate::stats::{self, Samples};

/// The paper's Fig. 5 interaction: the top-10 queries, then answers until
/// at least this many exist.
pub const MIN_ANSWERS: usize = 10;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// A run whose generator woke later than this at its tail is invalid: its
/// schedule, not the system, would shape the latencies.
pub const LAG_LIMIT_MS: f64 = 50.0;

pub fn config() -> SearchConfig {
    SearchConfig::default()
}

/// What every workload receives.
pub struct Ctx {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    pub trace: bool,
    /// Time zero of every span.
    pub origin: Instant,
    /// Scratch directory of this run (removed at exit).
    pub work: PathBuf,
    /// The generated graph as N-Triples.
    pub nt_path: PathBuf,
}

impl Ctx {
    pub fn deadline(&self, start: Instant) -> Instant {
        start + Duration::from_secs_f64(self.seconds)
    }

    /// Notes how far into the run a phase ended.
    pub fn mark(&self, report: &mut Report, phase: &str) {
        report.note(format!(
            "{phase} done at {:.2} s",
            self.origin.elapsed().as_secs_f64()
        ));
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

pub fn ms_between(a: Instant, b: Instant) -> f64 {
    ms(b.saturating_duration_since(a))
}

/// Streams the N-Triples file into a fresh data graph.
pub fn ingest(path: &Path) -> Result<DataGraph, String> {
    let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let mut graph = DataGraph::new();
    kwsearch_rdf::ingest_ntriples(BufReader::new(file), &mut graph)
        .map_err(|e| format!("ingest {}: {e}", path.display()))?;
    Ok(graph)
}

/// Median timings of repeated set-ups: the whole set-up and each named
/// part, in milliseconds.
#[derive(Debug, Default)]
pub struct SetupTimes {
    total: Vec<f64>,
    parts: BTreeMap<&'static str, Vec<f64>>,
}

impl SetupTimes {
    pub fn part(&mut self, name: &'static str, ms: f64) {
        self.parts.entry(name).or_default().push(ms);
    }

    pub fn median_part(&self, name: &str) -> f64 {
        self.parts.get(name).map_or(0.0, |v| stats::median(v))
    }
}

/// Runs `build` [`SETUP_REPS`] times, dropping each result before the next
/// build so the repetitions do not stack memory, and keeps the last. Sets
/// `setup_s` to the median; `build` records its parts.
pub fn repeat_setup<T>(
    report: &mut Report,
    mut build: impl FnMut(&mut SetupTimes) -> Result<T, String>,
) -> Result<(T, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        match build(&mut times) {
            Ok(value) => {
                times.total.push(ms(start.elapsed()));
                report.setup.ok();
                last = Some(value);
            }
            Err(e) => {
                report.setup.fail();
                return Err(e);
            }
        }
    }
    report.set("setup_s", stats::median(&times.total) / 1000.0);
    let value = last.ok_or("no set-up repetition ran")?;
    Ok((value, times))
}

/// What a response must reproduce: each query's cost bits and canonical
/// text, in rank order, and the number of answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub queries: Vec<(u64, String)>,
    pub answers: usize,
}

impl Fingerprint {
    pub fn of(queries: &[RankedQuery], answers: usize) -> Self {
        Self {
            queries: queries
                .iter()
                .map(|q| (q.cost.to_bits(), q.query.canonicalized().to_string()))
                .collect(),
            answers,
        }
    }
}

/// The reference result of one keyword query: the drained top-k and the
/// answer phase over it.
#[derive(Debug, Clone)]
pub struct Expected {
    /// All k queries and the answer count.
    pub full: Fingerprint,
    /// Queries the answer phase processed.
    pub processed: usize,
}

impl Expected {
    /// What a request that interleaves the answer phase with the stream
    /// returns: the queries up to the last one processed.
    pub fn answered_prefix(&self) -> Fingerprint {
        Fingerprint {
            queries: self.full.queries[..self.processed.min(self.full.queries.len())].to_vec(),
            answers: self.full.answers,
        }
    }
}

/// A cache-disabled preparation, queried one request at a time.
pub struct Reference {
    prepared: PreparedGraph,
}

impl Reference {
    pub fn new(graph: DataGraph) -> Self {
        Self {
            prepared: PreparedGraph::index_with(graph, Default::default(), 0),
        }
    }

    pub fn expected_for(&self, keywords: &[String]) -> Result<Expected, String> {
        let outcome = self
            .prepared
            .session(keywords, config())
            .map_err(|e| format!("reference search {keywords:?}: {e}"))?
            .into_outcome();
        let phase = self.prepared.answer_queries(&outcome.queries, MIN_ANSWERS);
        Ok(Expected {
            full: Fingerprint::of(&outcome.queries, phase.total_answers()),
            processed: phase.queries_processed,
        })
    }

    /// References of many queries, computed on two threads.
    pub fn expected_for_all(&self, queries: &[&[String]]) -> Result<Vec<Expected>, String> {
        let halves: Vec<Result<Vec<(usize, Expected)>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|part| {
                    scope.spawn(move || {
                        queries
                            .iter()
                            .enumerate()
                            .skip(part)
                            .step_by(2)
                            .map(|(i, q)| self.expected_for(q).map(|e| (i, e)))
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("reference thread panicked".into()))
                })
                .collect()
        });
        let mut out: Vec<Option<Expected>> = vec![None; queries.len()];
        for half in halves {
            for (i, expected) in half? {
                out[i] = Some(expected);
            }
        }
        Ok(out.into_iter().flatten().collect())
    }
}

/// Compares a response with its reference; the error names the request.
pub fn check(
    workload: &str,
    request: u64,
    keywords: &[String],
    got: &Fingerprint,
    want: &Fingerprint,
) -> Result<(), String> {
    let fail = |detail: String| {
        Err(format!(
            "{workload}: output mismatch on request {request} (keywords {keywords:?}): {detail}"
        ))
    };
    for (rank, (g, w)) in got.queries.iter().zip(&want.queries).enumerate() {
        if g.0 != w.0 {
            return fail(format!(
                "rank {} cost {} != reference {}",
                rank + 1,
                f64::from_bits(g.0),
                f64::from_bits(w.0)
            ));
        }
        if g.1 != w.1 {
            return fail(format!(
                "rank {} query {} != reference {}",
                rank + 1,
                g.1,
                w.1
            ));
        }
    }
    if got.queries.len() != want.queries.len() {
        return fail(format!(
            "{} queries != reference {}",
            got.queries.len(),
            want.queries.len()
        ));
    }
    if got.answers != want.answers {
        return fail(format!(
            "{} answers != reference {}",
            got.answers, want.answers
        ));
    }
    Ok(())
}

/// Open-loop pacing: sleeps until `due`. Returns how late the thread woke
/// when it had to wait, or `None` when it was already behind (its lateness
/// is then the system's backlog, which the request's latency counts).
pub fn wait_until(due: Instant) -> Option<f64> {
    let now = Instant::now();
    if now >= due {
        return None;
    }
    std::thread::sleep(due - now);
    Some(ms_between(due, Instant::now()))
}

/// Reports the generator's wake-up lag and fails the run if it fell behind
/// its schedule.
pub fn check_lag(report: &mut Report, lag: &Samples) -> Result<(), String> {
    let tail = lag.tail();
    report.set("loadgen.lag_tail_ms", tail.value);
    report.note(format!(
        "loadgen lag p{} = {:.3} ms over {} paced sends",
        tail.percentile,
        tail.value,
        lag.len()
    ));
    if tail.value > LAG_LIMIT_MS {
        return Err(format!(
            "invalid run: the load generator woke {:.1} ms late at p{} (limit {LAG_LIMIT_MS} ms)",
            tail.value, tail.percentile
        ));
    }
    Ok(())
}

/// Sets `latency_p50_ms` and `latency_tail_ms`, noting the tail's
/// percentile and sample count.
pub fn set_latency(report: &mut Report, latency: &Samples) {
    let tail = latency.tail();
    report.set("latency_p50_ms", latency.p50());
    report.set("latency_tail_ms", tail.value);
    report.note(format!(
        "latency tail = p{} over {} samples, {} beyond it{}",
        tail.percentile,
        latency.len(),
        tail.beyond,
        if tail.qualified {
            ""
        } else {
            " (fewer than 10)"
        }
    ));
}

/// Per-layer sums over the timed requests.
#[derive(Debug, Default)]
pub struct LayerSums {
    pub requests: usize,
    pub lookup_ms: f64,
    pub augment_ms: f64,
    pub exploration_ms: f64,
    pub answer_ms: f64,
    pub matches: f64,
    pub keywords: f64,
    pub augmented_elements: f64,
    pub pops: f64,
    pub pushes: f64,
    pub first_pops: f64,
    pub peak_queue: f64,
    pub processed: f64,
    pub answers: f64,
}

impl LayerSums {
    /// Adds the counters the engine reports for one request.
    pub fn count(&mut self, outcome: &SearchOutcome, phase: &AnswerPhase) {
        let stats = &outcome.exploration;
        self.requests += 1;
        self.matches += outcome
            .keywords
            .iter()
            .map(|k| k.element_matches as f64)
            .sum::<f64>();
        self.keywords += outcome.keywords.len() as f64;
        self.augmented_elements += outcome.augmented_elements as f64;
        self.pops += stats.queue_pops as f64;
        self.pushes += stats.queue_pushes as f64;
        self.peak_queue += stats.peak_queue_len as f64;
        self.processed += phase.queries_processed as f64;
        self.answers += phase.total_answers() as f64;
    }

    pub fn write(&self, report: &mut Report) {
        let n = self.requests.max(1) as f64;
        report.set("keyword_index.lookup_ms", self.lookup_ms / n);
        report.set(
            "keyword_index.matches_per_keyword",
            self.matches / self.keywords.max(1.0),
        );
        report.set("summary.augment_ms", self.augment_ms / n);
        report.set("summary.augmented_elements", self.augmented_elements / n);
        report.set("exploration.ms", self.exploration_ms / n);
        report.set("exploration.queue_pops", self.pops / n);
        report.set("exploration.queue_pushes", self.pushes / n);
        report.set("exploration.pop_ratio", self.pops / self.pushes.max(1.0));
        report.set(
            "exploration.first_query_pop_share",
            self.first_pops / self.pops.max(1.0),
        );
        report.set("exploration.peak_queue_len", self.peak_queue / n);
        report.set("query.answer_ms", self.answer_ms / n);
        report.set("query.queries_processed", self.processed / n);
        report.set(
            "query.answers_per_query",
            self.answers / self.processed.max(1.0),
        );
    }
}

/// Cache counters over the timed phase.
pub fn set_cache_deltas(
    report: &mut Report,
    before: &kwsearch_core::CacheStats,
    after: &kwsearch_core::CacheStats,
) {
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    let lookups = hits + misses;
    report.set(
        "cache.hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
    );
    report.set("cache.misses", misses as f64);
    report.set(
        "cache.evictions",
        (after.evictions - before.evictions) as f64,
    );
    report.set(
        "cache.invalidations",
        (after.invalidations - before.invalidations) as f64,
    );
    report.set(
        "cache.promotions",
        (after.promotions - before.promotions) as f64,
    );
    report.set("cache.heap_bytes", after.heap_bytes as f64);
}
