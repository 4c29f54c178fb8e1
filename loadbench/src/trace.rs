//! Traced mode: forwarding wrappers around the black boxes and the link
//! predictor, process-wide counters they feed, and an in-memory span log.
//!
//! Every wrapper passes `name` and `hash_params` through untouched, so a
//! traced model hashes to the same cache keys and gives the same answers as
//! the model it wraps; it only adds a clock read around each call.

use exes_expert_search::{ExpertRanker, RankedList, RankerBaseline};
use exes_graph::{CollabGraph, GraphView, PersonId, PerturbedGraph, Query};
use exes_linkpred::LinkPredictor;
use exes_team::{Team, TeamFormer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Which model a wrapper accounts to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    TfIdf = 0,
    Propagation = 1,
    Team = 2,
}

/// Black-box counters of one model.
pub struct BlackBox {
    pub full_calls: AtomicU64,
    pub full_ns: AtomicU64,
    pub incremental_calls: AtomicU64,
    pub incremental_ns: AtomicU64,
    pub declined: AtomicU64,
    pub baseline_ns: AtomicU64,
}

/// Process-wide counters every wrapper feeds.
pub struct Counters {
    pub models: [BlackBox; 3],
    pub linkpred_calls: AtomicU64,
    pub linkpred_ns: AtomicU64,
}

pub static COUNTERS: Counters = Counters {
    models: [BlackBox::new(), BlackBox::new(), BlackBox::new()],
    linkpred_calls: AtomicU64::new(0),
    linkpred_ns: AtomicU64::new(0),
};

impl BlackBox {
    const fn new() -> BlackBox {
        BlackBox {
            full_calls: AtomicU64::new(0),
            full_ns: AtomicU64::new(0),
            incremental_calls: AtomicU64::new(0),
            incremental_ns: AtomicU64::new(0),
            declined: AtomicU64::new(0),
            baseline_ns: AtomicU64::new(0),
        }
    }
}

/// A point-in-time copy of [`COUNTERS`], so phases can be read as deltas.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Per model: full calls, full ns, incremental calls, incremental ns,
    /// declined, baseline ns.
    pub models: [[u64; 6]; 3],
    pub linkpred_calls: u64,
    pub linkpred_ns: u64,
}

impl Tally {
    pub fn now() -> Tally {
        let mut t = Tally::default();
        for (out, m) in t.models.iter_mut().zip(&COUNTERS.models) {
            let all = [
                &m.full_calls,
                &m.full_ns,
                &m.incremental_calls,
                &m.incremental_ns,
                &m.declined,
                &m.baseline_ns,
            ];
            for (o, c) in out.iter_mut().zip(all) {
                *o = c.load(Ordering::Relaxed);
            }
        }
        t.linkpred_calls = COUNTERS.linkpred_calls.load(Ordering::Relaxed);
        t.linkpred_ns = COUNTERS.linkpred_ns.load(Ordering::Relaxed);
        t
    }

    pub fn since(&self, earlier: &Tally) -> Tally {
        let mut d = *self;
        for (dm, em) in d.models.iter_mut().zip(&earlier.models) {
            for (x, e) in dm.iter_mut().zip(em) {
                *x -= e;
            }
        }
        d.linkpred_calls -= earlier.linkpred_calls;
        d.linkpred_ns -= earlier.linkpred_ns;
        d
    }

    /// Nanoseconds spent inside black boxes (full, incremental, baseline).
    pub fn blackbox_ns(&self) -> u64 {
        self.models.iter().map(|m| m[1] + m[3] + m[5]).sum()
    }
}

fn add_elapsed(counter: &AtomicU64, start: Instant) {
    counter.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

/// A timing wrapper around an expert ranker.
///
/// `count_calls` is false for a team model's signal ranker: its time is part
/// of the team probe, but the probe is counted once, by the former.
#[derive(Debug, Clone)]
pub struct TracedRanker<R> {
    inner: R,
    slot: Slot,
    count_calls: bool,
}

impl<R> TracedRanker<R> {
    pub fn new(inner: R, slot: Slot) -> Self {
        TracedRanker {
            inner,
            slot,
            count_calls: true,
        }
    }

    pub fn signal(inner: R, slot: Slot) -> Self {
        TracedRanker {
            inner,
            slot,
            count_calls: false,
        }
    }

    fn counters(&self) -> &'static BlackBox {
        &COUNTERS.models[self.slot as usize]
    }
}

impl<R: ExpertRanker> ExpertRanker for TracedRanker<R> {
    fn score<G: GraphView + ?Sized>(&self, graph: &G, query: &Query, person: PersonId) -> f64 {
        self.inner.score(graph, query, person)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn hash_params(&self, state: &mut dyn std::hash::Hasher) {
        self.inner.hash_params(state)
    }

    fn rank_all<G: GraphView + ?Sized>(&self, graph: &G, query: &Query) -> RankedList {
        let start = Instant::now();
        let ranked = self.inner.rank_all(graph, query);
        self.full_done(start);
        ranked
    }

    fn rank_of<G: GraphView + ?Sized>(&self, graph: &G, query: &Query, person: PersonId) -> usize {
        let start = Instant::now();
        let rank = self.inner.rank_of(graph, query, person);
        self.full_done(start);
        rank
    }

    fn is_relevant<G: GraphView + ?Sized>(
        &self,
        graph: &G,
        query: &Query,
        person: PersonId,
        k: usize,
    ) -> bool {
        let start = Instant::now();
        let relevant = self.inner.is_relevant(graph, query, person, k);
        self.full_done(start);
        relevant
    }

    fn build_baseline(&self, graph: &CollabGraph, query: &Query) -> Option<RankerBaseline> {
        let start = Instant::now();
        let baseline = self.inner.build_baseline(graph, query);
        add_elapsed(&self.counters().baseline_ns, start);
        baseline
    }

    fn incremental_rank_of(
        &self,
        baseline: &RankerBaseline,
        view: &PerturbedGraph<'_>,
        query: &Query,
        person: PersonId,
    ) -> Option<usize> {
        let start = Instant::now();
        let rank = self
            .inner
            .incremental_rank_of(baseline, view, query, person);
        let c = self.counters();
        add_elapsed(&c.incremental_ns, start);
        if rank.is_some() {
            c.incremental_calls.fetch_add(1, Ordering::Relaxed);
        } else {
            c.declined.fetch_add(1, Ordering::Relaxed);
        }
        rank
    }
}

impl<R> TracedRanker<R> {
    fn full_done(&self, start: Instant) {
        let c = self.counters();
        if self.count_calls {
            c.full_calls.fetch_add(1, Ordering::Relaxed);
        }
        add_elapsed(&c.full_ns, start);
    }
}

/// A timing wrapper around a team former (accounted to [`Slot::Team`]).
#[derive(Debug, Clone)]
pub struct TracedFormer<F> {
    inner: F,
}

impl<F> TracedFormer<F> {
    pub fn new(inner: F) -> Self {
        TracedFormer { inner }
    }
}

impl<F: TeamFormer> TeamFormer for TracedFormer<F> {
    fn form_team<G: GraphView + ?Sized>(
        &self,
        graph: &G,
        query: &Query,
        seed: Option<PersonId>,
    ) -> Team {
        let start = Instant::now();
        let team = self.inner.form_team(graph, query, seed);
        team_done(start);
        team
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn hash_params(&self, state: &mut dyn std::hash::Hasher) {
        self.inner.hash_params(state)
    }

    fn is_member<G: GraphView + ?Sized>(
        &self,
        graph: &G,
        query: &Query,
        seed: Option<PersonId>,
        person: PersonId,
    ) -> bool {
        let start = Instant::now();
        let member = self.inner.is_member(graph, query, seed, person);
        team_done(start);
        member
    }
}

fn team_done(start: Instant) {
    let c = &COUNTERS.models[Slot::Team as usize];
    c.full_calls.fetch_add(1, Ordering::Relaxed);
    add_elapsed(&c.full_ns, start);
}

/// A timing wrapper around the link predictor behind link-addition
/// candidates.
#[derive(Debug, Clone)]
pub struct TracedPredictor<L> {
    inner: L,
}

impl<L> TracedPredictor<L> {
    pub fn new(inner: L) -> Self {
        TracedPredictor { inner }
    }
}

impl<L: LinkPredictor> LinkPredictor for TracedPredictor<L> {
    fn score<G: GraphView + ?Sized>(&self, graph: &G, a: PersonId, b: PersonId) -> f64 {
        self.inner.score(graph, a, b)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn top_candidates<G: GraphView + ?Sized>(
        &self,
        graph: &G,
        center: PersonId,
        candidates: &[PersonId],
        t: usize,
    ) -> Vec<(PersonId, f64)> {
        let start = Instant::now();
        let top = self.inner.top_candidates(graph, center, candidates, t);
        COUNTERS.linkpred_calls.fetch_add(1, Ordering::Relaxed);
        add_elapsed(&COUNTERS.linkpred_ns, start);
        top
    }
}

/// One finished span: offsets are microseconds since the log's origin;
/// `parent` indexes the enclosing span, if any.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: Option<usize>,
}

/// An in-memory span log, written out once when the run ends.
pub struct SpanLog {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new(origin: Instant) -> SpanLog {
        SpanLog {
            origin,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Records a span that ran from `start` to now; returns its index.
    pub fn record(&self, name: &str, start: Instant, parent: Option<usize>) -> usize {
        let span = Span {
            name: name.to_string(),
            start_us: start.saturating_duration_since(self.origin).as_micros() as u64,
            end_us: self.origin.elapsed().as_micros() as u64,
            parent,
        };
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Reserves an index for a span whose end is not known yet (a parent);
    /// [`SpanLog::close`] fills it in.
    pub fn open(&self, name: &str, parent: Option<usize>) -> (usize, Instant) {
        let start = Instant::now();
        (self.record(name, start, parent), start)
    }

    pub fn close(&self, index: usize) {
        let end = self.origin.elapsed().as_micros() as u64;
        self.spans.lock().expect("span log poisoned")[index].end_us = end;
    }

    pub fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("span log poisoned");
        let rows: Vec<String> = spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"id\":{i},\"name\":{},\"start_us\":{},\"end_us\":{},\"parent\":{}}}",
                    exes_server::json::escape(&s.name),
                    s.start_us,
                    s.end_us,
                    s.parent.map_or("null".to_string(), |p| p.to_string())
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }

    pub fn count(&self) -> usize {
        self.spans.lock().expect("span log poisoned").len()
    }
}
