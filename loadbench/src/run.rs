//! One benchmark run: set up the deployment (several times, keeping the
//! last), drive one workload's fixed request set through the router in a
//! closed loop, check every answer independently, and report.

use crate::checks;
use crate::deploy::{self, Deployment};
use crate::stats::{mean, median, peak_rss_mb, process_cpu_ms, quantile};
use crate::trace::{SpanLog, Tally, TracedPredictor};
use crate::world::{self, Body, Req, Rng, World, K, KINDS, MODELS};
use exes_core::counterfactual::candidates;
use exes_core::{ExesService, ExplanationRequest};
use exes_durability::{DurabilityConfig, DurableStore};
use exes_graph::store::StoreConfig;
use exes_graph::{CollabGraph, GraphStore, UpdateBatch};
use exes_linkpred::{CommonNeighbors, LinkPredictor};
use exes_server::client::HttpClient;
use exes_server::json::{self, Json};
use exes_server::wire;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median. A warm replay's set-up
/// answers its whole replay set cold, so it repeats fewer times.
fn setup_reps(workload: Workload) -> usize {
    match workload {
        Workload::WarmReplay => 3,
        _ => 9,
    }
}
/// Ops per committed `UpdateStream` batch.
pub const BATCH_OPS: usize = 8;
/// Seed of the fixed question bank every run draws its requests from.
pub const BANK_SEED: u64 = 0xE7E5;
/// Commits a non-committing workload sends after its measured explains, so
/// every workload measures commit latency.
pub const TAIL_COMMITS: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdExplain,
    WarmReplay,
    CommitChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ColdExplain,
        Workload::WarmReplay,
        Workload::CommitChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdExplain => "cold_explain",
            Workload::WarmReplay => "warm_replay",
            Workload::CommitChurn => "commit_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rounds of the workload's fixed request set per `--seconds`: the size
    /// of the request set scales with the requested run length (so a run
    /// takes about that long on a 2-core box), but never with the clock.
    fn rounds(self, seconds: u64) -> usize {
        let per_second = match self {
            // A round is 36 cold explanations (about 4 s).
            Workload::ColdExplain => 0.25,
            // A round replays the 42 bodies of the replay set once per
            // client (140 ms).
            Workload::WarmReplay => 7.0,
            // A round is one commit plus five gated explains (25-50 ms, as
            // the graph grows).
            Workload::CommitChurn => 20.0,
        };
        ((seconds as f64 * per_second).round() as usize).max(1)
    }
}

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// A run's printed result.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Operation accounting shared by every workload.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    /// False once a run-wide invariant (fingerprints, zero warm probes) breaks.
    invariants_hold: bool,
    cf_requests: u64,
    cf_sizes: Vec<f64>,
    failures_shown: usize,
}

impl Ledger {
    fn new() -> Ledger {
        Ledger {
            invariants_hold: true,
            ..Default::default()
        }
    }

    fn fail(&mut self, what: &str) {
        self.failed += 1;
        self.note(what);
    }

    fn note(&mut self, what: &str) {
        if self.failures_shown < 12 {
            eprintln!("loadbench: {what}");
            self.failures_shown += 1;
        }
    }

    fn broken(&mut self, what: &str) {
        self.invariants_hold = false;
        self.note(what);
    }

    /// Books one commit: its ack must name exactly `expected`, the next
    /// epoch. True when it does.
    fn book_commit(&mut self, expected: u64, status: u16, text: &str) -> bool {
        self.attempted += 1;
        let acked = (status == 200)
            .then(|| json::parse(text).ok())
            .flatten()
            .and_then(|d| d.get("epoch").and_then(Json::as_u64));
        if acked != Some(expected) {
            self.fail(&format!(
                "commit acked at {acked:?}, expected epoch {expected} (status {status}: {text})"
            ));
        }
        acked == Some(expected)
    }

    /// Books one slot with the outcome of its check.
    fn book(&mut self, req: &Req, checked: &Checked) {
        self.attempted += 1;
        match checked {
            Ok(sizes) => {
                if !req.is_factual() {
                    self.cf_requests += 1;
                    self.cf_sizes.extend(sizes.iter().map(|&s| s as f64));
                }
            }
            Err(e) => self.fail(&format!("{} {}: {e}", MODELS[req.model], KINDS[req.kind])),
        }
    }
}

/// One client exchange as recorded during a measured phase: parsing and
/// checking happen after the phase, off the clock. `body` indexes the plan's
/// bodies; `None` marks a commit of the plan's next stream batch.
struct Exchange {
    body: Option<usize>,
    ms: f64,
    status: u16,
    text: String,
}

fn post(
    client: &mut HttpClient,
    path: &str,
    body: &str,
    min_epoch: Option<u64>,
) -> (f64, u16, String) {
    let gate = min_epoch.map(|e| e.to_string());
    let headers: Vec<(&str, &str)> = gate
        .as_deref()
        .map(|g| vec![("X-Exes-Min-Epoch", g)])
        .unwrap_or_default();
    let start = Instant::now();
    let response = client.request_with_headers("POST", path, &headers, Some(body));
    let ms = start.elapsed().as_secs_f64() * 1e3;
    match response {
        Ok(r) => (ms, r.status, r.body),
        Err(e) => (ms, 0, e.to_string()),
    }
}

/// The `results` of an explain response with its serving epoch, when the
/// exchange succeeded and answered every slot.
fn results(ex: &Exchange, slots: usize) -> Result<(u64, Vec<Json>), String> {
    if ex.status != 200 {
        return Err(format!("status {}: {}", ex.status, ex.text));
    }
    let doc = json::parse(&ex.text).map_err(|e| format!("bad JSON: {e:?}"))?;
    let epoch = doc.get("epoch").and_then(Json::as_u64).ok_or("no epoch")?;
    let results = doc
        .get("results")
        .and_then(Json::as_array)
        .ok_or("no results")?
        .to_vec();
    if results.len() != slots {
        return Err(format!("{} results for {slots} requests", results.len()));
    }
    Ok((epoch, results))
}

/// Everything a workload prepared before its measured phase.
struct Plan {
    /// The bodies the measured phase sends, in order (the request set).
    bodies: Vec<Body>,
    /// Measured rounds over `bodies` (cold bodies are all distinct: 1).
    rounds: usize,
    /// Committed batches: the churn stream, or the trailing commits.
    stream: Vec<UpdateBatch>,
    /// Commit churn: the order of the gated bodies after each commit.
    gated_orders: Vec<Vec<usize>>,
    /// Warm replay: the set-up answer of each body, per slot, with the
    /// outcome of its independent check (a warm answer with the same content
    /// inherits it).
    setup_answers: Vec<Vec<(Json, Checked)>>,
}

struct SetupTimes {
    dataset_ms: f64,
    models_ms: f64,
    start_ms: f64,
    warmup_ms: f64,
    total_s: f64,
}

/// An answer's check outcome: its counterfactual sizes, or why it failed.
type Checked = Result<Vec<usize>, String>;

fn check(graph: &CollabGraph, req: &Req, entry: &Json) -> Checked {
    checks::check_answer(graph, req, entry, world::exes_config().max_explanation_size)
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

pub fn run(opts: &Options) -> Outcome {
    let root = PathBuf::from(".loadbench");
    let data_root = root.join(format!("run-{}", std::process::id()));
    let outcome = if opts.trace {
        run_with(
            opts,
            TracedPredictor::new(CommonNeighbors),
            &data_root,
            &root,
        )
    } else {
        run_with(opts, CommonNeighbors, &data_root, &root)
    };
    let _ = std::fs::remove_dir_all(&data_root);
    outcome
}

fn run_with<L>(opts: &Options, predictor: L, data_root: &Path, root: &Path) -> Outcome
where
    L: LinkPredictor + Clone + Send + Sync + 'static,
{
    let origin = Instant::now();
    let spans = SpanLog::new(origin);
    let mut ledger = Ledger::new();

    // ---- set-up, several times; the last deployment is the one measured.
    let reps = setup_reps(opts.workload);
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for rep in 0..reps {
        let (span, start) = spans.open("setup", None);
        let t = Instant::now();
        let ds = World::dataset();
        let dataset_ms = ms_since(t);
        spans.record("setup.dataset", t, Some(span));
        let t = Instant::now();
        let world = World::train(ds);
        let models_ms = ms_since(t);
        spans.record("setup.models", t, Some(span));
        let t = Instant::now();
        let dep = Deployment::start(
            &world,
            predictor.clone(),
            opts.trace,
            &data_root.join(format!("setup{rep}")),
        );
        let start_ms = ms_since(t);
        spans.record("setup.start", t, Some(span));
        let t = Instant::now();
        let plan = prepare(opts, &world, &dep, rep + 1 == reps);
        let warmup_ms = ms_since(t);
        spans.record("setup.warmup", t, Some(span));
        spans.close(span);
        times.push(SetupTimes {
            dataset_ms,
            models_ms,
            start_ms,
            warmup_ms,
            total_s: start.elapsed().as_secs_f64(),
        });
        if let Some((old, _, _)) = kept.replace((dep, world, plan)) {
            Deployment::shutdown(old);
        }
    }
    let (dep, world, plan) = kept.expect("at least one set-up");
    let graph = world.graph.clone();

    // ---- the measured phase.
    let before = (
        Tally::now(),
        deploy::worker_metrics(&dep.worker_addrs),
        deploy::get_json(dep.router.addr(), "/metrics"),
    );
    let cpu_before = process_cpu_ms();
    let (measure_span, measure_start) = spans.open("measure", None);
    let exchanges = match opts.workload {
        Workload::WarmReplay => replay(&dep, &plan, 2, &spans, measure_span),
        _ => serial(&dep, &plan, opts.workload, &spans, measure_span),
    };
    let wall_s = measure_start.elapsed().as_secs_f64();
    let cpu_ms = process_cpu_ms() - cpu_before;
    spans.close(measure_span);
    let after = (
        Tally::now(),
        deploy::worker_metrics(&dep.worker_addrs),
        deploy::get_json(dep.router.addr(), "/metrics"),
    );

    // ---- checks, off the clock.
    let mut explain_ms = Vec::new();
    let mut commit_ms = Vec::new();
    let mut answered = 0u64;
    let mut committed_graphs = Vec::new();
    let check_store = GraphStore::new(graph.clone());
    let mut floor = 0u64;
    for ex in &exchanges {
        let Some(index) = ex.body else {
            commit_ms.push(ex.ms);
            let snapshot = check_store
                .commit(&plan.stream[committed_graphs.len()])
                .expect("the stream is valid");
            if ledger.book_commit(snapshot.epoch(), ex.status, &ex.text) {
                floor = snapshot.epoch();
            }
            committed_graphs.push(snapshot);
            continue;
        };
        let body = &plan.bodies[index];
        explain_ms.push(ex.ms);
        match results(ex, body.reqs.len()) {
            Err(e) => {
                for _ in &body.reqs {
                    ledger.attempted += 1;
                    ledger.fail(&e);
                }
            }
            Ok((epoch, slots)) => {
                if epoch < floor {
                    ledger.fail(&format!("read at epoch {epoch} below its floor {floor}"));
                }
                let graph_at = if epoch == 0 {
                    &graph
                } else {
                    match committed_graphs.get(epoch as usize - 1) {
                        Some(s) => s.graph(),
                        None => {
                            ledger.fail(&format!("answered at unknown epoch {epoch}"));
                            continue;
                        }
                    }
                };
                for (i, (req, entry)) in body.reqs.iter().zip(&slots).enumerate() {
                    answered += 1;
                    match plan.setup_answers.get(index) {
                        Some(setup) => match checks::check_warm(&setup[i].0, entry) {
                            Ok(()) => ledger.book(req, &setup[i].1),
                            Err(e) => ledger.book(req, &Err(e)),
                        },
                        None => ledger.book(req, &check(graph_at, req, entry)),
                    }
                }
            }
        }
    }
    let probes = deploy::worker_sum(&after.1, "explain.probes")
        - deploy::worker_sum(&before.1, "explain.probes");
    if opts.workload == Workload::WarmReplay && probes > 0.0 {
        ledger.broken(&format!("the warm replay issued {probes} black-box probes"));
    }

    // ---- traced: routed-versus-direct replay on now-warm bodies.
    let router_overhead = opts.trace.then(|| routed_vs_direct(&dep, &plan, &spans));

    // ---- trailing commits, so every workload reports commit latency.
    if opts.workload != Workload::CommitChurn {
        let mut client = HttpClient::connect(dep.router.addr()).expect("connect to the router");
        for batch in &plan.stream {
            let t = Instant::now();
            let (ms, status, text) = post(&mut client, "/commit", &world::commit_body(batch), None);
            spans.record("commit", t, None);
            commit_ms.push(ms);
            let snapshot = check_store.commit(batch).expect("the stream is valid");
            ledger.book_commit(snapshot.epoch(), status, &text);
        }
    }
    let expected = check_store.snapshot().graph().fingerprint();
    let prints = deploy::worker_fingerprints(&dep.worker_addrs);
    if let Err(e) = checks::check_fingerprints(expected, &prints) {
        ledger.broken(&e);
    }

    if ledger.failed > 0 {
        // What the router saw of its workers, for diagnosing the failures.
        let router = deploy::get_json(dep.router.addr(), "/metrics");
        ledger.note(&format!("router metrics after failures: {router:?}"));
    }

    // ---- report.
    let cf_sizes = std::mem::take(&mut ledger.cf_sizes);
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| metrics.push((name.to_string(), value, unit));
    let setup_s = median(&times.iter().map(|t| t.total_s).collect::<Vec<_>>());
    put("setup_s", setup_s, "s");
    put("explain_rps", answered as f64 / wall_s, "1/s");
    put(
        "cpu_ms_per_explain",
        cpu_ms / (answered.max(1)) as f64,
        "ms",
    );
    put("peak_rss_mb", peak_rss_mb(), "MB");
    put(
        "cf_explanations",
        cf_sizes.len() as f64 / ledger.cf_requests.max(1) as f64,
        "count",
    );
    put("cf_size_mean", mean(&cf_sizes), "perturbations");

    // Client latencies moved too much between runs of the same code to
    // carry a bound (see the README); they are reported with the per-layer
    // figures. In a closed loop `explain_rps` already carries the mean.
    let client = [
        ("client.explain_p50_ms", median(&explain_ms)),
        (
            "client.explain_p90_ms",
            quantile(&explain_ms, 0.9).unwrap_or(0.0),
        ),
        ("client.commit_p50_ms", median(&commit_ms)),
    ];
    let mut outcome_metrics = metrics;
    if !opts.trace {
        for (name, value) in client {
            eprintln!("loadbench: unbounded {name} = {value} ms");
        }
    } else {
        let layer = layers(
            opts,
            &world,
            &plan,
            &times,
            &before,
            &after,
            router_overhead.expect("traced"),
            client,
            answered,
            &check_store,
            data_root,
            &spans,
        );
        // Traced runs print the per-layer metrics; the end-to-end figures of
        // the same run go to stderr so the tracing overhead can be read off.
        for (name, value, unit) in &outcome_metrics {
            eprintln!("loadbench: traced end-to-end {name} = {value} {unit}");
        }
        outcome_metrics = layer;
        let _ = std::fs::create_dir_all(root);
        let path = root.join(format!(
            "trace-{}-seed{}.json",
            opts.workload.name(),
            opts.seed
        ));
        match std::fs::write(&path, spans.to_json()) {
            Ok(()) => eprintln!(
                "loadbench: wrote {} spans to {}",
                spans.count(),
                path.display()
            ),
            Err(e) => eprintln!("loadbench: could not write {}: {e}", path.display()),
        }
    }
    dep.shutdown();
    Outcome {
        correct: ledger.invariants_hold,
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics: outcome_metrics,
    }
}

/// Builds the workload's request set and runs its warm-up. Only the kept
/// (last) set-up books its warm-up answers in the ledger.
fn prepare<L>(opts: &Options, world: &World, dep: &Deployment<L>, keep: bool) -> Plan
where
    L: LinkPredictor + Clone + Send + Sync + 'static,
{
    let graph = &world.graph;
    // The questions and the update stream come from a fixed bank; the seed
    // orders the requests. (Banks drawn per seed made runs differ by 10-15 %
    // in cold throughput and by 20-40 % in commit-churn throughput and
    // counterfactual counts: a few costly questions, or how the graph
    // drifts, dominate a run.)
    let mut bank = Rng::new(BANK_SEED);
    let mut order = Rng::new(opts.seed);
    let rounds = opts.workload.rounds(opts.seconds);
    match opts.workload {
        Workload::ColdExplain => {
            // 3 fresh queries per round, plus one for the warm-up request.
            let queries = world::distinct_queries(graph, 3 * rounds + 1, BANK_SEED);
            let mut bodies = Vec::with_capacity(36 * rounds);
            for r in 0..rounds {
                let round =
                    world::cold_round(graph, &queries[3 * r..3 * r + 3], &mut bank, &mut order);
                bodies.extend(round.into_iter().map(|req| Body::new(vec![req], graph)));
            }
            let warm_query = queries[3 * rounds].clone();
            let subject = world::ranking(graph, 0, &warm_query).entries()[0].0;
            let warmup = Body::new(
                vec![Req {
                    model: 0,
                    subject,
                    query: warm_query,
                    kind: 4,
                }],
                graph,
            );
            let mut client = HttpClient::connect(dep.router.addr()).expect("connect to the router");
            let (_, status, _) = post(&mut client, "/explain", &warmup.text, None);
            assert_eq!(status, 200, "the warm-up request failed");
            Plan {
                bodies,
                rounds: 1,
                stream: world::update_stream(graph, TAIL_COMMITS, BATCH_OPS, BANK_SEED),
                gated_orders: Vec::new(),
                setup_answers: Vec::new(),
            }
        }
        Workload::WarmReplay => {
            let mut bodies = replay_set(graph, &mut bank);
            order.shuffle(&mut bodies);
            // Answer the whole set once; these are the reference answers.
            let mut client = HttpClient::connect(dep.router.addr()).expect("connect to the router");
            let mut setup_answers = Vec::with_capacity(bodies.len());
            for (i, body) in bodies.iter().enumerate() {
                let (ms, status, text) = post(&mut client, "/explain", &body.text, None);
                let ex = Exchange {
                    body: Some(i),
                    ms,
                    status,
                    text,
                };
                let slots = results(&ex, body.reqs.len())
                    .unwrap_or_else(|e| panic!("a set-up answer failed: {e}"))
                    .1;
                let checked = body
                    .reqs
                    .iter()
                    .zip(slots)
                    .map(|(req, entry)| {
                        let outcome = if keep {
                            check(graph, req, &entry)
                        } else {
                            Ok(Vec::new())
                        };
                        (entry, outcome)
                    })
                    .collect();
                setup_answers.push(checked);
            }
            Plan {
                bodies,
                rounds,
                stream: world::update_stream(graph, TAIL_COMMITS, BATCH_OPS, BANK_SEED),
                gated_orders: Vec::new(),
                setup_answers,
            }
        }
        Workload::CommitChurn => {
            let bodies = gated_set(graph, &mut bank);
            let mut client = HttpClient::connect(dep.router.addr()).expect("connect to the router");
            for body in &bodies {
                let (_, status, _) = post(&mut client, "/explain", &body.text, None);
                assert_eq!(status, 200, "a warm-up request failed");
            }
            let gated_orders = (0..rounds)
                .map(|_| {
                    let mut step: Vec<usize> = (0..bodies.len()).collect();
                    order.shuffle(&mut step);
                    step
                })
                .collect();
            Plan {
                bodies,
                rounds,
                stream: world::update_stream(graph, rounds, BATCH_OPS, BANK_SEED),
                gated_orders,
                setup_answers: Vec::new(),
            }
        }
    }
}

/// The warm replay set: two fresh queries; for each, every model and kind
/// once (36 distinct requests, subjects alternating expert / non-expert).
/// Each request is a single-request body; every sixth request also rides in
/// a three-slot body that repeats it (`[a, b, a]`).
fn replay_set(graph: &CollabGraph, rng: &mut Rng) -> Vec<Body> {
    let queries = world::distinct_queries(graph, 2, BANK_SEED ^ 0x3A33);
    let mut reqs = Vec::new();
    for query in &queries {
        for model in 0..MODELS.len() {
            let ranked = world::ranking(graph, model, query);
            for kind in 0..KINDS.len() {
                let rank = if (kind + model) % 2 == 0 {
                    rng.below(K)
                } else {
                    K + rng.below(K)
                };
                reqs.push(Req {
                    model,
                    subject: ranked.entries()[rank].0,
                    query: query.clone(),
                    kind,
                });
            }
        }
    }
    let mut bodies: Vec<Body> = reqs
        .iter()
        .map(|r| Body::new(vec![r.clone()], graph))
        .collect();
    for i in (0..reqs.len()).step_by(6) {
        let other = reqs[(i + 1 + rng.below(reqs.len() - 1)) % reqs.len()].clone();
        bodies.push(Body::new(
            vec![reqs[i].clone(), other, reqs[i].clone()],
            graph,
        ));
    }
    bodies
}

/// The commit-churn read set: one query, five cheap-to-moderate requests
/// (TF-IDF skill and query counterfactuals, a TF-IDF query-term factual,
/// propagation and team query counterfactuals), experts and non-experts
/// mixed.
fn gated_set(graph: &CollabGraph, rng: &mut Rng) -> Vec<Body> {
    let query = world::distinct_queries(graph, 1, BANK_SEED ^ 0xC0117).remove(0);
    let picks = [
        (0usize, 0usize, true),
        (0, 1, false),
        (0, 4, true),
        (1, 1, true),
        (2, 1, false),
    ];
    picks
        .iter()
        .map(|&(model, kind, expert)| {
            let ranked = world::ranking(graph, model, &query);
            let rank = if expert {
                rng.below(K)
            } else {
                K + rng.below(K)
            };
            Body::new(
                vec![Req {
                    model,
                    subject: ranked.entries()[rank].0,
                    query: query.clone(),
                    kind,
                }],
                graph,
            )
        })
        .collect()
}

/// One client, one connection: cold bodies in order, or commit-then-gated
/// explains.
fn serial<L>(
    dep: &Deployment<L>,
    plan: &Plan,
    workload: Workload,
    spans: &SpanLog,
    parent: usize,
) -> Vec<Exchange>
where
    L: LinkPredictor + Clone + Send + Sync + 'static,
{
    let mut client = HttpClient::connect(dep.router.addr()).expect("connect to the router");
    let mut out = Vec::new();
    match workload {
        Workload::CommitChurn => {
            let mut epoch = 0;
            for (batch, step) in plan.stream.iter().zip(&plan.gated_orders) {
                let t = Instant::now();
                let (ms, status, text) =
                    post(&mut client, "/commit", &world::commit_body(batch), None);
                spans.record("commit", t, Some(parent));
                if status == 200 {
                    epoch = json::parse(&text)
                        .ok()
                        .and_then(|d| d.get("epoch").and_then(Json::as_u64))
                        .unwrap_or(epoch);
                }
                out.push(Exchange {
                    body: None,
                    ms,
                    status,
                    text,
                });
                for &i in step {
                    let t = Instant::now();
                    let (ms, status, text) =
                        post(&mut client, "/explain", &plan.bodies[i].text, Some(epoch));
                    spans.record("explain", t, Some(parent));
                    out.push(Exchange {
                        body: Some(i),
                        ms,
                        status,
                        text,
                    });
                }
            }
        }
        _ => {
            for _ in 0..plan.rounds {
                for (i, body) in plan.bodies.iter().enumerate() {
                    let t = Instant::now();
                    let (ms, status, text) = post(&mut client, "/explain", &body.text, None);
                    spans.record("explain", t, Some(parent));
                    out.push(Exchange {
                        body: Some(i),
                        ms,
                        status,
                        text,
                    });
                }
            }
        }
    }
    out
}

/// `clients` closed-loop clients, each on its own connection, replaying the
/// whole body list `plan.rounds` times; client `c` starts its pass `c/clients`
/// of the way in, so the clients carry equal work and rarely send the same
/// body at once.
fn replay<L>(
    dep: &Deployment<L>,
    plan: &Plan,
    clients: usize,
    spans: &SpanLog,
    parent: usize,
) -> Vec<Exchange>
where
    L: LinkPredictor + Clone + Send + Sync + 'static,
{
    let addr = dep.router.addr();
    let mut all = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = HttpClient::connect(addr).expect("connect to the router");
                    let mut out = Vec::new();
                    let n = plan.bodies.len();
                    for _ in 0..plan.rounds {
                        for i in (0..n).map(|j| (j + c * n / clients) % n) {
                            let t = Instant::now();
                            let (ms, status, text) =
                                post(&mut client, "/explain", &plan.bodies[i].text, None);
                            spans.record("explain", t, Some(parent));
                            out.push(Exchange {
                                body: Some(i),
                                ms,
                                status,
                                text,
                            });
                        }
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            all.extend(h.join().expect("a client thread panicked"));
        }
    });
    all
}

/// Replays single-request bodies (all warm by now) directly to the worker
/// that owns each shard and through the router, alternating; returns
/// p50(routed) - p50(direct) in ms.
fn routed_vs_direct<L>(dep: &Deployment<L>, plan: &Plan, spans: &SpanLog) -> f64
where
    L: LinkPredictor + Clone + Send + Sync + 'static,
{
    let singles: Vec<&Body> = plan
        .bodies
        .iter()
        .filter(|b| b.reqs.len() == 1)
        .take(64)
        .collect();
    let passes = 128usize.div_ceil(singles.len().max(1));
    let mut routed = HttpClient::connect(dep.router.addr()).expect("connect to the router");
    let (span, _) = spans.open("replay.routed_vs_direct", None);
    let (mut via_router, mut to_worker) = (Vec::new(), Vec::new());
    // One worker at a time, so no more than two connections are open.
    for (owner, &addr) in dep.worker_addrs.iter().enumerate() {
        let owned: Vec<&&Body> = singles
            .iter()
            .filter(|b| {
                dep.router
                    .shard_of(MODELS[b.reqs[0].model], b.reqs[0].subject.0 as u64)
                    == owner
            })
            .collect();
        let mut direct = HttpClient::connect(addr).expect("connect to a worker");
        for _ in 0..passes {
            for body in &owned {
                let t = Instant::now();
                let (ms, _, _) = post(&mut direct, "/explain", &body.text, None);
                spans.record("explain.direct", t, Some(span));
                to_worker.push(ms);
                let t = Instant::now();
                let (ms, _, _) = post(&mut routed, "/explain", &body.text, None);
                spans.record("explain.routed", t, Some(span));
                via_router.push(ms);
            }
        }
    }
    spans.close(span);
    median(&via_router) - median(&to_worker)
}

/// The per-layer metrics of a traced run.
#[allow(clippy::too_many_arguments)]
fn layers(
    opts: &Options,
    world: &World,
    plan: &Plan,
    times: &[SetupTimes],
    before: &(Tally, Vec<Json>, Json),
    after: &(Tally, Vec<Json>, Json),
    router_overhead_ms: f64,
    client: [(&str, f64); 3],
    answered: u64,
    check_store: &GraphStore,
    data_root: &Path,
    spans: &SpanLog,
) -> Vec<(String, f64, &'static str)> {
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| m.push((name.to_string(), value, unit));
    for (name, value) in client {
        put(name, value, "ms");
    }
    let commit_p50_ms = client[2].1;
    let delta =
        |path: &str| deploy::worker_sum(&after.1, path) - deploy::worker_sum(&before.1, path);
    let router_delta = |path: &str| deploy::num(&after.2, path) - deploy::num(&before.2, path);

    // Router.
    put("router.overhead_p50_ms", router_overhead_ms, "ms");
    let routed_bodies = router_delta("explain.batches");
    put(
        "router.sub_batches",
        router_delta("explain.sub_batches") / routed_bodies.max(1.0),
        "per_body",
    );

    // Server: lanes and batching from the workers' own /metrics.
    let lane = |lane: &str| {
        let values: Vec<f64> = after
            .1
            .iter()
            .map(|w| deploy::num(w, &format!("lanes.{lane}.p50_ms")))
            .collect();
        mean(&values)
    };
    put("server.fast_lane_p50_ms", lane("fast"), "ms");
    put("server.slow_lane_p50_ms", lane("slow"), "ms");
    put(
        "server.requests_per_batch",
        delta("explain.requests") / delta("explain.micro_batches").max(1.0),
        "requests",
    );
    put("server.shed", delta("explain.shed_requests"), "count");

    // Service and probe engine, over the measured phase.
    let probes = delta("explain.probes");
    let hits = delta("cache.hits");
    let misses = delta("cache.misses");
    put(
        "service.duplicates",
        delta("explain.duplicate_requests"),
        "count",
    );
    put("probe.probes", probes, "count");
    put(
        "probe.probes_per_explain",
        probes / answered.max(1) as f64,
        "probes",
    );
    put("probe.hit_rate", hits / (hits + misses).max(1.0), "share");
    put("probe.evictions", delta("cache.evictions"), "count");
    put("probe.plan_hits", delta("plan.hits"), "count");
    put("probe.plan_misses", delta("plan.misses"), "count");
    put(
        "probe.incremental",
        delta("explain.incremental_rescores"),
        "count",
    );
    put(
        "probe.full",
        delta("explain.full_fallback_rescores"),
        "count",
    );

    // Black boxes and link prediction inside the workers, over the phase.
    let phase = after.0.since(&before.0);
    for (slot, name) in MODELS.iter().enumerate() {
        let b = phase.models[slot];
        put(&format!("blackbox.{name}.full_calls"), b[0] as f64, "count");
        put(&format!("blackbox.{name}.full_ms"), b[1] as f64 / 1e6, "ms");
        put(
            &format!("blackbox.{name}.incremental_calls"),
            b[2] as f64,
            "count",
        );
        put(
            &format!("blackbox.{name}.incremental_ms"),
            b[3] as f64 / 1e6,
            "ms",
        );
        put(&format!("blackbox.{name}.declined"), b[4] as f64, "count");
        put(
            &format!("blackbox.{name}.baseline_ms"),
            b[5] as f64 / 1e6,
            "ms",
        );
    }
    put("linkpred.calls", phase.linkpred_calls as f64, "count");
    put("linkpred.ms", phase.linkpred_ns as f64 / 1e6, "ms");

    // In-process: the engine, the wire functions and candidate generation on
    // the workload's own requests.
    let engine = engine_pass(opts, world, plan, spans);
    put("service.engine_p50_ms", engine.engine_p50_ms, "ms");
    put("server.parse_us", engine.parse_us, "us");
    put("server.serialize_us", engine.serialize_us, "us");
    put("candidates.ms", engine.candidates_ms, "ms");
    put("engine.factual_self_ms", engine.factual_self_ms, "ms");
    put("engine.cf_self_ms", engine.cf_self_ms, "ms");

    // Store and WAL, directly, on the workload's stream.
    let store = store_pass(world, plan, data_root, spans);
    put("store.commit_us", store.store_us, "us");
    put(
        "store.rebuilds",
        check_store.stats().rebuilds as f64,
        "count",
    );
    put("wal.commit_us", store.durable_us - store.store_us, "us");
    put("wal.bytes", store.wal_bytes_per_commit, "bytes");
    put(
        "router.commit_fanout_ms",
        commit_p50_ms - store.durable_us / 1e3,
        "ms",
    );

    // Set-up phases (medians over the set-ups of this run).
    let med = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    put("setup.dataset_ms", med(|t| t.dataset_ms), "ms");
    put("setup.models_ms", med(|t| t.models_ms), "ms");
    put("setup.start_ms", med(|t| t.start_ms), "ms");
    put("setup.warmup_ms", med(|t| t.warmup_ms), "ms");
    m
}

struct EnginePass {
    engine_p50_ms: f64,
    parse_us: f64,
    serialize_us: f64,
    candidates_ms: f64,
    factual_self_ms: f64,
    cf_self_ms: f64,
}

/// Answers the workload's distinct requests on a fresh in-process service
/// with traced models (cold; a warm replay answers them once first and times
/// the second pass), one `try_explain_batch` per request, and times the
/// wire functions and candidate generation on the same requests.
fn engine_pass(opts: &Options, world: &World, plan: &Plan, spans: &SpanLog) -> EnginePass {
    let graph = &world.graph;
    let cfg = world::exes_config();
    let exes = exes_core::Exes::new(
        cfg.clone(),
        world.embedding.clone(),
        TracedPredictor::new(CommonNeighbors),
    );
    let mut service = ExesService::from_graph(&exes, graph.clone());
    world::register_models(&mut service, true);
    let singles: Vec<&Body> = plan
        .bodies
        .iter()
        .filter(|b| b.reqs.len() == 1)
        .take(36)
        .collect();
    let to_request = |req: &Req| {
        ExplanationRequest::new(
            service.model_id(MODELS[req.model]).expect("registered"),
            req.subject,
            Arc::new(req.query.clone()),
            wire::parse_kind(KINDS[req.kind]).expect("a known kind"),
        )
    };
    if opts.workload == Workload::WarmReplay {
        for body in &singles {
            let _ = service.try_explain_batch(&[to_request(&body.reqs[0])]);
        }
    }
    let (span, _) = spans.open("engine_pass", None);
    let (mut engine_ms, mut parse_us, mut serialize_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cand_ms, mut factual_self, mut cf_self) = (Vec::new(), Vec::new(), Vec::new());
    for body in &singles {
        let req = &body.reqs[0];

        let t = Instant::now();
        let doc = json::parse(&body.text).expect("a valid body");
        let parsed = wire::parse_explain_requests(&doc, graph.vocab(), |n| service.model_id(n))
            .expect("a well-formed body");
        parse_us.push(t.elapsed().as_secs_f64() * 1e6);
        let request = parsed
            .into_iter()
            .next()
            .expect("one slot")
            .expect("a valid request");

        // Candidate generation, called directly the way the engine calls it.
        // Link removals are left out: their candidates are ranked by probing
        // the black box, which the wrappers already time.
        let selected = checks::decide(graph, &req.query, req.model, req.subject).positive;
        let (q, s, e) = (&req.query, req.subject, &world.embedding);
        let t = Instant::now();
        let generated = match (req.kind, selected) {
            (0, true) => Some(candidates::skill_removal_candidates(graph, q, s, e, &cfg)),
            (0, false) => Some(candidates::skill_addition_candidates(graph, q, s, e, &cfg)),
            (1, _) => Some(candidates::query_augmentation_candidates(
                graph, q, s, selected, e, &cfg,
            )),
            (2, false) => Some(candidates::link_addition_candidates(
                graph,
                s,
                &CommonNeighbors,
                &cfg,
            )),
            _ => None,
        };
        let cand = generated.map(|c| {
            std::hint::black_box(c);
            t.elapsed().as_secs_f64() * 1e3
        });

        let tally = Tally::now();
        let t = Instant::now();
        let (results, _) = service.try_explain_batch(std::slice::from_ref(&request));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        spans.record("engine.explain", t, Some(span));
        let d = Tally::now().since(&tally);
        engine_ms.push(ms);
        // Engine self time: the request's engine time minus black-box time
        // and candidate time (which, for link additions, holds the link
        // predictor's).
        let blackbox = d.blackbox_ns() as f64 / 1e6;
        let linkpred = d.linkpred_ns as f64 / 1e6;
        if req.is_factual() {
            factual_self.push(ms - blackbox - linkpred);
        } else {
            cf_self.push(ms - blackbox - cand.unwrap_or(linkpred));
            cand_ms.extend(cand);
        }

        let t = Instant::now();
        let text = wire::results_json(&results, graph);
        serialize_us.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(text);
    }
    spans.close(span);
    EnginePass {
        engine_p50_ms: median(&engine_ms),
        parse_us: median(&parse_us),
        serialize_us: median(&serialize_us),
        candidates_ms: mean(&cand_ms),
        factual_self_ms: mean(&factual_self),
        cf_self_ms: mean(&cf_self),
    }
}

struct StorePass {
    store_us: f64,
    durable_us: f64,
    wal_bytes_per_commit: f64,
}

/// Commits the workload's stream on an in-process `GraphStore` and on a
/// fresh `DurableStore`, batch by batch; medians in µs.
fn store_pass(world: &World, plan: &Plan, data_root: &Path, spans: &SpanLog) -> StorePass {
    let store = GraphStore::new(world.graph.clone());
    let dir = data_root.join("store-pass");
    let _ = std::fs::remove_dir_all(&dir);
    let seed = world.graph.clone();
    let durable = DurableStore::open(
        &dir,
        DurabilityConfig {
            snapshot_interval: 256,
            store: StoreConfig::default(),
        },
        move || seed,
    )
    .expect("open a fresh durable store");
    let (span, _) = spans.open("store_pass", None);
    let (mut plain, mut durable_us) = (Vec::new(), Vec::new());
    for batch in &plan.stream {
        let t = Instant::now();
        store.commit(batch).expect("the stream is valid");
        plain.push(t.elapsed().as_secs_f64() * 1e6);
        spans.record("store.commit", t, Some(span));
        let t = Instant::now();
        durable.commit(batch).expect("the stream is valid");
        durable_us.push(t.elapsed().as_secs_f64() * 1e6);
        spans.record("durable.commit", t, Some(span));
    }
    spans.close(span);
    let bytes = durable.stats().wal_bytes as f64 / plan.stream.len().max(1) as f64;
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
    StorePass {
        store_us: median(&plain),
        durable_us: median(&durable_us),
        wal_bytes_per_commit: bytes,
    }
}
