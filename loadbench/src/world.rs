//! The benchmark's inputs: one fixed synthetic collaboration network, the
//! explainer configuration, the three registered models, and the seeded
//! request sets and update streams every workload draws from.

use crate::trace::{Slot, TracedFormer, TracedRanker};
use exes_core::{ExesConfig, ExesService, ModelSpec, OutputMode, SeedPolicy};
use exes_datasets::{
    DatasetConfig, QueryWorkload, SyntheticDataset, UpdateStream, UpdateStreamConfig,
};
use exes_embedding::{EmbeddingConfig, SkillEmbedding};
use exes_expert_search::{ExpertRanker, PropagationRanker, RankedList, TfIdfRanker};
use exes_graph::{CollabGraph, PersonId, Query, UpdateBatch, UpdateOp};
use exes_linkpred::LinkPredictor;
use exes_team::GreedyCoverTeamFormer;
use std::collections::HashSet;

/// People in the synthetic network. Small enough that the costliest cold
/// kind (a propagation skill factual) stays well under a second.
pub const PEOPLE: usize = 150;
/// The dataset seed. The network is the same for every `--seed`: the seed
/// picks queries, subjects and update streams, so runs with different seeds
/// measure the same system on different questions.
pub const DATASET_SEED: u64 = 0x60073;
/// Top-k cutoff of both expert models; experts are ranks `1..=K`,
/// non-experts ranks `K+1..=2K`.
pub const K: usize = 10;

/// The registered model names, in slot order.
pub const MODELS: [&str; 3] = ["tfidf", "propagation", "team"];

/// Every explanation kind, by wire tag.
pub const KINDS: [&str; 6] = [
    "counterfactual_skills",
    "counterfactual_query",
    "counterfactual_links",
    "factual_skills",
    "factual_query_terms",
    "factual_collaborations",
];

/// The fixed network plus the trained skill embedding.
pub struct World {
    pub graph: CollabGraph,
    pub embedding: SkillEmbedding,
}

impl World {
    /// Generates the fixed network (the set-up's "dataset" step).
    pub fn dataset() -> SyntheticDataset {
        let base = DatasetConfig::github_sim();
        let factor = PEOPLE as f64 / base.num_people as f64;
        SyntheticDataset::generate(&base.scaled(factor).with_seed(DATASET_SEED))
    }

    /// Trains the skill embedding the candidate generators use (the set-up's
    /// "models" step).
    pub fn train(ds: SyntheticDataset) -> World {
        let embedding = SkillEmbedding::train(
            ds.corpus.token_bags(),
            ds.graph.vocab().len(),
            &EmbeddingConfig {
                dim: 16,
                ..Default::default()
            },
        );
        World {
            graph: ds.graph,
            embedding,
        }
    }
}

/// The explainer configuration every worker runs (the serving binary's
/// defaults at `--k 10`).
pub fn exes_config() -> ExesConfig {
    ExesConfig::fast()
        .with_k(K)
        .with_output_mode(OutputMode::SmoothRank)
}

/// Registers the three models on `service`. With `traced`, each black box
/// is wrapped in a forwarding wrapper that times it; names and parameter
/// hashes pass through, so cache keys and answers are unchanged.
pub fn register_models<L>(service: &mut ExesService<L>, traced: bool)
where
    L: LinkPredictor + Clone + Sync,
{
    let specs = if traced {
        [
            ModelSpec::expert_ranker(TracedRanker::new(TfIdfRanker::default(), Slot::TfIdf), K),
            ModelSpec::expert_ranker(
                TracedRanker::new(PropagationRanker::default(), Slot::Propagation),
                K,
            ),
            ModelSpec::team_former(
                TracedFormer::new(GreedyCoverTeamFormer::new(TfIdfRanker::default())),
                TracedRanker::signal(TfIdfRanker::default(), Slot::Team),
                SeedPolicy::Unseeded,
            ),
        ]
    } else {
        [
            ModelSpec::expert_ranker(TfIdfRanker::default(), K),
            ModelSpec::expert_ranker(PropagationRanker::default(), K),
            ModelSpec::team_former(
                GreedyCoverTeamFormer::new(TfIdfRanker::default()),
                TfIdfRanker::default(),
                SeedPolicy::Unseeded,
            ),
        ]
    };
    for (name, spec) in MODELS.into_iter().zip(specs) {
        service
            .register(name, spec)
            .expect("the three benchmark models are valid specs");
    }
}

/// One explanation request as the benchmark knows it: enough to encode it on
/// the wire and to re-decide it independently.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Req {
    pub model: usize,
    pub subject: PersonId,
    pub query: Query,
    pub kind: usize,
}

impl Req {
    pub fn is_factual(&self) -> bool {
        self.kind >= 3
    }

    /// The request's JSON object inside an explain body.
    pub fn json(&self, graph: &CollabGraph) -> String {
        let terms: Vec<String> = self
            .query
            .skills()
            .iter()
            .map(|&s| {
                exes_server::json::escape(graph.vocab().name(s).expect("query skills are known"))
            })
            .collect();
        format!(
            "{{\"model\":\"{}\",\"subject\":{},\"query\":[{}],\"kind\":\"{}\"}}",
            MODELS[self.model],
            self.subject.0,
            terms.join(","),
            KINDS[self.kind]
        )
    }
}

/// One `POST /explain` body: the requests it carries, in order.
#[derive(Debug, Clone)]
pub struct Body {
    pub reqs: Vec<Req>,
    pub text: String,
}

impl Body {
    pub fn new(reqs: Vec<Req>, graph: &CollabGraph) -> Body {
        let parts: Vec<String> = reqs.iter().map(|r| r.json(graph)).collect();
        let text = format!("{{\"requests\":[{}]}}", parts.join(","));
        Body { reqs, text }
    }
}

/// The full ranking of `query` under the ranker behind model `model` (the
/// team former's subjects are classed by its TF-IDF signal ranker).
pub fn ranking(graph: &CollabGraph, model: usize, query: &Query) -> RankedList {
    match model {
        1 => PropagationRanker::default().rank_all(graph, query),
        _ => TfIdfRanker::default().rank_all(graph, query),
    }
}

/// A small deterministic generator (splitmix64) for the benchmark's own
/// choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `count` distinct answerable 2–3 term queries, drawn from `seed`.
pub fn distinct_queries(graph: &CollabGraph, count: usize, seed: u64) -> Vec<Query> {
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    let mut attempt = 0u64;
    while out.len() < count {
        let pool = QueryWorkload::answerable(graph, count * 2, 2, 3, 3, seed.wrapping_add(attempt));
        for q in pool.queries() {
            if out.len() < count && seen.insert(q.clone()) {
                out.push(q.clone());
            }
        }
        attempt += 1;
        assert!(
            attempt < 64,
            "the network cannot supply {count} distinct queries"
        );
    }
    out
}

/// One stratified cold round over fresh queries: for each model, one query
/// of its own; for each of the six kinds, one expert (rank `1..=K`) and one
/// non-expert (rank `K+1..=2K`), every subject distinct within the query. So
/// a round holds 36 requests and no (query, subject) pair repeats. `rng`
/// picks the subjects, `order` the order of the round's requests.
pub fn cold_round(
    graph: &CollabGraph,
    queries: &[Query],
    rng: &mut Rng,
    order: &mut Rng,
) -> Vec<Req> {
    let mut round = Vec::with_capacity(36);
    for (model, query) in queries.iter().enumerate() {
        let ranked = ranking(graph, model, query);
        let mut experts: Vec<PersonId> = ranked.entries()[..K].iter().map(|e| e.0).collect();
        let mut others: Vec<PersonId> = ranked.entries()[K..2 * K].iter().map(|e| e.0).collect();
        rng.shuffle(&mut experts);
        rng.shuffle(&mut others);
        for kind in 0..KINDS.len() {
            for subject in [experts[kind], others[kind]] {
                round.push(Req {
                    model,
                    subject,
                    query: query.clone(),
                    kind,
                });
            }
        }
    }
    order.shuffle(&mut round);
    round
}

/// The `UpdateStream` batch as a `POST /commit` body.
pub fn commit_body(batch: &UpdateBatch) -> String {
    use exes_server::json::escape;
    let ops: Vec<String> = batch
        .ops()
        .iter()
        .map(|op| match op {
            UpdateOp::AddPerson { name, skills } => {
                let skills: Vec<String> = skills.iter().map(|s| escape(s)).collect();
                format!(
                    "{{\"op\":\"add_person\",\"name\":{},\"skills\":[{}]}}",
                    escape(name),
                    skills.join(",")
                )
            }
            UpdateOp::AddSkill { person, skill } => format!(
                "{{\"op\":\"add_skill\",\"person\":{},\"skill\":{}}}",
                person.0,
                escape(skill)
            ),
            UpdateOp::RemoveSkill { person, skill } => format!(
                "{{\"op\":\"remove_skill\",\"person\":{},\"skill\":{}}}",
                person.0,
                escape(skill)
            ),
            UpdateOp::AddCollaboration { a, b } => format!(
                "{{\"op\":\"add_collaboration\",\"a\":{},\"b\":{}}}",
                a.0, b.0
            ),
            UpdateOp::RemoveCollaboration { a, b } => format!(
                "{{\"op\":\"remove_collaboration\",\"a\":{},\"b\":{}}}",
                a.0, b.0
            ),
        })
        .collect();
    format!("{{\"ops\":[{}]}}", ops.join(","))
}

/// A seeded churn stream of `batches` batches of `batch_size` ops.
pub fn update_stream(
    graph: &CollabGraph,
    batches: usize,
    batch_size: usize,
    seed: u64,
) -> Vec<UpdateBatch> {
    UpdateStream::generate(graph, &UpdateStreamConfig::churn(batches, batch_size, seed))
        .into_batches()
}
