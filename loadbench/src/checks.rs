//! Output checks that never consult the engine: every answer is re-decided
//! from scratch with the models' full paths (`rank_all`, `form_team`) on a
//! materialised copy of the perturbed graph and query.

use crate::world::{Req, K};
use exes_expert_search::{ExpertRanker, PropagationRanker, TfIdfRanker};
use exes_graph::{CollabGraph, PersonId, Perturbation, PerturbationSet, Query, SkillId};
use exes_server::json::Json;
use exes_team::{GreedyCoverTeamFormer, TeamFormer};

/// Absolute slack allowed between the SHAP values' sum and the directly
/// computed output difference (the estimators are exact in this respect;
/// the slack only absorbs floating-point summation order).
pub const SHAP_TOLERANCE: f64 = 1e-6;

/// Counters that are not explanation content: they record who paid for the
/// probes, so a warm replay legitimately differs from its cold answer there.
const COUNTER_KEYS: [&str; 5] = [
    "probes",
    "cache_hits",
    "cache_misses",
    "incremental_rescores",
    "full_rescores",
];

/// What one re-decision says: the decision, and the rank signal SHAP's
/// smooth output is computed from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    pub positive: bool,
    pub signal: f64,
}

/// Re-decides `subject` on (graph, query) under model `model` with the full
/// path of the model. Team membership comes from the former; its signal is
/// the TF-IDF rank, as for the registered team model.
pub fn decide(graph: &CollabGraph, query: &Query, model: usize, subject: PersonId) -> Decision {
    let rank_under = |ranked: exes_expert_search::RankedList| {
        ranked
            .rank_of(subject)
            .expect("the subject is part of the ranked graph")
    };
    match model {
        0 | 1 => {
            let rank = if model == 0 {
                rank_under(TfIdfRanker::default().rank_all(graph, query))
            } else {
                rank_under(PropagationRanker::default().rank_all(graph, query))
            };
            Decision {
                positive: rank <= K,
                signal: rank as f64,
            }
        }
        _ => {
            let team =
                GreedyCoverTeamFormer::new(TfIdfRanker::default()).form_team(graph, query, None);
            Decision {
                positive: team.contains(subject),
                signal: rank_under(TfIdfRanker::default().rank_all(graph, query)) as f64,
            }
        }
    }
}

/// The explainer's smooth scalar output for a decision (`OutputMode::SmoothRank`
/// at cutoff `K`).
pub fn smooth_output(decision: Decision) -> f64 {
    let temperature = (K as f64 / 4.0).max(0.5);
    let margin = K as f64 + 0.5 - decision.signal;
    1.0 / (1.0 + (-margin / temperature).exp())
}

/// Why an answer was rejected.
pub type CheckResult = Result<(), String>;

fn field<'a>(value: &'a Json, name: &str) -> Result<&'a Json, String> {
    value
        .get(name)
        .ok_or_else(|| format!("answer has no \"{name}\""))
}

fn skill(graph: &CollabGraph, value: &Json) -> Result<SkillId, String> {
    let name = field(value, "skill")?
        .as_str()
        .ok_or("skill is not a string")?;
    graph
        .vocab()
        .id(name)
        .ok_or_else(|| format!("unknown skill '{name}'"))
}

fn person(value: &Json, name: &str) -> Result<PersonId, String> {
    field(value, name)?
        .as_u64()
        .map(|p| PersonId(p as u32))
        .ok_or_else(|| format!("\"{name}\" is not a person id"))
}

/// Decodes one wire perturbation.
pub fn perturbation(graph: &CollabGraph, value: &Json) -> Result<Perturbation, String> {
    let op = field(value, "op")?.as_str().ok_or("op is not a string")?;
    Ok(match op {
        "add_skill" => Perturbation::AddSkill {
            person: person(value, "person")?,
            skill: skill(graph, value)?,
        },
        "remove_skill" => Perturbation::RemoveSkill {
            person: person(value, "person")?,
            skill: skill(graph, value)?,
        },
        "add_collaboration" => Perturbation::AddEdge {
            a: person(value, "a")?,
            b: person(value, "b")?,
        },
        "remove_collaboration" => Perturbation::RemoveEdge {
            a: person(value, "a")?,
            b: person(value, "b")?,
        },
        "add_query_term" => Perturbation::AddQueryTerm {
            skill: skill(graph, value)?,
        },
        "remove_query_term" => Perturbation::RemoveQueryTerm {
            skill: skill(graph, value)?,
        },
        other => return Err(format!("unknown perturbation op '{other}'")),
    })
}

/// Decodes one wire feature as the perturbation that removes it.
pub fn feature_removal(graph: &CollabGraph, value: &Json) -> Result<Perturbation, String> {
    let kind = field(value, "type")?
        .as_str()
        .ok_or("feature type is not a string")?;
    Ok(match kind {
        "query_term" => Perturbation::RemoveQueryTerm {
            skill: skill(graph, value)?,
        },
        "skill" => Perturbation::RemoveSkill {
            person: person(value, "person")?,
            skill: skill(graph, value)?,
        },
        "collaboration" => Perturbation::RemoveEdge {
            a: person(value, "a")?,
            b: person(value, "b")?,
        },
        other => return Err(format!("unknown feature type '{other}'")),
    })
}

/// An answer slot that is an error, a timed-out search or a budget-cut
/// result is a failed operation, whatever else it holds.
pub fn check_complete(entry: &Json) -> CheckResult {
    if let Some(error) = entry.get("error") {
        return Err(format!("error slot: {error:?}"));
    }
    let inner = entry
        .get("counterfactual")
        .or_else(|| entry.get("factual"))
        .ok_or("slot is neither a counterfactual nor a factual answer")?;
    if inner.get("timed_out").and_then(Json::as_bool) == Some(true) {
        return Err("timed_out".to_string());
    }
    match inner.get("completeness") {
        Some(Json::Str(s)) if s == "exhaustive" => Ok(()),
        other => Err(format!("not exhaustive: {other:?}")),
    }
}

/// A counterfactual answer: every explanation must flip the decision on a
/// materialised copy of the perturbed graph and query, and stay within the
/// configured size. Returns the explanations' sizes.
pub fn check_counterfactual(
    graph: &CollabGraph,
    req: &Req,
    entry: &Json,
    max_size: usize,
) -> Result<Vec<usize>, String> {
    check_complete(entry)?;
    let answer = field(entry, "counterfactual")?;
    let explanations = field(answer, "explanations")?
        .as_array()
        .ok_or("explanations is not an array")?;
    let before = decide(graph, &req.query, req.model, req.subject).positive;
    let mut sizes = Vec::with_capacity(explanations.len());
    for (i, e) in explanations.iter().enumerate() {
        let list = field(e, "perturbations")?
            .as_array()
            .ok_or("perturbations is not an array")?;
        let mut delta = PerturbationSet::new();
        for p in list {
            delta.push(perturbation(graph, p)?);
        }
        if delta.is_empty() || delta.len() > max_size {
            return Err(format!(
                "explanation {i} has size {} (allowed 1..={max_size})",
                delta.len()
            ));
        }
        let perturbed = delta.materialize(graph);
        let query = delta.apply_to_query(&req.query);
        let after = decide(&perturbed, &query, req.model, req.subject).positive;
        if after == before {
            return Err(format!(
                "explanation {i} does not flip the decision (stays {before})"
            ));
        }
        sizes.push(delta.len());
    }
    Ok(sizes)
}

/// A factual answer: the SHAP values must sum to the model's output with
/// every scored feature present minus its output with all of them removed,
/// both computed directly.
pub fn check_factual(graph: &CollabGraph, req: &Req, entry: &Json) -> CheckResult {
    check_complete(entry)?;
    let answer = field(entry, "factual")?;
    let features = field(answer, "features")?
        .as_array()
        .ok_or("features is not an array")?;
    let values = field(answer, "shap")?
        .as_array()
        .ok_or("shap is not an array")?;
    if features.len() != values.len() {
        return Err(format!(
            "{} features but {} SHAP values",
            features.len(),
            values.len()
        ));
    }
    let mut removed = PerturbationSet::new();
    for f in features {
        removed.push(feature_removal(graph, f)?);
    }
    let mut total = 0.0;
    for v in values {
        total += v.as_f64().ok_or("a SHAP value is not a number")?;
    }
    let full = smooth_output(decide(graph, &req.query, req.model, req.subject));
    let empty = smooth_output(decide(
        &removed.materialize(graph),
        &removed.apply_to_query(&req.query),
        req.model,
        req.subject,
    ));
    let gap = total - (full - empty);
    if gap.abs() > SHAP_TOLERANCE {
        return Err(format!(
            "SHAP values sum to {total} but f(all) - f(none) = {full} - {empty} (gap {gap:e})"
        ));
    }
    Ok(())
}

/// Checks one answer slot against its request; returns the counterfactual
/// sizes (empty for factual answers).
pub fn check_answer(
    graph: &CollabGraph,
    req: &Req,
    entry: &Json,
    max_size: usize,
) -> Result<Vec<usize>, String> {
    if req.is_factual() {
        check_factual(graph, req, entry).map(|()| Vec::new())
    } else {
        check_counterfactual(graph, req, entry, max_size)
    }
}

/// The explanation content of an answer slot: everything but the probe
/// counters.
pub fn content(entry: &Json) -> Json {
    match entry {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| !COUNTER_KEYS.contains(&k.as_str()))
                .map(|(k, v)| (k.clone(), content(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// A warm answer must carry the same explanation content as the set-up
/// answer to the same request.
pub fn check_warm(setup: &Json, warm: &Json) -> CheckResult {
    if content(setup) == content(warm) {
        Ok(())
    } else {
        Err("warm answer differs from its set-up answer".to_string())
    }
}

/// Every worker must end on the fingerprint of a store that committed the
/// same stream in-process.
pub fn check_fingerprints(expected: u64, workers: &[u64]) -> CheckResult {
    match workers.iter().position(|&f| f != expected) {
        None => Ok(()),
        Some(i) => Err(format!(
            "worker {i} ends on fingerprint {:x}, the in-process store on {expected:x}",
            workers[i]
        )),
    }
}
