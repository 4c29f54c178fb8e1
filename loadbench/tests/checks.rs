//! Each output checker accepts the engine's real answers and rejects a
//! corrupted one.

use exes_core::{ExesService, ExplanationRequest};
use exes_linkpred::CommonNeighbors;
use exes_loadbench::checks;
use exes_loadbench::world::{self, Req, World, K, KINDS, MODELS};
use exes_server::json::{self, Json};
use exes_server::wire;
use std::sync::Arc;

/// Answers `reqs` in-process and returns each slot as wire JSON.
fn answers(world: &World, reqs: &[Req]) -> Vec<Json> {
    let exes = exes_core::Exes::new(
        world::exes_config(),
        world.embedding.clone(),
        CommonNeighbors,
    );
    let mut service = ExesService::from_graph(&exes, world.graph.clone());
    world::register_models(&mut service, false);
    let requests: Vec<ExplanationRequest> = reqs
        .iter()
        .map(|r| {
            ExplanationRequest::new(
                service.model_id(MODELS[r.model]).unwrap(),
                r.subject,
                Arc::new(r.query.clone()),
                wire::parse_kind(KINDS[r.kind]).unwrap(),
            )
        })
        .collect();
    let (results, _) = service.try_explain_batch(&requests);
    let text = wire::results_json(&results, &world.graph);
    json::parse(&text).unwrap().as_array().unwrap().to_vec()
}

fn world() -> World {
    World::train(World::dataset())
}

/// A TF-IDF request about the top-ranked expert of a bank query.
fn request(world: &World, kind: usize) -> Req {
    let query = world::distinct_queries(&world.graph, 1, 11).remove(0);
    let subject = world::ranking(&world.graph, 0, &query).entries()[0].0;
    Req {
        model: 0,
        subject,
        query,
        kind,
    }
}

/// Replaces the value under `key` (first match, depth-first) in `doc`.
fn set(doc: &mut Json, key: &str, value: Json) -> bool {
    match doc {
        Json::Obj(fields) => {
            for (k, v) in fields.iter_mut() {
                if k == key {
                    *v = value;
                    return true;
                }
                if set(v, key, value.clone()) {
                    return true;
                }
            }
            false
        }
        Json::Arr(items) => items.iter_mut().any(|v| set(v, key, value.clone())),
        _ => false,
    }
}

#[test]
fn real_answers_of_every_kind_pass() {
    let world = world();
    let reqs: Vec<Req> = (0..KINDS.len()).map(|kind| request(&world, kind)).collect();
    for (req, entry) in reqs.iter().zip(answers(&world, &reqs)) {
        let max = world::exes_config().max_explanation_size;
        checks::check_answer(&world.graph, req, &entry, max)
            .unwrap_or_else(|e| panic!("{}: {e}", KINDS[req.kind]));
    }
}

#[test]
fn a_counterfactual_that_does_not_flip_is_rejected() {
    let world = world();
    let req = request(&world, 0);
    let mut entry = answers(&world, std::slice::from_ref(&req)).remove(0);
    let max = world::exes_config().max_explanation_size;
    let sizes = checks::check_counterfactual(&world.graph, &req, &entry, max).unwrap();
    assert!(!sizes.is_empty(), "the expert has a skill counterfactual");
    // Re-adding a skill the subject already holds changes nothing.
    let held = world.graph.base_skills(req.subject)[0];
    let name = world.graph.vocab().name(held).unwrap().to_string();
    let no_op = Json::Arr(vec![Json::Obj(vec![
        ("op".to_string(), Json::Str("add_skill".to_string())),
        ("person".to_string(), Json::Num(req.subject.0 as f64)),
        ("skill".to_string(), Json::Str(name)),
    ])]);
    assert!(set(&mut entry, "perturbations", no_op));
    let err = checks::check_counterfactual(&world.graph, &req, &entry, max).unwrap_err();
    assert!(err.contains("does not flip"), "{err}");
}

#[test]
fn an_oversized_counterfactual_is_rejected() {
    let world = world();
    let req = request(&world, 0);
    let entry = answers(&world, std::slice::from_ref(&req)).remove(0);
    let sizes = checks::check_counterfactual(&world.graph, &req, &entry, 3).unwrap();
    let largest = *sizes.iter().max().unwrap();
    assert!(checks::check_counterfactual(&world.graph, &req, &entry, largest - 1).is_err());
}

#[test]
fn shap_values_off_efficiency_are_rejected() {
    let world = world();
    let req = request(&world, 4);
    let mut entry = answers(&world, std::slice::from_ref(&req)).remove(0);
    checks::check_factual(&world.graph, &req, &entry).unwrap();
    let shap = entry
        .get("factual")
        .unwrap()
        .get("shap")
        .unwrap()
        .as_array()
        .unwrap()
        .to_vec();
    let mut off = shap.clone();
    off[0] = Json::Num(off[0].as_f64().unwrap() + 10.0 * checks::SHAP_TOLERANCE);
    assert!(set(&mut entry, "shap", Json::Arr(off)));
    let err = checks::check_factual(&world.graph, &req, &entry).unwrap_err();
    assert!(err.contains("SHAP values sum"), "{err}");
}

#[test]
fn a_budgeted_or_timed_out_answer_is_a_failure() {
    let world = world();
    let req = request(&world, 1);
    let entry = answers(&world, std::slice::from_ref(&req)).remove(0);
    let mut timed_out = entry.clone();
    assert!(set(&mut timed_out, "timed_out", Json::Bool(true)));
    assert!(checks::check_complete(&timed_out).is_err());
    let mut budgeted = entry;
    let cut = json::parse("{\"spent\":5,\"budget\":5}").unwrap();
    assert!(set(&mut budgeted, "completeness", cut));
    assert!(checks::check_complete(&budgeted).is_err());
}

#[test]
fn a_warm_answer_must_match_its_setup_answer_except_counters() {
    let world = world();
    let reqs = [request(&world, 0), request(&world, 3)];
    for entry in answers(&world, &reqs) {
        let mut recounted = entry.clone();
        assert!(set(&mut recounted, "probes", Json::Num(0.0)));
        assert!(set(&mut recounted, "full_rescores", Json::Num(7.0)));
        checks::check_warm(&entry, &recounted).unwrap();

        let mut changed = entry.clone();
        let key = if entry.get("factual").is_some() {
            "base_value"
        } else {
            "new_signal"
        };
        assert!(set(&mut changed, key, Json::Num(K as f64 * 1000.0)));
        assert!(checks::check_warm(&entry, &changed).is_err());
    }
}

#[test]
fn a_fingerprint_mismatch_is_rejected() {
    assert!(checks::check_fingerprints(7, &[7, 7]).is_ok());
    let err = checks::check_fingerprints(7, &[7, 8]).unwrap_err();
    assert!(err.contains("worker 1"), "{err}");
}
