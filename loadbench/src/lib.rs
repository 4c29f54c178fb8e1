//! A closed-loop benchmark of an ExES deployment — `exes-router` in front of
//! two durable `exes-server` workers — with independent output checks and a
//! traced per-layer mode. See the README next to this crate's manifest.

pub mod checks;
pub mod deploy;
pub mod run;
pub mod stats;
pub mod trace;
pub mod world;
