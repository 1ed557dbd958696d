//! # grip-service — the sharded scheduling service
//!
//! The scheduler as a long-lived engine rather than a one-shot compiler
//! pass: clients submit [`ScheduleRequest`]s (kernel × machine × unwind ×
//! options) and get back [`ScheduleResponse`]s carrying the full verified
//! measurement — schedule length, model cycles, stalls (always zero, by
//! the stall-free invariant), scheduler counters, VM state digest, cache
//! status, and wall time.
//!
//! Three layers:
//!
//! * **Library** — [`Service::submit`] / [`Service::submit_batch`] on a
//!   [`pool::ShardedPool`] of worker threads, sharded by content
//!   fingerprint of (kernel, trip count, machine) so each shard's caches
//!   stay hot for its slice of the request space.
//! * **Caches** — per shard, two levels, both content-addressed: a DDG
//!   cache keyed by `(kernel hash, unwind, fold)` holding the
//!   machine-independent prepared window, and a schedule cache keyed by
//!   `(kernel hash, machine fingerprint, unwind, options)` holding whole
//!   responses. Invariant: a cache hit is **bit-identical** to a cold
//!   run, VM-verified both ways.
//! * **Protocol** — JSON lines over stdin/stdout or TCP
//!   ([`proto::serve_lines`] / [`proto::serve_tcp`]), spoken by the
//!   `grip-serve` server and `grip-client` load-driver binaries, built on
//!   [`grip_json`] (no crates.io dependencies).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
mod engine;
pub mod fingerprint;
pub mod pool;
pub mod proto;
mod service;
mod types;
pub mod workload;

pub use engine::{default_unwind, state_digest, CacheCounters, Engine, EngineConfig};
pub use fingerprint::graph_fingerprint;
pub use pool::{JobMeta, ShardedPool};
pub use service::{Service, ServiceConfig, ServiceStats};
pub use types::{
    bound_sound, inline_machine, CacheStatus, EngineOptions, MachineSpec, ScheduleRequest,
    ScheduleResponse,
};
