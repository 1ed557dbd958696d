//! The flight recorder: a bounded ring-buffer journal of structured
//! per-request records, written once per request completion, plus a
//! second ring that retains *slow* requests (wall time over a
//! configurable threshold) with their full span tree and scheduler pass
//! counters for later dump.
//!
//! The write path is deliberately lock-cheap: one short `Mutex` critical
//! section per completed request (push + bounded pop on two `VecDeque`s
//! — no allocation beyond the record itself, no I/O, no formatting).
//! Readout ([`FlightRecorder::recent`] / [`FlightRecorder::slow`]) is
//! cold-path and clones records out, so the protocol's
//! `{"cmd":"events"}` handler never holds the lock while serializing.
//!
//! Timestamps are nanoseconds relative to the recorder's own monotonic
//! epoch (its construction instant), so `enqueue_ns < dequeue_ns <
//! finish_ns` orders events across shards without any wall-clock
//! ambiguity. Records round-trip through `grip-json` for the wire.
//!
//! Like everything in this crate, recording is observation-only: nothing
//! here feeds back into scheduling decisions, so schedules stay
//! bit-identical with the recorder enabled.

use crate::span::StageBreakdown;
use grip_json::Json;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default capacity of the main ring (most-recent completions).
pub const DEFAULT_CAPACITY: usize = 1024;
/// Default capacity of the slow-request ring.
pub const DEFAULT_SLOW_CAPACITY: usize = 64;

/// The retained detail of a slow request: the full span tree (every
/// distinct span name with its self time, `build`/`grip`/… included, not
/// just the six folded wire stages) and the scheduler's pass counters.
/// Name/value pairs keep this crate a leaf — it never sees the
/// scheduler's stats struct.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SlowCapture {
    /// `(span name, self nanoseconds)` for every span of the request.
    pub spans: Vec<(String, u64)>,
    /// `(counter name, value)` scheduler pass counters (iterations,
    /// moves, probes, sweeps, …).
    pub counters: Vec<(String, u64)>,
}

impl SlowCapture {
    /// JSON shape: `{"spans": {name: ns, …}, "counters": {name: v, …}}`.
    pub fn to_json(&self) -> Json {
        let fold = |pairs: &[(String, u64)]| {
            pairs.iter().fold(Json::obj(), |acc, (k, v)| acc.field(k, *v))
        };
        Json::obj().field("spans", fold(&self.spans)).field("counters", fold(&self.counters))
    }

    /// Parse the [`SlowCapture::to_json`] shape.
    pub fn from_json(j: &Json) -> SlowCapture {
        let unfold = |j: Option<&Json>| -> Vec<(String, u64)> {
            match j {
                Some(Json::Obj(fields)) => fields
                    .iter()
                    .map(|(k, v)| (k.clone(), v.as_i64().unwrap_or(0).max(0) as u64))
                    .collect(),
                _ => Vec::new(),
            }
        };
        SlowCapture { spans: unfold(j.get("spans")), counters: unfold(j.get("counters")) }
    }
}

/// One completed request, as journaled by the engine. Everything the
/// post-hoc questions need: who (trace id, kernel, machine, shard), when
/// (queue and stage timeline), what happened (cache outcome, audit and
/// bounds summary), and what came out (result digest). `slow` is only
/// populated when the request's wall time crossed the recorder's
/// threshold.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlightRecord {
    /// The request's trace id (client-provided or shard-assigned).
    pub trace_id: String,
    /// Kernel name (e.g. `LL5`).
    pub kernel: String,
    /// Machine preset name (e.g. `epic8`).
    pub machine: String,
    /// Shard that processed the request.
    pub shard: u64,
    /// Request completed without error.
    pub ok: bool,
    /// Schedule was VM-verified against sequential execution.
    pub verified: bool,
    /// Cache outcome as the protocol spells it (`cold` / `hit` /
    /// `ddg_hit`).
    pub cache: String,
    /// Submission time (recorder-epoch nanoseconds).
    pub enqueue_ns: u64,
    /// Time a shard worker picked the request up.
    pub dequeue_ns: u64,
    /// Completion time.
    pub finish_ns: u64,
    /// `dequeue - enqueue`: time spent waiting in the shard queue.
    pub queue_wait_ns: u64,
    /// Processing wall time (the engine's collect scope).
    pub wall_ns: u64,
    /// The six-stage wire breakdown of `wall_ns`.
    pub stages: StageBreakdown,
    /// Diagnostic count from the static audit (0 = clean; 0 when the
    /// audit did not run).
    pub audit_diagnostics: u64,
    /// The proven lower bound on steady-window cycles (0 when the
    /// certificate was not computed).
    pub bound_cycles: u64,
    /// The schedule achieved its proven bound exactly.
    pub at_bound: bool,
    /// FNV digest of the verifying VM's final state.
    pub result_digest: u64,
    /// Full span tree + pass counters, retained only for slow requests.
    pub slow: Option<SlowCapture>,
}

impl FlightRecord {
    /// JSON shape (digest as a 16-hex string, matching the protocol's
    /// digest fields; `slow` elided when absent).
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .field("trace", self.trace_id.as_str())
            .field("kernel", self.kernel.as_str())
            .field("machine", self.machine.as_str())
            .field("shard", self.shard)
            .field("ok", self.ok)
            .field("verified", self.verified)
            .field("cache", self.cache.as_str())
            .field("enqueue_ns", self.enqueue_ns)
            .field("dequeue_ns", self.dequeue_ns)
            .field("finish_ns", self.finish_ns)
            .field("queue_wait_ns", self.queue_wait_ns)
            .field("wall_ns", self.wall_ns)
            .field("stages", self.stages.to_json())
            .field("audit_diagnostics", self.audit_diagnostics)
            .field("bound_cycles", self.bound_cycles)
            .field("at_bound", self.at_bound)
            .field("digest", format!("{:016x}", self.result_digest));
        if let Some(slow) = &self.slow {
            j = j.field("slow", slow.to_json());
        }
        j
    }

    /// Parse the [`FlightRecord::to_json`] shape (missing fields default;
    /// used by `grip-client` to validate the `events` command round-trip).
    pub fn from_json(j: &Json) -> FlightRecord {
        let s = |name: &str| j.get(name).and_then(Json::as_str).unwrap_or("").to_string();
        let u = |name: &str| j.get(name).and_then(Json::as_i64).unwrap_or(0).max(0) as u64;
        let b = |name: &str| j.get(name).and_then(Json::as_bool).unwrap_or(false);
        FlightRecord {
            trace_id: s("trace"),
            kernel: s("kernel"),
            machine: s("machine"),
            shard: u("shard"),
            ok: b("ok"),
            verified: b("verified"),
            cache: s("cache"),
            enqueue_ns: u("enqueue_ns"),
            dequeue_ns: u("dequeue_ns"),
            finish_ns: u("finish_ns"),
            queue_wait_ns: u("queue_wait_ns"),
            wall_ns: u("wall_ns"),
            stages: j.get("stages").map_or(StageBreakdown::default(), StageBreakdown::from_json),
            audit_diagnostics: u("audit_diagnostics"),
            bound_cycles: u("bound_cycles"),
            at_bound: b("at_bound"),
            result_digest: j
                .get("digest")
                .and_then(Json::as_str)
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .unwrap_or(0),
            slow: j.get("slow").map(SlowCapture::from_json),
        }
    }
}

struct Rings {
    recent: VecDeque<FlightRecord>,
    slow: VecDeque<FlightRecord>,
    capacity: usize,
    slow_capacity: usize,
}

/// The journal itself: two bounded rings behind one mutex (see module
/// docs), a monotonic epoch for timestamping, and the slow threshold.
pub struct FlightRecorder {
    epoch: Instant,
    /// Wall-time threshold above which a request's [`SlowCapture`] is
    /// retained; `u64::MAX` disables slow capture.
    slow_threshold_ns: AtomicU64,
    recorded: AtomicU64,
    inner: Mutex<Rings>,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new(DEFAULT_CAPACITY, DEFAULT_SLOW_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder with the given ring capacities (both at least 1).
    pub fn new(capacity: usize, slow_capacity: usize) -> FlightRecorder {
        FlightRecorder {
            epoch: Instant::now(),
            slow_threshold_ns: AtomicU64::new(u64::MAX),
            recorded: AtomicU64::new(0),
            inner: Mutex::new(Rings {
                recent: VecDeque::with_capacity(capacity.max(1)),
                slow: VecDeque::new(),
                capacity: capacity.max(1),
                slow_capacity: slow_capacity.max(1),
            }),
        }
    }

    /// Nanoseconds since the recorder's epoch, for stamping a record
    /// field "now".
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Convert an [`Instant`] captured elsewhere (e.g. the pool's
    /// enqueue time) to recorder-epoch nanoseconds. Instants predating
    /// the epoch clamp to 0.
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// The current slow-capture threshold (`u64::MAX` = disabled).
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns.load(Ordering::Relaxed)
    }

    /// Set the slow-capture threshold. The engine consults this *before*
    /// building a record, so the (allocation-heavy) span tree is only
    /// assembled for requests that cross it.
    pub fn set_slow_threshold_ns(&self, ns: u64) {
        self.slow_threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// Journal one completed request. Records carrying a [`SlowCapture`]
    /// are additionally retained in the slow ring, which the main ring's
    /// wraparound cannot evict.
    pub fn record(&self, rec: FlightRecord) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut rings = self.inner.lock().expect("flight recorder poisoned");
        if rec.slow.is_some() {
            if rings.slow.len() == rings.slow_capacity {
                rings.slow.pop_front();
            }
            rings.slow.push_back(rec.clone());
        }
        if rings.recent.len() == rings.capacity {
            rings.recent.pop_front();
        }
        rings.recent.push_back(rec);
    }

    /// Total records ever journaled (including ones the rings evicted).
    pub fn total_recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// The last `n` records, most recent first.
    pub fn recent(&self, n: usize) -> Vec<FlightRecord> {
        let rings = self.inner.lock().expect("flight recorder poisoned");
        rings.recent.iter().rev().take(n).cloned().collect()
    }

    /// The last `n` slow-captured records, most recent first.
    pub fn slow(&self, n: usize) -> Vec<FlightRecord> {
        let rings = self.inner.lock().expect("flight recorder poisoned");
        rings.slow.iter().rev().take(n).cloned().collect()
    }
}

/// The process-wide recorder (default capacities), used by the service
/// engine and the protocol's `events` command.
pub fn global() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(FlightRecorder::default)
}
