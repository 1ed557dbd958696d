//! Hierarchical spans on a thread-local stack, with per-request stage
//! collection.
//!
//! A span is opened with [`enter`] (or the [`crate::span!`] macro) and
//! closed by dropping the returned [`SpanGuard`] — including during a
//! panic unwind, so the stack never skews. On close a span records its
//! **self time** (wall elapsed minus the elapsed time of its child
//! spans):
//!
//! * into the thread's active [`StageTimings`] collector, if a
//!   [`collect`] scope is running (this is how the service engine gets a
//!   per-request `prepare`/`schedule`/`hazards`/`verify` breakdown
//!   without threading a context through every pipeline signature), and
//! * into the process-wide registry histogram
//!   `grip_stage_self_ns_<name>`, so long-running servers expose stage
//!   latency distributions over their whole lifetime.
//!
//! Self-time attribution is what makes stage sums meaningful: nested
//! spans (`schedule` → `grip` → `hazards`) decompose an interval into
//! disjoint pieces, so summing every stage of a request can be compared
//! against its wall time — the "no unaccounted time" bench gate.

use grip_json::Json;
use std::cell::RefCell;
use std::time::Instant;

struct Frame {
    name: &'static str,
    start: Instant,
    /// Total wall nanoseconds spent in already-closed direct children.
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static COLLECTOR: RefCell<Option<StageTimings>> = const { RefCell::new(None) };
}

/// Per-stage self-time sums collected over one [`collect`] scope,
/// in first-seen order (repeated spans of the same name accumulate).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// `(stage name, self nanoseconds)` per distinct span name.
    pub stages: Vec<(&'static str, u64)>,
    /// Wall nanoseconds of the whole collect scope.
    pub total_ns: u64,
}

impl StageTimings {
    /// Self nanoseconds recorded under `name` (0 if the stage never ran).
    pub fn get(&self, name: &str) -> u64 {
        self.stages.iter().find(|(n, _)| *n == name).map_or(0, |&(_, ns)| ns)
    }

    /// Sum of every recorded stage.
    pub fn stage_sum_ns(&self) -> u64 {
        self.stages.iter().map(|&(_, ns)| ns).sum()
    }

    fn add(&mut self, name: &'static str, ns: u64) {
        match self.stages.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += ns,
            None => self.stages.push((name, ns)),
        }
    }
}

/// The fixed wire shape of a request's stage breakdown: the six stages
/// the protocol, the flight recorder and the machines sweep report, in
/// nanoseconds. `build` (kernel construction + hashing) is folded into
/// `prepare`; `grip` (the scheduler proper) into `schedule`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    /// Kernel build + unwind + induction folding + DDG construction.
    pub prepare_ns: u64,
    /// GRiP scheduling, pattern detection, re-rolling.
    pub schedule_ns: u64,
    /// The hazard-resolution post-pass (delay rows, backfill, reclaim).
    pub hazards_ns: u64,
    /// Model runs of both programs, bitwise comparison, state digest.
    pub verify_ns: u64,
    /// The static audit of the scheduled window (`grip-audit`), when run.
    pub audit_ns: u64,
    /// The optimality-bound certificate (`grip-bounds`), when computed.
    pub bounds_ns: u64,
    /// Wall nanoseconds of the whole measured scope.
    pub total_ns: u64,
}

impl StageBreakdown {
    /// Fold raw stage timings into the wire shape.
    pub fn from_timings(t: &StageTimings) -> StageBreakdown {
        StageBreakdown {
            prepare_ns: t.get("prepare") + t.get("build"),
            schedule_ns: t.get("schedule") + t.get("grip"),
            hazards_ns: t.get("hazards"),
            verify_ns: t.get("verify"),
            audit_ns: t.get("audit"),
            bounds_ns: t.get("bounds"),
            total_ns: t.total_ns,
        }
    }

    /// Sum of the six stages (everything but `total_ns`).
    pub fn stage_sum_ns(&self) -> u64 {
        self.prepare_ns
            + self.schedule_ns
            + self.hazards_ns
            + self.verify_ns
            + self.audit_ns
            + self.bounds_ns
    }

    /// The stage-coverage rule: the stages account for at least
    /// [`MIN_COVERAGE`] of a wall of 1 ms or more. More unaccounted time
    /// means a stage span is missing; below 1 ms timer noise dominates,
    /// so shorter walls always pass.
    pub fn covers_wall(&self) -> bool {
        self.total_ns < 1_000_000
            || self.stage_sum_ns() as f64 >= MIN_COVERAGE * self.total_ns as f64
    }

    /// The wire object: the seven fields, in nanoseconds.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("prepare_ns", self.prepare_ns)
            .field("schedule_ns", self.schedule_ns)
            .field("hazards_ns", self.hazards_ns)
            .field("verify_ns", self.verify_ns)
            .field("audit_ns", self.audit_ns)
            .field("bounds_ns", self.bounds_ns)
            .field("total_ns", self.total_ns)
    }

    /// Parse the [`StageBreakdown::to_json`] shape (missing or negative
    /// fields read as 0).
    pub fn from_json(j: &Json) -> StageBreakdown {
        let ns = |name: &str| j.get(name).and_then(Json::as_i64).unwrap_or(0).max(0) as u64;
        StageBreakdown {
            prepare_ns: ns("prepare_ns"),
            schedule_ns: ns("schedule_ns"),
            hazards_ns: ns("hazards_ns"),
            verify_ns: ns("verify_ns"),
            audit_ns: ns("audit_ns"),
            bounds_ns: ns("bounds_ns"),
            total_ns: ns("total_ns"),
        }
    }
}

/// The least share of a measured wall its stage self times must account
/// for ([`StageBreakdown::covers_wall`]).
pub const MIN_COVERAGE: f64 = 0.95;

/// RAII guard for one span; closing records self time (see module docs).
#[must_use = "a span ends when its guard drops"]
pub struct SpanGuard {
    name: &'static str,
    /// Stack depth this guard expects to pop back to (guards against a
    /// leaked/forgotten inner guard leaving the stack skewed).
    depth: usize,
}

/// Open a span named `name` on this thread's span stack.
pub fn enter(name: &'static str) -> SpanGuard {
    let depth = STACK.with(|s| {
        let mut s = s.borrow_mut();
        s.push(Frame { name, start: Instant::now(), child_ns: 0 });
        s.len() - 1
    });
    SpanGuard { name, depth }
}

/// The current span path, root-first (`["schedule", "grip"]`); empty
/// outside any span. For diagnostics — stage attribution uses leaf names.
pub fn current_path() -> Vec<&'static str> {
    STACK.with(|s| s.borrow().iter().map(|f| f.name).collect())
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let recorded = STACK.with(|s| {
            let mut s = s.borrow_mut();
            // A forgotten inner guard (mem::forget) leaves orphan frames
            // above ours; discard them rather than mis-attributing time.
            s.truncate(self.depth + 1);
            let frame = s.pop()?;
            debug_assert_eq!(frame.name, self.name, "span stack skewed");
            let elapsed = frame.start.elapsed().as_nanos() as u64;
            if let Some(parent) = s.last_mut() {
                parent.child_ns += elapsed;
            }
            Some((frame.name, elapsed.saturating_sub(frame.child_ns)))
        });
        let Some((name, self_ns)) = recorded else { return };
        COLLECTOR.with(|c| {
            if let Some(t) = c.borrow_mut().as_mut() {
                t.add(name, self_ns);
            }
        });
        crate::metrics::global().histogram(&format!("grip_stage_self_ns_{name}")).record(self_ns);
    }
}

/// Run `f` with a fresh stage collector installed on this thread and
/// return its result plus the accumulated [`StageTimings`]. Nested
/// collects stack: the inner scope's stages are invisible to the outer
/// collector (but the inner scope's *spans* still roll up into any open
/// outer span's elapsed time).
pub fn collect<T>(f: impl FnOnce() -> T) -> (T, StageTimings) {
    let prev = COLLECTOR.with(|c| c.borrow_mut().replace(StageTimings::default()));
    let t0 = Instant::now();
    // Restore the outer collector even if `f` panics, so a caught panic
    // (e.g. a shard worker surviving a bad request) cannot leak a stale
    // collector into the next request.
    struct Restore(Option<StageTimings>);
    impl Drop for Restore {
        fn drop(&mut self) {
            COLLECTOR.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let mut restore = Restore(prev);
    let out = f();
    let mut timings = COLLECTOR
        .with(|c| std::mem::replace(&mut *c.borrow_mut(), restore.0.take()))
        .unwrap_or_default();
    std::mem::forget(restore);
    timings.total_ns = t0.elapsed().as_nanos() as u64;
    (out, timings)
}
