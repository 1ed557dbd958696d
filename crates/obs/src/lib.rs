//! # grip-obs — observability for the scheduling stack
//!
//! The container is offline, so this crate is std-only (same constraint
//! as `grip-json`). It provides the three layers the rest of the
//! workspace instruments itself with:
//!
//! * **Spans** ([`mod@span`] / the [`span!`] macro): hierarchical scopes
//!   timed with the monotonic clock on a thread-local stack. A guard
//!   records its *self time* (elapsed minus time spent in child spans)
//!   on drop, so a set of nested stage spans always decomposes a wall
//!   interval into disjoint pieces — that is what lets the bench gates
//!   assert "per-stage times sum to wall time".
//! * **Metrics** ([`metrics`]): a process-wide registry of atomic
//!   counters, gauges, and log2-bucketed latency histograms. Handles are
//!   `Arc`-backed and cheap to clone; hot paths cache them in
//!   `OnceLock` statics via [`counter!`] / [`histogram!`].
//! * **Exposition**: a JSON snapshot (via `grip-json`, served by the
//!   protocol's `{"cmd":"metrics"}`) and a Prometheus-style text format
//!   (checked by [`metrics::prometheus_lint`] in CI).
//!
//! The hard rule: instrumentation must not perturb results. Nothing in
//! this crate feeds back into scheduling decisions — spans only read the
//! clock, metrics only bump atomics — so schedules stay bit-identical
//! with tracing on.
//!
//! Naming scheme (see the README's Observability section):
//! counters are `grip_<subsystem>_<what>_total`, gauges are
//! `grip_<what>`, and per-stage latency histograms are
//! `grip_stage_self_ns_<stage>` (self time, nanoseconds).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod events;
pub mod metrics;
pub mod span;
pub mod window;

pub use events::{FlightRecord, FlightRecorder, SlowCapture};
pub use metrics::{global, Counter, Gauge, Histogram, Registry, Snapshot};
pub use span::{collect, enter, SpanGuard, StageBreakdown, StageTimings};
pub use window::{WindowAggregator, WindowStats};

/// Open a named span scope: `let _g = span!("schedule");`. The span ends
/// (and records its self time) when the guard drops, including during
/// unwinding.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name)
    };
}

/// A process-wide counter handle, resolved once per call site:
/// `counter!("grip_hops_total").add(n)`. The two-argument form also
/// registers a `# HELP` description for the Prometheus exposition:
/// `counter!("grip_hops_total", "Committed scheduler hops.")`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<$crate::metrics::Counter> = std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::metrics::global().counter($name))
    }};
    ($name:expr, $help:expr) => {{
        static HANDLE: std::sync::OnceLock<$crate::metrics::Counter> = std::sync::OnceLock::new();
        HANDLE.get_or_init(|| {
            $crate::metrics::global().describe($name, $help);
            $crate::metrics::global().counter($name)
        })
    }};
}

/// A process-wide gauge handle, resolved once per call site. The
/// two-argument form also registers a `# HELP` description.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<$crate::metrics::Gauge> = std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::metrics::global().gauge($name))
    }};
    ($name:expr, $help:expr) => {{
        static HANDLE: std::sync::OnceLock<$crate::metrics::Gauge> = std::sync::OnceLock::new();
        HANDLE.get_or_init(|| {
            $crate::metrics::global().describe($name, $help);
            $crate::metrics::global().gauge($name)
        })
    }};
}

/// A process-wide histogram handle, resolved once per call site. The
/// two-argument form also registers a `# HELP` description.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<$crate::metrics::Histogram> = std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::metrics::global().histogram($name))
    }};
    ($name:expr, $help:expr) => {{
        static HANDLE: std::sync::OnceLock<$crate::metrics::Histogram> = std::sync::OnceLock::new();
        HANDLE.get_or_init(|| {
            $crate::metrics::global().describe($name, $help);
            $crate::metrics::global().histogram($name)
        })
    }};
}
