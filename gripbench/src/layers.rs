//! Per-layer measurements: replays of the layer entry points under the
//! benchmark's own spans, and the assembly of every per-layer metric.
//!
//! Sources, by layer:
//! * kernels, pipeline, analysis, json, proto, service routing: spans the
//!   benchmark records around its own calls into those functions;
//! * core, audit, bounds, vm: the engine's per-stage breakdown on each
//!   cold response, the pick loop's phase counters from the metrics
//!   registry, and the scheduler counters on the response;
//! * engine, pool, wire, cache: the responses' own wall times, flight
//!   records, client timestamps and the service's cache counters.

use crate::check::Seen;
use crate::gen::Key;
use crate::stats;
use crate::trace::{Totals, Tracer};
use grip_json::Json;
use grip_service::proto::{request_from_json, response_to_json};
use grip_service::{MachineSpec, ScheduleRequest, ScheduleResponse, Service};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Registry counters the pick loop folds its phase profile into.
pub const PHASE_COUNTERS: [&str; 4] = [
    "grip_sched_phase_cand_refresh_ns_total",
    "grip_sched_phase_legality_ns_total",
    "grip_sched_phase_commit_ns_total",
    "grip_sched_phase_dead_sweep_ns_total",
];

/// The per-layer metrics, in report order, with their units.
pub const LAYER_METRICS: [(&str, &str); 44] = [
    ("kernels.build_ms", "ms"),
    ("pipeline.prepare_ms", "ms"),
    ("pipeline.unwind_ms", "ms"),
    ("pipeline.simplify_ms", "ms"),
    ("analysis.ddg_ms", "ms"),
    ("analysis.ranks_ms", "ms"),
    ("core.schedule_ms", "ms"),
    ("core.hazards_ms", "ms"),
    ("core.phase.cand_refresh_ms", "ms"),
    ("core.phase.legality_ms", "ms"),
    ("core.phase.commit_ms", "ms"),
    ("core.phase.dead_sweep_ms", "ms"),
    ("core.phase.other_ms", "ms"),
    ("core.picks", "count"),
    ("core.hops", "count"),
    ("core.hop_yield", "ratio"),
    ("core.resource_blocks", "count"),
    ("core.latency_blocks", "count"),
    ("core.gap_rejections", "count"),
    ("core.hazard_delay_rows", "count"),
    ("audit.ms", "ms"),
    ("bounds.ms", "ms"),
    ("vm.verify_ms", "ms"),
    ("bounds.gap_pct_geomean", "%"),
    ("bounds.at_bound_cells", "count"),
    ("json.parse_us", "us"),
    ("proto.decode_us", "us"),
    ("service.route_us", "us"),
    ("engine.hit_us", "us"),
    ("proto.encode_us", "us"),
    ("json.write_us", "us"),
    ("pool.queue_wait_ms", "ms"),
    ("wire.overhead_ms", "ms"),
    ("proto.hol_wait_ms", "ms"),
    ("engine.miss_ms", "ms"),
    ("cache.sched_hit_ratio", "ratio"),
    ("cache.ddg_hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("pool.shard_busy_ratio", "ratio"),
    ("gen.late_ms", "ms"),
    ("error_rate", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("latency_tail_ms", "ms"),
];

/// Re-run the machine-independent layers a cold request pays for, each
/// call under its own span: kernel build, then `prepare` split into its
/// three calls, then the latency-weighted rank table.
pub fn replay_prepare(t: &mut Tracer, key: &Key, req: u64) {
    let (kernel, desc) = t.time("bench.lookup", req, || {
        let kernel = grip_kernels::kernels().iter().find(|k| k.name == key.kernel);
        (kernel, MachineSpec::Preset(key.machine.into()).resolve())
    });
    let (Some(kernel), Ok(desc)) = (kernel, desc) else { return };
    let g0 = t.time("kernels.build", req, || (kernel.build)(key.n));
    let prep = t.enter("pipeline.prepare", req);
    let mut g = g0.clone();
    let unwind = grip_service::default_unwind(desc.width);
    let window = t.time("pipeline.unwind", req, || grip_pipeline::unwind(&mut g, unwind));
    t.time("pipeline.simplify", req, || grip_pipeline::simplify_inductions(&mut g, &window.rows));
    let ddg = t.time("analysis.ddg", req, || grip_analysis::Ddg::build(&g, g.entry));
    t.exit(prep);
    let group = if desc.max_latency() > 1 { 2 } else { 1 };
    let ranks = t.time("analysis.ranks", req, || {
        grip_analysis::RankTable::with_weights_grouped(&ddg, true, group, |op| {
            desc.latency_of(g.op(op).kind)
        })
    });
    t.time("bench.drop", req, || drop(black_box((g0, g, window, ddg, ranks))));
}

/// The request half of the server's per-line path: parse the line,
/// decode the request, route it.
pub fn decode_path(t: &mut Tracer, req: u64, line: &str, svc: &Service) -> Option<ScheduleRequest> {
    let j = t.time("json.parse", req, || Json::parse(line)).ok()?;
    let r = t.time("proto.decode", req, || request_from_json(&j)).ok()?;
    t.time("service.route", req, || black_box(svc.route(&r)));
    Some(r)
}

/// The response half: encode the response and write its line.
pub fn encode_path(t: &mut Tracer, req: u64, resp: &ScheduleResponse) {
    let j = t.time("proto.encode", req, || response_to_json(resp));
    let line = t.time("json.write", req, || j.line());
    black_box(line);
}

/// Everything a traced pass gathers for the per-layer metrics.
#[derive(Default)]
pub struct LayerData {
    /// Responses that did cold work (schedule-cache misses).
    pub cold: Vec<(Key, Seen)>,
    /// Schedule-cache hits.
    pub hits: Vec<Seen>,
    /// Pick-loop phase nanoseconds over the cold work, in
    /// [`PHASE_COUNTERS`] order.
    pub phases_ns: [u64; 4],
    /// Engine wall time per shard.
    pub busy_ns: Vec<u64>,
    pub queue_wait_ns: Vec<f64>,
    pub wire_ns: Vec<f64>,
    pub hol_ns: Vec<f64>,
    pub late_ns: Vec<f64>,
    /// The service's cache counters (`{"cmd":"stats"}` shape).
    pub cache: Option<Json>,
    pub overhead_pct: f64,
    pub coverage_pct: f64,
    pub error_rate: f64,
    /// The run's report-only end-to-end tail (untraced pass).
    pub tail_ms: f64,
}

impl LayerData {
    pub fn add_busy(&mut self, s: &Seen) {
        if self.busy_ns.len() <= s.shard {
            self.busy_ns.resize(s.shard + 1, 0);
        }
        self.busy_ns[s.shard] += s.wall_ns;
    }
}

/// Read the phase counters from the in-process registry (a snapshot, so
/// reading never registers a metric) or from a `{"cmd":"metrics"}`
/// answer's `metrics` object. Missing counters read 0.
pub fn phase_counters(metrics: Option<&Json>) -> [u64; 4] {
    let snap = metrics.is_none().then(|| grip_obs::global().snapshot());
    PHASE_COUNTERS.map(|name| match (metrics, &snap) {
        (Some(m), _) => m.get(name).and_then(Json::as_i64).unwrap_or(0).max(0) as u64,
        (None, Some(s)) => s.counter(name).unwrap_or(0),
        (None, None) => 0,
    })
}

/// Assemble every per-layer metric, in [`LAYER_METRICS`] order.
pub fn per_layer(d: &LayerData, totals: &BTreeMap<&'static str, Totals>) -> Vec<(String, f64)> {
    let span = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per_call = |t: Totals, ns: u64, scale: f64| {
        if t.count == 0 {
            0.0
        } else {
            ns as f64 / t.count as f64 / scale
        }
    };
    let self_ms = |name: &str| per_call(span(name), span(name).self_ns, 1e6);
    let self_us = |name: &str| per_call(span(name), span(name).self_ns, 1e3);
    let n_cold = d.cold.len().max(1) as f64;
    let stage_ms = |i: usize| {
        d.cold.iter().map(|(_, s)| s.stages.map_or(0, |st| st[i])).sum::<u64>() as f64
            / n_cold
            / 1e6
    };
    let phase_ms = d.phases_ns.map(|ns| ns as f64 / n_cold / 1e6);
    let counter = |i: usize| d.cold.iter().map(|(_, s)| s.counters[i]).sum::<u64>() as f64;
    // One certificate per distinct cold key (a traced cold pass may sweep
    // more than once).
    let mut distinct: BTreeMap<Key, &Seen> = BTreeMap::new();
    for (k, s) in &d.cold {
        distinct.insert(*k, s);
    }
    let gaps: Vec<f64> =
        distinct.values().filter_map(|s| s.gap_pct).map(|g| 1.0 + g / 100.0).collect();
    let cache = |name: &str| {
        d.cache.as_ref().and_then(|c| c.get(name)).and_then(Json::as_i64).unwrap_or(0) as f64
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let busy: Vec<f64> = d.busy_ns.iter().map(|&b| b as f64).collect();
    let v = |xs: &[f64], scale: f64| stats::mean(xs) / scale;
    let values: BTreeMap<&str, f64> = BTreeMap::from([
        ("kernels.build_ms", self_ms("kernels.build")),
        (
            "pipeline.prepare_ms",
            per_call(span("pipeline.prepare"), span("pipeline.prepare").incl_ns, 1e6),
        ),
        ("pipeline.unwind_ms", self_ms("pipeline.unwind")),
        ("pipeline.simplify_ms", self_ms("pipeline.simplify")),
        ("analysis.ddg_ms", self_ms("analysis.ddg")),
        ("analysis.ranks_ms", self_ms("analysis.ranks")),
        ("core.schedule_ms", stage_ms(1)),
        ("core.hazards_ms", stage_ms(2)),
        ("core.phase.cand_refresh_ms", phase_ms[0]),
        ("core.phase.legality_ms", phase_ms[1]),
        ("core.phase.commit_ms", phase_ms[2]),
        ("core.phase.dead_sweep_ms", phase_ms[3]),
        ("core.phase.other_ms", (stage_ms(1) - phase_ms.iter().sum::<f64>()).max(0.0)),
        ("core.picks", counter(0) / n_cold),
        ("core.hops", counter(1) / n_cold),
        ("core.hop_yield", ratio(counter(1), counter(0))),
        ("core.resource_blocks", counter(2) / n_cold),
        ("core.latency_blocks", counter(3) / n_cold),
        ("core.gap_rejections", counter(4) / n_cold),
        ("core.hazard_delay_rows", counter(5) / n_cold),
        ("audit.ms", stage_ms(4)),
        ("bounds.ms", stage_ms(5)),
        ("vm.verify_ms", stage_ms(3)),
        (
            "bounds.gap_pct_geomean",
            if gaps.is_empty() { 0.0 } else { (stats::geomean(&gaps) - 1.0) * 100.0 },
        ),
        ("bounds.at_bound_cells", distinct.values().filter(|s| s.at_bound).count() as f64),
        ("json.parse_us", self_us("json.parse")),
        ("proto.decode_us", self_us("proto.decode")),
        ("service.route_us", self_us("service.route")),
        ("engine.hit_us", v(&d.hits.iter().map(|s| s.wall_ns as f64).collect::<Vec<_>>(), 1e3)),
        ("proto.encode_us", self_us("proto.encode")),
        ("json.write_us", self_us("json.write")),
        ("pool.queue_wait_ms", v(&d.queue_wait_ns, 1e6)),
        ("wire.overhead_ms", v(&d.wire_ns, 1e6)),
        ("proto.hol_wait_ms", v(&d.hol_ns, 1e6)),
        (
            "engine.miss_ms",
            d.cold.iter().map(|(_, s)| s.wall_ns).sum::<u64>() as f64 / n_cold / 1e6,
        ),
        ("cache.sched_hit_ratio", ratio(cache("sched_hits"), cache("processed"))),
        ("cache.ddg_hit_ratio", ratio(cache("ddg_hits"), cache("ddg_hits") + cache("ddg_misses"))),
        ("cache.evictions", cache("sched_evictions") + cache("ddg_evictions")),
        (
            "pool.shard_busy_ratio",
            ratio(busy.iter().copied().fold(0.0, f64::max), stats::mean(&busy)),
        ),
        ("gen.late_ms", v(&d.late_ns, 1e6)),
        ("error_rate", d.error_rate),
        ("trace.overhead_pct", d.overhead_pct),
        ("trace.coverage_pct", d.coverage_pct),
        ("latency_tail_ms", d.tail_ms),
    ]);
    LAYER_METRICS.iter().map(|(name, _)| (name.to_string(), values[name])).collect()
}
