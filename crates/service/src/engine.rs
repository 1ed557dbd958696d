//! The per-shard scheduling engine: resolve → (cache) → prepare →
//! schedule → verify.
//!
//! One `Engine` lives on each worker shard and owns that shard's two
//! content-addressed caches:
//!
//! * the **DDG cache**, keyed by `(kernel hash, unwind, fold_inductions)`
//!   — the machine-independent prepared window (unwound graph, window
//!   bookkeeping, dependence graph), reused across machine descriptions
//!   and option sets;
//! * the **schedule cache**, keyed by `(kernel hash, machine fingerprint,
//!   unwind, option bits)` — the full verified response.
//!
//! The correctness invariant: a cache hit is **bit-identical** to a cold
//! run — same schedule length, same cycles, same scheduler counters, same
//! VM final-state digest, same verified flag. It holds because every
//! stage is deterministic and the cached prepared graph is cloned (ids
//! preserved) before scheduling mutates it; the property tests in
//! `tests/cache_props.rs` check it against fresh engines.

use crate::cache::Lru;
use crate::fingerprint::{graph_fingerprint, Fnv};
use crate::pool::JobMeta;
use crate::types::{CacheStatus, ScheduleRequest, ScheduleResponse};
use grip_ir::Graph;
use grip_kernels::Kernel;
use grip_machine::MachineDesc;
use grip_obs::{FlightRecord, SlowCapture};
use grip_pipeline::{prepare, schedule_window, PipelineOptions, PreparedWindow};
use grip_vm::{EquivReport, Machine};
use std::rc::Rc;

/// The unwind factor used when a request does not pin one: enough
/// iterations to fill a machine of the given width (§1's argument for
/// resource-aware pipelining), same policy as the Table 1 harness.
pub fn default_unwind(width: usize) -> usize {
    (3 * width.min(8)).clamp(10, 20)
}

/// Cache sizing for one engine/shard.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Prepared-window entries per shard (graphs + DDGs; the heavy cache).
    pub ddg_cache_cap: usize,
    /// Schedule-response entries per shard.
    pub sched_cache_cap: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig { ddg_cache_cap: 64, sched_cache_cap: 512 }
    }
}

/// Cache counter snapshot (one shard, or summed across shards).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Requests processed.
    pub processed: u64,
    /// Schedule-cache hits.
    pub sched_hits: u64,
    /// Schedule-cache misses.
    pub sched_misses: u64,
    /// Schedule-cache evictions.
    pub sched_evictions: u64,
    /// DDG-cache hits.
    pub ddg_hits: u64,
    /// DDG-cache misses.
    pub ddg_misses: u64,
    /// DDG-cache evictions.
    pub ddg_evictions: u64,
}

impl CacheCounters {
    /// Schedule-cache hit rate over all processed requests.
    pub fn hit_rate(&self) -> f64 {
        if self.processed == 0 {
            0.0
        } else {
            self.sched_hits as f64 / self.processed as f64
        }
    }

    /// Field-wise sum.
    pub fn add(&mut self, o: &CacheCounters) {
        self.processed += o.processed;
        self.sched_hits += o.sched_hits;
        self.sched_misses += o.sched_misses;
        self.sched_evictions += o.sched_evictions;
        self.ddg_hits += o.ddg_hits;
        self.ddg_misses += o.ddg_misses;
        self.ddg_evictions += o.ddg_evictions;
    }
}

type DdgKey = (u64, usize, bool);
type SchedKey = (u64, u64, usize, u8);

struct PreparedEntry {
    /// Graph snapshot after unwind + simplify (pre-scheduling form).
    graph: Graph,
    prep: PreparedWindow,
}

/// Largest trip count the service accepts: kernels allocate `n + 64`
/// cells per array in the VM, so an unbounded wire value could demand
/// arbitrary memory from one JSON line. 100k is ~10 MB of arrays for the
/// heaviest kernel — two orders of magnitude above the bench defaults.
pub const MAX_TRIP_COUNT: i64 = 100_000;

/// One shard's scheduling engine.
pub struct Engine {
    ddg_cache: Lru<DdgKey, Rc<PreparedEntry>>,
    sched_cache: Lru<SchedKey, ScheduleResponse>,
    /// `(kernel name, n) → kernel content hash`: builders are pure, so
    /// the hash of their output is reusable — a schedule-cache hit then
    /// never builds or dumps a graph at all.
    hash_memo: Lru<(String, i64), u64>,
    processed: u64,
}

impl Engine {
    /// A cold engine.
    pub fn new(cfg: EngineConfig) -> Engine {
        Engine {
            ddg_cache: Lru::new(cfg.ddg_cache_cap),
            sched_cache: Lru::new(cfg.sched_cache_cap),
            hash_memo: Lru::new(cfg.sched_cache_cap.max(256)),
            processed: 0,
        }
    }

    /// Current counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            processed: self.processed,
            sched_hits: self.sched_cache.hits,
            sched_misses: self.sched_cache.misses,
            sched_evictions: self.sched_cache.evictions,
            ddg_hits: self.ddg_cache.hits,
            ddg_misses: self.ddg_cache.misses,
            ddg_evictions: self.ddg_cache.evictions,
        }
    }

    /// Serve one request. Infallible at this level: failures come back as
    /// `ok == false` responses. `meta` carries the pool's queue stamps;
    /// direct callers (tests, single-threaded tools) pass
    /// [`JobMeta::immediate`].
    pub fn process(
        &mut self,
        shard: usize,
        req: &ScheduleRequest,
        meta: &JobMeta,
    ) -> ScheduleResponse {
        self.processed += 1;
        grip_obs::counter!("grip_requests_total").inc();
        grip_obs::gauge!("grip_requests_inflight").add(1);
        // The stage collector gathers prepare/schedule/hazards/verify
        // self times from the spans the pipeline and core crates open;
        // its total is the request wall time (same clock, same interval,
        // so the per-stage sum is comparable against it).
        let (mut resp, timings) = grip_obs::collect(|| self.process_inner(req));
        grip_obs::gauge!("grip_requests_inflight").add(-1);
        grip_obs::histogram!("grip_request_wall_ns").record(timings.total_ns);
        match resp.cache {
            CacheStatus::Hit => grip_obs::counter!("grip_cache_sched_hits_total").inc(),
            CacheStatus::DdgHit => grip_obs::counter!("grip_cache_ddg_hits_total").inc(),
            CacheStatus::Miss => grip_obs::counter!("grip_cache_misses_total").inc(),
        }
        resp.shard = shard;
        resp.wall_ns = timings.total_ns;
        resp.trace_id = match &req.trace {
            Some(t) => t.clone(),
            None => format!("s{shard}-{}", self.processed),
        };
        // Journal the completion into the flight recorder before the
        // opt-in delivery gates below strip the audit/bounds content the
        // record summarizes. Observation-only: the response is not
        // touched.
        self.record_flight(&resp, meta, &timings);
        // Per-delivery observability fields: a cache hit must report
        // *this* request's timings and trace, not the cold run's. The
        // breakdown is opt-in (`want_timings`) so the default wire
        // response does not grow.
        resp.timings = req.want_timings.then(|| grip_obs::StageBreakdown::from_timings(&timings));
        // The audit report and bound certificate are content (cached with
        // the response), but their delivery is opt-in, same as the
        // timings breakdown.
        if !req.want_audit {
            resp.audit = None;
        }
        if !req.want_bounds {
            resp.bounds = None;
        }
        resp
    }

    /// Build one [`FlightRecord`] for a finished response and push it into
    /// the global recorder. Requests whose wall time crosses the
    /// recorder's slow threshold additionally retain the full span list
    /// and the scheduler's pass counters.
    fn record_flight(
        &self,
        resp: &ScheduleResponse,
        meta: &JobMeta,
        timings: &grip_obs::StageTimings,
    ) {
        let rec = grip_obs::events::global();
        let slow = (timings.total_ns >= rec.slow_threshold_ns()).then(|| SlowCapture {
            spans: timings.stages.iter().map(|&(n, ns)| (n.to_string(), ns)).collect(),
            counters: resp.stats.named().into_iter().map(|(n, v)| (n.to_string(), v)).collect(),
        });
        rec.record(FlightRecord {
            trace_id: resp.trace_id.clone(),
            kernel: resp.kernel.clone(),
            machine: resp.machine.clone(),
            shard: resp.shard as u64,
            ok: resp.ok,
            verified: resp.verified,
            cache: resp.cache.as_str().to_string(),
            enqueue_ns: rec.ns_of(meta.enqueued_at),
            dequeue_ns: rec.ns_of(meta.dequeued_at),
            finish_ns: rec.now_ns(),
            queue_wait_ns: meta.queue_wait_ns(),
            wall_ns: timings.total_ns,
            stages: grip_obs::StageBreakdown::from_timings(timings),
            audit_diagnostics: resp.audit.as_ref().map_or(0, |a| a.diagnostics.len() as u64),
            bound_cycles: resp.bounds.map_or(0, |b| b.bound_cycles),
            at_bound: resp.bounds.is_some_and(|b| b.at_bound),
            result_digest: resp.state_digest,
            slow,
        });
    }

    fn process_inner(&mut self, req: &ScheduleRequest) -> ScheduleResponse {
        let Some(kernel) = grip_kernels::kernels().iter().find(|k| k.name == req.kernel) else {
            return ScheduleResponse::failure(req, format!("unknown kernel '{}'", req.kernel));
        };
        if req.n < 1 {
            return ScheduleResponse::failure(
                req,
                format!("trip count must be >= 1, got {}", req.n),
            );
        }
        if req.n > MAX_TRIP_COUNT {
            return ScheduleResponse::failure(
                req,
                format!("trip count {} exceeds the cap of {MAX_TRIP_COUNT}", req.n),
            );
        }
        let desc = match req.machine.resolve() {
            Ok(d) => d,
            Err(e) => return ScheduleResponse::failure(req, e),
        };
        let unwind = match req.unwind {
            Some(0) => return ScheduleResponse::failure(req, "unwind must be >= 1".to_string()),
            Some(u) if u > 64 => {
                return ScheduleResponse::failure(req, format!("unwind {u} exceeds the cap of 64"))
            }
            Some(u) => u,
            None => default_unwind(desc.width),
        };

        // Kernel content hash, memoized on (name, n): builders are pure,
        // so a schedule-cache hit needs neither the graph nor its dump.
        let hkey = (req.kernel.clone(), req.n);
        let mut g0: Option<Graph> = None;
        let kernel_hash = match self.hash_memo.get(&hkey).copied() {
            Some(h) => h,
            None => {
                let _span = grip_obs::span!("build");
                let g = (kernel.build)(req.n);
                let h = graph_fingerprint(&g);
                self.hash_memo.insert(hkey, h);
                g0 = Some(g);
                h
            }
        };
        let machine_fp = desc.fingerprint();
        let skey: SchedKey = (kernel_hash, machine_fp, unwind, req.options.bits());
        if let Some(cached) = self.sched_cache.get(&skey) {
            let mut resp = cached.clone();
            resp.id = req.id;
            // The machine label is request-echo, not content: an inline
            // spelling of a preset shares the preset's cache line (same
            // fingerprint), so a hit must re-label for *this* request to
            // stay bit-identical to what a cold run of it would say.
            resp.machine = req.machine.label();
            resp.cache = CacheStatus::Hit;
            return resp;
        }
        let g0 = g0.unwrap_or_else(|| {
            let _span = grip_obs::span!("build");
            (kernel.build)(req.n)
        });

        // Prepared-window (DDG) cache: machine-independent, so a request
        // for a new machine at a known (kernel, unwind) skips unwinding,
        // induction folding, and DDG construction entirely. Copying the
        // sequential graph into a new window, and the window into the
        // graph the scheduler mutates, is preparation too.
        let dkey: DdgKey = (kernel_hash, unwind, req.options.fold_inductions);
        let (entry, ddg_hit) = match self.ddg_cache.get(&dkey) {
            Some(e) => (Rc::clone(e), true),
            None => {
                let _span = grip_obs::span!("prepare");
                let mut g = g0.clone();
                let prep = prepare(&mut g, unwind, req.options.fold_inductions);
                let e = Rc::new(PreparedEntry { graph: g, prep });
                self.ddg_cache.insert(dkey, Rc::clone(&e));
                (e, false)
            }
        };
        let (mut g, window) = {
            let _span = grip_obs::span!("prepare");
            (entry.graph.clone(), entry.prep.window.clone())
        };

        let rep = schedule_window(
            &mut g,
            window,
            &entry.prep.ddg,
            PipelineOptions {
                unwind,
                machine: desc,
                fold_inductions: req.options.fold_inductions,
                gap_prevention: req.options.gap_prevention,
                dce: req.options.dce,
                try_roll: req.options.try_roll,
                // Always audit cold runs: the report is cached with the
                // response, so the static check costs nothing on hits and
                // `want_audit` only gates delivery.
                audit: true,
            },
        );
        grip_obs::counter!("grip_audit_runs_total").inc();
        let audit = rep.audit.clone();
        if let Some(a) = &audit {
            grip_obs::counter!("grip_audit_diagnostics_total").add(a.diagnostics.len() as u64);
        }
        // The bound certificate is cached with the response like the audit
        // report; `want_bounds` only gates delivery.
        let bounds = Some(rep.bounds);
        if rep.bounds.at_bound {
            grip_obs::counter!("grip_at_bound_total").inc();
        }
        let (schedule_rows, body_speedup, stats) =
            (rep.steady.len(), rep.speedup().unwrap_or(f64::NAN), rep.stats);

        let (verified, seq_cycles, sched_cycles, sched_stalls, template_violations, state_digest) = {
            let _span = grip_obs::span!("verify");
            grip_obs::counter!("grip_verify_runs_total").inc();
            let outcome = verify(kernel, &g0, &g, req.n, &desc);
            // Verification is the last reader of both graphs, the report
            // and the prepared window: they are freed under its span.
            drop((g, g0, rep, entry));
            outcome
        };

        let resp = ScheduleResponse {
            id: req.id,
            ok: true,
            error: None,
            kernel: req.kernel.clone(),
            machine: req.machine.label(),
            n: req.n,
            unwind,
            kernel_hash,
            machine_fp,
            schedule_rows,
            seq_cycles,
            sched_cycles,
            sched_stalls,
            template_violations,
            speedup: if sched_cycles > 0 {
                seq_cycles as f64 / sched_cycles as f64
            } else {
                f64::NAN
            },
            body_speedup,
            stats,
            verified,
            state_digest,
            cache: if ddg_hit { CacheStatus::DdgHit } else { CacheStatus::Miss },
            wall_ns: 0,
            shard: 0,
            trace_id: String::new(),
            timings: None,
            audit,
            bounds,
        };
        self.sched_cache.insert(skey, resp.clone());
        resp
    }
}

/// Model-run both programs on `desc`, compare observable state bitwise,
/// and digest the scheduled run's final state.
fn verify(
    kernel: &Kernel,
    g0: &Graph,
    g: &Graph,
    n: i64,
    desc: &MachineDesc,
) -> (bool, u64, u64, u64, u64, u64) {
    let mut m0 = Machine::for_graph(g0);
    (kernel.init)(g0, &mut m0, n);
    let seq = m0.run_model(g0, desc);
    let mut m1 = Machine::for_graph(g);
    (kernel.init)(g, &mut m1, n);
    let sched = m1.run_model(g, desc);
    let verified = match (&seq, &sched) {
        (Ok(_), Ok(_)) => EquivReport::compare(g0, &m0, &m1).is_equal(),
        _ => false,
    };
    let seq_cycles = seq.map(|s| s.total_cycles()).unwrap_or(0);
    let (sched_cycles, stalls, tv) = sched
        .map(|s| (s.total_cycles(), s.stall_cycles, s.template_violations))
        .unwrap_or((0, 0, 0));
    (verified, seq_cycles, sched_cycles, stalls, tv, state_digest(g, &m1))
}

/// FNV-1a digest of a machine's observable final state: every cell of
/// every array plus the `live_out` registers, all by bit pattern.
pub fn state_digest(g: &Graph, m: &Machine) -> u64 {
    let mut h = Fnv::new();
    for (ai, info) in g.arrays().iter().enumerate() {
        for i in 0..info.len {
            h.word(value_bits(m.array_cell(grip_ir::ArrayId::new(ai), i)));
        }
    }
    for &r in &g.live_out {
        match m.reg(r) {
            Some(v) => h.word(1).word(value_bits(v)),
            None => h.word(0),
        };
    }
    h.finish()
}

fn value_bits(v: grip_ir::Value) -> u64 {
    match v {
        grip_ir::Value::F(x) => x.to_bits(),
        // Tag the variants apart so I(0) and F(+0.0) cannot collide.
        grip_ir::Value::I(i) => (i as u64).rotate_left(1) ^ 0x9e37_79b9_7f4a_7c15,
        grip_ir::Value::B(b) => 0x517c_c1b7_2722_0a95 ^ u64::from(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::MachineSpec;

    fn req(kernel: &str, n: i64, machine: &str) -> ScheduleRequest {
        ScheduleRequest::new(kernel, n, MachineSpec::Preset(machine.to_string()))
    }

    #[test]
    fn cold_engine_serves_and_verifies() {
        let mut e = Engine::new(EngineConfig::default());
        let r = e.process(0, &req("LL12", 24, "clustered"), &JobMeta::immediate());
        assert!(r.ok, "{:?}", r.error);
        assert!(r.verified);
        assert_eq!(r.sched_stalls, 0);
        assert_eq!(r.template_violations, 0);
        assert_eq!(r.cache, CacheStatus::Miss);
        assert!(r.speedup > 1.0);
        assert!(r.schedule_rows > 0);
        assert_ne!(r.state_digest, 0);
    }

    #[test]
    fn second_identical_request_hits_and_is_bit_identical() {
        let mut e = Engine::new(EngineConfig::default());
        let q = req("LL5", 16, "epic8");
        let cold = e.process(0, &q, &JobMeta::immediate());
        let hot = e.process(0, &q, &JobMeta::immediate());
        assert_eq!(hot.cache, CacheStatus::Hit);
        assert!(hot.bits_eq(&cold), "hit must be bit-identical:\n{cold:?}\n{hot:?}");
        let c = e.counters();
        assert_eq!((c.sched_hits, c.sched_misses), (1, 1));
    }

    #[test]
    fn new_machine_at_known_unwind_reuses_the_ddg() {
        let mut e = Engine::new(EngineConfig::default());
        // Same kernel/n; epic8 and mem_bound share width 8, hence the
        // same default unwind — the second request should DDG-hit.
        let a = e.process(0, &req("LL3", 16, "epic8"), &JobMeta::immediate());
        let b = e.process(0, &req("LL3", 16, "mem_bound"), &JobMeta::immediate());
        assert_eq!(a.cache, CacheStatus::Miss);
        assert_eq!(b.cache, CacheStatus::DdgHit);
        assert!(a.verified && b.verified);
        assert_eq!(a.kernel_hash, b.kernel_hash);
        assert_ne!(a.machine_fp, b.machine_fp);
        let c = e.counters();
        assert_eq!((c.ddg_hits, c.ddg_misses), (1, 1));
    }

    #[test]
    fn cross_spelling_hits_stay_bit_identical_to_their_own_cold_runs() {
        // An inline spelling of epic8 shares the preset's cache line…
        let inline_epic8 = ScheduleRequest::new(
            "LL12",
            16,
            crate::types::MachineSpec::Inline(crate::types::inline_machine(
                8,
                None,
                [Some(4), Some(4), Some(2)],
                grip_machine::LatencyTable { alu: 1, fpu: 4, fpu_long: 16, mem: 2, branch: 1 },
            )),
        );
        let mut warm = Engine::new(EngineConfig::default());
        let preset = warm.process(0, &req("LL12", 16, "epic8"), &JobMeta::immediate());
        let hit = warm.process(0, &inline_epic8, &JobMeta::immediate());
        assert_eq!(preset.cache, CacheStatus::Miss);
        assert_eq!(hit.cache, CacheStatus::Hit, "content-addressed across spellings");
        // …but the hit must match what a cold run of *this* request says,
        // including the request's own machine label.
        let cold =
            Engine::new(EngineConfig::default()).process(0, &inline_epic8, &JobMeta::immediate());
        assert_eq!(hit.machine, "inline");
        assert!(hit.bits_eq(&cold));
    }

    #[test]
    fn failures_are_responses_not_panics() {
        let mut e = Engine::new(EngineConfig::default());
        assert!(!e.process(0, &req("LL99", 16, "epic8"), &JobMeta::immediate()).ok);
        assert!(!e.process(0, &req("LL1", 0, "epic8"), &JobMeta::immediate()).ok);
        assert!(!e.process(0, &req("LL1", 16, "nonsense"), &JobMeta::immediate()).ok);
        let mut q = req("LL1", 16, "epic8");
        q.unwind = Some(0);
        assert!(!e.process(0, &q, &JobMeta::immediate()).ok);
    }

    #[test]
    fn default_unwind_matches_the_table1_policy() {
        assert_eq!(default_unwind(2), 10);
        assert_eq!(default_unwind(4), 12);
        assert_eq!(default_unwind(8), 20);
        assert_eq!(default_unwind(usize::MAX), 20, "unbounded widths clamp");
    }
}
