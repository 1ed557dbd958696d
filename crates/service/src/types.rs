//! The service's job shapes: [`ScheduleRequest`] in, [`ScheduleResponse`]
//! out.

use grip_bounds::BoundCertificate;
use grip_core::ScheduleStats;
use grip_machine::{LatencyTable, MachineDesc, UNCAPPED};
use grip_obs::StageBreakdown;

/// Which machine a request schedules for.
#[derive(Clone, Debug, PartialEq)]
pub enum MachineSpec {
    /// A ready-made preset by name: `scalar`, `clustered`, `mem_bound`,
    /// `epic8`, `unlimited`, or `uniformN` for any width `N ≥ 1`.
    Preset(String),
    /// An inline description (the wire form spells out slots/latencies).
    Inline(MachineDesc),
}

impl MachineSpec {
    /// Resolve to a validated [`MachineDesc`].
    pub fn resolve(&self) -> Result<MachineDesc, String> {
        let desc = match self {
            MachineSpec::Inline(d) => *d,
            MachineSpec::Preset(name) => match name.as_str() {
                "scalar" => MachineDesc::scalar(),
                "clustered" => MachineDesc::clustered(),
                "mem_bound" => MachineDesc::mem_bound(),
                "epic8" => MachineDesc::epic8(),
                "unlimited" => MachineDesc::UNLIMITED,
                other => {
                    match other.strip_prefix("uniform").and_then(|w| w.parse::<usize>().ok()) {
                        Some(w) => MachineDesc::uniform(w),
                        None => return Err(format!("unknown machine preset '{other}'")),
                    }
                }
            },
        };
        desc.validate().map_err(|e| format!("invalid machine: {e}"))?;
        Ok(desc)
    }

    /// Display label for reports (`uniform` widths get the width appended,
    /// inline machines are labelled `inline`).
    pub fn label(&self) -> String {
        match self {
            MachineSpec::Preset(name) => name.clone(),
            MachineSpec::Inline(_) => "inline".to_string(),
        }
    }
}

/// Build an inline [`MachineDesc`] from wire-shaped parts (`None` caps
/// mean uncapped, `None` latencies mean one cycle).
pub fn inline_machine(
    width: usize,
    cjs: Option<usize>,
    slots: [Option<usize>; 3],
    latency: LatencyTable,
) -> MachineDesc {
    let mut desc = MachineDesc::uniform(width);
    desc.name = "inline";
    desc.cjs = cjs.unwrap_or(UNCAPPED);
    for (i, s) in slots.into_iter().enumerate() {
        desc.class_slots[i] = s.unwrap_or(UNCAPPED);
    }
    desc.latency = latency;
    desc
}

/// Pipeline toggles a request may set (all have the Table 1 defaults).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineOptions {
    /// Fold unwound induction chains (cross-iteration parallelism).
    pub fold_inductions: bool,
    /// §3.3 gap prediction and prevention.
    pub gap_prevention: bool,
    /// Incremental dead-code removal.
    pub dce: bool,
    /// Attempt to re-roll the detected pattern into a real loop.
    pub try_roll: bool,
}

impl Default for EngineOptions {
    fn default() -> EngineOptions {
        EngineOptions { fold_inductions: true, gap_prevention: true, dce: true, try_roll: false }
    }
}

impl EngineOptions {
    /// Pack into the schedule-cache key.
    pub fn bits(&self) -> u8 {
        u8::from(self.fold_inductions)
            | u8::from(self.gap_prevention) << 1
            | u8::from(self.dce) << 2
            | u8::from(self.try_roll) << 3
    }
}

/// One scheduling job: which kernel, at what trip count, for which
/// machine, unwound how far.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleRequest {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Kernel name (`LL1`…`LL14`).
    pub kernel: String,
    /// Trip count (drives the loop bound and the verification inputs).
    pub n: i64,
    /// Target machine.
    pub machine: MachineSpec,
    /// Unwind factor; `None` picks the width-matched default
    /// ([`crate::default_unwind`]).
    pub unwind: Option<usize>,
    /// Pipeline toggles.
    pub options: EngineOptions,
    /// Client-supplied trace id, echoed on the response; `None` lets the
    /// serving shard assign one (`s<shard>-<seq>`).
    pub trace: Option<String>,
    /// Opt in to the per-stage `timings` breakdown on the wire response
    /// (in-process responses always carry it).
    pub want_timings: bool,
    /// Opt in to attaching the `grip-audit` static-verification report to
    /// the response. The engine audits every cold schedule regardless (and
    /// counts runs/diagnostics in the metrics registry); this flag only
    /// controls delivery of the report object.
    pub want_audit: bool,
    /// Opt in to attaching the `grip-bounds` optimality certificate. The
    /// engine proves the bound on every cold schedule regardless; this
    /// flag only controls delivery of the certificate object.
    pub want_bounds: bool,
}

impl ScheduleRequest {
    /// A Table 1-configured request for `kernel` on `machine` at trip
    /// count `n`.
    pub fn new(kernel: &str, n: i64, machine: MachineSpec) -> ScheduleRequest {
        ScheduleRequest {
            id: 0,
            kernel: kernel.to_string(),
            n,
            machine,
            unwind: None,
            options: EngineOptions::default(),
            trace: None,
            want_timings: false,
            want_audit: false,
            want_bounds: false,
        }
    }
}

/// How a response was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheStatus {
    /// Cold: window prepared, schedule computed.
    Miss,
    /// The schedule was computed, but the prepared window (unwound graph +
    /// DDG) came from the DDG cache.
    DdgHit,
    /// Served verbatim from the schedule cache.
    Hit,
}

impl CacheStatus {
    /// Wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheStatus::Miss => "miss",
            CacheStatus::DdgHit => "ddg_hit",
            CacheStatus::Hit => "hit",
        }
    }

    /// Parse the wire spelling.
    pub fn parse(s: &str) -> Option<CacheStatus> {
        match s {
            "miss" => Some(CacheStatus::Miss),
            "ddg_hit" => Some(CacheStatus::DdgHit),
            "hit" => Some(CacheStatus::Hit),
            _ => None,
        }
    }
}

/// The answer to one [`ScheduleRequest`].
///
/// Everything except the per-delivery fields (`id`, `cache`, `wall_ns`,
/// `shard`, `trace_id`, `timings`) is a pure function of the request
/// content — that is the cache-correctness invariant, checked by
/// [`ScheduleResponse::bits_eq`].
#[derive(Clone, Debug)]
pub struct ScheduleResponse {
    /// Echoed request id.
    pub id: u64,
    /// False when the request could not be served; see `error`.
    pub ok: bool,
    /// What went wrong, when `ok` is false.
    pub error: Option<String>,
    /// Kernel name.
    pub kernel: String,
    /// Machine label (preset name or `inline`).
    pub machine: String,
    /// Trip count.
    pub n: i64,
    /// Unwind factor actually used.
    pub unwind: usize,
    /// Content hash of the sequential kernel graph.
    pub kernel_hash: u64,
    /// Machine description fingerprint.
    pub machine_fp: u64,
    /// Steady rows of the scheduled window (schedule length).
    pub schedule_rows: usize,
    /// Model cycles of the sequential program on this machine.
    pub seq_cycles: u64,
    /// Model cycles of the scheduled program.
    pub sched_cycles: u64,
    /// Interlock stalls charged to the schedule (0 is an invariant).
    pub sched_stalls: u64,
    /// Issue-template violations observed in simulation (0 likewise).
    pub template_violations: u64,
    /// Wall-clock speedup `seq_cycles / sched_cycles`.
    pub speedup: f64,
    /// Loop-body CPI speedup (the paper's unit-cycle view).
    pub body_speedup: f64,
    /// Scheduler counters.
    pub stats: ScheduleStats,
    /// Scheduled program matched the sequential program bitwise, and both
    /// model runs completed.
    pub verified: bool,
    /// FNV-1a digest of the scheduled run's final observable state (all
    /// memory + `live_out` registers).
    pub state_digest: u64,
    /// How this response was produced.
    pub cache: CacheStatus,
    /// Service-side wall time for this request, in **nanoseconds**
    /// (recorded at full clock resolution so cache hits — single-digit
    /// microseconds — stay measurable; the wire emits fractional
    /// microseconds alongside).
    pub wall_ns: u64,
    /// Shard that served the request.
    pub shard: usize,
    /// Trace id: the request's, or shard-assigned (`s<shard>-<seq>`).
    pub trace_id: String,
    /// Per-stage self-time breakdown of serving this request (stages are
    /// ~zero on a schedule-cache hit). Present iff the request opted in
    /// via [`ScheduleRequest::want_timings`].
    pub timings: Option<StageBreakdown>,
    /// The `grip-audit` static verification report for the scheduled
    /// window. Computed on every cold run and cached with the response;
    /// delivered iff the request opted in via
    /// [`ScheduleRequest::want_audit`].
    pub audit: Option<grip_audit::AuditReport>,
    /// The `grip-bounds` optimality certificate for the scheduled window.
    /// Proven on every cold run and cached with the response; delivered
    /// iff the request opted in via [`ScheduleRequest::want_bounds`].
    pub bounds: Option<BoundCertificate>,
}

impl ScheduleResponse {
    /// An error response for a request that never reached the scheduler.
    pub fn failure(req: &ScheduleRequest, error: String) -> ScheduleResponse {
        ScheduleResponse {
            id: req.id,
            ok: false,
            error: Some(error),
            kernel: req.kernel.clone(),
            machine: req.machine.label(),
            n: req.n,
            unwind: req.unwind.unwrap_or(0),
            kernel_hash: 0,
            machine_fp: 0,
            schedule_rows: 0,
            seq_cycles: 0,
            sched_cycles: 0,
            sched_stalls: 0,
            template_violations: 0,
            speedup: f64::NAN,
            body_speedup: f64::NAN,
            stats: ScheduleStats::default(),
            verified: false,
            state_digest: 0,
            cache: CacheStatus::Miss,
            wall_ns: 0,
            shard: 0,
            trace_id: String::new(),
            timings: None,
            audit: None,
            bounds: None,
        }
    }

    /// What is wrong with this response, if anything: it failed, did not
    /// verify, stalls, breaks an issue template, carries an audit report
    /// with diagnostics, or carries a bound certificate it undercuts
    /// ([`bound_sound`]). Only what the response carries is checked: one
    /// without an audit report or a certificate is not at fault for it.
    pub fn fault(&self) -> Option<String> {
        let audit_dirty = self.audit.as_ref().is_some_and(|a| !a.is_clean());
        let bound_unsound = self.bounds.as_ref().is_some_and(|b| {
            !bound_sound(b, self.n, self.unwind, self.schedule_rows, self.sched_cycles)
        });
        let clean = self.ok
            && self.verified
            && self.sched_stalls == 0
            && self.template_violations == 0
            && !audit_dirty
            && !bound_unsound;
        (!clean).then(|| {
            format!(
                "{} on {}: ok={} verified={} stalls={} templates={} audit={} bounds={} rows={} \
                 cycles={} unwind={} {}",
                self.kernel,
                self.machine,
                self.ok,
                self.verified,
                self.sched_stalls,
                self.template_violations,
                self.audit.as_ref().map_or("absent".to_string(), |a| a.summary()),
                self.bounds.as_ref().map_or("absent".to_string(), |b| b.summary()),
                self.schedule_rows,
                self.sched_cycles,
                self.unwind,
                self.error.as_deref().unwrap_or(""),
            )
        })
    }

    /// Bitwise content equality: every field that must be identical
    /// between a cache hit and a cold run (floats compared by bit
    /// pattern; the per-delivery fields
    /// `id`/`cache`/`wall_ns`/`shard`/`trace_id`/`timings`/`audit`/
    /// `bounds` excluded — the audit report and bound certificate are
    /// delivery-gated by `want_audit`/`want_bounds`, though their content
    /// is itself a pure function of the request).
    pub fn bits_eq(&self, other: &ScheduleResponse) -> bool {
        self.ok == other.ok
            && self.error == other.error
            && self.kernel == other.kernel
            && self.machine == other.machine
            && self.n == other.n
            && self.unwind == other.unwind
            && self.kernel_hash == other.kernel_hash
            && self.machine_fp == other.machine_fp
            && self.schedule_rows == other.schedule_rows
            && self.seq_cycles == other.seq_cycles
            && self.sched_cycles == other.sched_cycles
            && self.sched_stalls == other.sched_stalls
            && self.template_violations == other.template_violations
            && self.speedup.to_bits() == other.speedup.to_bits()
            && self.body_speedup.to_bits() == other.body_speedup.to_bits()
            && self.stats == other.stats
            && self.verified == other.verified
            && self.state_digest == other.state_digest
    }
}

/// The bound-soundness rule for a schedule of a kernel at trip count
/// `n`, unwound `unwind` times. The certificate bounds one full
/// traversal of the steady window, so the steady rows may never undercut
/// it. The loop runs at least `n - 5` iterations (the deepest kernel
/// induction offset, LL4's), which forces `trip / unwind - 2` complete
/// traversals (slack for the prologue pass and the final partial one),
/// at least one once the trip covers the unwind; each costs the bound,
/// so the model cycles may not undercut their product either.
pub fn bound_sound(
    cert: &BoundCertificate,
    n: i64,
    unwind: usize,
    schedule_rows: usize,
    sched_cycles: u64,
) -> bool {
    let trip = (n.max(5) - 5) as u64;
    let traversals = if unwind > 0 && trip >= unwind as u64 {
        (trip / unwind as u64).saturating_sub(2).max(1)
    } else {
        0
    };
    schedule_rows as u64 >= cert.bound_cycles && sched_cycles >= traversals * cert.bound_cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_resolve_and_labels_round_trip() {
        for name in ["scalar", "clustered", "mem_bound", "epic8", "uniform4", "uniform16"] {
            let spec = MachineSpec::Preset(name.to_string());
            let desc = spec.resolve().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(desc.validate().is_ok());
            assert_eq!(spec.label(), name);
        }
        assert!(MachineSpec::Preset("uniform0".into()).resolve().is_err(), "zero width");
        assert!(MachineSpec::Preset("widevliw".into()).resolve().is_err());
    }

    #[test]
    fn inline_machines_default_to_uncapped_slots() {
        let d = inline_machine(4, None, [Some(2), None, Some(1)], LatencyTable::UNIT);
        assert_eq!(d.width, 4);
        assert_eq!(d.cjs, UNCAPPED);
        assert_eq!(d.class_slots[0], 2);
        assert_eq!(d.class_slots[1], UNCAPPED);
        assert_eq!(d.class_slots[2], 1);
        // Content-addressing: an inline spelling of a preset shares its
        // fingerprint.
        let epic = inline_machine(
            8,
            None,
            [Some(4), Some(4), Some(2)],
            grip_machine::LatencyTable { alu: 1, fpu: 4, fpu_long: 16, mem: 2, branch: 1 },
        );
        assert_eq!(epic.fingerprint(), MachineDesc::epic8().fingerprint());
    }

    #[test]
    fn fault_names_each_broken_rule() {
        // n = 48 at unwind 10: a trip of 43 forces 43 / 10 - 2 = 2 full
        // traversals, so a bound of 4 rows needs at least 8 cycles.
        let req = ScheduleRequest::new("LL1", 48, MachineSpec::Preset("epic8".into()));
        let mut clean = ScheduleResponse::failure(&req, String::new());
        clean.ok = true;
        clean.error = None;
        clean.verified = true;
        clean.unwind = 10;
        clean.schedule_rows = 4;
        clean.sched_cycles = 8;
        clean.audit = Some(grip_audit::AuditReport::default());
        clean.bounds = Some(BoundCertificate {
            bound_cycles: 4,
            binding_constraint: grip_bounds::BindingConstraint::RecMii,
            gap_pct: 0.0,
            at_bound: true,
        });
        assert_eq!(clean.fault(), None);
        let bare = ScheduleResponse { audit: None, bounds: None, ..clean.clone() };
        assert_eq!(bare.fault(), None, "only what a response carries is checked");

        let dirty = grip_audit::AuditReport {
            diagnostics: vec![grip_audit::Diagnostic {
                code: grip_audit::AuditCode::LatencyShadow,
                row: 2,
                op: None,
                register: None,
                message: "read in a latency shadow".into(),
            }],
            ..Default::default()
        };
        let faults: [(&str, ScheduleResponse); 7] = [
            ("not ok", ScheduleResponse { ok: false, ..clean.clone() }),
            ("unverified", ScheduleResponse { verified: false, ..clean.clone() }),
            ("a stall", ScheduleResponse { sched_stalls: 1, ..clean.clone() }),
            ("a template violation", ScheduleResponse { template_violations: 1, ..clean.clone() }),
            ("a dirty audit", ScheduleResponse { audit: Some(dirty), ..clean.clone() }),
            ("rows below the bound", ScheduleResponse { schedule_rows: 3, ..clean.clone() }),
            (
                "cycles below the traversal floor",
                ScheduleResponse { sched_cycles: 7, ..clean.clone() },
            ),
        ];
        for (what, r) in faults {
            let fault = r.fault().unwrap_or_else(|| panic!("{what} passed"));
            assert!(fault.starts_with("LL1 on epic8: "), "{what}: {fault}");
        }
    }

    #[test]
    fn option_bits_distinguish_all_toggles() {
        let mut seen = std::collections::HashSet::new();
        for fold in [false, true] {
            for gap in [false, true] {
                for dce in [false, true] {
                    for roll in [false, true] {
                        let o = EngineOptions {
                            fold_inductions: fold,
                            gap_prevention: gap,
                            dce,
                            try_roll: roll,
                        };
                        assert!(seen.insert(o.bits()), "bits collide: {o:?}");
                    }
                }
            }
        }
        assert_eq!(EngineOptions::default().bits(), 0b0111);
    }
}
