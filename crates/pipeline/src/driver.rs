//! The end-to-end Perfect Pipelining driver:
//! unwind → simplify → analyze → GRiP-schedule → detect pattern → (roll).

use crate::pattern::{detect, estimate_cpi, fu_lower_bound, steady_rows, Pattern};
use crate::roll::{roll, RollError, RollOutcome};
use crate::simplify::simplify_inductions;
use crate::unwind::{unwind, Window};
use grip_analysis::{Ddg, RankTable};
use grip_audit::AuditReport;
use grip_bounds::BoundCertificate;
use grip_core::{schedule_region, GripConfig, PhaseTimes, ScheduleStats};
use grip_ir::{Graph, NodeId};
use grip_machine::{FuClass, MachineDesc, UNCAPPED};
use grip_percolate::Ctx;

/// Options for [`perfect_pipeline`].
#[derive(Clone, Copy, Debug)]
pub struct PipelineOptions {
    /// Unwind factor (how many iterations enter the window).
    pub unwind: usize,
    /// The machine to schedule for.
    pub machine: MachineDesc,
    /// Fold unwound induction chains (`k.1 = k.0+1` → `k.1 = k+2`) and
    /// address constants. Required for cross-iteration induction
    /// parallelism (Table 1 configuration); makes the pattern non-periodic
    /// at the operand level, so re-rolling is only possible without it.
    pub fold_inductions: bool,
    /// §3.3 gap prevention (on for Perfect Pipelining; off reproduces the
    /// divergent Figure 9 behaviour).
    pub gap_prevention: bool,
    /// Incremental dead-code removal.
    pub dce: bool,
    /// Attempt to re-roll the detected pattern into a real loop.
    pub try_roll: bool,
    /// Run the `grip-audit` static verifier on the finished schedule and
    /// attach its report. Debug builds audit unconditionally (and assert
    /// the report is clean); this flag opts release builds in.
    pub audit: bool,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            unwind: 8,
            machine: MachineDesc::uniform(4),
            fold_inductions: true,
            gap_prevention: true,
            dce: true,
            try_roll: false,
            audit: false,
        }
    }
}

/// Everything the harness needs to report a pipelined loop.
#[derive(Debug)]
pub struct PipelineReport {
    /// The unwound window bookkeeping (op ancestry, body length).
    pub window: Window,
    /// Scheduler counters.
    pub stats: ScheduleStats,
    /// Full scheduler region after scheduling (steady rows plus exit-path
    /// residues), in order.
    pub region: Vec<NodeId>,
    /// Steady rows after scheduling, in order.
    pub steady: Vec<NodeId>,
    /// The repeating pattern, if the schedule converged exactly.
    pub pattern: Option<Pattern>,
    /// Slope-based steady-state CPI estimate (defined even when the packing
    /// wobbles around a non-integral ops/width ratio).
    pub cpi_estimate: Option<f64>,
    /// Result of re-rolling, when requested.
    pub rolled: Option<Result<RollOutcome, RollError>>,
    /// Static audit of the finished schedule, when requested (always
    /// present in debug builds).
    pub audit: Option<AuditReport>,
    /// Proven lower bound on the steady-window schedule length, with the
    /// achieved-vs-provable gap (`grip-bounds`).
    pub bounds: BoundCertificate,
    /// The scheduler's pick-loop phase profile (candidate refresh /
    /// legality probes / commit / dead-row sweep). Observation-only: not
    /// on the wire, not part of bit-identity.
    pub phases: PhaseTimes,
}

impl PipelineReport {
    /// Sequential cycles per iteration (one-op-per-node original body).
    pub fn seq_cpi(&self) -> f64 {
        self.window.body_len as f64
    }

    /// Steady-state cycles per iteration of the pipelined loop: the
    /// converged pattern's ratio when one exists, otherwise the slope
    /// estimate over the window's middle iterations.
    pub fn pipelined_cpi(&self) -> Option<f64> {
        self.pattern.map(|p| p.cpi).or(self.cpi_estimate)
    }

    /// The paper's loop-body speedup: sequential CPI / pipelined CPI.
    pub fn speedup(&self) -> Option<f64> {
        self.pipelined_cpi().map(|c| self.seq_cpi() / c)
    }
}

/// The machine-independent product of the pre-scheduling stages: the
/// unwound (and induction-simplified) window plus its dependence graph.
///
/// Preparation depends only on `(program, unwind, fold_inductions)` — the
/// machine first matters at [`schedule_window`] — so a `PreparedWindow`
/// (with its graph snapshot) can be cached and replayed against many
/// machine descriptions. The DDG is keyed by op ids, which graph cloning
/// preserves, so one `Ddg` serves every clone of the prepared graph.
pub struct PreparedWindow {
    /// Unwound-window bookkeeping (rows, ancestry, body length).
    pub window: Window,
    /// Dependence graph of the prepared program.
    pub ddg: Ddg,
}

/// Stage 1 of [`perfect_pipeline`]: unwind the canonical loop of `g` by
/// `unwind_factor`, optionally fold the unwound induction arithmetic, and
/// build the dependence graph. Mutates `g` into the pre-scheduling window
/// form; scheduling itself happens in [`schedule_window`].
pub fn prepare(g: &mut Graph, unwind_factor: usize, fold_inductions: bool) -> PreparedWindow {
    let _span = grip_obs::span!("prepare");
    let window = unwind(g, unwind_factor);
    if fold_inductions {
        simplify_inductions(g, &window.rows);
    }
    let ddg = Ddg::build(g, g.entry);
    PreparedWindow { window, ddg }
}

/// Run the full Perfect Pipelining stack on the canonical loop of `g`,
/// in place. The graph remains executable (and observationally equivalent
/// to the input) at every stage; `try_roll` failures leave the scheduled
/// window untouched.
pub fn perfect_pipeline(g: &mut Graph, opts: PipelineOptions) -> PipelineReport {
    let PreparedWindow { window, ddg } = prepare(g, opts.unwind, opts.fold_inductions);
    schedule_window(g, window, &ddg, opts)
}

/// Stage 2 of [`perfect_pipeline`]: GRiP-schedule a prepared window under
/// `opts.machine`, detect the steady pattern, and optionally re-roll.
/// `g` must be the (possibly cloned) graph the window was prepared on;
/// `opts.unwind`/`opts.fold_inductions` are ignored here — they were
/// consumed by [`prepare`].
pub fn schedule_window(
    g: &mut Graph,
    window: Window,
    ddg: &Ddg,
    opts: PipelineOptions,
) -> PipelineReport {
    // The "schedule" stage span covers ranking, GRiP (its own child
    // span), pattern detection, and re-rolling; the hazard post-pass
    // inside GRiP (and after rolling) reports separately as "hazards".
    let _span = grip_obs::span!("schedule");
    let mut ctx = Ctx::new(g, ddg);
    // Latency-aware ranks: chains weighted by issue latency, and — on
    // multi-cycle machines only — the iteration-major stipulation
    // coarsened to pairs, so a long-latency chain from iteration i+1 can
    // start under iteration i's shadow instead of forcing the hazard
    // post-pass to pad the gap afterwards. Unit-latency machines (every
    // `uniform` preset) get the paper's hop-count ranks bit-for-bit.
    let ranks = {
        let desc = &opts.machine;
        let group = if desc.max_latency() > 1 { 2 } else { 1 };
        let gr: &Graph = g;
        RankTable::with_weights_grouped(ddg, true, group, |op| desc.latency_of(gr.op(op).kind))
    };
    let cfg = GripConfig {
        machine: opts.machine,
        gap_prevention: opts.gap_prevention,
        dce: opts.dce,
        speculation: Default::default(),
        trace: false,
    };
    let out = schedule_region(g, &mut ctx, &ranks, cfg, window.rows.clone());
    let region = out.region.clone();
    let steady = steady_rows(g, &region, window.head);
    let pattern = detect(g, &window, &steady);
    let (bounds, cpi_estimate) = certify_window(g, &window, &steady, ddg, &opts.machine);
    let rolled = match (opts.try_roll, pattern) {
        (true, Some(pat)) => {
            // The earliest pattern occurrence may still read fill-defined
            // values whose periodic counterparts only settle a period
            // later; retry one period in.
            //
            // Rotation rows are pure register copies, which issue on the
            // ALU class: their packing budget is the tighter of the total
            // width and the ALU slot cap, or unlimited (0) when neither
            // binds.
            let desc = &opts.machine;
            let budget = desc.width.min(desc.class_slots[FuClass::Alu.index()]);
            let fus = if budget == UNCAPPED { 0 } else { budget };
            let mut attempt = roll(g, &window, &steady, &pat, fus);
            if attempt.is_err() {
                let shifted = Pattern { start: pat.start + pat.period_rows, ..pat };
                if shifted.start + 2 * shifted.period_rows <= steady.len() {
                    attempt = roll(g, &window, &steady, &shifted, fus);
                }
            }
            // Re-rolling rewires the back edge (through the rotation rows)
            // and shortens every cross-back-edge path, so the stall-free
            // invariant the scheduler established must be restored on the
            // rolled loop: the rotation copies read pattern-defined values
            // whose producers may now sit one row away. No-op under unit
            // latencies.
            if attempt.is_ok() {
                grip_core::hazards::pad_hazards(g, &opts.machine);
            }
            Some(attempt)
        }
        _ => None,
    };
    // Independent static verification of whatever the stages above left
    // in the graph — including the re-rolled loop, whose rewired back
    // edge and rotation rows the auditor re-derives from scratch. Debug
    // builds always audit, so every unit/property/bench run in the
    // workspace doubles as an auditor soak; release builds opt in.
    let audit = if opts.audit || cfg!(debug_assertions) {
        let _span = grip_obs::span!("audit");
        let rep = grip_audit::audit_schedule(g, ddg, &opts.machine);
        debug_assert!(rep.is_clean(), "grip-audit found a scheduler bug: {rep}");
        Some(rep)
    } else {
        None
    };
    PipelineReport {
        window,
        stats: out.stats,
        region,
        steady,
        pattern,
        cpi_estimate,
        rolled,
        audit,
        bounds,
        phases: out.phases,
    }
}

/// Certify a scheduled steady window: prove the `grip-bounds` lower bound
/// (under its own "bounds" stage span) and derive the steady-state CPI
/// estimate, clamped from below by the class-aware resource bound. The one
/// shared post-scheduling summary both the Perfect Pipelining driver and
/// the POST baseline report.
pub fn certify_window(
    g: &Graph,
    window: &Window,
    steady: &[NodeId],
    ddg: &Ddg,
    desc: &MachineDesc,
) -> (BoundCertificate, Option<f64>) {
    let bounds = {
        let _span = grip_obs::span!("bounds");
        grip_bounds::certificate(g, steady, ddg, desc)
    };
    let cpi_estimate = estimate_cpi(g, window, steady)
        .map(|c| fu_lower_bound(g, window, steady, desc).map_or(c, |b| c.max(b)));
    (bounds, cpi_estimate)
}
