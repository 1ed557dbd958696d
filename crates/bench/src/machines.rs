//! The machine-preset sweep: every ready-made [`MachineDesc`] preset over
//! LL1–LL14, with latency-aware simulation of both the sequential and the
//! scheduled program, feeding `BENCH_machines.json`.
//!
//! Unlike Table 1 (loop-body CPI ratios under the paper's unit-latency
//! model), this sweep reports *wall-clock* model cycles: the simulator
//! charges interlock stalls for multi-cycle latencies, so a preset's
//! speedup reflects both the packing the scheduler achieved and the
//! hazards it avoided.

use crate::json::Json;
use crate::unwind_for;
use grip_core::PhaseTimes;
use grip_kernels::Kernel;
use grip_machine::MachineDesc;
use grip_pipeline::{perfect_pipeline, PipelineOptions};
use grip_vm::{EquivReport, Machine};

/// One (machine × kernel) measurement.
#[derive(Clone, Debug)]
pub struct MachineCell {
    /// Preset name (`uniform4`, `clustered`, …).
    pub machine: String,
    /// Kernel name (`LL1`…).
    pub kernel: String,
    /// Model cycles (instructions + stalls) of the sequential program.
    pub seq_cycles: u64,
    /// Model cycles of the scheduled program.
    pub sched_cycles: u64,
    /// Stall cycles charged to the scheduled program.
    pub sched_stalls: u64,
    /// Wall-clock speedup: `seq_cycles / sched_cycles`.
    pub speedup: f64,
    /// Loop-body CPI speedup from the pipeline report (unit-cycle view).
    pub body_speedup: f64,
    /// Steady rows of the scheduled window (the schedule length).
    pub schedule_rows: usize,
    /// Scheduled program matched the sequential program bitwise.
    pub verified: bool,
    /// Issue-template violations observed while simulating the schedule.
    pub template_violations: u64,
    /// Delay rows the hazard post-pass had to insert — the padding the
    /// scheduler's placement left behind (lower is better).
    pub hazard_delay_rows: u64,
    /// Ready ops the post-pass backfilled into that padding.
    pub hazard_backfills: u64,
    /// Per-stage self times for this cell (prepare/schedule/hazards/
    /// verify plus the measured wall), from the grip-obs span collector.
    pub timings: grip_obs::StageBreakdown,
    /// The scheduler's pick-loop phase profile for this cell (candidate
    /// refresh / legality probes / move commits / dead-row sweeps) —
    /// self-times inside the "schedule" stage, observation-only.
    pub phases: PhaseTimes,
    /// The grip-audit static verifier found no diagnostics.
    pub audit_clean: bool,
    /// How many diagnostics it found (0 is the gate).
    pub audit_diagnostics: usize,
    /// The `grip-bounds` certificate for this cell's steady window.
    pub bounds: grip_bounds::BoundCertificate,
    /// Candidate-selection rounds the scheduler ran (`stats.picks`): the
    /// one per-cell cost figure that repeats exactly from run to run.
    pub grip_iterations: u64,
    /// Unwind factor the cell was scheduled with (scales the bound to
    /// whole-program cycles for the soundness gate).
    pub unwind: usize,
}

impl MachineCell {
    /// Serialize for `BENCH_machines.json`.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("machine", self.machine.as_str())
            .field("kernel", self.kernel.as_str())
            .field("seq_cycles", self.seq_cycles)
            .field("sched_cycles", self.sched_cycles)
            .field("sched_stalls", self.sched_stalls)
            .field("speedup", self.speedup)
            .field("body_speedup", self.body_speedup)
            .field("schedule_rows", self.schedule_rows)
            .field("verified", self.verified)
            .field("template_violations", self.template_violations)
            .field("hazard_delay_rows", self.hazard_delay_rows)
            .field("hazard_backfills", self.hazard_backfills)
            .field("audit_clean", self.audit_clean)
            .field("audit_diagnostics", self.audit_diagnostics as u64)
            .field("bound_cycles", self.bounds.bound_cycles)
            .field("binding_constraint", self.bounds.binding_constraint.as_str())
            .field("gap_pct", self.bounds.gap_pct)
            .field("at_bound", self.bounds.at_bound)
            .field("grip_iterations", self.grip_iterations)
            .field("unwind", self.unwind as u64)
            .field("prepare_us", self.timings.prepare_ns as f64 / 1000.0)
            .field("schedule_us", self.timings.schedule_ns as f64 / 1000.0)
            .field("hazards_us", self.timings.hazards_ns as f64 / 1000.0)
            .field("verify_us", self.timings.verify_ns as f64 / 1000.0)
            .field("audit_us", self.timings.audit_ns as f64 / 1000.0)
            .field("bounds_us", self.timings.bounds_ns as f64 / 1000.0)
            .field("wall_us", self.timings.total_ns as f64 / 1000.0)
            .field(
                "sched_phases",
                Json::obj()
                    .field("cand_refresh_us", self.phases.cand_refresh_ns as f64 / 1000.0)
                    .field("legality_us", self.phases.legality_ns as f64 / 1000.0)
                    .field("commit_us", self.phases.commit_ns as f64 / 1000.0)
                    .field("dead_sweep_us", self.phases.dead_sweep_ns as f64 / 1000.0),
            )
    }
}

/// Display name for a preset (`uniform` widths get their width appended).
pub fn preset_label(desc: &MachineDesc) -> String {
    if desc.name == "uniform" {
        format!("uniform{}", desc.width)
    } else {
        desc.name.to_string()
    }
}

/// Measure one kernel on one machine. The whole measurement runs under a
/// grip-obs stage collector, so the cell carries a per-stage breakdown
/// (prepare/schedule/hazards from the pipeline's own spans, verify from
/// the model runs below) that decomposes the cell's wall time.
pub fn measure_machine(k: &Kernel, n: i64, desc: MachineDesc) -> MachineCell {
    let ((rep, verified, seq, sched, unwind), stage_timings) = grip_obs::collect(|| {
        let (g0, mut g) = {
            // Kernel construction folds into the "prepare" bucket of the
            // breakdown, like the engine's build span.
            let _span = grip_obs::span!("build");
            let g0 = (k.build)(n);
            let g = g0.clone();
            (g0, g)
        };
        let width = desc.width.min(8);
        let unwind = unwind_for(width);
        let rep = perfect_pipeline(
            &mut g,
            PipelineOptions {
                unwind,
                machine: desc,
                fold_inductions: true,
                gap_prevention: true,
                dce: true,
                try_roll: false,
                // Every cell is double-checked: VM simulation below,
                // grip-audit static verification here.
                audit: true,
            },
        );

        let _span = grip_obs::span!("verify");
        let mut m0 = Machine::for_graph(&g0);
        (k.init)(&g0, &mut m0, n);
        let seq = m0.run_model(&g0, &desc);
        let mut m1 = Machine::for_graph(&g);
        (k.init)(&g, &mut m1, n);
        let sched = m1.run_model(&g, &desc);

        let verified = match (&seq, &sched) {
            (Ok(_), Ok(_)) => EquivReport::compare(&g0, &m0, &m1).is_equal(),
            _ => false,
        };
        (rep, verified, seq, sched, unwind)
    });
    let seq_cycles = seq.map(|s| s.total_cycles()).unwrap_or(0);
    // The hazard-resolution post-pass makes stall-freedom a scheduler
    // invariant; the model run is the independent cross-check, and any
    // residue is reported per cell (the `machines` bin exits nonzero on
    // it) rather than aborting the sweep mid-way.
    let (sched_cycles, sched_stalls, template_violations) = sched
        .map(|s| (s.total_cycles(), s.stall_cycles, s.template_violations))
        .unwrap_or((0, 0, 0));
    MachineCell {
        machine: preset_label(&desc),
        kernel: k.name.to_string(),
        seq_cycles,
        sched_cycles,
        sched_stalls,
        speedup: if sched_cycles > 0 { seq_cycles as f64 / sched_cycles as f64 } else { f64::NAN },
        body_speedup: rep.speedup().unwrap_or(f64::NAN),
        schedule_rows: rep.steady.len(),
        verified,
        template_violations,
        hazard_delay_rows: rep.stats.hazard_delay_rows,
        hazard_backfills: rep.stats.hazard_backfills,
        timings: grip_obs::StageBreakdown::from_timings(&stage_timings),
        phases: rep.phases,
        audit_clean: rep.audit.as_ref().is_some_and(|a| a.is_clean()),
        audit_diagnostics: rep.audit.as_ref().map_or(0, |a| a.diagnostics.len()),
        bounds: rep.bounds,
        grip_iterations: rep.stats.picks,
        unwind,
    }
}

/// Sweep every preset over every kernel on the service worker pool, one
/// shard per kernel (the same layout the old scoped-thread loop had).
pub fn machine_table(n: i64, parallel: bool) -> Vec<MachineCell> {
    let ks = grip_kernels::kernels();
    let presets = MachineDesc::presets();
    let sweep_kernel = move |k: &'static Kernel| -> Vec<MachineCell> {
        presets.iter().map(|&d| measure_machine(k, n, d)).collect()
    };
    if !parallel {
        return ks.iter().flat_map(sweep_kernel).collect();
    }
    let pool: grip_service::pool::ShardedPool<&'static Kernel, Vec<MachineCell>> =
        grip_service::pool::ShardedPool::new(ks.len(), |_| (), move |_, _, k, _| sweep_kernel(k));
    pool.map_batch(ks.iter().enumerate()).into_iter().flatten().collect()
}

/// Re-measure, serially, any cell whose stage self-times fail to account
/// for `min_cover` of its wall, and keep the re-measurement when it
/// passes. The parallel sweep oversubscribes small machines (14 worker
/// threads; CI runners have 1–2 cores), so one unlucky preemption landing
/// *between* two stage spans parks the thread behind every other worker
/// and shows up as tens of milliseconds of unaccounted wall — pure
/// scheduling noise. A genuinely missing span fails serial re-measurement
/// exactly the same way, so the gate keeps its teeth. Schedules are
/// deterministic, so only the timing fields change; returns how many
/// cells were re-measured.
pub fn remeasure_unaccounted(cells: &mut [MachineCell], n: i64, min_cover: f64) -> usize {
    let ks = grip_kernels::kernels();
    let presets = MachineDesc::presets();
    let mut redone = 0;
    for cell in cells.iter_mut() {
        let covered = |c: &MachineCell| {
            c.timings.total_ns < 1_000_000
                || c.timings.stage_sum_ns() as f64 >= min_cover * c.timings.total_ns as f64
        };
        if covered(cell) {
            continue;
        }
        let (Some(k), Some(&desc)) = (
            ks.iter().find(|k| k.name == cell.kernel),
            presets.iter().find(|d| preset_label(d) == cell.machine),
        ) else {
            continue;
        };
        for _ in 0..2 {
            let fresh = measure_machine(k, n, desc);
            let ok = covered(&fresh);
            *cell = fresh;
            redone += 1;
            if ok {
                break;
            }
        }
    }
    redone
}

/// The `rustc --version` line of the `rustc` on `PATH`, or `unknown`.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|line| line.trim().to_string())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The whole sweep as one JSON document. It records the host's core
/// count (`nproc`), whether the sweep ran serially (`seq`) and the
/// compiler (`rustc`), because the per-cell walls depend on all three.
pub fn machines_json(n: i64, cells: &[MachineCell], serial: bool) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    Json::obj()
        .field("bench", "machines")
        .field("trip_count", n)
        .field("nproc", nproc)
        .field("seq", serial)
        .field("rustc", rustc_version())
        .field(
            "machines",
            MachineDesc::presets()
                .iter()
                .map(|d| {
                    Json::obj()
                        .field("name", preset_label(d))
                        .field("width", if d.width == usize::MAX { -1i64 } else { d.width as i64 })
                        .field("alu", slot_json(d, 0))
                        .field("fpu", slot_json(d, 1))
                        .field("mem", slot_json(d, 2))
                        .field("max_latency", u64::from(d.max_latency()))
                })
                .collect::<Vec<_>>(),
        )
        .field("cells", cells.iter().map(MachineCell::to_json).collect::<Vec<_>>())
}

fn slot_json(d: &MachineDesc, idx: usize) -> i64 {
    if d.class_slots[idx] == usize::MAX {
        -1
    } else {
        d.class_slots[idx] as i64
    }
}

/// Human-readable sweep table (one row per machine × kernel).
pub fn render_machines(cells: &[MachineCell]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<10} {:<6} {:>10} {:>10} {:>8} {:>8} {:>6}  ok",
        "machine", "loop", "seq cyc", "sched cyc", "stalls", "speedup", "rows"
    );
    for c in cells {
        let _ = writeln!(
            s,
            "{:<10} {:<6} {:>10} {:>10} {:>8} {:>8.2} {:>6}  {}",
            c.machine,
            c.kernel,
            c.seq_cycles,
            c.sched_cycles,
            c.sched_stalls,
            c.speedup,
            c.schedule_rows,
            if c.verified && c.template_violations == 0 && c.sched_stalls == 0 {
                "yes"
            } else {
                "NO"
            },
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cell_measures_and_verifies() {
        let k = grip_kernels::kernels().iter().find(|k| k.name == "LL12").unwrap();
        let cell = measure_machine(k, 24, MachineDesc::clustered());
        assert!(cell.verified, "{cell:?}");
        assert_eq!(cell.template_violations, 0, "{cell:?}");
        assert_eq!(cell.sched_stalls, 0, "schedules must be stall-free: {cell:?}");
        assert!(cell.speedup > 1.0, "{cell:?}");
        assert!(cell.schedule_rows > 0);
        assert!(cell.phases.total_ns() > 0, "pick-loop phase profile is empty: {cell:?}");
        let json = cell.to_json().line();
        assert!(json.contains("\"sched_phases\""), "{json}");
    }

    #[test]
    fn preset_labels_distinguish_uniform_widths() {
        assert_eq!(preset_label(&MachineDesc::uniform(4)), "uniform4");
        assert_eq!(preset_label(&MachineDesc::epic8()), "epic8");
    }
}
