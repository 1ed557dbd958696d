//! Compare two machine sweeps (`BENCH_machines.json`) and gate on
//! regressions: the CI perf layer's semantic diff.
//!
//! The committed sweep is the baseline; a fresh sweep is the candidate.
//! Every (machine × kernel) cell is held to:
//!
//! - **bit-identity fields**: `verified`, `audit_clean`,
//!   `template_violations == 0` and `sched_stalls == 0` may never regress
//!   from a passing baseline;
//! - **schedule quality**: `sched_cycles` and `schedule_rows` may not
//!   exceed the baseline (an optimization PR must not buy wall time with
//!   cycles);
//! - **scheduler work**: `grip_iterations` (pick rounds) may not exceed
//!   the baseline — the one cost figure that repeats exactly from run to
//!   run, so it gates where wall times cannot;
//! - **bound soundness**: a candidate cell may not undercut its own
//!   bound certificate, in rows or in cycles (`grip_service::bound_sound`).
//!
//! Wall-clock fields (`*_us` and the `sched_phases` totals of the pick
//! loop) are *reported* as deltas but not gated here — timing is
//! machine-dependent.
//!
//! Usage: `bench-diff <baseline.json> <candidate.json>`
//! Exits nonzero on any gate breach, printing a regression table.

#![forbid(unsafe_code)]

use grip_bench::json::Json;
use grip_bounds::BoundCertificate;
use grip_service::bound_sound;
use std::collections::BTreeMap;

/// The per-cell fields the machines diff consumes.
#[derive(Clone, Debug)]
struct Cell {
    verified: bool,
    audit_clean: bool,
    template_violations: i64,
    sched_stalls: i64,
    sched_cycles: i64,
    schedule_rows: i64,
    /// The cell passes `bound_sound` against its own certificate.
    bound_sound: bool,
    hazard_delay_rows: i64,
    hazard_backfills: i64,
    grip_iterations: i64,
    stage_us: BTreeMap<&'static str, f64>,
    /// The cell's `sched_phases`, in [`PHASES`] order, when it has them.
    phase_us: Option<[f64; 4]>,
}

const STAGES: [&str; 7] =
    ["prepare_us", "schedule_us", "hazards_us", "verify_us", "audit_us", "bounds_us", "wall_us"];

/// The pick-loop phases of a cell's `sched_phases` object.
const PHASES: [&str; 4] = ["cand_refresh_us", "legality_us", "commit_us", "dead_sweep_us"];

fn load_doc(path: &str) -> Json {
    let src = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("bench-diff: cannot read {path}: {e}"));
    Json::parse(&src).unwrap_or_else(|e| panic!("bench-diff: {path}: {e}"))
}

fn load_cells(path: &str, doc: &Json) -> BTreeMap<(String, String), Cell> {
    let cells = doc.get("cells").and_then(Json::as_arr).unwrap_or_else(|| {
        panic!("bench-diff: {path}: no `cells` array — not a BENCH_machines.json?")
    });
    let n = doc.get("trip_count").and_then(Json::as_i64).unwrap_or(0);
    let mut out = BTreeMap::new();
    for c in cells {
        let s = |k: &str| c.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        let i = |k: &str| c.get(k).and_then(Json::as_i64).unwrap_or(0);
        let b = |k: &str| c.get(k).and_then(Json::as_bool).unwrap_or(false);
        let f = |k: &str| c.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        out.insert(
            (s("machine"), s("kernel")),
            Cell {
                verified: b("verified"),
                audit_clean: b("audit_clean"),
                template_violations: i("template_violations"),
                sched_stalls: i("sched_stalls"),
                sched_cycles: i("sched_cycles"),
                schedule_rows: i("schedule_rows"),
                bound_sound: BoundCertificate::from_json(c).is_ok_and(|cert| {
                    let (unwind, rows) = (i("unwind") as usize, i("schedule_rows") as usize);
                    bound_sound(&cert, n, unwind, rows, i("sched_cycles") as u64)
                }),
                hazard_delay_rows: i("hazard_delay_rows"),
                hazard_backfills: i("hazard_backfills"),
                grip_iterations: i("grip_iterations"),
                stage_us: STAGES.iter().map(|&k| (k, f(k))).collect(),
                phase_us: c
                    .get("sched_phases")
                    .map(|p| PHASES.map(|k| p.get(k).and_then(Json::as_f64).unwrap_or(0.0))),
            },
        );
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let [_, base_path, cand_path] = &args[..] else {
        eprintln!("usage: bench-diff <baseline.json> <candidate.json>");
        std::process::exit(2);
    };
    let base_doc = load_doc(base_path);
    let cand_doc = load_doc(cand_path);
    let base = load_cells(base_path, &base_doc);
    let cand = load_cells(cand_path, &cand_doc);

    let mut regressions: Vec<String> = Vec::new();

    for k in base.keys() {
        if !cand.contains_key(k) {
            regressions.push(format!("{}/{}: cell missing from candidate", k.0, k.1));
        }
    }
    for k in cand.keys() {
        if !base.contains_key(k) {
            println!("note: {}/{} is new in the candidate (no baseline)", k.0, k.1);
        }
    }
    // The walls depend on the host's core count and on the compiler: say
    // when the two sweeps differ in either.
    for key in ["nproc", "rustc"] {
        let (b, c) = (base_doc.get(key), cand_doc.get(key));
        if b != c {
            let show = |v: Option<&Json>| v.map_or("absent".to_string(), Json::line);
            println!("note: {key} differs: {} -> {}", show(b), show(c));
        }
    }

    // Per-stage and per-phase totals (reported, not gated). Phases are
    // summed over the cells that carry them on both sides.
    let mut tot_base: BTreeMap<&str, f64> = BTreeMap::new();
    let mut tot_cand: BTreeMap<&str, f64> = BTreeMap::new();
    let (mut phase_base, mut phase_cand, mut phase_cells) = ([0.0; 4], [0.0; 4], 0);

    println!(
        "{:<10} {:<6} {:>10} {:>10} {:>6} {:>6}  {:>12} {:>12} {:>7}",
        "machine",
        "loop",
        "cyc base",
        "cyc cand",
        "rows b",
        "rows c",
        "sched_us b",
        "sched_us c",
        "ratio"
    );
    for (k, b) in &base {
        let Some(c) = cand.get(k) else { continue };
        let cell = format!("{}/{}", k.0, k.1);
        // Bit-identity gates: a passing baseline field may never regress.
        if b.verified && !c.verified {
            regressions.push(format!("{cell}: verified regressed (true -> false)"));
        }
        if b.audit_clean && !c.audit_clean {
            regressions.push(format!("{cell}: audit_clean regressed (true -> false)"));
        }
        if b.template_violations == 0 && c.template_violations > 0 {
            regressions
                .push(format!("{cell}: {} template violations (was 0)", c.template_violations));
        }
        if b.sched_stalls == 0 && c.sched_stalls > 0 {
            regressions.push(format!("{cell}: {} interlock stalls (was 0)", c.sched_stalls));
        }
        // Schedule quality gates.
        if c.sched_cycles > b.sched_cycles {
            regressions.push(format!(
                "{cell}: sched_cycles regressed {} -> {}",
                b.sched_cycles, c.sched_cycles
            ));
        }
        if c.schedule_rows > b.schedule_rows {
            regressions.push(format!(
                "{cell}: schedule_rows regressed {} -> {}",
                b.schedule_rows, c.schedule_rows
            ));
        }
        if c.grip_iterations > b.grip_iterations {
            regressions.push(format!(
                "{cell}: grip_iterations regressed {} -> {}",
                b.grip_iterations, c.grip_iterations
            ));
        }
        // Bound soundness: the candidate may not undercut its own proof.
        if !c.bound_sound {
            regressions.push(format!(
                "{cell}: bound violation: {} rows and {} cycles undercut the proven bound",
                c.schedule_rows, c.sched_cycles
            ));
        }
        for &s in &STAGES {
            *tot_base.entry(s).or_default() += b.stage_us[s];
            *tot_cand.entry(s).or_default() += c.stage_us[s];
        }
        if let (Some(pb), Some(pc)) = (b.phase_us, c.phase_us) {
            for i in 0..PHASES.len() {
                phase_base[i] += pb[i];
                phase_cand[i] += pc[i];
            }
            phase_cells += 1;
        }
        let ratio = if c.stage_us["schedule_us"] > 0.0 {
            b.stage_us["schedule_us"] / c.stage_us["schedule_us"]
        } else {
            f64::NAN
        };
        println!(
            "{:<10} {:<6} {:>10} {:>10} {:>6} {:>6}  {:>12.0} {:>12.0} {:>6.1}x",
            k.0,
            k.1,
            b.sched_cycles,
            c.sched_cycles,
            b.schedule_rows,
            c.schedule_rows,
            b.stage_us["schedule_us"],
            c.stage_us["schedule_us"],
            ratio,
        );
    }

    println!("\nper-stage totals (baseline -> candidate):");
    for &s in &STAGES {
        print_total(s, tot_base.get(s).copied().unwrap_or(0.0), tot_cand[s]);
    }
    let (db, dc) = (
        base.values().map(|c| c.hazard_delay_rows).sum::<i64>(),
        cand.values().map(|c| c.hazard_delay_rows).sum::<i64>(),
    );
    let (bb, bc) = (
        base.values().map(|c| c.hazard_backfills).sum::<i64>(),
        cand.values().map(|c| c.hazard_backfills).sum::<i64>(),
    );
    println!("  delay rows   {db} -> {dc}; backfills {bb} -> {bc}");
    let (pb, pc) = (
        base.values().map(|c| c.grip_iterations).sum::<i64>(),
        cand.values().map(|c| c.grip_iterations).sum::<i64>(),
    );
    println!("  grip_iterations {pb} -> {pc}");
    if phase_cells > 0 {
        println!("\npick-loop phase totals over {phase_cells} cells (baseline -> candidate):");
        for (i, s) in PHASES.iter().enumerate() {
            print_total(s, phase_base[i], phase_cand[i]);
        }
    }

    if regressions.is_empty() {
        println!("\nbench-diff: no regressions across {} cells.", base.len());
    } else {
        println!("\nREGRESSIONS:");
        for r in &regressions {
            println!("  {r}");
        }
        std::process::exit(1);
    }
}

/// One `baseline -> candidate` total line, in ms, with the speed ratio.
fn print_total(name: &str, base_us: f64, cand_us: f64) {
    let ratio = if cand_us > 0.0 { base_us / cand_us } else { f64::NAN };
    println!(
        "  {name:<16} {:>12.1} ms -> {:>12.1} ms   ({ratio:>6.1}x)",
        base_us / 1e3,
        cand_us / 1e3
    );
}
