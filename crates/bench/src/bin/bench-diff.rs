//! Compare two benchmark documents and gate on regressions: the CI perf
//! layer's semantic diff.
//!
//! The committed sweep is the baseline; a fresh sweep is the candidate.
//! The diff dispatches on the document's top-level `bench` field:
//!
//! **`machines`** (`BENCH_machines.json`) — every (machine × kernel)
//! cell is held to:
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
//!   `bound_cycles` certificate.
//!
//! **`service`** (`BENCH_service.json`) — the service-path gates:
//!
//! - the candidate must report `verification_failures == 0`;
//! - the cache hit rate may not drop below the baseline (beyond a 1%
//!   absolute tolerance — the sweep's shuffle order is seeded, so the
//!   hit/miss split is deterministic for matching parameters).
//!
//! Wall-clock fields (`*_us`, the `sched_phases` totals of the pick loop,
//! `requests_per_sec`, cold-stage p50/p99) are *reported* as deltas but
//! not gated here — timing is machine-dependent.
//!
//! Usage: `bench-diff <baseline.json> <candidate.json>`
//! Exits nonzero on any gate breach, printing a regression table.

#![forbid(unsafe_code)]

use grip_bench::json::Json;
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
    bound_cycles: i64,
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

/// The cold-path stages `BENCH_service.json` reports p50/p99 for.
const SERVICE_STAGES: [&str; 6] = ["prepare", "schedule", "hazards", "verify", "audit", "bounds"];

fn load_doc(path: &str) -> Json {
    let src = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("bench-diff: cannot read {path}: {e}"));
    Json::parse(&src).unwrap_or_else(|e| panic!("bench-diff: {path}: {e}"))
}

fn load_cells(path: &str, doc: &Json) -> BTreeMap<(String, String), Cell> {
    let cells = doc.get("cells").and_then(Json::as_arr).unwrap_or_else(|| {
        panic!("bench-diff: {path}: no `cells` array — not a BENCH_machines.json?")
    });
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
                bound_cycles: i("bound_cycles"),
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
    let kind = |doc: &Json| doc.get("bench").and_then(Json::as_str).map(str::to_string);
    let (bk, ck) = (kind(&base_doc), kind(&cand_doc));
    if bk != ck {
        eprintln!(
            "bench-diff: document kinds differ: {base_path} is {bk:?}, {cand_path} is {ck:?}"
        );
        std::process::exit(2);
    }
    match bk.as_deref() {
        Some("service") => diff_service(&base_doc, &cand_doc),
        // `machines` documents predate the `bench` tag; anything with a
        // `cells` array takes the machines path.
        _ => diff_machines(base_path, &base_doc, cand_path, &cand_doc),
    }
}

/// Diff two `BENCH_service.json` documents: gate verification failures
/// and the cache hit rate, report throughput and per-stage latency drift.
fn diff_service(base: &Json, cand: &Json) {
    let f = |doc: &Json, k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let i = |doc: &Json, k: &str| doc.get(k).and_then(Json::as_i64).unwrap_or(0);

    let mut regressions: Vec<String> = Vec::new();

    let failures = i(cand, "verification_failures");
    if failures != 0 {
        regressions.push(format!("candidate reports {failures} verification failures (want 0)"));
    }
    // The hit rate is a function of the sweep shape (repeat - 1 of every
    // `repeat` requests per cell hit), so the no-drop gate is only
    // like-for-like when the parameters match; otherwise it degrades to
    // a reported delta.
    let same_params =
        i(base, "trip_count") == i(cand, "trip_count") && i(base, "repeat") == i(cand, "repeat");
    let (hr_b, hr_c) = (f(base, "cache_hit_rate"), f(cand, "cache_hit_rate"));
    if same_params && hr_c + 0.01 < hr_b {
        regressions.push(format!(
            "cache hit rate dropped {:.1}% -> {:.1}% (caches stopped converging?)",
            100.0 * hr_b,
            100.0 * hr_c
        ));
    }
    if !same_params {
        println!(
            "note: sweep parameters differ (n {} repeat {} -> n {} repeat {}); \
             hit-rate gate skipped, drift below is not like-for-like",
            i(base, "trip_count"),
            i(base, "repeat"),
            i(cand, "trip_count"),
            i(cand, "repeat"),
        );
    }

    let rps = (f(base, "requests_per_sec"), f(cand, "requests_per_sec"));
    let ratio = if rps.0 > 0.0 { rps.1 / rps.0 } else { f64::NAN };
    println!(
        "requests/s   {:>10.1} -> {:>10.1}   ({ratio:>5.2}x)   hit rate {:>5.1}% -> {:>5.1}%",
        rps.0,
        rps.1,
        100.0 * hr_b,
        100.0 * hr_c
    );
    println!(
        "overall p50  {:>10.1} us -> {:>10.1} us; p99 {:>12.1} us -> {:>12.1} us",
        f(base, "p50_us"),
        f(cand, "p50_us"),
        f(base, "p99_us"),
        f(cand, "p99_us"),
    );
    println!("\ncold-stage latency drift (baseline -> candidate, not gated):");
    println!(
        "  {:<10} {:>12} {:>12} {:>7}   {:>14} {:>14} {:>7}",
        "stage", "p50 b", "p50 c", "", "p99 b", "p99 c", ""
    );
    for stage in SERVICE_STAGES {
        let pick = |doc: &Json, q: &str| {
            doc.get("stages_cold")
                .and_then(|s| s.get(stage))
                .and_then(|s| s.get(q))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        let (p50b, p50c) = (pick(base, "p50_us"), pick(cand, "p50_us"));
        let (p99b, p99c) = (pick(base, "p99_us"), pick(cand, "p99_us"));
        let r = |b: f64, c: f64| if c > 0.0 { b / c } else { f64::NAN };
        println!(
            "  {stage:<10} {p50b:>12.1} {p50c:>12.1} {:>6.1}x   {p99b:>14.1} {p99c:>14.1} {:>6.1}x",
            r(p50b, p50c),
            r(p99b, p99c),
        );
    }

    report(regressions, "service document");
}

fn diff_machines(base_path: &str, base_doc: &Json, cand_path: &str, cand_doc: &Json) {
    let base = load_cells(base_path, base_doc);
    let cand = load_cells(cand_path, cand_doc);

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
        if c.schedule_rows < c.bound_cycles {
            regressions.push(format!(
                "{cell}: bound violation: {} rows below proven bound {}",
                c.schedule_rows, c.bound_cycles
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

    report(regressions, &format!("{} cells", base.len()));
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

fn report(regressions: Vec<String>, what: &str) {
    if regressions.is_empty() {
        println!("\nbench-diff: no regressions across {what}.");
    } else {
        println!("\nREGRESSIONS:");
        for r in &regressions {
            println!("  {r}");
        }
        std::process::exit(1);
    }
}
