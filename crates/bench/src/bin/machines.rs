//! Sweep the machine-description presets (`uniform2/4/8`, `clustered`,
//! `mem_bound`, `epic8`) over the Livermore Loops and emit
//! `BENCH_machines.json`: latency-aware model cycles, speedup vs the
//! sequential program on the *same* machine, stalls, and schedule length.
//!
//! Every cell is backed by a bitwise simulation equivalence check, the
//! simulator's issue-template validation, the grip-audit static verifier
//! — any diagnostic fails the sweep — and the grip-bounds soundness gate:
//! no cell may achieve fewer steady rows than its proven lower bound, nor
//! fewer VM cycles than the bound scaled by its full-traversal count.
//!
//! Usage: `machines [trip-count]` (default n = 100). The sweep runs
//! serially, cell after cell, so the per-cell walls it records are
//! comparable from run to run. Any other argument exits 2.

#![forbid(unsafe_code)]

use grip_bench::machines::{machine_table, machines_json, render_machines};

fn main() {
    let n = grip_bench::sweep_args("machines [trip-count]", 100, None);

    eprintln!("machine sweep: n = {n}, 14 kernels × 6 presets …");
    let t0 = std::time::Instant::now();
    let cells = machine_table(n, false);
    eprintln!("measured in {:.1?}\n", t0.elapsed());

    println!("Machine presets over LL1-LL14 (latency-aware model cycles)");
    println!("==========================================================");
    print!("{}", render_machines(&cells));

    let path = "BENCH_machines.json";
    match std::fs::write(path, machines_json(n, &cells).pretty()) {
        Ok(()) => eprintln!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }

    let bad: Vec<&_> = cells
        .iter()
        .filter(|c| {
            !c.verified || c.template_violations > 0 || c.sched_stalls > 0 || !c.audit_clean
        })
        .collect();

    // Bound-soundness gate: the certificate bounds one full traversal of
    // the steady window, so the achieved rows may never undercut it, and
    // neither may the measured wall clock (trips always exceed the unwind
    // here, so at least one full pass runs). Stronger, the trip count —
    // at least `n - 5`, the deepest kernel induction offset (LL4) —
    // forces `trip/unwind - 2` complete steady traversals (slack for the
    // prologue pass and the final partial one), each costing the bound.
    let unsound: Vec<&_> = cells
        .iter()
        .filter(|c| {
            let trip = (n.max(5) - 5) as u64;
            let traversals = if c.unwind > 0 && trip >= c.unwind as u64 {
                (trip / c.unwind as u64).saturating_sub(2).max(1)
            } else {
                0
            };
            (c.schedule_rows as u64) < c.bounds.bound_cycles
                || c.sched_cycles < traversals * c.bounds.bound_cycles
        })
        .collect();

    // Timing gate: the per-stage self times must decompose each cell's
    // wall time — unaccounted time beyond 5% means a stage span is
    // missing. Cells under 1 ms are skipped (timer noise dominates).
    let unaccounted: Vec<&_> = cells
        .iter()
        .filter(|c| c.timings.total_ns >= 1_000_000)
        .filter(|c| (c.timings.stage_sum_ns() as f64) < 0.95 * c.timings.total_ns as f64)
        .collect();

    if bad.is_empty() && unsound.is_empty() && unaccounted.is_empty() {
        let at_bound = cells.iter().filter(|c| c.bounds.at_bound).count();
        println!(
            "\nAll cells verified against sequential execution and audit-clean; \
             no template violations, no interlock stalls; every bound certificate \
             sound ({at_bound} cells at their proven bound); \
             stage timings account for every cell's wall time."
        );
    } else {
        println!("\nVIOLATIONS:");
        for c in bad {
            println!(
                "  {} on {}: verified={} template_violations={} sched_stalls={} \
                 audit_diagnostics={}",
                c.kernel,
                c.machine,
                c.verified,
                c.template_violations,
                c.sched_stalls,
                c.audit_diagnostics
            );
        }
        for c in unsound {
            println!(
                "  {} on {}: bound certificate unsound: rows={} sched_cycles={} \
                 bound_cycles={} unwind={}",
                c.kernel,
                c.machine,
                c.schedule_rows,
                c.sched_cycles,
                c.bounds.bound_cycles,
                c.unwind
            );
        }
        for c in unaccounted {
            println!(
                "  {} on {}: stage sum {:.0} us accounts for <95% of wall {:.0} us",
                c.kernel,
                c.machine,
                c.timings.stage_sum_ns() as f64 / 1000.0,
                c.timings.total_ns as f64 / 1000.0
            );
        }
        std::process::exit(1);
    }
}
