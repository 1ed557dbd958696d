//! Regenerate **Figures 5 and 6**: overlapping iterations of the A,B,C
//! loop; simple pipelining vs Perfect Pipelining.
//!
//! Figure 5 shows four overlapped iterations; Figure 6 contrasts simple
//! pipelining (fixed unwinding, back edge retained) with Perfect
//! Pipelining (the repeating pattern becomes the new loop body). We print
//! the scheduled tableau, the detected pattern, and both speedups —
//! including a simulated run of the re-rolled loop.

#![forbid(unsafe_code)]

use grip_bench::examples::abc_loop;
use grip_machine::MachineDesc;
use grip_pipeline::{perfect_pipeline, PipelineOptions};
use grip_vm::{EquivReport, Machine};

fn main() {
    let n = 96i64;

    // --- Figure 5: four iterations overlapped -------------------------
    let mut g = abc_loop(n);
    let rep = perfect_pipeline(
        &mut g,
        PipelineOptions {
            unwind: 4,
            machine: MachineDesc::UNLIMITED,
            fold_inductions: false,
            gap_prevention: true,
            dce: true,
            try_roll: false,
            audit: false,
        },
    );
    println!("Figure 5: overlapping 4 iterations of the a->b->c loop");
    println!("(a depends on itself across iterations)\n");
    let tab = grip_ir::print::tableau(&g, &rep.steady, 4);
    print!("{}", grip_ir::print::render_tableau(&tab, 4));

    // --- Figure 6: simple vs perfect pipelining ------------------------
    // Simple pipelining: the unwound window with its back edge, measured
    // by full simulation.
    let g0 = abc_loop(n);
    let mut m0 = Machine::for_graph(&g0);
    let seq = m0.run(&g0).expect("sequential runs");

    let mut m1 = Machine::for_graph(&g);
    let simple = m1.run(&g).expect("windowed runs");
    assert!(EquivReport::compare(&g0, &m0, &m1).is_equal());

    // Perfect pipelining: converged pattern + re-rolled loop.
    let mut g2 = abc_loop(n);
    let rep2 = perfect_pipeline(
        &mut g2,
        PipelineOptions {
            unwind: 6,
            machine: MachineDesc::UNLIMITED,
            fold_inductions: false,
            gap_prevention: true,
            dce: true,
            try_roll: true,
            audit: false,
        },
    );
    let pat = rep2.pattern.expect("perfect pipelining converges");
    let rolled = rep2.rolled.clone().expect("requested").expect("rolls");
    let mut m2 = Machine::for_graph(&g2);
    let perfect = m2.run(&g2).expect("rolled runs");
    assert!(EquivReport::compare(&g0, &m0, &m2).is_equal(), "rolled loop must be exact");

    println!("\nFigure 6: pipelining comparison (trip count {n})");
    println!("  sequential           : {:>6} cycles", seq.cycles);
    println!(
        "  simple pipelining    : {:>6} cycles  (speedup {:.2}; 4-unwound window, back edge kept)",
        simple.cycles,
        seq.cycles as f64 / simple.cycles as f64
    );
    println!(
        "  perfect pipelining   : {:>6} cycles  (speedup {:.2}; rolled pattern of {} row(s)/{} iteration(s) + {} rotation row(s))",
        perfect.cycles,
        seq.cycles as f64 / perfect.cycles as f64,
        pat.period_rows,
        pat.period_iters,
        rolled.rotation_rows,
    );
    println!(
        "  steady-state CPI     : {:.2} rows/iteration (loop-body speedup {:.2} -- the paper's metric)",
        pat.cpi,
        rep2.seq_cpi() / pat.cpi
    );
}
