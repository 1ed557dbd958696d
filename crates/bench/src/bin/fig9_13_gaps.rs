//! Regenerate **Figures 9 and 13**: the running example scheduled without
//! gap prevention (maximal migration — gaps grow, no convergence) and with
//! the Gapless-move facility (fixed pattern, the new loop body).

#![forbid(unsafe_code)]

use grip_bench::examples::running_example;
use grip_machine::MachineDesc;
use grip_pipeline::{perfect_pipeline, PipelineOptions};

fn main() {
    let n = 64i64;
    let iters = 6usize;

    // --- Figure 9: dependence-only scheduling --------------------------
    let mut g = running_example(n);
    let rep = perfect_pipeline(
        &mut g,
        PipelineOptions {
            unwind: iters,
            machine: MachineDesc::UNLIMITED,
            fold_inductions: true, // independent streams race ahead
            gap_prevention: false,
            dce: true,
            try_roll: false,
            audit: false,
        },
    );
    println!("Figure 9: pipelined schedule WITHOUT gap prevention");
    println!("(ops move as far as dependences allow; iteration spans tear open)\n");
    let tab = grip_ir::print::tableau(&g, &rep.steady, iters);
    print!("{}", grip_ir::print::render_tableau(&tab, iters));
    // Quantify the gaps.
    let mut gap_rows = 0usize;
    for it in 0..iters as u32 {
        let touched: Vec<bool> = rep
            .steady
            .iter()
            .map(|&r| g.node_ops(r).iter().any(|&(_, o)| g.op(o).iter == it))
            .collect();
        if let (Some(f), Some(l)) =
            (touched.iter().position(|&b| b), touched.iter().rposition(|&b| b))
        {
            gap_rows += touched[f..=l].iter().filter(|&&b| !b).count();
        }
    }
    println!("gap rows inside iteration spans: {gap_rows}");
    println!("pattern: {:?}  (no convergence expected)\n", rep.pattern);

    // --- Figure 13: GRiP with gap prevention ---------------------------
    let mut g2 = running_example(n);
    let rep2 = perfect_pipeline(
        &mut g2,
        PipelineOptions {
            unwind: iters,
            machine: MachineDesc::UNLIMITED,
            fold_inductions: false,
            gap_prevention: true,
            dce: true,
            try_roll: false,
            audit: false,
        },
    );
    println!("Figure 13: final gapless schedule (GRiP with Gapless-move)");
    println!("(convergence: the repeating rows become the new loop body)\n");
    let tab2 = grip_ir::print::tableau(&g2, &rep2.steady, iters);
    print!("{}", grip_ir::print::render_tableau(&tab2, iters));
    match rep2.pattern {
        Some(p) => println!(
            "pattern: rows {}..{} repeat every {} row(s) advancing {} iteration(s) -> CPI {:.2}, loop-body speedup {:.2}",
            p.start,
            p.start + p.period_rows - 1,
            p.period_rows,
            p.period_iters,
            p.cpi,
            rep2.seq_cpi() / p.cpi
        ),
        None => println!("pattern: none (unexpected)"),
    }
}
