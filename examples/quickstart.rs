//! Quickstart: build a loop, pipeline it with GRiP for a 4-wide VLIW,
//! verify semantics with the simulator, and inspect the schedule.
//!
//! Run with: `cargo run --example quickstart`

use grip::prelude::*;

fn main() {
    // y[k] = y[k] + 2.5*x[k] for k in 0..64 — a classic saxpy loop.
    let n = 64i64;
    let mut b = ProgramBuilder::new();
    let x = b.array("x", (n + 16) as usize);
    let y = b.array("y", (n + 16) as usize);
    let k = b.named_reg("k");
    b.const_i(k, 0);
    b.begin_loop();
    let t = b.load("t", x, Operand::Reg(k), 0);
    let u = b.binary("u", OpKind::Mul, Operand::Reg(t), Operand::Imm(Value::F(2.5)));
    let w = b.load("w", y, Operand::Reg(k), 0);
    let v = b.binary("v", OpKind::Add, Operand::Reg(u), Operand::Reg(w));
    b.store(y, Operand::Reg(k), 0, Operand::Reg(v));
    b.iadd_imm(k, k, 1);
    let c = b.binary("c", OpKind::CmpLt, Operand::Reg(k), Operand::Imm(Value::I(n)));
    b.end_loop(c);
    let mut g = b.finish();
    g.live_out = vec![k];
    let g0 = g.clone();

    // Pipeline for 4 functional units.
    let report = perfect_pipeline(
        &mut g,
        PipelineOptions { machine: MachineDesc::uniform(4), ..Default::default() },
    );
    println!("sequential cycles/iteration : {:.1}", report.seq_cpi());
    println!("pipelined  cycles/iteration : {:.2}", report.pipelined_cpi().unwrap());
    println!("loop-body speedup           : {:.2}", report.speedup().unwrap());
    println!(
        "scheduler: {} hops, {} renames, {} dead ops removed",
        report.stats.hops, report.stats.renames, report.stats.dce_removed
    );

    // The steady-state rows, paper-style.
    println!("\nsteady rows (iterations in columns):");
    let iters = report.window.iterations as usize;
    let tab =
        grip::ir::print::tableau(&g, &report.steady[..report.steady.len().min(14)], iters.min(6));
    print!("{}", grip::ir::print::render_tableau(&tab, iters.min(6)));

    // Prove the transformation exact: run both programs on the same input.
    let setup = |m: &mut Machine| {
        let xs: Vec<f64> = (0..n + 16).map(|i| (i as f64).cos()).collect();
        let ys: Vec<f64> = (0..n + 16).map(|i| i as f64 * 0.125).collect();
        m.set_array_f(x, &xs);
        m.set_array_f(y, &ys);
    };
    let mut m0 = Machine::for_graph(&g0);
    setup(&mut m0);
    let s0 = m0.run(&g0).expect("sequential runs");
    let mut m1 = Machine::for_graph(&g);
    setup(&mut m1);
    let s1 = m1.run(&g).expect("pipelined runs");
    assert!(EquivReport::compare(&g0, &m0, &m1).is_equal(), "must be bitwise identical");
    println!(
        "\nsimulated: {} -> {} cycles (measured speedup {:.2}), outputs bitwise identical",
        s0.cycles,
        s1.cycles,
        s0.cycles as f64 / s1.cycles as f64
    );
}
