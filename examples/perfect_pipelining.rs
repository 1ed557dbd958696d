//! Perfect Pipelining end to end: converge a loop to its steady pattern,
//! re-roll the pattern into a real loop with a register rotation block,
//! and execute the rolled loop.
//!
//! Run with: `cargo run --example perfect_pipelining`

use grip::prelude::*;

fn main() {
    // A first-order recurrence plus independent work (the paper's running
    // example shape): unfolded inductions keep the pattern operand-periodic
    // so the loop can be *materially* re-rolled.
    let n = 200i64;
    let mut b = ProgramBuilder::new();
    let yarr = b.array("y", (n + 16) as usize);
    let acc = b.named_reg("acc");
    b.const_f(acc, 1.0);
    let k = b.named_reg("k");
    b.const_i(k, 0);
    b.begin_loop();
    b.emit(Operation::new(
        OpKind::Mul,
        Some(acc),
        vec![Operand::Reg(acc), Operand::Imm(Value::F(0.9995))],
    ));
    let t = b.binary("b", OpKind::Add, Operand::Reg(acc), Operand::Imm(Value::F(2.0)));
    let u = b.binary("c", OpKind::Mul, Operand::Reg(t), Operand::Imm(Value::F(3.0)));
    b.store(yarr, Operand::Reg(k), 0, Operand::Reg(u));
    b.iadd_imm(k, k, 1);
    let c = b.binary("cc", OpKind::CmpLt, Operand::Reg(k), Operand::Imm(Value::I(n)));
    b.end_loop(c);
    let mut g = b.finish();
    g.live_out = vec![acc, k];
    let g0 = g.clone();

    let report = perfect_pipeline(
        &mut g,
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
    let pat = report.pattern.expect("converges");
    let rolled = report.rolled.as_ref().expect("roll requested").as_ref().expect("rolls");
    println!(
        "pattern: {} row(s) advancing {} iteration(s) per traversal (CPI {:.2})",
        pat.period_rows, pat.period_iters, pat.cpi
    );
    println!(
        "rolled loop: head {}, {} rotation copies in {} row(s) on the back edge",
        rolled.body_head, rolled.rotation_copies, rolled.rotation_rows
    );

    let mut m0 = Machine::for_graph(&g0);
    let s0 = m0.run(&g0).unwrap();
    let mut m1 = Machine::for_graph(&g);
    let s1 = m1.run(&g).unwrap();
    assert!(EquivReport::compare(&g0, &m0, &m1).is_equal());
    println!(
        "simulated {} -> {} cycles (speedup {:.2}); outputs bitwise identical",
        s0.cycles,
        s1.cycles,
        s0.cycles as f64 / s1.cycles as f64
    );
}
