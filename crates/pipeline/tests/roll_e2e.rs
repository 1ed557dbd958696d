//! End-to-end re-rolling: pipeline a loop, roll the detected pattern into
//! a real loop with a rotation block, and verify by simulation that the
//! rolled program is observationally identical to the original across many
//! trip counts.

use grip_ir::{ArrayId, Graph, OpKind, Operand, ProgramBuilder, RegId, Value};
use grip_machine::MachineDesc;
use grip_pipeline::{perfect_pipeline, PipelineOptions};
use grip_vm::{EquivReport, Machine};

/// The running example: acc chain (LCD), dependent b/c ops, a store, loop
/// control. Unfolded inductions keep the pattern operand-periodic.
fn abc_loop(n: i64) -> (Graph, ArrayId, RegId) {
    let mut b = ProgramBuilder::new();
    let y = b.array("y", (n + 8) as usize);
    let acc = b.named_reg("acc");
    b.const_f(acc, 1.0);
    let k = b.named_reg("k");
    b.const_i(k, 0);
    b.begin_loop();
    b.emit(grip_ir::Operation::new(
        OpKind::Mul,
        Some(acc),
        vec![Operand::Reg(acc), Operand::Imm(Value::F(1.0001))],
    ));
    let t = b.binary("b", OpKind::Add, Operand::Reg(acc), Operand::Imm(Value::F(2.0)));
    let u = b.binary("c", OpKind::Mul, Operand::Reg(t), Operand::Imm(Value::F(3.0)));
    b.store(y, Operand::Reg(k), 0, Operand::Reg(u));
    b.iadd_imm(k, k, 1);
    let c = b.binary("cc", OpKind::CmpLt, Operand::Reg(k), Operand::Imm(Value::I(n)));
    b.end_loop(c);
    let mut g = b.finish();
    g.live_out = vec![acc, k];
    (g, y, acc)
}

fn run(g: &Graph) -> Machine {
    let mut m = Machine::for_graph(g);
    m.run(g).unwrap_or_else(|e| panic!("run failed: {e}\n{}", grip_ir::print::dump(g)));
    m
}

#[test]
fn rolled_loop_is_observationally_identical() {
    // Trip counts hitting every phase of the pattern, including ones that
    // exit during the fill.
    for n in [1i64, 2, 3, 5, 8, 13, 21, 40, 64] {
        let (g0, _, _) = abc_loop(n);
        let mut g = g0.clone();
        let opts = PipelineOptions {
            unwind: 6,
            machine: MachineDesc::UNLIMITED,
            fold_inductions: false, // operand-periodic => rollable
            gap_prevention: true,
            dce: true,
            try_roll: true,
            audit: false,
        };
        let rep = perfect_pipeline(&mut g, opts);
        let pat = rep.pattern.expect("slope-1 pattern must converge");
        assert_eq!(pat.period_iters, 1);
        let rolled =
            rep.rolled.expect("roll requested").unwrap_or_else(|e| panic!("roll failed: {e}"));
        assert!(rolled.rotation_copies > 0, "LCD chains need rotation");
        g.validate().unwrap();

        let m0 = run(&g0);
        let m1 = run(&g);
        let rep2 = EquivReport::compare(&g0, &m0, &m1);
        assert!(rep2.is_equal(), "n={n}: rolled loop diverged: {rep2:?}");
    }
}

#[test]
fn rolled_loop_executes_fewer_cycles() {
    let n = 200i64;
    let (g0, _, _) = abc_loop(n);
    let mut g = g0.clone();
    let opts = PipelineOptions {
        unwind: 6,
        machine: MachineDesc::UNLIMITED,
        fold_inductions: false,
        gap_prevention: true,
        dce: true,
        try_roll: true,
        audit: false,
    };
    let rep = perfect_pipeline(&mut g, opts);
    rep.rolled.expect("requested").expect("rolls");
    let mut m0 = Machine::for_graph(&g0);
    let s0 = m0.run(&g0).unwrap();
    let mut m1 = Machine::for_graph(&g);
    let s1 = m1.run(&g).unwrap();
    // 7 sequential rows per iteration vs ~1 pattern row + 1 rotation row.
    assert!(
        (s1.cycles as f64) < 0.5 * s0.cycles as f64,
        "rolled: {} vs sequential: {}",
        s1.cycles,
        s0.cycles
    );
}

#[test]
fn folded_inductions_refuse_to_roll() {
    // With folded induction immediates the pattern is not operand-periodic;
    // roll must fail loudly rather than miscompile.
    let (_, _, _) = abc_loop(32);
    let (g0, _, _) = abc_loop(32);
    let mut g = g0.clone();
    let opts = PipelineOptions {
        unwind: 8,
        machine: MachineDesc::uniform(2),
        fold_inductions: true,
        gap_prevention: true,
        dce: true,
        try_roll: true,
        audit: false,
    };
    let rep = perfect_pipeline(&mut g, opts);
    if let Some(rolled) = rep.rolled {
        assert!(rolled.is_err(), "folded immediates must not silently roll");
    }
    // The scheduled window remains exact regardless.
    let m0 = run(&g0);
    let m1 = run(&g);
    assert!(EquivReport::compare(&g0, &m0, &m1).is_equal());
}
