//! Baseline behaviour: Unifiable-ops schedules are semantically exact and
//! pack like GRiP on simple code; POST is semantically exact and never
//! beats GRiP on the pipelined kernels (Table 1's qualitative claim).

use grip_analysis::{Ddg, RankTable};
use grip_baselines::{post_pipeline, schedule_unifiable, PostOptions};
use grip_core::{schedule_region, GripConfig};
use grip_ir::{Graph, OpKind, Operand, ProgramBuilder};
use grip_kernels::{default_init, kernels};
use grip_machine::MachineDesc;
use grip_percolate::Ctx;
use grip_pipeline::{perfect_pipeline, PipelineOptions};
use grip_vm::{EquivReport, Machine};

fn mixed_program(independents: usize) -> Graph {
    let mut b = ProgramBuilder::new();
    let mut regs = Vec::new();
    for i in 0..independents {
        let r = b.named_reg(&format!("c{i}"));
        b.const_i(r, i as i64);
        regs.push(r);
    }
    let mut acc = b.named_reg("acc");
    b.const_i(acc, 0);
    for (i, &r) in regs.iter().enumerate() {
        acc = b.binary(&format!("s{i}"), OpKind::IAdd, Operand::Reg(acc), Operand::Reg(r));
    }
    b.live_out(acc);
    b.finish()
}

#[test]
fn unifiable_preserves_semantics_and_respects_width() {
    for fus in [2usize, 4] {
        let g0 = mixed_program(6);
        let mut g = g0.clone();
        let ddg = Ddg::build(&g, g.entry);
        let mut ctx = Ctx::new(&g, &ddg);
        let ranks = RankTable::new(&ddg, false);
        let region = g.reachable();
        let (stats, _) =
            schedule_unifiable(&mut g, &mut ctx, &ranks, MachineDesc::uniform(fus), region);
        g.validate().unwrap();
        assert!(stats.arrivals > 0);
        assert!(stats.membership_tests >= stats.arrivals);
        for n in g.reachable() {
            assert!(g.node_op_count(n) <= fus);
        }
        let mut m0 = Machine::for_graph(&g0);
        m0.run(&g0).unwrap();
        let mut m1 = Machine::for_graph(&g);
        m1.run(&g).unwrap();
        assert!(EquivReport::compare(&g0, &m0, &m1).is_equal());
    }
}

#[test]
fn unifiable_membership_walks_dominate_grip_bookkeeping() {
    // The §3.1 cost claim, in miniature: on the same input, Unifiable-ops
    // walks far more node-steps for its sets than GRiP performs hops.
    let g0 = mixed_program(10);
    let mut gu = g0.clone();
    let ddg = Ddg::build(&gu, gu.entry);
    let mut ctx = Ctx::new(&gu, &ddg);
    let ranks = RankTable::new(&ddg, false);
    let region = gu.reachable();
    let (ustats, _) =
        schedule_unifiable(&mut gu, &mut ctx, &ranks, MachineDesc::uniform(4), region);

    let mut gg = g0.clone();
    let ddg2 = Ddg::build(&gg, gg.entry);
    let mut ctx2 = Ctx::new(&gg, &ddg2);
    let ranks2 = RankTable::new(&ddg2, false);
    let region2 = gg.reachable();
    let out = schedule_region(
        &mut gg,
        &mut ctx2,
        &ranks2,
        GripConfig {
            machine: MachineDesc::uniform(4),
            gap_prevention: false,
            dce: false,
            speculation: Default::default(),
            trace: false,
        },
        region2,
    );
    assert!(
        ustats.nodes_walked > out.stats.hops,
        "unifiable walked {} nodes vs {} GRiP hops",
        ustats.nodes_walked,
        out.stats.hops
    );
}

#[test]
fn post_is_exact_and_never_beats_grip() {
    // A representative subset across dependence classes (full sweep lives
    // in the bench harness).
    let names = ["LL1", "LL3", "LL5", "LL12"];
    let n = if cfg!(debug_assertions) { 20 } else { 48 };
    for k in kernels().iter().filter(|k| names.contains(&k.name)) {
        for fus in [2usize, 4] {
            let g0 = (k.build)(n);

            let mut g_grip = g0.clone();
            let grip = perfect_pipeline(
                &mut g_grip,
                PipelineOptions {
                    unwind: 2 * fus.min(8),
                    machine: MachineDesc::uniform(fus),
                    fold_inductions: true,
                    gap_prevention: true,
                    dce: true,
                    try_roll: false,
                    audit: false,
                },
            );

            let mut g_post = g0.clone();
            let post = post_pipeline(&mut g_post, PostOptions::vliw(2 * fus.min(8), fus));
            g_post.validate().unwrap();

            // POST stays semantically exact.
            let mut m0 = Machine::for_graph(&g0);
            default_init(&g0, &mut m0, n);
            m0.run(&g0).unwrap();
            let mut m1 = Machine::for_graph(&g_post);
            default_init(&g_post, &mut m1, n);
            m1.run(&g_post).unwrap();
            let rep = EquivReport::compare(&g0, &m0, &m1);
            assert!(rep.is_equal(), "{} fus={fus}: POST diverged: {rep:?}", k.name);

            // And never beats GRiP by more than noise (Table 1's claim is
            // GRiP >= POST everywhere).
            let (sg, sp) = (grip.speedup(), post.speedup());
            if let (Some(sg), Some(sp)) = (sg, sp) {
                assert!(
                    sg >= sp - 0.35,
                    "{} fus={fus}: POST {sp:.2} unexpectedly beats GRiP {sg:.2}",
                    k.name
                );
            }
        }
    }
}

/// Mixed-class straight-line programs with destination reuse: the reuse
/// forces renaming moves (output conflicts and move-past-read), whose
/// compensation copies issue on the ALU class — exactly the swap that
/// used to overflow ALU caps on class-capped machines.
fn mixed_class_program(seed: u64) -> Graph {
    // splitmix64, as in the prop tests.
    let mut s = seed;
    let mut next = move || {
        s = s.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    let mut b = ProgramBuilder::new();
    let x = b.array("x", 16);
    let mut pool: Vec<grip_ir::RegId> = Vec::new();
    for i in 0..4 {
        let r = b.named_reg(&format!("c{i}"));
        b.const_f(r, 1.0 + i as f64);
        pool.push(r);
    }
    for i in 0..14 {
        let a = pool[(next() % pool.len() as u64) as usize];
        let c = pool[(next() % pool.len() as u64) as usize];
        // Half the ops overwrite an existing register (rename fodder),
        // half define a fresh one.
        let reuse = next() % 2 == 0;
        let kind = [OpKind::Mul, OpKind::Add, OpKind::Sub][(next() % 3) as usize];
        if reuse {
            let d = pool[(next() % pool.len() as u64) as usize];
            b.emit(grip_ir::Operation::new(kind, Some(d), vec![Operand::Reg(a), Operand::Reg(c)]));
        } else {
            let d = b.binary(&format!("t{i}"), kind, Operand::Reg(a), Operand::Reg(c));
            pool.push(d);
        }
        if next() % 4 == 0 {
            let l = b.load(&format!("l{i}"), x, Operand::Imm(grip_ir::Value::I(i)), 0);
            pool.push(l);
        }
    }
    for &r in pool.iter().rev().take(4) {
        b.live_out(r);
    }
    b.finish()
}

/// The deterministic shape of the bug: an FPU op leaves a row whose two
/// ALU slots are already taken, and the move needs a rename (its
/// destination is also written in the target row). The compensation copy
/// is a third ALU op — on `clustered` (ALU cap 2) the departed row then
/// violates the issue template. With the `copy_swap_fits` check the hop
/// is refused instead.
#[test]
fn unifiable_refuses_renames_that_overflow_the_alu_cap() {
    use grip_ir::{Operation, Tree, TreePath, Value};

    let mut g = Graph::new();
    let (q, x, y) = (g.named_reg("q"), g.named_reg("x"), g.named_reg("y"));
    let (t, p) = (g.named_reg("t"), g.named_reg("p"));
    let (r1, r2) = (g.named_reg("r1"), g.named_reg("r2"));
    // Entry row: both ALU slots taken; t is written here, so pulling the
    // Mul up forces an output-conflict rename.
    let a0 = g.add_op(Operation::new(
        OpKind::IAdd,
        Some(t),
        vec![Operand::Reg(q), Operand::Imm(Value::I(1))],
    ));
    let a1 = g.add_op(Operation::new(
        OpKind::IAdd,
        Some(p),
        vec![Operand::Reg(q), Operand::Imm(Value::I(2))],
    ));
    // Second row: two immovable ALU ops (true-dependent on p) plus the
    // movable Mul that redefines t.
    let c1 = g.add_op(Operation::new(
        OpKind::IAdd,
        Some(r1),
        vec![Operand::Reg(p), Operand::Imm(Value::I(1))],
    ));
    let c2 = g.add_op(Operation::new(
        OpKind::IAdd,
        Some(r2),
        vec![Operand::Reg(p), Operand::Imm(Value::I(2))],
    ));
    let f = g.add_op(Operation::new(OpKind::Mul, Some(t), vec![Operand::Reg(x), Operand::Reg(y)]));
    let n1 = g.add_node(Tree::Leaf { ops: vec![c1, c2, f], succ: None });
    let entry = g.entry;
    g.insert_op_at(entry, TreePath::ROOT, a0);
    g.insert_op_at(entry, TreePath::ROOT, a1);
    g.set_succ(entry, TreePath::ROOT, Some(n1));
    g.live_out = vec![t, r1, r2];
    g.validate().unwrap();

    let desc = MachineDesc::clustered();
    assert!(desc.fits(&g, entry) && desc.fits(&g, n1), "input fits the template");

    let ddg = Ddg::build(&g, g.entry);
    let mut ctx = Ctx::new(&g, &ddg);
    let ranks = RankTable::new(&ddg, false);
    let region = g.reachable();
    schedule_unifiable(&mut g, &mut ctx, &ranks, desc, region);
    g.validate().unwrap();
    for n in g.reachable() {
        assert!(desc.fits(&g, n), "row {n} violates the issue template after scheduling");
    }
}

/// Satellite fix: the Unifiable-ops baseline must never emit rows that
/// violate the issue template of a class-capped machine. Renaming hops
/// leave ALU compensation copies behind; without the `copy_swap_fits`
/// re-check (ported from GRiP's `hop`) those copies overflow the ALU cap.
#[test]
fn unifiable_respects_issue_templates_on_class_capped_machines() {
    for seed in 0..8u64 {
        let g0 = mixed_class_program(seed);
        g0.validate().unwrap();
        for desc in [MachineDesc::clustered(), MachineDesc::mem_bound(), MachineDesc::epic8()] {
            let mut g = g0.clone();
            let ddg = Ddg::build(&g, g.entry);
            let mut ctx = Ctx::new(&g, &ddg);
            let ranks = RankTable::new(&ddg, false);
            let region = g.reachable();
            let (_, _) = schedule_unifiable(&mut g, &mut ctx, &ranks, desc, region);
            g.validate().unwrap_or_else(|e| panic!("seed {seed} on {}: {e}", desc.name));

            // Static template check over every surviving row.
            for n in g.reachable() {
                assert!(
                    desc.fits(&g, n),
                    "seed {seed} on {}: row {n} breaks the issue template",
                    desc.name
                );
            }

            // Dynamic check plus semantic equivalence.
            let init = |m: &mut Machine| {
                m.set_array_f(grip_ir::ArrayId::new(0), &[0.5; 16]);
            };
            let mut m0 = Machine::for_graph(&g0);
            init(&mut m0);
            m0.run(&g0).unwrap();
            let mut m1 = Machine::for_graph(&g);
            init(&mut m1);
            let stats = m1
                .run_model(&g, &desc)
                .unwrap_or_else(|e| panic!("seed {seed} on {}: {e}", desc.name));
            assert_eq!(
                stats.template_violations, 0,
                "seed {seed} on {}: template violations",
                desc.name
            );
            let rep = EquivReport::compare(&g0, &m0, &m1);
            assert!(rep.is_equal(), "seed {seed} on {}: diverged: {rep:?}", desc.name);
        }
    }
}

#[test]
fn post_breaking_respects_width_on_steady_rows() {
    let k = kernels().iter().find(|k| k.name == "LL1").unwrap();
    let n = if cfg!(debug_assertions) { 20 } else { 48 };
    let mut g = (k.build)(n);
    let post = post_pipeline(&mut g, PostOptions::vliw(8, 4));
    for &row in &post.steady {
        if g.node_exists(row) {
            assert!(
                g.node_op_count(row) <= 4,
                "steady row {row} holds {} ops",
                g.node_op_count(row)
            );
        }
    }
}
