//! GRiP scheduler behaviour tests: packing, resource limits, ranked order,
//! semantic preservation, and gap prevention on hand-tagged iterations.

use grip_analysis::{Ddg, RankTable};
use grip_core::{schedule_region, GripConfig};
use grip_ir::{Graph, NodeId, OpKind, Operand, ProgramBuilder, Value};
use grip_machine::MachineDesc;
use grip_percolate::Ctx;
use grip_vm::{EquivReport, Machine};

fn run_equal(g0: &Graph, g1: &Graph) {
    let mut m0 = Machine::for_graph(g0);
    let mut m1 = Machine::for_graph(g1);
    m0.run(g0).unwrap();
    m1.run(g1).unwrap();
    let rep = EquivReport::compare(g0, &m0, &m1);
    assert!(rep.is_equal(), "schedule changed semantics: {rep:?}\n{}", grip_ir::print::dump(g1));
}

/// n independent constants followed by a chain of adds.
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

fn schedule(g: &mut Graph, fus: usize, gaps: bool) -> Vec<NodeId> {
    let ddg = Ddg::build(g, g.entry);
    let mut ctx = Ctx::new(g, &ddg);
    let ranks = RankTable::new(&ddg, true);
    let cfg = GripConfig {
        machine: MachineDesc::uniform(fus),
        gap_prevention: gaps,
        dce: true,
        speculation: Default::default(),
        trace: false,
    };
    let region = g.reachable();
    let out = schedule_region(g, &mut ctx, &ranks, cfg, region);
    out.region
}

#[test]
fn packs_independent_ops_to_width() {
    for fus in [2usize, 4, 8] {
        let g0 = mixed_program(8);
        let mut g = g0.clone();
        schedule(&mut g, fus, false);
        g.validate().unwrap();
        run_equal(&g0, &g);
        // No node exceeds the width.
        for n in g.reachable() {
            assert!(
                g.node_op_count(n) <= fus,
                "node {n} exceeds {fus} FUs:\n{}",
                grip_ir::print::dump(&g)
            );
        }
        // Compaction happened: the sequential program had 17 op rows.
        let op_rows = g.reachable().into_iter().filter(|&n| g.node_op_count(n) > 0).count();
        assert!(op_rows < 17, "expected compaction below the 17 sequential rows, got {op_rows}");
        // The adds form a chain; after the entry row folds s0 through the
        // constant copies, at least 7 chain rows remain.
        assert!(op_rows >= 7, "chain must lower-bound the schedule: {op_rows}");
    }
}

#[test]
fn respects_dependence_chains() {
    // A pure chain cannot compact at all: every op depends on the previous.
    let mut b = ProgramBuilder::new();
    let mut acc = b.named_reg("a0");
    b.const_i(acc, 1);
    for i in 0..6 {
        acc = b.binary(
            &format!("a{}", i + 1),
            OpKind::IAdd,
            Operand::Reg(acc),
            Operand::Imm(Value::I(1)),
        );
    }
    b.live_out(acc);
    let g0 = b.finish();
    let mut g = g0.clone();
    schedule(&mut g, 8, false);
    g.validate().unwrap();
    run_equal(&g0, &g);
    // Copy bypass folds a1 = a0 + 1 through the a0 constant copy into the
    // first row (and DCE may drop a0), so the chain costs 6 rows, not 7.
    let op_nodes = g.reachable().into_iter().filter(|&n| g.node_op_count(n) > 0).count();
    assert_eq!(op_nodes, 6, "chain length (with the head folded) bounds the schedule");
}

#[test]
fn infinite_resources_compact_maximally() {
    let g0 = mixed_program(6);
    let mut g = g0.clone();
    schedule(&mut g, usize::MAX, false);
    g.validate().unwrap();
    run_equal(&g0, &g);
    // Row 1 takes every constant plus s0 (folded through the copies);
    // s1..s5 chain below: 6 op rows total.
    let rows: Vec<usize> =
        g.reachable().into_iter().map(|n| g.node_op_count(n)).filter(|&c| c > 0).collect();
    assert_eq!(rows.len(), 6, "1 wide row + 5 chain rows: {rows:?}");
    assert!(rows[0] >= 5, "first row holds the surviving consts + s0: {rows:?}");
}

#[test]
fn scheduler_preserves_loop_semantics() {
    // Schedule the body of a real loop (region = loop body nodes) and run
    // the whole program.
    let mut b = ProgramBuilder::new();
    let n = 12i64;
    let x = b.array("x", n as usize + 8);
    let y = b.array("y", n as usize + 8);
    let k = b.named_reg("k");
    b.const_i(k, 0);
    b.begin_loop();
    let t = b.load("t", x, Operand::Reg(k), 0);
    let u = b.binary("u", OpKind::Mul, Operand::Reg(t), Operand::Imm(Value::F(3.0)));
    let v = b.binary("v", OpKind::Add, Operand::Reg(u), Operand::Imm(Value::F(1.0)));
    b.store(y, Operand::Reg(k), 0, Operand::Reg(v));
    b.iadd_imm(k, k, 1);
    let c = b.binary("c", OpKind::CmpLt, Operand::Reg(k), Operand::Imm(Value::I(n)));
    b.end_loop(c);
    let mut g = b.finish();
    g.live_out = vec![k];
    let g0 = g.clone();
    let li = g.loop_info.unwrap();

    // Region: loop body nodes head..=latch in chain order.
    let mut region = vec![li.head];
    let mut cur = li.head;
    while cur != li.latch {
        cur = g.successors(cur)[0];
        region.push(cur);
    }
    let ddg = Ddg::build(&g, g.entry);
    let mut ctx = Ctx::new(&g, &ddg);
    let ranks = RankTable::new(&ddg, true);
    let cfg = GripConfig {
        machine: MachineDesc::uniform(4),
        gap_prevention: true,
        dce: true,
        speculation: Default::default(),
        trace: false,
    };
    let out = schedule_region(&mut g, &mut ctx, &ranks, cfg, region);
    g.validate().unwrap();

    let setup = |m: &mut Machine| {
        let xs: Vec<f64> = (0..n + 8).map(|i| i as f64 * 0.5).collect();
        m.set_array_f(x, &xs);
    };
    let mut m0 = Machine::for_graph(&g0);
    setup(&mut m0);
    let s0 = m0.run(&g0).unwrap();
    let mut m1 = Machine::for_graph(&g);
    setup(&mut m1);
    let s1 = m1.run(&g).unwrap();
    assert!(EquivReport::compare(&g0, &m0, &m1).is_equal());
    assert!(
        s1.cycles < s0.cycles,
        "compaction must shorten the loop: {} vs {}",
        s1.cycles,
        s0.cycles
    );
    assert!(out.stats.hops > 0);
}

#[test]
fn ranked_order_prefers_long_chains_for_scarce_slots() {
    // One slot available; a long-chain op and a short-chain op both want
    // it. The §3.4 heuristic must give it to the long chain.
    let mut b = ProgramBuilder::new();
    let start = b.named_reg("start");
    b.const_i(start, 0);
    // long chain: l1 -> l2 -> l3 rooted at l1
    let l1 = b.binary("l1", OpKind::IAdd, Operand::Reg(start), Operand::Imm(Value::I(1)));
    // short: s1 only
    let s1 = b.binary("s1", OpKind::IAdd, Operand::Reg(start), Operand::Imm(Value::I(9)));
    let l2 = b.binary("l2", OpKind::IAdd, Operand::Reg(l1), Operand::Imm(Value::I(1)));
    let l3 = b.binary("l3", OpKind::IAdd, Operand::Reg(l2), Operand::Imm(Value::I(1)));
    b.live_out(l3);
    b.live_out(s1);
    let g0 = b.finish();
    let mut g = g0.clone();

    // 2 FUs: the entry row can hold start plus ONE of {l1, s1}.
    schedule(&mut g, 2, false);
    g.validate().unwrap();
    run_equal(&g0, &g);
    let first = g.reachable().into_iter().find(|&n| g.node_op_count(n) > 0).unwrap();
    let labels: Vec<String> =
        g.node_ops(first).iter().map(|&(_, o)| g.op(o).label().to_string()).collect();
    assert!(
        labels.contains(&"l1".to_string()),
        "long-chain op must win the slot; row was {labels:?}"
    );
}

/// Two hand-tagged "iterations": iteration 0 = chain a0→b0, iteration 1 =
/// chain a1→b1, with a1 independent of iteration 0. Without gap prevention
/// and plentiful resources, a1 rises next to a0, leaving its partner b1 two
/// rows behind: a gap in iteration 1's rows. With gap prevention, every
/// row containing an iteration-1 op keeps the pattern contiguous.
fn two_iteration_graph() -> (Graph, Vec<NodeId>) {
    let mut b = ProgramBuilder::new();
    let z = b.named_reg("z");
    b.const_i(z, 0);
    let a0 = b.binary("a0", OpKind::IAdd, Operand::Reg(z), Operand::Imm(Value::I(1)));
    let b0 = b.binary("b0", OpKind::IAdd, Operand::Reg(a0), Operand::Imm(Value::I(1)));
    let c0 = b.binary("c0", OpKind::IAdd, Operand::Reg(b0), Operand::Imm(Value::I(1)));
    let a1 = b.binary("a1", OpKind::IAdd, Operand::Reg(z), Operand::Imm(Value::I(2)));
    let b1 = b.binary("b1", OpKind::IAdd, Operand::Reg(a1), Operand::Imm(Value::I(2)));
    let c1 = b.binary("c1", OpKind::IAdd, Operand::Reg(b1), Operand::Imm(Value::I(2)));
    b.live_out(c0);
    b.live_out(c1);
    let mut g = b.finish();
    // Tag iterations: ops named *0 are iteration 0, *1 iteration 1.
    let mut region = Vec::new();
    for n in g.reachable() {
        let ops = g.node_ops(n);
        if let Some(&(_, o)) = ops.first() {
            let it = if g.op(o).label().ends_with('1') { 1 } else { 0 };
            g.op_mut(o).iter = it;
            region.push(n);
        }
    }
    (g, region)
}

#[test]
fn gap_prevention_keeps_iterations_contiguous() {
    for gaps in [false, true] {
        let (mut g, region) = two_iteration_graph();
        let g0 = g.clone();
        let ddg = Ddg::build(&g, g.entry);
        let mut ctx = Ctx::new(&g, &ddg);
        let ranks = RankTable::new(&ddg, true);
        let cfg = GripConfig {
            machine: MachineDesc::uniform(2),
            gap_prevention: gaps,
            dce: false,
            speculation: Default::default(),
            trace: false,
        };
        let out = schedule_region(&mut g, &mut ctx, &ranks, cfg, region);
        g.validate().unwrap();
        run_equal(&g0, &g);

        // Collect, for iteration 1, the row indices that hold its ops.
        let rows: Vec<NodeId> = out.region.iter().copied().filter(|&n| g.node_exists(n)).collect();
        let it1_rows: Vec<usize> = rows
            .iter()
            .enumerate()
            .filter(|(_, &n)| g.node_ops(n).iter().any(|&(_, o)| g.op(o).iter == 1))
            .map(|(i, _)| i)
            .collect();
        if gaps {
            // Gapless: iteration 1's rows are contiguous.
            for w in it1_rows.windows(2) {
                assert_eq!(
                    w[1] - w[0],
                    1,
                    "iteration 1 rows must be contiguous with gap prevention: {it1_rows:?}\n{}",
                    grip_ir::print::dump(&g)
                );
            }
        }
    }
}

#[test]
fn trace_records_moves() {
    let mut g = mixed_program(4);
    let ddg = Ddg::build(&g, g.entry);
    let mut ctx = Ctx::new(&g, &ddg);
    let ranks = RankTable::new(&ddg, true);
    let cfg = GripConfig {
        machine: MachineDesc::uniform(4),
        gap_prevention: false,
        dce: false,
        speculation: Default::default(),
        trace: true,
    };
    let region = g.reachable();
    let out = schedule_region(&mut g, &mut ctx, &ranks, cfg, region);
    assert!(out.trace.iter().any(|e| matches!(e, grip_core::TraceEvent::Hop { .. })));
    assert!(out.trace.iter().any(|e| matches!(e, grip_core::TraceEvent::Node(_))));
}

#[test]
fn speculation_policy_gates_motion_past_branches() {
    use grip_core::Speculation;
    // A loop where useful work sits below the loop-control branch: with
    // speculation forbidden, later iterations' ops cannot climb past the
    // earlier exits, so the schedule stays longer.
    let mut b = ProgramBuilder::new();
    let x = b.array("x", 64);
    let k = b.named_reg("k");
    b.const_i(k, 0);
    b.begin_loop();
    let t = b.load("t", x, Operand::Reg(k), 0);
    let u = b.binary("u", OpKind::Mul, Operand::Reg(t), Operand::Imm(Value::F(2.0)));
    b.store(x, Operand::Reg(k), 0, Operand::Reg(u));
    b.iadd_imm(k, k, 1);
    let c = b.binary("c", OpKind::CmpLt, Operand::Reg(k), Operand::Imm(Value::I(16)));
    b.end_loop(c);
    let mut g0 = b.finish();
    g0.live_out = vec![k];

    let mut lens = Vec::new();
    for policy in [Speculation::Always, Speculation::Never] {
        let mut g = g0.clone();
        let w = grip_pipeline::unwind(&mut g, 4);
        grip_pipeline::simplify_inductions(&mut g, &w.rows);
        let ddg = Ddg::build(&g, g.entry);
        let mut ctx = Ctx::new(&g, &ddg);
        let ranks = RankTable::new(&ddg, true);
        let cfg = GripConfig {
            machine: MachineDesc::uniform(4),
            gap_prevention: false,
            dce: true,
            speculation: policy,
            trace: false,
        };
        let out = schedule_region(&mut g, &mut ctx, &ranks, cfg, w.rows.clone());
        g.validate().unwrap();
        run_equal(&g0, &g);
        let rows =
            out.region.iter().filter(|&&n| g.node_exists(n) && g.node_op_count(n) > 0).count();
        if policy == Speculation::Never {
            assert!(out.stats.speculation_vetoes > 0, "vetoes must fire");
        }
        lens.push(rows);
    }
    assert!(
        lens[0] < lens[1],
        "speculation must shorten the schedule: always={} never={}",
        lens[0],
        lens[1]
    );
}

#[test]
fn resource_aware_speculation_interpolates() {
    use grip_core::Speculation;
    // WhenSlotsFree(width) behaves like Never (no row ever has `width`
    // free slots once anything is placed... entry rows do); the policy is
    // monotone between the extremes.
    let policies = [
        Speculation::Always,
        Speculation::WhenSlotsFree(1),
        Speculation::WhenSlotsFree(3),
        Speculation::Never,
    ];
    let mut vetoes = Vec::new();
    for policy in policies {
        let mut g = mixed_program(6);
        // Give it a branch to speculate across.
        let ddg = Ddg::build(&g, g.entry);
        let mut ctx = Ctx::new(&g, &ddg);
        let ranks = RankTable::new(&ddg, true);
        let cfg = GripConfig {
            machine: MachineDesc::uniform(4),
            gap_prevention: false,
            dce: false,
            speculation: policy,
            trace: false,
        };
        let region = g.reachable();
        let out = schedule_region(&mut g, &mut ctx, &ranks, cfg, region);
        g.validate().unwrap();
        vetoes.push(out.stats.speculation_vetoes);
    }
    // Straight-line code has no speculation at all: every policy agrees.
    assert!(vetoes.iter().all(|&v| v == 0), "no branches, no vetoes: {vetoes:?}");
}
