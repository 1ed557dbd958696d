//! Semantic-equivalence tests for the core transformations: every move is
//! validated by running the program before and after on the simulator and
//! comparing all observable state.

use grip_analysis::Ddg;
use grip_ir::{
    Graph, NodeId, OpId, OpKind, Operand, Operation, ProgramBuilder, Tree, TreePath, Value,
};
use grip_percolate::{move_cj, move_op, plan_move_op, Ctx, MoveFail};
use grip_vm::{EquivReport, Machine};

/// Run `g` with inputs applied by `setup`; return the final machine.
fn run(g: &Graph, setup: &dyn Fn(&mut Machine)) -> Machine {
    let mut m = Machine::for_graph(g);
    setup(&mut m);
    m.run(g).unwrap_or_else(|e| panic!("execution failed: {e}\n{}", grip_ir::print::dump(g)));
    m
}

/// Assert `a` and `b` behave identically on the given inputs.
fn assert_equiv(a: &Graph, b: &Graph, setup: &dyn Fn(&mut Machine)) {
    let ma = run(a, setup);
    let mb = run(b, setup);
    let report = EquivReport::compare(a, &ma, &mb);
    assert!(
        report.is_equal(),
        "graphs diverged: {report:?}\nBEFORE:\n{}\nAFTER:\n{}",
        grip_ir::print::dump(a),
        grip_ir::print::dump(b)
    );
}

/// Find the node currently holding `op`.
fn node_of(g: &Graph, op: OpId) -> NodeId {
    g.placement(op).expect("op placed")
}

/// The (to, path) edge reaching `from` from its unique predecessor.
fn edge_into(g: &Graph, from: NodeId) -> (NodeId, TreePath) {
    let ps = g.preds(from);
    assert_eq!(ps.len(), 1, "expected unique predecessor");
    let to = ps[0];
    let paths = g.node(to).tree.leaf_paths_to(from);
    assert_eq!(paths.len(), 1);
    (to, paths[0])
}

#[test]
fn independent_op_moves_up() {
    let mut b = ProgramBuilder::new();
    let x = b.named_reg("x");
    let y = b.named_reg("y");
    b.const_i(x, 1);
    let n2 = b.const_i(y, 2);
    let s = b.binary("s", OpKind::IAdd, Operand::Reg(x), Operand::Imm(Value::I(10)));
    b.live_out(s);
    b.live_out(y);
    let g0 = b.finish();
    let mut g = g0.clone();
    let ddg = Ddg::build(&g, g.entry);
    let mut ctx = Ctx::new(&g, &ddg);

    // Move `s` (independent of y=2) up into n2.
    let s_op = g.node_ops(node_of(&g, g.node_ops(n2)[0].1)).to_vec();
    let _ = s_op;
    let s_node = g
        .reachable()
        .into_iter()
        .find(|&n| g.node_ops(n).iter().any(|&(_, o)| g.op(o).dest == Some(s)))
        .unwrap();
    let s_id = g.node_ops(s_node)[0].1;
    let (to, path) = edge_into(&g, s_node);
    assert_eq!(to, n2);
    let out = move_op(&mut g, &mut ctx, s_node, to, s_id, path).expect("legal move");
    assert!(out.renamed.is_none());
    assert!(out.split.is_none());
    assert_eq!(g.node_op_count(n2), 2);
    g.validate().unwrap();
    assert_equiv(&g0, &g, &|_| {});
}

#[test]
fn true_dependence_blocks() {
    let mut b = ProgramBuilder::new();
    let x = b.named_reg("x");
    b.const_i(x, 1);
    let y = b.binary("y", OpKind::IAdd, Operand::Reg(x), Operand::Imm(Value::I(1)));
    let z = b.binary("z", OpKind::IAdd, Operand::Reg(y), Operand::Imm(Value::I(1)));
    b.live_out(z);
    let mut g = b.finish();
    let ddg = Ddg::build(&g, g.entry);
    let mut ctx = Ctx::new(&g, &ddg);
    let z_node = g
        .reachable()
        .into_iter()
        .find(|&n| g.node_ops(n).iter().any(|&(_, o)| g.op(o).dest == Some(z)))
        .unwrap();
    let z_id = g.node_ops(z_node)[0].1;
    let (to, path) = edge_into(&g, z_node);
    match move_op(&mut g, &mut ctx, z_node, to, z_id, path) {
        Err(MoveFail::TrueDep { .. }) => {}
        other => panic!("expected TrueDep, got {other:?}"),
    }
}

#[test]
fn copy_bypass_rewrites_operand() {
    // n1: x = 7 ; n2: b = copy x ; n3: a = b + 1  — moving a into n2
    // rewrites its use of b into x (§2 renaming example).
    let mut b = ProgramBuilder::new();
    let x = b.named_reg("x");
    b.const_i(x, 7);
    let cpy = b.named_reg("b");
    b.copy(cpy, Operand::Reg(x));
    let a = b.binary("a", OpKind::IAdd, Operand::Reg(cpy), Operand::Imm(Value::I(1)));
    b.live_out(a);
    b.live_out(cpy);
    let g0 = b.finish();
    let mut g = g0.clone();
    let ddg = Ddg::build(&g, g.entry);
    let mut ctx = Ctx::new(&g, &ddg);
    let a_node = g
        .reachable()
        .into_iter()
        .find(|&n| g.node_ops(n).iter().any(|&(_, o)| g.op(o).dest == Some(a)))
        .unwrap();
    let a_id = g.node_ops(a_node)[0].1;
    let (to, path) = edge_into(&g, a_node);
    move_op(&mut g, &mut ctx, a_node, to, a_id, path).expect("copy must not block motion");
    assert_eq!(g.op(a_id).src[0], Operand::Reg(x), "use of b rewritten to x");
    g.validate().unwrap();
    assert_equiv(&g0, &g, &|_| {});
}

#[test]
fn same_instruction_read_in_target_needs_no_rename() {
    // Paper footnote 2: an op may write a register that is read in the same
    // instruction (entry-fetch semantics). Node A: r = d + 1; node B: d = 9.
    // Moving `d = 9` from B into A is legal without renaming — A's reader
    // still observes the entry value of d.
    let mut g = Graph::new();
    let d = g.named_reg("d");
    let r = g.named_reg("r");
    let read_op = g.add_op(Operation::new(
        OpKind::IAdd,
        Some(r),
        vec![Operand::Reg(d), Operand::Imm(Value::I(1))],
    ));
    let write_op = g.add_op(Operation::new(OpKind::Copy, Some(d), vec![Operand::Imm(Value::I(9))]));
    let nb = g.add_node(Tree::Leaf { ops: vec![write_op], succ: None });
    let na = g.add_node(Tree::Leaf { ops: vec![read_op], succ: Some(nb) });
    g.set_succ(g.entry, TreePath::ROOT, Some(na));
    g.live_out = vec![d, r];
    g.validate().unwrap();
    let g0 = g.clone();

    let ddg = Ddg::build(&g, g.entry);
    let mut ctx = Ctx::new(&g, &ddg);
    let out = move_op(&mut g, &mut ctx, nb, na, write_op, TreePath::ROOT).expect("legal");
    assert!(out.renamed.is_none(), "reader in To sees entry values: no conflict");
    g.validate().unwrap();
    assert_equiv(&g0, &g, &|m| m.set_reg(d, Value::I(100)));
    let mut m = Machine::for_graph(&g);
    m.set_reg(d, Value::I(100));
    m.run(&g).unwrap();
    assert_eq!(m.reg(r), Some(Value::I(101)), "reader saw the OLD d");
    assert_eq!(m.reg(d), Some(Value::I(9)));
}

#[test]
fn move_past_read_renames() {
    // The real move-past-read: the *source* node still contains a reader of
    // the moved op's destination. B: { r = d + 1 ; d = 9 }, A empty.
    // Moving `d = 9` from B into A without renaming would make B's reader
    // see 9 instead of the entry value.
    let mut g = Graph::new();
    let d = g.named_reg("d");
    let r = g.named_reg("r");
    let read_op = g.add_op(Operation::new(
        OpKind::IAdd,
        Some(r),
        vec![Operand::Reg(d), Operand::Imm(Value::I(1))],
    ));
    let write_op = g.add_op(Operation::new(OpKind::Copy, Some(d), vec![Operand::Imm(Value::I(9))]));
    let nb = g.add_node(Tree::Leaf { ops: vec![read_op, write_op], succ: None });
    let na = g.add_node(Tree::leaf(Some(nb)));
    g.set_succ(g.entry, TreePath::ROOT, Some(na));
    g.live_out = vec![d, r];
    g.validate().unwrap();
    let g0 = g.clone();

    let ddg = Ddg::build(&g, g.entry);
    let mut ctx = Ctx::new(&g, &ddg);
    let out = move_op(&mut g, &mut ctx, nb, na, write_op, TreePath::ROOT).expect("renamable");
    let (fresh, comp) = out.renamed.expect("move-past-read must rename");
    assert_eq!(g.op(write_op).dest, Some(fresh));
    assert_eq!(g.op(comp).kind, OpKind::Copy);
    assert_eq!(g.op(comp).dest, Some(d));
    g.validate().unwrap();
    assert_equiv(&g0, &g, &|m| m.set_reg(d, Value::I(100)));
    let mut m = Machine::for_graph(&g);
    m.set_reg(d, Value::I(100));
    m.run(&g).unwrap();
    assert_eq!(m.reg(r), Some(Value::I(101)), "reader kept the OLD d");
    assert_eq!(m.reg(d), Some(Value::I(9)));
}

#[test]
fn output_conflict_renames() {
    // node A: d = 1 ; node B: d = 2; moving B's op into A double-writes d
    // on one path → renaming with compensation copy preserves final d = 2.
    let mut g = Graph::new();
    let d = g.named_reg("d");
    let w1 = g.add_op(Operation::new(OpKind::Copy, Some(d), vec![Operand::Imm(Value::I(1))]));
    let w2 = g.add_op(Operation::new(OpKind::Copy, Some(d), vec![Operand::Imm(Value::I(2))]));
    let nb = g.add_node(Tree::Leaf { ops: vec![w2], succ: None });
    let na = g.add_node(Tree::Leaf { ops: vec![w1], succ: Some(nb) });
    g.set_succ(g.entry, TreePath::ROOT, Some(na));
    g.live_out = vec![d];
    let g0 = g.clone();
    let ddg = Ddg::build(&g, g.entry);
    let mut ctx = Ctx::new(&g, &ddg);
    let out = move_op(&mut g, &mut ctx, nb, na, w2, TreePath::ROOT).expect("renamable");
    assert!(out.renamed.is_some());
    g.validate().unwrap();
    assert_equiv(&g0, &g, &|_| {});
    let mut m = Machine::for_graph(&g);
    m.run(&g).unwrap();
    assert_eq!(m.reg(d), Some(Value::I(2)));
}

/// Build `entry -> hoist_target -> branch(c) { t: s1 } { f: s2 }` where s1
/// holds `vt = 5`, s2 holds `vf = 6`, and the branch node's true-leaf holds
/// a ready-to-hoist op.
fn branchy() -> (Graph, OpId, NodeId, NodeId, grip_ir::RegId, grip_ir::RegId, grip_ir::RegId) {
    let mut g = Graph::new();
    let c = g.named_reg("c");
    let vt = g.named_reg("vt");
    let vf = g.named_reg("vf");
    let cj = g.add_op(Operation::new(OpKind::CondJump, None, vec![Operand::Reg(c)]));
    let opt = g.add_op(Operation::new(OpKind::Copy, Some(vt), vec![Operand::Imm(Value::I(5))]));
    let opf = g.add_op(Operation::new(OpKind::Copy, Some(vf), vec![Operand::Imm(Value::I(6))]));
    let s1 = g.add_node(Tree::Leaf { ops: vec![opt], succ: None });
    let s2 = g.add_node(Tree::Leaf { ops: vec![opf], succ: None });
    let br = g.add_node(Tree::Branch {
        ops: vec![],
        cj,
        on_true: Box::new(Tree::leaf(Some(s1))),
        on_false: Box::new(Tree::leaf(Some(s2))),
    });
    let pre = g.add_node(Tree::leaf(Some(br)));
    g.set_succ(g.entry, TreePath::ROOT, Some(pre));
    g.live_out = vec![vt, vf];
    g.validate().unwrap();
    (g, opt, s1, br, c, vt, vf)
}

#[test]
fn speculative_hoist_above_branch_renames_when_live() {
    // vt is live-out on both paths, so hoisting `vt = 5` from the true arm
    // above the branch must rename (the false path must NOT see vt = 5).
    let (g0, opt, s1, br, c, _vt, _) = branchy();
    let mut g = g0.clone();
    let ddg = Ddg::build(&g, g.entry);
    let mut ctx = Ctx::new(&g, &ddg);
    // First move: s1 -> br (true-leaf position): non-speculative (s1's only
    // entry is that leaf).
    let paths = g.node(br).tree.leaf_paths_to(s1);
    let out = move_op(&mut g, &mut ctx, s1, br, opt, paths[0]).expect("into branch arm");
    assert!(out.renamed.is_none(), "landing on the guarding path needs no rename");
    g.validate().unwrap();
    assert_equiv(&g0, &g, &|m| m.set_reg(c, Value::B(true)));
    assert_equiv(&g0, &g, &|m| m.set_reg(c, Value::B(false)));

    // Second move: from the branch node's true-leaf up to `pre` — now the
    // op sits under the cj inside `br` (speculative) and vt is live on the
    // false path => rename.
    let from = g.placement(opt).unwrap();
    let (to, path) = edge_into(&g, from);
    let out = move_op(&mut g, &mut ctx, from, to, opt, path).expect("speculation is allowed");
    assert!(out.renamed.is_some(), "write-live on the false path forces renaming");
    g.validate().unwrap();
    assert_equiv(&g0, &g, &|m| m.set_reg(c, Value::B(true)));
    assert_equiv(&g0, &g, &|m| m.set_reg(c, Value::B(false)));
}

#[test]
fn speculative_hoist_without_liveness_skips_rename() {
    // Same shape, but vt is NOT observable on the false path (not live-out):
    // speculation needs no rename.
    let (mut g0, opt, s1, br, c, vt, vf) = branchy();
    g0.live_out = vec![vf]; // vt not observable
    let mut g = g0.clone();
    let _ = vt;
    let ddg = Ddg::build(&g, g.entry);
    let mut ctx = Ctx::new(&g, &ddg);
    let paths = g.node(br).tree.leaf_paths_to(s1);
    move_op(&mut g, &mut ctx, s1, br, opt, paths[0]).unwrap();
    let from = g.placement(opt).unwrap();
    let (to, path) = edge_into(&g, from);
    let out = move_op(&mut g, &mut ctx, from, to, opt, path).unwrap();
    assert!(out.renamed.is_none(), "dead on the uncovered path: no rename needed");
    g.validate().unwrap();
    assert_equiv(&g0, &g, &|m| m.set_reg(c, Value::B(false)));
}

#[test]
fn speculative_store_refused() {
    let mut g = Graph::new();
    let x = g.array("x", 4);
    let c = g.named_reg("c");
    let cj = g.add_op(Operation::new(OpKind::CondJump, None, vec![Operand::Reg(c)]));
    let st = g.add_op(Operation::new(
        OpKind::Store(x),
        None,
        vec![Operand::Imm(Value::I(0)), Operand::Imm(Value::F(1.0))],
    ));
    let s1 = g.add_node(Tree::Leaf { ops: vec![st], succ: None });
    let s2 = g.add_node(Tree::leaf(None));
    let br = g.add_node(Tree::Branch {
        ops: vec![],
        cj,
        on_true: Box::new(Tree::leaf(Some(s1))),
        on_false: Box::new(Tree::leaf(Some(s2))),
    });
    let pre = g.add_node(Tree::leaf(Some(br)));
    g.set_succ(g.entry, TreePath::ROOT, Some(pre));
    g.validate().unwrap();
    let ddg = Ddg::build(&g, g.entry);
    let mut ctx = Ctx::new(&g, &ddg);
    // Into the arm: fine (still guarded).
    let paths = g.node(br).tree.leaf_paths_to(s1);
    move_op(&mut g, &mut ctx, s1, br, st, paths[0]).expect("guarded store move is legal");
    // Above the branch: refused.
    let from = g.placement(st).unwrap();
    let (to, path) = edge_into(&g, from);
    assert_eq!(
        plan_move_op(&g, &ctx, from, to, st, path, None).unwrap_err(),
        MoveFail::SpeculativeStore
    );
}

#[test]
fn memory_dependence_blocks_load_over_store() {
    let mut b = ProgramBuilder::new();
    let x = b.array("x", 8);
    let k = b.named_reg("k");
    b.const_i(k, 2);
    b.store(x, Operand::Reg(k), 0, Operand::Imm(Value::F(7.0)));
    let t = b.load("t", x, Operand::Reg(k), 0);
    b.live_out(t);
    let mut g = b.finish();
    let ddg = Ddg::build(&g, g.entry);
    let mut ctx = Ctx::new(&g, &ddg);
    let t_node = g
        .reachable()
        .into_iter()
        .find(|&n| g.node_ops(n).iter().any(|&(_, o)| g.op(o).dest == Some(t)))
        .unwrap();
    let t_id = g.node_ops(t_node)[0].1;
    let (to, path) = edge_into(&g, t_node);
    match move_op(&mut g, &mut ctx, t_node, to, t_id, path) {
        Err(MoveFail::MemDep { .. }) => {}
        other => panic!("expected MemDep, got {other:?}"),
    }
}

#[test]
fn disambiguated_load_passes_store() {
    let mut b = ProgramBuilder::new();
    let x = b.array("x", 8);
    let k = b.named_reg("k");
    b.const_i(k, 2);
    b.store(x, Operand::Reg(k), 0, Operand::Imm(Value::F(7.0)));
    let t = b.load("t", x, Operand::Reg(k), 1); // x[k+1]: no alias
    b.live_out(t);
    let g0 = b.finish();
    let mut g = g0.clone();
    let ddg = Ddg::build(&g, g.entry);
    let mut ctx = Ctx::new(&g, &ddg);
    let t_node = g
        .reachable()
        .into_iter()
        .find(|&n| g.node_ops(n).iter().any(|&(_, o)| g.op(o).dest == Some(t)))
        .unwrap();
    let t_id = g.node_ops(t_node)[0].1;
    let (to, path) = edge_into(&g, t_node);
    move_op(&mut g, &mut ctx, t_node, to, t_id, path).expect("x[k+1] does not alias x[k]");
    g.validate().unwrap();
    assert_equiv(&g0, &g, &|m| m.set_array_f(x, &[0.0; 8]));
}

#[test]
fn multi_predecessor_split_preserves_both_paths() {
    // Two predecessors P1, P2 -> J (holding op) -> exit. Moving op from J
    // into P1 must leave a copy of J (with op) for P2.
    let mut g = Graph::new();
    let c = g.named_reg("c");
    let v = g.named_reg("v");
    let w = g.named_reg("w");
    let cj = g.add_op(Operation::new(OpKind::CondJump, None, vec![Operand::Reg(c)]));
    let j_op = g.add_op(Operation::new(OpKind::Copy, Some(v), vec![Operand::Imm(Value::I(3))]));
    let p1_op = g.add_op(Operation::new(OpKind::Copy, Some(w), vec![Operand::Imm(Value::I(1))]));
    let p2_op = g.add_op(Operation::new(OpKind::Copy, Some(w), vec![Operand::Imm(Value::I(2))]));
    let j = g.add_node(Tree::Leaf { ops: vec![j_op], succ: None });
    let p1 = g.add_node(Tree::Leaf { ops: vec![p1_op], succ: Some(j) });
    let p2 = g.add_node(Tree::Leaf { ops: vec![p2_op], succ: Some(j) });
    let br = g.add_node(Tree::Branch {
        ops: vec![],
        cj,
        on_true: Box::new(Tree::leaf(Some(p1))),
        on_false: Box::new(Tree::leaf(Some(p2))),
    });
    g.set_succ(g.entry, TreePath::ROOT, Some(br));
    g.live_out = vec![v, w];
    g.validate().unwrap();
    let g0 = g.clone();
    let ddg = Ddg::build(&g, g.entry);
    let mut ctx = Ctx::new(&g, &ddg);
    let out = move_op(&mut g, &mut ctx, j, p1, j_op, TreePath::ROOT).expect("legal");
    let split = out.split.expect("second predecessor forces a split");
    assert_eq!(g.node_op_count(split), 1, "split copy keeps the op");
    assert_eq!(g.node_op_count(j), 0, "original lost the op");
    g.validate().unwrap();
    assert_equiv(&g0, &g, &|m| m.set_reg(c, Value::B(true)));
    assert_equiv(&g0, &g, &|m| m.set_reg(c, Value::B(false)));
}

#[test]
fn move_cj_hoists_latch_jump() {
    // k=0; loop { k+=1; c = k<3 }  — move the latch cj up into the compare
    // node, then simulate.
    let mut b = ProgramBuilder::new();
    let k = b.named_reg("k");
    b.const_i(k, 0);
    b.begin_loop();
    b.iadd_imm(k, k, 1);
    let c = b.binary("c", OpKind::CmpLt, Operand::Reg(k), Operand::Imm(Value::I(3)));
    b.end_loop(c);
    let mut g = b.finish();
    g.live_out = vec![k];
    let g0 = g.clone();
    let li = g.loop_info.unwrap();
    let ddg = Ddg::build(&g, g.entry);
    let mut ctx = Ctx::new(&g, &ddg);
    // latch holds the cj; predecessor is the compare node.
    let cj = match &g.node(li.latch).tree {
        Tree::Branch { cj, .. } => *cj,
        _ => panic!("latch must branch"),
    };
    let cmp_node = g.preds(li.latch)[0];
    let path = g.node(cmp_node).tree.leaf_paths_to(li.latch)[0];
    // The compare writes c which the cj reads: true dependence blocks.
    assert!(matches!(
        move_cj(&mut g, &mut ctx, li.latch, cmp_node, cj, path),
        Err(MoveFail::TrueDep { .. })
    ));
    // Moving into the iadd node below... instead pick the node above cmp:
    // rebuild: move cj into cmp's predecessor is not adjacent. So instead
    // verify a legal cj move: give cmp node a predecessor holding nothing
    // related: the iadd node writes k which c=cmp(k) reads, but the CJ
    // itself reads c — not written there → legal into iadd node? cj's From
    // is latch; its predecessor is cmp_node only. So test the adjacent legal
    // case by first moving the cj-blocking compare out of the way is
    // overkill here; assert the failure above and exercise a legal move on
    // a crafted pair below.
    let _ = g0;

    // Crafted: n1: a = 1 ; n2: branch(c0) {t: x=1} {f: x=2} with c0 defined
    // before n1. Move the cj from n2 into n1.
    let mut g = Graph::new();
    let c0 = g.named_reg("c0");
    let a = g.named_reg("a");
    let x = g.named_reg("x");
    let cj = g.add_op(Operation::new(OpKind::CondJump, None, vec![Operand::Reg(c0)]));
    let xt = g.add_op(Operation::new(OpKind::Copy, Some(x), vec![Operand::Imm(Value::I(1))]));
    let xf = g.add_op(Operation::new(OpKind::Copy, Some(x), vec![Operand::Imm(Value::I(2))]));
    let a_op = g.add_op(Operation::new(OpKind::Copy, Some(a), vec![Operand::Imm(Value::I(9))]));
    let st = g.add_node(Tree::Leaf { ops: vec![xt], succ: None });
    let sf = g.add_node(Tree::Leaf { ops: vec![xf], succ: None });
    let n2 = g.add_node(Tree::Branch {
        ops: vec![],
        cj,
        on_true: Box::new(Tree::leaf(Some(st))),
        on_false: Box::new(Tree::leaf(Some(sf))),
    });
    let n1 = g.add_node(Tree::Leaf { ops: vec![a_op], succ: Some(n2) });
    g.set_succ(g.entry, TreePath::ROOT, Some(n1));
    g.live_out = vec![a, x];
    g.validate().unwrap();
    let g0 = g.clone();
    let ddg = Ddg::build(&g, g.entry);
    let mut ctx = Ctx::new(&g, &ddg);
    let out = move_cj(&mut g, &mut ctx, n2, n1, cj, TreePath::ROOT).expect("legal cj move");
    assert_eq!(g.node_cj_count(n1), 1, "n1 now branches");
    assert!(g.node(out.true_residue).tree.is_empty() || g.node_exists(out.true_residue));
    g.validate().unwrap();
    assert_equiv(&g0, &g, &|m| m.set_reg(c0, Value::B(true)));
    assert_equiv(&g0, &g, &|m| m.set_reg(c0, Value::B(false)));
}

#[test]
fn move_cj_duplicates_root_ops_into_residues() {
    // From: Branch(cj){ops:[r=5]} — the root op must appear in both
    // residues after the cj moves up.
    let mut g = Graph::new();
    let c0 = g.named_reg("c0");
    let r = g.named_reg("r");
    let cj = g.add_op(Operation::new(OpKind::CondJump, None, vec![Operand::Reg(c0)]));
    let root_op = g.add_op(Operation::new(OpKind::Copy, Some(r), vec![Operand::Imm(Value::I(5))]));
    let t_exit = g.add_node(Tree::leaf(None));
    let f_exit = g.add_node(Tree::leaf(None));
    let from = g.add_node(Tree::Branch {
        ops: vec![root_op],
        cj,
        on_true: Box::new(Tree::leaf(Some(t_exit))),
        on_false: Box::new(Tree::leaf(Some(f_exit))),
    });
    let to = g.add_node(Tree::leaf(Some(from)));
    g.set_succ(g.entry, TreePath::ROOT, Some(to));
    g.live_out = vec![r];
    g.validate().unwrap();
    let g0 = g.clone();
    let ddg = Ddg::build(&g, g.entry);
    let mut ctx = Ctx::new(&g, &ddg);
    let out = move_cj(&mut g, &mut ctx, from, to, cj, TreePath::ROOT).unwrap();
    assert_eq!(g.node_op_count(out.true_residue), 1);
    assert_eq!(g.node_op_count(out.false_residue), 1);
    // Both residue instances share the original ancestor.
    let t_ops = g.node_ops(out.true_residue);
    let f_ops = g.node_ops(out.false_residue);
    assert_eq!(g.op(t_ops[0].1).orig, g.op(f_ops[0].1).orig);
    g.validate().unwrap();
    assert_equiv(&g0, &g, &|m| m.set_reg(c0, Value::B(true)));
    assert_equiv(&g0, &g, &|m| m.set_reg(c0, Value::B(false)));
}

#[test]
fn chained_moves_compact_independent_ops_into_entry() {
    // Five independent ops percolate into one instruction via repeated
    // adjacent moves; program behaviour is unchanged and 4 nodes empty out.
    let mut b = ProgramBuilder::new();
    let mut regs = Vec::new();
    for i in 0..5 {
        let r = b.named_reg(&format!("r{i}"));
        b.const_i(r, i as i64);
        regs.push(r);
    }
    for &r in &regs {
        b.live_out(r);
    }
    let g0 = b.finish();
    let mut g = g0.clone();
    let ddg = Ddg::build(&g, g.entry);
    let mut ctx = Ctx::new(&g, &ddg);
    // Repeatedly move each op up until it reaches the first op node.
    let first = g.successors(g.entry)[0];
    let mut changed = true;
    while changed {
        changed = false;
        for n in g.reachable() {
            if n == g.entry || n == first || !g.node_exists(n) {
                continue;
            }
            let ops: Vec<OpId> = g.node_ops(n).iter().map(|&(_, o)| o).collect();
            for op in ops {
                let ps = g.preds(n);
                if ps.len() != 1 {
                    continue;
                }
                let to = ps[0];
                if to == g.entry {
                    continue;
                }
                let path = g.node(to).tree.leaf_paths_to(n)[0];
                if move_op(&mut g, &mut ctx, n, to, op, path).is_ok() {
                    changed = true;
                }
            }
        }
    }
    assert_eq!(g.node_op_count(first), 5, "all five ops packed into one instruction");
    g.validate().unwrap();
    assert_equiv(&g0, &g, &|_| {});
}
