//! Loop unwinding with per-iteration register renaming.
//!
//! Perfect Pipelining "unwinds the loop a fixed number of times before
//! scheduling" (§3.2). The unwinder replicates the canonical one-op-per-node
//! loop body `u` times:
//!
//! * iteration copies `0..u-1` define fresh registers; the **last** copy
//!   writes back into the original registers, so the window's back edge
//!   re-enters with the same register names it started with (and the first
//!   entry from the preheader needs no adjustment either);
//! * every op is tagged with its iteration (`Operation::iter`) — the tags
//!   drive the iteration-major ranking rule and the Gapless-move test;
//! * each iteration's loop-control jump exits to a per-iteration *fix-up
//!   block* that copies the live-at-exit registers back to their canonical
//!   names before the shared epilogue.

use grip_analysis::Liveness;
use grip_ir::{Graph, LoopInfo, NodeId, OpId, OpKind, Operand, RegId, Tree, TreePath};
use std::collections::HashMap;

/// The unwound window plus the bookkeeping pattern detection needs.
///
/// `Clone` exists for the service layer's DDG cache: a cached window is
/// cloned per request and handed (with a clone of its graph) to
/// [`crate::schedule_window`].
#[derive(Clone, Debug)]
pub struct Window {
    /// Window rows in chain order: iteration 0's first node through the
    /// last iteration's latch.
    pub rows: Vec<NodeId>,
    /// First row (back-edge target).
    pub head: NodeId,
    /// Last row (back-edge source before scheduling).
    pub latch: NodeId,
    /// Per-iteration exit fix-up entry nodes (empty entries point straight
    /// at the loop exit).
    pub fixups: Vec<NodeId>,
    /// Unwind factor.
    pub iterations: u32,
    /// Window op → original body op (ancestry for row signatures).
    pub origin: HashMap<OpId, OpId>,
    /// Nodes per iteration in the original sequential body — the paper's
    /// sequential cycles-per-iteration baseline.
    pub body_len: usize,
}

impl Window {
    /// The original body op behind a (possibly duplicated) window op.
    pub fn body_op(&self, g: &Graph, op: OpId) -> Option<OpId> {
        self.origin.get(&g.op(op).orig).copied()
    }
}

/// Unwind the single canonical loop of `g` by factor `u` (≥ 1).
///
/// Panics if the graph has no [`LoopInfo`] or the body is not in canonical
/// one-op-per-node form (the shape every kernel builder produces).
pub fn unwind(g: &mut Graph, u: usize) -> Window {
    assert!(u >= 1, "unwind factor must be at least 1");
    let li = g.loop_info.expect("unwind requires loop_info");

    // Collect the canonical body: chain of single-op leaves ending at the
    // branch latch.
    let mut body: Vec<(NodeId, OpId)> = Vec::new();
    let mut cur = li.head;
    let latch_cj = loop {
        if cur == li.latch {
            match &g.node(cur).tree {
                Tree::Branch { cj, ops, on_true, on_false } => {
                    assert!(ops.is_empty(), "canonical latch carries only its jump");
                    assert!(
                        matches!(**on_true, Tree::Leaf { .. })
                            && matches!(**on_false, Tree::Leaf { .. }),
                        "canonical latch has leaf sides"
                    );
                    break *cj;
                }
                _ => panic!("latch must branch"),
            }
        }
        let ops = g.node_ops(cur);
        assert_eq!(ops.len(), 1, "canonical body has one op per node ({cur})");
        assert_eq!(ops[0].0, TreePath::ROOT, "body ops sit at tree roots");
        body.push((cur, ops[0].1));
        let succ = g.successors(cur);
        assert_eq!(succ.len(), 1, "body nodes fall through");
        cur = succ[0];
    };
    let body_len = body.len() + 1; // + latch

    // Registers needing exit fix-ups: defined in the body AND live at the
    // loop exit.
    let lv = Liveness::compute(g);
    let body_defs: Vec<RegId> = body.iter().filter_map(|&(_, op)| g.op(op).dest).collect();
    let fixup_regs: Vec<RegId> =
        body_defs.iter().copied().filter(|&r| lv.is_live_in(li.exit, r)).collect();

    // Emit u copies.
    let mut rows: Vec<NodeId> = Vec::new();
    let mut fixups: Vec<NodeId> = Vec::new();
    let mut origin: HashMap<OpId, OpId> = HashMap::new();
    // Current name of each body-defined register (identity at window entry).
    let mut cur_name: HashMap<RegId, RegId> = HashMap::new();
    let mut iter_heads: Vec<NodeId> = Vec::new();
    let mut latches: Vec<NodeId> = Vec::new();

    for i in 0..u {
        let last_copy = i == u - 1;
        let mut iter_rows = Vec::new();
        for &(_, body_op) in &body {
            let mut op = g.op(body_op).clone();
            // Rewrite reads to current names.
            for s in op.src.iter_mut() {
                if let Operand::Reg(r) = *s {
                    if let Some(&nr) = cur_name.get(&r) {
                        *s = Operand::Reg(nr);
                    }
                }
            }
            // Destination: fresh per iteration, original names in the last
            // copy (so the back edge needs no compensation).
            if let Some(d) = op.dest {
                let nd = if last_copy {
                    d
                } else {
                    let base = g.reg_name(d).map(|s| s.to_string());
                    match base {
                        Some(b) => g.named_reg(&format!("{b}.{i}")),
                        None => g.fresh_reg(),
                    }
                };
                op.dest = Some(nd);
                cur_name.insert(d, nd);
            }
            op.iter = i as u32;
            let id = g.add_op(op);
            origin.insert(id, body_op);
            let n = g.add_node(Tree::Leaf { ops: vec![id], succ: None });
            iter_rows.push(n);
        }
        // Latch copy.
        let mut cj = g.op(latch_cj).clone();
        if let Operand::Reg(r) = cj.src[0] {
            if let Some(&nr) = cur_name.get(&r) {
                cj.src[0] = Operand::Reg(nr);
            }
        }
        cj.iter = i as u32;
        let cj_id = g.add_op(cj);
        origin.insert(cj_id, latch_cj);
        let latch = g.add_node(Tree::Branch {
            ops: vec![],
            cj: cj_id,
            on_true: Box::new(Tree::leaf(None)),  // patched below
            on_false: Box::new(Tree::leaf(None)), // patched below
        });
        iter_rows.push(latch);
        latches.push(latch);

        // Chain the iteration's rows.
        for w in iter_rows.windows(2) {
            g.set_succ(w[0], TreePath::ROOT, Some(w[1]));
        }
        iter_heads.push(iter_rows[0]);

        // Exit fix-up block: canonical_name <- current_name for live regs.
        let fixup_entry = if last_copy {
            li.exit // last copy already writes canonical names
        } else {
            let mut entry: Option<NodeId> = None;
            let mut tail: Option<NodeId> = None;
            for &r in &fixup_regs {
                let cn = cur_name.get(&r).copied().unwrap_or(r);
                if cn == r {
                    continue;
                }
                let mut c = grip_ir::Operation::new(OpKind::Copy, Some(r), vec![Operand::Reg(cn)]);
                c.iter = i as u32;
                c.name = g.reg_name(r).map(|s| format!("{s}!").into());
                let cid = g.add_op(c);
                let n = g.add_node(Tree::Leaf { ops: vec![cid], succ: None });
                if let Some(t) = tail {
                    g.set_succ(t, TreePath::ROOT, Some(n));
                }
                entry.get_or_insert(n);
                tail = Some(n);
            }
            match (entry, tail) {
                (Some(e), Some(t)) => {
                    g.set_succ(t, TreePath::ROOT, Some(li.exit));
                    e
                }
                _ => li.exit,
            }
        };
        fixups.push(fixup_entry);
        g.set_succ(latch, TreePath::ROOT.child(false), Some(fixup_entry));

        rows.extend(iter_rows);
    }

    // Continue edges: iteration i -> iteration i+1; last -> window head.
    for (i, &latch) in latches.iter().enumerate() {
        let target = if i + 1 < u { iter_heads[i + 1] } else { iter_heads[0] };
        g.set_succ(latch, TreePath::ROOT.child(true), Some(target));
    }

    // Splice the window in place of the old body.
    let head = iter_heads[0];
    let latch = latches[u - 1];
    // The preheader's edge(s) to the old head now reach the window.
    for p in g.preds(li.head).to_vec() {
        if p == li.latch {
            continue; // the old back edge dies with the old body
        }
        for lp in g.node(p).tree.leaf_paths_to(li.head) {
            g.set_succ(p, lp, Some(head));
        }
    }
    g.loop_info = Some(LoopInfo { head, latch, preheader: li.preheader, exit: li.exit });

    Window { rows, head, latch, fixups, iterations: u as u32, origin, body_len }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grip_ir::{OpKind, ProgramBuilder, Value};
    use grip_vm::{EquivReport, Machine};

    /// saxpy-ish: y[k] = y[k] + 2.5*x[k], k live-out.
    fn loop_graph(n: i64) -> (Graph, grip_ir::ArrayId, grip_ir::ArrayId) {
        let mut b = ProgramBuilder::new();
        let x = b.array("x", (n + 8) as usize);
        let y = b.array("y", (n + 8) as usize);
        let k = b.named_reg("k");
        b.const_i(k, 0);
        b.begin_loop();
        let t = b.load("t", x, Operand::Reg(k), 0);
        let u_ = b.binary("u", OpKind::Mul, Operand::Reg(t), Operand::Imm(Value::F(2.5)));
        let w = b.load("w", y, Operand::Reg(k), 0);
        let v = b.binary("v", OpKind::Add, Operand::Reg(u_), Operand::Reg(w));
        b.store(y, Operand::Reg(k), 0, Operand::Reg(v));
        b.iadd_imm(k, k, 1);
        let c = b.binary("c", OpKind::CmpLt, Operand::Reg(k), Operand::Imm(Value::I(n)));
        b.end_loop(c);
        let mut g = b.finish();
        g.live_out = vec![k];
        (g, x, y)
    }

    fn check_equiv(g0: &Graph, g1: &Graph, x: grip_ir::ArrayId, y: grip_ir::ArrayId, n: i64) {
        let setup = |m: &mut Machine| {
            let xs: Vec<f64> = (0..n + 8).map(|i| (i as f64).sin()).collect();
            let ys: Vec<f64> = (0..n + 8).map(|i| (i as f64) * 0.25).collect();
            m.set_array_f(x, &xs);
            m.set_array_f(y, &ys);
        };
        let mut m0 = Machine::for_graph(g0);
        setup(&mut m0);
        m0.run(g0).unwrap();
        let mut m1 = Machine::for_graph(g1);
        setup(&mut m1);
        m1.run(g1).unwrap();
        let rep = EquivReport::compare(g0, &m0, &m1);
        assert!(rep.is_equal(), "unwinding changed semantics: {rep:?}");
    }

    #[test]
    fn unwound_window_preserves_semantics_all_remainders() {
        // Trip counts that end at every possible point mid-window.
        for n in [1i64, 2, 3, 4, 5, 7, 8, 9, 12] {
            let (g0, x, y) = loop_graph(n);
            let mut g = g0.clone();
            let w = unwind(&mut g, 4);
            g.validate().unwrap();
            assert_eq!(w.rows.len(), 4 * w.body_len);
            check_equiv(&g0, &g, x, y, n);
        }
    }

    #[test]
    fn unwind_factor_one_is_identity_shaped() {
        let (g0, x, y) = loop_graph(6);
        let mut g = g0.clone();
        let w = unwind(&mut g, 1);
        g.validate().unwrap();
        assert_eq!(w.rows.len(), w.body_len);
        assert_eq!(w.fixups.len(), 1);
        check_equiv(&g0, &g, x, y, 6);
    }

    #[test]
    fn iteration_tags_and_origins_recorded() {
        let (g0, _, _) = loop_graph(8);
        let mut g = g0.clone();
        let w = unwind(&mut g, 3);
        for (idx, &row) in w.rows.iter().enumerate() {
            let expect_iter = (idx / w.body_len) as u32;
            for &(_, op) in g.node_ops(row) {
                assert_eq!(g.op(op).iter, expect_iter, "row {idx}");
                assert!(w.body_op(&g, op).is_some(), "every window op maps to a body op");
            }
        }
        // Same body op across iterations maps to the same origin.
        let first_op = g.node_ops(w.rows[0])[0].1;
        let second_op = g.node_ops(w.rows[w.body_len])[0].1;
        assert_eq!(w.body_op(&g, first_op), w.body_op(&g, second_op));
    }

    #[test]
    fn last_iteration_writes_canonical_registers() {
        let (g0, _, _) = loop_graph(8);
        let mut g = g0.clone();
        let w = unwind(&mut g, 4);
        // k's final update in the window writes the original k.
        let k = g0.live_out[0];
        let last_iter_rows = &w.rows[3 * w.body_len..];
        let writes_k = last_iter_rows
            .iter()
            .any(|&n| g.node_ops(n).iter().any(|&(_, o)| g.op(o).dest == Some(k)));
        assert!(writes_k, "last copy must write canonical k");
        // Early iterations write renamed registers only.
        let early = &w.rows[..w.body_len];
        assert!(
            early.iter().all(|&n| { g.node_ops(n).iter().all(|&(_, o)| g.op(o).dest != Some(k)) }),
            "iteration 0 must not clobber canonical k"
        );
    }
}
