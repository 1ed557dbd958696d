//! Property test: liveness recomputed on long-lived state (a
//! `LivenessCache` kept across edits, and a `Liveness` recomputed in
//! place) equals a from-scratch round-robin solve after every random
//! edit of a loop graph with branches and exits. Debug builds also check
//! the cached order against a fresh reverse postorder on every recompute.

use grip_analysis::{reverse_postorder, BitSet, Liveness, LivenessCache};
use grip_ir::{
    Graph, NodeId, OpId, OpKind, Operand, Operation, ProgramBuilder, RegId, Tree, TreePath, Value,
};

/// Seeded 64-bit LCG (no external crates).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        self.next() as usize % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
}

/// A random operand: a register of `regs` or an immediate.
fn operand(rng: &mut Rng, regs: &[RegId]) -> Operand {
    if rng.below(4) == 0 {
        Operand::Imm(Value::I(rng.below(9) as i64))
    } else {
        Operand::Reg(rng.pick(regs))
    }
}

/// A random unplaced op: an add or a copy writing one of `regs`.
fn random_op(rng: &mut Rng, g: &mut Graph, regs: &[RegId]) -> OpId {
    let d = Some(rng.pick(regs));
    let op = if rng.below(3) == 0 {
        Operation::new(OpKind::Copy, d, vec![operand(rng, regs)])
    } else {
        Operation::new(OpKind::IAdd, d, vec![operand(rng, regs), operand(rng, regs)])
    };
    g.add_op(op)
}

/// A random successor: an existing node (possibly `n` itself) or the exit.
fn target(rng: &mut Rng, g: &Graph, n: NodeId) -> Option<NodeId> {
    let nodes: Vec<NodeId> = g.node_ids().collect();
    match rng.below(6) {
        0 => None,
        1 => Some(n),
        _ => Some(rng.pick(&nodes)),
    }
}

/// Tree positions of `n`: leaves only, or every position.
fn positions(g: &Graph, n: NodeId, leaves_only: bool) -> Vec<TreePath> {
    let mut out = Vec::new();
    g.node(n).tree.walk(&mut |p, t| {
        if !leaves_only || matches!(t, Tree::Leaf { .. }) {
            out.push(p);
        }
    });
    out
}

/// Split a shallow leaf of `n` on a fresh jump reading one of `regs`.
fn split(rng: &mut Rng, g: &mut Graph, n: NodeId, regs: &[RegId]) -> &'static str {
    let shallow: Vec<TreePath> =
        positions(g, n, true).into_iter().filter(|p| p.len() < 6).collect();
    if shallow.is_empty() {
        return "split_leaf (none)";
    }
    let path = rng.pick(&shallow);
    let (t, f) = (target(rng, g, n), target(rng, g, n));
    let cj = g.add_op(Operation::new(OpKind::CondJump, None, vec![Operand::Reg(rng.pick(regs))]));
    g.split_leaf(n, path, cj, t, f);
    "split_leaf"
}

/// A loop kernel over a small register pool, with random jumps (some to
/// the exit) split into its rows.
fn loop_graph(rng: &mut Rng) -> (Graph, Vec<RegId>) {
    let mut b = ProgramBuilder::new();
    let mut regs: Vec<RegId> = (0..6).map(|i| b.named_reg(&format!("r{i}"))).collect();
    for &r in &regs[..3] {
        b.const_i(r, rng.below(9) as i64);
    }
    b.begin_loop();
    for _ in 0..3 + rng.below(6) {
        let op = Operation::new(
            OpKind::IAdd,
            Some(rng.pick(&regs)),
            vec![Operand::Reg(rng.pick(&regs)), operand(rng, &regs)],
        );
        b.emit(op);
    }
    let c = b.binary("c", OpKind::CmpLt, Operand::Reg(regs[0]), Operand::Imm(Value::I(8)));
    b.end_loop(c);
    for _ in 0..rng.below(3) {
        b.emit(Operation::new(OpKind::Copy, Some(rng.pick(&regs)), vec![operand(rng, &regs)]));
    }
    let mut g = b.finish();
    regs.push(c);
    g.live_out = vec![rng.pick(&regs), rng.pick(&regs)];
    for _ in 0..rng.below(3) {
        let nodes: Vec<NodeId> = g.node_ids().collect();
        let n = rng.pick(&nodes);
        split(rng, &mut g, n, &regs);
    }
    (g, regs)
}

/// Apply one random edit; returns its name for the failure message.
fn edit(rng: &mut Rng, g: &mut Graph, regs: &mut Vec<RegId>) -> &'static str {
    let nodes: Vec<NodeId> = g.node_ids().collect();
    let n = rng.pick(&nodes);
    let ops: Vec<OpId> = g.node_ops(n).iter().map(|&(_, o)| o).collect();
    match rng.below(12) {
        0 | 1 => {
            let plain: Vec<OpId> = ops.into_iter().filter(|&o| !g.op(o).kind.is_cj()).collect();
            if plain.is_empty() {
                return "remove_op_from (none)";
            }
            g.remove_op_from(n, rng.pick(&plain));
            "remove_op_from"
        }
        2 | 3 => {
            let path = rng.pick(&positions(g, n, false));
            let op = random_op(rng, g, regs);
            g.insert_op_at(n, path, op);
            "insert_op_at"
        }
        4 => {
            if ops.is_empty() {
                return "op_mut (none)";
            }
            let op = rng.pick(&ops);
            let r = rng.pick(regs);
            let o = g.op_mut(op);
            let i = rng.below(o.src.len());
            o.src[i] = Operand::Reg(r);
            "op_mut"
        }
        5 => {
            regs.push(g.fresh_reg());
            "fresh_reg"
        }
        6 => split(rng, g, n, regs),
        7 => {
            let path = rng.pick(&positions(g, n, true));
            let s = target(rng, g, n);
            g.set_succ(n, path, s);
            "set_succ"
        }
        8 => {
            let to = target(rng, g, n);
            g.redirect_all(n, to);
            "redirect_all"
        }
        9 | 10 => {
            let deletable = |m: NodeId| {
                m != g.entry
                    && g.node(m).tree.is_empty()
                    && g.node(m).tree.successors().first() != Some(&m)
            };
            let empties: Vec<NodeId> = nodes.into_iter().filter(|&m| deletable(m)).collect();
            if empties.is_empty() {
                return "delete_empty_node (none)";
            }
            g.delete_empty_node(rng.pick(&empties));
            "delete_empty_node"
        }
        _ => {
            if rng.below(3) == 0 {
                g.entry = n;
                "entry"
            } else {
                g.live_out = vec![rng.pick(regs)];
                "live_out"
            }
        }
    }
}

/// Registers written on every leaf path of `n`.
fn must_defs(g: &Graph, n: NodeId) -> Vec<RegId> {
    let tree = &g.node(n).tree;
    let mut acc: Option<Vec<RegId>> = None;
    for (leaf, _) in tree.leaves() {
        let mut defs = Vec::new();
        tree.walk(&mut |p, t| {
            if p.is_prefix_of(leaf) {
                defs.extend(t.ops().iter().filter_map(|&o| g.op(o).dest));
            }
        });
        acc = Some(match acc {
            None => defs,
            Some(prev) => prev.into_iter().filter(|d| defs.contains(d)).collect(),
        });
    }
    acc.unwrap_or_default()
}

/// The reference solver: round-robin passes in postorder over the
/// reachable nodes until one pass changes nothing, every summary
/// computed afresh. Indexed by node id; `None` for unreachable nodes.
fn round_robin(g: &Graph) -> Vec<Option<BitSet>> {
    let nreg = g.reg_count();
    let order = reverse_postorder(g, g.entry);
    let mut live_in: Vec<Option<BitSet>> = vec![None; g.node_index_bound()];
    for &n in &order {
        live_in[n.index()] = Some(BitSet::new(nreg));
    }
    let mut changed = true;
    while changed {
        changed = false;
        for &n in order.iter().rev() {
            let mut set = BitSet::new(nreg);
            for &(_, succ) in g.node_leaves(n) {
                match succ {
                    Some(s) => {
                        set.union_with(live_in[s.index()].as_ref().expect("reachable"));
                    }
                    None => {
                        for &r in &g.live_out {
                            set.insert(r.index());
                        }
                    }
                }
            }
            for r in must_defs(g, n) {
                set.remove(r.index());
            }
            for &(_, op) in g.node_ops(n) {
                for r in g.op(op).reads() {
                    set.insert(r.index());
                }
            }
            if live_in[n.index()].as_ref() != Some(&set) {
                live_in[n.index()] = Some(set);
                changed = true;
            }
        }
    }
    live_in
}

/// Compare a result with the reference on every node id.
fn assert_matches(lv: &Liveness, want: &[Option<BitSet>], what: &str) {
    for (i, w) in want.iter().enumerate() {
        let n = NodeId::new(i);
        assert_eq!(lv.live_in(n), w.as_ref(), "{what}: live-in of {n}");
    }
}

#[test]
fn cached_recompute_matches_round_robin_after_every_edit() {
    for seed in 0..48u64 {
        let mut rng = Rng(0x51ED_270B ^ (seed << 20));
        let (mut g, mut regs) = loop_graph(&mut rng);
        let mut cache = LivenessCache::default();
        let mut in_place_cache = LivenessCache::default();
        let mut in_place = Liveness::compute_with(&g, &mut in_place_cache);
        for step in 0..120 {
            let what = edit(&mut rng, &mut g, &mut regs);
            let want = round_robin(&g);
            let ctx = format!("seed {seed}, step {step} after {what}");
            assert_matches(&Liveness::compute_with(&g, &mut cache), &want, &ctx);
            // A grow-only update leaves stale bits in the reused sets;
            // the in-place recompute must clear them.
            let nodes: Vec<NodeId> = g.node_ids().collect();
            in_place.add_live_at(&g, rng.pick(&nodes), rng.pick(&regs));
            in_place.recompute(&g, &mut in_place_cache);
            assert_matches(&in_place, &want, &format!("{ctx} (in place)"));
        }
    }
}
