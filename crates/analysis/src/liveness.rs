//! Register liveness over tree-structured VLIW instructions.
//!
//! Used for the paper's *write-live* conflict test ("Op writes to a register
//! that is live at the entry to From, but that is not killed by Op", §2) and
//! for dead-code removal. Between full recomputations the scheduler applies
//! *grow-only* updates, which can only over-approximate liveness — an
//! over-approximation may cause an unnecessary renaming but never an unsound
//! motion.

use crate::bitset::BitSet;
use crate::order::reverse_postorder;
use grip_ir::{Graph, NodeId, OpId, RegId};
use std::collections::VecDeque;

/// State reused across [`Liveness::recompute`] calls on one graph (and
/// its edits):
///
/// * per-node dataflow summaries (entry uses and must-defs), keyed by
///   [`Graph::node_stamp`], so only nodes edited since the previous call
///   pay the tree walk again;
/// * the reverse postorder from the entry, keyed by
///   [`Graph::edge_version`] and `g.entry`, so it is rebuilt only when an
///   edge or the entry changed (plain op hops leave both alone).
///
/// The scheduler recomputes liveness after every scheduled node; between
/// recomputes it touches a handful of rows, so each recompute costs the
/// edited nodes' tree walks plus one worklist fixpoint over bit sets.
#[derive(Default)]
pub struct LivenessCache {
    /// Indexed by node id.
    node: Vec<Option<NodeSummary>>,
    /// Reverse postorder of the nodes reachable from the entry, and the
    /// `(edge version, entry)` it was built at.
    order: Vec<NodeId>,
    order_key: Option<(u64, NodeId)>,
}

impl LivenessCache {
    /// Rebuild the order if an edge or the entry changed since it was
    /// built.
    fn refresh_order(&mut self, g: &Graph) {
        let key = (g.edge_version(), g.entry);
        if self.order_key != Some(key) {
            self.order = reverse_postorder(g, g.entry);
            self.order_key = Some(key);
        }
        debug_assert_eq!(self.order, reverse_postorder(g, g.entry), "stale cached order");
    }
}

/// One node's cached dataflow summary: `(stamp, uses, must_defs)`.
type NodeSummary = (u64, Vec<RegId>, Vec<RegId>);

/// Per-node live-in register sets.
pub struct Liveness {
    nreg: usize,
    live_in: Vec<Option<BitSet>>,
}

impl Liveness {
    /// Fixpoint liveness for all nodes reachable from the entry.
    pub fn compute(g: &Graph) -> Liveness {
        Liveness::compute_with(g, &mut LivenessCache::default())
    }

    /// [`Liveness::compute`] reusing `cache` (per-node summaries and the
    /// order) across calls on one graph. Bit-identical results;
    /// [`Liveness::recompute`] also reuses an earlier result's sets.
    pub fn compute_with(g: &Graph, cache: &mut LivenessCache) -> Liveness {
        let mut lv = Liveness { nreg: 0, live_in: Vec::new() };
        lv.recompute(g, cache);
        lv
    }

    /// Recompute liveness from scratch in place: the same exact result as
    /// [`Liveness::compute`], with this result's sets reused as buffers.
    ///
    /// The fixpoint is a worklist seeded in postorder; when a node's
    /// live-in changes, only its reachable predecessors
    /// ([`Graph::preds`]) are queued again. Every set starts empty and the
    /// transfer is monotone, so any evaluation order reaches the same
    /// least fixpoint as round-robin passes do.
    pub fn recompute(&mut self, g: &Graph, cache: &mut LivenessCache) {
        let nreg = g.reg_count();
        let bound = g.node_index_bound();
        cache.refresh_order(g);
        if cache.node.len() < bound {
            cache.node.resize_with(bound, || None);
        }
        // Reachable nodes get an empty set (an old one where there is
        // one), every other node none.
        let mut spare: Vec<BitSet> = self
            .live_in
            .iter_mut()
            .filter_map(Option::take)
            .filter(|set| set.capacity() == nreg)
            .collect();
        self.nreg = nreg;
        self.live_in.resize_with(bound, || None);
        for &n in &cache.order {
            let mut set = spare.pop().unwrap_or_else(|| BitSet::new(nreg));
            set.clear();
            self.live_in[n.index()] = Some(set);
            let stamp = g.node_stamp(n);
            let fresh = match &cache.node[n.index()] {
                Some((s, _, _)) => *s != stamp,
                None => true,
            };
            if fresh {
                let mut uses: Vec<RegId> = Vec::new();
                for &(_, op) in g.node_ops(n) {
                    uses.extend(g.op(op).reads());
                }
                cache.node[n.index()] = Some((stamp, uses, must_defs_of(g, n)));
            }
        }
        let mut queue: VecDeque<NodeId> = cache.order.iter().rev().copied().collect();
        let mut queued = vec![false; bound];
        for &n in &queue {
            queued[n.index()] = true;
        }
        let mut scratch = BitSet::new(nreg);
        while let Some(n) = queue.pop_front() {
            queued[n.index()] = false;
            scratch.clear();
            // live-out: union of successors' live-in; exits contribute
            // the program's observable registers.
            for &(_, succ) in g.node_leaves(n) {
                match succ {
                    Some(s) => {
                        if let Some(set) = self.live_in[s.index()].as_ref() {
                            scratch.union_with(set);
                        }
                    }
                    None => {
                        for &r in &g.live_out {
                            scratch.insert(r.index());
                        }
                    }
                }
            }
            let (_, uses, must) = cache.node[n.index()].as_ref().expect("summary built");
            // Kill registers defined on *every* path.
            for r in must {
                scratch.remove(r.index());
            }
            // All operand fetches happen at entry.
            for r in uses {
                scratch.insert(r.index());
            }
            let entry = self.live_in[n.index()].as_mut().expect("node in order");
            if *entry != scratch {
                std::mem::swap(entry, &mut scratch);
                // Only reachable predecessors hold a set.
                for &p in g.preds(n) {
                    if self.live_in[p.index()].is_some() && !queued[p.index()] {
                        queued[p.index()] = true;
                        queue.push_back(p);
                    }
                }
            }
        }
    }

    /// Live-in set of `n` (empty for unknown nodes).
    pub fn live_in(&self, n: NodeId) -> Option<&BitSet> {
        self.live_in.get(n.index()).and_then(|s| s.as_ref())
    }

    /// True if `r` is live at entry of `n`.
    pub fn is_live_in(&self, n: NodeId, r: RegId) -> bool {
        self.live_in.get(n.index()).and_then(|s| s.as_ref()).is_some_and(|s| s.contains(r.index()))
    }

    /// Make room for registers allocated after `compute` (renaming).
    pub fn grow_regs(&mut self, nreg: usize) {
        if nreg > self.nreg {
            self.nreg = nreg;
            for set in self.live_in.iter_mut().flatten() {
                set.grow(nreg);
            }
        }
    }

    fn entry_mut(&mut self, n: NodeId) -> &mut BitSet {
        if self.live_in.len() <= n.index() {
            self.live_in.resize_with(n.index() + 1, || None);
        }
        let nreg = self.nreg;
        self.live_in[n.index()].get_or_insert_with(|| BitSet::new(nreg))
    }

    /// Seed liveness for a node created after `compute` (a split copy) from
    /// the node it was cloned from.
    pub fn adopt(&mut self, new_node: NodeId, template: NodeId) {
        let set = self.live_in(template).cloned().unwrap_or_else(|| BitSet::new(self.nreg));
        *self.entry_mut(new_node) = set;
    }

    /// Grow-only update: record that `r` is (possibly) live at entry of `n`
    /// and propagate upward through [`Graph::preds`] until a node
    /// must-defines `r` or already has it.
    pub fn add_live_at(&mut self, g: &Graph, n: NodeId, r: RegId) {
        self.grow_regs(g.reg_count());
        let mut stack = vec![n];
        while let Some(m) = stack.pop() {
            let nreg = self.nreg;
            let entry = self.entry_mut(m);
            entry.grow(nreg);
            if !entry.insert(r.index()) {
                continue; // already known live here
            }
            for &p in g.preds(m) {
                if !must_defs_of(g, p).contains(&r) {
                    stack.push(p);
                }
            }
        }
    }

    /// The paper's write-live test, phrased for a move of `op` out of
    /// `from`: is `dest` live at the entry to `from` when `op`'s own
    /// contribution is ignored?
    ///
    /// True when some *other* op of `from` reads `dest` at entry
    /// (move-past-read folds into the same test), or some leaf path of
    /// `from` without a redefinition of `dest` (by ops ≠ `op`) flows into a
    /// successor where `dest` is live.
    pub fn write_live_conflict(&self, g: &Graph, from: NodeId, op: OpId, dest: RegId) -> bool {
        let tree = &g.node(from).tree;
        // Entry reads by other ops in the node.
        for &(_, o) in g.node_ops(from) {
            if o != op && g.op(o).reads_reg(dest) {
                return true;
            }
        }
        // Paths whose downstream still wants dest.
        for &(leaf, succ) in g.node_leaves(from) {
            let mut redefined = false;
            tree.walk(&mut |p, t| {
                if p.is_prefix_of(leaf) {
                    for &o in t.ops() {
                        if o != op && g.op(o).dest == Some(dest) {
                            redefined = true;
                        }
                    }
                }
            });
            if redefined {
                continue;
            }
            let live_downstream = match succ {
                Some(s) => self.is_live_in(s, dest),
                None => g.live_out.contains(&dest),
            };
            if live_downstream {
                return true;
            }
        }
        false
    }

    /// True if the value `op` (placed in `n` at position `pos`) writes to
    /// `dest` can never be observed: no other op reads it at entry of a
    /// later node on any path through `pos`. Same-node ops see entry values
    /// and are therefore never readers of `op`'s result.
    pub fn dest_is_dead(&self, g: &Graph, n: NodeId, op: OpId, dest: RegId) -> bool {
        if g.placement(op) != Some(n) {
            return false;
        }
        let leaves = g.node_leaves(n);
        // Leaf nodes (the overwhelmingly common VLIW row shape): every op
        // commits on the single path, so liveness at the one successor
        // decides — no tree walk needed.
        if let [(_, succ)] = leaves {
            let live = match succ {
                Some(s) => self.is_live_in(*s, dest),
                None => g.live_out.contains(&dest),
            };
            return !live;
        }
        let tree = &g.node(n).tree;
        let Some(pos) = tree.position_of(op) else {
            return false;
        };
        for &(leaf, succ) in leaves {
            if !pos.is_prefix_of(leaf) {
                continue; // op does not commit on this path
            }
            let live = match succ {
                Some(s) => self.is_live_in(s, dest),
                None => g.live_out.contains(&dest),
            };
            if live {
                return false;
            }
        }
        true
    }
}

/// Registers written on every leaf path of `n`.
fn must_defs_of(g: &Graph, n: NodeId) -> Vec<RegId> {
    let tree = &g.node(n).tree;
    let leaves = tree.leaves();
    let mut acc: Option<Vec<RegId>> = None;
    for (leaf, _) in leaves {
        let mut defs = Vec::new();
        tree.walk(&mut |p, t| {
            if p.is_prefix_of(leaf) {
                for &o in t.ops() {
                    if let Some(d) = g.op(o).dest {
                        defs.push(d);
                    }
                }
            }
        });
        acc = Some(match acc {
            None => defs,
            Some(prev) => prev.into_iter().filter(|d| defs.contains(d)).collect(),
        });
        if acc.as_ref().is_some_and(|a| a.is_empty()) {
            break;
        }
    }
    acc.unwrap_or_default()
}

#[allow(unused_imports)]
use grip_ir::TreePath; // referenced by docs

#[cfg(test)]
mod tests {
    use super::*;
    use grip_ir::{OpKind, Operand, ProgramBuilder, Value};

    /// k=0; loop { t=x[k]; x[k]=t*2; k+=1; c=k<8 } ; live_out = {k}
    fn loop_graph() -> (Graph, RegId, RegId, RegId) {
        let mut b = ProgramBuilder::new();
        let x = b.array("x", 8);
        let k = b.named_reg("k");
        b.const_i(k, 0);
        b.begin_loop();
        let t = b.load("t", x, Operand::Reg(k), 0);
        let t2 = b.binary("t2", OpKind::Mul, Operand::Reg(t), Operand::Imm(Value::F(2.0)));
        b.store(x, Operand::Reg(k), 0, Operand::Reg(t2));
        b.iadd_imm(k, k, 1);
        let c = b.binary("c", OpKind::CmpLt, Operand::Reg(k), Operand::Imm(Value::I(8)));
        b.end_loop(c);
        let mut g = b.finish();
        g.live_out = vec![k];
        (g, k, t, t2)
    }

    #[test]
    fn loop_carried_register_is_live_at_head() {
        let (g, k, t, _) = loop_graph();
        let lv = Liveness::compute(&g);
        let li = g.loop_info.unwrap();
        assert!(lv.is_live_in(li.head, k), "k live around the loop");
        assert!(!lv.is_live_in(li.head, t), "t is defined before use each iteration");
    }

    #[test]
    fn live_out_registers_survive_exit() {
        let (g, k, _, _) = loop_graph();
        let lv = Liveness::compute(&g);
        let li = g.loop_info.unwrap();
        assert!(lv.is_live_in(li.exit, k), "k observable after loop");
    }

    #[test]
    fn temporaries_die_after_last_use() {
        let (g, _, t, t2) = loop_graph();
        let lv = Liveness::compute(&g);
        let li = g.loop_info.unwrap();
        // At the latch, both t and t2 are dead (store already consumed t2).
        assert!(!lv.is_live_in(li.latch, t));
        assert!(!lv.is_live_in(li.latch, t2));
    }

    #[test]
    fn write_live_test_detects_loop_carried_conflicts() {
        let (g, k, _, _) = loop_graph();
        let lv = Liveness::compute(&g);
        // The induction update `k = k + 1` node: moving it out of its node
        // conflicts on k? k is read downstream (cmp) => live at succ.
        let li = g.loop_info.unwrap();
        // find the iadd node
        let mut n = li.head;
        let (iadd_node, iadd_op) = loop {
            let ops = g.node_ops(n);
            if let Some(&(_, o)) = ops.first() {
                if g.op(o).kind == OpKind::IAdd {
                    break (n, o);
                }
            }
            n = g.successors(n)[0];
        };
        assert!(lv.write_live_conflict(&g, iadd_node, iadd_op, k));
        // A fresh register is never live.
        let mut g2 = g.clone();
        let fresh = g2.fresh_reg();
        assert!(!lv.write_live_conflict(&g2, iadd_node, iadd_op, fresh));
    }

    #[test]
    fn dest_dead_detection() {
        let mut b = ProgramBuilder::new();
        let a = b.named_reg("a");
        b.const_i(a, 1);
        let unused = b.binary("u", OpKind::IAdd, Operand::Reg(a), Operand::Imm(Value::I(1)));
        let used = b.binary("s", OpKind::IAdd, Operand::Reg(a), Operand::Imm(Value::I(2)));
        b.live_out(used);
        let g = b.finish();
        let lv = Liveness::compute(&g);
        // find nodes of the two adds
        let mut unused_loc = None;
        let mut used_loc = None;
        for n in g.reachable() {
            for &(_, o) in g.node_ops(n) {
                if g.op(o).dest == Some(unused) {
                    unused_loc = Some((n, o));
                }
                if g.op(o).dest == Some(used) {
                    used_loc = Some((n, o));
                }
            }
        }
        let (n_u, o_u) = unused_loc.unwrap();
        let (n_s, o_s) = used_loc.unwrap();
        assert!(lv.dest_is_dead(&g, n_u, o_u, unused));
        assert!(!lv.dest_is_dead(&g, n_s, o_s, used));
    }

    #[test]
    fn grow_only_update_propagates_up() {
        let (g, _, _, _) = loop_graph();
        let mut lv = Liveness::compute(&g);
        let li = g.loop_info.unwrap();
        let mut g2 = g.clone();
        let fresh = g2.fresh_reg();
        assert!(!lv.is_live_in(li.latch, fresh));
        lv.add_live_at(&g2, li.latch, fresh);
        assert!(lv.is_live_in(li.latch, fresh));
        // propagated through the body up to the head (no must-defs of fresh)
        assert!(lv.is_live_in(li.head, fresh));
    }
}
