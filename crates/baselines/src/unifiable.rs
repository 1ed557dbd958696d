//! The Unifiable-ops scheduler (§3.1, Figure 7) — the expensive technique
//! GRiP approximates (Ebcioğlu & Nicolau, ICS'89).
//!
//! For each node, the *Unifiable-ops* set holds exactly the operations that
//! can be moved **all the way** into the node by some sequence of PS
//! transformations; scheduling fills the node from that set in ranked
//! order. Nothing ever rests in intermediate nodes, so no resource barrier
//! can form — and, equivalently, no compaction happens below the node being
//! scheduled, which maximizes every operation's travel distance. Both
//! effects are the §3.1 cost the paper measures GRiP against, and both are
//! visible in this implementation: the membership test re-walks the whole
//! path for every candidate on every pick.

use grip_analysis::RankTable;
use grip_ir::{Graph, NodeId, OpId, OpKind, Operand, TreePath};
use grip_machine::MachineDesc;
use grip_percolate::{move_cj, move_op, plan_move_cj, plan_move_op, Ctx};
use std::collections::{HashMap, HashSet};

/// Counters for the cost comparison against GRiP.
#[derive(Clone, Copy, Debug, Default)]
pub struct UnifiableStats {
    /// Unifiable-set membership tests performed.
    pub membership_tests: u64,
    /// Nodes walked during membership tests (the dominant cost).
    pub nodes_walked: u64,
    /// Successful full migrations.
    pub arrivals: u64,
    /// Single-instruction hops executed.
    pub hops: u64,
    /// Candidate-selection rounds.
    pub picks: u64,
}

/// Unifiable-ops scheduling over `region` (topological order).
/// No gap prevention: the paper shows the technique cannot prevent gaps
/// (Figure 9); the resulting schedules do not converge for pipelining.
pub struct UnifiableSched<'g, 'a> {
    g: &'g mut Graph,
    ctx: &'g mut Ctx<'a>,
    ranks: &'g RankTable,
    machine: MachineDesc,
    region: Vec<NodeId>,
    pos: HashMap<NodeId, usize>,
    stats: UnifiableStats,
}

impl<'g, 'a> UnifiableSched<'g, 'a> {
    /// Create a scheduler over `region`.
    pub fn new(
        g: &'g mut Graph,
        ctx: &'g mut Ctx<'a>,
        ranks: &'g RankTable,
        machine: MachineDesc,
        region: Vec<NodeId>,
    ) -> Self {
        let pos = region.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        UnifiableSched { g, ctx, ranks, machine, region, pos, stats: UnifiableStats::default() }
    }

    /// Run the Figure 7 loop over every region node, top-down.
    pub fn run(mut self) -> (UnifiableStats, Vec<NodeId>) {
        let mut i = 0;
        while i < self.region.len() {
            let n = self.region[i];
            if !self.g.node_exists(n) {
                self.region.remove(i);
                self.reindex();
                continue;
            }
            self.schedule_node(n);
            i += 1;
        }
        // Final cleanup of emptied nodes (Unifiable-ops empties whole rows).
        let mut j = 1;
        while j < self.region.len() {
            let n = self.region[j];
            if self.g.node_exists(n)
                && self.g.node(n).tree.is_empty()
                && grip_percolate::try_delete_empty(self.g, self.ctx, n)
            {
                self.region.remove(j);
                self.reindex();
                continue;
            }
            j += 1;
        }
        (self.stats, self.region)
    }

    fn reindex(&mut self) {
        self.pos = self.region.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    }

    fn schedule_node(&mut self, n: NodeId) {
        let mut rejected: HashSet<OpId> = HashSet::new();
        loop {
            if self.machine.exhausted(self.g, n) {
                break;
            }
            self.stats.picks += 1;
            // Recompute the Unifiable-ops set: every op below n that the
            // membership oracle certifies can reach n. (The paper's point:
            // this is expensive; GRiP replaces it with the trivial
            // Moveable-ops set.)
            let mut best: Option<(grip_analysis::Priority, OpId)> = None;
            let npos = self.pos[&n];
            for idx in npos + 1..self.region.len() {
                let m = self.region[idx];
                if !self.g.node_exists(m) {
                    continue;
                }
                let mops: Vec<OpId> = self.g.node_ops(m).iter().map(|&(_, o)| o).collect();
                for op in mops {
                    if rejected.contains(&op) {
                        continue;
                    }
                    let p = self.ranks.priority(self.g, op);
                    if best.map(|(bp, _)| p < bp).unwrap_or(true) && self.is_unifiable(n, op) {
                        best = Some((p, op));
                    }
                }
            }
            let Some((_, op)) = best else { break };
            if !self.migrate_fully(n, op) {
                // The oracle over-approximated (e.g. a renaming interaction);
                // never retry this op for this node.
                rejected.insert(op);
            } else {
                self.stats.arrivals += 1;
            }
        }
    }

    /// Forward path of nodes from `n` down to `target` (region edges only).
    fn path_down(&self, n: NodeId, target: NodeId) -> Option<Vec<NodeId>> {
        let mut parent: HashMap<NodeId, NodeId> = HashMap::new();
        let mut stack = vec![n];
        let mut seen = HashSet::new();
        while let Some(m) = stack.pop() {
            if !seen.insert(m) {
                continue;
            }
            if m == target {
                let mut path = vec![target];
                let mut cur = target;
                while let Some(&p) = parent.get(&cur) {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            let mp = self.pos.get(&m).copied()?;
            for &s in self.g.unique_successors(m) {
                if self.pos.get(&s).is_some_and(|&sp| sp > mp) && !seen.contains(&s) {
                    parent.insert(s, m);
                    stack.push(s);
                }
            }
        }
        None
    }

    /// The membership oracle: can `op` reach `n` through every node on the
    /// way, with resources available at each landing?
    fn is_unifiable(&mut self, n: NodeId, op: OpId) -> bool {
        self.stats.membership_tests += 1;
        let Some(home) = self.g.placement(op) else { return false };
        let Some(path) = self.path_down(n, home) else { return false };
        // path = [n, ..., home]; hops go home -> ... -> n.
        let o = self.g.op(op);
        let is_cj = o.kind.is_cj();
        let is_store = o.kind.is_store();
        let mut reads: Vec<Operand> = o.src.clone();
        // A cj can only start moving from the root of its node.
        if is_cj {
            match self.g.node(home).tree.position_of(op) {
                Some(p) if p.is_empty() => {}
                _ => return false,
            }
        }
        // op's position within home: a store below a branch can't leave.
        if is_store && !self.g.node(home).tree.position_of(op).is_some_and(|p| p.is_empty()) {
            return false;
        }
        for w in path.windows(2).rev() {
            let (parent, child) = (w[0], w[1]);
            self.stats.nodes_walked += 1;
            let leaf = match self.g.node(parent).tree.leaf_paths_to(child).first() {
                Some(&l) => l,
                None => return false,
            };
            // Landing under a branch makes the *next* hop speculative:
            // fatal for stores (and structurally final for cjs).
            if parent != n && !leaf.is_empty() && (is_store || is_cj) {
                return false;
            }
            // Resource space at the landing node.
            if !self.machine.has_room(self.g, parent, op) {
                return false;
            }
            // Dependences against ops committing on the landing path,
            // with forward substitution through copies.
            let mut path_ops: Vec<OpId> = Vec::new();
            self.g.node(parent).tree.walk(&mut |p, t| {
                if p.is_prefix_of(leaf) {
                    path_ops.extend_from_slice(t.ops());
                }
            });
            if o.kind.is_mem() {
                let my_orig = self.g.op(op).orig;
                for &q in &path_ops {
                    let qo = self.g.op(q);
                    if qo.kind.is_mem() && self.ctx.ddg.mem_dep(qo.orig, my_orig) {
                        return false;
                    }
                }
            }
            for slot in reads.iter_mut() {
                let mut fuel = 8;
                while let Some(rr) = slot.reg() {
                    let Some(&writer) = path_ops.iter().find(|&&q| self.g.op(q).dest == Some(rr))
                    else {
                        break;
                    };
                    let wo = self.g.op(writer);
                    if wo.kind == OpKind::Copy && fuel > 0 {
                        *slot = wo.src[0];
                        fuel -= 1;
                    } else {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Execute the hops; returns true when the op arrives in `n`.
    fn migrate_fully(&mut self, n: NodeId, op: OpId) -> bool {
        loop {
            let Some(cur) = self.g.placement(op) else { return false };
            if cur == n {
                return true;
            }
            let Some(path) = self.path_down(n, cur) else { return false };
            let parent = path[path.len() - 2];
            let leaf: TreePath = match self.g.node(parent).tree.leaf_paths_to(cur).first() {
                Some(&l) => l,
                None => return false,
            };
            let is_cj = self.g.op(op).kind.is_cj();
            let ok = if is_cj {
                plan_move_cj(self.g, self.ctx, cur, parent, op, leaf, None).is_ok()
                    && move_cj(self.g, self.ctx, cur, parent, op, leaf).is_ok()
            } else {
                // A renaming hop leaves an ALU-class compensation copy in
                // `cur` where the departing op used to sit. On a machine
                // with per-class slot caps the swap changes `cur`'s class
                // footprint, so it must itself fit the issue template —
                // the membership oracle cannot see this (renaming is a
                // transformation detail), so the hop re-checks it here,
                // exactly as GRiP's `hop` does. Without the check the
                // baseline emits template-violating rows on class-capped
                // machines.
                match plan_move_op(self.g, self.ctx, cur, parent, op, leaf, None) {
                    Ok(plan) => {
                        let fits = !plan.needs_rename
                            || self.machine.copy_swap_fits(self.g, cur, self.g.op(op).kind);
                        fits && move_op(self.g, self.ctx, cur, parent, op, leaf).is_ok()
                    }
                    Err(_) => false,
                }
            };
            if !ok {
                return false;
            }
            self.stats.hops += 1;
            // Keep the region in sync with structural edits.
            if self.g.node_exists(cur) && self.g.node(cur).tree.is_empty() {
                let _ = grip_percolate::try_delete_empty(self.g, self.ctx, cur);
                if !self.g.node_exists(cur) {
                    self.region.retain(|&m| m != cur);
                    self.reindex();
                }
            }
            // New nodes from splits/residues: append next to cur.
            let known: HashSet<NodeId> = self.region.iter().copied().collect();
            let fresh: Vec<NodeId> = self
                .g
                .node_ids()
                .filter(|m| !known.contains(m) && self.g.node_exists(*m))
                .filter(|&m| {
                    // Only track nodes that belong to the scheduled area
                    // (reachable from region nodes).
                    self.region.iter().any(|&rn| {
                        self.g.node_exists(rn) && self.g.unique_successors(rn).contains(&m)
                    })
                })
                .collect();
            if !fresh.is_empty() {
                let at = self.pos.get(&parent).map(|&p| p + 1).unwrap_or(self.region.len());
                for (i, m) in fresh.into_iter().enumerate() {
                    self.region.insert((at + i).min(self.region.len()), m);
                }
                self.reindex();
            }
        }
    }
}

/// Convenience wrapper mirroring `grip_core::schedule_region`.
pub fn schedule_unifiable(
    g: &mut Graph,
    ctx: &mut Ctx<'_>,
    ranks: &RankTable,
    machine: MachineDesc,
    region: Vec<NodeId>,
) -> (UnifiableStats, Vec<NodeId>) {
    UnifiableSched::new(g, ctx, ranks, machine, region).run()
}
