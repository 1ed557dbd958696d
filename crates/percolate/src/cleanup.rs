//! Redundant-operation removal and empty-node deletion.
//!
//! §4: "As a result of compaction, some operations in the original code
//! become redundant and are removed ... best performed incrementally as
//! part of the scheduling process in order to ensure that unnecessary
//! operations do not compete with useful operations for resources."

use crate::ctx::Ctx;
use grip_ir::{Graph, NodeId, OpId, RegId};

/// Is `op`, placed in `n`, dead: a pure op whose result no path reads?
/// Loads count as pure (they are non-faulting and side-effect free in
/// this machine model); stores and jumps never die.
pub fn is_dead(g: &Graph, ctx: &Ctx<'_>, n: NodeId, op: OpId) -> bool {
    let o = g.op(op);
    match o.dest {
        Some(d) if !o.kind.is_cj() && !o.kind.is_store() => ctx.lv.dest_is_dead(g, n, op, d),
        _ => false,
    }
}

/// Remove `op` from `n` if it [`is_dead`]. Returns true if removed.
pub fn remove_if_dead(g: &mut Graph, ctx: &Ctx<'_>, n: NodeId, op: OpId) -> bool {
    let dead = is_dead(g, ctx, n, op);
    if dead {
        g.remove_op_from(n, op);
    }
    dead
}

/// Sweep `nodes` removing dead pure ops until a fixpoint. Refreshes the
/// context's liveness before each pass (removals expose more removals).
/// Returns the number of ops removed.
pub fn eliminate_dead_ops(g: &mut Graph, ctx: &mut Ctx<'_>, nodes: &[NodeId]) -> usize {
    let mut removed = 0;
    loop {
        ctx.refresh(g);
        let mut pass = 0;
        for &n in nodes {
            if !g.node_exists(n) {
                continue;
            }
            let ops: Vec<OpId> = g.node_ops(n).iter().map(|&(_, o)| o).collect();
            for op in ops {
                if remove_if_dead(g, ctx, n, op) {
                    pass += 1;
                }
            }
        }
        removed += pass;
        if pass == 0 {
            return removed;
        }
    }
}

/// Forward-substitute single-def register copies.
///
/// For a copy `d ← s` where both `d` and `s` have exactly one static
/// definition, a reader of `d` may read `s` instead as long as no
/// execution can pass `s`'s (re)definition — or a fresh execution of the
/// copy — between the copy and the read. On the cyclic window graphs this
/// is computed as forward reachability from the copy that stops at `s`'s
/// defining node and at the copy's own node (readers *in* the stopping
/// nodes still fetch entry values and remain rewritable).
///
/// The copy is removed once nothing reads `d` and `d` is not observable at
/// exit. This is the global form of §2 copy bypassing; it is what lets the
/// carried/renaming copies of the unwound kernels die instead of competing
/// for functional units.
///
/// Each round first counts definitions; the per-register reader lists are
/// built only when some copy qualifies (its dest and source each defined
/// once). A round with no qualifying copy could change nothing, so it
/// ends the loop without building them.
pub fn propagate_copies(g: &mut Graph, ctx: &mut Ctx<'_>) -> usize {
    let mut removed = 0;
    // Epoch-stamped visited marks for the per-copy reachability DFS.
    let mut seen: Vec<u64> = Vec::new();
    let mut epoch = 0u64;
    loop {
        let nodes: Vec<NodeId> = g.node_ids().collect();
        let nreg = g.reg_count();
        // Dense per-register tables: definition counts/sites and reader
        // lists replace the whole-graph rescans the old per-copy loop did.
        let mut def_count: Vec<u32> = vec![0; nreg];
        let mut def_node: Vec<Option<NodeId>> = vec![None; nreg];
        let mut copies: Vec<(NodeId, OpId)> = Vec::new();
        for &n in &nodes {
            for &(_, op) in g.node_ops(n) {
                let o = g.op(op);
                if let Some(d) = o.dest {
                    def_count[d.index()] += 1;
                    def_node[d.index()] = Some(n);
                }
                if o.is_reg_copy() {
                    copies.push((n, op));
                }
            }
        }
        if !copies.iter().any(|&(_, op)| single_def_copy(g, op, &def_count).is_some()) {
            break;
        }
        let mut readers: Vec<Vec<OpId>> = vec![Vec::new(); nreg];
        for &n in &nodes {
            for &(_, op) in g.node_ops(n) {
                for r in g.op(op).reads() {
                    readers[r.index()].push(op);
                }
            }
        }
        if seen.len() < g.node_index_bound() {
            seen.resize(g.node_index_bound(), 0);
        }
        let mut pass = 0;
        for (cn, op) in copies {
            if !g.node_exists(cn) || g.placement(op) != Some(cn) {
                continue;
            }
            // Re-read the copy's operands: earlier rewrites in this pass may
            // have redirected its source.
            let Some((d, src)) = single_def_copy(g, op, &def_count) else { continue };
            let s_def = def_node[src.index()];
            // Forward reachability from the copy, stopping at s's def node
            // and at the copy's node (either resets the value relation).
            epoch += 1;
            let mut stack: Vec<NodeId> = g.unique_successors(cn).to_vec();
            while let Some(m) = stack.pop() {
                if seen[m.index()] == epoch {
                    continue;
                }
                seen[m.index()] = epoch;
                if Some(m) == s_def || m == cn {
                    continue; // include readers here, do not go past
                }
                stack.extend(g.unique_successors(m));
            }
            // Readers co-located with the copy fetch the *previous*
            // execution's value at entry; they must keep reading d.
            // Rewrite readers inside the safe set. The reader list may hold
            // stale entries (ops removed earlier this pass, or slots already
            // rewritten); re-checking placement and operands filters them —
            // exactly what the old whole-graph rescan established.
            let rd = std::mem::take(&mut readers[d.index()]);
            let mut rewritten_all = true;
            for &reader in &rd {
                if reader == op {
                    continue;
                }
                let Some(m) = g.placement(reader) else { continue };
                let reads_d = g.op(reader).src.iter().any(|x| x.reg() == Some(d));
                if !reads_d {
                    continue;
                }
                if seen[m.index()] == epoch && m != cn {
                    let o = g.op_mut(reader);
                    for slot in o.src.iter_mut() {
                        if slot.reg() == Some(d) {
                            *slot = grip_ir::Operand::Reg(src);
                        }
                    }
                    // The reader now reads `src`: a later copy whose dest is
                    // `src` (a copy-of-copy chain) must see it.
                    readers[src.index()].push(reader);
                } else {
                    rewritten_all = false;
                }
            }
            readers[d.index()] = rd;
            if rewritten_all && !g.live_out.contains(&d) && g.node_exists(cn) {
                g.remove_op_from(cn, op);
                // d has no definition now: no later copy in this pass may
                // treat it as single-def.
                def_count[d.index()] = 0;
                pass += 1;
            }
        }
        removed += pass;
        if pass == 0 {
            break;
        }
    }
    if removed > 0 {
        ctx.refresh(g);
    }
    removed
}

/// `(dest, source)` of `op` when it is a register copy whose dest and
/// source are distinct and each defined exactly once.
fn single_def_copy(g: &Graph, op: OpId, def_count: &[u32]) -> Option<(RegId, RegId)> {
    let o = g.op(op);
    if !o.is_reg_copy() {
        return None;
    }
    let (Some(d), Some(src)) = (o.dest, o.src[0].reg()) else { return None };
    (d != src && def_count[d.index()] == 1 && def_count[src.index()] == 1).then_some((d, src))
}

/// Delete `n` if it holds no operations and no jumps, splicing its
/// predecessors to its successor. Returns true if deleted.
///
/// Deletion is *not* neutral on a machine with multi-cycle latencies: an
/// empty row between a producer and a consumer is one cycle of issue
/// distance, and removing it can shrink an already-sufficient distance
/// back below the producer's latency (the re-shrink bug). Latency-aware
/// callers must use [`try_delete_empty_if`] with a hazard check instead.
pub fn try_delete_empty(g: &mut Graph, n: NodeId) -> bool {
    try_delete_empty_if(g, n, |_, _| true)
}

/// [`try_delete_empty`] guarded by a caller-supplied safety predicate:
/// the node is removed only when it is structurally deletable *and*
/// `safe(g, n)` agrees. The predicate runs after the structural checks,
/// immediately before the splice, so it sees exactly the graph that the
/// deletion would edit. Schedulers pass a producer-distance re-check here
/// (e.g. `grip_core::hazards::DeletionGuard::would_create_hazard`, which
/// remembers refusals, or the uncached
/// `grip_core::hazards::delete_would_create_hazard`) to keep their
/// schedules stall-free.
pub fn try_delete_empty_if(
    g: &mut Graph,
    n: NodeId,
    safe: impl FnOnce(&Graph, NodeId) -> bool,
) -> bool {
    if n == g.entry || !g.node_exists(n) {
        return false;
    }
    let instr = g.node(n);
    if !instr.tree.is_empty() {
        return false;
    }
    let succs = instr.tree.successors();
    if succs.first().copied() == Some(n) {
        return false; // degenerate self-loop
    }
    if !safe(g, n) {
        return false;
    }
    g.delete_empty_node(n);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use grip_analysis::Ddg;
    use grip_ir::{OpKind, Operand, ProgramBuilder, Value};

    #[test]
    fn dead_ops_cascade() {
        // a=1; b=a+1; c=b+1 with nothing live: all three die.
        let mut b = ProgramBuilder::new();
        let a = b.named_reg("a");
        b.const_i(a, 1);
        let b1 = b.binary("b", OpKind::IAdd, Operand::Reg(a), Operand::Imm(Value::I(1)));
        let _c = b.binary("c", OpKind::IAdd, Operand::Reg(b1), Operand::Imm(Value::I(1)));
        let mut g = b.finish();
        let ddg = Ddg::build(&g, g.entry);
        let mut ctx = Ctx::new(&g, &ddg);
        let nodes: Vec<_> = g.reachable();
        let removed = eliminate_dead_ops(&mut g, &mut ctx, &nodes);
        assert_eq!(removed, 3);
        g.validate().unwrap();
    }

    #[test]
    fn live_out_protects_chain() {
        let mut b = ProgramBuilder::new();
        let a = b.named_reg("a");
        b.const_i(a, 1);
        let b1 = b.binary("b", OpKind::IAdd, Operand::Reg(a), Operand::Imm(Value::I(1)));
        let c = b.binary("c", OpKind::IAdd, Operand::Reg(b1), Operand::Imm(Value::I(1)));
        b.live_out(c);
        let mut g = b.finish();
        let ddg = Ddg::build(&g, g.entry);
        let mut ctx = Ctx::new(&g, &ddg);
        let nodes: Vec<_> = g.reachable();
        assert_eq!(eliminate_dead_ops(&mut g, &mut ctx, &nodes), 0);
    }

    #[test]
    fn empty_nodes_splice_out() {
        let mut b = ProgramBuilder::new();
        let a = b.named_reg("a");
        b.const_i(a, 1);
        let dead = b.binary("d", OpKind::IAdd, Operand::Reg(a), Operand::Imm(Value::I(1)));
        let c = b.binary("c", OpKind::IAdd, Operand::Reg(a), Operand::Imm(Value::I(2)));
        b.live_out(c);
        let mut g = b.finish();
        let _ = dead;
        let ddg = Ddg::build(&g, g.entry);
        let mut ctx = Ctx::new(&g, &ddg);
        let nodes: Vec<_> = g.reachable();
        let before = g.reachable().len();
        assert_eq!(eliminate_dead_ops(&mut g, &mut ctx, &nodes), 1);
        let empties: Vec<_> = g
            .reachable()
            .into_iter()
            .filter(|&n| g.node(n).tree.is_empty() && n != g.entry)
            .collect();
        for n in empties {
            assert!(try_delete_empty(&mut g, n));
        }
        assert_eq!(g.reachable().len(), before - 1);
        g.validate().unwrap();
    }
}
