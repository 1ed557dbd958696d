//! `move-op` (Figure 2): move an ordinary operation one instruction up.
//!
//! The transformation is split into a side-effect-free [`plan_move_op`]
//! (also used as the dry-run oracle by the Gapless-move test and the
//! Unifiable-ops baseline) and an [`apply_move_op`] that performs the edit,
//! including renaming and node splitting.

use crate::ctx::Ctx;
use grip_ir::{Graph, NodeId, OpId, OpKind, Operand, Operation, RegId, Tree, TreePath};

/// Why a move is illegal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MoveFail {
    /// `reader` consumes a value produced by `writer` on the target path —
    /// a true data dependence (§2), not removable by renaming.
    TrueDep {
        /// The operation attempting to move.
        reader: OpId,
        /// The producing operation in the target instruction.
        writer: OpId,
    },
    /// A memory dependence (`earlier` must stay before `later`).
    MemDep {
        /// The op that must execute first.
        earlier: OpId,
        /// The op that must execute later (the mover).
        later: OpId,
    },
    /// A store may not move speculatively (its effect cannot be renamed
    /// away or squashed on the unselected paths).
    SpeculativeStore,
    /// The conditional jump is not at the root of its instruction tree,
    /// so `move-cj` does not apply yet.
    CjNotAtRoot,
}

impl std::fmt::Display for MoveFail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MoveFail::TrueDep { reader, writer } => {
                write!(f, "true dependence: {reader} reads result of {writer}")
            }
            MoveFail::MemDep { earlier, later } => {
                write!(f, "memory dependence: {later} may not pass {earlier}")
            }
            MoveFail::SpeculativeStore => write!(f, "stores cannot move speculatively"),
            MoveFail::CjNotAtRoot => write!(f, "conditional jump not at tree root"),
        }
    }
}

/// A validated move, ready to apply.
#[derive(Clone, Debug, Default)]
pub struct MovePlan {
    /// Operand rewrites from copy bypassing: `(src index, new operand)`.
    pub rewrites: Vec<(usize, Operand)>,
    /// Renaming required (write-live / move-past-read / output conflict).
    pub needs_rename: bool,
    /// The op sits under a branch inside `from`: moving it commits it on
    /// paths that previously skipped it.
    pub speculative: bool,
}

impl MovePlan {
    /// A move that takes the op as it is: no renaming, no rewritten
    /// operands, no speculation.
    pub fn is_plain(&self) -> bool {
        self.rewrites.is_empty() && !self.needs_rename && !self.speculative
    }
}

/// Result of an applied move.
#[derive(Clone, Copy, Debug, Default)]
pub struct MoveOutcome {
    /// Fresh register and compensation-copy op when renaming fired.
    pub renamed: Option<(RegId, OpId)>,
    /// Clone of `from` created for its other predecessors (node splitting).
    pub split: Option<NodeId>,
}

/// Ops committing on `leaf_path` of `to`'s tree (cj of traversed branches
/// excluded — they write no registers): the ops a move to that leaf
/// lands among.
pub fn ops_on_path(g: &Graph, to: NodeId, leaf_path: TreePath) -> Vec<OpId> {
    let mut out = Vec::new();
    g.node(to).tree.walk(&mut |p, t| {
        if p.is_prefix_of(leaf_path) {
            out.extend_from_slice(t.ops());
        }
    });
    out
}

/// Validate moving `op` from `from` into `to` at the end of `path` (a leaf
/// of `to` whose successor is `from`).
///
/// `pretend_removed`: evaluate as if that op had already left `to` — used
/// by the Gapless-move test's hypothetical reasoning ("given that Op
/// succeeded in moving to To", §3.3 condition 4).
pub fn plan_move_op(
    g: &Graph,
    ctx: &Ctx<'_>,
    from: NodeId,
    to: NodeId,
    op: OpId,
    path: TreePath,
    pretend_removed: Option<OpId>,
) -> Result<MovePlan, MoveFail> {
    debug_assert_eq!(g.placement(op), Some(from), "op must be placed in from");
    debug_assert!(
        matches!(g.node(to).tree.get(path), Some(Tree::Leaf { succ: Some(s), .. }) if *s == from),
        "path must be a leaf of to targeting from"
    );
    let q = g.node(from).tree.position_of(op).expect("op placed in from");
    let mut path_ops = ops_on_path(g, to, path);
    if let Some(pr) = pretend_removed {
        path_ops.retain(|&o| o != pr);
    }
    plan_move_op_onto(g, ctx, from, q, op, &path_ops)
}

/// The move-op rule itself: may `op`, at position `q` of `from`'s tree,
/// move up to commit among `path_ops` (the target leaf's
/// [`ops_on_path`])? [`plan_move_op`] reads `q` and `path_ops` from the
/// graph. The rule reads only `from`'s *other* ops, so `op` need not sit
/// in `from` yet: a multi-row climb can plan every hop before its first
/// edit.
pub fn plan_move_op_onto(
    g: &Graph,
    ctx: &Ctx<'_>,
    from: NodeId,
    q: TreePath,
    op: OpId,
    path_ops: &[OpId],
) -> Result<MovePlan, MoveFail> {
    let opref = g.op(op);
    assert!(!opref.kind.is_cj(), "use plan_move_cj for conditional jumps");

    let speculative = !q.is_empty();
    if speculative && opref.kind.is_store() {
        return Err(MoveFail::SpeculativeStore);
    }

    // Memory dependences survive renaming; consult the prebuilt DDG.
    if opref.kind.is_mem() {
        for &p in path_ops {
            let pref = g.op(p);
            if pref.kind.is_mem() && ctx.ddg.mem_dep(pref.orig, opref.orig) {
                return Err(MoveFail::MemDep { earlier: p, later: op });
            }
        }
    }

    // True dependences, with forward substitution through copies (§2:
    // "copy operations ... do not prevent code motion").
    let mut srcs = opref.src.clone();
    let mut rewrites = Vec::new();
    for (i, slot) in srcs.iter_mut().enumerate() {
        let mut fuel = 8;
        while let Some(r) = slot.reg() {
            let writer = path_ops.iter().copied().find(|&p| g.op(p).dest == Some(r));
            let Some(p) = writer else { break };
            let pk = g.op(p);
            if pk.kind == OpKind::Copy && fuel > 0 {
                *slot = pk.src[0];
                rewrites.push((i, *slot));
                fuel -= 1;
            } else {
                return Err(MoveFail::TrueDep { reader: op, writer: p });
            }
        }
    }

    // Write conflicts, dissolvable by renaming.
    let mut needs_rename = false;
    if let Some(d) = opref.dest {
        // Output conflict: another op on the path writes d.
        if path_ops.iter().any(|&p| g.op(p).dest == Some(d)) {
            needs_rename = true;
        }
        // Move-past-read: another op of `from` reads d at entry; it would
        // observe the new value once op commits one instruction earlier.
        if !needs_rename
            && g.node(from).tree.placed_ops().iter().any(|&(_, o)| o != op && g.op(o).reads_reg(d))
        {
            needs_rename = true;
        }
        // Write-live on the paths newly covered by a speculative move.
        if !needs_rename && speculative && spec_write_live(g, ctx, from, op, q, d) {
            needs_rename = true;
        }
    }

    Ok(MovePlan { rewrites, needs_rename, speculative })
}

/// Is `d` live along some path of `from` that does *not* pass the op's
/// guard position `q`? Those are the executions that newly commit the
/// speculatively moved op.
fn spec_write_live(
    g: &Graph,
    ctx: &Ctx<'_>,
    from: NodeId,
    op: OpId,
    q: TreePath,
    d: RegId,
) -> bool {
    let tree = &g.node(from).tree;
    for (leaf, succ) in tree.leaves() {
        if q.is_prefix_of(leaf) {
            continue; // op already committed here before the move
        }
        let mut redefined = false;
        tree.walk(&mut |p, t| {
            if p.is_prefix_of(leaf) {
                for &o in t.ops() {
                    if o != op && g.op(o).dest == Some(d) {
                        redefined = true;
                    }
                }
            }
        });
        if redefined {
            continue;
        }
        let live = match succ {
            Some(s) => ctx.lv.is_live_in(s, d),
            None => g.live_out.contains(&d),
        };
        if live {
            return true;
        }
    }
    false
}

/// Node splitting: if `from` has entry edges other than `(to, path)`,
/// they must keep seeing `from` as it is. Clone `from` for them and return
/// the clone; `(to, path)` keeps the original, which the move then edits.
pub(crate) fn split_other_entries(
    g: &mut Graph,
    ctx: &mut Ctx<'_>,
    from: NodeId,
    to: NodeId,
    path: TreePath,
) -> Option<NodeId> {
    if g.entry_edges(from) <= 1 {
        return None;
    }
    // Read before the clone: a self-looping `from` would list it.
    let preds = g.preds(from).to_vec();
    let from_b = g.clone_node(from);
    for p in preds {
        for lp in g.node(p).tree.leaf_paths_to(from) {
            if p == to && lp == path {
                continue;
            }
            g.set_succ(p, lp, Some(from_b));
        }
    }
    ctx.lv.adopt(from_b, from);
    Some(from_b)
}

/// Apply a planned move. Returns renaming/splitting artifacts.
pub fn apply_move_op(
    g: &mut Graph,
    ctx: &mut Ctx<'_>,
    from: NodeId,
    to: NodeId,
    op: OpId,
    path: TreePath,
    plan: &MovePlan,
) -> MoveOutcome {
    let q = g.node(from).tree.position_of(op).expect("op placed in from");

    let split = split_other_entries(g, ctx, from, to, path);

    g.remove_op_from(from, op);

    // Renaming: op writes a fresh register; a compensation copy at the old
    // guard position restores the original destination exactly where (and
    // when) the original wrote it.
    let mut renamed = None;
    if plan.needs_rename {
        let d = g.op(op).dest.expect("rename implies dest");
        let r = g.fresh_reg();
        g.op_mut(op).dest = Some(r);
        let mut c = Operation::new(OpKind::Copy, Some(d), vec![Operand::Reg(r)]);
        c.iter = g.op(op).iter;
        c.name = g.op(op).name.as_deref().map(|n| format!("{n}~").into());
        let cid = g.add_op(c);
        // The compensation copy inherits the moved op's ancestry so pattern
        // detection recognizes the copy as part of the same per-iteration
        // shape (and it ranks like the op it compensates for).
        g.op_mut(cid).orig = g.op(op).orig;
        g.insert_op_at(from, q, cid);
        renamed = Some((r, cid));
    }

    for &(i, operand) in &plan.rewrites {
        g.op_mut(op).src[i] = operand;
    }
    g.insert_op_at(to, path, op);

    let reads: Vec<RegId> = g.op(op).reads().collect();
    for r in reads {
        ctx.lv.add_live_at(g, to, r);
    }
    if let Some((r, _)) = renamed {
        ctx.lv.add_live_at(g, from, r);
    }
    // The moved def now reaches its downstream readers *through* `from`:
    // its destination becomes live at `from`'s entry (the stale set still
    // has the kill from when the op lived there). Without this, the
    // incremental DCE would see the moved op as dead.
    if let Some(d) = g.op(op).dest {
        ctx.lv.add_live_at(g, from, d);
    }

    MoveOutcome { renamed, split }
}

/// Plan + apply in one step.
pub fn move_op(
    g: &mut Graph,
    ctx: &mut Ctx<'_>,
    from: NodeId,
    to: NodeId,
    op: OpId,
    path: TreePath,
) -> Result<MoveOutcome, MoveFail> {
    let plan = plan_move_op(g, ctx, from, to, op, path, None)?;
    Ok(apply_move_op(g, ctx, from, to, op, path, &plan))
}
