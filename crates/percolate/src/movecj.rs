//! `move-cj` (Figure 3): move a conditional jump one instruction up.
//!
//! The jump must be at the root of its instruction tree. `From` is split
//! into a true-residue and a false-residue (root ops duplicated into both,
//! exactly the figure's `From'`/`From''`), and the target leaf of `To`
//! becomes a branch on the jump whose sides reach the residues. The
//! transformation is never speculative: executions through the moved jump's
//! new position are exactly those that previously reached `From`.

use crate::ctx::Ctx;
use crate::moveop::{ops_on_path, split_other_entries, MoveFail, MovePlan};
use grip_ir::{Graph, NodeId, OpId, OpKind, Tree, TreePath};

/// Artifacts of an applied `move-cj`.
#[derive(Clone, Copy, Debug)]
pub struct MoveCjOutcome {
    /// The true-side residue node (reuses `from`'s id).
    pub true_residue: NodeId,
    /// The false-side residue node (fresh clone).
    pub false_residue: NodeId,
    /// Clone of `from` created for its other predecessors, if any.
    pub split: Option<NodeId>,
}

/// Validate moving root jump `cj` of `from` into `to` at leaf `path`.
pub fn plan_move_cj(
    g: &Graph,
    ctx: &Ctx<'_>,
    from: NodeId,
    to: NodeId,
    cj: OpId,
    path: TreePath,
    pretend_removed: Option<OpId>,
) -> Result<MovePlan, MoveFail> {
    debug_assert_eq!(g.placement(cj), Some(from));
    match &g.node(from).tree {
        Tree::Branch { cj: root, .. } if *root == cj => {}
        _ => return Err(MoveFail::CjNotAtRoot),
    }
    let mut path_ops = ops_on_path(g, to, path);
    if let Some(pr) = pretend_removed {
        path_ops.retain(|&o| o != pr);
    }
    // True dependence on the condition register, with copy bypassing.
    let mut src = g.op(cj).src[0];
    let mut rewrites = Vec::new();
    let mut fuel = 8;
    while let Some(r) = src.reg() {
        let writer = path_ops.iter().copied().find(|&p| g.op(p).dest == Some(r));
        let Some(p) = writer else { break };
        let pref = g.op(p);
        if pref.kind == OpKind::Copy && fuel > 0 {
            src = pref.src[0];
            rewrites.push((0, src));
            fuel -= 1;
        } else {
            return Err(MoveFail::TrueDep { reader: cj, writer: p });
        }
    }
    let _ = ctx;
    Ok(MovePlan { rewrites, needs_rename: false, speculative: false })
}

/// Apply a planned `move-cj`.
pub fn apply_move_cj(
    g: &mut Graph,
    ctx: &mut Ctx<'_>,
    from: NodeId,
    to: NodeId,
    cj: OpId,
    path: TreePath,
    plan: &MovePlan,
) -> MoveCjOutcome {
    let split = split_other_entries(g, ctx, from, to, path);

    // False residue: clone keeps the false side (root ops merge into it).
    let false_residue = g.clone_node(from);
    g.remove_branch(false_residue, TreePath::ROOT, false);
    // True residue: `from` itself keeps the true side; the root cj pops out.
    let popped = g.remove_branch(from, TreePath::ROOT, true);
    debug_assert_eq!(popped, cj);

    for &(i, operand) in &plan.rewrites {
        g.op_mut(cj).src[i] = operand;
    }
    g.split_leaf(to, path, cj, Some(from), Some(false_residue));

    ctx.lv.adopt(false_residue, from);
    if let Some(r) = g.op(cj).src[0].reg() {
        ctx.lv.add_live_at(g, to, r);
    }

    MoveCjOutcome { true_residue: from, false_residue, split }
}

/// Plan + apply in one step.
pub fn move_cj(
    g: &mut Graph,
    ctx: &mut Ctx<'_>,
    from: NodeId,
    to: NodeId,
    cj: OpId,
    path: TreePath,
) -> Result<MoveCjOutcome, MoveFail> {
    let plan = plan_move_cj(g, ctx, from, to, cj, path, None)?;
    Ok(apply_move_cj(g, ctx, from, to, cj, path, &plan))
}
