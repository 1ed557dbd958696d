//! POST (§4, [Po91]): resource constraints as a post-processing phase.
//!
//! > "First, GRiP scheduling is applied with infinite resources to obtain a
//! > pipelined loop. Second, POST applies resource constraints by breaking
//! > apart nodes that contain too many operations and allowing further
//! > percolation to fill any nodes that have become underutilized as a
//! > result of the breaking."
//!
//! Phase 1 runs the Perfect Pipelining stack unconstrained (with unfolded
//! induction chains — the configuration under which unconstrained
//! pipelining converges to its natural one-iteration-per-instruction
//! shape, exactly the behaviour §1 ascribes to unconstrained techniques).
//! Phase 2 peels the lowest-ranked operations out of over-wide
//! instructions into spill rows below them, honouring VLIW entry-fetch
//! semantics (an op may only move down if no op remaining in the row
//! writes one of its operands — otherwise the *writer* joins the peeled
//! set), then lets a resource-constrained GRiP pass re-fill the holes.

use grip_analysis::{Ddg, RankTable};
use grip_core::{schedule_region, GripConfig};
use grip_ir::{Graph, NodeId, OpId, RegId, Tree, TreePath};
use grip_machine::{FuClass, MachineDesc, UNCAPPED};
use grip_percolate::Ctx;
use grip_pipeline::{
    certify_window, detect, perfect_pipeline, steady_rows, PipelineOptions, PipelineReport,
};
use std::collections::HashSet;

/// Options for [`post_pipeline`].
#[derive(Clone, Copy, Debug)]
pub struct PostOptions {
    /// Unwind factor for the unconstrained phase.
    pub unwind: usize,
    /// The machine applied in the post-pass.
    pub machine: MachineDesc,
    /// Incremental dead-code removal.
    pub dce: bool,
}

impl PostOptions {
    /// The paper's configuration: a flat `fus`-unit machine.
    pub fn vliw(unwind: usize, fus: usize) -> PostOptions {
        PostOptions { unwind, machine: MachineDesc::uniform(fus), dce: true }
    }
}

/// Run the two-phase POST pipeline on the canonical loop of `g`, in place.
/// The result reports the *post-pass* steady state.
pub fn post_pipeline(g: &mut Graph, opts: PostOptions) -> PipelineReport {
    // Phase 1: unconstrained pipelining.
    let p1 = perfect_pipeline(
        g,
        PipelineOptions {
            unwind: opts.unwind,
            machine: MachineDesc::UNLIMITED,
            fold_inductions: false,
            gap_prevention: true,
            dce: opts.dce,
            try_roll: false,
            audit: false,
        },
    );
    let window = p1.window;
    let mut region = p1.region;

    // Phase 2a: break instructions that violate the issue template.
    let ddg = Ddg::build(g, g.entry);
    let mut ctx = Ctx::new(g, &ddg);
    let ranks = RankTable::new(&ddg, true);
    break_rows(g, &ranks, &mut region, &opts.machine);
    ctx.refresh(g);

    // Phase 2b: constrained re-percolation fills the holes.
    let cfg = GripConfig {
        machine: opts.machine,
        gap_prevention: true,
        dce: opts.dce,
        speculation: Default::default(),
        trace: false,
    };
    let out = schedule_region(g, &mut ctx, &ranks, cfg, region);

    let steady = steady_rows(g, &out.region, window.head);
    let pattern = detect(g, &window, &steady);
    // The shared certify step: the phase-2 DDG was rebuilt on the broken
    // rows, so re-percolated duplicates may miss some memory pairs — the
    // prover simply proves a (still sound) weaker bound there.
    let (bounds, cpi_estimate) = certify_window(g, &window, &steady, &ddg, &opts.machine);
    // Both scheduling passes (phase 1 compaction, phase 2b re-percolation)
    // contribute to the pick-loop profile.
    let mut phases = p1.phases;
    phases.accumulate(&out.phases);
    PipelineReport {
        window,
        stats: out.stats,
        region: out.region,
        steady,
        pattern,
        cpi_estimate,
        rolled: None,
        // POST's phase-2 row-breaking invalidates the phase-1 window's
        // orig bookkeeping, so the GRiP auditor does not apply here.
        audit: None,
        bounds,
        phases,
    }
}

/// Split every region row whose ordinary operations violate the machine's
/// issue template (total width or any per-class slot cap). The
/// highest-ranked operations that fit the template stay; the overflow
/// peels into spill rows below. Returns the number of spill rows created.
pub fn break_rows(
    g: &mut Graph,
    ranks: &RankTable,
    region: &mut Vec<NodeId>,
    desc: &MachineDesc,
) -> usize {
    let mut created = 0;
    let mut i = 0;
    while i < region.len() {
        let row = region[i];
        if !g.node_exists(row) {
            region.remove(i);
            continue;
        }
        if desc.fits(g, row) {
            i += 1;
            continue;
        }
        // Ops by descending priority; greedily keep what the template
        // admits (for a flat machine this is exactly "the first `fus`"),
        // the rest peels off.
        let mut ops: Vec<OpId> =
            g.node_ops(row).iter().map(|&(_, o)| o).filter(|&o| !g.op(o).kind.is_cj()).collect();
        ranks.sort(g, &mut ops);
        let mut kept = 0usize;
        let mut kept_class = [0usize; FuClass::COUNT];
        let mut peel: HashSet<OpId> = HashSet::new();
        for &o in &ops {
            let c = FuClass::of(g.op(o).kind);
            let cap = desc.class_slots[c.index()];
            if kept < desc.width && (cap == UNCAPPED || kept_class[c.index()] < cap) {
                kept += 1;
                kept_class[c.index()] += 1;
            } else {
                peel.insert(o);
            }
        }
        if peel.is_empty() {
            i += 1;
            continue;
        }
        // Entry-fetch closure: if a peeled op reads a register written by a
        // remaining op, that writer must be peeled too (its old value would
        // otherwise be destroyed before the moved read).
        loop {
            let remaining_writes: Vec<(RegId, OpId)> = ops
                .iter()
                .filter(|o| !peel.contains(o))
                .filter_map(|&o| g.op(o).dest.map(|d| (d, o)))
                .collect();
            let mut grew = false;
            for &s in peel.clone().iter() {
                for rr in g.op(s).reads() {
                    if let Some(&(_, w)) = remaining_writes.iter().find(|&&(d, _)| d == rr) {
                        if peel.insert(w) {
                            grew = true;
                        }
                    }
                }
            }
            if !grew {
                break;
            }
        }
        if peel.len() == ops.len() {
            // The entry-fetch closure swallowed the whole row: moving
            // everything down would recreate the identical row below and
            // never terminate. Leave the row; the simulator's template
            // check reports the residual violation.
            i += 1;
            continue;
        }
        // Spill each peeled op onto every outgoing path below its guard
        // position (ops at branch positions must keep committing on all
        // their paths, so residues are duplicated per path). Spill in rank
        // order — iterating the HashSet directly would make spill-row op
        // order (and thus Phase 2b tie-breaking) nondeterministic.
        let mut peel: Vec<OpId> = peel.into_iter().collect();
        peel.sort_unstable(); // stable id order under rank ties
        ranks.sort(g, &mut peel);
        let mut spills: Vec<(TreePath, NodeId)> = Vec::new();
        for op in peel {
            let pos = match g.node(row).tree.position_of(op) {
                Some(p) => p,
                None => continue,
            };
            let leaves: Vec<(TreePath, Option<NodeId>)> = g
                .node(row)
                .tree
                .leaves()
                .into_iter()
                .filter(|&(l, _)| pos.is_prefix_of(l))
                .collect();
            g.remove_op_from(row, op);
            let mut placed_original = false;
            for (leaf, _) in leaves {
                let spill = match spills.iter().find(|&&(l, _)| l == leaf) {
                    Some(&(_, n)) => n,
                    None => {
                        let succ = match g.node(row).tree.get(leaf) {
                            Some(Tree::Leaf { succ, .. }) => *succ,
                            _ => None,
                        };
                        let n = g.add_node(Tree::leaf(succ));
                        g.set_succ(row, leaf, Some(n));
                        spills.push((leaf, n));
                        created += 1;
                        // Insert after the row, keeping region order.
                        region.insert((i + 1).min(region.len()), n);
                        n
                    }
                };
                if placed_original {
                    let dup = g.dup_op(op);
                    g.insert_op_at(spill, TreePath::ROOT, dup);
                } else {
                    g.insert_op_at(spill, TreePath::ROOT, op);
                    placed_original = true;
                }
            }
        }
        // Revisit the same row (it may still be over-wide) and then the
        // spill rows in order.
    }
    created
}
