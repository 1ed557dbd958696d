//! Hazard resolution: make every emitted schedule provably stall-free.
//!
//! The simulator's scoreboard (the VM's `run_model`) stalls an
//! instruction until every register it reads has retired from its
//! producer's pipeline: a producer of latency `L` issued at cycle `t`
//! makes its destination readable at cycle `t + L`, so a consumer must
//! sit at least `L` issued instructions downstream on every execution
//! path. GRiP's in-flight `latency_blocked` guard enforces this only for
//! the op being moved, only upward, and only inside the region — hazards
//! inherited from the sequential program, hazards around the loop back
//! edge, and hazards on the exit fix-up chains all survive scheduling and
//! were previously absorbed (and billed) as interlock stalls.
//!
//! This module closes the gap with a post-pass over the *whole* reachable
//! graph:
//!
//! 1. a countdown dataflow (internal `analyze`): for every node, the
//!    per-register number of delay cycles still outstanding at its entry,
//!    computed to a fixpoint with max-merge at joins (so loop back edges
//!    are covered) and per-leaf-path gen/kill inside instruction trees
//!    (a unit-latency redefinition shadows an older in-flight producer,
//!    exactly as the scoreboard's `ready` table does);
//! 2. **padding**: empty delay rows are spliced into precisely the edges
//!    whose source still carries a positive countdown for a register the
//!    target reads, until no hazard remains;
//! 3. **backfill**: ready operations from rows below are pulled up into
//!    open slots, one row at a time and, past full rows, by multi-hop
//!    climbs. Legality is the move planner's
//!    ([`grip_percolate::plan_move_op`], and
//!    [`grip_percolate::plan_move_op_onto`] for each hop of a climb);
//!    renaming and speculative moves are excluded, and only rows with one
//!    entry edge ([`Graph::entry_edges`]) give up ops, so no move splits a
//!    row. Landings are re-checked against the registers in flight at the
//!    target's entry. Rows that empty out are deleted — but only through
//!    the hazard-preserving [`delete_would_create_hazard`] check (asked
//!    through a [`DeletionGuard`]), because removing a row between a
//!    multi-cycle producer and its consumer shrinks their issue distance
//!    by one and can re-introduce a hazard the schedule already paid for
//!    (the re-shrink bug).
//!
//! Predecessors come from the graph ([`Graph::preds`]). The dataflow
//! skips unreachable ones, which carry no state; the upward in-flight
//! walk behind deletions and climb landings reads them all, which can
//! only make it more conservative.
//!
//! The invariant after [`resolve_hazards`] (and the roll-side
//! [`pad_hazards`]) is hard: [`scan_hazards`] returns zero, and a
//! `run_model` simulation of the graph charges zero
//! `stall_cycles`. On a unit-latency machine every entry point returns
//! immediately and the schedule is untouched, so the paper's flat model
//! pays nothing.

use grip_ir::{Graph, NodeId, OpId, RegId, Tree, TreePath};
use grip_machine::MachineDesc;
use grip_percolate::{
    apply_move_op, ops_on_path, plan_move_op, plan_move_op_onto, try_delete_empty_if, Ctx, MovePlan,
};
use std::collections::{HashMap, HashSet, VecDeque};

/// Per-register outstanding delay cycles at a program point.
type Countdowns = HashMap<RegId, u32>;

/// Counters describing one hazard-resolution run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HazardStats {
    /// Hazardous (producer-too-close) edges found across all rounds.
    pub hazards: u64,
    /// Empty delay rows inserted to restore producer distances.
    pub delay_rows: u64,
    /// Ready operations pulled up from below into open slots.
    pub backfilled: u64,
    /// Subset of `backfilled` that climbed more than one row (multi-hop
    /// moves past resource barriers, see [`resolve_hazards`]).
    pub multihop: u64,
    /// Rows emptied by backfill and deleted (cycles reclaimed).
    pub reclaimed_rows: u64,
}

// ----------------------------------------------------------------------
// Countdown dataflow
// ----------------------------------------------------------------------

/// Max-merge of the out-states of `preds` (unreachable ones have none).
fn merged_input(outs: &HashMap<NodeId, Countdowns>, preds: &[NodeId]) -> Countdowns {
    let mut input = Countdowns::new();
    for p in preds {
        if let Some(out) = outs.get(p) {
            for (&r, &c) in out {
                input.entry(r).and_modify(|v| *v = (*v).max(c)).or_insert(c);
            }
        }
    }
    input
}

/// Transfer `input` through instruction `n`: one issue cycle elapses
/// (every countdown drops by one) and each path's writes install their
/// own countdowns, killing older in-flight producers of the same
/// register on that path. Paths are merged by max, which over-approximates
/// every selectable execution.
fn transfer(g: &Graph, desc: &MachineDesc, n: NodeId, input: &Countdowns) -> Countdowns {
    let decremented: Countdowns =
        input.iter().filter_map(|(&r, &c)| (c > 1).then_some((r, c - 1))).collect();
    let tree = &g.node(n).tree;
    let mut out = Countdowns::new();
    for (leaf, _) in tree.leaves() {
        let mut path_out = decremented.clone();
        tree.walk(&mut |p, t| {
            if !p.is_prefix_of(leaf) {
                return;
            }
            for &o in t.ops() {
                let op = g.op(o);
                if let Some(d) = op.dest {
                    let l = desc.latency_of(op.kind);
                    if l > 1 {
                        path_out.insert(d, l - 1);
                    } else {
                        path_out.remove(&d);
                    }
                }
            }
        });
        for (r, c) in path_out {
            out.entry(r).and_modify(|v| *v = (*v).max(c)).or_insert(c);
        }
    }
    out
}

/// Worklist fixpoint of the countdown dataflow over `nodes` (the
/// reachable set); returns each node's *out*-state. Countdowns are
/// bounded by `max_latency - 1` and the transfer is monotone, so the
/// iteration terminates.
fn analyze(g: &Graph, desc: &MachineDesc, nodes: &[NodeId]) -> HashMap<NodeId, Countdowns> {
    let mut outs: HashMap<NodeId, Countdowns> = HashMap::new();
    let mut queue: VecDeque<NodeId> = nodes.iter().copied().collect();
    let mut queued: HashSet<NodeId> = nodes.iter().copied().collect();
    while let Some(n) = queue.pop_front() {
        queued.remove(&n);
        let input = merged_input(&outs, g.preds(n));
        let out = transfer(g, desc, n, &input);
        if outs.get(&n) != Some(&out) {
            outs.insert(n, out);
            for &s in g.unique_successors(n) {
                if queued.insert(s) {
                    queue.push_back(s);
                }
            }
        }
    }
    outs
}

/// Registers fetched by any operation of `n` (conditional-jump sources
/// included — the scoreboard waits on them too).
fn node_reads(g: &Graph, n: NodeId) -> HashSet<RegId> {
    let mut reads = HashSet::new();
    for &(_, op) in g.node_ops(n) {
        reads.extend(g.op(op).reads());
    }
    reads
}

/// Edges whose target still reads a register before its producer retires:
/// `(pred, node, delay rows needed)`.
fn hazard_edges(g: &Graph, desc: &MachineDesc) -> Vec<(NodeId, NodeId, u32)> {
    let nodes = g.reachable();
    let outs = analyze(g, desc, &nodes);
    let mut edges = Vec::new();
    for &n in &nodes {
        let reads = node_reads(g, n);
        if reads.is_empty() {
            continue;
        }
        for &p in g.preds(n) {
            let Some(out) = outs.get(&p) else { continue };
            let k = reads.iter().filter_map(|r| out.get(r)).copied().max().unwrap_or(0);
            if k > 0 {
                edges.push((p, n, k));
            }
        }
    }
    edges
}

/// Number of hazardous reads left in the graph — the stall-freedom
/// invariant is `scan_hazards(g, desc) == 0`, which implies a model run
/// charges zero interlock stalls.
pub fn scan_hazards(g: &Graph, desc: &MachineDesc) -> usize {
    if desc.max_latency() <= 1 {
        return 0;
    }
    hazard_edges(g, desc).len()
}

// ----------------------------------------------------------------------
// Padding
// ----------------------------------------------------------------------

/// Splice `k` empty delay rows into the edge `p -> n`, keeping `region`'s
/// schedule order consistent when either endpoint belongs to it. Returns
/// the rows in execution order (topmost first).
fn insert_delays(
    g: &mut Graph,
    region: Option<&mut Vec<NodeId>>,
    p: NodeId,
    n: NodeId,
    k: u32,
) -> Vec<NodeId> {
    let mut target = n;
    let mut chain = Vec::with_capacity(k as usize);
    for _ in 0..k {
        let d = g.add_node(Tree::leaf(Some(target)));
        chain.push(d);
        target = d;
    }
    chain.reverse(); // execution order: target (topmost) .. last-before-n
    let paths = g.node(p).tree.leaf_paths_to(n);
    for lp in paths {
        g.set_succ(p, lp, Some(target));
    }
    if let Some(region) = region {
        let pos: HashMap<NodeId, usize> = region.iter().enumerate().map(|(i, &m)| (m, i)).collect();
        let at = match (pos.get(&p), pos.get(&n)) {
            // Forward region edge: the rows run just above n.
            (Some(&ip), Some(&ni)) if ip < ni => Some(ni),
            // Back edge (or n outside the region): after the source row.
            (Some(&ip), _) => Some(ip + 1),
            (None, Some(&ni)) => Some(ni),
            (None, None) => None,
        };
        if let Some(at) = at {
            for (i, &d) in chain.iter().enumerate() {
                region.insert((at + i).min(region.len()), d);
            }
        }
    }
    chain
}

/// Pad every hazardous edge with delay rows until the countdown analysis
/// finds nothing left. One round suffices in the acyclic case; back edges
/// may need another look, so the loop re-analyzes (bounded — padding only
/// ever grows distances).
fn pad_to_fixpoint(
    g: &mut Graph,
    mut region: Option<&mut Vec<NodeId>>,
    desc: &MachineDesc,
    stats: &mut HazardStats,
) {
    let rounds = 2 * desc.max_latency().max(2);
    for _ in 0..rounds {
        let edges = hazard_edges(g, desc);
        if edges.is_empty() {
            return;
        }
        for (p, n, k) in edges {
            stats.hazards += 1;
            stats.delay_rows += u64::from(k);
            insert_delays(g, region.as_deref_mut(), p, n, k);
        }
    }
    debug_assert!(
        hazard_edges(g, desc).is_empty(),
        "hazard padding failed to converge on {}",
        desc.name
    );
}

/// Make the whole reachable graph stall-free by padding alone (no region
/// bookkeeping, no backfill). Used after loop re-rolling, whose rotation
/// rows and shortened back edge change every cross-back-edge distance.
pub fn pad_hazards(g: &mut Graph, desc: &MachineDesc) -> HazardStats {
    let mut stats = HazardStats::default();
    if desc.max_latency() <= 1 {
        return stats;
    }
    let _span = grip_obs::span!("hazards");
    pad_to_fixpoint(g, None, desc, &mut stats);
    record_hazard_counters(&stats);
    stats
}

// ----------------------------------------------------------------------
// Hazard-preserving row deletion
// ----------------------------------------------------------------------

/// The registers still in flight when `n` starts, each with its worst
/// remaining countdown: a producer of latency `L` that issues `a` rows
/// above `n` on some path contributes `L - a` when that is positive. An
/// upward walk over the current graph ([`Graph::preds`], unreachable rows
/// included). Conservative: it ignores a nearer redefinition that
/// shadows an older producer, so a register may read hot when it is not.
fn in_flight(g: &Graph, desc: &MachineDesc, n: NodeId) -> Countdowns {
    in_flight_reading(g, desc, n, &mut Vec::new())
}

/// [`in_flight`], appending to `read` every row whose ops it read.
fn in_flight_reading(
    g: &Graph,
    desc: &MachineDesc,
    n: NodeId,
    read: &mut Vec<NodeId>,
) -> Countdowns {
    let mut hot = Countdowns::new();
    let mut level: Vec<NodeId> = g.preds(n).to_vec();
    let mut seen: HashSet<(NodeId, u32)> = HashSet::new();
    for a in 1..desc.max_latency() {
        let mut next = Vec::new();
        for &m in &level {
            if !g.node_exists(m) || !seen.insert((m, a)) {
                continue;
            }
            read.push(m);
            for &(_, o) in g.node_ops(m) {
                let op = g.op(o);
                if let Some(d) = op.dest {
                    let l = desc.latency_of(op.kind);
                    if l > a {
                        hot.entry(d).and_modify(|c| *c = (*c).max(l - a)).or_insert(l - a);
                    }
                }
            }
            next.extend_from_slice(g.preds(m));
        }
        level = next;
        if level.is_empty() {
            break;
        }
    }
    hot
}

/// Would deleting the empty row `n` re-shrink a producer→consumer issue
/// distance below the producer's latency?
///
/// A producer `a` rows above `n` (any path) with latency `L` and a
/// consumer `b` rows below are `a + b` issue slots apart *through* `n`;
/// deletion makes that `a + b - 1`, which re-introduces a hazard exactly
/// when `b <= L - a`, that is when `b` is at most the register's
/// `in_flight` countdown at `n`. The scan is conservative (it ignores
/// same-register shadowing across paths), so it can only refuse a
/// deletion that was in fact safe — costing one empty row, never a stall.
///
/// This is the uncached reference; schedulers that ask again and again
/// go through a [`DeletionGuard`].
pub fn delete_would_create_hazard(g: &Graph, desc: &MachineDesc, n: NodeId) -> bool {
    desc.max_latency() > 1 && deletion_walk(g, desc, n, &mut Vec::new())
}

/// The walk behind [`delete_would_create_hazard`], appending to `read`
/// every row whose ops it read: the upward in-flight levels, then the
/// downward levels up to the read that refused.
fn deletion_walk(g: &Graph, desc: &MachineDesc, n: NodeId, read: &mut Vec<NodeId>) -> bool {
    let hot = in_flight_reading(g, desc, n, read);
    if hot.is_empty() {
        return false;
    }
    let cmax = hot.values().copied().max().unwrap_or(0);
    // Downward sweep: a read of a hot register within its residual
    // countdown would land too close once n stops issuing.
    let mut level: Vec<NodeId> = g.unique_successors(n).to_vec();
    let mut seen_dn: HashSet<(NodeId, u32)> = HashSet::new();
    for b in 1..=cmax {
        let mut next = Vec::new();
        for &m in &level {
            if !g.node_exists(m) || !seen_dn.insert((m, b)) {
                continue;
            }
            read.push(m);
            for &(_, o) in g.node_ops(m) {
                for r in g.op(o).reads() {
                    if hot.get(&r).copied().unwrap_or(0) >= b {
                        return true;
                    }
                }
            }
            next.extend(g.unique_successors(m));
        }
        level = next;
        if level.is_empty() {
            break;
        }
    }
    false
}

/// [`delete_would_create_hazard`] with its refusals remembered. Most
/// checks repeat a refusal on an empty row nothing near has touched, so
/// for each refused row the guard keeps the [`Graph::edge_version`], the
/// [`Graph::version`] and every row whose ops the refusing walk read. A
/// repeat check is answered with the refusal, without a walk, while the
/// edge version is unchanged and none of those rows has a newer
/// [`Graph::node_stamp`]: the walk would visit the same rows and read the
/// same ops. Approvals are not kept: an approved row is normally deleted
/// right after.
///
/// One guard serves one graph and one machine: GRiP's run owns one, and
/// so does each hazard pass. Debug builds re-walk every remembered
/// refusal and assert that it still refuses.
#[derive(Default)]
pub struct DeletionGuard {
    /// By row id.
    refused: Vec<Option<Refusal>>,
    /// Checks that walked the graph (the rest were remembered refusals).
    walks: u64,
}

/// One remembered refusal: what it read, and the graph it read it in.
struct Refusal {
    edge_version: u64,
    version: u64,
    read: Vec<NodeId>,
}

impl DeletionGuard {
    /// Would deleting the empty row `n` re-shrink a producer distance?
    /// The same answer as [`delete_would_create_hazard`].
    pub fn would_create_hazard(&mut self, g: &Graph, desc: &MachineDesc, n: NodeId) -> bool {
        if desc.max_latency() <= 1 {
            return false;
        }
        if self.refused.len() <= n.index() {
            self.refused.resize_with(n.index() + 1, || None);
        }
        let slot = &mut self.refused[n.index()];
        if let Some(r) = slot {
            if r.edge_version == g.edge_version()
                && r.read.iter().all(|&m| g.node_stamp(m) <= r.version)
            {
                debug_assert!(
                    delete_would_create_hazard(g, desc, n),
                    "remembered deletion refusal of {n} no longer holds"
                );
                return true;
            }
        }
        self.walks += 1;
        let mut read = Vec::new();
        let refused = deletion_walk(g, desc, n, &mut read);
        read.sort_unstable();
        read.dedup();
        *slot = refused.then_some(Refusal {
            edge_version: g.edge_version(),
            version: g.version(),
            read,
        });
        refused
    }

    /// How many checks so far walked the graph; the others were answered
    /// from a remembered refusal.
    pub fn walks(&self) -> u64 {
        self.walks
    }
}

// ----------------------------------------------------------------------
// Backfill
// ----------------------------------------------------------------------

/// Pull ready operations from each region row into open slots of the live
/// row directly above it, then hazard-safely delete rows that emptied out.
/// Moves that rename (a compensation copy would read the moved op's fresh
/// result at distance one) or speculate are skipped; copy-bypass rewrites
/// are taken. Every landing is re-checked against the countdown state at
/// the target's entry, and stale states stay conservative because upward
/// producer motion only ever grows producer→consumer distances.
fn backfill(
    g: &mut Graph,
    ctx: &mut Ctx<'_>,
    desc: &MachineDesc,
    region: &mut Vec<NodeId>,
    stats: &mut HazardStats,
) {
    let mut guard = DeletionGuard::default();
    ctx.refresh(g);
    for _pass in 0..64 {
        let outs = analyze(g, desc, &g.reachable());
        let mut changed = false;
        let live: Vec<NodeId> = region.iter().copied().filter(|&m| g.node_exists(m)).collect();
        for w in live.windows(2) {
            let (u, v) = (w[0], w[1]);
            if !g.node_exists(u) || !g.node_exists(v) {
                continue;
            }
            // v's only entry edge must come from u — otherwise the move
            // would clone v (node splitting) or the rows are not
            // execution-adjacent.
            let Some((p, path)) = sole_entry(g, v) else { continue };
            if p != u {
                continue;
            }
            let in_u = merged_input(&outs, g.preds(u));
            for op in movable_ops(g, v) {
                if !desc.has_room(g, u, op) {
                    continue;
                }
                let Ok(plan) = plan_move_op(g, ctx, v, u, op, path, None) else { continue };
                if plan.needs_rename || plan.speculative {
                    continue;
                }
                // Landing check on the *effective* sources (copy bypassing
                // may have rewritten them).
                let mut srcs = g.op(op).src.clone();
                for &(i, operand) in &plan.rewrites {
                    srcs[i] = operand;
                }
                if srcs
                    .iter()
                    .filter_map(|s| s.reg())
                    .any(|r| in_u.get(&r).copied().unwrap_or(0) > 0)
                {
                    continue;
                }
                let out = apply_move_op(g, ctx, v, u, op, path, &plan);
                debug_assert!(out.split.is_none(), "single-entry rows never split");
                stats.backfilled += 1;
                changed = true;
            }
        }
        // Reclaim rows the backfill emptied — through the hazard check, so
        // no reclaimed cycle re-shrinks a producer distance.
        let empties: Vec<NodeId> = region
            .iter()
            .skip(1)
            .copied()
            .filter(|&m| g.node_exists(m) && m != g.entry && g.node(m).tree.is_empty())
            .collect();
        let mut deleted_any = false;
        for m in empties {
            if try_delete_empty_if(g, m, |g, m| !guard.would_create_hazard(g, desc, m)) {
                region.retain(|&x| x != m);
                stats.reclaimed_rows += 1;
                deleted_any = true;
                changed = true;
            }
        }
        if deleted_any {
            ctx.refresh(g);
        }
        if !changed {
            // One-step fixpoint. Ready work deeper down may yet reach open
            // slots past rows the adjacent sweep cannot land in (§3.2
            // resource barriers) — try multi-hop climbs.
            changed = multihop_sweep(g, ctx, desc, region, stats);
        }
        if !changed {
            break;
        }
    }
}

/// The only entry edge into `v` — its predecessor and that predecessor's
/// leaf path — when [`Graph::entry_edges`] counts exactly one. Moving an
/// op out of such a row never splits it: the split rule counts the same
/// edges.
fn sole_entry(g: &Graph, v: NodeId) -> Option<(NodeId, TreePath)> {
    if g.entry_edges(v) != 1 {
        return None;
    }
    let p = g.preds(v)[0];
    Some((p, g.node(p).tree.leaf_paths_to(v)[0]))
}

/// The ordinary (non-jump) ops of row `v`, in pre-order.
fn movable_ops(g: &Graph, v: NodeId) -> Vec<OpId> {
    g.node_ops(v).iter().filter(|&&(_, o)| !g.op(o).kind.is_cj()).map(|&(_, o)| o).collect()
}

/// Multi-hop climb sweep, run only at the one-step fixpoint: a ready op
/// deeper in a straight-line chain can pass *through* full (or hot)
/// intermediate rows on its way to an open slot — a transit never rests,
/// so only the landing row's template and producer distances matter. The
/// 16-cycle corridors of deep-latency machines are the motivating case:
/// the row directly beneath a delay row runs out of movable ops long
/// before the padding is full, while ready work three and four rows down
/// is walled off behind full compute rows.
///
/// Every hop of a climb is validated by [`climb_clear`] before the first
/// edit, so a started climb always reaches its landing row. The landing
/// is checked against the registers in flight at its entry, recomputed
/// from the *current* graph for each op (climbed producers move between
/// checks), so a climb never plants a hazard for the closing pad round to
/// re-pay. Rows therefore only ever empty and shrink, never re-pad: the
/// schedule cannot get longer.
fn multihop_sweep(
    g: &mut Graph,
    ctx: &mut Ctx<'_>,
    desc: &MachineDesc,
    region: &[NodeId],
    stats: &mut HazardStats,
) -> bool {
    let mut changed = false;
    let live: Vec<NodeId> = region.iter().copied().filter(|&m| g.node_exists(m)).collect();
    for i in 0..live.len() {
        let u = live[i];
        // The corridor: the maximal run of simple (single-leaf,
        // single-entry, execution-adjacent) rows below u. Each element
        // stores the leaf path of its predecessor targeting it — the
        // `path` argument of the hop that leaves it.
        let mut chain: Vec<(NodeId, TreePath)> = Vec::new();
        let mut prev = u;
        for &v in live.iter().skip(i + 1) {
            match sole_entry(g, v) {
                Some((p, path)) if p == prev && matches!(g.node(v).tree, Tree::Leaf { .. }) => {
                    chain.push((v, path));
                }
                _ => break,
            }
            prev = v;
        }
        // chain[0] is execution-adjacent to u — the one-step sweep already
        // exhausted it. Sources start two rows down.
        for k in 1..chain.len() {
            for op in movable_ops(g, chain[k].0) {
                if !desc.has_room(g, u, op) || !climb_clear(g, ctx, u, &chain, k, op) {
                    continue;
                }
                let hot = in_flight(g, desc, u);
                if g.op(op).reads().any(|r| hot.contains_key(&r)) {
                    continue;
                }
                // Apply the hops bottom-up; `climb_clear` proved each plan
                // comes back plain.
                for t in (0..=k).rev() {
                    let (from, to, path) = climb_hop(u, &chain, t);
                    let plan = plan_move_op(g, ctx, from, to, op, path, None);
                    debug_assert!(
                        plan.as_ref().is_ok_and(MovePlan::is_plain),
                        "prechecked climb hop must be a plain move"
                    );
                    let Ok(plan) = plan else { break };
                    let out = apply_move_op(g, ctx, from, to, op, path, &plan);
                    debug_assert!(out.split.is_none(), "single-entry rows never split");
                    changed = true;
                }
                stats.backfilled += 1;
                stats.multihop += 1;
            }
        }
    }
    changed
}

/// Hop `t` of a climb up `chain` into `u`: the row it leaves, the row it
/// lands in, and the landing row's leaf path into the row it leaves.
fn climb_hop(u: NodeId, chain: &[(NodeId, TreePath)], t: usize) -> (NodeId, NodeId, TreePath) {
    let to = if t == 0 { u } else { chain[t - 1].0 };
    (chain[t].0, to, chain[t].1)
}

/// Would every hop of climbing `op` from `chain[k]` through
/// `chain[k-1..=0]` into `u` be a plain move ([`MovePlan::is_plain`])?
/// Each hop is planned by [`plan_move_op_onto`] before the first edit: the
/// op leaves every corridor row from its root (the rows are single-leaf),
/// and the rows it passes keep their other ops while it climbs, so a
/// `true` here guarantees every hop's [`plan_move_op`] comes back plain.
fn climb_clear(
    g: &Graph,
    ctx: &Ctx<'_>,
    u: NodeId,
    chain: &[(NodeId, TreePath)],
    k: usize,
    op: OpId,
) -> bool {
    (0..=k).rev().all(|t| {
        let (from, to, path) = climb_hop(u, chain, t);
        plan_move_op_onto(g, ctx, from, TreePath::ROOT, op, &ops_on_path(g, to, path))
            .is_ok_and(|plan| plan.is_plain())
    })
}

// ----------------------------------------------------------------------
// Entry point
// ----------------------------------------------------------------------

/// Resolve every latency hazard in the reachable graph: pad, backfill
/// ready work into the padding, pad whatever the backfill exposed, and
/// assert the invariant. `region` is kept in schedule order (delay rows
/// are inserted at their execution position) for downstream pattern
/// detection. No-op on unit-latency machines.
pub fn resolve_hazards(
    g: &mut Graph,
    ctx: &mut Ctx<'_>,
    desc: &MachineDesc,
    region: &mut Vec<NodeId>,
) -> HazardStats {
    let mut stats = HazardStats::default();
    if desc.max_latency() <= 1 {
        return stats;
    }
    let _span = grip_obs::span!("hazards");
    pad_to_fixpoint(g, Some(region), desc, &mut stats);
    backfill(g, ctx, desc, region, &mut stats);
    pad_to_fixpoint(g, Some(region), desc, &mut stats);
    ctx.refresh(g);
    debug_assert_eq!(scan_hazards(g, desc), 0, "schedule not stall-free on {}", desc.name);
    record_hazard_counters(&stats);
    stats
}

/// Fold one resolution run's [`HazardStats`] into the process-wide
/// metrics registry.
fn record_hazard_counters(s: &HazardStats) {
    grip_obs::counter!("grip_hazard_edges_total").add(s.hazards);
    grip_obs::counter!("grip_hazard_delay_rows_total").add(s.delay_rows);
    grip_obs::counter!("grip_hazard_backfills_total").add(s.backfilled);
    grip_obs::counter!("grip_hazard_multihop_total").add(s.multihop);
    grip_obs::counter!("grip_hazard_reclaimed_rows_total").add(s.reclaimed_rows);
}

#[cfg(test)]
mod tests {
    use super::*;
    use grip_analysis::Ddg;
    use grip_ir::{OpKind, Operand, Operation, ProgramBuilder, RegId, Tree, TreePath, Value};
    use grip_machine::LatencyTable;

    /// A flat machine with 3-cycle loads (everything else single-cycle).
    fn mem3(width: usize) -> MachineDesc {
        MachineDesc {
            latency: LatencyTable { alu: 1, fpu: 1, fpu_long: 1, mem: 3, branch: 1 },
            ..MachineDesc::uniform(width)
        }
    }

    /// load t = x[0] ; u = t + 1.0 — a distance-1 use of a 3-cycle load.
    fn load_use_chain() -> (grip_ir::Graph, RegId) {
        let mut b = ProgramBuilder::new();
        let x = b.array("x", 4);
        let t = b.load("t", x, Operand::Imm(Value::I(0)), 0);
        let u = b.binary("u", OpKind::Add, Operand::Reg(t), Operand::Imm(Value::F(1.0)));
        b.live_out(u);
        (b.finish(), u)
    }

    #[test]
    fn padding_restores_producer_distance() {
        let (mut g, _) = load_use_chain();
        let desc = mem3(4);
        assert!(scan_hazards(&g, &desc) > 0, "the sequential chain carries the hazard");
        let before = g.node_count();
        let stats = pad_hazards(&mut g, &desc);
        g.validate().unwrap();
        assert_eq!(stats.delay_rows, 2, "a 3-cycle load needs two rows of slack");
        assert_eq!(g.node_count(), before + 2);
        assert_eq!(scan_hazards(&g, &desc), 0);

        let mut m = grip_vm::Machine::for_graph(&g);
        m.set_array_f(grip_ir::ArrayId::new(0), &[5.0; 4]);
        let stats = m.run_model(&g, &desc).unwrap();
        assert_eq!(stats.stall_cycles, 0, "padding must satisfy the scoreboard");
    }

    #[test]
    fn unit_latency_is_a_no_op() {
        let (mut g, _) = load_use_chain();
        let before = g.node_count();
        let stats = pad_hazards(&mut g, &MachineDesc::uniform(4));
        assert_eq!(stats, HazardStats::default());
        assert_eq!(g.node_count(), before);
    }

    #[test]
    fn backfill_reclaims_independent_work() {
        // load t ; u = t + 1 ; v = k + 1 — the independent ALU op below
        // the hazard can ride up into the delay slack, emptying its row.
        let mut b = ProgramBuilder::new();
        let x = b.array("x", 4);
        let k = b.named_reg("k");
        b.const_i(k, 7);
        let t = b.load("t", x, Operand::Imm(Value::I(0)), 0);
        let u = b.binary("u", OpKind::Add, Operand::Reg(t), Operand::Imm(Value::F(1.0)));
        let v = b.binary("v", OpKind::IAdd, Operand::Reg(k), Operand::Imm(Value::I(1)));
        b.live_out(u);
        b.live_out(v);
        let mut g = b.finish();
        let desc = mem3(4);
        let ddg = Ddg::build(&g, g.entry);
        let mut ctx = Ctx::new(&g, &ddg);
        let mut region: Vec<grip_ir::NodeId> = g.reachable();
        let stats = resolve_hazards(&mut g, &mut ctx, &desc, &mut region);
        g.validate().unwrap();
        assert_eq!(scan_hazards(&g, &desc), 0);
        assert_eq!(stats.delay_rows, 2);
        assert!(stats.backfilled >= 1, "v should ride up into the slack: {stats:?}");
        assert!(stats.reclaimed_rows >= 1, "emptied rows are reclaimed: {stats:?}");
        // Region order still matches execution order.
        let mut m = grip_vm::Machine::for_graph(&g);
        m.set_array_f(grip_ir::ArrayId::new(0), &[5.0; 4]);
        let run = m.run_model(&g, &desc).unwrap();
        assert_eq!(run.stall_cycles, 0);
        assert_eq!(m.reg(u), Some(Value::F(6.0)));
        assert_eq!(m.reg(v), Some(Value::I(8)));
    }

    #[test]
    fn padding_splices_the_loop_back_edge() {
        // t is loaded (4-cycle) one row before the latch and consumed at
        // the loop head: the only hazard runs *around the back edge*, so
        // the delay row must be spliced into the latch's continue side —
        // the same shape a re-rolled loop's rotation rows produce.
        let n = 6i64;
        let mut b = ProgramBuilder::new();
        let x = b.array("x", (n + 8) as usize);
        let t = b.named_reg("t");
        b.const_f(t, 0.5);
        let acc = b.named_reg("acc");
        b.const_f(acc, 1.0);
        let k = b.named_reg("k");
        b.const_i(k, 0);
        b.begin_loop();
        let s = b.binary("s", OpKind::Mul, Operand::Reg(acc), Operand::Reg(t));
        b.emit(Operation::new(
            OpKind::Add,
            Some(acc),
            vec![Operand::Reg(s), Operand::Imm(Value::F(0.25))],
        ));
        b.iadd_imm(k, k, 1);
        b.emit(Operation::new(OpKind::Load(x), Some(t), vec![Operand::Reg(k)]));
        let c = b.binary("c", OpKind::CmpLt, Operand::Reg(k), Operand::Imm(Value::I(n)));
        b.end_loop(c);
        let mut g = b.finish();
        g.live_out = vec![acc, k];
        let g0 = g.clone();

        let desc = MachineDesc {
            latency: LatencyTable { alu: 1, fpu: 1, fpu_long: 1, mem: 4, branch: 1 },
            ..MachineDesc::uniform(4)
        };
        // load -> cmp -> latch -> (back edge) -> Mul is 3 issue slots; a
        // 4-cycle load needs 4, so exactly one delay row goes in.
        let stats = pad_hazards(&mut g, &desc);
        g.validate().unwrap();
        assert_eq!(stats.delay_rows, 1, "{stats:?}");
        assert_eq!(scan_hazards(&g, &desc), 0);

        let init = |m: &mut grip_vm::Machine| {
            let xs: Vec<f64> = (0..n + 8).map(|i| 0.125 * i as f64).collect();
            m.set_array_f(grip_ir::ArrayId::new(0), &xs);
        };
        let mut m0 = grip_vm::Machine::for_graph(&g0);
        init(&mut m0);
        m0.run(&g0).unwrap();
        let mut m1 = grip_vm::Machine::for_graph(&g);
        init(&mut m1);
        let run = m1.run_model(&g, &desc).unwrap();
        assert_eq!(run.stall_cycles, 0, "the padded back edge satisfies the scoreboard");
        assert!(grip_vm::EquivReport::compare(&g0, &m0, &m1).is_equal());
    }

    /// P(load t, 3 cycles) -> E(empty) -> D(empty) -> C(u = t + 1): the
    /// distance is exactly 3; deleting either empty row re-shrinks it
    /// below the latency. Returns the graph, `[P, E, D, C]`, the load,
    /// the consumer and `t`.
    fn reshrink_chain() -> (grip_ir::Graph, [NodeId; 4], OpId, OpId, RegId) {
        let mut g = grip_ir::Graph::new();
        let x = g.array("x", 4);
        let t = g.named_reg("t");
        let u = g.named_reg("u");
        let ld =
            g.add_op(Operation::new(OpKind::Load(x), Some(t), vec![Operand::Imm(Value::I(0))]));
        let use_ = g.add_op(Operation::new(
            OpKind::Add,
            Some(u),
            vec![Operand::Reg(t), Operand::Imm(Value::F(1.0))],
        ));
        let c = g.add_node(Tree::Leaf { ops: vec![use_], succ: None });
        let d = g.add_node(Tree::leaf(Some(c)));
        let e = g.add_node(Tree::leaf(Some(d)));
        let p = g.add_node(Tree::Leaf { ops: vec![ld], succ: Some(e) });
        g.set_succ(g.entry, TreePath::ROOT, Some(p));
        g.live_out = vec![u];
        g.validate().unwrap();
        (g, [p, e, d, c], ld, use_, t)
    }

    #[test]
    fn deletion_guard_catches_the_reshrink() {
        let (g, [_, e, d, c], _, use_, t) = reshrink_chain();
        let desc = mem3(4);
        // What the guard reads: t's remaining countdown at each row.
        assert_eq!(in_flight(&g, &desc, e), Countdowns::from([(t, 2)]));
        assert_eq!(in_flight(&g, &desc, d), Countdowns::from([(t, 1)]));
        assert!(in_flight(&g, &desc, c).is_empty());
        assert!(delete_would_create_hazard(&g, &desc, e));
        assert!(delete_would_create_hazard(&g, &desc, d));
        // Under unit latencies the same deletions are free.
        assert!(!delete_would_create_hazard(&g, &MachineDesc::uniform(4), e));
        // An unrelated consumer does not pin the row.
        let desc1 = mem3(4);
        let mut g2 = g.clone();
        let k = g2.named_reg("k");
        let indep =
            g2.add_op(Operation::new(OpKind::Copy, Some(k), vec![Operand::Imm(Value::I(1))]));
        g2.remove_op_from(c, use_);
        g2.insert_op_at(c, TreePath::ROOT, indep);
        assert!(!delete_would_create_hazard(&g2, &desc1, e));
    }

    #[test]
    fn deletion_guard_forgets_a_refusal_once_a_row_it_read_changes() {
        // One run per side of E: the consumer leaves C (a row below E),
        // or the load leaves P (a row above). Neither edit touches an
        // edge, so only the read rows' stamps can expose it.
        let desc = mem3(4);
        for below in [true, false] {
            let (mut g, [p, e, _, c], ld, use_, _) = reshrink_chain();
            let mut guard = DeletionGuard::default();
            assert!(guard.would_create_hazard(&g, &desc, e));
            assert_eq!(guard.walks(), 1);
            assert!(guard.would_create_hazard(&g, &desc, e), "a repeat still refuses");
            assert_eq!(guard.walks(), 1, "a repeat is answered without a walk");
            let edges = g.edge_version();
            if below {
                g.remove_op_from(c, use_);
            } else {
                g.remove_op_from(p, ld);
            }
            assert_eq!(g.edge_version(), edges);
            assert!(!guard.would_create_hazard(&g, &desc, e), "below {below}: approves");
            assert_eq!(guard.walks(), 2, "below {below}: the changed row forces a walk");
        }
    }

    /// A straight-line window for the multi-hop climb on a 2-wide
    /// machine, with `w` reading `[m, b, k][src]`:
    ///
    /// ```text
    /// P:  k = load x[0] (3 cycles); m = 5   full
    /// R0: a = m + 1                         one open slot
    /// R1: b = a + 1; c = a + 2              full, both need a
    /// R2: w = s + 3
    /// ```
    ///
    /// Returns the graph, its rows `[P, R0, R1, R2]` and `w`'s op.
    fn climb_window(src: usize) -> (grip_ir::Graph, [NodeId; 4], OpId) {
        let mut g = grip_ir::Graph::new();
        let x = g.array_typed("x", 4, grip_ir::ElemKind::I);
        let [k, m, a, b, c, w] = ["k", "m", "a", "b", "c", "w"].map(|n| g.named_reg(n));
        let imm = |v| Operand::Imm(Value::I(v));
        let iadd = |d, s, v| Operation::new(OpKind::IAdd, Some(d), vec![Operand::Reg(s), imm(v)]);
        let ld = g.add_op(Operation::new(OpKind::Load(x), Some(k), vec![imm(0)]));
        let five = g.add_op(Operation::new(OpKind::Copy, Some(m), vec![imm(5)]));
        let op_a = g.add_op(iadd(a, m, 1));
        let op_b = g.add_op(iadd(b, a, 1));
        let op_c = g.add_op(iadd(c, a, 2));
        let op_w = g.add_op(iadd(w, [m, b, k][src], 3));
        let r2 = g.add_node(Tree::Leaf { ops: vec![op_w], succ: None });
        let r1 = g.add_node(Tree::Leaf { ops: vec![op_b, op_c], succ: Some(r2) });
        let r0 = g.add_node(Tree::Leaf { ops: vec![op_a], succ: Some(r1) });
        let p = g.add_node(Tree::Leaf { ops: vec![ld, five], succ: Some(r0) });
        g.set_succ(g.entry, TreePath::ROOT, Some(p));
        g.live_out = vec![a, b, c, w];
        g.validate().unwrap();
        (g, [p, r0, r1, r2], op_w)
    }

    #[test]
    fn multihop_climbs_past_a_full_row() {
        // `w = m + 3` is ready two rows below R0's open slot and climbs
        // past the full R1, emptying R2. It stays put when R1 defines its
        // source (`w = b + 3`) or when its source is still in flight at R0
        // (`w = k + 3`: the load issues in the row above R0).
        let desc = mem3(2);
        for (src, climbs) in [(0, true), (1, false), (2, false)] {
            let (mut g, [p, r0, r1, r2], w) = climb_window(src);
            let g0 = g.clone();
            let s = g.op(w).src[0].reg().unwrap();
            assert_eq!(in_flight(&g, &desc, r0).contains_key(&s), src == 2);
            let ddg = Ddg::build(&g, g.entry);
            let mut ctx = Ctx::new(&g, &ddg);
            let mut region = vec![p, r0, r1, r2];
            let stats = resolve_hazards(&mut g, &mut ctx, &desc, &mut region);
            g.validate().unwrap();
            assert_eq!(stats.delay_rows, 0, "source {src}: {stats:?}");
            assert_eq!(stats.multihop, u64::from(climbs), "source {src}: {stats:?}");
            assert_eq!(stats.backfilled, u64::from(climbs), "source {src}: {stats:?}");
            assert_eq!(stats.reclaimed_rows, u64::from(climbs), "source {src}: {stats:?}");
            assert_eq!(g.placement(w), Some(if climbs { r0 } else { r2 }), "source {src}");
            assert_eq!(scan_hazards(&g, &desc), 0);

            let mut m0 = grip_vm::Machine::for_graph(&g0);
            m0.set_array_i(grip_ir::ArrayId::new(0), &[11; 4]);
            m0.run(&g0).unwrap();
            let mut m1 = grip_vm::Machine::for_graph(&g);
            m1.set_array_i(grip_ir::ArrayId::new(0), &[11; 4]);
            assert_eq!(m1.run_model(&g, &desc).unwrap().stall_cycles, 0, "source {src}");
            assert!(grip_vm::EquivReport::compare(&g0, &m0, &m1).is_equal(), "source {src}");
        }
    }
}
