//! The GRiP scheduler (Figures 10 and 12).
//!
//! A node is scheduled by repeatedly choosing the highest-ranked operation
//! from its *Moveable-ops* set — every operation on the subgraph below it
//! that has not been frozen — and migrating it upward one instruction at a
//! time. Operations that cannot reach the node are left wherever they got
//! to (partial compaction of the subgraph below, the key difference from
//! Unifiable-ops scheduling); full intermediate nodes simply stop them
//! (resource barriers, §3.2, tolerated by design).
//!
//! With gap prevention enabled (§3.3), every single hop is guarded by the
//! `Gapless-move` test and the three suspension rules, which is what makes
//! Perfect Pipelining converge.

use crate::hazards::DeletionGuard;
use grip_analysis::{Priority, RankTable};
use grip_ir::{Graph, NodeId, OpId, TreePath};
use grip_machine::MachineDesc;
use grip_percolate::{
    apply_move_cj, apply_move_op, eliminate_dead_ops, is_dead, plan_move_cj, plan_move_op,
    propagate_copies, remove_if_dead, try_delete_empty, Ctx, MoveFail,
};
use std::collections::HashSet;
use std::time::Instant;

/// When may an operation move *speculatively* (past a conditional it was
/// guarded by)?
///
/// §1: "when a large number of resources are currently available, it would
/// be worthwhile to allow the speculative scheduling of operations; on the
/// other hand, with only a few resources, it might be better to prohibit
/// it until all non-speculative operations have been scheduled." The paper
/// itself always allows speculation ("Without speculative scheduling
/// heuristics, GRiP always allows speculative scheduling") — that is the
/// default — but the heuristic is "completely abstracted away from the
/// actual transformations", which this policy type reproduces.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Speculation {
    /// The paper's behaviour: speculation is always allowed.
    #[default]
    Always,
    /// Never move an operation past a guarding conditional.
    Never,
    /// Allow speculation only while the target instruction still has at
    /// least this many free functional-unit slots — scarce slots are
    /// reserved for non-speculative work.
    WhenSlotsFree(usize),
}

impl Speculation {
    fn allows(self, free_slots: usize) -> bool {
        match self {
            Speculation::Always => true,
            Speculation::Never => false,
            Speculation::WhenSlotsFree(m) => free_slots >= m,
        }
    }
}

/// Scheduler configuration.
#[derive(Clone, Copy, Debug)]
pub struct GripConfig {
    /// The machine the schedule must fit.
    pub machine: MachineDesc,
    /// Enable the §3.3 gap prediction and prevention facility.
    pub gap_prevention: bool,
    /// Remove dead operations incrementally while scheduling (§4).
    pub dce: bool,
    /// Speculative-motion policy (see [`Speculation`]).
    pub speculation: Speculation,
    /// Record [`TraceEvent`]s (used by the figure-regeneration binaries).
    pub trace: bool,
}

impl Default for GripConfig {
    fn default() -> Self {
        GripConfig {
            machine: MachineDesc::UNLIMITED,
            gap_prevention: true,
            dce: true,
            speculation: Speculation::Always,
            trace: false,
        }
    }
}

/// Counters describing one scheduling run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Successful single-instruction hops.
    pub hops: u64,
    /// Operations that reached the node being scheduled.
    pub arrivals: u64,
    /// Renamings performed (compensation copies inserted).
    pub renames: u64,
    /// Node splits (multi-predecessor copies).
    pub splits: u64,
    /// Gap-prevention suspensions.
    pub suspensions: u64,
    /// Moves rejected by the Gapless-move test.
    pub gap_rejections: u64,
    /// Hops rejected because the target instruction was full.
    pub resource_blocks: u64,
    /// Hops rejected because landing would put the op closer to a
    /// multi-cycle producer than the producer's latency.
    pub latency_blocks: u64,
    /// Dead operations removed during scheduling.
    pub dce_removed: u64,
    /// Empty instructions deleted.
    pub nodes_deleted: u64,
    /// Empty-row deletions refused because they would re-shrink a
    /// producer→consumer distance below the producer's latency.
    pub deletions_blocked: u64,
    /// Candidate-selection rounds.
    pub picks: u64,
    /// Speculative hops vetoed by the speculation policy.
    pub speculation_vetoes: u64,
    /// Delay rows inserted by the hazard-resolution post-pass.
    pub hazard_delay_rows: u64,
    /// Ready ops backfilled into delay rows by the post-pass.
    pub hazard_backfills: u64,
    /// Rows emptied by backfill and reclaimed by the post-pass.
    pub hazard_reclaimed_rows: u64,
}

impl ScheduleStats {
    /// Every counter with its field name, in declaration order (the order
    /// the wire response lists them).
    pub fn named(&self) -> [(&'static str, u64); 16] {
        [
            ("hops", self.hops),
            ("arrivals", self.arrivals),
            ("renames", self.renames),
            ("splits", self.splits),
            ("suspensions", self.suspensions),
            ("gap_rejections", self.gap_rejections),
            ("resource_blocks", self.resource_blocks),
            ("latency_blocks", self.latency_blocks),
            ("dce_removed", self.dce_removed),
            ("nodes_deleted", self.nodes_deleted),
            ("deletions_blocked", self.deletions_blocked),
            ("picks", self.picks),
            ("speculation_vetoes", self.speculation_vetoes),
            ("hazard_delay_rows", self.hazard_delay_rows),
            ("hazard_backfills", self.hazard_backfills),
            ("hazard_reclaimed_rows", self.hazard_reclaimed_rows),
        ]
    }
}

/// One event of a traced schedule.
#[derive(Clone, Debug)]
pub enum TraceEvent {
    /// Scheduling moved on to a new node.
    Node(NodeId),
    /// `op` hopped from `from` into `to` (`arrived` = `to` is the node
    /// being scheduled).
    Hop {
        /// The moved operation.
        op: OpId,
        /// Source instruction.
        from: NodeId,
        /// Target instruction.
        to: NodeId,
        /// Whether this hop completed the migration.
        arrived: bool,
    },
    /// `op` was suspended by gap prevention while sitting in `at`.
    Suspend {
        /// The suspended operation.
        op: OpId,
        /// Where it was suspended.
        at: NodeId,
    },
    /// All suspensions lifted after a successful move.
    Unsuspend,
}

/// Per-phase wall-clock self time of the pick loop, the scheduler's own
/// profile: where does `schedule_ns` actually go? Kept **outside**
/// [`ScheduleStats`] deliberately — stats ride the wire and participate
/// in the bit-identity invariant (a cache hit must equal its cold run,
/// counters included), while timings vary run to run. Phases:
///
/// * `cand_refresh` — keeping and scanning the candidate index in
///   `Grip::pick_candidate`, including the picks that replay a sleeping
///   room or latency verdict instead of probing again;
/// * `legality` — the per-hop probe chain in `Grip::migrate`:
///   parent search, suspension rules, resource/template room, latency
///   guard, gapless-move test, and the `plan_move_*` dry runs;
/// * `commit` — applying planned moves (`apply_move_*`, region splices,
///   empty-row deletes) inside `Grip::hop`;
/// * `dead_sweep` — the per-epoch dead-op sweep, which re-checks only ops
///   whose rows changed since they were last found alive, and the DCE /
///   empty-row passes between nodes.
///
/// The four phases partition the wall of the node loop in `Grip::run`.
/// `commit` and `dead_sweep` are timed on every call. What they leave of
/// the loop is split between `cand_refresh` and `legality` in the ratio
/// of their samples: `Grip::pick_candidate` and `Grip::migrate` each read
/// the clock on one call in 64, because two clock reads per pick cost
/// about a fifth of a sweep. So the per-pick room check and the loop's
/// bookkeeping fall into the split, and the hazard post-pass, which runs
/// after the loop, falls outside. A run of fewer than 64 picks samples
/// neither wrapper and reports zero for both.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Candidate-list refresh + scan nanoseconds.
    pub cand_refresh_ns: u64,
    /// Migration legality-probe nanoseconds (excluding commits).
    pub legality_ns: u64,
    /// Move-commit nanoseconds.
    pub commit_ns: u64,
    /// Dead-op sweep / DCE / empty-row cleanup nanoseconds.
    pub dead_sweep_ns: u64,
}

impl PhaseTimes {
    /// Sum of the four phases.
    pub fn total_ns(&self) -> u64 {
        self.cand_refresh_ns + self.legality_ns + self.commit_ns + self.dead_sweep_ns
    }

    /// Accumulate another run's phases (bench cells aggregate the
    /// pipeline's runs per kernel).
    pub fn accumulate(&mut self, other: &PhaseTimes) {
        self.cand_refresh_ns += other.cand_refresh_ns;
        self.legality_ns += other.legality_ns;
        self.commit_ns += other.commit_ns;
        self.dead_sweep_ns += other.dead_sweep_ns;
    }
}

/// Result of scheduling a region.
#[derive(Debug)]
pub struct ScheduleOutput {
    /// Counters.
    pub stats: ScheduleStats,
    /// Trace (empty unless `cfg.trace`).
    pub trace: Vec<TraceEvent>,
    /// The region's surviving nodes, in schedule order.
    pub region: Vec<NodeId>,
    /// The pick loop's own profile (observation-only; not part of the
    /// wire response or the bit-identity invariant).
    pub phases: PhaseTimes,
}

/// `Grip::pick_candidate` and `Grip::migrate` read the clock on one call
/// in `PHASE_SAMPLE`.
const PHASE_SAMPLE: u64 = 64;

/// The phase clock of one sampled wrapper (see [`PhaseTimes`]).
#[derive(Default)]
struct SampledClock {
    calls: u64,
    /// Summed self time of the sampled calls.
    sampled_ns: u64,
}

impl SampledClock {
    /// The start of this call's sample, when it is the sampled call.
    fn start(&mut self) -> Option<Instant> {
        self.calls += 1;
        (self.calls % PHASE_SAMPLE == 0).then(Instant::now)
    }

    /// Add the sample's self time, less `nested_ns` attributed elsewhere.
    fn charge(&mut self, t0: Instant, nested_ns: u64) {
        self.sampled_ns += (t0.elapsed().as_nanos() as u64).saturating_sub(nested_ns);
    }
}

/// How far a migration got.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Migrated {
    /// Reached the node being scheduled.
    Arrived,
    /// Moved at least one hop but stopped short.
    Partial,
    /// Could not move at all.
    Stuck(Blocked),
    /// Gap prevention suspended the op mid-flight.
    Suspended,
    /// A hop succeeded while suspensions were pending: return to re-rank
    /// (Figure 12's early return).
    YieldAfterMove,
}

/// Why an op cannot make its next hop. `Grip::probe_hop` checks the
/// first four in `migrate`'s order; the hop itself can still turn out
/// illegal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Blocked {
    /// Suspension rule 1 or 3.
    Suspension,
    /// No forward path from the node being scheduled (or the op is gone).
    NoPath,
    /// The target row has no room for the op.
    NoRoom(NodeId),
    /// Landing in the target row would break a producer's latency; the
    /// producer sits on the `usize`-th row the walk above the target read.
    Latency(NodeId, usize),
    /// The planned move is illegal, or a policy refused it.
    Illegal,
}

/// A first hop that found no room or hit the latency guard, with what the
/// probe read: while none of it changes, a repeat pick of the op gets the
/// same verdict, so the candidate scan replays it without probing.
#[derive(Clone, Copy, Debug)]
struct Verdict {
    /// The node being scheduled and [`Graph::edge_version`]: together they
    /// fix the op's target row and the region order.
    node: NodeId,
    edges: u64,
    /// The op's row.
    row: NodeId,
    /// [`Graph::version`] when the verdict was taken.
    version: u64,
    /// [`Blocked::NoRoom`] or [`Blocked::Latency`].
    blocked: Blocked,
}

/// What the hops since the last scan did to the candidate index's order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Reorder {
    /// Nothing moved.
    Kept,
    /// One plain op moved up: only its own entry is out of place.
    Moved(OpId),
    /// A cj hop restructured rows: rebuild.
    Rebuild,
}

/// Reusable epoch-stamped visited set: `visit` marks-and-tests without
/// ever clearing the backing array (bumping the epoch invalidates all
/// marks in O(1)), so the DFS helpers allocate nothing per call.
#[derive(Default)]
struct VisitScratch {
    stamp: Vec<u64>,
    epoch: u64,
}

impl VisitScratch {
    fn begin(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// True when `n` was not yet visited in epoch `e` (and marks it).
    fn visit(&mut self, e: u64, n: NodeId) -> bool {
        let i = n.index();
        if i >= self.stamp.len() {
            self.stamp.resize(i + 1, 0);
        }
        if self.stamp[i] == e {
            false
        } else {
            self.stamp[i] = e;
            true
        }
    }
}

/// Dense region-position map (`NodeId` → region index), replacing a
/// `HashMap` in the hottest scans. Rebuilt on every region edit.
struct PosMap {
    idx: Vec<u32>,
}

impl PosMap {
    const NONE: u32 = u32::MAX;

    fn build(region: &[NodeId]) -> PosMap {
        let bound = region.iter().map(|n| n.index() + 1).max().unwrap_or(0);
        let mut idx = vec![PosMap::NONE; bound];
        for (i, &n) in region.iter().enumerate() {
            idx[n.index()] = i as u32;
        }
        PosMap { idx }
    }

    #[inline]
    fn get(&self, n: NodeId) -> Option<usize> {
        match self.idx.get(n.index()) {
            Some(&i) if i != PosMap::NONE => Some(i as usize),
            _ => None,
        }
    }

    #[inline]
    fn contains(&self, n: NodeId) -> bool {
        self.get(n).is_some()
    }
}

/// The GRiP scheduling engine for one region (an unwound loop window or a
/// whole acyclic program fragment), in top-down order.
pub struct Grip<'g, 'a> {
    g: &'g mut Graph,
    ctx: &'g mut Ctx<'a>,
    ranks: &'g RankTable,
    cfg: GripConfig,
    region: Vec<NodeId>,
    pos: PosMap,
    /// Suspended ops (gap-prevention rule 1), insertion-ordered. The set
    /// stays tiny, so a vector beats any hashed container here.
    suspended: Vec<OpId>,
    /// Sequential rows directly above the region top, nearest first — the
    /// part of the latency-hazard scan window that lies outside the
    /// region (empty on unit-latency machines).
    above_region: Vec<NodeId>,
    /// Memoized per-op priorities: an op's rank inputs (`orig`, `iter`,
    /// the prebuilt chain metrics) are fixed at creation, so the priority
    /// is computed once per op instead of once per candidate scan.
    prio: Vec<Option<Priority>>,
    /// Epoch-stamped skip sets for [`Grip::schedule_node`] (dependence /
    /// resource freezes), replacing per-node `HashSet` churn.
    dep_skip: Vec<u64>,
    res_skip: Vec<u64>,
    dep_epoch: u64,
    res_epoch: u64,
    /// DFS scratch for gap prevention and the parent search.
    gap_seen: VisitScratch,
    below_seen: VisitScratch,
    pt_seen: VisitScratch,
    /// The parent map [`Grip::parent_toward`] reads (stamped with
    /// `pt_gen`), filled by one DFS per `(node, edge version)` key.
    pt_stamp: Vec<u64>,
    pt_val: Vec<Option<(NodeId, TreePath)>>,
    pt_gen: u64,
    pt_key: Option<(NodeId, u64)>,
    /// The candidate index for [`Grip::pick_candidate`]: the ops below the
    /// node being scheduled, ordered by (priority, region row, pre-order
    /// index in the row). Kept for the whole node; entries of ops that
    /// were removed or reached the node go stale and are skipped lazily.
    cand: Vec<(Priority, OpId)>,
    /// The skip-set epochs of the last scan, and the op table length the
    /// index was built at (rename copies and split clones grow it).
    cand_key: (u64, u64),
    cand_ops: usize,
    /// What the hops since the last scan did to the index's order.
    cand_reorder: Reorder,
    /// Where the next scan of `cand` resumes (the last entry returned),
    /// and the first candidate row that scan was taken under.
    cand_cursor: usize,
    cand_start: usize,
    /// Sleeping first-hop verdicts, by op.
    verdicts: Vec<Option<Verdict>>,
    /// The sampled clocks of [`Grip::pick_candidate`] and
    /// [`Grip::migrate`].
    pick_clock: SampledClock,
    migrate_clock: SampledClock,
    /// Lowest region index the dead-op sweep has covered this epoch (a
    /// falling suspension floor re-exposes rows that must be re-swept).
    dead_start: usize,
    /// Per op: the [`Graph::version`] at which a dead-op check last found
    /// it alive (see [`Grip::sweep_dead`]).
    alive_at: Vec<u64>,
    /// Remembered refusals of the empty-row deletion check.
    deletion_guard: DeletionGuard,
    stats: ScheduleStats,
    phases: PhaseTimes,
    trace: Vec<TraceEvent>,
}

impl<'g, 'a> Grip<'g, 'a> {
    /// Create a scheduler over `region` (topological order, first node
    /// scheduled first).
    pub fn new(
        g: &'g mut Graph,
        ctx: &'g mut Ctx<'a>,
        ranks: &'g RankTable,
        cfg: GripConfig,
        region: Vec<NodeId>,
    ) -> Self {
        let pos = PosMap::build(&region);
        let above_region = Grip::prefix_chain(g, &region, &pos, &cfg);
        Grip {
            g,
            ctx,
            ranks,
            cfg,
            region,
            pos,
            suspended: Vec::new(),
            above_region,
            prio: Vec::new(),
            dep_skip: Vec::new(),
            res_skip: Vec::new(),
            dep_epoch: 0,
            res_epoch: 0,
            gap_seen: VisitScratch::default(),
            below_seen: VisitScratch::default(),
            pt_seen: VisitScratch::default(),
            pt_stamp: Vec::new(),
            pt_val: Vec::new(),
            pt_gen: 0,
            pt_key: None,
            cand: Vec::new(),
            cand_key: (0, 0),
            cand_ops: 0,
            cand_reorder: Reorder::Kept,
            cand_cursor: 0,
            cand_start: 0,
            verdicts: Vec::new(),
            pick_clock: SampledClock::default(),
            migrate_clock: SampledClock::default(),
            dead_start: usize::MAX,
            alive_at: Vec::new(),
            deletion_guard: DeletionGuard::default(),
            stats: ScheduleStats::default(),
            phases: PhaseTimes::default(),
            trace: Vec::new(),
        }
    }

    /// The unambiguous chain of predecessor rows above the region top
    /// (nearest first), up to the hazard-scan depth. Back edges from
    /// inside the region are ignored; a multi-predecessor join stops the
    /// chain conservatively. Nodes above the region are never edited by
    /// the scheduler, so the chain is computed once.
    fn prefix_chain(g: &Graph, region: &[NodeId], pos: &PosMap, cfg: &GripConfig) -> Vec<NodeId> {
        let depth = (cfg.machine.max_latency() as usize).saturating_sub(1);
        let Some(&top) = region.first() else { return Vec::new() };
        if depth == 0 {
            return Vec::new();
        }
        let mut chain = Vec::with_capacity(depth);
        let mut cur = top;
        let mut seen: HashSet<NodeId> = HashSet::new();
        while chain.len() < depth {
            let above: Vec<NodeId> = g
                .preds(cur)
                .iter()
                .copied()
                .filter(|&p| !pos.contains(p) && !seen.contains(&p))
                .collect();
            let [only] = above[..] else { break };
            seen.insert(only);
            chain.push(only);
            cur = only;
        }
        chain
    }

    /// Run the full top-down schedule (Figure 10 / Figure 12).
    pub fn run(mut self) -> ScheduleOutput {
        // Stage span + pass counters: observation only — nothing below
        // reads the clock or the registry, so schedules are bit-identical
        // with instrumentation on.
        let _span = grip_obs::span!("grip");
        let loop_t0 = Instant::now();
        let mut i = 0;
        while i < self.region.len() {
            let n = self.region[i];
            if !self.g.node_exists(n) {
                self.remove_from_region(n);
                continue;
            }
            if self.cfg.trace {
                self.trace.push(TraceEvent::Node(n));
            }
            self.schedule_node(n);
            self.suspended.clear();
            if self.cfg.dce {
                self.dce_sweep();
            } else {
                self.ctx.refresh(self.g);
            }
            self.cleanup_empty_below(i);
            i = self.pos.get(n).map(|p| p + 1).unwrap_or(i);
        }
        self.split_sampled(loop_t0.elapsed().as_nanos() as u64);
        // Hazard-resolution post-pass: upgrade the best-effort latency
        // guard to a hard invariant — after this, the schedule is
        // stall-free on its target machine (no-op under unit latencies).
        let desc = self.cfg.machine;
        if desc.max_latency() > 1 {
            let hz = crate::hazards::resolve_hazards(self.g, self.ctx, &desc, &mut self.region);
            self.stats.hazard_delay_rows = hz.delay_rows;
            self.stats.hazard_backfills = hz.backfilled;
            self.stats.hazard_reclaimed_rows = hz.reclaimed_rows;
        }
        record_pass_counters(&self.stats);
        record_phase_times(&self.phases);
        ScheduleOutput {
            stats: self.stats,
            trace: self.trace,
            region: self.region,
            phases: self.phases,
        }
    }

    /// Split what `commit` and `dead_sweep` leave of the node loop's wall
    /// `loop_ns` between `cand_refresh` and `legality`, in the ratio of
    /// their samples (see [`PhaseTimes`]). With neither wrapper sampled,
    /// both stay zero.
    fn split_sampled(&mut self, loop_ns: u64) {
        let (pick, migrate) = (self.pick_clock.sampled_ns, self.migrate_clock.sampled_ns);
        let sampled = u128::from(pick) + u128::from(migrate);
        if sampled == 0 {
            return;
        }
        let p = &mut self.phases;
        let rest = loop_ns.saturating_sub(p.commit_ns + p.dead_sweep_ns);
        p.cand_refresh_ns = (u128::from(rest) * u128::from(pick) / sampled) as u64;
        p.legality_ns = rest - p.cand_refresh_ns;
    }

    /// `procedure schedule(n)`: fill `n` with the best moveable operations.
    fn schedule_node(&mut self, n: NodeId) {
        // Ops that failed for dependence reasons are frozen for this node;
        // resource-blocked ops are retried after any successful move.
        // Both sets are epoch stamps into reusable arrays (bumping the
        // epoch empties a set in O(1)).
        self.dep_epoch += 1;
        self.res_epoch += 1;
        loop {
            if self.cfg.machine.exhausted(self.g, n) {
                break;
            }
            self.stats.picks += 1;
            let Some(op) = self.pick_candidate(n, true) else { break };
            let hops_before = self.stats.hops;
            let mut suspended_now = false;
            match self.migrate(n, op) {
                Migrated::Arrived => {
                    self.stats.arrivals += 1;
                    self.after_successful_move();
                }
                Migrated::YieldAfterMove => {
                    // Re-rank: unsuspended ops may now outrank everything.
                }
                Migrated::Partial => {
                    self.after_successful_move();
                    // It moved but cannot reach n (for now): freeze for n.
                    mark(&mut self.dep_skip, self.dep_epoch, op);
                }
                Migrated::Stuck(Blocked::NoRoom(_) | Blocked::Latency(..)) => {
                    mark(&mut self.res_skip, self.res_epoch, op);
                }
                Migrated::Stuck(_) => {
                    mark(&mut self.dep_skip, self.dep_epoch, op);
                }
                Migrated::Suspended => {
                    // Rule 1: wait until the test can pass again.
                    suspended_now = true;
                }
            }
            // Any successful motion changes the resource picture: retry
            // resource-blocked ops.
            if self.stats.hops > hops_before {
                self.res_epoch += 1;
            }
            // Deadlock guard: a suspension with no other moveable op below
            // would spin — treat the op as frozen for this node. The peek
            // replays no verdict: it only asks whether a candidate exists.
            if suspended_now && self.pick_candidate(n, false).is_none() {
                self.suspended.retain(|&o| o != op);
                mark(&mut self.dep_skip, self.dep_epoch, op);
            }
        }
    }

    /// Highest-priority op placed strictly below `n` in the region,
    /// honouring suspension rule 3 and the skip sets.
    ///
    /// The candidate index (`cand`) is kept per node, not rebuilt per
    /// epoch. It holds every op below `n` in (priority, region row,
    /// pre-order index in the row) order, which is what a stable priority
    /// sort of the row-major region scan gives, so the first still-valid
    /// entry is exactly the op a full rescan would choose. Ties keep that
    /// scan order because bit-identity depends on it. A node start
    /// builds the index. A plain op hop moves only the hopped op's entry,
    /// within its equal-priority run: every other op keeps its row order
    /// and its place within its row, and deleting an emptied row shifts
    /// all rows below it alike. Only a grown op table (rename copies,
    /// split clones) or a cj hop, which restructures rows, rebuilds the
    /// index mid-node. Removed ops and ops that reached `n` stay behind as
    /// stale entries and are skipped.
    ///
    /// Within an epoch a skipped entry stays skipped: skip marks only
    /// accumulate, removed ops never return, and a suspension is only
    /// lifted by a hop (a new epoch) or by the deadlock guard, which
    /// freezes the op instead. So each scan resumes at the entry the last
    /// one returned. The one exception is a falling suspension floor,
    /// which re-exposes entries skipped for sitting above it: the scan
    /// then starts over.
    ///
    /// With `replay` set, the scan replays a sleeping verdict instead of
    /// returning its op (see [`Grip::sleeping`]): it counts the pick and
    /// the block exactly as `migrate` would have, freezes the op for the
    /// epoch, and moves on to the next pick. Nothing changed in between,
    /// so the next pick sees the same floor, epoch and room as a fresh
    /// call would.
    ///
    /// Timing wrapper: on one call in `PHASE_SAMPLE`, the call's self time
    /// (minus whatever the nested [`Grip::sweep_dead`] attributed to
    /// `dead_sweep`) joins the `cand_refresh` sample that
    /// [`Grip::split_sampled`] reads. Reading the clock changes no
    /// decision.
    fn pick_candidate(&mut self, n: NodeId, replay: bool) -> Option<OpId> {
        let Some(t0) = self.pick_clock.start() else {
            return self.pick_candidate_inner(n, replay);
        };
        let sweep_before = self.phases.dead_sweep_ns;
        let out = self.pick_candidate_inner(n, replay);
        let swept = self.phases.dead_sweep_ns - sweep_before;
        self.pick_clock.charge(t0, swept);
        out
    }

    fn pick_candidate_inner(&mut self, n: NodeId, replay: bool) -> Option<OpId> {
        let npos = self.pos.get(n).expect("scheduled node is in the region");
        // Rule 3: with pending suspensions only ops strictly below the
        // lowest (deepest) suspended op may move.
        let floor = self.deepest_suspended().unwrap_or(npos);
        let start = floor.max(npos) + 1;
        if self.cand_key != (self.dep_epoch, self.res_epoch) {
            // New epoch: sweep dead ops below the floor (the rescan used
            // to fold this into candidate scanning), then bring the index
            // up to date: rebuilt on a node start (a new dep epoch), a
            // grown op table or a cj hop, else one entry moved.
            let rebuild = self.cand_key.0 != self.dep_epoch
                || self.cand_ops != self.g.op_table_len()
                || self.cand_reorder == Reorder::Rebuild;
            self.cand_key = (self.dep_epoch, self.res_epoch);
            self.sweep_dead(start, self.region.len());
            self.dead_start = start;
            if rebuild {
                candidate_order(
                    self.g,
                    self.ranks,
                    &mut self.prio,
                    &self.region[npos + 1..],
                    &mut self.cand,
                );
                self.cand_ops = self.g.op_table_len();
            } else if let Reorder::Moved(op) = self.cand_reorder {
                self.reinsert_candidate(op, npos);
                #[cfg(debug_assertions)]
                self.assert_index_fresh(npos);
            }
            self.cand_reorder = Reorder::Kept;
            self.cand_cursor = 0;
        } else if start < self.dead_start {
            // The suspension floor dropped without a structural change
            // (deadlock-guard unsuspension): rows between the new and old
            // floors are candidates again and get their deferred sweep.
            self.sweep_dead(start, self.dead_start);
            self.dead_start = start;
        }
        if start < self.cand_start {
            self.cand_cursor = 0;
        }
        self.cand_start = start;
        // Stale entries: removed ops have no placement, and ops that
        // reached `n` sit above the floor.
        while let Some(&(_, op)) = self.cand.get(self.cand_cursor) {
            let row =
                self.g.placement(op).filter(|&m| self.pos.get(m).is_some_and(|mp| mp >= start));
            if let Some(row) = row.filter(|_| !self.frozen(op)) {
                let Some(blocked) = replay.then(|| self.sleeping(n, op, row)).flatten() else {
                    return Some(op);
                };
                debug_assert_eq!(
                    self.probe_hop(n, row, op).err(),
                    Some(blocked),
                    "replayed a sleeping verdict for {op} the probe disagrees with"
                );
                debug_assert!(!self.cfg.machine.exhausted(self.g, n), "replayed into a full node");
                self.count_block(blocked);
                mark(&mut self.res_skip, self.res_epoch, op);
                self.stats.picks += 1;
            }
            self.cand_cursor += 1;
        }
        None
    }

    /// Move `op`'s index entry, after its hop, to its new place within
    /// its equal-priority run (or drop it once `op` has left the rows
    /// below region row `npos`).
    fn reinsert_candidate(&mut self, op: OpId, npos: usize) {
        let p = prio_of(&mut self.prio, self.ranks, self.g, op);
        let lo = self.cand.partition_point(|&(q, _)| q < p);
        let mut hi = self.cand.partition_point(|&(q, _)| q <= p);
        if let Some(i) = self.cand[lo..hi].iter().position(|&(_, o)| o == op) {
            self.cand.remove(lo + i);
            hi -= 1;
        }
        let Some(key) = self.index_key(op, npos) else { return };
        let at = (lo..hi)
            .find(|&i| self.index_key(self.cand[i].1, npos).is_some_and(|k| k > key))
            .unwrap_or(hi);
        self.cand.insert(at, (p, op));
    }

    /// (region row, pre-order index in the row) of `op` when it sits
    /// below region row `npos`: its place in the candidate index's order
    /// among ops of equal priority.
    fn index_key(&self, op: OpId, npos: usize) -> Option<(usize, usize)> {
        let m = self.g.placement(op)?;
        let row = self.pos.get(m).filter(|&r| r > npos)?;
        let idx = self.g.node_ops(m).iter().position(|&(_, o)| o == op)?;
        Some((row, idx))
    }

    /// Debug builds: the patched index, stale entries dropped, must equal
    /// a fresh full rebuild.
    #[cfg(debug_assertions)]
    fn assert_index_fresh(&mut self, npos: usize) {
        let mut fresh = Vec::new();
        candidate_order(self.g, self.ranks, &mut self.prio, &self.region[npos + 1..], &mut fresh);
        let kept: Vec<_> =
            self.cand.iter().copied().filter(|&(_, o)| self.index_key(o, npos).is_some()).collect();
        assert_eq!(kept, fresh, "patched candidate index differs from a rebuild");
    }

    /// The sleeping verdict of `op`, sitting in `row`, for node `n`: its
    /// first hop would be blocked again exactly as recorded, because
    /// nothing the recorded probe read has changed. The same node and
    /// edge version fix the target row and the region order. The target
    /// row's contents decide the room check. For a latency block, the
    /// op's own row (its operands) and every live row the walk read decide
    /// the guard. Suspension rules 1 and 3 run before the room check, so
    /// they are re-checked live.
    fn sleeping(&self, n: NodeId, op: OpId, row: NodeId) -> Option<Blocked> {
        let v = self.verdicts.get(op.index()).copied().flatten()?;
        let unchanged = |m: NodeId| self.g.node_stamp(m) <= v.version;
        let (target, shadow) = match v.blocked {
            Blocked::NoRoom(target) => (target, 0),
            Blocked::Latency(target, k) => (target, k),
            _ => return None,
        };
        let asleep = v.node == n
            && v.edges == self.g.edge_version()
            && v.row == row
            && unchanged(target)
            && (shadow == 0 || unchanged(row))
            && self.rows_above(target).take(shadow).all(|m| !self.g.node_exists(m) || unchanged(m))
            && !self.pinned_by_suspension(op, row)
            && !self.lands_above_suspension(target);
        asleep.then_some(v.blocked)
    }

    /// Count a room or latency block, for a probe or a replayed verdict.
    fn count_block(&mut self, blocked: Blocked) {
        self.stats.resource_blocks += 1;
        if let Blocked::Latency(..) = blocked {
            self.stats.latency_blocks += 1;
        }
    }

    /// Is `op` frozen for the node being scheduled: dependence- or
    /// resource-marked this epoch, or suspended?
    fn frozen(&self, op: OpId) -> bool {
        is_marked(&self.dep_skip, self.dep_epoch, op)
            || is_marked(&self.res_skip, self.res_epoch, op)
            || (!self.suspended.is_empty() && self.suspended.contains(&op))
    }

    /// Remove dead pure ops in region rows `start..end`, in region order —
    /// the incremental-DCE half of the old candidate rescan. Skips marked
    /// and suspended ops exactly as the rescan did (they were never
    /// dead-checked while frozen).
    ///
    /// An op found alive at [`Graph::version`] `v` is not checked again
    /// while its row's [`Graph::node_stamp`] is at most `v`. That is exact:
    /// between liveness refreshes liveness only grows (`add_live_at`, and
    /// `adopt` on new rows), so a live op can die only when its row's tree
    /// or successors change or the op itself is rewritten, and each of
    /// those stamps the row. Liveness is refreshed only between nodes, by
    /// [`Grip::dce_sweep`], whose last pass checks every region op. Debug
    /// builds re-run the full scan and compare.
    fn sweep_dead(&mut self, start: usize, end: usize) {
        if !self.cfg.dce {
            return;
        }
        let t0 = Instant::now();
        self.sweep_dead_inner(start, end);
        self.phases.dead_sweep_ns += t0.elapsed().as_nanos() as u64;
    }

    fn sweep_dead_inner(&mut self, start: usize, end: usize) {
        let version = self.g.version();
        self.alive_at.resize(self.alive_at.len().max(self.g.op_table_len()), 0);
        let mut dead: Vec<(NodeId, OpId)> = Vec::new();
        for idx in start..end.min(self.region.len()) {
            let m = self.region[idx];
            if !self.g.node_exists(m) {
                continue;
            }
            let stamp = self.g.node_stamp(m);
            for &(_, op) in self.g.node_ops(m) {
                if self.alive_at[op.index()] >= stamp || self.frozen(op) {
                    continue;
                }
                if is_dead(self.g, self.ctx, m, op) {
                    dead.push((m, op));
                } else {
                    self.alive_at[op.index()] = version;
                }
            }
        }
        #[cfg(debug_assertions)]
        assert_eq!(dead, self.full_dead_scan(start, end), "the dead sweep skipped a dead op");
        for (m, op) in dead {
            if self.g.node_exists(m) && remove_if_dead(self.g, self.ctx, m, op) {
                self.stats.dce_removed += 1;
            }
        }
    }

    /// Debug builds: the dead ops of region rows `start..end` by a check of
    /// every op that is not frozen, as the sweep ran before it kept
    /// `alive_at`.
    #[cfg(debug_assertions)]
    fn full_dead_scan(&self, start: usize, end: usize) -> Vec<(NodeId, OpId)> {
        let mut dead = Vec::new();
        for idx in start..end.min(self.region.len()) {
            let m = self.region[idx];
            if !self.g.node_exists(m) {
                continue;
            }
            for &(_, op) in self.g.node_ops(m) {
                if !self.frozen(op) && is_dead(self.g, self.ctx, m, op) {
                    dead.push((m, op));
                }
            }
        }
        dead
    }

    /// Migrate `op` toward `n` one instruction at a time (`migrate`, Figure
    /// 12). Each hop re-checks resources, legality, and — when enabled —
    /// the Gapless-move test.
    ///
    /// Timing wrapper: on one call in `PHASE_SAMPLE`, the call's self time
    /// minus the apply sections [`Grip::hop`] attributes to `commit` joins
    /// the `legality` sample that [`Grip::split_sampled`] reads — so the
    /// probe chain (parent search, room checks, latency guard, gapless
    /// test, plan dry runs) is measured separately from committed
    /// mutation.
    fn migrate(&mut self, n: NodeId, op: OpId) -> Migrated {
        let Some(t0) = self.migrate_clock.start() else {
            return self.migrate_inner(n, op);
        };
        let commit_before = self.phases.commit_ns;
        let out = self.migrate_inner(n, op);
        let committed = self.phases.commit_ns - commit_before;
        self.migrate_clock.charge(t0, committed);
        out
    }

    fn migrate_inner(&mut self, n: NodeId, op: OpId) -> Migrated {
        let mut progressed = false;
        loop {
            let stuck =
                |reason| if progressed { Migrated::Partial } else { Migrated::Stuck(reason) };
            let Some(cur) = self.g.placement(op) else {
                return stuck(Blocked::NoPath);
            };
            if cur == n {
                return Migrated::Arrived;
            }
            let (parent, path) = match self.probe_hop(n, cur, op) {
                Ok(hop) => hop,
                Err(blocked @ (Blocked::NoRoom(_) | Blocked::Latency(..))) => {
                    self.count_block(blocked);
                    if !progressed {
                        // The op will be picked again: let the scan replay
                        // this verdict while nothing it read has changed.
                        let (edges, version) = (self.g.edge_version(), self.g.version());
                        let i = op.index();
                        if i >= self.verdicts.len() {
                            self.verdicts.resize(i + 1, None);
                        }
                        self.verdicts[i] =
                            Some(Verdict { node: n, edges, row: cur, version, blocked });
                    }
                    return stuck(blocked);
                }
                Err(blocked) => return stuck(blocked),
            };
            if self.cfg.gap_prevention && !self.gapless_move(cur, parent, op) {
                self.stats.gap_rejections += 1;
                self.stats.suspensions += 1;
                if !self.suspended.contains(&op) {
                    self.suspended.push(op);
                }
                if self.cfg.trace {
                    self.trace.push(TraceEvent::Suspend { op, at: cur });
                }
                return Migrated::Suspended;
            }
            let moved = self.hop(cur, parent, op, path);
            match moved {
                Ok(()) => {
                    progressed = true;
                    if self.cfg.trace {
                        self.trace.push(TraceEvent::Hop {
                            op,
                            from: cur,
                            to: parent,
                            arrived: parent == n,
                        });
                    }
                    // Figure 12: once something moved while ops are
                    // suspended, return so the scheduler re-ranks.
                    if !self.suspended.is_empty() {
                        self.unsuspend_all();
                        return Migrated::YieldAfterMove;
                    }
                }
                Err(_) => return stuck(Blocked::Illegal),
            }
        }
    }

    /// The checks before `op`'s next hop from `cur` toward `n`, in
    /// `migrate`'s order: suspension rule 1, the parent search, rule 3,
    /// room in the target row, and the latency guard. `Ok` carries the
    /// target row and the leaf path into `cur`.
    fn probe_hop(
        &mut self,
        n: NodeId,
        cur: NodeId,
        op: OpId,
    ) -> Result<(NodeId, TreePath), Blocked> {
        if self.pinned_by_suspension(op, cur) {
            return Err(Blocked::Suspension);
        }
        let (parent, path) = self.parent_toward(n, cur).ok_or(Blocked::NoPath)?;
        if self.lands_above_suspension(parent) {
            return Err(Blocked::Suspension);
        }
        if !self.cfg.machine.has_room(self.g, parent, op) {
            return Err(Blocked::NoRoom(parent));
        }
        if let Some(k) = self.latency_blocked(parent, op) {
            return Err(Blocked::Latency(parent, k));
        }
        Ok((parent, path))
    }

    /// Region index of the deepest row holding a suspended op.
    fn deepest_suspended(&self) -> Option<usize> {
        self.suspended
            .iter()
            .filter_map(|&o| self.g.placement(o))
            .filter_map(|m| self.pos.get(m))
            .max()
    }

    /// Suspension rule 1: no op leaves a row that holds another suspended
    /// op (nothing may pass a suspended operation).
    fn pinned_by_suspension(&self, op: OpId, cur: NodeId) -> bool {
        self.cfg.gap_prevention
            && self.suspended.iter().any(|&s| s != op && self.g.placement(s) == Some(cur))
    }

    /// Suspension rule 3: never land above the deepest suspended op.
    fn lands_above_suspension(&self, target: NodeId) -> bool {
        self.cfg.gap_prevention
            && self
                .deepest_suspended()
                .is_some_and(|dp| self.pos.get(target).unwrap_or(usize::MAX) < dp)
    }

    /// Execute one legality-checked hop `cur -> parent`.
    fn hop(
        &mut self,
        cur: NodeId,
        parent: NodeId,
        op: OpId,
        path: TreePath,
    ) -> Result<(), MoveFail> {
        let is_cj = self.g.op(op).kind.is_cj();
        if is_cj {
            let plan = plan_move_cj(self.g, self.ctx, cur, parent, op, path, None)?;
            let commit_t0 = Instant::now();
            let out = apply_move_cj(self.g, self.ctx, cur, parent, op, path, &plan);
            if let Some(split) = out.split {
                self.insert_region_after(cur, split);
                self.stats.splits += 1;
            }
            self.insert_region_after(out.true_residue, out.false_residue);
            // Residues may have emptied out.
            for r in [out.true_residue, out.false_residue] {
                self.try_delete(r);
            }
            self.cand_reorder = Reorder::Rebuild;
            self.phases.commit_ns += commit_t0.elapsed().as_nanos() as u64;
        } else {
            let plan = plan_move_op(self.g, self.ctx, cur, parent, op, path, None)?;
            // Refuse to rename copies: a compensation copy of a copy can
            // regress forever; leaving the copy in place costs one slot.
            if plan.needs_rename && self.g.op(op).kind == grip_ir::OpKind::Copy {
                return Err(MoveFail::TrueDep { reader: op, writer: op });
            }
            // A renaming move leaves a compensation copy (an ALU op) in
            // `cur` where the moved op used to be. On a flat machine the
            // swap is free — same width — but with per-class slot caps it
            // converts the departing op's slot into an ALU slot, so the
            // swap must itself fit `cur`'s template.
            if plan.needs_rename && !self.rename_copy_fits(cur, op) {
                self.stats.resource_blocks += 1;
                return Err(MoveFail::TrueDep { reader: op, writer: op });
            }
            // Speculation policy (§1): a speculative hop may be vetoed when
            // slots are scarce.
            if plan.speculative {
                let free = self.cfg.machine.free_slots(self.g, parent);
                if !self.cfg.speculation.allows(free) {
                    self.stats.speculation_vetoes += 1;
                    return Err(MoveFail::SpeculativeStore);
                }
            }
            let commit_t0 = Instant::now();
            let out = apply_move_op(self.g, self.ctx, cur, parent, op, path, &plan);
            if out.renamed.is_some() {
                self.stats.renames += 1;
            }
            if let Some(split) = out.split {
                self.insert_region_after(cur, split);
                self.stats.splits += 1;
            }
            self.try_delete(cur);
            // Only `op`'s own entry is out of place (a rename copy or a
            // split clone grows the op table, which forces a rebuild).
            self.cand_reorder = match self.cand_reorder {
                Reorder::Kept => Reorder::Moved(op),
                Reorder::Moved(o) if o == op => Reorder::Moved(op),
                _ => Reorder::Rebuild,
            };
            self.phases.commit_ns += commit_t0.elapsed().as_nanos() as u64;
        }
        self.stats.hops += 1;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Latency hazards (machine model)
    // ------------------------------------------------------------------

    /// Would `cur` still fit its issue template after `op` is replaced by
    /// a compensation copy? (Copies issue on the ALU class.)
    fn rename_copy_fits(&self, cur: NodeId, op: OpId) -> bool {
        self.cfg.machine.copy_swap_fits(self.g, cur, self.g.op(op).kind)
    }

    /// Would landing `op` in `row` place it closer to a multi-cycle
    /// producer of one of its sources than that producer's latency? When
    /// it would, returns how many rows of [`Grip::rows_above`] the walk
    /// read, the producer's row last.
    ///
    /// Upward motion only ever *shrinks* the distance to producers (they
    /// sit above) and grows the distance to consumers, so checking the
    /// producer side on every landing suppresses new hazards at the
    /// moment of the move. The scan counts *live* rows only (a deleted
    /// region slot issues nothing) and, when it runs off the region top,
    /// continues into the cached chain of sequential rows above the
    /// region — cross-region producers used to slip through here
    /// unchecked. It walks at most `max_latency - 1` rows per source and
    /// stops at the nearest def (which shadows older ones), so the
    /// unit-latency model pays nothing. The guard remains best-effort
    /// (back-edge distances are out of scope); the hazard-resolution
    /// post-pass upgrades the residue to a hard stall-free invariant.
    fn latency_blocked(&self, row: NodeId, op: OpId) -> Option<usize> {
        let desc = &self.cfg.machine;
        let lmax = desc.max_latency() as usize;
        if lmax <= 1 || !self.pos.contains(row) {
            return None;
        }
        let mut unresolved: Vec<grip_ir::RegId> = self.g.op(op).reads().collect();
        if unresolved.is_empty() {
            return None;
        }
        let mut d = 0usize; // live-instruction distance walked so far
        for (read, above) in self.rows_above(row).enumerate() {
            if !self.g.node_exists(above) {
                continue;
            }
            d += 1;
            if d >= lmax {
                return None; // every remaining producer has retired
            }
            for &(_, w) in self.g.node_ops(above) {
                let wo = self.g.op(w);
                let Some(dst) = wo.dest else { continue };
                let before = unresolved.len();
                unresolved.retain(|&r| r != dst);
                if unresolved.len() != before && desc.latency_of(wo.kind) as usize > d {
                    return Some(read + 1);
                }
            }
            if unresolved.is_empty() {
                return None;
            }
        }
        None
    }

    /// The rows above region row `row`, nearest first: the region rows
    /// before it, then the sequential chain above the region top. Deleted
    /// region slots are included; callers skip them.
    fn rows_above(&self, row: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let ridx = self.pos.get(row).unwrap_or(0);
        self.region[..ridx].iter().rev().chain(self.above_region.iter()).copied()
    }

    // ------------------------------------------------------------------
    // Gap prevention (§3.3)
    // ------------------------------------------------------------------

    /// The Gapless-move test (§3.3): may `op` leave `from` (for the node
    /// above) without ever creating a permanent gap?
    fn gapless_move(&mut self, from: NodeId, _to: NodeId, op: OpId) -> bool {
        let mut visited = std::mem::take(&mut self.gap_seen);
        let mut below = std::mem::take(&mut self.below_seen);
        let epoch = visited.begin();
        let ok = self.gapless_rec(from, op, &mut visited, epoch, &mut below);
        self.gap_seen = visited;
        self.below_seen = below;
        ok
    }

    fn gapless_rec(
        &self,
        from: NodeId,
        op: OpId,
        visited: &mut VisitScratch,
        epoch: u64,
        below: &mut VisitScratch,
    ) -> bool {
        if !visited.visit(epoch, from) {
            return false;
        }
        let ops = self.g.node_ops(from);
        // Condition 1: the op is alone — the node dies with its departure.
        if ops.len() == 1 {
            return true;
        }
        let it = self.g.op(op).iter;
        // Condition 2: another op of the same iteration stays behind.
        if ops.iter().filter(|&&(_, o)| self.g.op(o).iter == it).count() >= 2 {
            return true;
        }
        // Condition 3: no same-iteration op below `from` — op is the last of
        // its iteration, nothing to gap against.
        if !self.iteration_below(from, it, below) {
            return true;
        }
        // Condition 4: some same-iteration op X in a successor S could move
        // into `from` once op has left ("given that Op succeeded in moving
        // to To"), and X's own departure from S is gapless (Theorem 1's
        // induction).
        for s in self.region_successors(from) {
            let paths = self.g.node(from).tree.leaf_paths_to(s);
            for &(_, x) in self.g.node_ops(s) {
                if x == op || self.g.op(x).iter != it {
                    continue;
                }
                for &p in &paths {
                    let plan_ok = if self.g.op(x).kind.is_cj() {
                        plan_move_cj(self.g, self.ctx, s, from, x, p, Some(op)).is_ok()
                    } else {
                        plan_move_op(self.g, self.ctx, s, from, x, p, Some(op)).is_ok()
                    };
                    if plan_ok && self.gapless_rec(s, x, visited, epoch, below) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Does any node strictly below `from` (region successors, transitive)
    /// hold an op of iteration `it`?
    fn iteration_below(&self, from: NodeId, it: u32, seen: &mut VisitScratch) -> bool {
        let epoch = seen.begin();
        let mut stack: Vec<NodeId> = self.region_successors(from);
        while let Some(m) = stack.pop() {
            if !seen.visit(epoch, m) {
                continue;
            }
            if self.g.node_ops(m).iter().any(|&(_, o)| self.g.op(o).iter == it) {
                return true;
            }
            let mp = self.pos.get(m).expect("stack members are region rows");
            for &s in self.g.unique_successors(m) {
                if self.pos.get(s).is_some_and(|sp| sp > mp) {
                    stack.push(s);
                }
            }
        }
        false
    }

    // ------------------------------------------------------------------
    // Bookkeeping
    // ------------------------------------------------------------------

    /// Successors of `m` inside the region, forward edges only (the back
    /// edge from the window latch to its head is ignored).
    fn region_successors(&self, m: NodeId) -> Vec<NodeId> {
        let mp = match self.pos.get(m) {
            Some(p) => p,
            None => return Vec::new(),
        };
        self.g
            .unique_successors(m)
            .iter()
            .copied()
            .filter(|&s| self.pos.get(s).is_some_and(|sp| sp > mp))
            .collect()
    }

    /// The last edge of some forward path `n -> ... -> cur` (DFS), i.e. the
    /// node to hop `op` into next, with the leaf path reaching `cur`.
    ///
    /// The DFS from `n` visits rows in an order that does not depend on
    /// `cur`, so one traversal answers every target: each region row
    /// maps to the first visited row with a leaf to it. The map stays
    /// valid while the edge structure is unchanged: op hops between
    /// existing rows leave both the CFG and the region membership alone,
    /// while splits and deletions bump [`Graph::edge_version`] and force
    /// a refill.
    fn parent_toward(&mut self, n: NodeId, cur: NodeId) -> Option<(NodeId, TreePath)> {
        let key = (n, self.g.edge_version());
        if self.pt_key != Some(key) {
            self.pt_key = Some(key);
            self.fill_parent_map(n);
        }
        let i = cur.index();
        if self.pt_stamp.get(i) == Some(&self.pt_gen) {
            self.pt_val[i]
        } else {
            None
        }
    }

    fn fill_parent_map(&mut self, n: NodeId) {
        self.pt_gen += 1;
        if !self.g.node_exists(n) {
            return;
        }
        let epoch = self.pt_seen.begin();
        let mut stack = vec![n];
        while let Some(m) = stack.pop() {
            if !self.pt_seen.visit(epoch, m) {
                continue;
            }
            let succs = self.region_successors(m);
            for &(path, s) in self.g.node_leaves(m) {
                let Some(s) = s.filter(|s| succs.contains(s)) else { continue };
                let i = s.index();
                if i >= self.pt_stamp.len() {
                    self.pt_stamp.resize(i + 1, 0);
                    self.pt_val.resize(i + 1, None);
                }
                if self.pt_stamp[i] != self.pt_gen {
                    self.pt_stamp[i] = self.pt_gen;
                    self.pt_val[i] = Some((m, path));
                }
            }
            stack.extend(succs);
        }
    }

    fn after_successful_move(&mut self) {
        if !self.suspended.is_empty() {
            self.unsuspend_all();
        }
    }

    fn unsuspend_all(&mut self) {
        self.suspended.clear();
        if self.cfg.trace {
            self.trace.push(TraceEvent::Unsuspend);
        }
    }

    fn insert_region_after(&mut self, anchor: NodeId, new_node: NodeId) {
        if self.pos.contains(new_node) {
            return;
        }
        let at = self.pos.get(anchor).map(|p| p + 1).unwrap_or(self.region.len());
        self.region.insert(at.min(self.region.len()), new_node);
        self.reindex();
    }

    fn remove_from_region(&mut self, n: NodeId) {
        self.region.retain(|&m| m != n);
        self.reindex();
    }

    fn reindex(&mut self) {
        self.pos = PosMap::build(&self.region);
    }

    /// May the empty row `n` be deleted without re-shrinking a
    /// producer→consumer issue distance below the producer's latency?
    /// (Row deletion used to undo distances the latency guard had already
    /// approved — the re-shrink bug; refused deletions are counted.) The
    /// run's [`DeletionGuard`] answers repeat refusals without a walk.
    fn deletion_is_hazard_safe(&mut self, n: NodeId) -> bool {
        let desc = &self.cfg.machine;
        if desc.max_latency() <= 1 {
            return true;
        }
        let safe = !self.deletion_guard.would_create_hazard(self.g, desc, n);
        if !safe {
            self.stats.deletions_blocked += 1;
        }
        safe
    }

    /// Delete `n` if it is an empty region row below the first, and its
    /// deletion is hazard-safe. Returns true if deleted.
    fn try_delete(&mut self, n: NodeId) -> bool {
        let deleted = self.g.node_exists(n)
            && self.g.node(n).tree.is_empty()
            && n != self.g.entry
            && self.pos.get(n).is_some_and(|p| p != 0)
            && self.deletion_is_hazard_safe(n)
            && try_delete_empty(self.g, n);
        if deleted {
            self.stats.nodes_deleted += 1;
            self.remove_from_region(n);
        }
        deleted
    }

    fn dce_sweep(&mut self) {
        let t0 = Instant::now();
        self.dce_sweep_inner();
        self.phases.dead_sweep_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Copy propagation, then dead-op passes against refreshed liveness
    /// until one removes nothing ([`eliminate_dead_ops`]). That last pass
    /// checked every surviving region op, so each is marked alive for
    /// [`Grip::sweep_dead`].
    fn dce_sweep_inner(&mut self) {
        self.stats.dce_removed += propagate_copies(self.g, self.ctx) as u64;
        self.stats.dce_removed += eliminate_dead_ops(self.g, self.ctx, &self.region) as u64;
        let version = self.g.version();
        self.alive_at.resize(self.alive_at.len().max(self.g.op_table_len()), 0);
        for &n in &self.region {
            if self.g.node_exists(n) {
                for &(_, op) in self.g.node_ops(n) {
                    self.alive_at[op.index()] = version;
                }
            }
        }
    }

    fn cleanup_empty_below(&mut self, from_idx: usize) {
        let t0 = Instant::now();
        self.cleanup_empty_below_inner(from_idx);
        self.phases.dead_sweep_ns += t0.elapsed().as_nanos() as u64;
    }

    fn cleanup_empty_below_inner(&mut self, from_idx: usize) {
        let mut i = from_idx;
        while i < self.region.len() {
            if !self.try_delete(self.region[i]) {
                i += 1;
            }
        }
    }
}

/// Mark `op` in an epoch-stamped set.
fn mark(set: &mut Vec<u64>, epoch: u64, op: OpId) {
    let i = op.index();
    if i >= set.len() {
        set.resize(i + 1, 0);
    }
    set[i] = epoch;
}

/// Membership test against an epoch-stamped set.
fn is_marked(set: &[u64], epoch: u64, op: OpId) -> bool {
    set.get(op.index()).is_some_and(|&s| s == epoch)
}

/// Memoized [`RankTable::priority`]: an op's rank inputs are fixed at its
/// creation (the chain metrics are prebuilt, `orig`/`iter` never change on
/// a placed op), so each op pays the table lookup exactly once per run.
fn prio_of(cache: &mut Vec<Option<Priority>>, ranks: &RankTable, g: &Graph, op: OpId) -> Priority {
    let i = op.index();
    if i >= cache.len() {
        cache.resize(i + 1, None);
    }
    if let Some(p) = cache[i] {
        return p;
    }
    let p = ranks.priority(g, op);
    cache[i] = Some(p);
    p
}

/// Every op placed in `rows`, in candidate-index order: the row-major
/// scan (rows in region order, ops in pre-order), stably sorted by
/// priority.
fn candidate_order(
    g: &Graph,
    ranks: &RankTable,
    prio: &mut Vec<Option<Priority>>,
    rows: &[NodeId],
    out: &mut Vec<(Priority, OpId)>,
) {
    out.clear();
    for &m in rows {
        if !g.node_exists(m) {
            continue;
        }
        for &(_, op) in g.node_ops(m) {
            out.push((prio_of(prio, ranks, g, op), op));
        }
    }
    out.sort_by_key(|&(p, _)| p);
}

/// Fold one run's [`ScheduleStats`] into the process-wide metrics
/// registry (`grip_obs`): GRiP iterations, percolation moves attempted
/// vs committed, and the hazard post-pass work. Bumping once per run
/// keeps the hot loops free of instrumentation.
fn record_pass_counters(s: &ScheduleStats) {
    grip_obs::counter!("grip_schedules_total").inc();
    grip_obs::counter!("grip_iterations_total").add(s.picks);
    grip_obs::counter!("grip_moves_committed_total").add(s.hops);
    grip_obs::counter!("grip_moves_attempted_total")
        .add(s.hops + s.resource_blocks + s.latency_blocks + s.gap_rejections);
    grip_obs::counter!("grip_arrivals_total").add(s.arrivals);
    grip_obs::counter!("grip_renames_total").add(s.renames);
    grip_obs::counter!("grip_suspensions_total").add(s.suspensions);
    grip_obs::counter!("grip_dce_removed_total").add(s.dce_removed);
}

/// Fold one run's [`PhaseTimes`] into the registry: ns-sum counters per
/// pick-loop phase, so a long-lived server (and the windowed `stats`
/// command) can see where scheduling time goes across runs. Like the
/// pass counters, bumped once per run, never inside the hot loops.
fn record_phase_times(p: &PhaseTimes) {
    grip_obs::counter!(
        "grip_sched_phase_cand_refresh_ns_total",
        "Scheduler self-time building and scanning the candidate list, ns."
    )
    .add(p.cand_refresh_ns);
    grip_obs::counter!(
        "grip_sched_phase_legality_ns_total",
        "Scheduler self-time in per-hop legality probes, ns."
    )
    .add(p.legality_ns);
    grip_obs::counter!(
        "grip_sched_phase_commit_ns_total",
        "Scheduler self-time applying committed moves, ns."
    )
    .add(p.commit_ns);
    grip_obs::counter!(
        "grip_sched_phase_dead_sweep_ns_total",
        "Scheduler self-time sweeping dead ops and empty rows, ns."
    )
    .add(p.dead_sweep_ns);
}

/// Convenience: schedule `region` of `g` and return the output.
pub fn schedule_region(
    g: &mut Graph,
    ctx: &mut Ctx<'_>,
    ranks: &RankTable,
    cfg: GripConfig,
    region: Vec<NodeId>,
) -> ScheduleOutput {
    Grip::new(g, ctx, ranks, cfg, region).run()
}
