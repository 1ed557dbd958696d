//! Shared analysis state threaded through the core transformations.

use grip_analysis::{Ddg, Liveness, LivenessCache};
use grip_ir::Graph;

/// Analysis context for a percolation session: the (immutable) memory
/// dependence graph plus incrementally-maintained liveness. Predecessors
/// come from the graph itself ([`Graph::preds`]).
///
/// Liveness is maintained *grow-only* between [`Ctx::refresh`] calls, which
/// can only over-approximate (spurious renamings, never unsound motion);
/// callers refresh at convenient boundaries (e.g. after each scheduled
/// node) to regain precision for dead-code removal.
pub struct Ctx<'a> {
    /// Memory dependences, keyed by `orig` op ids (see `grip-analysis`).
    pub ddg: &'a Ddg,
    /// Live-in register sets.
    pub lv: Liveness,
    /// Use/def summaries and the node order reused across liveness
    /// recomputes (see [`LivenessCache`]).
    lv_cache: LivenessCache,
}

impl<'a> Ctx<'a> {
    /// Build a context for the current graph state.
    pub fn new(g: &Graph, ddg: &'a Ddg) -> Ctx<'a> {
        let mut lv_cache = LivenessCache::default();
        let lv = Liveness::compute_with(g, &mut lv_cache);
        Ctx { ddg, lv, lv_cache }
    }

    /// Fully recompute liveness (precision reset), reusing the current
    /// sets as buffers.
    pub fn refresh(&mut self, g: &Graph) {
        self.lv.recompute(g, &mut self.lv_cache);
    }
}
