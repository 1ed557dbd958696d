//! Golden schedule digests: a structural fingerprint of every scheduled
//! window, pinned across scheduler rewrites.
//!
//! The hot-loop optimization work (ROADMAP item 1) rewrites the GRiP /
//! percolate internals for speed while promising *bit-identical*
//! schedules wherever candidate order is preserved. The digest here is
//! the enforcement mechanism: it hashes the full post-schedule graph
//! listing (every op with registers, immediates, displacements and
//! iteration tags, every tree shape, every successor edge) plus the
//! region row order, so any behavioural drift — a different rename, a
//! different landing row, a different residue — changes the digest.
//!
//! `tests/golden_schedules.json` (workspace root) holds the digests
//! captured from the *pre-optimization* scheduler; the
//! `golden_schedules` test recomputes them with the current build. Cells
//! whose schedule is deliberately allowed to shift (a candidate-order
//! change) must be waived explicitly there and are then held to a
//! `sched_cycles`-no-worse bar instead.

use crate::json::Json;
use crate::unwind_for;
use grip_ir::{Fnv, Graph, NodeId};
use grip_kernels::Kernel;
use grip_machine::MachineDesc;
use grip_pipeline::{perfect_pipeline, PipelineOptions};
use grip_vm::Machine;

/// One pinned (machine × kernel) schedule fingerprint.
#[derive(Clone, Debug)]
pub struct GoldenCell {
    /// Preset name (`uniform4`, `clustered`, …).
    pub machine: String,
    /// Kernel name (`LL1`…).
    pub kernel: String,
    /// Structural digest of the scheduled graph + region order.
    pub digest: u64,
    /// Steady rows of the schedule.
    pub rows: usize,
    /// Latency-aware model cycles of the scheduled program (the bar a
    /// waived cell must not regress).
    pub sched_cycles: u64,
    /// Candidate-selection rounds the scheduler ran (`stats.picks`).
    pub picks: u64,
}

impl GoldenCell {
    /// Serialize for `tests/golden_schedules.json`.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("machine", self.machine.as_str())
            .field("kernel", self.kernel.as_str())
            .field("digest", format!("{:016x}", self.digest).as_str())
            .field("rows", self.rows)
            .field("sched_cycles", self.sched_cycles)
            .field("picks", self.picks)
    }
}

/// Structural digest of a scheduled graph: the full reachable listing
/// (ops, operands, displacements, iteration tags, tree shapes, successor
/// edges, node ids) plus the scheduler's region row order.
pub fn schedule_digest(g: &Graph, region: &[NodeId]) -> u64 {
    let mut h = Fnv::new();
    h.str(&grip_ir::print::dump(g));
    h.word(region.len() as u64);
    for &n in region {
        h.word(n.index() as u64);
    }
    h.finish()
}

/// Schedule one kernel on one preset (the exact `measure_machine`
/// configuration) and fingerprint the result.
pub fn golden_cell(k: &Kernel, n: i64, desc: MachineDesc) -> GoldenCell {
    let g0 = (k.build)(n);
    let mut g = g0.clone();
    let unwind = unwind_for(desc.width.min(8));
    let rep = perfect_pipeline(
        &mut g,
        PipelineOptions {
            unwind,
            machine: desc,
            fold_inductions: true,
            gap_prevention: true,
            dce: true,
            try_roll: false,
            audit: false,
        },
    );
    let digest = schedule_digest(&g, &rep.region);
    let mut m = Machine::for_graph(&g);
    (k.init)(&g, &mut m, n);
    let sched_cycles = m.run_model(&g, &desc).map(|s| s.total_cycles()).unwrap_or(0);
    GoldenCell {
        machine: crate::machines::preset_label(&desc),
        kernel: k.name.to_string(),
        digest,
        rows: rep.steady.len(),
        sched_cycles,
        picks: rep.stats.picks,
    }
}

/// Fingerprint every preset × kernel cell, one pool shard per kernel.
pub fn golden_table(n: i64, parallel: bool) -> Vec<GoldenCell> {
    let ks = grip_kernels::kernels();
    let presets = MachineDesc::presets();
    let sweep = move |k: &'static Kernel| -> Vec<GoldenCell> {
        presets.iter().map(|&d| golden_cell(k, n, d)).collect()
    };
    if !parallel {
        return ks.iter().flat_map(sweep).collect();
    }
    let pool: grip_service::pool::ShardedPool<&'static Kernel, Vec<GoldenCell>> =
        grip_service::pool::ShardedPool::new(ks.len(), |_| (), move |_, _, k, _| sweep(k));
    pool.map_batch(ks.iter().enumerate()).into_iter().flatten().collect()
}

/// The whole golden table as one JSON document.
pub fn golden_json(n: i64, cells: &[GoldenCell]) -> Json {
    Json::obj()
        .field("bench", "golden_schedules")
        .field("trip_count", n)
        .field("cells", cells.iter().map(GoldenCell::to_json).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic_and_structure_sensitive() {
        let k = grip_kernels::kernels().iter().find(|k| k.name == "LL12").unwrap();
        let a = golden_cell(k, 24, MachineDesc::uniform(2));
        let b = golden_cell(k, 24, MachineDesc::uniform(2));
        assert_eq!(a.digest, b.digest, "same schedule must digest identically");
        let c = golden_cell(k, 24, MachineDesc::uniform(4));
        assert_ne!(a.digest, c.digest, "different schedules must digest differently");
    }
}
