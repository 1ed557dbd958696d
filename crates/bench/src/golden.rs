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
//! `golden_schedules` test recomputes them with the current build, from
//! the same [`MachineCell`]s the `machines` sweep measures. Cells
//! whose schedule is deliberately allowed to shift (a candidate-order
//! change) must be waived explicitly there and are then held to a
//! `sched_cycles`-no-worse bar instead.

use crate::json::Json;
use crate::machines::MachineCell;
use grip_ir::{Fnv, Graph, NodeId};

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

/// The golden table as one JSON document: per cell the machine, kernel,
/// digest, steady rows and model cycles (the bar a waived cell must not
/// regress), then every scheduler counter as a flat field.
pub fn golden_json(n: i64, cells: &[MachineCell]) -> Json {
    let cell = |c: &MachineCell| {
        let head = Json::obj()
            .field("machine", c.machine.as_str())
            .field("kernel", c.kernel.as_str())
            .field("digest", format!("{:016x}", c.digest).as_str())
            .field("rows", c.schedule_rows)
            .field("sched_cycles", c.sched_cycles);
        c.stats.named().into_iter().fold(head, |j, (name, v)| j.field(name, v))
    };
    Json::obj()
        .field("bench", "golden_schedules")
        .field("trip_count", n)
        .field("cells", cells.iter().map(cell).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use crate::machines::measure_machine;
    use grip_machine::MachineDesc;

    #[test]
    fn digest_is_deterministic_and_structure_sensitive() {
        let k = grip_kernels::kernels().iter().find(|k| k.name == "LL12").unwrap();
        let a = measure_machine(k, 24, MachineDesc::uniform(2));
        let b = measure_machine(k, 24, MachineDesc::uniform(2));
        assert_eq!(a.digest, b.digest, "same schedule must digest identically");
        let c = measure_machine(k, 24, MachineDesc::uniform(4));
        assert_ne!(a.digest, c.digest, "different schedules must digest differently");
    }
}
