//! The machine description: issue width, per-class slots, latencies.

use crate::class::{FuClass, LatencyTable};
use grip_ir::{Fnv, Graph, NodeId, OpId, OpKind};
use std::fmt;

/// Marker for an uncapped slot count or jump budget.
pub const UNCAPPED: usize = usize::MAX;

/// The longest operation latency a valid machine may declare. Scheduling
/// cost grows with the latency window (hazard scans, delay-row padding,
/// backfill corridors): LL1 on an inline machine with a 4096-cycle memory
/// latency got no answer within 20 s. The ceiling sits at twice the
/// deepest preset latency (`epic8`'s 16-cycle long FPU ops).
const MAX_LATENCY: u32 = 32;

/// A target machine, described as an issue template over functional-unit
/// classes plus an operation-latency table.
///
/// One VLIW instruction may issue at most [`width`](MachineDesc::width)
/// ordinary operations in total, at most `class_slots[c]` of class `c`,
/// and at most [`cjs`](MachineDesc::cjs) conditional jumps in its branch
/// tree. All caps use [`UNCAPPED`] (`usize::MAX`) for "unlimited", and
/// every occupancy test compares counts *against* the cap rather than
/// doing arithmetic on it, so the unlimited sentinel can never overflow.
///
/// The [`uniform`](MachineDesc::uniform) preset reproduces the paper's
/// flat `fus`-slot machine exactly: class slots uncapped, unit latencies —
/// every check degenerates to the seed `count < fus` comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MachineDesc {
    /// Preset name (shows up in reports and bench output).
    pub name: &'static str,
    /// Total ordinary-operation slots per instruction.
    pub width: usize,
    /// Conditional jumps per instruction tree.
    pub cjs: usize,
    /// Per-class slot caps, indexed by [`FuClass::index`]. Only the
    /// ordinary classes constrain issue: the jump budget is
    /// [`cjs`](MachineDesc::cjs), and the [`FuClass::Branch`] entry
    /// changes nothing but the [`fingerprint`](MachineDesc::fingerprint).
    pub class_slots: [usize; FuClass::COUNT],
    /// Issue-to-result latencies.
    pub latency: LatencyTable,
}

/// Why a [`MachineDesc`] is not a valid target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MachineError {
    /// `width == 0`: no instruction could ever issue an operation.
    ZeroWidth,
    /// A class that programs need has zero slots: sequential code of that
    /// class could never be placed, let alone scheduled.
    ZeroClassSlots(FuClass),
    /// A latency of zero cycles (results before issue).
    ZeroLatency,
    /// A latency above the 32-cycle ceiling.
    LatencyTooHigh(u32),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::ZeroWidth => write!(f, "machine width is zero"),
            MachineError::ZeroClassSlots(c) => write!(f, "class {} has zero slots", c.name()),
            MachineError::ZeroLatency => write!(f, "zero-cycle latency"),
            MachineError::LatencyTooHigh(l) => {
                write!(f, "latency of {l} cycles exceeds the ceiling of {MAX_LATENCY}")
            }
        }
    }
}

impl std::error::Error for MachineError {}

impl MachineDesc {
    /// No limits at all — pure Percolation Scheduling.
    pub const UNLIMITED: MachineDesc = MachineDesc {
        name: "unlimited",
        width: UNCAPPED,
        cjs: UNCAPPED,
        class_slots: [UNCAPPED; FuClass::COUNT],
        latency: LatencyTable::UNIT,
    };

    /// The paper's machine: `n` interchangeable single-cycle functional
    /// units, unbounded branch tree: every occupancy check is the paper's
    /// flat `count < n` comparison.
    pub const fn uniform(n: usize) -> MachineDesc {
        MachineDesc {
            name: "uniform",
            width: n,
            cjs: UNCAPPED,
            class_slots: [UNCAPPED; FuClass::COUNT],
            latency: LatencyTable::UNIT,
        }
    }

    /// A single-issue machine (`uniform(1)`): the sequential baseline every
    /// speedup is measured against.
    pub const fn scalar() -> MachineDesc {
        MachineDesc { name: "scalar", ..MachineDesc::uniform(1) }
    }

    /// A two-cluster machine: four slots per instruction but at most two
    /// per class, with pipelined 2-cycle floats and 2-cycle loads — the
    /// shape of clustered VLIW DSPs where inter-cluster bandwidth caps
    /// how many units of one kind fire together.
    pub const fn clustered() -> MachineDesc {
        MachineDesc {
            name: "clustered",
            width: 4,
            cjs: UNCAPPED,
            class_slots: [2, 2, 2, UNCAPPED],
            latency: LatencyTable { alu: 1, fpu: 2, fpu_long: 8, mem: 2, branch: 1 },
        }
    }

    /// A wide machine starved for memory bandwidth: eight slots but a
    /// single memory port with 3-cycle loads. Streaming kernels bottleneck
    /// on the port; compute-dense kernels keep their speedup.
    pub const fn mem_bound() -> MachineDesc {
        MachineDesc {
            name: "mem_bound",
            width: 8,
            cjs: UNCAPPED,
            class_slots: [8, 8, 1, UNCAPPED],
            latency: LatencyTable { alu: 1, fpu: 2, fpu_long: 8, mem: 3, branch: 1 },
        }
    }

    /// An EPIC-style 8-issue machine: 4 ALUs, 4 FP pipes, 2 memory ports,
    /// with Itanium-like latencies (4-cycle pipelined FP, 2-cycle loads,
    /// long divides).
    pub const fn epic8() -> MachineDesc {
        MachineDesc {
            name: "epic8",
            width: 8,
            cjs: UNCAPPED,
            class_slots: [4, 4, 2, UNCAPPED],
            latency: LatencyTable { alu: 1, fpu: 4, fpu_long: 16, mem: 2, branch: 1 },
        }
    }

    /// The non-trivial ready-made presets, for sweeps.
    pub fn presets() -> [MachineDesc; 6] {
        [
            MachineDesc::uniform(2),
            MachineDesc::uniform(4),
            MachineDesc::uniform(8),
            MachineDesc::clustered(),
            MachineDesc::mem_bound(),
            MachineDesc::epic8(),
        ]
    }

    /// Check the description is a machine programs can actually run on:
    /// some issue slot for every class (a zero jump budget counts as a
    /// zero-slot [`FuClass::Branch`]), and no latency above 32 cycles.
    pub fn validate(&self) -> Result<(), MachineError> {
        if self.width == 0 {
            return Err(MachineError::ZeroWidth);
        }
        for c in [FuClass::Alu, FuClass::Fpu, FuClass::Mem] {
            if self.class_slots[c.index()] == 0 {
                return Err(MachineError::ZeroClassSlots(c));
            }
        }
        if self.cjs == 0 {
            return Err(MachineError::ZeroClassSlots(FuClass::Branch));
        }
        let l = &self.latency;
        if l.alu == 0 || l.fpu == 0 || l.fpu_long == 0 || l.mem == 0 || l.branch == 0 {
            return Err(MachineError::ZeroLatency);
        }
        if l.max() > MAX_LATENCY {
            return Err(MachineError::LatencyTooHigh(l.max()));
        }
        Ok(())
    }

    /// True when neither the width nor any class slot constrains issue.
    pub fn is_unbounded(&self) -> bool {
        self.width == UNCAPPED && self.class_slots.iter().all(|&s| s == UNCAPPED)
    }

    /// True when some class has a tighter cap than the total width — the
    /// heterogeneous case the flat model cannot express.
    pub fn has_class_caps(&self) -> bool {
        FuClass::ALL[..3].iter().any(|c| self.class_slots[c.index()] < self.width)
    }

    /// Latency of `kind` on this machine.
    #[inline]
    pub fn latency_of(&self, kind: OpKind) -> u32 {
        self.latency.of(kind)
    }

    /// Stable content fingerprint of the machine: a 64-bit FNV-1a hash of
    /// every field that influences scheduling (width, jump budget, class
    /// slots, latency table) — the **name is deliberately excluded**, so an
    /// inline description with a preset's parameters addresses the same
    /// cached schedules as the preset itself. The hash is a pure function
    /// of the field values (no pointers, no platform-dependent layout), so
    /// it is stable across runs, processes, and machines — fit for
    /// content-addressed cache keys and shard routing.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(self.width as u64);
        h.word(self.cjs as u64);
        for &s in &self.class_slots {
            h.word(s as u64);
        }
        let l = &self.latency;
        for v in [l.alu, l.fpu, l.fpu_long, l.mem, l.branch] {
            h.word(u64::from(v));
        }
        h.finish()
    }

    /// The deepest latency — how far back the scheduler's hazard scan and
    /// the simulator's scoreboard have to look.
    #[inline]
    pub fn max_latency(&self) -> u32 {
        self.latency.max()
    }

    /// Ordinary operations of class `c` currently placed in `node`.
    pub fn class_count(g: &Graph, node: NodeId, c: FuClass) -> usize {
        g.node_ops(node)
            .iter()
            .filter(|&&(_, o)| {
                let k = g.op(o).kind;
                !k.is_cj() && FuClass::of(k) == c
            })
            .count()
    }

    /// Would one more ordinary operation of `kind` fit in `node`?
    pub fn room_for_kind(&self, g: &Graph, node: NodeId, kind: OpKind) -> bool {
        if kind.is_cj() {
            return g.node_cj_count(node) < self.cjs;
        }
        if g.node_op_count(node) >= self.width {
            return false;
        }
        let c = FuClass::of(kind);
        let cap = self.class_slots[c.index()];
        // Uniform fast path: uncapped classes need no per-class count.
        cap == UNCAPPED || MachineDesc::class_count(g, node, c) < cap
    }

    /// True when `node` can still accept `op` (the reservation check).
    pub fn has_room(&self, g: &Graph, node: NodeId, op: OpId) -> bool {
        self.room_for_kind(g, node, g.op(op).kind)
    }

    /// True when no ordinary operation of *any* class fits anymore.
    pub fn ops_full(&self, g: &Graph, node: NodeId) -> bool {
        if g.node_op_count(node) >= self.width {
            return true;
        }
        if !self.has_class_caps() {
            return false;
        }
        FuClass::ALL[..3]
            .iter()
            .all(|&c| MachineDesc::class_count(g, node, c) >= self.class_slots[c.index()])
    }

    /// True when nothing further fits at all (ordinary ops and jumps).
    pub fn exhausted(&self, g: &Graph, node: NodeId) -> bool {
        self.ops_full(g, node) && g.node_cj_count(node) >= self.cjs
    }

    /// Free total-width slots in `node` (0 when the width is saturated;
    /// saturating, so an [`UNCAPPED`] width never overflows).
    pub fn free_slots(&self, g: &Graph, node: NodeId) -> usize {
        self.width.saturating_sub(g.node_op_count(node))
    }

    /// Would `node` still fit its issue template after one of its
    /// operations of `kind` is swapped for a register copy?
    ///
    /// A renaming move leaves a compensation copy — an ALU-class op — in
    /// the row the renamed operation departs. On a flat machine the swap
    /// is width-neutral, but with per-class slot caps it converts a `kind`
    /// slot into an ALU slot, so schedulers must refuse renaming moves
    /// whose swap would overflow the ALU budget (GRiP and the
    /// Unifiable-ops baseline both consult this before renaming).
    pub fn copy_swap_fits(&self, g: &Graph, node: NodeId, kind: OpKind) -> bool {
        if !self.has_class_caps() {
            return true;
        }
        let copy_class = FuClass::of(OpKind::Copy);
        if FuClass::of(kind) == copy_class {
            return true;
        }
        MachineDesc::class_count(g, node, copy_class) < self.class_slots[copy_class.index()]
    }

    /// Does the whole instruction at `node` fit the issue template?
    /// (Static check over the full tree, used by POST's breaking phase and
    /// the simulator's template validation.)
    pub fn fits(&self, g: &Graph, node: NodeId) -> bool {
        if g.node_op_count(node) > self.width || g.node_cj_count(node) > self.cjs {
            return false;
        }
        if !self.has_class_caps() {
            return true;
        }
        let mut counts = [0usize; FuClass::COUNT];
        for &(_, o) in g.node_ops(node) {
            let k = g.op(o).kind;
            if !k.is_cj() {
                counts[FuClass::of(k).index()] += 1;
            }
        }
        FuClass::ALL[..3].iter().all(|&c| counts[c.index()] <= self.class_slots[c.index()])
    }
}

impl fmt::Display for MachineDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        if self.width == UNCAPPED {
            write!(f, "width=inf")?;
        } else {
            write!(f, "width={}", self.width)?;
        }
        if self.has_class_caps() {
            for c in &FuClass::ALL[..3] {
                let s = self.class_slots[c.index()];
                if s != UNCAPPED {
                    write!(f, ", {}={s}", c.name())?;
                }
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_caps_latencies() {
        for d in MachineDesc::presets() {
            assert_eq!(d.validate(), Ok(()), "{}", d.name);
        }
        let mut d = MachineDesc::epic8();
        d.latency.mem = MAX_LATENCY;
        assert_eq!(d.validate(), Ok(()));
        d.latency.mem = 4096;
        assert_eq!(d.validate(), Err(MachineError::LatencyTooHigh(4096)));
        d.latency.mem = 0;
        assert_eq!(d.validate(), Err(MachineError::ZeroLatency));
    }

    #[test]
    fn fingerprint_is_content_addressed() {
        // Same parameters under a different name hash identically.
        let mut renamed = MachineDesc::epic8();
        renamed.name = "custom";
        assert_eq!(renamed.fingerprint(), MachineDesc::epic8().fingerprint());
        // Every preset is distinct from every other.
        let fps: Vec<u64> = MachineDesc::presets().iter().map(|d| d.fingerprint()).collect();
        for (i, a) in fps.iter().enumerate() {
            for b in &fps[i + 1..] {
                assert_ne!(a, b, "preset fingerprints must differ");
            }
        }
        // Any field change moves the hash.
        let base = MachineDesc::clustered();
        let mut v = base;
        v.latency.mem = 5;
        assert_ne!(v.fingerprint(), base.fingerprint());
        let mut w = base;
        w.class_slots[0] = 3;
        assert_ne!(w.fingerprint(), base.fingerprint());
        // Stable across calls (pure function of the fields).
        assert_eq!(base.fingerprint(), MachineDesc::clustered().fingerprint());
    }
}
