//! # grip-audit — independent static verification of schedules
//!
//! Every other correctness signal in the workspace is *dynamic*: the VM
//! executes a schedule and reports stalls, template violations, and a
//! final-state digest. This crate is the second, independent proof path:
//! a static verifier that takes a **scheduled** graph, the **original
//! kernel's** data-dependence graph, and the [`MachineDesc`] it was
//! scheduled for, and proves by dataflow analysis — never by execution —
//! that the schedule is legal:
//!
//! * **GA001 dependence inversion** — every memory dependence of the
//!   source graph (flow, anti, output) maps to a legal ordering in the
//!   schedule, across unwound iterations, the loop back edge, and exit
//!   fix-up chains; register flow dependences are checked wherever their
//!   producer/consumer instances survive renaming (`checks::deps`).
//! * **GA002 latency shadow** — a countdown dataflow over the scheduled
//!   rows, derived from [`MachineDesc::latency_of`] alone, proving no row
//!   reads a register while a producer's latency is still outstanding.
//!   This is the static twin of the hazard pass's `scan_hazards`, sharing
//!   none of its bookkeeping.
//! * **GA003 resource overflow** — per-row width, conditional-jump count,
//!   and per-FU-class slot caps re-checked from the machine description.
//! * **GA004 value integrity** — no register is read along any path
//!   before a definition, and no row writes one register twice on a
//!   single leaf path (liveness-style bitset dataflow reusing
//!   `grip-analysis`).
//!
//! Failures come back as structured [`Diagnostic`]s with stable codes and
//! row locations — not booleans — and the whole [`AuditReport`] has a
//! JSON exposition via `grip-json` so it can ride the service protocol.
//!
//! The crate deliberately depends only on `grip-ir`, `grip-machine`,
//! `grip-analysis`, and `grip-json`: it shares no code (and therefore no
//! failure modes) with the scheduler, the hazard pass, or the VM.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use grip_analysis::Ddg;
use grip_ir::{Graph, NodeId, OpId, RegId, TreePath};
use grip_machine::MachineDesc;
use std::collections::HashMap;

mod checks;
mod report;

pub use report::{AuditCode, AuditReport, Diagnostic};

/// Shared pre-computed view of the scheduled graph: the stable row order,
/// per-row placements and leaves, and the predecessor relation restricted
/// to reachable rows. Built once, read by every check.
pub(crate) struct Ctx<'a> {
    pub g: &'a Graph,
    pub desc: &'a MachineDesc,
    /// Reachable nodes in the graph's stable breadth-first order.
    pub nodes: Vec<NodeId>,
    /// Node → row index in `nodes`.
    pub row: HashMap<NodeId, usize>,
    /// Per row: `(position, op)` placements, conditional jumps included.
    pub placed: Vec<Vec<(TreePath, OpId)>>,
    /// Per row: `(leaf position, successor)` pairs.
    pub leaves: Vec<Vec<(TreePath, Option<NodeId>)>>,
    /// Predecessors, restricted to reachable rows on both sides.
    pub preds: HashMap<NodeId, Vec<NodeId>>,
}

impl<'a> Ctx<'a> {
    fn new(g: &'a Graph, desc: &'a MachineDesc) -> Ctx<'a> {
        let nodes = g.reachable();
        let row: HashMap<NodeId, usize> = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let placed = nodes.iter().map(|&n| g.node_ops(n).to_vec()).collect();
        let leaves = nodes.iter().map(|&n| g.node(n).tree.leaves()).collect();
        let mut preds: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for &n in &nodes {
            let mut list: Vec<NodeId> =
                g.preds(n).iter().copied().filter(|p| row.contains_key(p)).collect();
            if !list.is_empty() {
                // Row order gives a deterministic fixpoint visit order (and
                // therefore deterministic diagnostics).
                list.sort_by_key(|p| row[p]);
                preds.insert(n, list);
            }
        }
        Ctx { g, desc, nodes, row, placed, leaves, preds }
    }

    /// Display label for an op instance (debug name or mnemonic).
    pub fn label(&self, op: OpId) -> String {
        self.g.op(op).label().to_string()
    }

    /// Display form of a register.
    pub fn reg(&self, r: RegId) -> String {
        r.to_string()
    }
}

/// Statically audit a scheduled graph against the dependence graph of the
/// kernel it was derived from and the machine it was scheduled for.
///
/// `ddg` must be the DDG built from the *prepared* (unwound, folded)
/// window **before** scheduling — the same graph `schedule_window`
/// consumed; its op ids are the `orig` ancestors of every scheduled
/// instance. The audit never executes anything: all four checks are
/// dataflow analyses over the scheduled rows.
pub fn audit_schedule(g: &Graph, ddg: &Ddg, desc: &MachineDesc) -> AuditReport {
    let ctx = Ctx::new(g, desc);
    let mut rep = AuditReport {
        rows: ctx.nodes.len(),
        ops: ctx.placed.iter().map(Vec::len).sum(),
        ..AuditReport::default()
    };
    let (mem_deps, reg_deps) = checks::deps::check(&ctx, ddg, &mut rep.diagnostics);
    rep.mem_deps = mem_deps;
    rep.reg_deps = reg_deps;
    checks::latency::check(&ctx, &mut rep.diagnostics);
    checks::resources::check(&ctx, &mut rep.diagnostics);
    checks::values::check(&ctx, &mut rep.diagnostics);
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use grip_ir::{OpKind, Operand, ProgramBuilder, TreePath};

    /// `x = 2.0; y = x*x; A[k] = y; z = A[k]; w = z + y`, one op per row —
    /// a sequential graph whose DDG carries register flow deps and a
    /// store→load memory flow dep.
    fn straight_line() -> (Graph, Vec<NodeId>) {
        let mut b = ProgramBuilder::new();
        let arr = b.array("A", 8);
        let k = b.named_reg("k");
        b.const_i(k, 0);
        let x = b.named_reg("x");
        b.const_f(x, 2.0);
        let y = b.binary("y", OpKind::Mul, Operand::Reg(x), Operand::Reg(x));
        b.store(arr, Operand::Reg(k), 0, Operand::Reg(y));
        let z = b.load("z", arr, Operand::Reg(k), 0);
        let w = b.binary("w", OpKind::Add, Operand::Reg(z), Operand::Reg(y));
        b.live_out(w);
        let g = b.finish();
        let nodes = g.reachable();
        (g, nodes)
    }

    fn move_op(g: &mut Graph, from: NodeId, to: NodeId) {
        let (_, op) = g.node_ops(from)[0];
        g.remove_op_from(from, op);
        g.insert_op_at(to, TreePath::ROOT, op);
    }

    #[test]
    fn sequential_program_is_clean() {
        let (g, _) = straight_line();
        let ddg = Ddg::build(&g, g.entry);
        let rep = audit_schedule(&g, &ddg, &MachineDesc::uniform(4));
        assert!(rep.is_clean(), "unexpected findings:\n{rep}");
        assert!(rep.mem_deps >= 1, "store→load flow dep should be checked");
        assert!(rep.reg_deps >= 3);
        assert_eq!(rep.rows, 7);
    }

    #[test]
    fn consumer_above_producer_is_value_integrity() {
        let (mut g, nodes) = straight_line();
        let ddg = Ddg::build(&g, g.entry);
        // Move `w = z + y` (row 6) up into the row of `x = 2.0` (row 2):
        // both of its sources are now read before any definition.
        move_op(&mut g, nodes[6], nodes[2]);
        let rep = audit_schedule(&g, &ddg, &MachineDesc::uniform(4));
        assert!(rep.count(AuditCode::ValueIntegrity) >= 1, "got:\n{rep}");
    }

    #[test]
    fn load_hoisted_above_store_is_dependence_inversion() {
        let (mut g, nodes) = straight_line();
        let ddg = Ddg::build(&g, g.entry);
        // Move `z = A[k]` (row 5) above the store (row 4), into row 3.
        move_op(&mut g, nodes[5], nodes[3]);
        let rep = audit_schedule(&g, &ddg, &MachineDesc::uniform(4));
        assert!(rep.count(AuditCode::DependenceInversion) >= 1, "got:\n{rep}");
    }

    #[test]
    fn store_and_load_collapsed_into_one_row_is_flagged() {
        let (mut g, nodes) = straight_line();
        let ddg = Ddg::build(&g, g.entry);
        // Put the load into the store's own row: the load fetches at row
        // entry and misses the store's write.
        move_op(&mut g, nodes[5], nodes[4]);
        let rep = audit_schedule(&g, &ddg, &MachineDesc::uniform(4));
        assert!(rep.count(AuditCode::DependenceInversion) >= 1, "got:\n{rep}");
    }

    #[test]
    fn overfull_row_is_resource_overflow() {
        let (mut g, nodes) = straight_line();
        let ddg = Ddg::build(&g, g.entry);
        // Two ops in one row on a width-1 machine.
        move_op(&mut g, nodes[3], nodes[2]);
        let rep = audit_schedule(&g, &ddg, &MachineDesc::uniform(1));
        assert!(rep.count(AuditCode::ResourceOverflow) >= 1, "got:\n{rep}");
    }

    #[test]
    fn latency_shadow_on_a_multi_cycle_machine() {
        // The sequential program places `w = z + y` in the row right after
        // the load of `z`; on mem_bound (multi-cycle loads) that row sits
        // inside the load's latency shadow.
        let (g, _) = straight_line();
        let ddg = Ddg::build(&g, g.entry);
        let rep = audit_schedule(&g, &ddg, &MachineDesc::mem_bound());
        assert!(rep.count(AuditCode::LatencyShadow) >= 1, "got:\n{rep}");
        // The same schedule on a unit-latency machine has no shadows.
        let rep = audit_schedule(&g, &ddg, &MachineDesc::uniform(4));
        assert_eq!(rep.count(AuditCode::LatencyShadow), 0);
    }

    #[test]
    fn duplicated_def_in_one_row_is_value_integrity() {
        let (mut g, nodes) = straight_line();
        let ddg = Ddg::build(&g, g.entry);
        // Clone the mul and insert the twin into the same row: two writes
        // of `y` on one path.
        let (_, y_op) = g.node_ops(nodes[3])[0];
        let twin = g.dup_op(y_op);
        g.insert_op_at(nodes[3], TreePath::ROOT, twin);
        let rep = audit_schedule(&g, &ddg, &MachineDesc::uniform(4));
        assert!(rep.count(AuditCode::ValueIntegrity) >= 1, "got:\n{rep}");
    }
}
