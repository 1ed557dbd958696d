//! # grip-bounds — static optimality-bound prover
//!
//! Proves lower bounds on schedule length by pure dataflow/graph analysis —
//! never execution. Three analyses compose into one [`BoundCertificate`]:
//!
//! * **ResMII** — the class-aware resource bound: per-FU-class op counts
//!   against the machine's slot caps, total width, and conditional-jump
//!   tree budget. Pigeonhole: every row must respect the issue template,
//!   so `ceil(count / cap)` rows are unavoidable.
//! * **RecMII** — the recurrence bound: a register read upward-exposed in
//!   the steady window consumes the *previous* traversal's value, so the
//!   traversal period must cover the latency-weighted dependence path
//!   from that read down to the defining op, plus the definition's own
//!   latency (the back-edge leg of the dependence cycle).
//! * **Critical path** — the whole-window longest latency-weighted
//!   dependence path; no schedule can finish a traversal before its
//!   slowest chain resolves.
//!
//! The certificate is computed on the **final** steady rows (after DCE,
//! renaming, and hazard resolution), not the prepared window: dead ops
//! would overcount resources, and renaming invalidates build-time register
//! edges — so register dependences are re-derived syntactically with the
//! same last-definition scan the auditor uses, while memory dependences
//! are consulted through [`Ddg`] `orig` ids, which survive duplication.
//!
//! Division of labor with `grip-audit`: the auditor proves a schedule is
//! *correct* (dependences, latencies, templates, value integrity); this
//! crate proves how *good* a correct schedule can possibly get, and
//! certifies the gap between achieved and provable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use grip_analysis::{BitSet, Ddg};
use grip_ir::{Graph, NodeId, OpId, RegId};
use grip_json::Json;
use grip_machine::{FuClass, MachineDesc, UNCAPPED};
use std::collections::HashMap;

/// Which analysis produced the binding (maximum) bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BindingConstraint {
    /// The loop-carried recurrence bound.
    RecMii,
    /// Total issue width: `ceil(ops / width)`.
    ResMiiWidth,
    /// Integer ALU slot cap.
    ResMiiAlu,
    /// Floating-point slot cap.
    ResMiiFpu,
    /// Memory-port slot cap.
    ResMiiMem,
    /// Conditional-jump tree budget.
    ResMiiCj,
    /// The whole-window latency-weighted critical path.
    CriticalPath,
}

impl BindingConstraint {
    /// All constraints, in wire order.
    pub const ALL: [BindingConstraint; 7] = [
        BindingConstraint::RecMii,
        BindingConstraint::ResMiiWidth,
        BindingConstraint::ResMiiAlu,
        BindingConstraint::ResMiiFpu,
        BindingConstraint::ResMiiMem,
        BindingConstraint::ResMiiCj,
        BindingConstraint::CriticalPath,
    ];

    /// The stable wire string.
    pub fn as_str(self) -> &'static str {
        match self {
            BindingConstraint::RecMii => "rec_mii",
            BindingConstraint::ResMiiWidth => "res_mii_width",
            BindingConstraint::ResMiiAlu => "res_mii_alu",
            BindingConstraint::ResMiiFpu => "res_mii_fpu",
            BindingConstraint::ResMiiMem => "res_mii_mem",
            BindingConstraint::ResMiiCj => "res_mii_cj",
            BindingConstraint::CriticalPath => "critical_path",
        }
    }

    /// Parse a wire string back into a constraint.
    pub fn parse(s: &str) -> Option<BindingConstraint> {
        BindingConstraint::ALL.into_iter().find(|c| c.as_str() == s)
    }

    /// The resource constraint for a capped FU class.
    fn of_class(c: FuClass) -> BindingConstraint {
        match c {
            FuClass::Alu => BindingConstraint::ResMiiAlu,
            FuClass::Fpu => BindingConstraint::ResMiiFpu,
            FuClass::Mem => BindingConstraint::ResMiiMem,
            FuClass::Branch => BindingConstraint::ResMiiCj,
        }
    }
}

impl std::fmt::Display for BindingConstraint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// A proven lower bound on the steady-window schedule length, with the
/// achieved-vs-provable gap.
///
/// `bound_cycles` bounds one full traversal of the steady window: any
/// valid stall-free loop schedule of this op multiset needs at least that
/// many rows (and any execution at least that many cycles per traversal).
/// The gap compares against the steady row count the scheduler achieved.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BoundCertificate {
    /// The proven lower bound, in cycles per full window traversal.
    pub bound_cycles: u64,
    /// Which analysis the maximum came from.
    pub binding_constraint: BindingConstraint,
    /// `(achieved - bound) / bound`, in percent. Zero means provably
    /// optimal; negative would mean the bound is unsound.
    pub gap_pct: f64,
    /// The achieved schedule length equals the proven bound.
    pub at_bound: bool,
}

impl BoundCertificate {
    /// JSON exposition, stable across the service wire protocol.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("bound_cycles", self.bound_cycles)
            .field("binding_constraint", self.binding_constraint.as_str())
            .field("gap_pct", self.gap_pct)
            .field("at_bound", self.at_bound)
    }

    /// Parse a certificate back from its wire form.
    pub fn from_json(j: &Json) -> Result<BoundCertificate, String> {
        let bound_cycles = j
            .get("bound_cycles")
            .and_then(Json::as_i64)
            .ok_or("bound certificate missing \"bound_cycles\"")?;
        let binding_constraint = j
            .get("binding_constraint")
            .and_then(Json::as_str)
            .and_then(BindingConstraint::parse)
            .ok_or("bound certificate missing a valid \"binding_constraint\"")?;
        let gap_pct = j
            .get("gap_pct")
            .and_then(Json::as_f64)
            .ok_or("bound certificate missing \"gap_pct\"")?;
        let at_bound = j
            .get("at_bound")
            .and_then(Json::as_bool)
            .ok_or("bound certificate missing \"at_bound\"")?;
        Ok(BoundCertificate {
            bound_cycles: bound_cycles.max(0) as u64,
            binding_constraint,
            gap_pct,
            at_bound,
        })
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "bound {} ({}), gap {:.1}%{}",
            self.bound_cycles,
            self.binding_constraint,
            self.gap_pct,
            if self.at_bound { ", at bound" } else { "" }
        )
    }
}

/// Operation counts of a window, grouped the way issue templates cap them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Ordinary (non-jump) operations.
    pub noncj: usize,
    /// Per-class counts, indexed by [`FuClass::index`].
    pub class: [usize; FuClass::COUNT],
    /// Conditional jumps.
    pub cjs: usize,
}

impl OpCounts {
    /// Tally one operation.
    pub fn add(&mut self, kind: grip_ir::OpKind) {
        if kind.is_cj() {
            self.cjs += 1;
        } else {
            self.noncj += 1;
        }
        self.class[FuClass::of(kind).index()] += 1;
    }
}

/// The pigeonhole resource bound: the minimum number of template-respecting
/// rows that can hold `counts`, and which cap binds. Every scheduler row
/// obeys the issue template, so this bounds any schedule of the op set.
pub fn res_rows_bound(counts: &OpCounts, desc: &MachineDesc) -> (u64, BindingConstraint) {
    let ceil = |n: usize, d: usize| n.div_ceil(d) as u64;
    // Any non-empty window needs one row; ties keep the width label.
    let mut best = (u64::from(counts.noncj + counts.cjs > 0), BindingConstraint::ResMiiWidth);
    if desc.width != UNCAPPED && ceil(counts.noncj, desc.width) > best.0 {
        best = (ceil(counts.noncj, desc.width), BindingConstraint::ResMiiWidth);
    }
    for c in FuClass::ALL[..3].iter().copied() {
        let cap = desc.class_slots[c.index()];
        if cap != UNCAPPED && cap > 0 && ceil(counts.class[c.index()], cap) > best.0 {
            best = (ceil(counts.class[c.index()], cap), BindingConstraint::of_class(c));
        }
    }
    if desc.cjs != UNCAPPED && desc.cjs > 0 && ceil(counts.cjs, desc.cjs) > best.0 {
        best = (ceil(counts.cjs, desc.cjs), BindingConstraint::ResMiiCj);
    }
    best
}

/// The three composed analyses over one steady window.
#[derive(Clone, Copy, Debug)]
pub struct BoundAnalysis {
    /// Recurrence bound (0 when the window carries no register recurrence).
    pub rec_mii: u64,
    /// Resource bound and the cap it came from.
    pub res_mii: u64,
    /// Which resource cap produced `res_mii`.
    pub res_binding: BindingConstraint,
    /// Latency-weighted whole-window critical path.
    pub critical_path: u64,
    /// How many steady operations the analyses covered.
    pub ops: usize,
}

impl BoundAnalysis {
    /// The composed bound: the maximum of the three analyses. Ties prefer
    /// the resource label, then the recurrence, then the critical path
    /// (deterministic, so certificates are stable cache content).
    pub fn bound(&self) -> (u64, BindingConstraint) {
        let mut best = (self.res_mii, self.res_binding);
        if self.rec_mii > best.0 {
            best = (self.rec_mii, BindingConstraint::RecMii);
        }
        if self.critical_path > best.0 {
            best = (self.critical_path, BindingConstraint::CriticalPath);
        }
        best
    }
}

/// One steady operation with its row, in region order.
struct SlotOp {
    op: OpId,
    row: usize,
}

/// Run all three analyses on the final steady rows of a schedule.
///
/// `steady` is the region-ordered steady row list (live nodes only);
/// `ddg` is the dependence graph built on the prepared window, consulted
/// through `orig` ids for memory dependences only — register dependences
/// are re-derived syntactically because renaming invalidates them.
pub fn analyze(g: &Graph, steady: &[NodeId], ddg: &Ddg, desc: &MachineDesc) -> BoundAnalysis {
    // Flatten the steady window into (op, row) slots in region order.
    let mut slots: Vec<SlotOp> = Vec::new();
    let mut counts = OpCounts::default();
    for (row, &n) in steady.iter().filter(|&&n| g.node_exists(n)).enumerate() {
        for &(_, op) in g.node_ops(n) {
            counts.add(g.op(op).kind);
            slots.push(SlotOp { op, row });
        }
    }
    let (res_mii, res_binding) = res_rows_bound(&counts, desc);
    if slots.is_empty() {
        return BoundAnalysis { rec_mii: 0, res_mii, res_binding, critical_path: 0, ops: 0 };
    }

    let lat = |op: OpId| u64::from(desc.latency_of(g.op(op).kind));

    // Intra-window dependence edges `pred -> slot`, weighted in cycles.
    // Register true deps via a per-row last-definition scan (VLIW entry
    // fetch: a row's defs become visible only to later rows), memory deps
    // via `orig` ancestry. Reads with no prior def are upward-exposed:
    // they consume the previous traversal's value (the RecMII seeds).
    let mut preds: Vec<Vec<(usize, u64)>> = vec![Vec::new(); slots.len()];
    let mut upward: Vec<(usize, RegId)> = Vec::new();
    let mut last_def: HashMap<RegId, usize> = HashMap::new();
    let mut row_start = 0;
    while row_start < slots.len() {
        let row = slots[row_start].row;
        let row_end = slots[row_start..]
            .iter()
            .position(|s| s.row != row)
            .map_or(slots.len(), |i| row_start + i);
        for i in row_start..row_end {
            for r in g.op(slots[i].op).reads() {
                match last_def.get(&r) {
                    Some(&d) => preds[i].push((d, lat(slots[d].op))),
                    None => upward.push((i, r)),
                }
            }
        }
        for (i, s) in slots.iter().enumerate().take(row_end).skip(row_start) {
            if let Some(d) = g.op(s.op).dest {
                last_def.insert(d, i);
            }
        }
        row_start = row_end;
    }
    // Memory dependences: `orig` pairs from the prepared window's DDG.
    // A store must resolve a row before its dependent access (weight 1);
    // a load-first (anti) pair may legally co-reside (weight 0).
    let mem_slots: Vec<usize> =
        (0..slots.len()).filter(|&i| g.op(slots[i].op).kind.is_mem()).collect();
    for (ai, &a) in mem_slots.iter().enumerate() {
        for &b in &mem_slots[ai + 1..] {
            let (oa, ob) = (g.op(slots[a].op).orig, g.op(slots[b].op).orig);
            if ddg.mem_dep(oa, ob) {
                preds[b].push((a, u64::from(g.op(slots[a].op).kind.is_store())));
            } else if ddg.mem_dep(ob, oa) {
                preds[a].push((b, u64::from(g.op(slots[b].op).kind.is_store())));
            }
        }
    }
    // Drop edges that run against slot order: in a clean schedule every
    // dependence goes forward, and the DP below walks slots in order.
    for (i, ps) in preds.iter_mut().enumerate() {
        ps.retain(|&(p, _)| p < i);
    }

    // Whole-window critical path: longest latency-weighted path, plus the
    // final op's own issue row.
    let mut earliest = vec![0u64; slots.len()];
    for i in 0..slots.len() {
        for &(p, w) in &preds[i] {
            earliest[i] = earliest[i].max(earliest[p] + w);
        }
    }
    let critical_path = earliest.iter().max().copied().unwrap_or(0) + 1;

    // RecMII: an upward-exposed read of `r` at slot `b` consumes the value
    // the *last* definition of `r` produced in the previous traversal, so
    // the traversal period covers the longest path b -> def plus the
    // definition's own latency. Only dataflow-connected pairs prove a
    // cycle; unconnected ones constrain no period.
    let mut rec_mii = 0u64;
    let mut reach = BitSet::new(slots.len());
    let mut from_b = vec![0u64; slots.len()];
    for &(b, r) in &upward {
        let Some(&a) = last_def.get(&r) else { continue };
        reach.clear();
        reach.insert(b);
        from_b[b] = 0;
        for i in (b + 1)..slots.len() {
            from_b[i] = 0;
            let mut seen = false;
            for &(p, w) in &preds[i] {
                if reach.contains(p) {
                    seen = true;
                    from_b[i] = from_b[i].max(from_b[p] + w);
                }
            }
            if seen {
                reach.insert(i);
            }
        }
        if a > b && reach.contains(a) {
            rec_mii = rec_mii.max(from_b[a] + lat(slots[a].op));
        }
    }

    BoundAnalysis { rec_mii, res_mii, res_binding, critical_path, ops: slots.len() }
}

/// Compose the analyses into a certificate, gapped against the achieved
/// steady row count.
pub fn certificate(
    g: &Graph,
    steady: &[NodeId],
    ddg: &Ddg,
    desc: &MachineDesc,
) -> BoundCertificate {
    let analysis = analyze(g, steady, ddg, desc);
    let (bound_cycles, binding_constraint) = analysis.bound();
    let achieved = steady.iter().filter(|&&n| g.node_exists(n)).count() as u64;
    let gap_pct = if bound_cycles > 0 {
        (achieved as f64 - bound_cycles as f64) / bound_cycles as f64 * 100.0
    } else {
        0.0
    };
    BoundCertificate {
        bound_cycles,
        binding_constraint,
        gap_pct,
        at_bound: achieved == bound_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraint_wire_strings_round_trip() {
        for c in BindingConstraint::ALL {
            assert_eq!(BindingConstraint::parse(c.as_str()), Some(c));
        }
        assert_eq!(BindingConstraint::parse("nonsense"), None);
    }

    #[test]
    fn certificate_json_round_trips() {
        for c in BindingConstraint::ALL {
            let cert = BoundCertificate {
                bound_cycles: 17,
                binding_constraint: c,
                gap_pct: 12.5,
                at_bound: false,
            };
            let back =
                BoundCertificate::from_json(&Json::parse(&cert.to_json().line()).unwrap()).unwrap();
            assert_eq!(cert, back);
        }
    }

    #[test]
    fn malformed_certificates_are_rejected() {
        for bad in [
            r#"{"binding_constraint":"rec_mii","gap_pct":0.0,"at_bound":true}"#,
            r#"{"bound_cycles":3,"binding_constraint":"nope","gap_pct":0.0,"at_bound":true}"#,
            r#"{"bound_cycles":3,"binding_constraint":"rec_mii","at_bound":true}"#,
            r#"{"bound_cycles":3,"binding_constraint":"rec_mii","gap_pct":0.0}"#,
        ] {
            assert!(BoundCertificate::from_json(&Json::parse(bad).unwrap()).is_err(), "{bad}");
        }
    }

    #[test]
    fn resource_bound_pigeonholes_each_cap() {
        let mut class = [0usize; FuClass::COUNT];
        class[FuClass::Alu.index()] = 6;
        class[FuClass::Fpu.index()] = 4;
        class[FuClass::Mem.index()] = 6;
        let counts = OpCounts { noncj: 16, class, cjs: 1 };
        // clustered: width 4, caps [2,2,2] -> width needs 4 rows, ALU and
        // MEM each need 3; width binds.
        let (b, c) = res_rows_bound(&counts, &grip_machine::MachineDesc::clustered());
        assert_eq!((b, c), (4, BindingConstraint::ResMiiWidth));
        // mem_bound: width 8, single memory port -> MEM needs 6 rows.
        let (b, c) = res_rows_bound(&counts, &grip_machine::MachineDesc::mem_bound());
        assert_eq!((b, c), (6, BindingConstraint::ResMiiMem));
        // uniform(8): only the width caps issue.
        let (b, c) = res_rows_bound(&counts, &grip_machine::MachineDesc::uniform(8));
        assert_eq!((b, c), (2, BindingConstraint::ResMiiWidth));
        // Unlimited machine: any non-empty window still needs one row.
        let (b, _) = res_rows_bound(&counts, &grip_machine::MachineDesc::UNLIMITED);
        assert_eq!(b, 1);
        let (b, _) = res_rows_bound(&OpCounts::default(), &grip_machine::MachineDesc::uniform(4));
        assert_eq!(b, 0);
    }
}
