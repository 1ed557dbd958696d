//! Steady-state pattern detection over a scheduled window.
//!
//! "Imagine the loop unwound an infinite number of times. The pattern in
//! the middle continuously repeats … we can exploit this fact by making
//! this repeated pattern the new loop body" (§2). After GRiP scheduling
//! with gap prevention, the window's steady rows repeat with a fixed
//! iteration shift; the pattern's `rows / iterations` ratio is the
//! pipelined loop's cycles-per-iteration.

use crate::unwind::Window;
use grip_ir::{Graph, NodeId, OpId, OpKind};
use grip_machine::{FuClass, MachineDesc, UNCAPPED};

/// A detected repeating pattern.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pattern {
    /// Index (into the steady-row list) where the pattern starts.
    pub start: usize,
    /// Rows per period.
    pub period_rows: usize,
    /// Iterations retired per period.
    pub period_iters: u32,
    /// Steady-state cycles per source iteration.
    pub cpi: f64,
}

/// The rows that execute on every traversal of the (possibly rescheduled)
/// window: nodes that can still reach the back edge to `window.head`,
/// in region order.
pub fn steady_rows(g: &Graph, region: &[NodeId], head: NodeId) -> Vec<NodeId> {
    let live: Vec<NodeId> = region.iter().copied().filter(|&n| g.node_exists(n)).collect();
    let pos: std::collections::HashMap<NodeId, usize> =
        live.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    // Carrier nodes: hold an edge back to the window head.
    let carriers: Vec<NodeId> =
        live.iter().copied().filter(|&n| g.successors(n).contains(&head)).collect();
    if carriers.is_empty() {
        return live;
    }
    // Nodes that reach a carrier via forward region edges.
    let mut steady: std::collections::HashSet<NodeId> = carriers.iter().copied().collect();
    // Iterate backwards over region order until fixpoint (forward edges
    // only, so one reverse pass suffices).
    for &n in live.iter().rev() {
        if steady.contains(&n) {
            continue;
        }
        let np = pos[&n];
        let reaches = g
            .unique_successors(n)
            .iter()
            .any(|&s| pos.get(&s).is_some_and(|&sp| sp > np) && steady.contains(&s));
        if reaches {
            steady.insert(n);
        }
    }
    live.into_iter().filter(|n| steady.contains(n)).collect()
}

/// One row's shape: the multiset of `(body op, iteration, kind tag)` of its
/// operations, sorted for comparison. The kind tag distinguishes an op from
/// a compensation copy that inherited its ancestry.
fn signature(g: &Graph, w: &Window, n: NodeId) -> Option<Vec<(OpId, u32, bool)>> {
    let mut sig = Vec::new();
    for &(_, op) in g.node_ops(n) {
        let body = w.body_op(g, op)?;
        let o = g.op(op);
        let is_copy_artifact = o.kind == OpKind::Copy && g.op(body).kind != OpKind::Copy;
        sig.push((body, o.iter, is_copy_artifact));
    }
    sig.sort_unstable();
    Some(sig)
}

/// Do `a` and `b` have the same shape with every iteration advanced by
/// `shift`?
fn shifted_eq(a: &[(OpId, u32, bool)], b: &[(OpId, u32, bool)], shift: u32) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(&(ob, oi, oc), &(nb, ni, nc))| ob == nb && oc == nc && ni == oi + shift)
}

/// Find the smallest repeating pattern among `rows` (steady rows in order).
///
/// Searches periods `p` ascending and starts `s` ascending for a shift
/// `Δ ≥ 1` with `sig(rows[s+p+j]) = sig(rows[s+j]) + Δ` for all `j < p`.
pub fn detect(g: &Graph, w: &Window, rows: &[NodeId]) -> Option<Pattern> {
    let sigs: Vec<Option<Vec<(OpId, u32, bool)>>> =
        rows.iter().map(|&n| signature(g, w, n)).collect();
    let len = rows.len();
    for p in 1..=len / 2 {
        for s in 0..=len.saturating_sub(2 * p) {
            // Determine Δ from the first row pair.
            let (Some(a), Some(b)) = (&sigs[s], &sigs[s + p]) else { continue };
            if a.is_empty() || b.is_empty() || a.len() != b.len() {
                continue;
            }
            let shift = match b[0].1.checked_sub(a[0].1) {
                Some(d) if d >= 1 => d,
                _ => continue,
            };
            let ok = (0..p).all(|j| match (&sigs[s + j], &sigs[s + p + j]) {
                (Some(x), Some(y)) => shifted_eq(x, y, shift),
                _ => false,
            });
            if ok {
                return Some(Pattern {
                    start: s,
                    period_rows: p,
                    period_iters: shift,
                    cpi: p as f64 / shift as f64,
                });
            }
        }
    }
    None
}

/// Fallback steady-state estimate when no exact pattern exists (the packing
/// of a non-integral `ops-per-iteration / width` ratio wobbles around its
/// mean): the slope of "first row touched by iteration i" over the middle
/// iterations, in rows per iteration.
///
/// For a converged pattern the slope equals the pattern CPI exactly; for a
/// quasi-periodic schedule it is the observed throughput of the window's
/// steady section.
pub fn estimate_cpi(g: &Graph, w: &Window, rows: &[NodeId]) -> Option<f64> {
    let u = w.iterations;
    if u < 4 {
        return None;
    }
    // Midpoint of each iteration's row span: robust against a single op
    // sneaking far ahead of (or trailing behind) its iteration.
    let mut first_row: Vec<Option<usize>> = vec![None; u as usize];
    let mut last_row: Vec<Option<usize>> = vec![None; u as usize];
    for (ri, &n) in rows.iter().enumerate() {
        for &(_, op) in g.node_ops(n) {
            let it = g.op(op).iter as usize;
            if it < first_row.len() {
                if first_row[it].is_none() {
                    first_row[it] = Some(ri);
                }
                last_row[it] = Some(ri);
            }
        }
    }
    // Skip the fill (first quarter) and drain (last quarter), then fit a
    // least-squares line through (iteration, span midpoint) — averaging out
    // the integer quantization of row indices.
    let lo = (u as usize) / 4;
    let hi = (u as usize - 1) - (u as usize) / 4;
    if hi <= lo {
        return None;
    }
    let pts: Vec<(f64, f64)> = (lo..=hi)
        .filter_map(|i| match (first_row[i], last_row[i]) {
            (Some(a), Some(b)) => Some((i as f64, (a + b) as f64 / 2.0)),
            _ => None,
        })
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let m = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = m * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let slope = (m * sxy - sx * sy) / denom;
    (slope > 0.0).then_some(slope)
}

/// Physical lower bound on steady-state CPI: the functional-unit ops of a
/// middle iteration that survived into the steady rows cannot issue in
/// fewer than `ops/width` instructions — and, per class, in fewer than
/// `class ops / class slots` (a single memory port bounds a streaming
/// loop no matter how wide the machine is). Slope estimates below this
/// bound measured the window's fill region, not its throughput.
pub fn fu_lower_bound(g: &Graph, w: &Window, rows: &[NodeId], desc: &MachineDesc) -> Option<f64> {
    if desc.width == 0 || desc.is_unbounded() || w.iterations < 3 {
        return None;
    }
    let mid = w.iterations / 2;
    let mut ops = 0usize;
    let mut by_class = [0usize; FuClass::COUNT];
    for &n in rows {
        for &(_, op) in g.node_ops(n) {
            let o = g.op(op);
            if o.iter == mid && !o.kind.is_cj() {
                ops += 1;
                by_class[FuClass::of(o.kind).index()] += 1;
            }
        }
    }
    if ops == 0 {
        return None;
    }
    let mut bound: f64 = 0.0;
    if desc.width != UNCAPPED {
        bound = ops as f64 / desc.width as f64;
    }
    for c in &FuClass::ALL[..3] {
        let slots = desc.class_slots[c.index()];
        if slots != UNCAPPED && slots > 0 {
            bound = bound.max(by_class[c.index()] as f64 / slots as f64);
        }
    }
    (bound > 0.0).then_some(bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplify::simplify_inductions;
    use crate::unwind::unwind;
    use grip_analysis::{Ddg, RankTable};
    use grip_core::{schedule_region, GripConfig};
    use grip_ir::{OpKind, Operand, ProgramBuilder, Value};
    use grip_percolate::Ctx;

    /// The paper's Figure 5/6 loop: a -> b -> c with a loop-carried
    /// dependence of a on itself (plus the loop control the paper leaves
    /// implicit; c's result is stored so the chain stays live).
    fn abc_loop(n: i64) -> grip_ir::Graph {
        let mut b = ProgramBuilder::new();
        let y = b.array("y", (n + 8) as usize);
        let acc = b.named_reg("acc");
        b.const_f(acc, 1.0);
        let k = b.named_reg("k");
        b.const_i(k, 0);
        b.begin_loop();
        // a: acc = acc * 1.0001 (self LCD)
        b.emit(grip_ir::Operation::new(
            OpKind::Mul,
            Some(acc),
            vec![Operand::Reg(acc), Operand::Imm(Value::F(1.0001))],
        ));
        // b: t = acc + 2.0 ; c: y[k] = t * 3.0
        let t = b.binary("b", OpKind::Add, Operand::Reg(acc), Operand::Imm(Value::F(2.0)));
        let u = b.binary("c", OpKind::Mul, Operand::Reg(t), Operand::Imm(Value::F(3.0)));
        b.store(y, Operand::Reg(k), 0, Operand::Reg(u));
        b.iadd_imm(k, k, 1);
        let c = b.binary("cc", OpKind::CmpLt, Operand::Reg(k), Operand::Imm(Value::I(n)));
        b.end_loop(c);
        let mut g = b.finish();
        g.live_out = vec![acc, k];
        g
    }

    #[test]
    fn perfect_pipelining_converges_on_abc_loop() {
        // Unlimited resources + unfolded inductions: the classic slope-1
        // diagonal (every chain rises one row per iteration via its LCD).
        let mut g = abc_loop(64);
        let w = unwind(&mut g, 6);
        let ddg = Ddg::build(&g, g.entry);
        let mut ctx = Ctx::new(&g, &ddg);
        let ranks = RankTable::new(&ddg, true);
        let cfg = GripConfig {
            machine: MachineDesc::UNLIMITED,
            gap_prevention: true,
            dce: true,
            speculation: Default::default(),
            trace: false,
        };
        let out = schedule_region(&mut g, &mut ctx, &ranks, cfg, w.rows.clone());
        g.validate().unwrap();
        let rows = steady_rows(&g, &out.region, w.head);
        let pat = detect(&g, &w, &rows).expect("gap prevention must converge");
        // One iteration per pattern period; the self-LCD serializes `a`,
        // so the steady state retires one iteration per row.
        assert_eq!(pat.period_rows as u32, pat.period_iters, "slope-1 pattern");
        assert!(pat.cpi <= 1.01, "unlimited resources: 1 cycle/iter, got {}", pat.cpi);
    }

    #[test]
    fn no_gap_prevention_means_no_convergence_under_unlimited_resources() {
        // Without gap prevention, unconstrained motion spreads iterations
        // apart (Figure 9): the steady rows need not repeat.
        let mut g = abc_loop(64);
        let w = unwind(&mut g, 6);
        simplify_inductions(&mut g, &w.rows);
        let ddg = Ddg::build(&g, g.entry);
        let mut ctx = Ctx::new(&g, &ddg);
        let ranks = RankTable::new(&ddg, true);
        let cfg = GripConfig {
            machine: MachineDesc::UNLIMITED,
            gap_prevention: false,
            dce: true,
            speculation: Default::default(),
            trace: false,
        };
        let out = schedule_region(&mut g, &mut ctx, &ranks, cfg, w.rows.clone());
        let rows = steady_rows(&g, &out.region, w.head);
        // The `a` chain (LCD) forms a diagonal while b/c race upward: row
        // contents drift apart, visible as growing per-row op counts then
        // thinning tails. We just assert the schedule differs from the
        // gapless one in shape: some iteration's ops are separated by a row
        // that contains none of its ops (a gap).
        let mut has_gap = false;
        for it in 0..w.iterations {
            let mut seen: Vec<bool> = Vec::new();
            for &r in &rows {
                let any = g.node_ops(r).iter().any(|&(_, o)| g.op(o).iter == it);
                seen.push(any);
            }
            let first = seen.iter().position(|&b| b);
            let last = seen.iter().rposition(|&b| b);
            if let (Some(f), Some(l)) = (first, last) {
                if seen[f..=l].iter().any(|&b| !b) {
                    has_gap = true;
                }
            }
        }
        assert!(has_gap, "expected gaps without prevention");
    }
}
