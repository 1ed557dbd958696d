//! Mutation-based property tests for the static auditor (`grip-audit`):
//! corrupt verified schedules with seeded mutations and check that the
//! auditor catches, by pure dataflow analysis, **every** corruption the
//! VM can detect by executing the schedule — no false negatives over the
//! corpus — while agreeing with the VM that the pristine schedules are
//! clean.
//!
//! The mutation operators are chosen so that each targets one auditor
//! check and so that every VM-visible effect they can produce is one the
//! auditor's static analyses model:
//!
//! * **drop-pad-row** deletes an empty (hazard-padding) row, shrinking a
//!   latency gap → GA002 / model interlock stalls;
//! * **clone-overfill** duplicates an op into its own row with a fresh
//!   destination, a pure resource mutation → GA003 / template violations;
//! * **clone-dup-write** duplicates an op into its own row keeping its
//!   destination → GA004 dup-write / `Graph::validate` path rejection;
//! * **sink-def** moves the sole definition of a still-read register
//!   into a reader's row → GA004 use-before-def / stale-read divergence;
//! * **hoist-load** moves a load up into its predecessor row when that
//!   row holds a store the load flow-depends on (and defines none of the
//!   load's address registers) → GA001 / stale-value divergence.
//!
//! The auditor is deliberately conservative: it may flag a mutant whose
//! corruption happens to be invisible on the executed paths (a pad only
//! needed on a never-taken exit, say). The property enforced here is the
//! safety direction — `VM rejects ⟹ audit flags` — plus exact agreement
//! on the unmutated schedules.
//!
//! Mutations that would corrupt a schedule in ways the auditor does not
//! model (reordering conditional jumps, moving stores across exit paths,
//! sliding defs across the back edge so readers see a *defined but
//! stale* register) are intentionally outside the operator set: the
//! auditor proves dependence, latency, resource, and definedness safety,
//! not full semantic equivalence — that is the VM differ's job (see
//! README "Static verification").

use grip::ir::TreePath;
use grip::pipeline::{prepare, schedule_window};
use grip::prelude::*;

/// Deterministic splitmix64 generator (same idiom as `prop_hazards`).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// Every placed non-cj op in reachable rows, as `(row, op)`.
fn placed_ops(g: &Graph) -> Vec<(NodeId, OpId)> {
    let mut out = Vec::new();
    for n in g.reachable() {
        for &(_, op) in g.node_ops(n) {
            if g.op(op).kind != OpKind::CondJump {
                out.push((n, op));
            }
        }
    }
    out
}

/// Number of placed ops defining register `r`.
fn def_count(g: &Graph, r: RegId) -> usize {
    g.reachable()
        .into_iter()
        .map(|n| g.node_ops(n).iter().filter(|&&(_, op)| g.op(op).dest == Some(r)).count())
        .sum()
}

/// Which corruption a mutation operator introduced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Op {
    DropPadRow,
    CloneOverfill,
    CloneDupWrite,
    SinkDef,
    HoistLoad,
}

const OPS: [Op; 5] =
    [Op::DropPadRow, Op::CloneOverfill, Op::CloneDupWrite, Op::SinkDef, Op::HoistLoad];

/// Apply `op` to `g` if it has a candidate site; returns a description
/// of what was corrupted, or `None` when the schedule offers no site
/// (e.g. no pad rows on a unit-latency machine).
fn mutate(g: &mut Graph, ddg: &Ddg, op: Op, rng: &mut Rng) -> Option<String> {
    match op {
        Op::DropPadRow => {
            let pads: Vec<NodeId> = g
                .reachable()
                .into_iter()
                .filter(|&n| {
                    n != g.entry
                        && g.node_op_count(n) == 0
                        && g.node_cj_count(n) == 0
                        && g.unique_successors(n) != vec![n]
                })
                .collect();
            let n = *pads.get(rng.below(pads.len().max(1) as u64) as usize)?;
            g.delete_empty_node(n);
            Some(format!("dropped pad row {n}"))
        }
        Op::CloneOverfill => {
            let all = placed_ops(g);
            let cands: Vec<_> =
                all.into_iter().filter(|&(_, op)| g.op(op).dest.is_some()).collect();
            if cands.is_empty() {
                return None;
            }
            let (n, op) = rng.pick(&cands);
            let c = g.dup_op(op);
            let fresh = g.fresh_reg();
            g.op_mut(c).dest = Some(fresh);
            g.insert_op_at(n, TreePath::ROOT, c);
            Some(format!("cloned {op} into row {n} with fresh dest"))
        }
        Op::CloneDupWrite => {
            let all = placed_ops(g);
            let cands: Vec<_> =
                all.into_iter().filter(|&(_, op)| g.op(op).dest.is_some()).collect();
            if cands.is_empty() {
                return None;
            }
            let (n, op) = rng.pick(&cands);
            let c = g.dup_op(op);
            g.insert_op_at(n, TreePath::ROOT, c);
            Some(format!("cloned {op} into row {n} (duplicate write)"))
        }
        Op::SinkDef => {
            // Sink the *sole* definition of a register into the row of
            // one of its readers: reads fetch at row entry under VLIW
            // semantics, so every entry path now reaches the reader with
            // the register undefined. The sole-def restriction matters
            // twice over — deleting or displacing one def of a pair
            // leaves readers *defined but stale* (semantic breakage the
            // dataflow auditor deliberately does not model), and a
            // never-defined register would be exempted as an external
            // input.
            let mut cands = Vec::new();
            for (n, op) in placed_ops(g) {
                let Some(d) = g.op(op).dest else { continue };
                if def_count(g, d) != 1 {
                    continue;
                }
                for m in g.reachable() {
                    if m != n
                        && g.node_ops(m)
                            .iter()
                            .any(|&(_, q)| g.op(q).src.iter().any(|s| s.reads(d)))
                    {
                        cands.push((n, op, m));
                    }
                }
            }
            if cands.is_empty() {
                return None;
            }
            let (n, op, m) = rng.pick(&cands);
            g.remove_op_from(n, op);
            g.insert_op_at(m, TreePath::ROOT, op);
            Some(format!("sank sole def {op} from row {n} into reader row {m}"))
        }
        Op::HoistLoad => {
            // A load hoisted into its (unique) predecessor row, where a
            // store it flow-depends on sits — and where none of the
            // load's address registers are redefined, so the only
            // corruption the hoist introduces is the mem-order one.
            let mut cands = Vec::new();
            for (n, load) in placed_ops(g) {
                let lk = g.op(load);
                let OpKind::Load(_) = lk.kind else { continue };
                let &[p] = g.preds(n) else { continue };
                if p == n {
                    continue;
                }
                let addr_regs: Vec<RegId> = lk.src.iter().filter_map(|s| s.reg()).collect();
                let mut store_conflict = false;
                let mut addr_redefined = false;
                for &(_, q) in g.node_ops(p) {
                    let qo = g.op(q);
                    if qo.kind.is_store() && ddg.mem_dep(qo.orig, lk.orig) {
                        store_conflict = true;
                    }
                    if qo.dest.is_some_and(|d| addr_regs.contains(&d)) {
                        addr_redefined = true;
                    }
                }
                if store_conflict && !addr_redefined {
                    cands.push((n, load, p));
                }
            }
            if cands.is_empty() {
                return None;
            }
            let (n, load, p) = rng.pick(&cands);
            g.remove_op_from(n, load);
            g.insert_op_at(p, TreePath::ROOT, load);
            Some(format!("hoisted load {load} from row {n} into conflicting row {p}"))
        }
    }
}

/// The execution oracle: does the VM (validator + timing model + state
/// differ) reject this schedule of `g0`?
fn vm_rejects(
    g0: &Graph,
    m0: &Machine,
    g: &Graph,
    desc: &MachineDesc,
    init: fn(&Graph, &mut Machine, i64),
    n: i64,
) -> bool {
    if g.validate().is_err() {
        return true;
    }
    let mut m1 = Machine::for_graph(g);
    init(g, &mut m1, n);
    match m1.run_model(g, desc) {
        Err(_) => true,
        Ok(stats) => {
            stats.stall_cycles > 0
                || stats.template_violations > 0
                || !EquivReport::compare(g0, m0, &m1).is_equal()
        }
    }
}

/// Corpus-wide audit/VM agreement: pristine schedules are clean under
/// both verifiers, and every mutant the VM rejects is statically flagged.
#[test]
fn auditor_catches_every_vm_detectable_corruption() {
    let n: i64 = 8;
    let presets = [MachineDesc::uniform(4), MachineDesc::mem_bound(), MachineDesc::epic8()];
    let mut mutants = 0usize;
    let mut rejected = 0usize;
    let mut flagged_only = 0usize;
    let mut caught_by_op = [0usize; OPS.len()];

    for desc in presets {
        for k in grip::kernels::kernels() {
            let label = format!("{} on {}", k.name, desc.name);
            let g0 = (k.build)(n);
            let mut g = g0.clone();
            let prep = prepare(&mut g, 4, true);
            let ddg = prep.ddg;
            let rep = schedule_window(
                &mut g,
                prep.window,
                &ddg,
                PipelineOptions {
                    machine: desc,
                    audit: true,
                    try_roll: false,
                    ..Default::default()
                },
            );

            // Agreement on the clean original, both directions.
            let orig = rep.audit.expect("audit requested");
            assert!(orig.is_clean(), "{label}: auditor flags a verified schedule: {orig}");
            let mut m0 = Machine::for_graph(&g0);
            (k.init)(&g0, &mut m0, n);
            m0.run(&g0).unwrap_or_else(|e| panic!("{label}: sequential: {e}"));
            assert!(
                !vm_rejects(&g0, &m0, &g, &desc, k.init, n),
                "{label}: VM rejects the pristine schedule"
            );

            // One mutant per operator per cell (when a site exists).
            for (oi, op) in OPS.into_iter().enumerate() {
                let mut rng = Rng(0xabad1dea ^ ((oi as u64) << 48) ^ ddg.order().len() as u64);
                let mut gm = g.clone();
                let Some(what) = mutate(&mut gm, &ddg, op, &mut rng) else { continue };
                mutants += 1;
                let audit_flags = !audit_schedule(&gm, &ddg, &desc).is_clean();
                if vm_rejects(&g0, &m0, &gm, &desc, k.init, n) {
                    rejected += 1;
                    assert!(
                        audit_flags,
                        "{label}: FALSE NEGATIVE — VM rejects mutant ({what}) \
                         but the audit is clean"
                    );
                    caught_by_op[oi] += 1;
                } else if audit_flags {
                    // Conservative direction: statically unsafe, but the
                    // corruption is invisible on the executed paths.
                    flagged_only += 1;
                }
            }
        }
    }

    // The property is only meaningful if the corpus actually exercises
    // it: most mutants must be VM-visible, and every operator class must
    // have produced at least one corruption that both verifiers caught.
    assert!(mutants >= 100, "corpus too small: {mutants} mutants");
    assert!(
        rejected * 2 >= mutants,
        "corpus too benign: only {rejected}/{mutants} mutants VM-rejected"
    );
    for (oi, caught) in caught_by_op.iter().enumerate() {
        assert!(
            *caught > 0,
            "operator {:?} never produced a VM-rejected, audit-flagged mutant",
            OPS[oi]
        );
    }
    println!(
        "prop_audit: {mutants} mutants, {rejected} VM-rejected (all audit-flagged), \
         {flagged_only} flagged-only (conservative), per-op {caught_by_op:?}"
    );
}
