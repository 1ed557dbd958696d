//! Bound-soundness property tests: every certificate `grip-bounds` proves
//! must actually lower-bound what the machine does. Two layers of check:
//!
//! 1. **Certificate soundness** — the steady window the scheduler emitted
//!    is itself a witness schedule, so `steady.len() >= bound_cycles`
//!    always, on every kernel, preset, and random program.
//! 2. **VM cross-check** — one traversal of the steady window executes
//!    `unwind` iterations in `steady.len()` cycles, so a trip of `t`
//!    iterations forces the simulated wall-clock above
//!    `(t/unwind - 2) * bound_cycles` (slack for the prologue pass and
//!    the final partial traversal). This re-derives the bound against
//!    the latency-aware VM rather than trusting the scheduler's own row
//!    count.
//!
//! Random loops come from the same deterministic splitmix PRNG as
//! `prop_hazards` (the container is offline, so `proptest` is
//! unavailable); failures report the case seed. The kernel sweep covers
//! all machine presets × LL1–LL14 — the `BENCH_machines.json` grid.
//!
//! On unit-latency `uniform*` machines the prover is also *exact* for the
//! kernels without loop-carried recurrences: GRiP packs them to their
//! resource bound, so `at_bound` must hold (pinned below). The recurrence
//! kernels pin their RecMII values instead.

use grip::bounds::analyze;
use grip::pipeline::{prepare, schedule_window};
use grip::prelude::*;

/// Deterministic splitmix64 generator.
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
}

/// A random loop body mixing all functional-unit classes, with an
/// optional loop-carried recurrence to exercise the RecMII analysis.
#[derive(Clone, Debug)]
struct LoopRecipe {
    ops: Vec<BodyOp>,
    recurrence: bool,
    trip: i64,
}

#[derive(Clone, Debug)]
enum BodyOp {
    Load(i8),
    Arith(u8, u8, u8),
    Store(u8),
}

fn recipe(rng: &mut Rng) -> LoopRecipe {
    let len = 2 + rng.below(7) as usize;
    let ops = (0..len)
        .map(|_| match rng.below(3) {
            0 => BodyOp::Load(rng.below(4) as i8),
            1 => BodyOp::Arith(rng.below(256) as u8, rng.below(256) as u8, rng.below(5) as u8),
            _ => BodyOp::Store(rng.below(256) as u8),
        })
        .collect();
    LoopRecipe { ops, recurrence: rng.below(2) == 1, trip: 1 + rng.below(23) as i64 }
}

fn build(r: &LoopRecipe) -> Graph {
    let len = (r.trip + 64) as usize;
    let mut b = ProgramBuilder::new();
    let x = b.array("x", len);
    let y = b.array("y", len);
    let acc = b.named_reg("acc");
    b.const_f(acc, 1.0);
    let k = b.named_reg("k");
    b.const_i(k, 0);
    b.begin_loop();
    let mut pool: Vec<RegId> = vec![acc];
    if r.recurrence {
        b.emit(Operation::new(
            OpKind::Mul,
            Some(acc),
            vec![Operand::Reg(acc), Operand::Imm(Value::F(0.875))],
        ));
    }
    for (i, op) in r.ops.iter().enumerate() {
        match *op {
            BodyOp::Load(d) => {
                let t = b.load(&format!("l{i}"), x, Operand::Reg(k), d.unsigned_abs() as i64);
                pool.push(t);
            }
            BodyOp::Arith(a, bb, kind) => {
                let ra = pool[a as usize % pool.len()];
                let rb = pool[bb as usize % pool.len()];
                let kinds = [OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Min, OpKind::Div];
                let t = b.binary(
                    &format!("a{i}"),
                    kinds[kind as usize % kinds.len()],
                    Operand::Reg(ra),
                    Operand::Reg(rb),
                );
                pool.push(t);
            }
            BodyOp::Store(a) => {
                let ra = pool[a as usize % pool.len()];
                b.store(y, Operand::Reg(k), 0, Operand::Reg(ra));
            }
        }
    }
    b.iadd_imm(k, k, 1);
    let c = b.binary("c", OpKind::CmpLt, Operand::Reg(k), Operand::Imm(Value::I(r.trip)));
    b.end_loop(c);
    let mut g = b.finish();
    g.live_out = vec![acc, k];
    g
}

fn init(m: &mut Machine, len: usize) {
    let xs: Vec<f64> = (0..len).map(|i| 0.25 + (i % 17) as f64 * 0.0625).collect();
    m.set_array_f(ArrayId::new(0), &xs);
}

fn pipeline_opts(desc: MachineDesc, unwind: usize) -> PipelineOptions {
    PipelineOptions {
        unwind,
        machine: desc,
        fold_inductions: true,
        gap_prevention: true,
        dce: true,
        try_roll: false,
        audit: false,
    }
}

/// Machine-state initializer for the VM cross-check.
type InitFn<'a> = &'a dyn Fn(&Graph, &mut Machine);

/// Schedule a clone of `g0` for `desc` and check both soundness layers.
/// `vm` optionally supplies the machine-state initializer for the VM
/// cross-check. Returns the report for further (tightness) assertions.
fn check_sound(
    g0: &Graph,
    desc: MachineDesc,
    unwind: usize,
    vm: Option<InitFn>,
    label: &str,
) -> grip::pipeline::PipelineReport {
    let mut g = g0.clone();
    let rep = perfect_pipeline(&mut g, pipeline_opts(desc, unwind));
    let b = &rep.bounds;

    // Layer 1: the emitted steady window is a witness schedule, so the
    // proven bound may never exceed its row count.
    let rows = rep.steady.len() as u64;
    assert!(
        rows >= b.bound_cycles,
        "{label}: unsound certificate: {rows} steady rows < proven bound {b:?}"
    );
    assert!(b.gap_pct >= 0.0, "{label}: negative gap: {b:?}");
    assert_eq!(b.at_bound, rows == b.bound_cycles, "{label}: at_bound inconsistent: {b:?}");

    // Layer 2: re-derive the bound against the latency-aware VM. Each
    // loop iteration evaluates exactly one conditional jump, so the VM's
    // `cjs_evaluated` counter *is* the trip count (kernels start their
    // induction at kernel-specific offsets — LL4 at k=5 — so the build
    // parameter `n` is not). A trip of `iters` forces at least
    // `iters/unwind - 2` complete steady-window traversals (one pass of
    // slack for the prologue, one for the final partial traversal), each
    // costing at least `bound_cycles`.
    if let Some(init) = vm {
        let mut m = Machine::for_graph(&g);
        init(&g, &mut m);
        let stats = m.run_model(&g, &desc).unwrap_or_else(|e| panic!("{label}: model: {e}"));
        let iters = stats.base.cjs_evaluated;
        let traversals = (iters / unwind as u64).saturating_sub(2);
        assert!(
            stats.total_cycles() >= traversals * b.bound_cycles,
            "{label}: VM ran {} cycles over {iters} iterations, below {traversals} \
             traversals x bound {b:?}",
            stats.total_cycles()
        );
        // With a full pass guaranteed (no early exit can fire before the
        // trip count runs out), the wall clock singly covers the bound.
        if iters >= unwind as u64 {
            assert!(
                stats.total_cycles() >= b.bound_cycles,
                "{label}: VM ran {} cycles, below proven bound {b:?}",
                stats.total_cycles()
            );
        }
    }
    rep
}

fn cases() -> u64 {
    if cfg!(debug_assertions) {
        10
    } else {
        24
    }
}

fn kernel_n() -> i64 {
    if cfg!(debug_assertions) {
        12
    } else {
        32
    }
}

/// Every preset × every Livermore kernel carries a sound certificate,
/// against both the steady window and the simulated machine.
#[test]
fn kernel_bounds_are_sound_on_all_presets() {
    let n = kernel_n();
    for desc in MachineDesc::presets() {
        for k in grip::kernels::kernels() {
            let g0 = (k.build)(n);
            let init = |g: &Graph, m: &mut Machine| (k.init)(g, m, n);
            check_sound(&g0, desc, 6, Some(&init), &format!("{} on {}", k.name, desc.name));
        }
    }
}

/// Random mixed-class loops (including loop-carried recurrences) carry
/// sound certificates on the heterogeneous multi-latency presets.
#[test]
fn random_loop_bounds_are_sound_on_heterogeneous_presets() {
    for case in 0..cases() {
        let mut rng = Rng(0xB0B0 ^ (case << 32));
        let r = recipe(&mut rng);
        let g0 = build(&r);
        g0.validate().unwrap();
        let len = (r.trip + 64) as usize;
        let init = |_: &Graph, m: &mut Machine| init(m, len);
        for desc in [MachineDesc::clustered(), MachineDesc::mem_bound(), MachineDesc::epic8()] {
            let unwind = (desc.width.min(8) + 2).min(8);
            check_sound(
                &g0,
                desc,
                unwind,
                Some(&init),
                &format!("case {case} on {} ({r:?})", desc.name),
            );
        }
    }
}

/// The prover's other side — tightness. A bound so weak it never binds
/// would pass every soundness check, so pin exactly which cells of the
/// unit-latency uniform sweep close their gap (`at_bound`): on uniform4
/// and uniform8 the pigeonhole/critical-path pair is exact for half the
/// kernels, and *every* uniform cell lands within three rows of its
/// proven bound (the residue is the steady window's ragged boundary
/// rows, which the per-traversal pigeonhole cannot see).
#[test]
fn uniform_bounds_are_tight() {
    let exact4 = ["LL4", "LL5", "LL8", "LL10", "LL12", "LL13", "LL14"];
    let exact8 = ["LL3", "LL4", "LL5", "LL6", "LL8", "LL11", "LL13", "LL14"];
    let n = kernel_n();
    for (width, exact) in [(2usize, &[][..]), (4, &exact4[..]), (8, &exact8[..])] {
        for k in grip::kernels::kernels() {
            let g0 = (k.build)(n);
            let label = format!("{} on uniform{width}", k.name);
            let rep = check_sound(&g0, MachineDesc::uniform(width), 6, None, &label);
            let gap_rows = rep.steady.len() as u64 - rep.bounds.bound_cycles;
            assert!(gap_rows <= 3, "{label}: gap of {gap_rows} rows ({:?})", rep.bounds);
            assert_eq!(
                rep.bounds.at_bound,
                exact.contains(&k.name),
                "{label}: at_bound drifted ({:?} vs {} rows)",
                rep.bounds,
                rep.steady.len()
            );
        }
    }
}

/// Pin the recurrence analysis on the three classically recurrence-bound
/// Livermore kernels. The values are latency-weighted cycle lengths of
/// the tightest loop-carried dependence chain in the *unwound* window
/// (unwind 6), so they scale with both the chain shape and the FP
/// latency of the preset.
#[test]
fn recurrence_kernels_pin_rec_mii() {
    // (kernel, preset, expected rec_mii over the 6-deep window).
    //
    // LL5 (tridiag elimination) chains sub∘mul through x[i-1]: two
    // float ops per iteration × 6 unwound iterations = 12 at unit
    // latency, ×2 on clustered (fpu=2), ×4 on epic8 (fpu=4).
    // LL6 (linear recurrence) adds one accumulate per iteration on top
    // of the same shape — 13 at unit latency.
    // LL8 (ADI) carries no float value across the back edge: its only
    // loop-carried cycle is the induction/compare pair, rec_mii 2 —
    // the case that shows the analysis *not* inventing recurrences.
    // LL11 (partial sums) is the pure first-order chain: one add per
    // iteration at unit latency, FP-latency×6 on epic8.
    for (kernel, desc, want) in [
        ("LL5", MachineDesc::uniform(4), PIN_LL5_UNIFORM),
        ("LL5", MachineDesc::clustered(), PIN_LL5_CLUSTERED),
        ("LL5", MachineDesc::epic8(), PIN_LL5_EPIC8),
        ("LL6", MachineDesc::uniform(4), PIN_LL6_UNIFORM),
        ("LL8", MachineDesc::uniform(4), PIN_LL8_UNIFORM),
        ("LL11", MachineDesc::uniform(4), PIN_LL11_UNIFORM),
        ("LL11", MachineDesc::epic8(), PIN_LL11_EPIC8),
    ] {
        let n = kernel_n();
        let k = grip::kernels::kernels().iter().find(|k| k.name == kernel).unwrap();
        let g0 = (k.build)(n);
        let mut g = g0.clone();
        let pw = prepare(&mut g, 6, true);
        let rep = schedule_window(&mut g, pw.window, &pw.ddg, pipeline_opts(desc, 6));
        let ana = analyze(&g, &rep.steady, &pw.ddg, &desc);
        assert_eq!(
            ana.rec_mii, want,
            "{kernel} on {}: rec_mii changed (analysis: {ana:?})",
            desc.name
        );
        // The recurrence bound must never be claimed above what the
        // scheduler achieved.
        assert!(ana.rec_mii <= rep.steady.len() as u64, "{kernel}: rec_mii unsound");
    }
}

// Pinned RecMII values (see `recurrence_kernels_pin_rec_mii`); asserted
// equal in debug and release, so they must not depend on `kernel_n`.
const PIN_LL5_UNIFORM: u64 = 12;
const PIN_LL5_CLUSTERED: u64 = 24;
const PIN_LL5_EPIC8: u64 = 48;
const PIN_LL6_UNIFORM: u64 = 13;
const PIN_LL8_UNIFORM: u64 = 2;
const PIN_LL11_UNIFORM: u64 = 6;
const PIN_LL11_EPIC8: u64 = 24;

/// Not a test: prints region-level bound equality on the heterogeneous
/// presets. Run with `--ignored --nocapture`.
#[test]
#[ignore]
fn probe_region_bounds() {
    let n = kernel_n();
    println!("kernel preset region_rows bound binding");
    for desc in [MachineDesc::clustered(), MachineDesc::mem_bound(), MachineDesc::epic8()] {
        for k in grip::kernels::kernels() {
            let g0 = (k.build)(n);
            let mut g = g0.clone();
            let pw = prepare(&mut g, 6, true);
            let rep = schedule_window(&mut g, pw.window, &pw.ddg, pipeline_opts(desc, 6));
            let live: Vec<_> = rep.region.iter().copied().filter(|&r| g.node_exists(r)).collect();
            let ana = analyze(&g, &live, &pw.ddg, &desc);
            let (bound, binding) = ana.bound();
            println!(
                "{} {} {} {} {} {}",
                k.name,
                desc.name,
                live.len(),
                bound,
                binding,
                if live.len() as u64 == bound { "EXIT" } else { "" },
            );
        }
    }
}

/// Not a test: prints the full bound table for pinning. Run with
/// `cargo test -q --release --test prop_bounds -- --ignored probe --nocapture`.
#[test]
#[ignore]
fn probe_bound_table() {
    let n = kernel_n();
    println!("kernel preset rows bound binding rec res cp at_bound");
    for desc in MachineDesc::presets() {
        for k in grip::kernels::kernels() {
            let g0 = (k.build)(n);
            let mut g = g0.clone();
            let pw = prepare(&mut g, 6, true);
            let rep = schedule_window(&mut g, pw.window, &pw.ddg, pipeline_opts(desc, 6));
            let ana = analyze(&g, &rep.steady, &pw.ddg, &desc);
            println!(
                "{} {} {} {} {} {} {} {} {}",
                k.name,
                desc.name,
                rep.steady.len(),
                rep.bounds.bound_cycles,
                rep.bounds.binding_constraint,
                ana.rec_mii,
                ana.res_mii,
                ana.critical_path,
                rep.bounds.at_bound,
            );
        }
    }
}
