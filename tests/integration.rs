//! Workspace integration tests: the full stack (kernels → unwinding →
//! analysis → GRiP/POST → pattern → simulator) on real workloads, with the
//! paper's qualitative claims asserted.

use grip::baselines::{post_pipeline, PostOptions};
use grip::kernels::{default_init, kernels};
use grip::prelude::*;

/// Debug builds run the same assertions on smaller windows so the
/// unoptimized test suite stays fast; release uses measurement-grade sizes.
fn unwind_for(fus: usize) -> usize {
    if cfg!(debug_assertions) {
        (2 * fus).clamp(6, 10)
    } else {
        (3 * fus).clamp(10, 20)
    }
}

fn trip() -> i64 {
    if cfg!(debug_assertions) {
        24
    } else {
        48
    }
}

fn grip_opts(fus: usize) -> PipelineOptions {
    PipelineOptions {
        unwind: unwind_for(fus),
        machine: MachineDesc::uniform(fus),
        fold_inductions: true,
        gap_prevention: true,
        dce: true,
        try_roll: false,
        audit: false,
    }
}

fn verify(k: &grip::kernels::Kernel, g0: &Graph, g1: &Graph, n: i64) {
    let mut m0 = Machine::for_graph(g0);
    (k.init)(g0, &mut m0, n);
    m0.run(g0).unwrap_or_else(|e| panic!("{}: sequential failed: {e}", k.name));
    let mut m1 = Machine::for_graph(g1);
    (k.init)(g1, &mut m1, n);
    m1.run(g1).unwrap_or_else(|e| panic!("{}: transformed failed: {e}", k.name));
    let rep = EquivReport::compare(g0, &m0, &m1);
    assert!(rep.is_equal(), "{}: diverged: {rep:?}", k.name);
}

/// Every kernel, every width: GRiP output is observationally identical to
/// the sequential program, and achieves a real speedup.
#[test]
fn grip_is_exact_and_profitable_everywhere() {
    let n = trip();
    for k in kernels() {
        for fus in [2usize, 4, 8] {
            let g0 = (k.build)(n);
            let mut g = g0.clone();
            let rep = perfect_pipeline(&mut g, grip_opts(fus));
            g.validate().unwrap_or_else(|e| panic!("{}: {e}", k.name));
            verify(k, &g0, &g, n);
            let sp = rep.speedup().unwrap_or(0.0);
            assert!(sp > 1.5, "{} @{fus}FU: speedup {sp:.2} too small", k.name);
        }
    }
}

/// Table 1's headline claim: GRiP never loses to POST (beyond estimator
/// noise), and the vectorizable kernels approach the machine width.
#[test]
fn grip_dominates_post_and_fills_vector_loops() {
    let n = trip();
    let vectorizable = ["LL1", "LL7", "LL9", "LL10", "LL12"];
    for k in kernels() {
        for fus in [2usize, 4] {
            let mut g1 = (k.build)(n);
            let grip = perfect_pipeline(&mut g1, grip_opts(fus));
            let mut g2 = (k.build)(n);
            let post = post_pipeline(&mut g2, PostOptions::vliw(unwind_for(fus), fus));
            // Cap both at the physical issue bound: a slope estimate above
            // width×1.15 means the (debug-sized) window never reached steady
            // state and measures fill, not throughput.
            let cap = fus as f64 * 1.15;
            let (sg, sp) =
                (grip.speedup().unwrap_or(0.0).min(cap), post.speedup().unwrap_or(0.0).min(cap));
            assert!(sg >= sp - 0.45, "{} @{fus}FU: POST {sp:.2} beats GRiP {sg:.2}", k.name);
            if vectorizable.contains(&k.name) {
                assert!(
                    sg >= 0.85 * fus as f64,
                    "{} @{fus}FU: vectorizable loop should fill the machine, got {sg:.2}",
                    k.name
                );
            }
        }
    }
}

/// Speedup is monotone (within noise) in machine width.
#[test]
fn speedup_monotone_in_width() {
    let n = trip();
    for k in kernels() {
        let mut prev = 0.0f64;
        for fus in [2usize, 4, 8] {
            let mut g = (k.build)(n);
            let rep = perfect_pipeline(&mut g, grip_opts(fus));
            let sp = rep.speedup().unwrap_or(0.0);
            assert!(
                sp >= prev - 0.3,
                "{}: speedup dropped {prev:.2} -> {sp:.2} at {fus} FUs",
                k.name
            );
            prev = sp;
        }
    }
}

/// Recurrence-bound kernels saturate: more FUs stop helping, exactly the
/// paper's LL5/LL6/LL13 behaviour.
#[test]
fn recurrences_saturate() {
    let n = trip();
    for name in ["LL5", "LL6", "LL8", "LL13"] {
        let k = kernels().iter().find(|k| k.name == name).unwrap();
        let mut g8 = (k.build)(n);
        let s8 = perfect_pipeline(&mut g8, grip_opts(8)).speedup().unwrap();
        let mut g16 = (k.build)(n);
        let s16 = perfect_pipeline(
            &mut g16,
            PipelineOptions {
                machine: MachineDesc::uniform(16),
                unwind: unwind_for(8),
                ..grip_opts(8)
            },
        )
        .speedup()
        .unwrap();
        assert!(
            s16 <= s8 + 0.6,
            "{name}: recurrence should saturate, got {s8:.2} @8 vs {s16:.2} @16"
        );
    }
}

/// Mid-loop exits: every trip count leaves the pipelined loop through a
/// different fix-up; all of them must restore the canonical registers.
#[test]
fn all_exit_paths_are_exact() {
    let k = kernels().iter().find(|k| k.name == "LL11").unwrap();
    for n in 1..=24i64 {
        let g0 = (k.build)(n);
        let mut g = g0.clone();
        perfect_pipeline(&mut g, grip_opts(4));
        verify(k, &g0, &g, n);
    }
}

/// The scheduled window respects the machine width on its steady rows.
#[test]
fn schedules_respect_resources() {
    let n = trip();
    for k in kernels() {
        for fus in [2usize, 4, 8] {
            let mut g = (k.build)(n);
            let rep = perfect_pipeline(&mut g, grip_opts(fus));
            for &row in &rep.steady {
                if g.node_exists(row) {
                    assert!(
                        g.node_op_count(row) <= fus,
                        "{} @{fus}FU: row {row} holds {} ops",
                        k.name,
                        g.node_op_count(row)
                    );
                }
            }
        }
    }
}

/// Sequential IR semantics equal the native Rust references (substrate
/// sanity, end to end through the facade).
#[test]
fn kernel_references_hold_at_scale() {
    let n = if cfg!(debug_assertions) { 50 } else { 100 };
    for k in kernels() {
        grip::kernels::validate(k, n).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// The machine simulator agrees with the reference on cycle accounting:
/// sequential cycles = nodes per iteration × iterations + prologue.
#[test]
fn sequential_cycle_accounting() {
    let k = kernels().iter().find(|k| k.name == "LL12").unwrap();
    let n = 32i64;
    let g = (k.build)(n);
    let mut m = Machine::for_graph(&g);
    default_init(&g, &mut m, n);
    let stats = m.run(&g).unwrap();
    // LL12: entry + const + n * (6 ops + latch) + exit
    assert_eq!(stats.cycles, 2 + (n as u64) * 7 + 1);
}
