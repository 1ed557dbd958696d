//! Machine-description subsystem, end to end:
//!
//! * the `uniform(n)` preset must reproduce a hand-built flat machine
//!   **bit-for-bit** — identical schedules and identical cycle counts on
//!   every Livermore kernel;
//! * the heterogeneous presets (`clustered`, `mem_bound`, `epic8`) must
//!   schedule LL1–LL14 end to end with VM-verified equivalence to
//!   sequential execution, zero issue-template violations, and steady
//!   rows that fit the template.

use grip::kernels::kernels;
use grip::prelude::*;

fn trip() -> i64 {
    if cfg!(debug_assertions) {
        16
    } else {
        48
    }
}

fn opts(machine: MachineDesc, unwind: usize) -> PipelineOptions {
    PipelineOptions {
        unwind,
        machine,
        fold_inductions: true,
        gap_prevention: true,
        dce: true,
        try_roll: false,
        audit: false,
    }
}

/// Schedule a kernel and return the final graph dump plus the measured
/// execution cycle count on the standard inputs.
fn schedule_and_run(k: &grip::kernels::Kernel, n: i64, machine: MachineDesc) -> (String, u64) {
    let mut g = (k.build)(n);
    perfect_pipeline(&mut g, opts(machine, 6));
    g.validate().unwrap_or_else(|e| panic!("{}: {e}", k.name));
    let mut m = Machine::for_graph(&g);
    (k.init)(&g, &mut m, n);
    let stats = m.run(&g).unwrap_or_else(|e| panic!("{}: {e}", k.name));
    (grip::ir::print::dump(&g), stats.cycles)
}

/// Equivalence property: for every kernel and width, the `uniform(n)`
/// preset produces the *identical* schedule (same dump) and identical
/// cycle count as a hand-built flat description (width-only cap,
/// uncapped classes, unit latencies) under another name — so the name
/// never affects a schedule.
#[test]
fn uniform_preset_is_bit_for_bit_the_flat_machine() {
    let n = trip();
    for k in kernels() {
        for width in [2usize, 4, 8] {
            let (dump_uni, cycles_uni) = schedule_and_run(k, n, MachineDesc::uniform(width));
            let handmade = MachineDesc {
                name: "handmade",
                width,
                cjs: grip_machine::UNCAPPED,
                class_slots: [grip_machine::UNCAPPED; FuClass::COUNT],
                latency: LatencyTable::UNIT,
            };
            let (dump_hand, cycles_hand) = schedule_and_run(k, n, handmade);
            assert_eq!(dump_uni, dump_hand, "{} @{width}: handmade flat desc", k.name);
            assert_eq!(cycles_uni, cycles_hand, "{} @{width}: handmade cycles", k.name);
        }
    }
}

/// Under the uniform model the latency-aware simulator charges no stalls
/// and reports the plain cycle count.
#[test]
fn uniform_model_run_has_no_stalls() {
    let n = trip();
    for k in kernels().iter().take(4) {
        let desc = MachineDesc::uniform(4);
        let mut g = (k.build)(n);
        perfect_pipeline(&mut g, opts(desc, 6));
        let mut m0 = Machine::for_graph(&g);
        (k.init)(&g, &mut m0, n);
        let plain = m0.run(&g).unwrap();
        let mut m1 = Machine::for_graph(&g);
        (k.init)(&g, &mut m1, n);
        let model = m1.run_model(&g, &desc).unwrap();
        assert_eq!(model.stall_cycles, 0, "{}", k.name);
        assert_eq!(model.template_violations, 0, "{}", k.name);
        assert_eq!(model.total_cycles(), plain.cycles, "{}", k.name);
    }
}

/// Acceptance: every non-uniform preset schedules every kernel end to
/// end, the result is VM-verified equivalent to sequential execution,
/// and the schedule honours the issue template it was built against.
#[test]
fn heterogeneous_presets_schedule_all_kernels_exactly() {
    let n = trip();
    for desc in [MachineDesc::clustered(), MachineDesc::mem_bound(), MachineDesc::epic8()] {
        for k in kernels() {
            let g0 = (k.build)(n);
            let mut g = g0.clone();
            let rep = perfect_pipeline(&mut g, opts(desc, 6));
            g.validate().unwrap_or_else(|e| panic!("{} on {}: {e}", k.name, desc.name));

            // Bitwise equivalence against the sequential original.
            let mut m0 = Machine::for_graph(&g0);
            (k.init)(&g0, &mut m0, n);
            m0.run(&g0).unwrap();
            let mut m1 = Machine::for_graph(&g);
            (k.init)(&g, &mut m1, n);
            let model = m1
                .run_model(&g, &desc)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", k.name, desc.name));
            let eq = EquivReport::compare(&g0, &m0, &m1);
            assert!(eq.is_equal(), "{} on {}: diverged: {eq:?}", k.name, desc.name);
            assert_eq!(
                model.template_violations, 0,
                "{} on {}: schedule violates its own issue template",
                k.name, desc.name
            );

            // Steady rows fit the template statically, too.
            for &row in &rep.steady {
                if g.node_exists(row) {
                    assert!(
                        desc.fits(&g, row),
                        "{} on {}: steady row {row} breaks the template",
                        k.name,
                        desc.name
                    );
                }
            }
        }
    }
}

/// The class caps bind: on the single-port `mem_bound` machine no steady
/// row of a streaming kernel carries two memory operations, even though
/// eight total slots are open.
#[test]
fn mem_bound_port_limits_memory_issue() {
    let desc = MachineDesc::mem_bound();
    let k = kernels().iter().find(|k| k.name == "LL1").unwrap();
    let mut g = (k.build)(trip());
    let rep = perfect_pipeline(&mut g, opts(desc, 6));
    let mut any_mem = false;
    for &row in &rep.steady {
        if !g.node_exists(row) {
            continue;
        }
        let mems = g.node_ops(row).iter().filter(|&&(_, o)| g.op(o).kind.is_mem()).count();
        assert!(mems <= 1, "row {row} issues {mems} memory ops on a single port");
        any_mem |= mems == 1;
    }
    assert!(any_mem, "LL1 must stream through the port");
}

/// Latency-aware scheduling pays off: on a multi-cycle machine the GRiP
/// schedule built *for* that machine never runs slower under the model
/// than the sequential program, and the hazard guard keeps stalls below
/// the sequential program's own stall bill.
#[test]
fn latency_model_speedup_is_real() {
    let desc = MachineDesc::epic8();
    let n = trip();
    for name in ["LL1", "LL7", "LL12"] {
        let k = kernels().iter().find(|k| k.name == name).unwrap();
        let g0 = (k.build)(n);
        let mut g = g0.clone();
        perfect_pipeline(&mut g, opts(desc, 8));
        let mut m0 = Machine::for_graph(&g0);
        (k.init)(&g0, &mut m0, n);
        let seq = m0.run_model(&g0, &desc).unwrap();
        let mut m1 = Machine::for_graph(&g);
        (k.init)(&g, &mut m1, n);
        let sched = m1.run_model(&g, &desc).unwrap();
        assert!(
            sched.total_cycles() < seq.total_cycles(),
            "{name}: scheduled {} vs sequential {}",
            sched.total_cycles(),
            seq.total_cycles()
        );
    }
}
