//! Schedule LL3 (inner product) for a memory-bound cluster and compare it
//! with the flat machines of the paper: the machine-description layer
//! exposes exactly the bottlenecks the scalar `fus` model cannot see.
//!
//! `mem_bound` has eight issue slots — on the flat model that looks like
//! an 8-wide machine — but a single 3-cycle memory port. LL3 streams one
//! load per iteration through its reduction, so the port (not the width)
//! sets the steady-state throughput, and the latency-aware simulator
//! charges interlock stalls that the unit-cycle model hides.
//!
//! Run with: `cargo run --release --example heterogeneous_machine`

use grip::kernels::kernels;
use grip::prelude::*;

fn main() {
    let k = kernels().iter().find(|k| k.name == "LL3").unwrap();
    let n = 100i64;
    println!("{}: {} [{}]\n", k.name, k.description, k.class);

    let machines = [
        MachineDesc::uniform(8),
        MachineDesc::mem_bound(),
        MachineDesc::clustered(),
        MachineDesc::epic8(),
    ];
    println!(
        "{:<28} {:>9} {:>11} {:>8} {:>9} {:>6}",
        "machine", "seq cyc", "sched cyc", "stalls", "speedup", "ok"
    );
    for desc in machines {
        let g0 = (k.build)(n);
        let mut g = g0.clone();
        perfect_pipeline(
            &mut g,
            PipelineOptions { unwind: 8, machine: desc, ..Default::default() },
        );

        // Both programs run under the same latency model; equivalence is
        // checked bitwise on all observable state.
        let mut m0 = Machine::for_graph(&g0);
        (k.init)(&g0, &mut m0, n);
        let seq = m0.run_model(&g0, &desc).expect("sequential runs");
        let mut m1 = Machine::for_graph(&g);
        (k.init)(&g, &mut m1, n);
        let sched = m1.run_model(&g, &desc).expect("schedule runs");
        let ok = EquivReport::compare(&g0, &m0, &m1).is_equal() && sched.template_violations == 0;

        println!(
            "{:<28} {:>9} {:>11} {:>8} {:>9.2} {:>6}",
            desc.to_string(),
            seq.total_cycles(),
            sched.total_cycles(),
            sched.stall_cycles,
            seq.total_cycles() as f64 / sched.total_cycles() as f64,
            if ok { "yes" } else { "NO" },
        );
        assert!(ok, "schedule must stay exact and template-clean");
    }

    println!(
        "\nThe flat 8-wide view and mem_bound share a width, but the single\n\
         memory port and 3-cycle loads cap LL3's reduction: the description\n\
         layer turns 'how many slots' into 'which slots, how long'."
    );
}
