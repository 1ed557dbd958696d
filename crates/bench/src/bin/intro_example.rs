//! Regenerate the **§1 motivating example**: a vectorizable loop with five
//! operations on a 4-FU machine. Separating resource constraints from
//! pipelining (POST) converges to its natural one-iteration shape and then
//! pays ceil(ops/width) instructions per iteration; GRiP lets resource
//! constraints decide how many iterations enter the loop body and packs
//! the machine ("4 operations per instruction").

#![forbid(unsafe_code)]

use grip_baselines::{post_pipeline, PostOptions};
use grip_bench::examples::intro_five_op_loop;
use grip_machine::MachineDesc;
use grip_pipeline::{perfect_pipeline, PipelineOptions};

fn main() {
    let n = 80i64;
    let fus = 4usize;

    let mut g_grip = intro_five_op_loop(n);
    let grip = perfect_pipeline(
        &mut g_grip,
        PipelineOptions {
            unwind: 12,
            machine: MachineDesc::uniform(fus),
            fold_inductions: true,
            gap_prevention: true,
            dce: true,
            try_roll: false,
            audit: false,
        },
    );

    let mut g_post = intro_five_op_loop(n);
    let post = post_pipeline(&mut g_post, PostOptions::vliw(12, fus));

    let ops_per_iter = 5.0;
    println!("§1 example: 5-op vectorizable loop on a {fus}-FU machine\n");
    for (name, rep) in [("GRiP", &grip), ("POST", &post)] {
        let cpi = rep.pipelined_cpi().unwrap_or(f64::NAN);
        println!(
            "  {name}: {cpi:.2} instructions/iteration  ->  {:.2} useful ops/instruction (speedup {:.2})",
            ops_per_iter / cpi,
            rep.speedup().unwrap_or(f64::NAN),
        );
    }
    println!(
        "\npaper: unconstrained techniques reach 5 ops every 2 instructions\n\
         (2.5 ops/instr); GRiP fills the machine at ~4 ops/instr."
    );
}
