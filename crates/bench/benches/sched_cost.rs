//! The paper's efficiency claim (§1, §3.1): GRiP's trivially-maintained
//! Moveable-ops sets vs the Unifiable-ops technique's per-pick membership
//! walks. Measures wall-clock scheduling time on identical inputs.

#[path = "harness.rs"]
mod harness;

use grip_analysis::{Ddg, RankTable};
use grip_baselines::schedule_unifiable;
use grip_core::{schedule_region, GripConfig};
use grip_ir::Graph;
use grip_kernels::kernels;
use grip_machine::MachineDesc;
use grip_percolate::Ctx;
use grip_pipeline::{simplify_inductions, unwind};

/// Unwound, simplified window for a kernel, ready for scheduling.
fn prep(name: &str, u: usize) -> (Graph, Vec<grip_ir::NodeId>) {
    let k = kernels().iter().find(|k| k.name == name).unwrap();
    let mut g = (k.build)(64);
    let w = unwind(&mut g, u);
    simplify_inductions(&mut g, &w.rows);
    (g, w.rows)
}

fn main() {
    println!("scheduler_cost");
    for (kernel, u) in [("LL1", 6), ("LL7", 4), ("LL12", 8)] {
        harness::bench(
            &format!("grip/{kernel}_u{u}"),
            || prep(kernel, u),
            |(mut g, rows)| {
                let ddg = Ddg::build(&g, g.entry);
                let mut ctx = Ctx::new(&g, &ddg);
                let ranks = RankTable::new(&ddg, true);
                let out = schedule_region(
                    &mut g,
                    &mut ctx,
                    &ranks,
                    GripConfig {
                        machine: MachineDesc::uniform(4),
                        gap_prevention: true,
                        dce: true,
                        speculation: Default::default(),
                        trace: false,
                    },
                    rows,
                );
                (out.stats.hops, g)
            },
        );
        harness::bench(
            &format!("unifiable/{kernel}_u{u}"),
            || prep(kernel, u),
            |(mut g, rows)| {
                let ddg = Ddg::build(&g, g.entry);
                let mut ctx = Ctx::new(&g, &ddg);
                let ranks = RankTable::new(&ddg, true);
                let out =
                    schedule_unifiable(&mut g, &mut ctx, &ranks, MachineDesc::uniform(4), rows);
                (out.0.hops, g)
            },
        );
    }
}
