//! Sweep machine widths (and a bounded branch-tree ablation) over one
//! kernel to see where its dependence structure saturates the speedup —
//! the §1 argument for making resource constraints part of scheduling.
//!
//! Run with: `cargo run --release --example custom_machine -- LL5`

use grip::kernels::kernels;
use grip::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("LL5");
    let k = kernels().iter().find(|k| k.name.eq_ignore_ascii_case(name)).expect("LL1..LL14");
    println!("{}: {} [{}]\n", k.name, k.description, k.class);
    println!("{:<6} {:>10} {:>10}", "FUs", "CPI", "speedup");
    for fus in [1usize, 2, 3, 4, 6, 8, 12, 16] {
        let mut g = (k.build)(100);
        let rep = perfect_pipeline(
            &mut g,
            PipelineOptions {
                unwind: (2 * fus).clamp(8, 20),
                machine: MachineDesc::uniform(fus),
                ..Default::default()
            },
        );
        println!(
            "{:<6} {:>10.2} {:>10.2}",
            fus,
            rep.pipelined_cpi().unwrap_or(f64::NAN),
            rep.speedup().unwrap_or(f64::NAN)
        );
    }

    // Ablation: a machine with only one conditional jump per instruction
    // cannot overlap the unwound loop-control branches.
    println!("\nbranch-tree ablation at 8 FUs:");
    for cjs in [usize::MAX, 2, 1] {
        let mut g = (k.build)(100);
        let rep = perfect_pipeline(
            &mut g,
            PipelineOptions {
                unwind: 12,
                machine: MachineDesc { cjs, ..MachineDesc::uniform(8) },
                ..Default::default()
            },
        );
        let label =
            if cjs == usize::MAX { "tree (unbounded)".into() } else { format!("{cjs} cj/instr") };
        println!("  {:<18} speedup {:.2}", label, rep.speedup().unwrap_or(f64::NAN));
    }
}
