//! Run any Livermore kernel through the full GRiP and POST stacks and
//! compare against the paper's Table 1 row.
//!
//! Run with: `cargo run --release --example livermore -- LL3 8`

use grip::baselines::{post_pipeline, PostOptions};
use grip::kernels::{default_init, kernels};
use grip::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("LL1");
    let fus: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
    let n = 100i64;

    let Some(k) = kernels().iter().find(|k| k.name.eq_ignore_ascii_case(name)) else {
        eprintln!("unknown kernel {name}; use LL1..LL14");
        std::process::exit(2);
    };
    println!("{}: {} [{}]", k.name, k.description, k.class);

    let g0 = (k.build)(n);
    let mut g_grip = g0.clone();
    let grip = perfect_pipeline(
        &mut g_grip,
        PipelineOptions {
            machine: MachineDesc::uniform(fus),
            unwind: 3 * fus,
            ..Default::default()
        },
    );
    let mut g_post = g0.clone();
    let post = post_pipeline(&mut g_post, PostOptions::vliw(3 * fus, fus));

    let idx = match fus {
        2 => Some(0),
        4 => Some(1),
        8 => Some(2),
        _ => None,
    };
    println!("\n{fus} functional units:");
    println!(
        "  GRiP speedup {:.2}{}",
        grip.speedup().unwrap_or(f64::NAN),
        idx.map(|i| format!("   (paper: {:.1})", k.paper_grip[i])).unwrap_or_default()
    );
    println!(
        "  POST speedup {:.2}{}",
        post.speedup().unwrap_or(f64::NAN),
        idx.map(|i| format!("   (paper: {:.1})", k.paper_post[i])).unwrap_or_default()
    );

    // Verify both against the sequential original.
    for (label, gt) in [("GRiP", &g_grip), ("POST", &g_post)] {
        let mut m0 = Machine::for_graph(&g0);
        default_init(&g0, &mut m0, n);
        m0.run(&g0).unwrap();
        let mut m1 = Machine::for_graph(gt);
        default_init(gt, &mut m1, n);
        m1.run(gt).unwrap();
        let ok = EquivReport::compare(&g0, &m0, &m1).is_equal();
        println!("  {label} simulation: {}", if ok { "bitwise identical" } else { "MISMATCH" });
        assert!(ok);
    }
}
