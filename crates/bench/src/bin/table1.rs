//! Regenerate the paper's **Table 1**: observed speed-up of GRiP vs POST
//! on the Livermore Loops at 2, 4 and 8 functional units, with Mean and
//! weighted-harmonic-mean rows, printed beside the paper's numbers.
//!
//! Every cell is backed by a bitwise simulation equivalence check of the
//! transformed program against the sequential original.
//!
//! Usage: `table1 [trip-count]` (default n = 100; one worker-pool shard
//! per kernel). Any other argument exits 2.

#![forbid(unsafe_code)]

use grip_bench::{render_table1, table1};

fn main() {
    let n = grip_bench::sweep_args("table1 [trip-count]", 100, None);

    eprintln!("Table 1 sweep: n = {n}, {} kernels × 3 widths × 2 schedulers …", 14);
    let t0 = std::time::Instant::now();
    let rows = table1(n);
    eprintln!("measured in {:.1?}\n", t0.elapsed());

    println!("Table 1: Observed Speed-up (measured vs paper)");
    println!("==============================================");
    print!("{}", render_table1(&rows));

    // Machine-readable record for EXPERIMENTS.md.
    let json = grip_bench::json::Json::Arr(rows.iter().map(|r| r.to_json()).collect()).pretty();
    let path = "results_table1.json";
    if std::fs::write(path, json).is_ok() {
        eprintln!("\nwrote {path}");
    }

    // Qualitative checks from the paper's prose.
    let mut violations = Vec::new();
    for r in &rows {
        for (i, c) in r.cells.iter().enumerate() {
            if !c.verified {
                violations.push(format!("{} @{}FU: simulation mismatch", r.name, [2, 4, 8][i]));
            }
            if c.grip + 0.45 < c.post {
                violations.push(format!(
                    "{} @{}FU: POST {:.2} > GRiP {:.2}",
                    r.name,
                    [2, 4, 8][i],
                    c.post,
                    c.grip
                ));
            }
        }
    }
    if violations.is_empty() {
        println!("\nAll cells verified; GRiP >= POST (within estimator noise) everywhere.");
    } else {
        println!("\nVIOLATIONS:");
        for v in violations {
            println!("  {v}");
        }
        std::process::exit(1);
    }
}
