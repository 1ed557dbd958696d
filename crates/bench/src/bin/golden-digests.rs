//! Regenerate `tests/golden_schedules.json`: the pinned structural
//! digests of every preset × kernel schedule (see `grip_bench::golden`),
//! taken from the same cells the `machines` sweep measures, one worker
//! pool shard per kernel.
//!
//! Run this ONLY when a schedule change is intended and reviewed — the
//! `golden_schedules` test exists precisely to catch unintended drift
//! from scheduler rewrites.
//!
//! Usage: `golden-digests [trip-count] [--out PATH]` (default n = 24,
//! writes `tests/golden_schedules.json`). Any other argument exits 2.

#![forbid(unsafe_code)]

use grip_bench::golden::golden_json;
use grip_bench::machines::machine_table;

fn main() {
    let mut out = "tests/golden_schedules.json".to_string();
    let n = grip_bench::sweep_args("golden-digests [trip-count] [--out PATH]", 24, Some(&mut out));

    eprintln!("golden digests: n = {n}, 14 kernels × 6 presets …");
    let t0 = std::time::Instant::now();
    let cells = machine_table(n, true);
    eprintln!("captured {} cells in {:.1?}", cells.len(), t0.elapsed());

    match std::fs::write(&out, golden_json(n, &cells).pretty()) {
        Ok(()) => eprintln!("wrote {out}"),
        Err(e) => {
            eprintln!("could not write {out}: {e}");
            std::process::exit(1);
        }
    }
}
