//! Golden-schedule pinning: the optimized scheduler must reproduce the
//! pre-optimization schedules bit for bit.
//!
//! `tests/golden_schedules.json` holds a structural digest (full graph
//! listing + region row order), the steady row count, and the
//! latency-aware model cycles for every machine preset × Livermore
//! kernel, captured from the scheduler *before* the hot-loop rewrite.
//! This test recomputes each cell with the current build, through the
//! `machines` sweep's own `measure_machine`, and asserts the digest is
//! unchanged — any drift in candidate order, renaming, landing rows, or
//! residue fails loudly.
//!
//! Every cell, waived or not, also pins every scheduler counter of
//! `ScheduleStats` (`picks`, `resource_blocks`, `latency_blocks`, …),
//! the `stats` object each wire response carries. Digests alone can miss
//! a pick-loop change that picks or blocks differently but happens to
//! land on the same schedule; the counters catch it.
//!
//! Cells listed in [`WAIVED`] are *deliberately* shifted (the multi-hop
//! hazard backfill pulls ready ops past full intermediate rows on
//! multi-latency machines, which the pinned scheduler could not do) and
//! are instead held to a strictly-no-worse bar: `sched_cycles` and rows
//! must not exceed the pinned values.
//!
//! The full 84-cell grid runs in release builds (CI's golden gate) or
//! when `GOLDEN_FULL` is set; debug test runs cover a four-kernel
//! column of the grid to keep `cargo test` fast.

use grip_bench::machines::{machine_table, measure_machine};
use grip_json::Json;
use grip_machine::MachineDesc;
use std::collections::HashMap;

/// (machine, kernel) cells whose schedule the multi-hop hazard backfill
/// deliberately improves past the pinned digest. Each is asserted
/// `sched_cycles`-no-worse (and rows-no-worse) instead of bit-identical.
const WAIVED: &[(&str, &str)] = &[
    ("clustered", "LL2"),
    ("clustered", "LL6"),
    ("clustered", "LL7"),
    ("clustered", "LL9"),
    ("mem_bound", "LL2"),
    ("mem_bound", "LL10"),
    ("mem_bound", "LL13"),
    ("mem_bound", "LL14"),
];

/// Kernels exercised in the fast (debug) configuration: a branchy loop
/// (LL6 has the inner recurrence), a multi-hop-waived column, a
/// bit-identical column, and LL14, where the suspension floor drops
/// under a live candidate scan: a scan that misses the drop changes
/// uniform8's pick count but not its digest.
const QUICK_KERNELS: &[&str] = &["LL3", "LL6", "LL12", "LL14"];

#[test]
fn schedules_match_pinned_goldens() {
    let src = include_str!("golden_schedules.json");
    let doc = Json::parse(src).expect("golden json parses");
    let n = doc.get("trip_count").and_then(Json::as_i64).expect("trip_count");
    let mut pinned: HashMap<(String, String), (String, i64, i64, &Json)> = HashMap::new();
    for c in doc.get("cells").and_then(Json::as_arr).expect("cells") {
        let s = |k: &str| c.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        let i = |k: &str| c.get(k).and_then(Json::as_i64).expect("pinned integer field");
        pinned.insert((s("machine"), s("kernel")), (s("digest"), i("rows"), i("sched_cycles"), c));
    }
    assert_eq!(pinned.len(), 84, "the pinned grid covers 6 presets x 14 kernels");

    let full = !cfg!(debug_assertions) || std::env::var("GOLDEN_FULL").is_ok();
    let cells = if full {
        machine_table(n, true)
    } else {
        let presets = MachineDesc::presets();
        grip_kernels::kernels()
            .iter()
            .filter(|k| QUICK_KERNELS.contains(&k.name))
            .flat_map(|k| presets.iter().map(move |&d| measure_machine(k, n, d)))
            .collect()
    };
    assert!(!cells.is_empty());

    let mut checked = 0;
    for cell in &cells {
        let key = (cell.machine.clone(), cell.kernel.clone());
        let (digest, rows, cycles, pinned_cell) = pinned
            .get(&key)
            .unwrap_or_else(|| {
                panic!("{}/{}: cell not pinned — recapture the goldens", key.0, key.1)
            })
            .clone();
        for (name, v) in cell.stats.named() {
            let want = pinned_cell.get(name).and_then(Json::as_i64);
            assert_eq!(Some(v as i64), want, "{}/{}: counter {name} drifted", key.0, key.1);
        }
        if WAIVED.contains(&(cell.machine.as_str(), cell.kernel.as_str())) {
            assert!(
                cell.sched_cycles as i64 <= cycles,
                "{}/{}: waived cell regressed sched_cycles {} -> {} (pinned bar)",
                key.0,
                key.1,
                cycles,
                cell.sched_cycles
            );
            assert!(
                cell.schedule_rows as i64 <= rows,
                "{}/{}: waived cell regressed rows {} -> {}",
                key.0,
                key.1,
                rows,
                cell.schedule_rows
            );
        } else {
            assert_eq!(
                format!("{:016x}", cell.digest),
                digest,
                "{}/{}: schedule digest drifted from the pinned golden \
                 (rows {} -> {}, sched_cycles {} -> {})",
                key.0,
                key.1,
                rows,
                cell.schedule_rows,
                cycles,
                cell.sched_cycles
            );
            assert_eq!(cell.schedule_rows as i64, rows, "{}/{}: rows", key.0, key.1);
            assert_eq!(cell.sched_cycles as i64, cycles, "{}/{}: sched_cycles", key.0, key.1);
        }
        checked += 1;
    }
    assert_eq!(checked, if full { 84 } else { QUICK_KERNELS.len() * 6 });
}
