//! # grip-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation:
//!
//! * `table1` binary — Table 1 (GRiP vs POST speedups on LL1–LL14 at
//!   2/4/8 FUs, Mean and WHM rows), measured vs paper side by side;
//! * `fig1_instruction_tree`, `fig23_core_transforms`,
//!   `fig56_pipelining`, `fig8_11_traces`, `fig9_13_gaps`,
//!   `intro_example` binaries — the worked figures;
//! * criterion benches (`sched_cost`, `table1`, `simulator`) — the §1/§3.1
//!   computational-efficiency claims and raw substrate throughput.
//!
//! * `machines` binary — the preset sweep: every [`grip_machine::MachineDesc`]
//!   preset over LL1–LL14, with latency-aware simulation
//!   (`BENCH_machines.json`).
//!
//! The kernel sweeps run one worker-pool shard per kernel
//! ([`per_kernel`]). Reports are serialized by the dependency-free
//! [`json`] module.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod examples;
pub mod golden;
pub mod machines;

/// JSON serialization, re-exported from [`grip_json`] (the writer lived
/// here before the service layer needed it without the bench crate).
pub use grip_json as json;

use grip_baselines::{post_pipeline, PostOptions};
use grip_ir::Graph;
use grip_json::Json;
use grip_kernels::Kernel;
use grip_machine::MachineDesc;
use grip_pipeline::{perfect_pipeline, PipelineOptions, PipelineReport};
use grip_service::default_unwind;
use grip_vm::{EquivReport, Machine};

/// One (kernel × FU) measurement.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// GRiP loop-body speedup.
    pub grip: f64,
    /// POST loop-body speedup.
    pub post: f64,
    /// Whether the GRiP schedule converged to an exact pattern (vs slope
    /// estimate).
    pub grip_exact_pattern: bool,
    /// Scheduled-graph simulation matched the sequential program bitwise.
    pub verified: bool,
}

impl Cell {
    /// Serialize for the machine-readable report.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("grip", self.grip)
            .field("post", self.post)
            .field("grip_exact_pattern", self.grip_exact_pattern)
            .field("verified", self.verified)
    }
}

/// One Table 1 row.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Kernel name (`LL1`…).
    pub name: String,
    /// Dependence class.
    pub class: String,
    /// Measured cells at 2/4/8 FUs.
    pub cells: [Cell; 3],
    /// Paper's GRiP numbers.
    pub paper_grip: [f64; 3],
    /// Paper's POST numbers.
    pub paper_post: [f64; 3],
    /// Sequential cycles per iteration (the baseline).
    pub seq_cpi: f64,
}

impl Table1Row {
    /// Serialize for the machine-readable report.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("name", self.name.as_str())
            .field("class", self.class.as_str())
            .field("cells", self.cells.iter().map(Cell::to_json).collect::<Vec<_>>())
            .field("paper_grip", self.paper_grip.iter().map(|&x| Json::Num(x)).collect::<Vec<_>>())
            .field("paper_post", self.paper_post.iter().map(|&x| Json::Num(x)).collect::<Vec<_>>())
            .field("seq_cpi", self.seq_cpi)
    }
}

/// The FU configurations of Table 1.
pub const FUS: [usize; 3] = [2, 4, 8];

/// Run GRiP (Table 1 configuration) on a kernel at the given width.
pub fn run_grip(k: &Kernel, n: i64, fus: usize) -> (Graph, PipelineReport) {
    let mut g = (k.build)(n);
    let rep = perfect_pipeline(
        &mut g,
        PipelineOptions {
            unwind: default_unwind(fus),
            machine: MachineDesc::uniform(fus),
            fold_inductions: true,
            gap_prevention: true,
            dce: true,
            try_roll: false,
            audit: false,
        },
    );
    (g, rep)
}

/// Run POST on a kernel at the given width.
pub fn run_post(k: &Kernel, n: i64, fus: usize) -> (Graph, PipelineReport) {
    let mut g = (k.build)(n);
    let rep = post_pipeline(&mut g, PostOptions::vliw(default_unwind(fus), fus));
    (g, rep)
}

/// Bitwise-compare a transformed kernel graph against the sequential
/// original on the standard inputs.
pub fn verify_kernel(k: &Kernel, g0: &Graph, g1: &Graph, n: i64) -> bool {
    let mut m0 = Machine::for_graph(g0);
    (k.init)(g0, &mut m0, n);
    if m0.run(g0).is_err() {
        return false;
    }
    let mut m1 = Machine::for_graph(g1);
    (k.init)(g1, &mut m1, n);
    if m1.run(g1).is_err() {
        return false;
    }
    EquivReport::compare(g0, &m0, &m1).is_equal()
}

/// Measure one kernel across the three widths.
pub fn measure_kernel(k: &Kernel, n: i64) -> Table1Row {
    let mut cells = Vec::with_capacity(3);
    let mut seq_cpi = 0.0;
    for &fus in &FUS {
        let g0 = (k.build)(n);
        let (g_grip, grip) = run_grip(k, n, fus);
        let (g_post, post) = run_post(k, n, fus);
        seq_cpi = grip.seq_cpi();
        let verified = verify_kernel(k, &g0, &g_grip, n) && verify_kernel(k, &g0, &g_post, n);
        cells.push(Cell {
            grip: grip.speedup().unwrap_or(f64::NAN),
            post: post.speedup().unwrap_or(f64::NAN),
            grip_exact_pattern: grip.pattern.is_some(),
            verified,
        });
    }
    Table1Row {
        name: k.name.to_string(),
        class: k.class.to_string(),
        cells: [cells[0], cells[1], cells[2]],
        paper_grip: k.paper_grip,
        paper_post: k.paper_post,
        seq_cpi,
    }
}

/// `measure` applied to every kernel on the service worker pool, one
/// shard per kernel; the results come back in kernel order.
pub fn per_kernel<R: Send + 'static>(
    measure: impl Fn(&'static Kernel) -> R + Send + Sync + 'static,
) -> Vec<R> {
    let ks = grip_kernels::kernels();
    let pool = grip_service::pool::ShardedPool::new(ks.len(), |_| (), move |_, _, k, _| measure(k));
    pool.map_batch(ks.iter().enumerate())
}

/// Measure all kernels, one pool shard per kernel.
pub fn table1(n: i64) -> Vec<Table1Row> {
    per_kernel(move |k| measure_kernel(k, n))
}

/// Read a sweep bin's arguments strictly: an optional trip count
/// (default `default_n`) and, when the bin writes to `out`, an optional
/// `--out PATH` that replaces it. Any other argument prints `usage` and
/// exits with status 2, before any work runs.
pub fn sweep_args(usage: &str, default_n: i64, mut out: Option<&mut String>) -> i64 {
    let mut n = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--out" {
            if let (Some(path), Some(p)) = (out.as_deref_mut(), args.next()) {
                *path = p;
                continue;
            }
        } else if let (Ok(v @ 1..), None) = (arg.parse::<i64>(), n) {
            n = Some(v);
            continue;
        }
        eprintln!("unexpected argument {arg:?}\nusage: {usage}");
        std::process::exit(2);
    }
    n.unwrap_or(default_n)
}

/// Arithmetic mean of a column.
pub fn mean(vals: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = vals.filter(|x| x.is_finite()).collect();
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Harmonic mean weighted by sequential work per iteration (the paper's
/// WHM row; heavier loops count more).
pub fn whm<'a>(rows: impl Iterator<Item = (&'a Table1Row, f64)>) -> f64 {
    let mut wsum = 0.0;
    let mut acc = 0.0;
    for (row, speedup) in rows {
        if speedup.is_finite() && speedup > 0.0 {
            wsum += row.seq_cpi;
            acc += row.seq_cpi / speedup;
        }
    }
    wsum / acc.max(f64::MIN_POSITIVE)
}

/// Format the measured table next to the paper's numbers.
pub fn render_table1(rows: &[Table1Row]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "            2 FU's          4 FU's          8 FU's");
    let _ = writeln!(
        s,
        "{:<6} {:>6} {:>6}   {:>6} {:>6}   {:>6} {:>6}   verified",
        "Loop", "GRiP", "POST", "GRiP", "POST", "GRiP", "POST"
    );
    for r in rows {
        let v = r.cells.iter().all(|c| c.verified);
        let _ = writeln!(
            s,
            "{:<6} {:>6.1} {:>6.1}   {:>6.1} {:>6.1}   {:>6.1} {:>6.1}   {}",
            r.name,
            r.cells[0].grip,
            r.cells[0].post,
            r.cells[1].grip,
            r.cells[1].post,
            r.cells[2].grip,
            r.cells[2].post,
            if v { "yes" } else { "NO" },
        );
        let _ = writeln!(
            s,
            "{:<6} {:>6.1} {:>6.1}   {:>6.1} {:>6.1}   {:>6.1} {:>6.1}   (paper)",
            "",
            r.paper_grip[0],
            r.paper_post[0],
            r.paper_grip[1],
            r.paper_post[1],
            r.paper_grip[2],
            r.paper_post[2],
        );
    }
    let mg: Vec<f64> = (0..3).map(|i| mean(rows.iter().map(|r| r.cells[i].grip))).collect();
    let mp: Vec<f64> = (0..3).map(|i| mean(rows.iter().map(|r| r.cells[i].post))).collect();
    let hg: Vec<f64> = (0..3).map(|i| whm(rows.iter().map(|r| (r, r.cells[i].grip)))).collect();
    let hp: Vec<f64> = (0..3).map(|i| whm(rows.iter().map(|r| (r, r.cells[i].post)))).collect();
    let _ = writeln!(
        s,
        "{:<6} {:>6.1} {:>6.1}   {:>6.1} {:>6.1}   {:>6.1} {:>6.1}",
        "Mean", mg[0], mp[0], mg[1], mp[1], mg[2], mp[2]
    );
    let _ = writeln!(
        s,
        "{:<6} {:>6.1} {:>6.1}   {:>6.1} {:>6.1}   {:>6.1} {:>6.1}",
        "WHM", hg[0], hp[0], hg[1], hp[1], hg[2], hp[2]
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means_and_whm_behave() {
        assert!((mean([2.0, 4.0].into_iter()) - 3.0).abs() < 1e-12);
        let row = Table1Row {
            name: "X".into(),
            class: "t".into(),
            cells: [Cell { grip: 2.0, post: 2.0, grip_exact_pattern: true, verified: true }; 3],
            paper_grip: [2.0; 3],
            paper_post: [2.0; 3],
            seq_cpi: 6.0,
        };
        let h = whm([(&row, 2.0), (&row, 4.0)].into_iter());
        assert!((h - 8.0 / 3.0).abs() < 1e-9, "weighted harmonic mean of 2 and 4: {h}");
    }

    #[test]
    fn single_kernel_measurement_is_sane() {
        let k = grip_kernels::kernels().iter().find(|k| k.name == "LL12").unwrap();
        let row = measure_kernel(k, 40);
        assert!(row.cells.iter().all(|c| c.verified), "{row:?}");
        assert!(row.cells[0].grip >= 1.5);
        assert!(row.cells[2].grip >= row.cells[0].grip - 0.2, "more FUs never hurt much");
        assert!(row.cells[2].grip >= row.cells[2].post - 0.35, "GRiP >= POST");
    }
}
