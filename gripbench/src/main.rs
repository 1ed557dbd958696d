//! gripbench — one benchmark for grip: cold compile, hot serve and mixed
//! serve, each checked response by response, with a traced run that
//! breaks the time down by layer.
//!
//! ```text
//! gripbench --workload cold_compile|hot_serve|mixed_serve --seed N
//!           --seconds S --trace 0|1 --serve-bin PATH [--out-dir DIR]
//! ```
//!
//! Prints a run record and every metric with its unit, then, as the last
//! line, one JSON object: `{"correct", "attempted", "failed", "metrics"}`
//! holding the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). A traced run also writes its spans to
//! `DIR/<workload>-seed<N>.spans.jsonl`. See `README.md` beside this crate.

mod check;
mod cold;
mod gen;
mod layers;
mod probe;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

/// The workloads, in report order.
pub const WORKLOADS: [&str; 3] = ["cold_compile", "hot_serve", "mixed_serve"];

/// The end-to-end metrics, in report order, with their units.
pub const E2E_METRICS: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("pass_rate", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("speedup_geomean", "ratio"),
];

/// Printed with the end-to-end metrics but not gated: the tail did not
/// repeat within any bound on the shared host the benchmark was tuned on
/// (ten-seed quartile spreads of 33% on `cold_compile` and 44% on
/// `hot_serve`), so it is reported, and carried as a per-layer metric.
pub const REPORT_ONLY: (&str, &str) = ("latency_tail_ms", "ms");

/// A run that has not finished by then is stopped: a run must end within
/// 180 s, and a hung server must not hold the benchmark.
const WATCHDOG: Duration = Duration::from_secs(170);

pub struct Cfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
    pub out_dir: PathBuf,
}

/// Checked responses: how many, how many failed, and the first reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub why: Vec<String>,
}

impl Tally {
    pub fn count(&mut self, pass: bool) {
        self.attempted += 1;
        self.failed += u64::from(!pass);
    }

    pub fn fail(&mut self, why: String) {
        self.count(false);
        if self.why.len() < check::MAX_REASONS {
            self.why.push(why);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = check::MAX_REASONS.saturating_sub(self.why.len());
        self.why.extend(other.why.into_iter().take(room));
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics: name, value, how it was taken.
    pub e2e: Vec<(&'static str, f64, String)>,
    /// Run-record lines (rates, shard counts, sample counts).
    pub record: Vec<String>,
    /// Failed whole-run checks (trace coverage, miss share).
    pub broken: Vec<String>,
    pub tally: Tally,
    /// The traced pass's layer data and spans.
    pub traced: Option<(layers::LayerData, trace::Tracer)>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &'static str, value: f64, note: String) {
        self.e2e.push((name, value, note));
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, MiB (0 when unreadable).
pub fn vm_hwm_mib(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn rss_self_mib() -> f64 {
    vm_hwm_mib("/proc/self/status")
}

fn usage(msg: &str) -> ! {
    eprintln!("gripbench: {msg}");
    eprintln!(
        "usage: gripbench --workload {} --seed N --seconds S --trace 0|1 --serve-bin PATH [--out-dir DIR]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Cfg {
    let mut cfg = Cfg {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        serve_bin: PathBuf::new(),
        out_dir: PathBuf::from(".bench_build/gripbench"),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(v) = it.next() else { usage(&format!("{flag} needs a value")) };
        let bad = || -> ! { usage(&format!("bad value {v:?} for {flag}")) };
        match flag.as_str() {
            "--workload" => cfg.workload = v.clone(),
            "--seed" => cfg.seed = v.parse().unwrap_or_else(|_| bad()),
            "--seconds" => {
                cfg.seconds = v.parse().ok().filter(|s: &f64| *s > 0.0).unwrap_or_else(|| bad())
            }
            "--trace" => {
                cfg.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            "--serve-bin" => cfg.serve_bin = PathBuf::from(v),
            "--out-dir" => cfg.out_dir = PathBuf::from(v),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        usage(&format!("unknown workload {:?}", cfg.workload));
    }
    if cfg.workload != "cold_compile" && !cfg.serve_bin.is_file() {
        usage(&format!("no grip-serve binary at {:?}", cfg.serve_bin));
    }
    cfg
}

/// Host and build facts printed with every result.
fn host_record(cfg: &Cfg) -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    vec![
        format!(
            "host: nproc={nproc} kernel={} rustc=\"{}\" commit={}",
            kernel.trim(),
            env("GRIPBENCH_RUSTC"),
            env("GRIPBENCH_COMMIT")
        ),
        format!(
            "run: workload={} seed={} seconds={} trace={}",
            cfg.workload,
            cfg.seed,
            cfg.seconds,
            u8::from(cfg.trace)
        ),
    ]
}

/// A metric value as JSON: every digit as measured (non-finite → 0).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let cfg = parse_args();
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("gripbench: run exceeded {} s; stopping", WATCHDOG.as_secs());
        std::process::exit(3);
    });
    let result = match cfg.workload.as_str() {
        "cold_compile" => Ok(cold::run(&cfg)),
        "hot_serve" => serve::run_hot(&cfg),
        _ => serve::run_mixed(&cfg),
    };
    let mut out = result.unwrap_or_else(|e| {
        eprintln!("gripbench: {} failed: {e}", cfg.workload);
        std::process::exit(1)
    });

    for line in host_record(&cfg).iter().chain(&out.record) {
        println!("{line}");
    }
    let t = &out.tally;
    let pass_rate = if t.attempted == 0 { 0.0 } else { 1.0 - t.failed as f64 / t.attempted as f64 };
    out.e2e.push((
        "pass_rate",
        pass_rate,
        format!("{} of {} checked responses passed", t.attempted - t.failed, t.attempted),
    ));
    println!(
        "checks: {} responses checked, {} failed (error_rate {})",
        t.attempted,
        t.failed,
        num(1.0 - pass_rate)
    );
    for why in t.why.iter().chain(&out.broken) {
        println!("FAILED: {why}");
    }

    let unit = |table: &[(&str, &'static str)], name: &str| {
        table.iter().find(|(n, _)| *n == name).map_or("", |(_, u)| *u)
    };
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    for (name, _) in E2E_METRICS {
        if let Some((_, v, note)) = out.e2e.iter().find(|(n, _, _)| *n == name) {
            println!("end-to-end {name} = {} {} ({note})", num(*v), unit(&E2E_METRICS, name));
            if !cfg.trace {
                metrics.push((name.to_string(), *v, unit(&E2E_METRICS, name)));
            }
        }
    }
    let tail = out.e2e.iter().find(|(n, _, _)| *n == REPORT_ONLY.0).map(|(_, v, note)| (*v, note));
    if let Some((v, note)) = tail {
        println!("report-only {} = {} {} ({note})", REPORT_ONLY.0, num(v), REPORT_ONLY.1);
    }
    if let Some((mut data, tracer)) = out.traced.take() {
        data.error_rate = 1.0 - pass_rate;
        data.tail_ms = tail.map_or(0.0, |(v, _)| v);
        for (name, v) in layers::per_layer(&data, &tracer.totals()) {
            let u = unit(&layers::LAYER_METRICS, &name);
            println!("layer {name} = {} {u}", num(v));
            metrics.push((name, v, u));
        }
        let path = cfg.out_dir.join(format!("{}-seed{}.spans.jsonl", cfg.workload, cfg.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("spans not written to {}: {e}", path.display()),
        }
    }

    let correct = t.failed == 0 && out.broken.is_empty() && t.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", num(*v)))
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        t.attempted.max(1),
        t.failed,
        body.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn every_metric_and_workload_name_is_well_formed() {
        let names = WORKLOADS
            .iter()
            .copied()
            .chain(E2E_METRICS.iter().map(|m| m.0))
            .chain(layers::LAYER_METRICS.iter().map(|m| m.0));
        let mut seen = std::collections::HashSet::new();
        for n in names {
            assert!(valid_name(n), "{n:?}");
            assert!(seen.insert(n), "{n} is used twice");
        }
    }

    /// The names this binary prints are the ones `BENCHMARK.json` declares.
    #[test]
    fn benchmark_json_declares_exactly_these_names() {
        let j = grip_json::Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            j.get(key)
                .and_then(grip_json::Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |f: &str| {
                        m.get(f).and_then(grip_json::Json::as_str).unwrap_or("").to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names("end_to_end"), own(&E2E_METRICS));
        assert_eq!(names("per_layer"), own(&layers::LAYER_METRICS));
        let wl: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(wl, WORKLOADS);
    }
}
