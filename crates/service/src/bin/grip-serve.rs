//! `grip-serve` — the scheduling server.
//!
//! Speaks the JSON-lines protocol (one request per line, one response per
//! line, request order preserved; see `grip_service::proto`).
//!
//! ```text
//! grip-serve                      # serve stdin → stdout until EOF
//! grip-serve --tcp 127.0.0.1:7411 # serve TCP connections forever
//!   --shards N                    # worker shards (default: cores, ≤ 8)
//!   --ddg-cache N                 # prepared-window entries per shard
//!   --sched-cache N               # schedule entries per shard
//!   --slow-ms N                   # flight-recorder slow threshold: any
//!                                 # request slower than N ms retains its
//!                                 # full span list and pass counters
//!   --sample-ms N                 # metrics sampling period for the
//!                                 # rolling window (default 1000)
//! ```
//!
//! The server ticks the process-wide window aggregator once at boot and
//! then every `--sample-ms`, so `{"cmd":"stats"}` answers carry windowed
//! rates and percentiles from the first request on. The stdin mode prints
//! aggregate cache statistics to stderr at EOF, so `emit | grip-serve |
//! check` pipelines get a throughput summary for free.

#![forbid(unsafe_code)]

use grip_service::{proto, Service, ServiceConfig};
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: grip-serve [--tcp ADDR] [--shards N] [--ddg-cache N] [--sched-cache N] \
         [--slow-ms N] [--sample-ms N]"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ServiceConfig::default();
    let mut tcp: Option<String> = None;
    let mut slow_ms: Option<u64> = None;
    let mut sample_ms: u64 = 1000;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |what: &str| -> usize {
            it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("--{what} needs a number");
                usage()
            })
        };
        match a.as_str() {
            "--tcp" => tcp = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--shards" => cfg.shards = num("shards"),
            "--ddg-cache" => cfg.engine.ddg_cache_cap = num("ddg-cache"),
            "--sched-cache" => cfg.engine.sched_cache_cap = num("sched-cache"),
            "--slow-ms" => slow_ms = Some(num("slow-ms") as u64),
            "--sample-ms" => sample_ms = (num("sample-ms") as u64).max(10),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }

    // Touch the flight recorder now so its monotonic epoch predates every
    // request — journal timestamps then never saturate at zero.
    let recorder = grip_obs::events::global();
    if let Some(ms) = slow_ms {
        recorder.set_slow_threshold_ns(ms.saturating_mul(1_000_000));
        eprintln!("[grip-serve] slow-request capture at >= {ms} ms");
    }
    // Seed the rolling window with a boot baseline, then keep sampling in
    // the background: `{"cmd":"stats"}` diffs against the oldest retained
    // snapshot, so the window is live from the first request.
    grip_obs::window::global().tick_registry(grip_obs::global());
    std::thread::Builder::new()
        .name("grip-obs-sampler".to_string())
        .spawn(move || loop {
            std::thread::sleep(Duration::from_millis(sample_ms));
            grip_obs::window::global().tick_registry(grip_obs::global());
        })
        .expect("spawn sampler thread");

    let service = Service::new(cfg);
    eprintln!("[grip-serve] {} shards", service.shards());

    match tcp {
        Some(addr) => {
            let listener = std::net::TcpListener::bind(&addr).unwrap_or_else(|e| {
                eprintln!("[grip-serve] cannot bind {addr}: {e}");
                std::process::exit(1);
            });
            eprintln!("[grip-serve] listening on {}", listener.local_addr().unwrap());
            proto::serve_tcp(Arc::new(service), listener)
        }
        None => {
            let stdin = std::io::stdin();
            // The writer moves to the server's ordered-output thread, so
            // hand it the (Send) handle rather than a lock guard.
            let stdout = std::io::BufWriter::new(std::io::stdout());
            let summary = proto::serve_lines(&service, stdin.lock(), stdout).unwrap_or_else(|e| {
                eprintln!("[grip-serve] stream error: {e}");
                std::process::exit(1);
            });
            let stats = service.stats();
            eprintln!(
                "[grip-serve] served {} (rejected {}): {}",
                summary.served,
                summary.rejected,
                stats.to_json().line()
            );
        }
    }
}
