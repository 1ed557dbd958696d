//! `grip-client` — scripted load for `grip-serve`.
//!
//! Three modes, composable into shell pipelines:
//!
//! ```text
//! grip-client --emit [--repeat K] [--n N] [--seed S] [--metrics] [--probes]
//!             [--rate R --duration S]
//!     print the mixed sweep (all presets × LL1–LL14, repeated K times,
//!     shuffled) as JSON-lines requests on stdout, every request opting
//!     into the grip-audit report; with --rate/--duration the emitter
//!     goes open-loop instead: it cycles the sweep at a fixed arrival
//!     rate of R requests/s for S seconds, flushing per line, so the
//!     server's shard queues see real arrival pressure; --metrics
//!     appends {"cmd":"metrics"} (JSON and Prometheus forms) and
//!     --probes appends {"cmd":"events"} + {"cmd":"stats"} after the
//!     sweep
//!
//! grip-client --check [--expect-hits] [--metrics] [--probes]
//!             [--latency-summary]
//!     read responses from stdin; fail (exit 1) on any response at
//!     fault (ScheduleResponse::fault: !ok, unverified, stalled,
//!     template-violating, a grip-audit report carrying diagnostics, or
//!     a grip-bounds certificate the schedule undercuts) — and, with
//!     --expect-hits, if no response was served from the schedule
//!     cache; with --metrics, validate the metrics frames (nonzero
//!     stage counters, lint-clean Prometheus text); with --probes,
//!     validate the flight-recorder events frame (lossless round-trips,
//!     nonzero queue waits) and the windowed stats frame (per-shard
//!     queue-wait histograms populated, stage self-times summing to
//!     >= 95% of the windowed request wall); print a throughput/latency
//!     summary
//!
//! grip-client --addr HOST:PORT [--repeat K] [--n N] [--seed S]
//!             [--rate R --duration S] [--metrics] [--probes]
//!             [--latency-summary]
//!     drive a TCP server with the same sweep and check + summarize the
//!     responses; with --rate/--duration the driver goes open-loop
//!     (fixed arrival rate, never waiting for responses), reporting
//!     client-side sojourn latency and the most requests outstanding
//!     at an arrival
//! ```
//!
//! `--latency-summary` prints a per-request latency histogram (the
//! `grip-obs` log2 histogram) plus the cold/hit latency split.
//!
//! CI runs the open-loop pipe `grip-client --emit --rate … --duration …
//! --metrics --probes | grip-serve | grip-client --check --expect-hits
//! --metrics --probes` as the protocol + telemetry smoke.

#![forbid(unsafe_code)]

use grip_json::Json;
use grip_obs::metrics::{bucket_bound, prometheus_lint};
use grip_obs::{FlightRecord, Histogram};
use grip_service::workload::{mixed_workload, percentile};
use grip_service::{proto, CacheStatus, ScheduleResponse};
use std::io::{BufRead, BufWriter, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

struct Opts {
    mode: Mode,
    repeat: usize,
    n: i64,
    seed: u64,
    expect_hits: bool,
    metrics: bool,
    probes: bool,
    latency_summary: bool,
    /// Open-loop arrival rate (requests per second).
    rate: Option<f64>,
    /// Open-loop run length, seconds.
    duration: Option<f64>,
}

enum Mode {
    Emit,
    Check,
    Addr(String),
}

fn usage() -> ! {
    eprintln!(
        "usage: grip-client (--emit | --check [--expect-hits] | --addr HOST:PORT) \
         [--repeat K] [--n N] [--seed S] [--rate R --duration S] [--metrics] [--probes] \
         [--latency-summary]"
    );
    std::process::exit(2)
}

fn parse_args() -> Opts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode = None;
    let mut opts = Opts {
        mode: Mode::Check,
        repeat: 3,
        n: 48,
        seed: 0x9fb3,
        expect_hits: false,
        metrics: false,
        probes: false,
        latency_summary: false,
        rate: None,
        duration: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--emit" => mode = Some(Mode::Emit),
            "--check" => mode = Some(Mode::Check),
            "--addr" => mode = Some(Mode::Addr(it.next().cloned().unwrap_or_else(|| usage()))),
            "--repeat" => {
                opts.repeat = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--n" => opts.n = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()),
            "--seed" => {
                opts.seed = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--rate" => {
                opts.rate = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|r: &f64| *r > 0.0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--duration" => {
                opts.duration = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|s: &f64| *s > 0.0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--expect-hits" => opts.expect_hits = true,
            "--metrics" => opts.metrics = true,
            "--probes" => opts.probes = true,
            "--latency-summary" => opts.latency_summary = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    opts.mode = mode.unwrap_or_else(|| usage());
    if opts.rate.is_some() != opts.duration.is_some() {
        eprintln!("--rate and --duration must be given together");
        usage()
    }
    opts
}

/// The two metrics probes `--metrics` appends after a sweep: the JSON
/// snapshot and the Prometheus text form.
fn metrics_probe_lines() -> [String; 2] {
    [
        Json::obj().field("cmd", "metrics").line(),
        Json::obj().field("cmd", "metrics").field("format", "prometheus").line(),
    ]
}

/// The telemetry probes `--probes` appends: the flight-recorder dump and
/// the windowed stats frame.
fn telemetry_probe_lines() -> [String; 2] {
    [
        Json::obj().field("cmd", "events").field("n", 32u64).line(),
        Json::obj().field("cmd", "stats").line(),
    ]
}

/// Everything a response stream can carry, split by frame kind.
#[derive(Default)]
struct Frames {
    responses: Vec<ScheduleResponse>,
    metrics: Vec<Json>,
    events: Vec<Json>,
    stats: Vec<Json>,
}

impl Frames {
    /// Route one parsed line into the right bucket. Non-JSON or malformed
    /// response lines are fatal.
    fn take(&mut self, text: &str) {
        let j = Json::parse(text).unwrap_or_else(|e| {
            eprintln!("[grip-client] response is not JSON ({e}): {text}");
            std::process::exit(1);
        });
        if j.get("cmd").is_some() {
            match j.get("cmd").and_then(Json::as_str) {
                Some("metrics") => self.metrics.push(j),
                Some("events") => self.events.push(j),
                Some("stats") => self.stats.push(j),
                _ => {} // other command frames pass through unchecked
            }
            return;
        }
        match proto::response_from_json(&j) {
            Ok(r) => self.responses.push(r),
            Err(e) => {
                eprintln!("[grip-client] bad response line ({e}): {text}");
                std::process::exit(1);
            }
        }
    }
}

/// Client-side accounting for one open-loop run.
#[derive(Clone, Copy, Debug, Default)]
struct OpenLoopStats {
    /// Requests written.
    sent: usize,
    /// Largest outstanding-request count observed at an arrival instant.
    max_inflight_seen: usize,
}

fn main() {
    let opts = parse_args();
    match &opts.mode {
        Mode::Emit => match emit(&opts) {
            Ok(()) => {}
            // The reader closed the pipe (say, `| head`): nothing more to
            // emit, and nothing went wrong.
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {}
            Err(e) => {
                eprintln!("[grip-client] cannot write requests: {e}");
                std::process::exit(1);
            }
        },
        Mode::Check => {
            let stdin = std::io::stdin();
            let mut frames = Frames::default();
            for line in stdin.lock().lines() {
                let line = line.expect("read responses");
                let text = line.trim();
                if !text.is_empty() {
                    frames.take(text);
                }
            }
            finish(&opts, &frames, None, None);
        }
        Mode::Addr(addr) => drive_tcp(&opts, addr),
    }
}

/// The sweep `--emit` and `--addr` drive: the mixed workload with every
/// request opting into the grip-audit report and the grip-bounds
/// certificate, so `--check` can gate on audit-clean, bound-sound
/// responses end to end.
fn audit_workload(opts: &Opts) -> Vec<grip_service::ScheduleRequest> {
    mixed_workload(opts.n, opts.repeat, opts.seed)
        .into_iter()
        .map(|mut r| {
            r.want_audit = true;
            r.want_bounds = true;
            r
        })
        .collect()
}

/// Sleep until the absolute deadline of the next open-loop arrival.
fn pace_until(next: Instant) {
    if let Some(d) = next.checked_duration_since(Instant::now()) {
        std::thread::sleep(d);
    }
}

fn emit(opts: &Opts) -> std::io::Result<()> {
    let stdout = std::io::stdout();
    let mut w = BufWriter::new(stdout.lock());
    let reqs = audit_workload(opts);
    match (opts.rate, opts.duration) {
        (Some(rate), Some(secs)) => {
            // Open-loop: cycle the sweep at a fixed arrival rate,
            // flushing per line so the server sees each arrival when the
            // schedule says so, not when the pipe buffer fills.
            let period = Duration::from_secs_f64(1.0 / rate);
            let t0 = Instant::now();
            let mut next = t0;
            let mut i = 0usize;
            while t0.elapsed().as_secs_f64() < secs {
                let mut req = reqs[i % reqs.len()].clone();
                req.id = i as u64 + 1;
                writeln!(w, "{}", proto::request_to_json(&req).line())?;
                w.flush()?;
                i += 1;
                next += period;
                pace_until(next);
            }
            eprintln!("[grip-client] open-loop emit: {i} requests at {rate}/s over {secs}s");
        }
        _ => {
            for req in reqs {
                writeln!(w, "{}", proto::request_to_json(&req).line())?;
            }
        }
    }
    if opts.probes {
        for line in telemetry_probe_lines() {
            writeln!(w, "{line}")?;
        }
    }
    if opts.metrics {
        for line in metrics_probe_lines() {
            writeln!(w, "{line}")?;
        }
    }
    w.flush()
}

fn drive_tcp(opts: &Opts, addr: &str) {
    let stream = std::net::TcpStream::connect(addr).unwrap_or_else(|e| {
        eprintln!("[grip-client] cannot connect to {addr}: {e}");
        std::process::exit(1);
    });
    let reader = std::io::BufReader::new(stream.try_clone().expect("clone stream"));
    // Outstanding-request count, shared between the paced writer (inc)
    // and the reader (dec) — the queue-pressure sample reads it at
    // arrival instants.
    let inflight = Arc::new(AtomicUsize::new(0));
    // Send timestamps ride to the reader in request order (responses are
    // answered in order), giving client-side sojourn latency.
    let (stamp_tx, stamp_rx) = mpsc::channel::<Instant>();
    let t0 = Instant::now();

    let reqs = audit_workload(opts);
    let open_loop = opts.rate.zip(opts.duration);
    let want_metrics = opts.metrics;
    let want_probes = opts.probes;
    let inflight_w = Arc::clone(&inflight);
    let writer = std::thread::spawn(move || -> OpenLoopStats {
        let mut w = BufWriter::new(stream.try_clone().expect("clone stream"));
        let mut ol = OpenLoopStats::default();
        match open_loop {
            Some((rate, secs)) => {
                let period = Duration::from_secs_f64(1.0 / rate);
                let start = Instant::now();
                let mut next = start;
                while start.elapsed().as_secs_f64() < secs {
                    let outstanding = inflight_w.load(Ordering::Acquire);
                    ol.max_inflight_seen = ol.max_inflight_seen.max(outstanding);
                    let mut req = reqs[ol.sent % reqs.len()].clone();
                    req.id = ol.sent as u64 + 1;
                    inflight_w.fetch_add(1, Ordering::AcqRel);
                    stamp_tx.send(Instant::now()).expect("reader gone");
                    writeln!(w, "{}", proto::request_to_json(&req).line()).expect("send request");
                    w.flush().expect("flush request");
                    ol.sent += 1;
                    next += period;
                    pace_until(next);
                }
            }
            None => {
                for req in reqs {
                    inflight_w.fetch_add(1, Ordering::AcqRel);
                    stamp_tx.send(Instant::now()).expect("reader gone");
                    writeln!(w, "{}", proto::request_to_json(&req).line()).expect("send request");
                    ol.sent += 1;
                }
            }
        }
        if want_probes {
            for line in telemetry_probe_lines() {
                writeln!(w, "{line}").expect("send telemetry probe");
            }
        }
        if want_metrics {
            for line in metrics_probe_lines() {
                writeln!(w, "{line}").expect("send metrics probe");
            }
        }
        w.flush().expect("flush requests");
        // Dropping a try_clone'd handle does NOT close the socket (the
        // reader clone keeps the fd alive); send an explicit write-side
        // FIN so the server sees EOF once everything is answered.
        let _ = stream.shutdown(std::net::Shutdown::Write);
        ol
    });

    // Read until the server closes (it drains everything before EOF).
    let mut frames = Frames::default();
    let mut sojourn_ns: Vec<u64> = Vec::new();
    for line in reader.lines() {
        let line = line.unwrap_or_else(|e| {
            eprintln!("[grip-client] connection error after {} responses: {e}", sojourn_ns.len());
            std::process::exit(1);
        });
        let text = line.trim();
        if text.is_empty() {
            continue;
        }
        let before = frames.responses.len();
        frames.take(text);
        if frames.responses.len() > before {
            inflight.fetch_sub(1, Ordering::AcqRel);
            let sent_at = stamp_rx.recv().expect("writer stamps every request");
            sojourn_ns.push(sent_at.elapsed().as_nanos() as u64);
        }
    }
    let ol = writer.join().expect("writer thread");
    if frames.responses.len() != ol.sent {
        eprintln!(
            "[grip-client] connection closed after {}/{} responses",
            frames.responses.len(),
            ol.sent
        );
        std::process::exit(1);
    }
    finish(opts, &frames, Some(t0.elapsed()), opts.rate.is_some().then_some((ol, sojourn_ns)));
}

/// Validate the `metrics` command answers: the JSON snapshot must carry
/// nonzero request and scheduler-stage counters, and the Prometheus text
/// must pass the line-format lint. Returns a description of the first
/// problem.
fn check_metrics_frames(frames: &[Json]) -> Result<(), String> {
    let snapshot = frames
        .iter()
        .find_map(|f| f.get("metrics"))
        .ok_or("no JSON metrics frame seen (is the server instrumented?)")?;
    let counter = |name: &str| snapshot.get(name).and_then(Json::as_i64).unwrap_or(0);
    for name in ["grip_requests_total", "grip_iterations_total", "grip_moves_committed_total"] {
        if counter(name) <= 0 {
            return Err(format!("stage counter {name} is zero in the metrics snapshot"));
        }
    }
    for stage in ["prepare", "schedule"] {
        let count = snapshot
            .get(&format!("grip_stage_self_ns_{stage}"))
            .and_then(|h| h.get("count"))
            .and_then(Json::as_i64)
            .unwrap_or(0);
        if count <= 0 {
            return Err(format!("stage histogram grip_stage_self_ns_{stage} has no samples"));
        }
    }
    let text = frames
        .iter()
        .find(|f| f.get("format").and_then(Json::as_str) == Some("prometheus"))
        .and_then(|f| f.get("text"))
        .and_then(Json::as_str)
        .ok_or("no Prometheus metrics frame seen")?;
    prometheus_lint(text).map_err(|e| format!("Prometheus exposition failed the lint: {e}"))?;
    if !text.contains("grip_requests_total") {
        return Err("Prometheus exposition is missing grip_requests_total".to_string());
    }
    Ok(())
}

/// Validate the `--probes` answers end to end.
///
/// Events frame: non-empty, every record a lossless `FlightRecord` wire
/// round-trip with ordered timestamps, and at least one nonzero queue
/// wait (jobs really crossed a shard queue).
///
/// Windowed stats frame: the aggregate **and** at least one per-shard
/// queue-wait histogram saw samples, and the windowed stage self-times
/// sum to at least 95% of the windowed request wall — the rolling window
/// accounts for where the time actually went.
fn check_probe_frames(frames: &Frames) -> Result<(), String> {
    let ev = frames.events.last().ok_or("no events frame seen")?;
    let records = match ev.get("events") {
        Some(Json::Arr(a)) if !a.is_empty() => a,
        Some(Json::Arr(_)) => return Err("events frame is empty".to_string()),
        _ => return Err("events frame has no events array".to_string()),
    };
    let mut queue_waited = false;
    for e in records {
        let rec = FlightRecord::from_json(e);
        if rec.to_json().line() != e.line() {
            return Err(format!("flight record is not a lossless round-trip: {}", e.line()));
        }
        if rec.trace_id.is_empty() {
            return Err("flight record is missing its trace id".to_string());
        }
        if rec.enqueue_ns > rec.dequeue_ns || rec.dequeue_ns > rec.finish_ns {
            return Err(format!("flight record timestamps are unordered: {}", e.line()));
        }
        queue_waited |= rec.queue_wait_ns > 0;
    }
    if !queue_waited {
        return Err("no flight record shows a nonzero queue wait".to_string());
    }

    let st = frames.stats.last().ok_or("no stats frame seen")?;
    let window = st.get("window").ok_or("stats frame has no window object")?;
    let hists = match window.get("histograms") {
        Some(Json::Obj(fields)) => fields,
        _ => return Err("windowed stats carry no histograms".to_string()),
    };
    let count_of = |j: &Json| j.get("count").and_then(Json::as_i64).unwrap_or(0);
    let sum_of = |j: &Json| j.get("sum").and_then(Json::as_i64).unwrap_or(0);
    let aggregate = hists
        .iter()
        .find(|(n, _)| n == "grip_queue_wait_ns")
        .ok_or("window has no aggregate queue-wait histogram")?;
    if count_of(&aggregate.1) <= 0 {
        return Err("aggregate queue-wait histogram saw no samples in the window".to_string());
    }
    if !hists.iter().any(|(n, j)| n.starts_with("grip_queue_wait_ns_s") && count_of(j) > 0) {
        return Err("no per-shard queue-wait histogram saw samples in the window".to_string());
    }
    let wall = hists
        .iter()
        .find(|(n, _)| n == "grip_request_wall_ns")
        .map(|(_, j)| sum_of(j))
        .unwrap_or(0);
    if wall <= 0 {
        return Err("windowed request wall histogram is empty".to_string());
    }
    let stage_sum: i64 = hists
        .iter()
        .filter(|(n, _)| n.starts_with("grip_stage_self_ns_"))
        .map(|(_, j)| sum_of(j))
        .sum();
    if (stage_sum as f64) < grip_obs::span::MIN_COVERAGE * wall as f64 {
        return Err(format!(
            "windowed stage self-times cover only {:.1}% of the windowed wall \
             ({stage_sum} of {wall} ns)",
            100.0 * stage_sum as f64 / wall as f64
        ));
    }
    Ok(())
}

/// Render the `--latency-summary` block: a log2 latency histogram over
/// all responses plus the cold/hit split.
fn latency_summary(responses: &[ScheduleResponse]) -> String {
    use std::fmt::Write as _;
    let all = Histogram::new();
    let cold = Histogram::new();
    let hit = Histogram::new();
    for r in responses {
        all.record(r.wall_ns);
        match r.cache {
            CacheStatus::Hit => hit.record(r.wall_ns),
            _ => cold.record(r.wall_ns),
        }
    }
    let us = |ns: u64| ns as f64 / 1000.0;
    let mut s = String::new();
    let _ = writeln!(s, "request latency ({} responses, log2 buckets):", responses.len());
    let buckets = all.buckets();
    let width = buckets.iter().copied().max().unwrap_or(1).max(1);
    for (i, &c) in buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let lo = if i == 0 { 0 } else { bucket_bound(i - 1) + 1 };
        let bar = "#".repeat(((c as f64 / width as f64) * 40.0).ceil() as usize);
        let _ =
            writeln!(s, "  [{:>12.1} .. {:>12.1}] us {:>6}  {bar}", us(lo), us(bucket_bound(i)), c);
    }
    for (label, h) in [("cold", &cold), ("hit", &hit)] {
        let _ = writeln!(
            s,
            "  {label:<4} {:>6} responses, p50 ~{:.1} us, p99 ~{:.1} us",
            h.count(),
            us(h.quantile(0.50)),
            us(h.quantile(0.99)),
        );
    }
    s
}

fn finish(
    opts: &Opts,
    frames: &Frames,
    wall: Option<std::time::Duration>,
    open_loop: Option<(OpenLoopStats, Vec<u64>)>,
) {
    let responses = &frames.responses;
    let mut violations = 0usize;
    for fault in responses.iter().filter_map(ScheduleResponse::fault) {
        violations += 1;
        eprintln!("[grip-client] VIOLATION {fault}");
    }
    let hits = responses.iter().filter(|r| r.cache == CacheStatus::Hit).count();
    let ddg_hits = responses.iter().filter(|r| r.cache == CacheStatus::DdgHit).count();
    let mut lat_ns: Vec<u64> = responses.iter().map(|r| r.wall_ns).collect();
    lat_ns.sort_unstable();
    let us = |ns: u64| ns as f64 / 1000.0;
    let mut summary = Json::obj()
        .field("responses", responses.len())
        .field("violations", violations)
        .field("cache_hits", hits)
        .field("ddg_hits", ddg_hits)
        .field(
            "hit_rate",
            if responses.is_empty() { 0.0 } else { hits as f64 / responses.len() as f64 },
        )
        .field("p50_us", us(percentile(&lat_ns, 0.50)))
        .field("p99_us", us(percentile(&lat_ns, 0.99)));
    if let Some(d) = wall {
        summary = summary.field("wall_s", d.as_secs_f64()).field(
            "requests_per_sec",
            if d.as_secs_f64() > 0.0 { responses.len() as f64 / d.as_secs_f64() } else { 0.0 },
        );
    }
    if let Some((ol, sojourn_ns)) = &open_loop {
        let mut sorted = sojourn_ns.clone();
        sorted.sort_unstable();
        summary = summary.field(
            "open_loop",
            Json::obj()
                .field("sent", ol.sent)
                .field("max_inflight_seen", ol.max_inflight_seen)
                .field("sojourn_p50_us", us(percentile(&sorted, 0.50)))
                .field("sojourn_p99_us", us(percentile(&sorted, 0.99))),
        );
    }
    println!("{}", summary.line());
    if opts.latency_summary {
        print!("{}", latency_summary(responses));
    }
    if responses.is_empty() {
        eprintln!("[grip-client] no responses seen");
        std::process::exit(1);
    }
    if violations > 0 {
        std::process::exit(1);
    }
    if opts.expect_hits && hits == 0 {
        eprintln!("[grip-client] expected schedule-cache hits, saw none");
        std::process::exit(1);
    }
    if opts.metrics {
        if let Err(e) = check_metrics_frames(&frames.metrics) {
            eprintln!("[grip-client] metrics check failed: {e}");
            std::process::exit(1);
        }
        eprintln!("[grip-client] metrics OK: stage counters nonzero, Prometheus lint clean");
    }
    if opts.probes {
        if let Err(e) = check_probe_frames(frames) {
            eprintln!("[grip-client] telemetry probe check failed: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "[grip-client] telemetry OK: flight records lossless, queue waits nonzero, \
             windowed stage times cover the windowed wall"
        );
    }
    eprintln!("[grip-client] OK: {} responses, {hits} cache hits, 0 violations", responses.len());
}
