//! The serve workloads, driven through the real `grip-serve` binary over
//! its stdin/stdout JSON-lines pipe.
//!
//! * `hot_serve`: the cache-hit wire path. A 2-shard server is warmed with
//!   the 42 `uniform*` cells during set-up; then a fixed-rate open loop
//!   replays those cells (every request a schedule-cache hit), and a
//!   saturation phase follows in which the client writes as fast as the
//!   server's pipeline window and the pipe admit.
//! * `mixed_serve`: cache fills beside cache reads. A cold 2-shard server
//!   takes a fixed-rate open loop in which a seeded, fixed share of
//!   requests carry a key new to the run. Responses come back in request
//!   order, so hits queue behind cold schedules on their shard and then
//!   behind them on the wire.
//!
//! The load generator is this one process with two threads: the caller's
//! thread writes (and paces) requests, a scoped reader thread parses and
//! checks every response as it arrives.
//!
//! Both run in segments with the host-speed references ([`crate::probe`])
//! between them, on an idle server: the open loop pauses every
//! [`SEG_WINDOWS`] windows, the saturation phase every slice. Each
//! window's latency is scaled by the wake reference around its segment,
//! each slice's throughput by the compute reference; the run reports the
//! median over them.

use crate::check::{self, Asks, Seen};
use crate::gen::{self, Key};
use crate::layers::{self, LayerData};
use crate::probe::{self, Ref};
use crate::trace::Tracer;
use crate::{stats, Cfg, Outcome, Tally};
use grip_json::Json;
use grip_service::{ScheduleResponse, Service, ServiceConfig};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Worker shards of every server the serve workloads start.
pub const SHARDS: usize = 2;
/// `hot_serve` open-loop arrival rate (requests/s).
pub const HOT_RATE: f64 = 5000.0;
/// Share of a `hot_serve` pass spent in the open loop; the rest saturates.
const HOT_OPEN_SHARE: f64 = 0.6;
/// `mixed_serve` open-loop arrival rate (requests/s).
pub const MIXED_RATE: f64 = 400.0;
/// `mixed_serve` requests per thousand that carry a fresh key (at 400
/// req/s, 252 fresh keys in 30 s: 12 per pair of `MIXED_MISS_CELLS`).
pub const MIXED_MISS_PER_MILLE: usize = 21;
/// Set-ups per run; `setup_s` is the median of their scaled times.
const HOT_SETUP_REPS: usize = 5;
const MIXED_SETUP_REPS: usize = 9;
/// Flight records one `events` dump returns (the recorder's ring size).
const EVENTS_N: usize = 1024;
/// Hit requests replayed through the in-process line path when tracing.
const REPLAY_MAX: usize = 2000;
/// Open-loop latencies are taken per window of this many requests (the
/// fewest with ten samples beyond p99); saturation throughput per slice of
/// `SLICE`.
const WINDOW: usize = 1000;
const SLICE: Duration = Duration::from_millis(500);
/// Windows per open-loop segment: the open loop drains and runs the
/// host-speed reference after every `SEG_WINDOWS * WINDOW` requests.
const SEG_WINDOWS: usize = 2;
/// Longest the writer waits for the server to drain before a reference.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);
/// The pacer sleeps until this close to a due time, then yields. Waking a
/// sleeping thread on an idle VM takes hundreds of microseconds at times;
/// yielding instead keeps the generator on time at the cost of one core
/// it readily gives away.
const SPIN: Duration = Duration::from_millis(2);

/// A running `grip-serve --shards N` child on piped stdin/stdout.
pub struct Server {
    child: Child,
    tx: Option<BufWriter<ChildStdin>>,
    rx: BufReader<ChildStdout>,
}

impl Server {
    pub fn spawn(bin: &Path, shards: usize) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .args(["--shards", &shards.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let tx = child.stdin.take().map(|s| BufWriter::with_capacity(1 << 16, s));
        let rx = BufReader::with_capacity(1 << 16, child.stdout.take().expect("stdout is piped"));
        Ok(Server { child, tx, rx })
    }

    fn tx(&mut self) -> io::Result<&mut BufWriter<ChildStdin>> {
        self.tx.as_mut().ok_or_else(|| io::Error::other("server stdin already closed"))
    }

    fn read_line(rx: &mut BufReader<ChildStdout>) -> io::Result<String> {
        let mut s = String::new();
        if rx.read_line(&mut s)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "grip-serve closed its output",
            ));
        }
        Ok(s)
    }

    /// Send one control line and parse its one-line answer.
    pub fn command(&mut self, line: &str) -> io::Result<Json> {
        let tx = self.tx()?;
        writeln!(tx, "{line}")?;
        tx.flush()?;
        let answer = Server::read_line(&mut self.rx)?;
        Json::parse(answer.trim()).map_err(|e| io::Error::other(format!("bad control answer: {e}")))
    }

    /// Send every line, then read one response per line.
    pub fn batch(&mut self, lines: &[String]) -> io::Result<Vec<String>> {
        let tx = self.tx()?;
        for l in lines {
            writeln!(tx, "{l}")?;
        }
        tx.flush()?;
        lines.iter().map(|_| Server::read_line(&mut self.rx)).collect()
    }

    /// Peak resident set of the server process, MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        crate::vm_hwm_mib(&format!("/proc/{}/status", self.child.id()))
    }

    /// Close stdin, drain the output, and wait for the server to exit.
    pub fn close(mut self) -> io::Result<()> {
        drop(self.tx.take());
        let mut sink = String::new();
        while self.rx.read_line(&mut sink)? > 0 {
            sink.clear();
        }
        self.child.wait()?;
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        drop(self.tx.take());
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// How a phase sends its lines.
#[derive(Clone, Copy)]
enum Pace {
    /// One line every `1/rate` seconds, each flushed on its due time, in
    /// segments of `seg` lines. Before each segment and after the last,
    /// the writer waits until every response so far is back and runs the
    /// host-speed reference; each segment starts on a fresh schedule.
    Rate { rate: f64, seg: usize },
    /// Cycle through the lines as fast as the pipe takes them, until the
    /// duration is up.
    Flood(Duration),
}

/// What the writer side of a phase saw.
struct Sent {
    start: Instant,
    /// Per request: when it was actually written (open loop only).
    at: Vec<Instant>,
    /// Open loop: the rate, the segment length, and each segment's start.
    rate: f64,
    seg: usize,
    seg_start: Vec<Instant>,
    /// Both references' times: before the first segment and after each
    /// (open loop only).
    ref_ms: Vec<[f64; 2]>,
    count: usize,
}

impl Sent {
    /// When open-loop request `i` was due.
    fn due(&self, i: usize) -> Instant {
        self.seg_start[i / self.seg] + Duration::from_secs_f64((i % self.seg) as f64 / self.rate)
    }

    /// Request `i`'s time `x` scaled by reference `r`'s times around its
    /// segment.
    fn scale(&self, r: Ref, i: usize, x: f64) -> f64 {
        let k = i / self.seg;
        r.scale(x, self.ref_ms[k][r as usize], self.ref_ms[k + 1][r as usize])
    }

    /// Reference `r`'s median time over the phase.
    fn ref_median(&self, r: Ref) -> f64 {
        stats::median(&self.ref_ms.iter().map(|m| m[r as usize]).collect::<Vec<_>>())
    }
}

/// Run one phase: the caller's thread writes, a scoped thread reads and
/// hands every response line to `on_resp(state, index, receive time,
/// line)`. The phase ends with a `stats` command, whose answer (after the
/// server drained every earlier request) is returned.
fn phase<S: Send>(
    srv: &mut Server,
    lines: &[String],
    pace: Pace,
    start: Instant,
    state: S,
    on_resp: impl FnMut(&mut S, usize, Instant, &str) + Send,
) -> io::Result<(Sent, S, Json)> {
    let Server { tx, rx, .. } = srv;
    let tx = tx.as_mut().ok_or_else(|| io::Error::other("server stdin already closed"))?;
    let received = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let received = &received;
        let reader = scope.spawn(move || -> io::Result<(S, Json)> {
            let (mut state, mut on_resp) = (state, on_resp);
            let mut i = 0;
            loop {
                let line = Server::read_line(rx)?;
                let recv = Instant::now();
                if line.starts_with("{\"cmd\"") {
                    let j = Json::parse(line.trim())
                        .map_err(|e| io::Error::other(format!("bad stats answer: {e}")))?;
                    return Ok((state, j));
                }
                on_resp(&mut state, i, recv, line.trim_end());
                i += 1;
                received.store(i, Ordering::Release);
            }
        });
        let sent = write_phase(tx, lines, pace, start, received);
        let read = reader.join().expect("reader thread panicked");
        let sent = sent?;
        let (state, stats) = read?;
        Ok((sent, state, stats))
    })
}

fn write_phase(
    tx: &mut BufWriter<ChildStdin>,
    lines: &[String],
    pace: Pace,
    start: Instant,
    received: &AtomicUsize,
) -> io::Result<Sent> {
    let mut sent = Sent {
        start,
        at: Vec::new(),
        rate: 0.0,
        seg: 1,
        seg_start: Vec::new(),
        ref_ms: Vec::new(),
        count: 0,
    };
    // Wait for the server to answer everything sent so far, then time the
    // references on the idle host.
    let drain_and_probe = |n: usize| {
        // A server that stops answering fails the phase through the
        // reader; the writer only must not wait for it forever.
        let give_up = Instant::now() + DRAIN_LIMIT;
        while received.load(Ordering::Acquire) < n && Instant::now() < give_up {
            std::thread::sleep(Duration::from_micros(100));
        }
        probe::both_ms()
    };
    match pace {
        Pace::Rate { rate, seg } => {
            (sent.rate, sent.seg) = (rate, seg);
            sent.at.reserve(lines.len());
            for (i, line) in lines.iter().enumerate() {
                if i % seg == 0 {
                    sent.ref_ms.push(drain_and_probe(i));
                    sent.seg_start.push(Instant::now() + Duration::from_millis(1));
                }
                pace_until(sent.due(i));
                sent.at.push(Instant::now());
                tx.write_all(line.as_bytes())?;
                tx.write_all(b"\n")?;
                tx.flush()?;
            }
            sent.ref_ms.push(drain_and_probe(lines.len()));
            sent.start = sent.seg_start.first().copied().unwrap_or(start);
            sent.count = lines.len();
        }
        Pace::Flood(d) => {
            pace_until(start);
            let end = start + d;
            while Instant::now() < end {
                for line in lines {
                    tx.write_all(line.as_bytes())?;
                    tx.write_all(b"\n")?;
                }
                sent.count += lines.len();
            }
        }
    }
    tx.write_all(b"{\"cmd\":\"stats\"}\n")?;
    tx.flush()?;
    Ok(sent)
}

/// Sleep until shortly before `due`, then yield until it arrives.
fn pace_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

/// One open-loop pass's observations.
struct OpenLoop {
    /// Latency of every request, timed from when it was due, ms.
    lat_ms: Vec<f64>,
    /// Receive instants, by request index.
    recv: Vec<Instant>,
    /// Checked responses, by request index.
    seen: Vec<Seen>,
    /// The first hit responses, kept for the encode replay.
    replay: Vec<(usize, ScheduleResponse)>,
    /// The request lines sent.
    lines: Vec<String>,
    /// How late each request was written, ns.
    late_ns: Vec<f64>,
    sent: Sent,
    stats: Json,
}

/// Reader-side state of an open loop.
struct OpenState<'a> {
    keys: &'a [Key],
    fresh: &'a [bool],
    colds: HashMap<Key, ScheduleResponse>,
    tally: Tally,
    out: Vec<(Instant, Seen)>,
    replay: Vec<(usize, ScheduleResponse)>,
    keep_replay: bool,
    checker: check::LineChecker,
}

/// Run an open loop over `keys` at `rate`. A request whose `fresh` flag is
/// set must miss (and asks for its audit report and bound certificate);
/// every other must hit and equal its key's cold response bit for bit.
/// `colds` holds cold responses known before the loop starts.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    srv: &mut Server,
    keys: &[Key],
    fresh: &[bool],
    colds: HashMap<Key, ScheduleResponse>,
    rate: f64,
    traced: bool,
    tally: &mut Tally,
) -> io::Result<(OpenLoop, HashMap<Key, ScheduleResponse>)> {
    let lines: Vec<String> = keys
        .iter()
        .zip(fresh)
        .enumerate()
        .map(|(i, (k, &f))| {
            check::request_line(k, i as u64, Asks { proofs: f, timings: traced, trace: traced })
        })
        .collect();
    let state = OpenState {
        keys,
        fresh,
        colds,
        tally: Tally::default(),
        out: Vec::with_capacity(keys.len()),
        replay: Vec::new(),
        keep_replay: traced,
        checker: check::LineChecker::default(),
    };
    let pace = Pace::Rate { rate, seg: SEG_WINDOWS * WINDOW };
    let (sent, st, stats) =
        phase(srv, &lines, pace, Instant::now(), state, |st, i, recv, line| {
            let Some(key) = st.keys.get(i) else {
                st.tally.fail(format!("response {i} beyond the {} requests sent", st.keys.len()));
                return;
            };
            let want_hit = !st.fresh[i];
            let full = st.keep_replay && st.replay.len() < REPLAY_MAX;
            let cold = st.colds.get(key);
            let (seen, resp) = st.checker.check_line(
                key,
                line,
                want_hit,
                cold,
                !want_hit,
                full,
                &mut st.tally.why,
            );
            st.tally.count(seen.pass);
            if let Some(resp) = resp {
                if seen.hit && full {
                    st.replay.push((i, resp.clone()));
                }
                if !want_hit {
                    st.colds.insert(*key, resp);
                }
            }
            st.out.push((recv, seen));
        })?;
    tally.absorb(st.tally);
    if st.out.len() != keys.len() {
        tally.fail(format!("{} responses to {} requests", st.out.len(), keys.len()));
    }
    let lat_ms = st
        .out
        .iter()
        .enumerate()
        .map(|(i, (recv, _))| recv.saturating_duration_since(sent.due(i)).as_secs_f64() * 1e3)
        .collect();
    let late_ns = sent
        .at
        .iter()
        .enumerate()
        .map(|(i, at)| at.saturating_duration_since(sent.due(i)).as_nanos() as f64)
        .collect();
    let (recv, seen) = st.out.into_iter().unzip();
    let ol = OpenLoop { lat_ms, recv, seen, replay: st.replay, lines, late_ns, sent, stats };
    Ok((ol, st.colds))
}

/// Flight records of a traced open loop: queue wait per request, and how
/// long each finished response waited in order before the client had it.
/// The server's clock is aligned to the client's by the smallest
/// finish-to-receive gap (so that wait is a lower bound).
fn flight_records(srv: &mut Server, ol: &OpenLoop, data: &mut LayerData) -> io::Result<()> {
    let events = srv.command(&format!("{{\"cmd\":\"events\",\"n\":{EVENTS_N}}}"))?;
    let mut gaps: Vec<(f64, f64)> = Vec::new();
    for e in events.get("events").and_then(Json::as_arr).unwrap_or(&[]) {
        let field = |name: &str| e.get(name).and_then(Json::as_i64).unwrap_or(0) as f64;
        let idx = e
            .get("trace")
            .and_then(Json::as_str)
            .and_then(|t| t.strip_prefix('q')?.parse::<usize>().ok());
        let Some(i) = idx.filter(|&i| i < ol.recv.len()) else { continue };
        let recv_ns = (ol.recv[i] - ol.sent.start).as_nanos() as f64;
        gaps.push((field("queue_wait_ns"), recv_ns - field("finish_ns")));
    }
    let offset = gaps.iter().map(|g| g.1).fold(f64::INFINITY, f64::min);
    for (queue, gap) in gaps {
        data.queue_wait_ns.push(queue);
        data.hol_ns.push(gap - offset);
    }
    Ok(())
}

/// Per-layer data every traced open loop shares: wire overhead, generator
/// lateness, shard busy time, hits and cold responses.
fn open_loop_layers(ol: &OpenLoop, keys: &[Key], data: &mut LayerData) {
    for (i, s) in ol.seen.iter().enumerate() {
        let (Some(at), Some(recv)) = (ol.sent.at.get(i), ol.recv.get(i)) else { continue };
        data.wire_ns.push((*recv - *at).as_nanos() as f64 - s.wall_ns as f64);
        data.add_busy(s);
        if s.hit {
            data.hits.push(s.clone());
        } else {
            data.cold.push((keys[i], s.clone()));
        }
    }
    data.late_ns.extend_from_slice(&ol.late_ns);
}

/// Read the pick-loop phase counters through `{"cmd":"metrics"}`.
fn phase_counters(srv: &mut Server) -> io::Result<[u64; 4]> {
    let m = srv.command("{\"cmd\":\"metrics\"}")?;
    Ok(layers::phase_counters(Some(m.get("metrics").unwrap_or(&Json::Null))))
}

/// Warm a server with one cold request per key (each must miss and prove
/// audit-clean and bound-sound). Returns the cold responses by key and
/// what was seen of each, in key order.
fn warm(
    srv: &mut Server,
    keys: &[Key],
    traced: bool,
    tally: &mut Tally,
) -> io::Result<(HashMap<Key, ScheduleResponse>, Vec<Seen>)> {
    // Ids above any open-loop index keep warm-up trace ids distinct.
    let asks = Asks { proofs: true, timings: traced, trace: traced };
    let lines: Vec<String> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| check::request_line(k, 1_000_000 + i as u64, asks))
        .collect();
    let mut colds = HashMap::new();
    let mut seen = Vec::with_capacity(keys.len());
    for (key, line) in keys.iter().zip(srv.batch(&lines)?) {
        match check::parse_line(line.trim_end()) {
            Ok((resp, j)) => {
                let s = check::check(key, &resp, &j, false, None, true, &mut tally.why);
                tally.count(s.pass);
                seen.push(s);
                colds.insert(*key, resp);
            }
            Err(e) => {
                tally.fail(format!("warm-up {key:?}: {e}"));
                seen.push(Seen::default());
            }
        }
    }
    Ok((colds, seen))
}

/// One `hot_serve` pass on a warm server: the open loop, then (when
/// traced) the flight-record dump, then the saturation phase.
struct HotPass {
    open: OpenLoop,
    /// Median per-slice saturation throughput, scaled and as measured.
    flood_rps: f64,
    flood_raw_rps: f64,
    flood_n: usize,
    flood_slices: usize,
    stats: Json,
}

fn hot_pass(
    srv: &mut Server,
    cfg: &Cfg,
    colds: HashMap<Key, ScheduleResponse>,
    secs: f64,
    tally: &mut Tally,
    data: Option<&mut LayerData>,
) -> io::Result<HotPass> {
    let cells = gen::hot_cells();
    let n_open = (HOT_RATE * secs * HOT_OPEN_SHARE).round() as usize;
    let keys: Vec<Key> = gen::hot_stream(cfg.seed, n_open).into_iter().map(|i| cells[i]).collect();
    let fresh = vec![false; keys.len()];
    let traced = data.is_some();
    let (open, colds) = open_loop(srv, &keys, &fresh, colds, HOT_RATE, traced, tally)?;
    if let Some(d) = data {
        flight_records(srv, &open, d)?;
        open_loop_layers(&open, &keys, d);
    }

    struct Flood<'a> {
        cells: &'a [Key],
        colds: &'a HashMap<Key, ScheduleResponse>,
        tally: Tally,
        checker: check::LineChecker,
        /// Responses in the current slice, and the last one's arrival.
        n: usize,
        last: Option<Instant>,
    }
    let lines: Vec<String> =
        cells.iter().map(|k| check::request_line(k, 0, Asks::default())).collect();
    let flood = secs * (1.0 - HOT_OPEN_SHARE);
    let n_slices = ((flood / SLICE.as_secs_f64()) as usize).max(1);
    let mut st = Flood {
        cells: &cells,
        colds: &colds,
        tally: Tally::default(),
        checker: check::LineChecker::default(),
        n: 0,
        last: None,
    };
    let (mut raw, mut scaled) = (Vec::with_capacity(n_slices), Vec::with_capacity(n_slices));
    let (mut flood_n, mut stats) = (0, Json::Null);
    let mut ref_ms = Ref::Compute.time_ms();
    for _ in 0..n_slices {
        let start = Instant::now() + Duration::from_millis(1);
        (st.n, st.last) = (0, None);
        let (sent, next, answer) =
            phase(srv, &lines, Pace::Flood(SLICE), start, st, |st, i, recv, line| {
                let key = &st.cells[i % st.cells.len()];
                let cold = st.colds.get(key);
                let (seen, _) =
                    st.checker.check_line(key, line, true, cold, false, false, &mut st.tally.why);
                st.tally.count(seen.pass);
                st.n += 1;
                st.last = Some(recv);
            })?;
        st = next;
        stats = answer;
        if st.n != sent.count {
            st.tally.fail(format!("{} responses to {} saturation requests", st.n, sent.count));
        }
        flood_n += st.n;
        let after = Ref::Compute.time_ms();
        let secs = st.last.map_or(0.0, |l| l.saturating_duration_since(start).as_secs_f64());
        let rps = st.n as f64 / secs.max(1e-9);
        raw.push(rps);
        scaled.push(Ref::Compute.scale_rate(rps, ref_ms, after));
        ref_ms = after;
    }
    tally.absorb(st.tally);
    Ok(HotPass {
        open,
        flood_rps: stats::median(&scaled),
        flood_raw_rps: stats::median(&raw),
        flood_n,
        flood_slices: n_slices,
        stats,
    })
}

/// Replays after a traced serve pass, in-process: the machine-independent
/// layers of every cold key, then the line path of the kept hits. Returns
/// the share of the replays' wall the layer spans' self-times cover, in
/// percent.
fn replay_after(t: &mut Tracer, cold: &[(Key, Seen)], ol: &OpenLoop) -> f64 {
    let svc = Service::new(ServiceConfig { shards: SHARDS, ..ServiceConfig::default() });
    for (i, (k, _)) in cold.iter().enumerate() {
        let replay = t.enter("bench.replay", i as u64);
        layers::replay_prepare(t, k, i as u64);
        t.exit(replay);
    }
    for (i, resp) in &ol.replay {
        let line = t.enter("bench.line", *i as u64);
        layers::decode_path(t, *i as u64, &ol.lines[*i], &svc);
        layers::encode_path(t, *i as u64, resp);
        t.exit(line);
    }
    t.coverage(&["bench.replay", "bench.line"])
}

/// Open-loop p50 and tail: each taken per window of [`WINDOW`] requests
/// and scaled by the wake reference around the window's segment; the
/// median over the windows (over the whole run, unscaled, when it is
/// shorter than a window). Returns `(p50, tail, unscaled p50, note)`.
fn windowed(ol: &OpenLoop, what: &str) -> (f64, f64, f64, String) {
    let lat = &ol.lat_ms;
    let windows: Vec<&[f64]> = lat.chunks_exact(WINDOW).collect();
    if windows.is_empty() {
        let p = stats::tail_percentile(lat.len());
        let beyond = lat.len() - stats::nearest_rank(lat.len(), p as f64);
        let note = format!("p50 and p{p} of {} {what} ({beyond} beyond)", lat.len());
        let p50 = stats::median(lat);
        return (p50, stats::percentile(lat, p as f64), p50, note);
    }
    let p = stats::tail_percentile(WINDOW);
    let beyond = WINDOW - stats::nearest_rank(WINDOW, p as f64);
    let at = |w: usize, x: f64| ol.sent.scale(Ref::Wake, w * WINDOW, x);
    let raw: Vec<f64> = windows.iter().map(|w| stats::median(w)).collect();
    let p50s: Vec<f64> = raw.iter().enumerate().map(|(w, x)| at(w, *x)).collect();
    let tails: Vec<f64> =
        windows.iter().enumerate().map(|(k, w)| at(k, stats::percentile(w, p as f64))).collect();
    let note = format!(
        "p50 and p{p} of each window of {WINDOW} {what} ({beyond} beyond p{p}), scaled by the wake reference; median of {} windows",
        windows.len()
    );
    (stats::median(&p50s), stats::median(&tails), stats::median(&raw), note)
}

/// Requests per second the engine could serve on an open loop's mix with
/// every shard busy: responses over their summed engine time (`wall_ns`)
/// per shard. Returns `(scaled, unscaled)`; the scaled sum scales each
/// response's time by the compute reference around its segment.
fn capacity(ol: &OpenLoop) -> (f64, f64) {
    let n = ol.seen.len() as f64 * SHARDS as f64;
    let raw: f64 = ol.seen.iter().map(|s| s.wall_ns as f64 / 1e9).sum();
    let scaled: f64 = ol
        .seen
        .iter()
        .enumerate()
        .map(|(i, s)| ol.sent.scale(Ref::Compute, i, s.wall_ns as f64 / 1e9))
        .sum();
    (n / scaled.max(1e-12), n / raw.max(1e-12))
}

pub fn run_hot(cfg: &Cfg) -> io::Result<Outcome> {
    let cells = gen::hot_cells();
    let mut tally = Tally::default();
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(HOT_SETUP_REPS);
    let mut kept = None;
    for rep in 0..HOT_SETUP_REPS {
        let before = Ref::Compute.time_ms();
        let t = Instant::now();
        let mut srv = Server::spawn(&cfg.serve_bin, SHARDS)?;
        let warm = warm(&mut srv, &cells, false, &mut tally)?;
        let secs = t.elapsed().as_secs_f64();
        setups.push(Ref::Compute.scale(secs, before, Ref::Compute.time_ms()));
        if rep + 1 < HOT_SETUP_REPS {
            srv.close()?;
        } else {
            kept = Some((srv, warm));
        }
    }
    let (mut srv, (colds, cold_seen)) = kept.expect("at least one set-up");
    let secs = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let plain = hot_pass(&mut srv, cfg, colds, secs, &mut tally, None)?;
    let rss = srv.peak_rss_mib();
    srv.close()?;

    let (p50, tail, raw_p50, note) = windowed(&plain.open, "open-loop requests, timed from due");
    out.record.push(format!(
        "hot_serve: grip-serve --shards {SHARDS} warmed with {} cells at n={}; open loop at {HOT_RATE} req/s offered for {:.1} s ({} requests in segments of {}), then saturation for {} slices of {} ms ({} requests); references {:.3} ms compute, {:.3} ms wake (medians; scaled to {} and {} ms); unscaled p50 {:.5} ms, throughput {:.1} req/s",
        cells.len(),
        gen::CELL_N,
        secs * HOT_OPEN_SHARE,
        plain.open.lat_ms.len(),
        SEG_WINDOWS * WINDOW,
        plain.flood_slices,
        SLICE.as_millis(),
        plain.flood_n,
        plain.open.sent.ref_median(Ref::Compute),
        plain.open.sent.ref_median(Ref::Wake),
        Ref::Compute.nominal_ms(),
        Ref::Wake.nominal_ms(),
        raw_p50,
        plain.flood_raw_rps
    ));
    out.e2e(
        "setup_s",
        stats::median(&setups),
        format!(
            "median of {HOT_SETUP_REPS} set-ups (spawn + warm {} cells), scaled by the compute reference",
            cells.len()
        ),
    );
    out.e2e("latency_p50_ms", p50, note.clone());
    out.e2e("latency_tail_ms", tail, note);
    out.e2e(
        "throughput_rps",
        plain.flood_rps,
        format!(
            "saturation responses per second per {} ms slice, scaled by the compute reference; median of {} slices ({} responses)",
            SLICE.as_millis(),
            plain.flood_slices,
            plain.flood_n
        ),
    );
    out.e2e("peak_rss_mb", rss, "VmHWM of grip-serve".to_string());
    out.e2e(
        "speedup_geomean",
        stats::geomean(&cold_seen.iter().map(|s| s.speedup).collect::<Vec<_>>()),
        format!("geometric mean of seq/sched cycles over the {} warmed cells", cells.len()),
    );

    if cfg.trace {
        let mut t = Tracer::new(true, Instant::now());
        let mut data = LayerData::default();
        let mut srv = Server::spawn(&cfg.serve_bin, SHARDS)?;
        let before = phase_counters(&mut srv)?;
        let (colds, cold_seen) = warm(&mut srv, &cells, true, &mut tally)?;
        let after = phase_counters(&mut srv)?;
        data.phases_ns = [0, 1, 2, 3].map(|k| after[k].saturating_sub(before[k]));
        for (k, s) in cells.iter().zip(cold_seen) {
            data.add_busy(&s);
            data.cold.push((*k, s));
        }
        let traced = hot_pass(&mut srv, cfg, colds, secs, &mut tally, Some(&mut data))?;
        data.cache = traced.stats.get("stats").cloned();
        srv.close()?;
        data.coverage_pct = replay_after(&mut t, &data.cold, &traced.open);
        let traced_p50 = windowed(&traced.open, "").0;
        data.overhead_pct = (traced_p50 / p50 - 1.0) * 100.0;
        out.record.push(format!(
            "traced pass: {} open-loop requests (p50 {:.5} ms vs {:.5} ms untraced), {} saturation requests at {:.0} req/s",
            traced.open.lat_ms.len(),
            traced_p50,
            p50,
            traced.flood_n,
            traced.flood_rps
        ));
        out.traced = Some((data, t));
    }
    out.tally = tally;
    Ok(out)
}

pub fn run_mixed(cfg: &Cfg) -> io::Result<Outcome> {
    let mut tally = Tally::default();
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(MIXED_SETUP_REPS);
    let mut kept = None;
    for rep in 0..MIXED_SETUP_REPS {
        let before = Ref::Compute.time_ms();
        let t = Instant::now();
        let mut srv = Server::spawn(&cfg.serve_bin, SHARDS)?;
        let ready = srv.command("{\"cmd\":\"stats\"}")?;
        let secs = t.elapsed().as_secs_f64();
        setups.push(Ref::Compute.scale(secs, before, Ref::Compute.time_ms()));
        if ready.get("ok").and_then(Json::as_bool) != Some(true) {
            tally.fail("server did not answer its readiness probe".to_string());
        }
        if rep + 1 < MIXED_SETUP_REPS {
            srv.close()?;
        } else {
            kept = Some(srv);
        }
    }
    let mut srv = kept.expect("at least one set-up");
    let secs = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let n = (MIXED_RATE * secs).round() as usize;
    let stream = gen::mixed_stream(cfg.seed, n, MIXED_MISS_PER_MILLE);
    let (plain, _) = open_loop(
        &mut srv,
        &stream.keys,
        &stream.fresh,
        HashMap::new(),
        MIXED_RATE,
        false,
        &mut tally,
    )?;
    let rss = srv.peak_rss_mib();
    srv.close()?;
    let check_share = |ol: &OpenLoop, out: &mut Outcome| {
        let observed = ol.seen.iter().filter(|s| !s.hit).count();
        if observed != stream.misses() {
            out.broken
                .push(format!("observed {observed} misses, the stream seeded {}", stream.misses()));
        }
    };
    check_share(&plain, &mut out);

    let (p50, tail, raw_p50, note) = windowed(&plain, "requests, timed from due");
    let (capacity, raw_capacity) = capacity(&plain);
    out.record.push(format!(
        "mixed_serve: grip-serve --shards {SHARDS}, cold; open loop at {MIXED_RATE} req/s offered for {secs:.1} s ({n} requests in segments of {}, {} fresh keys = {} per mille); references {:.3} ms compute, {:.3} ms wake (medians; scaled to {} and {} ms); unscaled p50 {:.5} ms, capacity {:.1} req/s",
        SEG_WINDOWS * WINDOW,
        stream.misses(),
        MIXED_MISS_PER_MILLE,
        plain.sent.ref_median(Ref::Compute),
        plain.sent.ref_median(Ref::Wake),
        Ref::Compute.nominal_ms(),
        Ref::Wake.nominal_ms(),
        raw_p50,
        raw_capacity
    ));
    out.e2e(
        "setup_s",
        stats::median(&setups),
        format!(
            "median of {MIXED_SETUP_REPS} set-ups (spawn + readiness probe), scaled by the compute reference"
        ),
    );
    out.e2e("latency_p50_ms", p50, note.clone());
    out.e2e("latency_tail_ms", tail, note);
    out.e2e(
        "throughput_rps",
        capacity,
        format!(
            "the server's capacity on this mix: {} responses over their summed engine time per shard ({SHARDS} shards), each scaled by the compute reference",
            plain.seen.len()
        ),
    );
    out.e2e("peak_rss_mb", rss, "VmHWM of grip-serve".to_string());
    let fresh_speedups: Vec<f64> =
        plain.seen.iter().zip(&stream.fresh).filter(|(_, &f)| f).map(|(s, _)| s.speedup).collect();
    out.e2e(
        "speedup_geomean",
        stats::geomean(&fresh_speedups),
        format!("geometric mean of seq/sched cycles over the {} fresh keys", fresh_speedups.len()),
    );

    if cfg.trace {
        let mut t = Tracer::new(true, Instant::now());
        let mut data = LayerData::default();
        let mut srv = Server::spawn(&cfg.serve_bin, SHARDS)?;
        let before = phase_counters(&mut srv)?;
        let (traced, _) = open_loop(
            &mut srv,
            &stream.keys,
            &stream.fresh,
            HashMap::new(),
            MIXED_RATE,
            true,
            &mut tally,
        )?;
        let after = phase_counters(&mut srv)?;
        data.phases_ns = [0, 1, 2, 3].map(|k| after[k].saturating_sub(before[k]));
        flight_records(&mut srv, &traced, &mut data)?;
        data.cache = traced.stats.get("stats").cloned();
        srv.close()?;
        check_share(&traced, &mut out);
        open_loop_layers(&traced, &stream.keys, &mut data);
        data.coverage_pct = replay_after(&mut t, &data.cold, &traced);
        let traced_p50 = windowed(&traced, "").0;
        data.overhead_pct = (traced_p50 / p50 - 1.0) * 100.0;
        out.record.push(format!(
            "traced pass: p50 {:.5} ms vs {:.5} ms untraced; flight records cover the last {} requests",
            traced_p50,
            p50,
            data.queue_wait_ns.len()
        ));
        out.traced = Some((data, t));
    }
    out.tally = tally;
    Ok(out)
}
