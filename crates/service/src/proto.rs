//! The JSON-lines wire protocol: one request object per line in, one
//! response object per line out, over stdin/stdout or TCP.
//!
//! Requests:
//!
//! ```json
//! {"id":1,"kernel":"LL3","n":48,"machine":"epic8"}
//! {"id":2,"kernel":"LL5","n":48,"machine":{"width":8,"slots":{"alu":4,"fpu":4,"mem":2},"latency":{"fpu":4,"fpu_long":16,"mem":2}},"unwind":12}
//! {"id":3,"kernel":"LL1","n":48,"machine":"scalar","trace":"req-abc","timings":true}
//! {"id":4,"kernel":"LL7","n":48,"machine":"mem_bound","audit":true}
//! {"cmd":"stats"}
//! {"cmd":"metrics"}
//! {"cmd":"metrics","format":"prometheus"}
//! {"cmd":"events","n":8}
//! ```
//!
//! `machine` is a preset name or an inline description (missing slot caps
//! mean uncapped, missing latencies mean one cycle). `unwind` and the four
//! option toggles are optional, as are `trace` (a client-chosen trace id,
//! echoed back; absent ids are shard-assigned), `timings` (opt into a
//! per-stage breakdown on the response), `audit` (opt into attaching
//! the `grip-audit` static verification report — the engine audits every
//! cold schedule either way), and `bounds` (opt into attaching the
//! `grip-bounds` optimality certificate — likewise proven on every cold
//! schedule). Unknown keys are rejected, not ignored, at every level of
//! a request, inline machine objects included. `{"cmd":"stats"}` answers
//! with the aggregate cache counters after all in-flight requests drain,
//! plus a `"window"` object — the rolling-window view of the metrics
//! registry (rates and p50/p95/p99 deltas over the server's sampling
//! window); `{"cmd":"metrics"}` dumps the process-wide metrics registry
//! (JSON, or Prometheus text with `"format":"prometheus"`);
//! `{"cmd":"events","n":K}` returns the flight recorder's last `K`
//! per-request records (and up to `K` retained slow-request captures),
//! most-recent-first.
//!
//! Responses echo the request `id` and carry the full measurement
//! (cycles, stalls, scheduler counters, fingerprints, verification flag,
//! cache status, wall time in nanoseconds plus fractional microseconds,
//! the trace id, and — when requested — the per-stage `timings` object).
//! Lines are written in request order; the server keeps a pipeline window
//! in flight across shards, so ordered output does not serialize the
//! pool.

use crate::fingerprint;
use crate::service::Service;
use crate::types::{
    inline_machine, CacheStatus, EngineOptions, MachineSpec, ScheduleRequest, ScheduleResponse,
};
use grip_core::ScheduleStats;
use grip_json::Json;
use grip_machine::LatencyTable;
use std::io::{BufRead, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc};

/// How many output frames (in-flight responses + queued error lines) the
/// line server allows before the reader blocks — bounds memory while
/// keeping every shard busy under a flood.
const PIPELINE_WINDOW: usize = 128;

// ---- requests ----

/// Serialize a request to its wire object.
pub fn request_to_json(req: &ScheduleRequest) -> Json {
    let machine = match &req.machine {
        MachineSpec::Preset(name) => Json::Str(name.clone()),
        MachineSpec::Inline(d) => {
            let cap = |v: usize| {
                if v == grip_machine::UNCAPPED {
                    Json::Null
                } else {
                    Json::Int(v as i64)
                }
            };
            Json::obj()
                .field("width", cap(d.width))
                .field("cjs", cap(d.cjs))
                .field(
                    "slots",
                    Json::obj()
                        .field("alu", cap(d.class_slots[0]))
                        .field("fpu", cap(d.class_slots[1]))
                        .field("mem", cap(d.class_slots[2]))
                        .field("branch", cap(d.class_slots[3])),
                )
                .field(
                    "latency",
                    Json::obj()
                        .field("alu", u64::from(d.latency.alu))
                        .field("fpu", u64::from(d.latency.fpu))
                        .field("fpu_long", u64::from(d.latency.fpu_long))
                        .field("mem", u64::from(d.latency.mem))
                        .field("branch", u64::from(d.latency.branch)),
                )
        }
    };
    let mut j = Json::obj()
        .field("id", req.id)
        .field("kernel", req.kernel.as_str())
        .field("n", req.n as u64)
        .field("machine", machine);
    if let Some(u) = req.unwind {
        j = j.field("unwind", u);
    }
    if let Some(t) = &req.trace {
        j = j.field("trace", t.as_str());
    }
    if req.want_timings {
        j = j.field("timings", true);
    }
    if req.want_audit {
        j = j.field("audit", true);
    }
    if req.want_bounds {
        j = j.field("bounds", true);
    }
    let d = EngineOptions::default();
    let o = req.options;
    if o.fold_inductions != d.fold_inductions {
        j = j.field("fold_inductions", o.fold_inductions);
    }
    if o.gap_prevention != d.gap_prevention {
        j = j.field("gap_prevention", o.gap_prevention);
    }
    if o.dce != d.dce {
        j = j.field("dce", o.dce);
    }
    if o.try_roll != d.try_roll {
        j = j.field("try_roll", o.try_roll);
    }
    j
}

fn cap_of(j: Option<&Json>) -> Result<Option<usize>, String> {
    match j {
        None => Ok(None),
        Some(Json::Null) => Ok(None),
        Some(v) => match v.as_i64() {
            Some(i) if i >= 0 => Ok(Some(i as usize)),
            Some(-1) => Ok(None),
            _ => Err("caps must be non-negative integers or null".to_string()),
        },
    }
}

fn lat_of(j: Option<&Json>, field: &str) -> Result<u32, String> {
    match j.and_then(|l| l.get(field)) {
        None => Ok(1),
        Some(v) => match v.as_i64() {
            Some(i) if i >= 1 && i <= u32::MAX as i64 => Ok(i as u32),
            _ => Err(format!("latency.{field} must be a positive integer")),
        },
    }
}

/// Every key a request object may carry.
const REQUEST_KEYS: [&str; 13] = [
    "id",
    "kernel",
    "n",
    "machine",
    "unwind",
    "trace",
    "timings",
    "audit",
    "bounds",
    "fold_inductions",
    "gap_prevention",
    "dce",
    "try_roll",
];

/// Every key an inline machine object may carry, then the keys of its
/// `slots` and `latency` objects.
const MACHINE_KEYS: [&str; 4] = ["width", "cjs", "slots", "latency"];
const SLOT_KEYS: [&str; 4] = ["alu", "fpu", "mem", "branch"];
const LATENCY_KEYS: [&str; 5] = ["alu", "fpu", "fpu_long", "mem", "branch"];

/// Reject any key of the object `j` outside `allowed`. Silently ignoring a
/// misspelled `"audti": true` or `"widht": 2` would quietly serve a
/// different request than the caller believes they made.
fn reject_unknown_keys(j: &Json, allowed: &[&str], what: &str) -> Result<(), String> {
    if let Json::Obj(fields) = j {
        if let Some((key, _)) = fields.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
            return Err(format!("unknown {what} key \"{key}\""));
        }
    }
    Ok(())
}

/// The optional `key` object of an inline machine `m`, its keys checked
/// against `allowed`.
fn machine_table<'j>(m: &'j Json, key: &str, allowed: &[&str]) -> Result<Option<&'j Json>, String> {
    match m.get(key) {
        None => Ok(None),
        Some(t @ Json::Obj(_)) => {
            reject_unknown_keys(t, allowed, &format!("machine.{key}"))?;
            Ok(Some(t))
        }
        Some(_) => Err(format!("machine.{key} must be an object")),
    }
}

/// Parse a wire object into a request.
pub fn request_from_json(j: &Json) -> Result<ScheduleRequest, String> {
    reject_unknown_keys(j, &REQUEST_KEYS, "request")?;
    let kernel = j
        .get("kernel")
        .and_then(Json::as_str)
        .ok_or_else(|| "request needs a \"kernel\" string".to_string())?
        .to_string();
    let n = j.get("n").and_then(Json::as_i64).ok_or("request needs an integer \"n\"")?;
    let machine = match j.get("machine") {
        Some(Json::Str(name)) => MachineSpec::Preset(name.clone()),
        Some(m @ Json::Obj(_)) => {
            reject_unknown_keys(m, &MACHINE_KEYS, "machine")?;
            // `width` must be present, but `null` means uncapped (pure
            // percolation), matching how the writer spells it.
            if m.get("width").is_none() {
                return Err("inline machine needs a \"width\"".to_string());
            }
            let width = cap_of(m.get("width"))?.unwrap_or(grip_machine::UNCAPPED);
            let cjs = cap_of(m.get("cjs"))?;
            let slots = machine_table(m, "slots", &SLOT_KEYS)?;
            let slot = |name: &str| cap_of(slots.and_then(|s| s.get(name)));
            let lat = machine_table(m, "latency", &LATENCY_KEYS)?;
            let latency = LatencyTable {
                alu: lat_of(lat, "alu")?,
                fpu: lat_of(lat, "fpu")?,
                fpu_long: lat_of(lat, "fpu_long")?,
                mem: lat_of(lat, "mem")?,
                branch: lat_of(lat, "branch")?,
            };
            let mut desc =
                inline_machine(width, cjs, [slot("alu")?, slot("fpu")?, slot("mem")?], latency);
            if let Some(b) = slot("branch")? {
                desc.class_slots[3] = b;
            }
            MachineSpec::Inline(desc)
        }
        _ => return Err("request needs a \"machine\" (preset name or object)".to_string()),
    };
    let unwind = match j.get("unwind") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_i64()
                .filter(|&u| u >= 0)
                .map(|u| u as usize)
                .ok_or_else(|| "\"unwind\" must be a non-negative integer".to_string())?,
        ),
    };
    let mut options = EngineOptions::default();
    let flag = |key: &str, dflt: bool| -> Result<bool, String> {
        match j.get(key) {
            None => Ok(dflt),
            Some(v) => v.as_bool().ok_or_else(|| format!("\"{key}\" must be a boolean")),
        }
    };
    options.fold_inductions = flag("fold_inductions", options.fold_inductions)?;
    options.gap_prevention = flag("gap_prevention", options.gap_prevention)?;
    options.dce = flag("dce", options.dce)?;
    options.try_roll = flag("try_roll", options.try_roll)?;
    let trace = match j.get("trace") {
        None | Some(Json::Null) => None,
        Some(Json::Str(t)) => Some(t.clone()),
        Some(_) => return Err("\"trace\" must be a string".to_string()),
    };
    let want_timings = flag("timings", false)?;
    let want_audit = flag("audit", false)?;
    let want_bounds = flag("bounds", false)?;
    Ok(ScheduleRequest {
        id: j.get("id").and_then(Json::as_i64).unwrap_or(0) as u64,
        kernel,
        n,
        machine,
        unwind,
        options,
        trace,
        want_timings,
        want_audit,
        want_bounds,
    })
}

// ---- responses ----

fn stats_to_json(s: &ScheduleStats) -> Json {
    Json::obj()
        .field("hops", s.hops)
        .field("arrivals", s.arrivals)
        .field("renames", s.renames)
        .field("splits", s.splits)
        .field("suspensions", s.suspensions)
        .field("gap_rejections", s.gap_rejections)
        .field("resource_blocks", s.resource_blocks)
        .field("latency_blocks", s.latency_blocks)
        .field("dce_removed", s.dce_removed)
        .field("nodes_deleted", s.nodes_deleted)
        .field("deletions_blocked", s.deletions_blocked)
        .field("picks", s.picks)
        .field("speculation_vetoes", s.speculation_vetoes)
        .field("hazard_delay_rows", s.hazard_delay_rows)
        .field("hazard_backfills", s.hazard_backfills)
        .field("hazard_reclaimed_rows", s.hazard_reclaimed_rows)
}

fn stats_from_json(j: Option<&Json>) -> ScheduleStats {
    let f = |name: &str| -> u64 {
        j.and_then(|s| s.get(name)).and_then(Json::as_i64).unwrap_or(0) as u64
    };
    ScheduleStats {
        hops: f("hops"),
        arrivals: f("arrivals"),
        renames: f("renames"),
        splits: f("splits"),
        suspensions: f("suspensions"),
        gap_rejections: f("gap_rejections"),
        resource_blocks: f("resource_blocks"),
        latency_blocks: f("latency_blocks"),
        dce_removed: f("dce_removed"),
        nodes_deleted: f("nodes_deleted"),
        deletions_blocked: f("deletions_blocked"),
        picks: f("picks"),
        speculation_vetoes: f("speculation_vetoes"),
        hazard_delay_rows: f("hazard_delay_rows"),
        hazard_backfills: f("hazard_backfills"),
        hazard_reclaimed_rows: f("hazard_reclaimed_rows"),
    }
}

/// Serialize a response to its wire object. `wall_ns` is the source of
/// truth (integer nanoseconds); `wall_us` rides along as fractional
/// microseconds for human readers, so cache hits no longer flatten to
/// `0`. The `timings` breakdown is emitted only when the request opted
/// in (`"timings": true`).
pub fn response_to_json(r: &ScheduleResponse) -> Json {
    let mut j = Json::obj().field("id", r.id).field("ok", r.ok);
    if let Some(e) = &r.error {
        j = j.field("error", e.as_str());
    }
    let j = j
        .field("kernel", r.kernel.as_str())
        .field("machine", r.machine.as_str())
        .field("n", r.n as u64)
        .field("unwind", r.unwind)
        .field("kernel_hash", fingerprint::hex(r.kernel_hash))
        .field("machine_fp", fingerprint::hex(r.machine_fp))
        .field("schedule_rows", r.schedule_rows)
        .field("seq_cycles", r.seq_cycles)
        .field("sched_cycles", r.sched_cycles)
        .field("sched_stalls", r.sched_stalls)
        .field("template_violations", r.template_violations)
        .field("speedup", r.speedup)
        .field("body_speedup", r.body_speedup)
        .field("verified", r.verified)
        .field("state_digest", fingerprint::hex(r.state_digest))
        .field("cache", r.cache.as_str())
        .field("wall_ns", r.wall_ns)
        .field("wall_us", r.wall_ns as f64 / 1000.0)
        .field("shard", r.shard)
        .field("trace", r.trace_id.as_str())
        .field("stats", stats_to_json(&r.stats));
    let j = match &r.timings {
        Some(t) => j.field(
            "timings",
            Json::obj()
                .field("prepare_ns", t.prepare_ns)
                .field("schedule_ns", t.schedule_ns)
                .field("hazards_ns", t.hazards_ns)
                .field("verify_ns", t.verify_ns)
                .field("audit_ns", t.audit_ns)
                .field("bounds_ns", t.bounds_ns)
                .field("total_ns", t.total_ns),
        ),
        None => j,
    };
    let j = match &r.audit {
        Some(a) => j.field("audit", a.to_json()),
        None => j,
    };
    match &r.bounds {
        Some(b) => j.field("bounds", b.to_json()),
        None => j,
    }
}

/// Parse a wire object back into a response (what `grip-client` does with
/// the server's output).
pub fn response_from_json(j: &Json) -> Result<ScheduleResponse, String> {
    let int = |name: &str| j.get(name).and_then(Json::as_i64).unwrap_or(0);
    let hexf = |name: &str| {
        j.get(name).and_then(Json::as_str).and_then(fingerprint::parse_hex).unwrap_or(0)
    };
    // `null` is the wire form of a non-finite float.
    let fl = |name: &str| match j.get(name) {
        Some(v) => v.as_f64().unwrap_or(f64::NAN),
        None => f64::NAN,
    };
    Ok(ScheduleResponse {
        id: int("id") as u64,
        ok: j.get("ok").and_then(Json::as_bool).ok_or("response needs \"ok\"")?,
        error: j.get("error").and_then(Json::as_str).map(str::to_string),
        kernel: j.get("kernel").and_then(Json::as_str).unwrap_or("").to_string(),
        machine: j.get("machine").and_then(Json::as_str).unwrap_or("").to_string(),
        n: int("n"),
        unwind: int("unwind") as usize,
        kernel_hash: hexf("kernel_hash"),
        machine_fp: hexf("machine_fp"),
        schedule_rows: int("schedule_rows") as usize,
        seq_cycles: int("seq_cycles") as u64,
        sched_cycles: int("sched_cycles") as u64,
        sched_stalls: int("sched_stalls") as u64,
        template_violations: int("template_violations") as u64,
        speedup: fl("speedup"),
        body_speedup: fl("body_speedup"),
        stats: stats_from_json(j.get("stats")),
        verified: j.get("verified").and_then(Json::as_bool).unwrap_or(false),
        state_digest: hexf("state_digest"),
        cache: j
            .get("cache")
            .and_then(Json::as_str)
            .and_then(CacheStatus::parse)
            .unwrap_or(CacheStatus::Miss),
        // `wall_ns` is authoritative; fall back to the fractional
        // microsecond field for responses from older peers.
        wall_ns: match j.get("wall_ns") {
            Some(v) => v.as_i64().unwrap_or(0) as u64,
            None => (fl("wall_us").max(0.0) * 1000.0) as u64,
        },
        shard: int("shard") as usize,
        trace_id: j.get("trace").and_then(Json::as_str).unwrap_or("").to_string(),
        timings: j.get("timings").map(|t| {
            let ns = |name: &str| t.get(name).and_then(Json::as_i64).unwrap_or(0) as u64;
            grip_obs::StageBreakdown {
                prepare_ns: ns("prepare_ns"),
                schedule_ns: ns("schedule_ns"),
                hazards_ns: ns("hazards_ns"),
                verify_ns: ns("verify_ns"),
                audit_ns: ns("audit_ns"),
                bounds_ns: ns("bounds_ns"),
                total_ns: ns("total_ns"),
            }
        }),
        audit: match j.get("audit") {
            None | Some(Json::Null) => None,
            Some(a) => Some(grip_audit::AuditReport::from_json(a)?),
        },
        bounds: match j.get("bounds") {
            None | Some(Json::Null) => None,
            Some(b) => Some(grip_bounds::BoundCertificate::from_json(b)?),
        },
    })
}

// ---- the line server ----

/// What a [`serve_lines`] session did.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeSummary {
    /// Scheduling responses written.
    pub served: u64,
    /// Lines rejected before reaching the scheduler.
    pub rejected: u64,
}

/// One queued output line: either a response still being computed or a
/// line that is already text (errors, stats).
enum Frame {
    Resp(mpsc::Receiver<ScheduleResponse>),
    Line(String),
    /// Quiesce marker: acknowledged by the writer once every frame before
    /// it has been written and flushed.
    Sync(mpsc::SyncSender<()>),
}

/// Serve the JSON-lines protocol from `reader` to `writer` until EOF.
///
/// A dedicated writer thread drains responses **in request order as soon
/// as each is ready** (flushing per line), while the reader keeps
/// accepting new requests — so lockstep request/response clients get
/// their answer immediately, and floods still pipeline up to
/// `PIPELINE_WINDOW` (128) requests across the shards. Malformed lines get an
/// in-order `ok:false` line; `{"cmd":"stats"}` quiesces the pipeline and
/// answers with aggregate counters. A shard worker dying mid-request
/// yields an in-band `ok:false` line for that request, not a dead server.
pub fn serve_lines(
    service: &Service,
    reader: impl BufRead,
    mut writer: impl Write + Send,
) -> std::io::Result<ServeSummary> {
    let mut summary = ServeSummary::default();
    // Bounded: enqueueing blocks once PIPELINE_WINDOW frames are unwritten,
    // which caps the in-flight pipeline.
    let (frames, frame_rx) = mpsc::sync_channel::<Frame>(PIPELINE_WINDOW);
    fn send(frames: &mpsc::SyncSender<Frame>, frame: Frame) {
        frames.send(frame).expect("writer thread gone");
    }

    std::thread::scope(|scope| -> std::io::Result<ServeSummary> {
        let writer_thread = scope.spawn(move || -> std::io::Result<()> {
            for frame in frame_rx {
                match frame {
                    Frame::Resp(rx) => match rx.recv() {
                        Ok(resp) => writeln!(writer, "{}", response_to_json(&resp).line())?,
                        // A dead shard worker must not take the whole
                        // session (in stdin mode, the whole server) down:
                        // report the loss in-band and keep going.
                        Err(_) => {
                            let out = Json::obj()
                                .field("ok", false)
                                .field("error", "internal: shard worker died serving this request");
                            writeln!(writer, "{}", out.line())?;
                        }
                    },
                    Frame::Line(s) => writeln!(writer, "{s}")?,
                    Frame::Sync(ack) => {
                        writer.flush()?;
                        let _ = ack.send(());
                        continue;
                    }
                }
                writer.flush()?;
            }
            writer.flush()
        });

        for line in reader.lines() {
            let line = line?;
            let text = line.trim();
            if text.is_empty() {
                continue;
            }
            match Json::parse(text) {
                Ok(j) if j.get("cmd").is_some() => {
                    // Control commands see a quiesced service: wait until
                    // every earlier frame is on the wire.
                    let (ack, ack_rx) = mpsc::sync_channel(1);
                    send(&frames, Frame::Sync(ack));
                    let _ = ack_rx.recv();
                    match j.get("cmd").and_then(Json::as_str) {
                        Some("stats") => {
                            // The windowed view diffs the current registry
                            // against the sampler's oldest retained
                            // snapshot (empty until the first tick — the
                            // serve binary ticks at boot and ~1 Hz).
                            let window =
                                grip_obs::window::global().stats_registry(grip_obs::global());
                            let out = Json::obj()
                                .field("cmd", "stats")
                                .field("ok", true)
                                .field("stats", service.stats().to_json())
                                .field("window", window.to_json());
                            send(&frames, Frame::Line(out.line()));
                        }
                        // `{"cmd":"events","n":K}` dumps the flight
                        // recorder: the last K completion records plus up
                        // to K retained slow-request captures, newest
                        // first. The pipeline is quiesced, so every
                        // request answered before this line is journaled.
                        Some("events") => {
                            let rec = grip_obs::events::global();
                            let n = match j.get("n") {
                                None | Some(Json::Null) => 16,
                                Some(v) => match v.as_i64() {
                                    Some(k) if k >= 0 => k as usize,
                                    _ => {
                                        summary.rejected += 1;
                                        let out = Json::obj()
                                            .field("ok", false)
                                            .field("error", "\"n\" must be a non-negative integer");
                                        send(&frames, Frame::Line(out.line()));
                                        continue;
                                    }
                                },
                            };
                            let events: Vec<Json> =
                                rec.recent(n).iter().map(|r| r.to_json()).collect();
                            let slow: Vec<Json> = rec.slow(n).iter().map(|r| r.to_json()).collect();
                            let out = Json::obj()
                                .field("cmd", "events")
                                .field("ok", true)
                                .field("total", rec.total_recorded())
                                .field("events", Json::Arr(events))
                                .field("slow", Json::Arr(slow));
                            send(&frames, Frame::Line(out.line()));
                        }
                        // `{"cmd":"metrics"}` dumps the process-wide
                        // grip-obs registry (stage histograms, pass
                        // counters, cache counters) as JSON, or — with
                        // `"format":"prometheus"` — as a Prometheus text
                        // exposition in the `text` field.
                        Some("metrics") => {
                            let snap = grip_obs::global().snapshot();
                            let out = Json::obj().field("cmd", "metrics").field("ok", true);
                            let out = match j.get("format").and_then(Json::as_str) {
                                Some("prometheus") => out
                                    .field("format", "prometheus")
                                    .field("text", snap.to_prometheus()),
                                _ => out.field("metrics", snap.to_json()),
                            };
                            send(&frames, Frame::Line(out.line()));
                        }
                        other => {
                            summary.rejected += 1;
                            let out = Json::obj()
                                .field("ok", false)
                                .field("error", format!("unknown cmd {other:?}"));
                            send(&frames, Frame::Line(out.line()));
                        }
                    }
                }
                Ok(j) => match request_from_json(&j) {
                    Ok(req) => {
                        summary.served += 1;
                        send(&frames, Frame::Resp(service.submit_async(req)));
                    }
                    Err(e) => {
                        summary.rejected += 1;
                        let id = j.get("id").and_then(Json::as_i64).unwrap_or(0);
                        let out =
                            Json::obj().field("id", id as u64).field("ok", false).field("error", e);
                        send(&frames, Frame::Line(out.line()));
                    }
                },
                Err(e) => {
                    summary.rejected += 1;
                    let out =
                        Json::obj().field("ok", false).field("error", format!("bad JSON: {e}"));
                    send(&frames, Frame::Line(out.line()));
                }
            }
        }
        drop(frames);
        writer_thread.join().expect("writer thread panicked")?;
        Ok(summary)
    })
}

/// Accept TCP connections forever, each served by [`serve_lines`] on its
/// own thread (connections share the service and its caches).
pub fn serve_tcp(service: Arc<Service>, listener: TcpListener) -> std::io::Result<()> {
    for conn in listener.incoming() {
        let stream: TcpStream = conn?;
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_default();
            let reader = std::io::BufReader::new(match stream.try_clone() {
                Ok(s) => s,
                Err(_) => return,
            });
            let writer = std::io::BufWriter::new(stream);
            match serve_lines(&service, reader, writer) {
                Ok(s) => {
                    eprintln!("[grip-serve] {peer}: served {}, rejected {}", s.served, s.rejected)
                }
                Err(e) => eprintln!("[grip-serve] {peer}: connection error: {e}"),
            }
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;

    #[test]
    fn requests_round_trip_through_the_wire_form() {
        let mut req = ScheduleRequest::new("LL7", 33, MachineSpec::Preset("mem_bound".into()));
        req.id = 42;
        req.unwind = Some(9);
        req.options.try_roll = true;
        req.trace = Some("client-trace-7".into());
        req.want_timings = true;
        let j = request_to_json(&req);
        let back = request_from_json(&Json::parse(&j.line()).unwrap()).unwrap();
        assert_eq!(back, req);

        let inline = ScheduleRequest::new(
            "LL1",
            10,
            MachineSpec::Inline(inline_machine(
                4,
                Some(2),
                [Some(2), None, Some(1)],
                LatencyTable { alu: 1, fpu: 2, fpu_long: 8, mem: 2, branch: 1 },
            )),
        );
        let back = request_from_json(&request_to_json(&inline)).unwrap();
        assert_eq!(back, inline);

        // The branch-class cap and an uncapped width survive the wire too
        // (same fingerprint ⇒ same cache lines on the other side).
        let mut desc = inline_machine(4, Some(1), [Some(2), None, Some(1)], LatencyTable::UNIT);
        desc.class_slots[3] = 1;
        let branchy = ScheduleRequest::new("LL2", 8, MachineSpec::Inline(desc));
        let back = request_from_json(&request_to_json(&branchy)).unwrap();
        assert_eq!(back, branchy);
        match (&back.machine, &branchy.machine) {
            (MachineSpec::Inline(a), MachineSpec::Inline(b)) => {
                assert_eq!(a.fingerprint(), b.fingerprint())
            }
            _ => unreachable!(),
        }
        let mut unlimited = grip_machine::MachineDesc::UNLIMITED;
        unlimited.name = "inline";
        let wide = ScheduleRequest::new("LL3", 8, MachineSpec::Inline(unlimited));
        let back = request_from_json(&request_to_json(&wide)).unwrap();
        assert_eq!(back, wide);
    }

    #[test]
    fn malformed_requests_are_described() {
        for bad in [
            r#"{"n":4,"machine":"epic8"}"#,
            r#"{"kernel":"LL1","machine":"epic8"}"#,
            r#"{"kernel":"LL1","n":4}"#,
            r#"{"kernel":"LL1","n":4,"machine":{"slots":{}}}"#,
            r#"{"kernel":"LL1","n":4,"machine":"epic8","unwind":"yes"}"#,
        ] {
            let j = Json::parse(bad).unwrap();
            assert!(request_from_json(&j).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn line_server_answers_in_order_with_stats() {
        let svc = Service::new(ServiceConfig { shards: 2, ..Default::default() });
        let input = "\n\
            {\"id\":1,\"kernel\":\"LL12\",\"n\":12,\"machine\":\"uniform4\"}\n\
            not json\n\
            {\"id\":2,\"kernel\":\"LL12\",\"n\":12,\"machine\":\"uniform4\"}\n\
            {\"cmd\":\"stats\"}\n\
            {\"id\":3,\"kernel\":\"LL98\",\"n\":12,\"machine\":\"uniform4\"}\n";
        let mut out = Vec::new();
        let summary = serve_lines(&svc, input.as_bytes(), &mut out).unwrap();
        assert_eq!(summary.served, 3);
        assert_eq!(summary.rejected, 1);
        let lines: Vec<Json> =
            String::from_utf8(out).unwrap().lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 5);
        // Every answer comes back in input-line order: response, the bad
        // JSON's in-order error, response, stats, response.
        let r1 = response_from_json(&lines[0]).unwrap();
        assert_eq!(lines[1].get("ok").and_then(Json::as_bool), Some(false), "bad JSON line");
        let r2 = response_from_json(&lines[2]).unwrap();
        assert_eq!((r1.id, r2.id), (1, 2));
        assert!(r1.ok && r1.verified && r2.ok);
        assert_eq!(r2.cache, CacheStatus::Hit, "repeat of id 1");
        assert!(r1.bits_eq(&r2));
        // Stats reflect both requests; the unknown kernel errors in-band.
        let st = lines[3].get("stats").unwrap();
        assert_eq!(st.get("processed").and_then(Json::as_i64), Some(2));
        assert_eq!(st.get("sched_hits").and_then(Json::as_i64), Some(1));
        let r3 = response_from_json(&lines[4]).unwrap();
        assert!(!r3.ok && r3.error.unwrap().contains("unknown kernel"));
    }

    #[test]
    fn events_command_dumps_journaled_flight_records() {
        let svc = Service::new(ServiceConfig { shards: 1, ..Default::default() });
        let input = "\
            {\"id\":1,\"kernel\":\"LL1\",\"n\":12,\"machine\":\"uniform4\",\"trace\":\"ev-a\"}\n\
            {\"id\":2,\"kernel\":\"LL1\",\"n\":12,\"machine\":\"uniform4\",\"trace\":\"ev-b\"}\n\
            {\"cmd\":\"events\",\"n\":2}\n\
            {\"cmd\":\"events\",\"n\":-3}\n\
            {\"cmd\":\"stats\"}\n";
        let mut out = Vec::new();
        serve_lines(&svc, input.as_bytes(), &mut out).unwrap();
        let lines: Vec<Json> =
            String::from_utf8(out).unwrap().lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 5);
        let ev = &lines[2];
        assert_eq!(ev.get("ok").and_then(Json::as_bool), Some(true));
        assert!(ev.get("total").and_then(Json::as_i64).unwrap() >= 2, "both requests journaled");
        let events = match ev.get("events") {
            Some(Json::Arr(a)) => a,
            other => panic!("events must be an array, got {other:?}"),
        };
        // The recorder is process-global (other tests may interleave), so
        // check shape, not identity: the dump honours `n`, and every
        // record is a lossless FlightRecord wire form.
        assert_eq!(events.len(), 2, "the dump honours n");
        for e in events {
            let rec = grip_obs::FlightRecord::from_json(e);
            assert!(!rec.trace_id.is_empty());
            assert!(rec.finish_ns >= rec.dequeue_ns && rec.dequeue_ns >= rec.enqueue_ns);
            assert_eq!(rec.to_json().line(), e.line(), "record round-trips losslessly");
        }
        // A negative n is a protocol error, answered in-band.
        assert_eq!(lines[3].get("ok").and_then(Json::as_bool), Some(false));
        // The stats answer now carries the rolling-window object (empty
        // here: nothing ticks the sampler in stdin tests).
        assert!(lines[4].get("window").is_some(), "stats carries the windowed view");
    }

    #[test]
    fn malformed_audit_flags_and_unknown_keys_are_rejected() {
        // "audit" must be a strict JSON boolean — truthy strings and
        // numbers are protocol errors, not coercions.
        for bad in [
            r#"{"kernel":"LL1","n":4,"machine":"epic8","audit":"yes"}"#,
            r#"{"kernel":"LL1","n":4,"machine":"epic8","audit":1}"#,
            r#"{"kernel":"LL1","n":4,"machine":"epic8","audit":null}"#,
        ] {
            let err = request_from_json(&Json::parse(bad).unwrap()).unwrap_err();
            assert!(err.contains("boolean"), "{bad}: {err}");
        }
        // Unknown keys are rejected by name at every level, so a typo
        // cannot silently drop an option on the floor — or a machine cap:
        // with `"memory":1` ignored, the memory port used to be uncapped.
        for (bad, expect) in [
            (r#""machine":"epic8","audti":true"#, r#"unknown request key "audti""#),
            (r#""machine":"epic8","wants_timings":true"#, r#"unknown request key "wants_timings""#),
            (r#""machine":{"widht":2}"#, r#"unknown machine key "widht""#),
            (r#""machine":{"width":8,"slots":{"memory":1}}"#, r#"machine.slots key "memory""#),
            (r#""machine":{"width":8,"latency":{"memory":3}}"#, r#"machine.latency key "memory""#),
            (r#""machine":{"width":8,"slots":1}"#, "machine.slots must be an object"),
            (r#""machine":{"width":8,"slots":null}"#, "machine.slots must be an object"),
            (r#""machine":{"width":8,"latency":[3]}"#, "machine.latency must be an object"),
        ] {
            let bad = format!(r#"{{"kernel":"LL1","n":4,{bad}}}"#);
            let err = request_from_json(&Json::parse(&bad).unwrap()).unwrap_err();
            assert!(err.contains(expect), "{bad}: {err}");
        }
        // The correct spelling caps the port.
        let good = r#"{"kernel":"LL1","n":4,"machine":{"width":8,"slots":{"mem":1}}}"#;
        let req = request_from_json(&Json::parse(good).unwrap()).unwrap();
        let MachineSpec::Inline(d) = req.machine else { panic!("inline machine expected") };
        assert_eq!(d.class_slots[2], 1);
        // The canonical spelling parses.
        let good = r#"{"kernel":"LL1","n":4,"machine":"epic8","audit":true}"#;
        let req = request_from_json(&Json::parse(good).unwrap()).unwrap();
        assert!(req.want_audit);
    }

    #[test]
    fn audit_reports_survive_the_wire() {
        let svc = Service::new(ServiceConfig { shards: 1, ..Default::default() });
        let mut req = ScheduleRequest::new("LL5", 16, MachineSpec::Preset("epic8".into()));
        req.want_audit = true;
        let resp = svc.submit(req.clone());
        assert!(resp.ok && resp.verified);
        let rep = resp.audit.as_ref().expect("opted-in audit report is delivered");
        assert!(rep.is_clean(), "service schedules audit clean: {rep}");
        assert!(rep.rows > 0 && rep.ops > 0, "report carries the audit's coverage counts");
        let back =
            response_from_json(&Json::parse(&response_to_json(&resp).line()).unwrap()).unwrap();
        assert!(back.bits_eq(&resp));
        assert_eq!(back.audit, resp.audit, "audit report is lossless on the wire");

        // Without the opt-in the response wire form has no audit field at
        // all, and parses back to None.
        req.want_audit = false;
        req.id += 1;
        let bare = svc.submit(req);
        assert!(bare.audit.is_none(), "audit delivery is opt-in");
        let j = response_to_json(&bare);
        assert!(j.line().find("\"audit\"").is_none(), "no audit key on the default wire form");
        let back = response_from_json(&Json::parse(&j.line()).unwrap()).unwrap();
        assert!(back.audit.is_none());
        assert!(back.bits_eq(&bare), "audit delivery does not perturb bit-identity");
    }

    #[test]
    fn dirty_audit_reports_round_trip() {
        // Failure shape: a report with structured diagnostics (the form
        // `grip-client --check` fails on) survives to_json/from_json.
        let rep = grip_audit::AuditReport {
            diagnostics: vec![grip_audit::Diagnostic {
                code: grip_audit::AuditCode::LatencyShadow,
                row: 7,
                op: Some("load x".into()),
                register: Some("r12".into()),
                message: "row 7 reads r12 2 cycles early".into(),
            }],
            rows: 9,
            ops: 31,
            mem_deps: 4,
            reg_deps: 18,
        };
        let back = grip_audit::AuditReport::from_json(&Json::parse(&rep.to_json().line()).unwrap())
            .unwrap();
        assert_eq!(back, rep);
        assert!(!back.is_clean());
    }

    #[test]
    fn malformed_bounds_flags_are_rejected() {
        // "bounds", like "audit", is a strict JSON boolean.
        for bad in [
            r#"{"kernel":"LL1","n":4,"machine":"epic8","bounds":"yes"}"#,
            r#"{"kernel":"LL1","n":4,"machine":"epic8","bounds":1}"#,
            r#"{"kernel":"LL1","n":4,"machine":"epic8","bounds":null}"#,
        ] {
            let err = request_from_json(&Json::parse(bad).unwrap()).unwrap_err();
            assert!(err.contains("boolean"), "{bad}: {err}");
        }
        let err = request_from_json(
            &Json::parse(r#"{"kernel":"LL1","n":4,"machine":"epic8","bouns":true}"#).unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("unknown request key") && err.contains("bouns"), "{err}");
        // The canonical spelling parses and round-trips.
        let good = r#"{"kernel":"LL1","n":4,"machine":"epic8","bounds":true}"#;
        let req = request_from_json(&Json::parse(good).unwrap()).unwrap();
        assert!(req.want_bounds);
        let back = request_from_json(&Json::parse(&request_to_json(&req).line()).unwrap()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn bound_certificates_survive_the_wire() {
        let svc = Service::new(ServiceConfig { shards: 1, ..Default::default() });
        let mut req = ScheduleRequest::new("LL5", 16, MachineSpec::Preset("epic8".into()));
        req.want_bounds = true;
        let resp = svc.submit(req.clone());
        assert!(resp.ok && resp.verified);
        let cert = resp.bounds.expect("opted-in certificate is delivered");
        assert!(cert.bound_cycles > 0, "a scheduled loop has a nonzero bound");
        assert!(
            (resp.schedule_rows as u64) >= cert.bound_cycles,
            "service schedules never beat their own certificate: {cert:?}"
        );
        let back =
            response_from_json(&Json::parse(&response_to_json(&resp).line()).unwrap()).unwrap();
        assert!(back.bits_eq(&resp));
        assert_eq!(back.bounds, resp.bounds, "certificate is lossless on the wire");

        // Every binding-constraint label survives the response wire form.
        for bc in grip_bounds::BindingConstraint::ALL {
            let mut tagged = resp.clone();
            tagged.bounds = Some(grip_bounds::BoundCertificate {
                bound_cycles: 17,
                binding_constraint: bc,
                gap_pct: 6.25,
                at_bound: false,
            });
            let wire = response_to_json(&tagged).line();
            let back = response_from_json(&Json::parse(&wire).unwrap()).unwrap();
            assert_eq!(back.bounds, tagged.bounds, "{bc} must survive the wire");
        }

        // Without the opt-in the wire form has no bounds key at all, and
        // delivery does not perturb bit-identity.
        req.want_bounds = false;
        req.id += 1;
        let bare = svc.submit(req);
        assert!(bare.bounds.is_none(), "bounds delivery is opt-in");
        let j = response_to_json(&bare).line();
        assert!(j.find("\"bounds\"").is_none(), "no bounds key on the default wire form");
        let back = response_from_json(&Json::parse(&j).unwrap()).unwrap();
        assert!(back.bounds.is_none());
        assert!(back.bits_eq(&bare), "bounds delivery does not perturb bit-identity");
    }

    #[test]
    fn responses_round_trip_bit_identically() {
        let svc = Service::new(ServiceConfig { shards: 1, ..Default::default() });
        let mut req = ScheduleRequest::new("LL3", 16, MachineSpec::Preset("clustered".into()));
        req.want_timings = true;
        let resp = svc.submit(req);
        assert!(resp.ok && resp.verified);
        let j = response_to_json(&resp);
        let back = response_from_json(&Json::parse(&j.line()).unwrap()).unwrap();
        assert!(back.bits_eq(&resp), "wire round-trip must not lose bits");
        assert_eq!(back.wall_ns, resp.wall_ns, "nanosecond wall time is lossless");
        assert_eq!(back.shard, resp.shard);
        assert_eq!(back.cache, resp.cache);
        assert_eq!(back.trace_id, resp.trace_id, "shard-assigned trace id survives");
        assert!(!back.trace_id.is_empty());
        assert_eq!(back.timings, resp.timings, "opted-in stage breakdown survives");
        let t = back.timings.expect("requested timings");
        assert!(t.total_ns > 0);
        assert!(t.schedule_ns > 0, "a cold schedule spends time scheduling: {t:?}");
    }
}
