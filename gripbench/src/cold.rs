//! `cold_compile`: what a compiler embedding grip pays per loop.
//!
//! A closed loop on one thread sends each of the 84 preset × LL1–LL14
//! cells once, in seeded order, through a fresh single-shard service (a
//! fresh `Engine` behind the pool's hand-off), so every request misses
//! the schedule cache and runs prepare, schedule, hazards, VM
//! verification, audit and bounds.
//!
//! A run sweeps the 84 cells at least once, and again while the next sweep
//! fits in its time. Then it passes over the middle band, the cells whose
//! rank lies in the middle quarter, while time remains and at least
//! [`MIN_BAND_PASSES`] times: these cells decide p50, and one sample of a
//! cell still reads the host as much as the program. The compute reference
//! ([`crate::probe`]) runs before the first cell of every pass and after
//! every cell, and each cell's latency is scaled by the reference times
//! around it. A cell's latency is the median of its scaled samples; p50,
//! tail and throughput are taken over those 84 figures.

use crate::check::{self, Asks, Seen};
use crate::gen::{self, Key};
use crate::layers::{self, LayerData};
use crate::probe::Ref;
use crate::trace::Tracer;
use crate::{rss_self_mib, stats, Cfg, Outcome, Tally};
use grip_service::proto::response_to_json;
use grip_service::{EngineConfig, ScheduleResponse, Service, ServiceConfig};
use std::time::Instant;

/// Set-ups per run; `setup_s` is the median of their scaled times.
const SETUP_REPS: usize = 9;

/// Passes over the middle band that every run makes, however slow the
/// host.
const MIN_BAND_PASSES: usize = 6;

/// The spans whose inclusive time the traced pass's layer spans must
/// account for: each cold request, and each replay of its
/// machine-independent layers.
const COVERAGE_ROOTS: [&str; 2] = ["engine.miss", "bench.replay"];

/// The set-up probe: a small cell outside the sweep.
const SETUP_KEY: Key = Key { kernel: "LL1", machine: "uniform2", n: 8 };

fn fresh() -> Service {
    Service::new(ServiceConfig { shards: 1, engine: EngineConfig::default() })
}

/// One sweep's results.
struct Sweep {
    /// Wall milliseconds per request, in sweep order.
    lat_ms: Vec<f64>,
    /// The same, scaled by the compute reference.
    scaled_ms: Vec<f64>,
    /// The reference task's times: before the first cell, then after each.
    ref_ms: Vec<f64>,
    speedups: Vec<f64>,
    /// Closed-loop client gap: from one response to the next request.
    gaps_ns: Vec<f64>,
}

/// Per-cell latency samples, in sweep order: scaled by the compute
/// reference, and as measured.
struct Samples {
    scaled: Vec<Vec<f64>>,
    raw: Vec<Vec<f64>>,
}

impl Samples {
    fn new(n: usize) -> Samples {
        Samples { scaled: vec![Vec::new(); n], raw: vec![Vec::new(); n] }
    }

    /// Add a pass over the cells at positions `cells`.
    fn add(&mut self, cells: &[usize], s: &Sweep) {
        for (k, &c) in cells.iter().enumerate() {
            self.scaled[c].push(s.scaled_ms[k]);
            self.raw[c].push(s.lat_ms[k]);
        }
    }
}

/// Per-cell latencies: each cell's median sample.
struct Cells(Vec<f64>);

impl Cells {
    fn of(samples: &[Vec<f64>]) -> Cells {
        Cells(samples.iter().map(|x| stats::median(x)).collect())
    }

    /// Positions of the cells ranked in the middle quarter, ascending.
    fn middle_band(&self) -> Vec<usize> {
        let n = self.0.len();
        let mut by_lat: Vec<usize> = (0..n).collect();
        by_lat.sort_by(|&a, &b| self.0[a].total_cmp(&self.0[b]));
        let mut band = by_lat[n * 3 / 8..n - n * 3 / 8].to_vec();
        band.sort_unstable();
        band
    }
    fn p50(&self) -> f64 {
        stats::median(&self.0)
    }
    fn tail(&self) -> f64 {
        stats::percentile(&self.0, stats::tail_percentile(self.0.len()) as f64)
    }
    fn throughput(&self) -> f64 {
        self.0.len() as f64 / (self.0.iter().sum::<f64>() / 1e3)
    }
}

/// Child spans for the engine's own stage breakdown and pick-loop phases.
fn synth_stages(t: &mut Tracer, parent: crate::trace::SpanId, s: &Seen, phases: [u64; 4]) {
    let Some(st) = s.stages else { return };
    t.synth(parent, "engine.prepare", st[0]);
    let sched = t.synth(parent, "core.schedule", st[1]);
    for (name, ns) in [
        "core.phase.cand_refresh",
        "core.phase.legality",
        "core.phase.commit",
        "core.phase.dead_sweep",
    ]
    .into_iter()
    .zip(phases)
    {
        t.synth(sched, name, ns);
    }
    t.synth(parent, "core.hazards", st[2]);
    t.synth(parent, "vm.verify", st[3]);
    t.synth(parent, "audit", st[4]);
    t.synth(parent, "bounds", st[5]);
}

/// One sweep through a fresh service. When tracing, each cell's
/// machine-independent layers are replayed under spans, its cold
/// response is broken into stage spans, and after the sweep every cell is
/// requested again to time the hit path layer by layer.
fn sweep(
    order: &[Key],
    t: &mut Tracer,
    tally: &mut Tally,
    mut data: Option<&mut LayerData>,
) -> Sweep {
    let svc = fresh();
    let traced = t.on();
    let asks = Asks { proofs: true, timings: traced, trace: traced };
    let mut out = Sweep {
        lat_ms: Vec::new(),
        scaled_ms: Vec::new(),
        ref_ms: Vec::new(),
        speedups: Vec::new(),
        gaps_ns: Vec::new(),
    };
    let mut ref_ms = t.time("bench.probe", 0, || Ref::Compute.time_ms());
    out.ref_ms.push(ref_ms);
    let mut last = Instant::now();
    let mut colds: Vec<ScheduleResponse> = Vec::with_capacity(order.len());
    let mut recvs: Vec<(Instant, Instant)> = Vec::with_capacity(order.len());
    for (i, key) in order.iter().enumerate() {
        let id = i as u64;
        if traced {
            let replay = t.enter("bench.replay", id);
            layers::replay_prepare(t, key, id);
            t.exit(replay);
        }
        let before = if traced {
            t.time("bench.counters", id, || layers::phase_counters(None))
        } else {
            [0; 4]
        };
        let req = check::request(key, id, asks);
        let sent = Instant::now();
        out.gaps_ns.push((sent - last).as_nanos() as f64);
        let span = t.enter("engine.miss", id);
        let resp = svc.submit(req);
        t.exit(span);
        let recv = Instant::now();
        let lat_ms = (recv - sent).as_secs_f64() * 1e3;
        let ref_after = t.time("bench.probe", id, || Ref::Compute.time_ms());
        out.lat_ms.push(lat_ms);
        out.scaled_ms.push(Ref::Compute.scale(lat_ms, ref_ms, ref_after));
        out.ref_ms.push(ref_after);
        ref_ms = ref_after;
        let chk = t.enter("bench.check", id);
        let after = if traced { layers::phase_counters(None) } else { [0; 4] };
        let seen =
            check::check(key, &resp, &response_to_json(&resp), false, None, true, &mut tally.why);
        t.exit(chk);
        tally.count(seen.pass);
        out.speedups.push(seen.speedup);
        if let Some(d) = data.as_deref_mut() {
            let phases = [0, 1, 2, 3].map(|k| after[k].saturating_sub(before[k]));
            synth_stages(t, span, &seen, phases);
            for (acc, p) in d.phases_ns.iter_mut().zip(phases) {
                *acc += p;
            }
            d.add_busy(&seen);
            d.wire_ns.push((recv - sent).as_nanos() as f64 - seen.wall_ns as f64);
            d.cold.push((*key, seen));
            colds.push(resp);
            recvs.push((sent, recv));
        }
        last = Instant::now();
    }
    let Some(d) = data else { return out };

    // Flight records of this sweep's misses: queue wait, and how long each
    // finished response waited before the client had it.
    let rec = grip_obs::events::global();
    let records = t.time("bench.records", 0, || rec.recent(order.len()));
    for r in records {
        let Some(i) = r.trace_id.strip_prefix('q').and_then(|s| s.parse::<usize>().ok()) else {
            continue;
        };
        if let Some(&(_, recv)) = recvs.get(i) {
            d.queue_wait_ns.push(r.queue_wait_ns as f64);
            d.hol_ns.push(rec.ns_of(recv).saturating_sub(r.finish_ns) as f64);
        }
    }

    // The hit path, one layer at a time, on this sweep's now-warm engine.
    let hit_asks = Asks { proofs: false, timings: true, trace: true };
    let lines: Vec<String> = t.time("bench.lines", 0, || {
        order.iter().enumerate().map(|(i, k)| check::request_line(k, i as u64, hit_asks)).collect()
    });
    for (i, key) in order.iter().enumerate() {
        let id = i as u64;
        let Some(req) = layers::decode_path(t, id, &lines[i], &svc) else {
            tally.fail(format!("{key:?}: request line did not decode"));
            continue;
        };
        let resp = t.time("engine.hit", id, || svc.submit(req));
        let chk = t.enter("bench.check", id);
        let seen = check::check(
            key,
            &resp,
            &response_to_json(&resp),
            true,
            colds.get(i),
            false,
            &mut tally.why,
        );
        t.exit(chk);
        tally.count(seen.pass);
        layers::encode_path(t, id, &resp);
        d.add_busy(&seen);
        d.hits.push(seen);
    }
    d.cache = Some(svc.stats().to_json());
    out
}

/// Sweeps while the next, as long as the last, fits in `budget_s` (at
/// least one).
fn sweeps(
    budget_s: f64,
    order: &[Key],
    t: &mut Tracer,
    tally: &mut Tally,
    mut data: Option<&mut LayerData>,
) -> Vec<Sweep> {
    let start = Instant::now();
    let mut out: Vec<Sweep> = Vec::new();
    loop {
        let t0 = Instant::now();
        out.push(sweep(order, t, tally, data.as_deref_mut()));
        if start.elapsed().as_secs_f64() + t0.elapsed().as_secs_f64() > budget_s {
            return out;
        }
    }
}

/// Pin this process, and every thread it starts from now on, to the first
/// CPU it may run on; `None` where that failed. The schedules run on the
/// service's shard thread and the reference on this one. On a shared host
/// each vCPU slows on its own, so a reference timed on the other vCPU does
/// not track the schedules; on one CPU it does.
fn pin_to_one_cpu() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu = allowed.trim().split([',', '-']).next()?.to_string();
    let pinned = std::process::Command::new("taskset")
        .args(["-a", "-p", "-c", &cpu, &std::process::id().to_string()])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .ok()?
        .success();
    pinned.then_some(cpu)
}

pub fn run(cfg: &Cfg) -> Outcome {
    let pinned = pin_to_one_cpu();
    let order = gen::cold_order(cfg.seed);
    let mut tally = Tally::default();
    let mut off = Tracer::new(false, Instant::now());

    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let before = Ref::Compute.time_ms();
        let t = Instant::now();
        let svc = fresh();
        let resp =
            svc.submit(check::request(&SETUP_KEY, 0, Asks { proofs: true, ..Asks::default() }));
        let secs = t.elapsed().as_secs_f64();
        setups.push(Ref::Compute.scale(secs, before, Ref::Compute.time_ms()));
        let seen = check::check(
            &SETUP_KEY,
            &resp,
            &response_to_json(&resp),
            false,
            None,
            true,
            &mut tally.why,
        );
        tally.count(seen.pass);
    }

    let budget = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let start = Instant::now();
    let plain_sweeps = sweeps(budget, &order, &mut off, &mut tally, None);
    let mut samples = Samples::new(order.len());
    let all: Vec<usize> = (0..order.len()).collect();
    for s in &plain_sweeps {
        samples.add(&all, s);
    }
    let band = Cells::of(&samples.scaled).middle_band();
    let band_keys: Vec<Key> = band.iter().map(|&i| order[i]).collect();
    let mut refs: Vec<f64> = plain_sweeps.iter().flat_map(|s| s.ref_ms.iter().copied()).collect();
    let mut passes = 0;
    loop {
        let t0 = Instant::now();
        let s = sweep(&band_keys, &mut off, &mut tally, None);
        samples.add(&band, &s);
        refs.extend(&s.ref_ms);
        passes += 1;
        let next_ends = start.elapsed().as_secs_f64() + t0.elapsed().as_secs_f64();
        if passes >= MIN_BAND_PASSES && next_ends > budget {
            break;
        }
    }
    let plain = Cells::of(&samples.scaled);
    let raw = Cells::of(&samples.raw);
    let mut out = Outcome::default();
    out.record.push(format!(
        "cold_compile: closed loop, 1 client thread, fresh 1-shard service per pass, {}, {} cells at n={}: {} full sweep(s), then {passes} passes over the {} cells of the middle band; compute reference {:.3} ms median (scaled to {} ms); unscaled p50 {:.4} ms, throughput {:.4} req/s",
        pinned.map_or("not pinned (taskset failed)".to_string(), |c| format!("pinned to CPU {c}")),
        order.len(),
        gen::CELL_N,
        plain_sweeps.len(),
        band.len(),
        stats::median(&refs),
        Ref::Compute.nominal_ms(),
        raw.p50(),
        raw.throughput()
    ));
    let n_lat = order.len();
    let tail_p = stats::tail_percentile(n_lat);
    let per_cell = format!(
        "each the median of its samples ({} in the middle band, {} elsewhere), scaled by the compute reference",
        plain_sweeps.len() + passes,
        plain_sweeps.len()
    );
    out.e2e(
        "setup_s",
        stats::median(&setups),
        format!(
            "median of {SETUP_REPS} set-ups (fresh service + one small schedule), scaled by the compute reference"
        ),
    );
    out.e2e("latency_p50_ms", plain.p50(), format!("p50 of {n_lat} requests, {per_cell}"));
    out.e2e(
        "latency_tail_ms",
        plain.tail(),
        format!(
            "p{tail_p} of {n_lat} requests ({} beyond), {per_cell}",
            n_lat - stats::nearest_rank(n_lat, tail_p as f64)
        ),
    );
    out.e2e(
        "throughput_rps",
        plain.throughput(),
        format!("{n_lat} requests over their summed latencies, {per_cell}"),
    );
    out.e2e("peak_rss_mb", rss_self_mib(), "VmHWM of the benchmark process".to_string());
    out.e2e(
        "speedup_geomean",
        stats::geomean(&plain_sweeps[0].speedups),
        format!("geometric mean of seq/sched cycles over {n_lat} cells"),
    );

    if cfg.trace {
        let mut t = Tracer::new(true, Instant::now());
        let mut data = LayerData::default();
        let traced_sweeps = sweeps(budget, &order, &mut t, &mut tally, Some(&mut data));
        let mut traced = Samples::new(order.len());
        for s in &traced_sweeps {
            traced.add(&all, s);
        }
        let traced = Cells::of(&traced.scaled);
        data.late_ns = plain_sweeps.iter().flat_map(|s| s.gaps_ns.iter().copied()).collect();
        data.overhead_pct = (traced.p50() / plain.p50() - 1.0) * 100.0;
        data.coverage_pct = t.coverage(&COVERAGE_ROOTS);
        if data.coverage_pct < 95.0 {
            out.broken.push(format!(
                "layer self-times cover {:.1}% of the cold requests and replays (< 95%)",
                data.coverage_pct
            ));
        }
        out.record.push(format!(
            "traced pass: {} sweep(s), {} spans; layer self-times cover {:.2}% of the cold requests and replays",
            traced_sweeps.len(),
            t.totals().values().map(|x| x.count).sum::<u64>(),
            data.coverage_pct
        ));
        out.traced = Some((data, t));
    }
    out.tally = tally;
    out
}
