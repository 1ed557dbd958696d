//! Gate the scheduling service end to end: drive the mixed sweep (every
//! preset × LL1–LL14, four times over, shuffled) through an in-process
//! [`grip_service::Service`], with every request asking for its stage
//! timings, audit report and bound certificate.
//!
//! Gates (exit 1 on any violation):
//! * every response passes `ScheduleResponse::fault` (ok, VM-verified,
//!   0 stall cycles, 0 template violations, a clean audit report, a
//!   sound bound certificate) and carries both reports;
//! * every cache hit is bit-identical to its own cold run, and the sweep
//!   has at least one hit;
//! * every cold response's stage timings account for its wall
//!   (`StageBreakdown::covers_wall`: at least 95% of a wall of 1 ms or
//!   more), or a stage span is missing.
//!
//! The bin records nothing; gripbench measures the service path's wall
//! clock.
//!
//! Usage: `service [trip-count]` (default n = 48). Any other argument
//! exits 2.

#![forbid(unsafe_code)]

use grip_service::workload::mixed_workload;
use grip_service::{CacheStatus, ScheduleResponse, Service, ServiceConfig};
use std::collections::HashMap;

/// Each (kernel × preset) cell is requested this many times.
const REPEAT: usize = 4;
/// The sweep's shuffle seed.
const SEED: u64 = 0x9fb3;

fn main() {
    let n = grip_bench::sweep_args("service [trip-count]", 48, None);

    let service = Service::new(ServiceConfig::default());
    let reqs: Vec<_> = mixed_workload(n, REPEAT, SEED)
        .into_iter()
        .map(|mut r| {
            r.want_timings = true;
            r.want_audit = true;
            r.want_bounds = true;
            r
        })
        .collect();
    let total = reqs.len();
    eprintln!(
        "service sweep: {total} requests ({} cells × {REPEAT}), n = {n}, {} shards …",
        total / REPEAT,
        service.shards()
    );
    let responses = service.submit_batch(reqs.clone());

    let mut violations: Vec<String> = Vec::new();
    // The first response of each cell (the engine's schedule-cache key,
    // option bits included) is its cold run; every later one must match
    // it bit for bit.
    let mut first: HashMap<(u64, u64, usize, u8), &ScheduleResponse> = HashMap::new();
    for (req, r) in reqs.iter().zip(&responses) {
        let at = format!("{} on {}", r.kernel, r.machine);
        violations.extend(r.fault());
        if r.audit.is_none() || r.bounds.is_none() {
            violations.push(format!("{at}: audit report or bound certificate missing"));
        }
        match &r.timings {
            None => violations.push(format!("{at}: response missing timings")),
            Some(t) if r.cache != CacheStatus::Hit && !t.covers_wall() => violations.push(format!(
                "{at}: stage sum {} ns accounts for <95% of wall {} ns",
                t.stage_sum_ns(),
                t.total_ns
            )),
            Some(_) => {}
        }
        let key = (r.kernel_hash, r.machine_fp, r.unwind, req.options.bits());
        match first.get(&key) {
            Some(f) if !r.bits_eq(f) => {
                violations.push(format!("{at}: cached response diverged from cold run"))
            }
            Some(_) => {}
            None => {
                first.insert(key, r);
            }
        }
    }
    let hits = responses.iter().filter(|r| r.cache == CacheStatus::Hit).count();
    if hits == 0 {
        violations.push("repeated sweep produced no schedule-cache hits".to_string());
    }

    if violations.is_empty() {
        println!(
            "All {total} responses verified, stall-free, template-clean, audit-clean, \
             bound-sound; all {hits} cache hits bit-identical to their cold runs; every \
             cold response's stage timings account for its wall."
        );
    } else {
        println!("VIOLATIONS:");
        for v in &violations {
            println!("  {v}");
        }
        std::process::exit(1);
    }
}
