//! Building requests and checking every response.
//!
//! Checks read the response's wire form by field name, so a later change
//! to grip's internal structs does not silently change what is checked.
//! A failed check is counted and the run goes on.

use crate::gen::Key;
use grip_json::Json;
use grip_service::proto::{request_to_json, response_from_json};
use grip_service::{MachineSpec, ScheduleRequest, ScheduleResponse};
use std::collections::HashMap;

/// Which optional parts a request asks for.
#[derive(Clone, Copy, Debug, Default)]
pub struct Asks {
    /// Audit report and bound certificate (asked on every request that
    /// should miss, so each cold schedule is checked audit-clean and
    /// bound-sound; hits are checked bit-identical to their cold run).
    pub proofs: bool,
    /// Per-stage timings (traced passes only).
    pub timings: bool,
    /// A trace id `q<id>`, to match flight records (traced passes only).
    pub trace: bool,
}

pub fn request(key: &Key, id: u64, asks: Asks) -> ScheduleRequest {
    let mut r = ScheduleRequest::new(key.kernel, key.n, MachineSpec::Preset(key.machine.into()));
    r.id = id;
    r.want_audit = asks.proofs;
    r.want_bounds = asks.proofs;
    r.want_timings = asks.timings;
    r.trace = asks.trace.then(|| format!("q{id}"));
    r
}

pub fn request_line(key: &Key, id: u64, asks: Asks) -> String {
    request_to_json(&request(key, id, asks)).line()
}

/// The scheduler counters the per-layer metrics report, in this order.
pub const COUNTERS: [&str; 6] =
    ["picks", "hops", "resource_blocks", "latency_blocks", "gap_rejections", "hazard_delay_rows"];

/// The engine's stage breakdown fields, in this order.
pub const STAGES: [&str; 7] =
    ["prepare_ns", "schedule_ns", "hazards_ns", "verify_ns", "audit_ns", "bounds_ns", "total_ns"];

/// What the benchmark keeps of one response.
#[derive(Clone, Debug, Default)]
pub struct Seen {
    /// Passed every check.
    pub pass: bool,
    pub hit: bool,
    pub shard: usize,
    /// The engine's own wall time for this request.
    pub wall_ns: u64,
    pub speedup: f64,
    pub counters: [u64; 6],
    pub gap_pct: Option<f64>,
    pub at_bound: bool,
    pub stages: Option<[u64; 7]>,
}

fn u(j: Option<&Json>) -> u64 {
    j.and_then(Json::as_i64).unwrap_or(0).max(0) as u64
}

/// Parse one wire response line into the typed response and its JSON.
pub fn parse_line(line: &str) -> Result<(ScheduleResponse, Json), String> {
    let j = Json::parse(line).map_err(|e| format!("bad response JSON: {e}"))?;
    Ok((response_from_json(&j)?, j))
}

/// How many failure reasons a run keeps for its report.
pub const MAX_REASONS: usize = 20;

/// Check one response against its request and expectation. `cold` is the
/// key's own cold response when `want_hit` (required then). Returns what
/// the benchmark keeps, with `pass` cleared and `why` set on failure.
pub fn check(
    key: &Key,
    resp: &ScheduleResponse,
    j: &Json,
    want_hit: bool,
    cold: Option<&ScheduleResponse>,
    proofs: bool,
    why: &mut Vec<String>,
) -> Seen {
    let mut errs: Vec<String> = Vec::new();
    let mut fail = |m: String| errs.push(m);
    let hit = j.get("cache").and_then(Json::as_str) == Some("hit");
    if !resp.ok {
        fail(format!("not ok: {:?}", resp.error));
    }
    if resp.kernel != key.kernel || resp.machine != key.machine || resp.n != key.n {
        fail(format!("answered {}/{}/n={}", resp.machine, resp.kernel, resp.n));
    }
    if !resp.verified {
        fail("not VM-verified".into());
    }
    if resp.sched_stalls != 0 || resp.template_violations != 0 {
        fail(format!(
            "{} stalls, {} template violations",
            resp.sched_stalls, resp.template_violations
        ));
    }
    if hit != want_hit {
        fail(format!(
            "cache {:?}, expected {}",
            resp.cache,
            if want_hit { "hit" } else { "a miss" }
        ));
    }
    if want_hit {
        match cold {
            Some(c) if resp.bits_eq(c) => {}
            Some(_) => fail("hit differs from its cold response".into()),
            None => fail("hit without a cold response to compare".into()),
        }
    }
    let bounds = j.get("bounds");
    if proofs {
        match j.get("audit").and_then(|a| a.get("diagnostics")).and_then(Json::as_arr) {
            Some([]) => {}
            Some(d) => fail(format!("audit found {} diagnostics", d.len())),
            None => fail("no audit report".into()),
        }
        match bounds.map(|b| u(b.get("bound_cycles"))) {
            Some(b) if b > 0 && resp.schedule_rows as u64 >= b => {}
            other => fail(format!("bound {other:?} unsound for {} rows", resp.schedule_rows)),
        }
    }
    let pass = errs.is_empty();
    for m in errs {
        // Keep the first few reasons; the count is what the report gates on.
        if why.len() < MAX_REASONS {
            why.push(format!("{}/{}/n={}: {m}", key.machine, key.kernel, key.n));
        }
    }
    let stats = j.get("stats");
    let timings = j.get("timings");
    Seen {
        pass,
        hit,
        shard: resp.shard,
        wall_ns: resp.wall_ns,
        speedup: resp.seq_cycles as f64 / resp.sched_cycles.max(1) as f64,
        counters: COUNTERS.map(|c| u(stats.and_then(|s| s.get(c)))),
        gap_pct: bounds.and_then(|b| b.get("gap_pct")).and_then(Json::as_f64),
        at_bound: bounds.and_then(|b| b.get("at_bound")).and_then(Json::as_bool) == Some(true),
        stages: timings.map(|t| STAGES.map(|s| u(t.get(s)))),
    }
}

/// Top-level response fields that may differ between two deliveries of
/// the same content (`bits_eq` ignores them too).
const PER_DELIVERY: [&str; 6] =
    ["\"id\":", "\"wall_ns\":", "\"wall_us\":", "\"shard\":", "\"trace\":", "\"timings\":"];

/// `line` with the value of every per-delivery field cut out, plus the
/// `wall_ns` and `shard` values. `None` when the line is not shaped as
/// expected (the caller then takes the full check).
fn mask(line: &str) -> Option<(String, u64, usize)> {
    let b = line.as_bytes();
    let mut cuts: Vec<(usize, usize)> = Vec::with_capacity(PER_DELIVERY.len());
    let (mut wall_ns, mut shard) = (None, None);
    for (f, pat) in PER_DELIVERY.iter().enumerate() {
        let Some(at) = line.find(pat) else { continue };
        let start = at + pat.len();
        let end = match b.get(start)? {
            b'"' => start + 2 + line[start + 1..].find('"')?,
            b'{' => {
                let mut depth = 0;
                start
                    + 1
                    + b[start..].iter().position(|&c| {
                        depth += i32::from(c == b'{') - i32::from(c == b'}');
                        depth == 0
                    })?
            }
            _ => start + line[start..].find([',', '}'])?,
        };
        match f {
            1 => wall_ns = line[start..end].parse().ok(),
            3 => shard = line[start..end].parse().ok(),
            _ => {}
        }
        cuts.push((start, end));
    }
    cuts.sort_unstable();
    let mut out = String::with_capacity(line.len());
    let mut pos = 0;
    for (start, end) in cuts {
        out.push_str(line.get(pos..start)?);
        pos = end;
    }
    out.push_str(&line[pos..]);
    Some((out, wall_ns?, shard?))
}

/// Checks response lines. A hit whose line, per-delivery fields cut out,
/// equals an earlier fully checked hit line of the same key is that
/// earlier response byte for byte, so it passes without a full parse:
/// this keeps the client's checking cost well below the server's work
/// under saturation. Anything else takes the full check.
#[derive(Default)]
pub struct LineChecker {
    verified: HashMap<Key, (String, Seen)>,
}

impl LineChecker {
    /// Check one response line. Returns what was seen, and the parsed
    /// response when the full check ran (always when `full` is set).
    #[allow(clippy::too_many_arguments)]
    pub fn check_line(
        &mut self,
        key: &Key,
        line: &str,
        want_hit: bool,
        cold: Option<&ScheduleResponse>,
        proofs: bool,
        full: bool,
        why: &mut Vec<String>,
    ) -> (Seen, Option<ScheduleResponse>) {
        let masked = if want_hit { mask(line) } else { None };
        if let (false, Some((m, wall_ns, shard))) = (full, &masked) {
            if let Some((known, seen)) = self.verified.get(key) {
                if known == m {
                    return (Seen { wall_ns: *wall_ns, shard: *shard, ..seen.clone() }, None);
                }
            }
        }
        match parse_line(line) {
            Ok((resp, j)) => {
                let seen = check(key, &resp, &j, want_hit, cold, proofs, why);
                if let (true, true, Some((m, _, _))) = (seen.pass, seen.hit, masked) {
                    self.verified.entry(*key).or_insert_with(|| (m, seen.clone()));
                }
                (seen, Some(resp))
            }
            Err(e) => {
                if why.len() < MAX_REASONS {
                    why.push(format!("{}/{}/n={}: {e}", key.machine, key.kernel, key.n));
                }
                (Seen::default(), None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_cuts_only_per_delivery_values() {
        let a = r#"{"id":7,"ok":true,"cache":"hit","wall_ns":1234,"wall_us":1.234,"shard":1,"trace":"q7","stats":{"picks":5},"timings":{"a":{"b":1},"total_ns":9}}"#;
        let b = r#"{"id":8,"ok":true,"cache":"hit","wall_ns":99,"wall_us":0.099,"shard":1,"trace":"s1-3","stats":{"picks":5},"timings":{"a":{"b":2},"total_ns":3}}"#;
        let c = r#"{"id":8,"ok":true,"cache":"hit","wall_ns":99,"wall_us":0.099,"shard":1,"trace":"s1-3","stats":{"picks":6}}"#;
        let (ma, wall, shard) = mask(a).unwrap();
        assert_eq!((wall, shard), (1234, 1));
        assert_eq!(ma, mask(b).unwrap().0, "only per-delivery fields differ");
        assert_ne!(ma, mask(c).unwrap().0, "a content field differs");
        assert!(ma.contains(r#""cache":"hit""#) && ma.contains(r#""picks":5"#));
    }
}
