//! End-to-end smoke test of the `grip-serve` binary over the
//! stdin/stdout JSON-lines protocol — the same path CI exercises with
//! `grip-client --emit | grip-serve | grip-client --check`.

use grip_json::Json;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

/// Drive the real binary: a preset×kernel batch with repeats, asserting
/// verified stall-free responses, nonzero cache hits on the repeats, and
/// bit-identical repeat responses.
#[test]
fn grip_serve_speaks_the_protocol() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_grip-serve"))
        .args(["--shards", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn grip-serve");

    let mut stdin = child.stdin.take().expect("stdin");
    let kernels = ["LL1", "LL5", "LL12"];
    let presets = ["uniform4", "epic8"];
    let mut id = 0u64;
    let mut sent = Vec::new();
    for _round in 0..2 {
        for k in kernels {
            for p in presets {
                id += 1;
                let line =
                    format!("{{\"id\":{id},\"kernel\":\"{k}\",\"n\":12,\"machine\":\"{p}\"}}");
                writeln!(stdin, "{line}").expect("write request");
                sent.push((id, k.to_string(), p.to_string()));
            }
        }
    }
    writeln!(stdin, "{{\"cmd\":\"stats\"}}").expect("write stats cmd");
    drop(stdin); // EOF ends the session

    let out = BufReader::new(child.stdout.take().expect("stdout"));
    let mut responses: Vec<Json> = Vec::new();
    let mut stats: Option<Json> = None;
    for line in out.lines() {
        let line = line.expect("read response");
        let j = Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
        if j.get("cmd").is_some() {
            stats = Some(j);
        } else {
            responses.push(j);
        }
    }
    assert!(child.wait().expect("wait").success());

    assert_eq!(responses.len(), sent.len());
    let mut hits = 0;
    let mut first: std::collections::HashMap<(String, String), String> =
        std::collections::HashMap::new();
    for (resp, (id, kernel, preset)) in responses.iter().zip(&sent) {
        assert_eq!(resp.get("id").and_then(Json::as_i64), Some(*id as i64), "order preserved");
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(resp.get("verified").and_then(Json::as_bool), Some(true));
        assert_eq!(resp.get("sched_stalls").and_then(Json::as_i64), Some(0));
        assert_eq!(resp.get("template_violations").and_then(Json::as_i64), Some(0));
        assert_eq!(resp.get("kernel").and_then(Json::as_str), Some(kernel.as_str()));
        if resp.get("cache").and_then(Json::as_str) == Some("hit") {
            hits += 1;
        }
        // Canonical content line: the response minus per-delivery fields
        // must be identical between a repeat and its cold first serving.
        let canon = match resp {
            Json::Obj(fields) => Json::Obj(
                fields
                    .iter()
                    .filter(|(k, _)| {
                        !matches!(
                            k.as_str(),
                            "id" | "cache" | "wall_ns" | "wall_us" | "shard" | "trace" | "timings"
                        )
                    })
                    .cloned()
                    .collect(),
            )
            .line(),
            _ => unreachable!("responses are objects"),
        };
        match first.entry((kernel.clone(), preset.clone())) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(canon);
            }
            std::collections::hash_map::Entry::Occupied(o) => {
                assert_eq!(o.get(), &canon, "{kernel}/{preset}: repeat diverged from cold run");
            }
        }
    }
    assert_eq!(hits, kernels.len() * presets.len(), "second round must be all cache hits");

    let stats = stats.expect("stats frame");
    let s = stats.get("stats").expect("stats payload");
    assert_eq!(s.get("processed").and_then(Json::as_i64), Some(sent.len() as i64));
    assert_eq!(s.get("sched_hits").and_then(Json::as_i64), Some(hits as i64));
}

/// Observability surface over the same binary: a client-supplied trace id
/// comes back on the matching response, opting into `timings` yields a
/// per-stage breakdown that sums into the wall time, and the `metrics`
/// command answers with a grip-json-parseable snapshot carrying nonzero
/// scheduler counters (plus a lintable Prometheus form).
#[test]
fn grip_serve_answers_traces_timings_and_metrics() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_grip-serve"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn grip-serve");

    let mut stdin = child.stdin.take().expect("stdin");
    writeln!(
        stdin,
        "{{\"id\":1,\"kernel\":\"LL5\",\"n\":12,\"machine\":\"epic8\",\
         \"trace\":\"req-abc-123\",\"timings\":true}}"
    )
    .expect("write traced request");
    writeln!(stdin, "{{\"id\":2,\"kernel\":\"LL1\",\"n\":12,\"machine\":\"uniform4\"}}")
        .expect("write untraced request");
    writeln!(stdin, "{{\"cmd\":\"metrics\"}}").expect("write metrics cmd");
    writeln!(stdin, "{{\"cmd\":\"metrics\",\"format\":\"prometheus\"}}")
        .expect("write prometheus cmd");
    drop(stdin);

    let out = BufReader::new(child.stdout.take().expect("stdout"));
    let mut responses: Vec<Json> = Vec::new();
    let mut metrics: Vec<Json> = Vec::new();
    for line in out.lines() {
        let line = line.expect("read response");
        let j = Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
        if j.get("cmd").is_some() {
            metrics.push(j);
        } else {
            responses.push(j);
        }
    }
    assert!(child.wait().expect("wait").success());
    assert_eq!(responses.len(), 2);
    assert_eq!(metrics.len(), 2);

    // Trace id: the client-supplied one comes back verbatim; the
    // untraced request gets a shard-assigned id.
    assert_eq!(responses[0].get("trace").and_then(Json::as_str), Some("req-abc-123"));
    let assigned = responses[1].get("trace").and_then(Json::as_str).expect("assigned trace id");
    assert!(!assigned.is_empty() && assigned != "req-abc-123");

    // Timings: present only where requested, decompose the wall time.
    let t = responses[0].get("timings").expect("timings on opted-in response");
    let stage = |k: &str| t.get(k).and_then(Json::as_i64).expect(k);
    let sum = stage("prepare_ns")
        + stage("schedule_ns")
        + stage("hazards_ns")
        + stage("verify_ns")
        + stage("audit_ns");
    let total = stage("total_ns");
    assert!(total > 0 && sum <= total, "stage sum {sum} must fit in total {total}");
    let wall_ns = responses[0].get("wall_ns").and_then(Json::as_i64).expect("wall_ns");
    assert_eq!(wall_ns, total, "wall_ns is the collected total");
    assert!(responses[1].get("timings").is_none(), "timings are opt-in");

    // Metrics: JSON snapshot parses (it already did, via grip-json) and
    // carries nonzero scheduler counters; Prometheus text form returns.
    let snap = metrics[0].get("metrics").expect("metrics snapshot");
    for name in ["grip_requests_total", "grip_schedules_total", "grip_iterations_total"] {
        let v = snap.get(name).and_then(Json::as_i64).unwrap_or(0);
        assert!(v > 0, "{name} should be nonzero after two requests, got {v}");
    }
    let text = metrics[1].get("text").and_then(Json::as_str).expect("prometheus text");
    grip_obs::metrics::prometheus_lint(text).expect("prometheus lint");
    assert!(text.contains("grip_requests_total 2"));
}

/// Hostile single lines against the real binary: 100,000 nested `[` (the
/// recursive parser used to overflow its stack and abort the process),
/// an inline machine with a 4096-cycle memory latency (used to hold its
/// shard for longer than any client waits), one with no jump budget
/// (used to be served with a template violation per iteration), and one
/// with a misspelled slot key (used to be served on an uncapped memory
/// port). Each gets exactly one error response, in order, and the valid
/// line after each is served.
#[test]
fn grip_serve_refuses_hostile_lines_and_keeps_serving() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_grip-serve"))
        .args(["--shards", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn grip-serve");

    let mut stdin = child.stdin.take().expect("stdin");
    let inline = |id: u64, machine: &str| {
        format!("{{\"id\":{id},\"kernel\":\"LL1\",\"n\":16,\"machine\":{machine}}}")
    };
    // Each hostile line is followed by a valid one: (line, expected error).
    let script = [
        ("[".repeat(100_000), Some("nesting")),
        (r#"{"id":1,"kernel":"LL12","n":12,"machine":"uniform4"}"#.to_string(), None),
        (inline(2, r#"{"width":4,"latency":{"mem":4096}}"#), Some("latency of 4096 cycles")),
        (inline(3, r#"{"width":4,"latency":{"mem":4}}"#), None),
        (inline(4, r#"{"width":4,"cjs":0}"#), Some("class BR has zero slots")),
        (inline(5, r#"{"width":4,"cjs":1}"#), None),
        (
            inline(6, r#"{"width":8,"slots":{"memory":1},"latency":{"mem":3}}"#),
            Some(r#"unknown machine.slots key "memory""#),
        ),
        (inline(7, r#"{"width":8,"slots":{"mem":1},"latency":{"mem":3}}"#), None),
    ];
    for (line, _) in &script {
        writeln!(stdin, "{line}").expect("write request line");
    }
    drop(stdin);

    let out = BufReader::new(child.stdout.take().expect("stdout"));
    let lines: Vec<Json> = out
        .lines()
        .map(|l| {
            let l = l.expect("read response");
            Json::parse(l.trim()).unwrap_or_else(|e| panic!("bad line {l:?}: {e}"))
        })
        .collect();
    assert!(child.wait().expect("wait").success(), "grip-serve must survive every line");
    assert_eq!(lines.len(), script.len(), "one answer per line: {lines:?}");

    let ok = |j: &Json| j.get("ok").and_then(Json::as_bool);
    let error = |j: &Json| j.get("error").and_then(Json::as_str).unwrap_or("").to_string();
    for (i, (line, (_, expect))) in lines.iter().zip(&script).enumerate() {
        if i > 0 {
            assert_eq!(line.get("id").and_then(Json::as_i64), Some(i as i64));
        }
        match expect {
            Some(e) => {
                assert_eq!(ok(line), Some(false), "line {i}");
                assert!(error(line).contains(e), "line {i}: {}", error(line));
            }
            None => {
                assert_eq!(ok(line), Some(true), "line {i}: {}", error(line));
                assert_eq!(line.get("verified").and_then(Json::as_bool), Some(true));
            }
        }
    }
}
