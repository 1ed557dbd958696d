//! The benchmark's own span recorder. Spans are kept in memory around
//! each call the benchmark makes into a layer of grip, and written out
//! once at the end. A disabled tracer records nothing and costs a branch.
//!
//! Some layers time themselves inside grip: the engine's per-stage
//! breakdown and the pick loop's phase counters. Those come back as
//! durations, not intervals, so they enter the trace as *synthetic*
//! children laid end to end from their parent's start; their durations are
//! exact, their placement inside the parent is not.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The request this span served (its index in the workload).
    pub req: u64,
    pub synthetic: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Self and inclusive time of every span of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    pub self_ns: u64,
    pub incl_ns: u64,
    pub count: u64,
}

impl Tracer {
    pub fn new(on: bool, t0: Instant) -> Tracer {
        Tracer { on, t0, spans: Vec::new(), open: Vec::new() }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, req: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            req,
            synthetic: false,
        });
        self.open.push(id);
        Some(id)
    }

    /// Close `id` (and anything left open inside it).
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Run `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, req);
        let r = f();
        self.exit(id);
        r
    }

    /// Add a synthetic child of `parent` lasting `dur_ns`, placed right
    /// after the parent's previous synthetic child.
    pub fn synth(&mut self, parent: SpanId, name: &'static str, dur_ns: u64) -> SpanId {
        let p = parent?;
        let start_ns = self.spans[p].start_ns
            + self.spans[p + 1..]
                .iter()
                .filter(|s| s.parent == Some(p) && s.synthetic)
                .map(Span::dur_ns)
                .sum::<u64>();
        let id = self.spans.len();
        let req = self.spans[p].req;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: Some(p),
            req,
            synthetic: true,
        });
        Some(id)
    }

    /// Per-name totals. A span's self time is its duration minus its
    /// children's durations (never below zero).
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.self_ns += s.dur_ns().saturating_sub(c);
            t.incl_ns += s.dur_ns();
            t.count += 1;
        }
        out
    }

    /// How much of the `roots` spans' inclusive time their layer spans
    /// account for, in percent: the self-times of every descendant not
    /// named `bench.*` (the benchmark's own work) over the roots' summed
    /// durations. A root's own self-time, and any gap no layer span
    /// covers, count against it.
    pub fn coverage(&self, roots: &[&str]) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        // Parents precede their children, so one pass finds each span's
        // root.
        let mut root: Vec<Option<usize>> = vec![None; self.spans.len()];
        let (mut covered, mut total) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if roots.contains(&s.name) && s.parent.and_then(|p| root[p]).is_none() {
                root[i] = Some(i);
                total += s.dur_ns();
                continue;
            }
            root[i] = s.parent.and_then(|p| root[p]);
            if root[i].is_some() && !s.name.starts_with("bench.") {
                covered += s.dur_ns().saturating_sub(child_ns[i]);
            }
        }
        covered as f64 / total.max(1) as f64 * 100.0
    }

    /// One JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"req\":{},\"synthetic\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req, s.synthetic
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.enter("outer", 1);
        t.time("inner", 1, || std::thread::sleep(std::time::Duration::from_millis(2)));
        let s = t.synth(outer, "synthetic", 1_000);
        t.synth(s, "grandchild", 400);
        // Leave the outer span more own time than its synthetic child claims.
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.exit(outer);
        let tot = t.totals();
        assert_eq!(tot["inner"].count, 1);
        assert!(tot["inner"].self_ns >= 2_000_000);
        assert_eq!(tot["synthetic"].self_ns, 600);
        assert_eq!(tot["outer"].incl_ns, tot["outer"].self_ns + tot["inner"].incl_ns + 1_000);
    }

    #[test]
    fn coverage_counts_layer_self_times_only() {
        let mut t = Tracer::new(true, Instant::now());
        let root = t.enter("root", 0);
        t.synth(root, "layer", 1_000);
        t.exit(root);
        // A root whose layer spans fill it completely, by construction.
        let full = t.spans[root.unwrap()].start_ns + 1_000;
        t.spans[root.unwrap()].end_ns = full;
        assert_eq!(t.coverage(&["root"]), 100.0);

        // A second root: half a layer span, half the benchmark's own work,
        // then a gap no span covers.
        let r2 = t.enter("root", 1);
        let layer = t.synth(r2, "layer", 500);
        t.synth(r2, "bench.check", 300);
        t.synth(layer, "inner", 100);
        t.exit(r2);
        let s = t.spans[r2.unwrap()].start_ns;
        t.spans[r2.unwrap()].end_ns = s + 1_000;
        // Covered: 1000 + (500 - 100) + 100 of 2000.
        assert_eq!(t.coverage(&["root"]), 75.0);
        // Spans outside any root count for nothing.
        t.time("other", 2, || ());
        assert_eq!(t.coverage(&["root"]), 75.0);
        assert_eq!(t.coverage(&["absent"]), 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.enter("x", 0);
        assert!(t.synth(id, "y", 5).is_none());
        t.exit(id);
        assert!(t.totals().is_empty());
    }
}
