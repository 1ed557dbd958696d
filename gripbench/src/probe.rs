//! Host-speed references.
//!
//! The benchmark runs on vCPUs of a shared host. Other tenants slow them in
//! phases of seconds to minutes, and not evenly: a fixed integer loop keeps
//! its speed while allocation- and cache-heavy code such as the scheduler
//! slows by up to half again, and the time to wake a thread on the other
//! vCPU moves on its own. A figure timed raw therefore reads the neighbours
//! as much as the program.
//!
//! A reference is a fixed task that never calls into grip. Timed right
//! before and right after a measurement, it tells how fast the host ran
//! meanwhile, and the measurement is scaled to a host on which the task
//! takes its nominal time. Each figure is scaled by the reference that
//! does the same kind of work:
//!
//! * [`Ref::Compute`] — allocation, ordered and hashed maps and a sort
//!   (about 15 ms): cold schedules, set-ups, saturation throughput. On the
//!   2-vCPU host the benchmark was tuned on, a cold schedule's raw wall
//!   correlated 0.7–0.8 with this task's, and over 30 s windows four
//!   minutes apart the scaled median moved by 6% where the raw one moved
//!   by 36%.
//! * [`Ref::Wake`] — round trips of a token between two threads (about
//!   6 ms): open-loop latency of cache hits, which is mostly threads
//!   waking each other across the pipe and the pool. Over three 30 s
//!   `hot_serve` runs the raw p50 ranged 12%, the scaled one 0.5%.
//!
//! A program change moves a scaled figure as it moves the raw one: the
//! tasks' own code never changes with the program.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::mpsc;
use std::time::Instant;

/// A host-speed reference task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ref {
    Compute,
    Wake,
}

/// Items the compute task inserts, hashes and sorts.
const ITEMS: u64 = 60_000;
/// Round trips the wake task makes.
const TRIPS: u32 = 400;

impl Ref {
    pub const ALL: [Ref; 2] = [Ref::Compute, Ref::Wake];

    /// Scaled figures read as if the task took this long.
    pub fn nominal_ms(self) -> f64 {
        match self {
            Ref::Compute => 15.0,
            Ref::Wake => 6.0,
        }
    }

    /// Run the task once; its wall time in milliseconds.
    pub fn time_ms(self) -> f64 {
        match self {
            Ref::Compute => {
                let t = Instant::now();
                black_box(compute());
                t.elapsed().as_secs_f64() * 1e3
            }
            Ref::Wake => wake_ms(),
        }
    }

    /// A time (any unit) scaled to the reference host, given the task's
    /// times just before and just after it was measured.
    pub fn scale(self, raw: f64, before_ms: f64, after_ms: f64) -> f64 {
        raw * self.nominal_ms() / ((before_ms + after_ms) / 2.0)
    }

    /// A rate (per unit of time) scaled to the reference host.
    pub fn scale_rate(self, rate: f64, before_ms: f64, after_ms: f64) -> f64 {
        rate * ((before_ms + after_ms) / 2.0) / self.nominal_ms()
    }
}

/// Both references' times, in [`Ref::ALL`] order.
pub fn both_ms() -> [f64; 2] {
    Ref::ALL.map(Ref::time_ms)
}

/// The compute task: fixed work, fixed inputs.
fn compute() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut ordered: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    let mut hashed: HashMap<u64, u64> = HashMap::new();
    let mut all: Vec<u64> = Vec::new();
    for i in 0..ITEMS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        ordered.entry(x % 20_000).or_default().push(i as u32);
        *hashed.entry(x % 50_000).or_insert(0) += i;
        all.push(x);
    }
    all.sort_unstable();
    let folded = ordered.iter().fold(0u64, |acc, (k, v)| acc.wrapping_add(k ^ v.len() as u64));
    folded ^ hashed.len() as u64 ^ all[all.len() / 2]
}

/// The wake task: a token bounced between this thread and a helper,
/// timed over the round trips only (not the helper's start and end).
fn wake_ms() -> f64 {
    let (to, rx) = mpsc::channel::<u32>();
    let (back, from) = mpsc::channel::<u32>();
    let helper = std::thread::spawn(move || {
        while let Ok(x) = rx.recv() {
            if back.send(x).is_err() {
                break;
            }
        }
    });
    // One trip before the clock starts, so the helper is running.
    let _ = to.send(0);
    let _ = from.recv();
    let t = Instant::now();
    for i in 0..TRIPS {
        let _ = to.send(i);
        let _ = from.recv();
    }
    let ms = t.elapsed().as_secs_f64() * 1e3;
    drop(to);
    let _ = helper.join();
    ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tasks_are_fixed_and_scaling_is_relative_to_them() {
        assert_eq!(compute(), compute());
        for r in Ref::ALL {
            assert!(r.time_ms() > 0.0);
            let n = r.nominal_ms();
            assert_eq!(r.scale(10.0, n, n), 10.0);
            assert_eq!(r.scale(10.0, 2.0 * n, 2.0 * n), 5.0);
            assert_eq!(r.scale(10.0, n, 3.0 * n), 5.0);
            assert_eq!(r.scale_rate(10.0, n, 3.0 * n), 20.0);
        }
    }
}
