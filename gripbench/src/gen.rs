//! Seeded workload generators. Every request the program under test sees
//! comes from here, and the same seed always yields the same requests.

/// The Livermore kernels every workload draws from.
pub const KERNELS: [&str; 14] = [
    "LL1", "LL2", "LL3", "LL4", "LL5", "LL6", "LL7", "LL8", "LL9", "LL10", "LL11", "LL12", "LL13",
    "LL14",
];

/// The six machine presets of the 84-cell sweep.
pub const PRESETS: [&str; 6] =
    ["uniform2", "uniform4", "uniform8", "clustered", "mem_bound", "epic8"];

/// Trip count of the cold sweep and of the hot cells.
pub const CELL_N: i64 = 48;

/// The (kernel, preset) pairs `mixed_serve` draws its fresh keys from:
/// cells whose cold schedule costs about 10–50 ms on a 2-core host, over
/// all three uniform widths plus `clustered` and `epic8`. The heavy cells
/// (LL7 on any wide machine, most of `mem_bound` and `epic8`) are left out
/// on purpose: one miss of several seconds would set the whole run's tail
/// on its own, and the tail would then measure which seed drew it.
pub const MIXED_MISS_CELLS: [(&str, &str); 21] = [
    ("LL1", "uniform2"),
    ("LL9", "uniform2"),
    ("LL10", "uniform2"),
    ("LL5", "uniform4"),
    ("LL8", "uniform4"),
    ("LL9", "uniform4"),
    ("LL10", "uniform4"),
    ("LL13", "uniform4"),
    ("LL14", "uniform4"),
    ("LL1", "uniform8"),
    ("LL2", "uniform8"),
    ("LL3", "uniform8"),
    ("LL4", "uniform8"),
    ("LL10", "uniform8"),
    ("LL11", "uniform8"),
    ("LL2", "clustered"),
    ("LL3", "clustered"),
    ("LL4", "clustered"),
    ("LL5", "clustered"),
    ("LL6", "clustered"),
    ("LL12", "epic8"),
];

/// Trip counts of fresh `mixed_serve` keys lie in `MIXED_N_LO..MIXED_N_HI`.
pub const MIXED_N_LO: i64 = 16;
/// Exclusive upper end of the fresh-key trip counts.
pub const MIXED_N_HI: i64 = 48;

/// One request's content: which kernel, on which machine, at which trip
/// count. Everything else on the wire is fixed by the workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key {
    pub kernel: &'static str,
    pub machine: &'static str,
    pub n: i64,
}

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_9c0f_fee1_dead)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// The 84 preset × kernel cells at [`CELL_N`], preset-major.
pub fn cells() -> Vec<Key> {
    PRESETS
        .iter()
        .flat_map(|&machine| KERNELS.iter().map(move |&kernel| Key { kernel, machine, n: CELL_N }))
        .collect()
}

/// `cold_compile`: every cell once, in seeded order.
pub fn cold_order(seed: u64) -> Vec<Key> {
    let mut order = cells();
    Rng::new(seed).shuffle(&mut order);
    order
}

/// The 42 `uniform*` cells `hot_serve` warms and replays.
pub fn hot_cells() -> Vec<Key> {
    cells().into_iter().filter(|k| k.machine.starts_with("uniform")).collect()
}

/// `hot_serve`'s open-loop replay: `len` indexes into [`hot_cells`], each
/// block of 42 a fresh seeded permutation, so every cell is equally hot.
pub fn hot_stream(seed: u64, len: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x4807);
    let mut perm: Vec<usize> = (0..hot_cells().len()).collect();
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        rng.shuffle(&mut perm);
        out.extend(perm.iter().copied().take(len - out.len()));
    }
    out
}

/// `mixed_serve`'s request stream: one key per request, and whether the
/// key is new to the run (so the request must miss the schedule cache).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MixedStream {
    pub keys: Vec<Key>,
    pub fresh: Vec<bool>,
}

impl MixedStream {
    pub fn misses(&self) -> usize {
        self.fresh.iter().filter(|&&f| f).count()
    }
}

/// Exactly `len * miss_per_mille / 1000` requests (rounded down, at least
/// one: the stream opens on a fresh key) carry a key not seen before in
/// the stream, spread one per block; the rest repeat a uniformly chosen
/// earlier key. Fresh keys walk [`MIXED_MISS_CELLS`] round-robin in
/// seeded order, and the trip
/// counts of one pair's fresh keys are spread evenly over the allowed
/// range, so every seed schedules the same cold work; the seed picks the
/// order of the fresh keys, where in its block each falls, and which keys
/// repeat.
pub fn mixed_stream(seed: u64, len: usize, miss_per_mille: usize) -> MixedStream {
    let mut rng = Rng::new(seed ^ 0x313d);
    let misses = (len * miss_per_mille / 1000).clamp(1, len.max(1));
    // Which positions are fresh: one per block of `len / misses`
    // requests, at a seeded offset in the block's first half (the first
    // block's at 0), so two cold schedules never land back to back and
    // the tail measures queueing behind one miss, not how a seed happened
    // to cluster them.
    let mut fresh = vec![false; len];
    for b in 0..misses {
        let (lo, hi) = (b * len / misses, (b + 1) * len / misses);
        let off = if b == 0 { 0 } else { rng.below(((hi - lo) / 2).max(1)) };
        fresh[lo + off] = true;
    }
    // The pair walk and, per pair, its evenly spread trip counts in
    // seeded order.
    let mut pairs = MIXED_MISS_CELLS.to_vec();
    rng.shuffle(&mut pairs);
    let span = (MIXED_N_HI - MIXED_N_LO) as usize;
    let mut trips: Vec<Vec<i64>> = (0..pairs.len())
        .map(|p| {
            let k = misses / pairs.len() + usize::from(p < misses % pairs.len());
            assert!(k <= span, "{k} fresh keys per pair, only {span} trip counts");
            let mut ns: Vec<i64> =
                (0..k).map(|j| MIXED_N_LO + (j * span / k.max(1)) as i64).collect();
            rng.shuffle(&mut ns);
            ns
        })
        .collect();
    let mut seen: Vec<Key> = Vec::with_capacity(misses);
    let mut keys = Vec::with_capacity(len);
    for &is_fresh in &fresh {
        let key = if is_fresh {
            let p = seen.len() % pairs.len();
            let (kernel, machine) = pairs[p];
            let n = trips[p].pop().expect("each pair holds its share of the fresh keys");
            let k = Key { kernel, machine, n };
            seen.push(k);
            k
        } else {
            seen[rng.below(seen.len())]
        };
        keys.push(key);
    }
    MixedStream { keys, fresh }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn generators_are_deterministic_per_seed() {
        assert_eq!(cold_order(7), cold_order(7));
        assert_eq!(hot_stream(7, 500), hot_stream(7, 500));
        assert_eq!(mixed_stream(7, 4000, 25), mixed_stream(7, 4000, 25));
    }

    #[test]
    fn generators_differ_across_seeds() {
        assert_ne!(cold_order(1), cold_order(2));
        assert_ne!(hot_stream(1, 500), hot_stream(2, 500));
        assert_ne!(mixed_stream(1, 4000, 25), mixed_stream(2, 4000, 25));
    }

    #[test]
    fn cold_order_is_a_permutation_of_the_84_cells() {
        let mut got = cold_order(3);
        let mut want = cells();
        assert_eq!(want.len(), 84);
        got.sort();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn hot_stream_replays_only_uniform_cells_evenly() {
        let cells = hot_cells();
        assert_eq!(cells.len(), 42);
        let s = hot_stream(5, 42 * 10);
        for c in 0..42 {
            assert_eq!(s.iter().filter(|&&i| i == c).count(), 10, "cell {c}");
        }
    }

    #[test]
    fn mixed_stream_holds_its_miss_share_and_repeats_only_earlier_keys() {
        for seed in 0..5 {
            let len = 4000;
            let s = mixed_stream(seed, len, 25);
            assert_eq!(s.misses(), len * 25 / 1000);
            assert!(s.fresh[0], "the stream opens on a fresh key");
            let at: Vec<usize> = (0..len).filter(|&i| s.fresh[i]).collect();
            let block = len / s.misses();
            assert!(at.windows(2).all(|w| w[1] - w[0] >= block / 2), "fresh keys bunch up");
            let mut seen = HashSet::new();
            for (k, &f) in s.keys.iter().zip(&s.fresh) {
                if f {
                    assert!(seen.insert(*k), "fresh key {k:?} repeats");
                } else {
                    assert!(seen.contains(k), "repeat {k:?} before its first use");
                }
            }
        }
    }

    #[test]
    fn mixed_fresh_keys_cover_pairs_round_robin() {
        let s = mixed_stream(9, 8400, 10);
        let mut fresh: Vec<Key> =
            s.keys.iter().zip(&s.fresh).filter(|(_, &f)| f).map(|(k, _)| *k).collect();
        let mut other: Vec<Key> = {
            let t = mixed_stream(10, 8400, 10);
            t.keys.iter().zip(&t.fresh).filter(|(_, &f)| f).map(|(k, _)| *k).collect()
        };
        fresh.sort();
        other.sort();
        assert_eq!(fresh, other, "every seed schedules the same cold work");
        let mut per_pair = std::collections::HashMap::new();
        for (k, &f) in s.keys.iter().zip(&s.fresh) {
            if f {
                *per_pair.entry((k.kernel, k.machine)).or_insert(0) += 1;
            }
        }
        assert_eq!(per_pair.len(), MIXED_MISS_CELLS.len());
        assert!(per_pair.values().all(|&c| c == 4), "{per_pair:?}");
    }
}
