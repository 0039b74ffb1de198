//! Greenwald–Khanna ε-approximate quantile summary.
//!
//! This is the algorithm behind Spark's `approx_percentile`, i.e. the
//! "Perc." column of Table 3 (10th/50th/90th percentiles of speed, ETO and
//! ATA per cell). A sketch with parameter `ε` answers any quantile query
//! with rank error at most `ε·n`. Merging two sketches adds their error
//! bounds (`ε₁·n₁ + ε₂·n₂` in rank), which is the standard behaviour also
//! exhibited by Spark's `QuantileSummaries`.

use crate::MergeSketch;

#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Tuple {
    /// Observed value.
    pub(crate) v: f64,
    /// Number of observations represented by this tuple.
    pub(crate) g: u64,
    /// Uncertainty of this tuple's rank.
    pub(crate) delta: u64,
}

/// The GK quantile sketch.
#[derive(Clone, Debug)]
pub struct GkSketch {
    epsilon: f64,
    n: u64,
    tuples: Vec<Tuple>, // sorted by v
    /// First [`INLINE_CAP`] buffered values, stored inline: the inventory
    /// holds one sketch per (cell, key) and most see only a handful of
    /// values, so the common case never touches the heap.
    inline: [f64; INLINE_CAP],
    inline_len: u8,
    /// Buffered values past the inline capacity. Cleared (capacity
    /// retained) on flush, so a hot sketch allocates once and then runs
    /// allocation-free.
    spill: Vec<f64>,
}

/// Buffered insertions between merge passes (amortises the O(s) insert).
const BUFFER_CAP: usize = 512;

/// Buffered values held inline before spilling to the heap.
const INLINE_CAP: usize = 16;

impl GkSketch {
    /// Creates a sketch with rank-error bound `epsilon` (e.g. `0.01`).
    ///
    /// # Panics
    /// When `epsilon` is not in `(0, 0.5)`.
    pub fn new(epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 0.5,
            "epsilon {epsilon} out of (0, 0.5)"
        );
        Self {
            epsilon,
            n: 0,
            tuples: Vec::new(),
            inline: [0.0; INLINE_CAP],
            inline_len: 0,
            spill: Vec::new(),
        }
    }

    /// The sketch's rank-error parameter.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Values currently buffered (inline + spill).
    fn buffered(&self) -> usize {
        self.inline_len as usize + self.spill.len()
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n + self.buffered() as u64
    }

    /// Adds one observation. Non-finite values are ignored.
    #[inline]
    pub fn add(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        // Invariant: the spill is only non-empty while the inline buffer
        // is full, so buffered insertion order is inline-then-spill.
        if (self.inline_len as usize) < INLINE_CAP {
            self.inline[self.inline_len as usize] = x;
            self.inline_len += 1;
        } else {
            self.spill.push(x);
        }
        if self.buffered() >= BUFFER_CAP {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.buffered() == 0 {
            return;
        }
        // Gather the batch in one sortable slice. Appending the inline
        // values after the spill permutes the pre-sort order, which is
        // immaterial: `total_cmp`-equal f64s are bit-identical, so the
        // sorted value sequence (and with it every derived tuple) is
        // independent of both the pre-sort order and sort stability.
        self.spill
            .extend_from_slice(&self.inline[..self.inline_len as usize]);
        self.inline_len = 0;
        self.spill.sort_unstable_by(f64::total_cmp);
        (self.n, self.tuples) = merge_batch(self.epsilon, self.n, &self.tuples, &self.spill);
        self.spill.clear();
    }

    /// Calls `f(n, tuples)` with the count and tuple list this sketch
    /// holds once flushed, without flushing it or cloning its storage.
    /// A flushed sketch lends its own tuples; buffered values are sorted
    /// into a local batch and merged exactly as [`flush`](Self::flush)
    /// would, so the result is the same as after a flush.
    pub(crate) fn with_flushed<R>(&self, f: impl FnOnce(u64, &[Tuple]) -> R) -> R {
        if self.buffered() == 0 {
            return f(self.n, &self.tuples);
        }
        let inline = &self.inline[..self.inline_len as usize];
        let (n, tuples) = if self.spill.is_empty() {
            // The common small sketch: sort a stack copy of the inline
            // buffer, so the only allocation is the merged tuple list.
            let mut sorted = self.inline;
            let batch = &mut sorted[..inline.len()];
            batch.sort_unstable_by(f64::total_cmp);
            merge_batch(self.epsilon, self.n, &self.tuples, batch)
        } else {
            let mut batch = Vec::with_capacity(self.buffered());
            batch.extend_from_slice(&self.spill);
            batch.extend_from_slice(inline);
            batch.sort_unstable_by(f64::total_cmp);
            merge_batch(self.epsilon, self.n, &self.tuples, &batch)
        };
        f(n, &tuples)
    }

    /// The value at quantile `phi ∈ [0, 1]`, with rank error ≤ `ε·n`
    /// (plus merge degradation, see [`MergeSketch`] impl). `None` when empty.
    pub fn quantile(&mut self, phi: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&phi), "quantile {phi} out of [0,1]");
        self.flush();
        if self.tuples.is_empty() {
            return None;
        }
        let target = (phi * self.n as f64).ceil().max(1.0) as u64;
        let allowed = (self.epsilon * self.n as f64) as u64;
        // Standard GK query: return the last tuple whose maximum possible
        // rank stays within target + ε·n.
        let mut rmin = 0u64;
        let mut answer = self.tuples.first()?.v;
        for t in &self.tuples {
            rmin += t.g;
            if rmin + t.delta > target + allowed {
                return Some(answer);
            }
            answer = t.v;
        }
        Some(answer)
    }

    /// Number of stored tuples (the space usage; O(1/ε · log(εn))).
    pub fn tuple_count(&mut self) -> usize {
        self.flush();
        self.tuples.len()
    }

    /// Reconstructs a sketch from raw parts; `None` when the tuples are not
    /// sorted by value or the counts are inconsistent.
    pub fn from_parts(epsilon: f64, n: u64, tuples: Vec<(f64, u64, u64)>) -> Option<GkSketch> {
        if !(epsilon > 0.0 && epsilon < 0.5) {
            return None;
        }
        let mut total_g = 0u64;
        for (a, b) in tuples.iter().zip(tuples.iter().skip(1)) {
            if a.0 > b.0 {
                return None;
            }
        }
        for t in &tuples {
            if !t.0.is_finite() {
                return None;
            }
            total_g += t.1;
        }
        if total_g != n {
            return None;
        }
        Some(GkSketch {
            epsilon,
            n,
            tuples: tuples
                .into_iter()
                .map(|(v, g, delta)| Tuple { v, g, delta })
                .collect(),
            inline: [0.0; INLINE_CAP],
            inline_len: 0,
            spill: Vec::new(),
        })
    }
}

impl MergeSketch for GkSketch {
    fn merge(&mut self, other: &Self) {
        if other.tuples.is_empty() {
            // Pure-buffer other (never flushed): replaying its buffered
            // values as plain insertions is exact — no tuple lists need to
            // exist, so small-sketch merges stay allocation-free. This is
            // the common case for per-cell sketches merged across shards.
            for &x in &other.inline[..other.inline_len as usize] {
                self.add(x);
            }
            for &x in &other.spill {
                self.add(x);
            }
            return;
        }
        self.flush();
        other.with_flushed(|other_n, b| {
            // Merge-sort the tuple lists; g and delta survive unchanged
            // (the classical mergeable-summary combination). Rank error
            // becomes the sum of both sketches' absolute errors.
            let mut merged = Vec::with_capacity(self.tuples.len() + b.len());
            let a = &self.tuples;
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                if a[i].v <= b[j].v {
                    merged.push(a[i]);
                    i += 1;
                } else {
                    merged.push(b[j]);
                    j += 1;
                }
            }
            merged.extend_from_slice(&a[i..]);
            merged.extend_from_slice(&b[j..]);
            self.n += other_n;
            compress(&mut merged, self.epsilon, self.n);
            self.tuples = merged;
        });
    }
}

/// Merges a sorted batch of new values into `tuples` and compresses the
/// result: the body of a flush. Returns the new count and tuple list.
fn merge_batch(epsilon: f64, mut n: u64, tuples: &[Tuple], batch: &[f64]) -> (u64, Vec<Tuple>) {
    let mut merged = Vec::with_capacity(tuples.len() + batch.len());
    let mut ti = 0;
    for &x in batch {
        while ti < tuples.len() && tuples[ti].v <= x {
            merged.push(tuples[ti]);
            ti += 1;
        }
        n += 1;
        let delta = if merged.is_empty() || ti == tuples.len() {
            0 // new min or max is exact
        } else {
            (2.0 * epsilon * n as f64).floor() as u64
        };
        merged.push(Tuple { v: x, g: 1, delta });
    }
    merged.extend_from_slice(&tuples[ti..]);
    compress(&mut merged, epsilon, n);
    (n, merged)
}

fn compress(tuples: &mut Vec<Tuple>, epsilon: f64, n: u64) {
    if tuples.len() < 3 {
        return;
    }
    let threshold = (2.0 * epsilon * n as f64).floor() as u64;
    // In-place greedy forward fold: `w` is the write cursor; the first
    // tuple (exact minimum) is kept and never folded into.
    let mut w = 1;
    for i in 1..tuples.len() {
        let cur = tuples[i];
        // Never fold the exact-minimum tuple into its successor, and
        // never exceed the error budget.
        if w > 1 {
            let last = tuples[w - 1];
            if last.g + cur.g + cur.delta <= threshold {
                tuples[w - 1] = Tuple {
                    v: cur.v,
                    g: last.g + cur.g,
                    delta: cur.delta,
                };
                continue;
            }
        }
        tuples[w] = cur;
        w += 1;
    }
    tuples.truncate(w);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank_of(sorted: &[f64], v: f64) -> f64 {
        sorted.iter().filter(|&&x| x <= v).count() as f64
    }

    #[test]
    #[should_panic(expected = "out of (0, 0.5)")]
    fn bad_epsilon() {
        let _ = GkSketch::new(0.6);
    }

    #[test]
    fn empty_returns_none() {
        let mut g = GkSketch::new(0.01);
        assert_eq!(g.quantile(0.5), None);
        assert_eq!(g.count(), 0);
    }

    #[test]
    fn single_value() {
        let mut g = GkSketch::new(0.01);
        g.add(42.0);
        assert_eq!(g.quantile(0.0), Some(42.0));
        assert_eq!(g.quantile(0.5), Some(42.0));
        assert_eq!(g.quantile(1.0), Some(42.0));
    }

    #[test]
    fn rank_error_within_epsilon() {
        let eps = 0.01;
        let n = 20_000;
        let mut g = GkSketch::new(eps);
        // Deterministic shuffled-ish stream.
        let mut data: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
        for &x in &data {
            g.add(x);
        }
        data.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for phi in [0.1, 0.5, 0.9, 0.01, 0.99] {
            let v = g.quantile(phi).unwrap();
            let r = rank_of(&data, v);
            let err = (r - phi * n as f64).abs() / n as f64;
            assert!(err <= eps + 1e-9, "phi={phi} v={v} rank err {err}");
        }
    }

    #[test]
    fn space_is_sublinear() {
        let mut g = GkSketch::new(0.01);
        for i in 0..100_000 {
            g.add((i % 1000) as f64);
        }
        let tuples = g.tuple_count();
        assert!(tuples < 2_000, "stored {tuples} tuples for 100k values");
    }

    #[test]
    fn merged_error_within_two_epsilon() {
        let eps = 0.01;
        let n = 10_000;
        let mut a = GkSketch::new(eps);
        let mut b = GkSketch::new(eps);
        let mut data: Vec<f64> = (0..2 * n)
            .map(|i| ((i * 104_729) % (2 * n)) as f64)
            .collect();
        for (i, &x) in data.iter().enumerate() {
            if i % 2 == 0 {
                a.add(x);
            } else {
                b.add(x);
            }
        }
        a.merge(&b);
        data.sort_by(|x, y| x.partial_cmp(y).unwrap());
        for phi in [0.1, 0.5, 0.9] {
            let v = a.quantile(phi).unwrap();
            let r = rank_of(&data, v);
            let err = (r - phi * 2.0 * n as f64).abs() / (2.0 * n as f64);
            assert!(err <= 2.0 * eps + 1e-9, "phi={phi} err {err}");
        }
    }

    #[test]
    fn extremes_are_exactish() {
        let mut g = GkSketch::new(0.05);
        for i in 0..1000 {
            g.add(i as f64);
        }
        assert_eq!(g.quantile(0.0), Some(0.0));
        let hi = g.quantile(1.0).unwrap();
        assert!(hi >= 999.0 - 50.0, "p100 {hi}");
    }

    #[test]
    fn flush_boundary_counts_inline_and_spill_together() {
        // The inline buffer and the spill vector jointly count toward
        // BUFFER_CAP, so flush points are unchanged by the inline refit.
        let mut g = GkSketch::new(0.01);
        for i in 0..(BUFFER_CAP * 3 + 17) {
            g.add(i as f64);
        }
        assert_eq!(g.count(), (BUFFER_CAP * 3 + 17) as u64);
        assert_eq!(g.quantile(0.0), Some(0.0));
        let hi = g.quantile(1.0).unwrap();
        assert!(hi >= (BUFFER_CAP * 3) as f64, "p100 {hi}");
    }

    #[test]
    fn ignores_non_finite() {
        let mut g = GkSketch::new(0.01);
        g.add(f64::NAN);
        g.add(1.0);
        assert_eq!(g.count(), 1);
    }
}
