//! Sliding-window aggregation over a fixed ring of time slots.
//!
//! The cumulative metrics in [`crate::metrics`](mod@crate::metrics) answer "what has this
//! process done since it started"; live health monitoring needs "what is
//! happening *right now*". [`WindowedCounter`] and [`WindowedHistogram`]
//! divide the last `window` of time into a fixed number of slots, each
//! tagged with the epoch it was last written in; a slot whose epoch has
//! rotated out of the window is cleared lazily on the next touch, so the
//! structures are O(slots) in memory with no background thread.
//!
//! Timestamps are explicit (`*_at(now_ns, ..)`), taken from
//! [`crate::clock::now`] by the monitor layer. Under the deterministic
//! logical clock every tick lands in epoch 0, which collapses the window
//! to "everything observed" — rates lose meaning but ratios and
//! distributions (what the drift detector consumes) stay exact and
//! bit-stable, which is what the offline CI gate needs.

const NANOS_PER_SEC: u64 = 1_000_000_000;

/// One slot of a windowed aggregate: the epoch it belongs to plus its
/// payload.
#[derive(Debug, Clone, Default)]
struct CounterSlot {
    epoch: u64,
    count: u64,
}

/// A counter over the trailing time window.
#[derive(Debug, Clone)]
pub struct WindowedCounter {
    slot_ns: u64,
    slots: Vec<CounterSlot>,
}

impl WindowedCounter {
    /// A counter covering `window_secs` seconds split into `slots` slots.
    ///
    /// # Panics
    ///
    /// Panics when `window_secs` or `slots` is zero.
    pub fn new(window_secs: u64, slots: usize) -> Self {
        assert!(window_secs > 0, "window must cover at least one second");
        assert!(slots > 0, "window needs at least one slot");
        let slot_ns = (window_secs * NANOS_PER_SEC / slots as u64).max(1);
        WindowedCounter {
            slot_ns,
            slots: vec![CounterSlot::default(); slots],
        }
    }

    /// The window length in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.slot_ns * self.slots.len() as u64
    }

    fn epoch(&self, now_ns: u64) -> u64 {
        now_ns / self.slot_ns
    }

    /// Adds `n` at time `now_ns`.
    pub fn add_at(&mut self, now_ns: u64, n: u64) {
        let epoch = self.epoch(now_ns);
        let idx = (epoch % self.slots.len() as u64) as usize;
        let slot = &mut self.slots[idx];
        if slot.epoch != epoch {
            slot.epoch = epoch;
            slot.count = 0;
        }
        slot.count += n;
    }

    /// Adds one at time `now_ns`.
    pub fn inc_at(&mut self, now_ns: u64) {
        self.add_at(now_ns, 1);
    }

    /// Total count over the window ending at `now_ns`.
    pub fn total_at(&self, now_ns: u64) -> u64 {
        let newest = self.epoch(now_ns);
        let oldest = newest.saturating_sub(self.slots.len() as u64 - 1);
        self.slots
            .iter()
            .filter(|s| s.epoch >= oldest && s.epoch <= newest)
            .map(|s| s.count)
            .sum()
    }

    /// Events per second over the window ending at `now_ns`.
    pub fn rate_per_sec_at(&self, now_ns: u64) -> f64 {
        self.total_at(now_ns) as f64 * NANOS_PER_SEC as f64 / self.window_ns() as f64
    }

    /// Forgets everything.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = CounterSlot::default();
        }
    }
}

#[derive(Debug, Clone)]
struct HistogramSlot {
    epoch: u64,
    /// One count per bound plus the implicit overflow bucket.
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
}

impl HistogramSlot {
    fn empty(buckets: usize) -> Self {
        HistogramSlot {
            epoch: 0,
            buckets: vec![0; buckets],
            count: 0,
            sum: 0.0,
        }
    }

    fn reset(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0.0;
    }
}

/// A fixed-bucket histogram over the trailing time window, sharing the
/// bucketing convention of [`crate::metrics::Histogram`] (inclusive
/// upper bounds, implicit overflow bucket last).
#[derive(Debug, Clone)]
pub struct WindowedHistogram {
    bounds: Vec<f64>,
    slot_ns: u64,
    slots: Vec<HistogramSlot>,
}

impl WindowedHistogram {
    /// A histogram covering `window_secs` seconds in `slots` slots with
    /// the given ascending bucket `bounds`.
    ///
    /// # Panics
    ///
    /// Panics when `window_secs` or `slots` is zero, or when `bounds` is
    /// empty, non-finite, or not strictly ascending.
    pub fn new(window_secs: u64, slots: usize, bounds: Vec<f64>) -> Self {
        assert!(window_secs > 0, "window must cover at least one second");
        assert!(slots > 0, "window needs at least one slot");
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly ascending"
        );
        let slot_ns = (window_secs * NANOS_PER_SEC / slots as u64).max(1);
        let buckets = bounds.len() + 1;
        WindowedHistogram {
            bounds,
            slot_ns,
            slots: vec![HistogramSlot::empty(buckets); slots],
        }
    }

    /// Bucket upper bounds (the overflow bucket is implicit).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    fn epoch(&self, now_ns: u64) -> u64 {
        now_ns / self.slot_ns
    }

    /// Records one observation at time `now_ns` (non-finite values are
    /// dropped).
    pub fn observe_at(&mut self, now_ns: u64, value: f64) {
        if !value.is_finite() {
            return;
        }
        let epoch = self.epoch(now_ns);
        let idx = (epoch % self.slots.len() as u64) as usize;
        let n_buckets = self.bounds.len() + 1;
        let bucket = self
            .bounds
            .partition_point(|&bound| bound < value)
            .min(n_buckets - 1);
        let slot = &mut self.slots[idx];
        if slot.epoch != epoch {
            slot.reset(epoch);
        }
        slot.buckets[bucket] += 1;
        slot.count += 1;
        slot.sum += value;
    }

    fn live_slots(&self, now_ns: u64) -> impl Iterator<Item = &HistogramSlot> {
        let newest = self.epoch(now_ns);
        let oldest = newest.saturating_sub(self.slots.len() as u64 - 1);
        self.slots
            .iter()
            .filter(move |s| s.epoch >= oldest && s.epoch <= newest)
    }

    /// Number of observations in the window ending at `now_ns`.
    pub fn count_at(&self, now_ns: u64) -> u64 {
        self.live_slots(now_ns).map(|s| s.count).sum()
    }

    /// Sum of observations in the window ending at `now_ns`.
    pub fn sum_at(&self, now_ns: u64) -> f64 {
        self.live_slots(now_ns).map(|s| s.sum).sum()
    }

    /// Mean observation in the window (`NaN` when empty).
    pub fn mean_at(&self, now_ns: u64) -> f64 {
        let count = self.count_at(now_ns);
        if count == 0 {
            f64::NAN
        } else {
            self.sum_at(now_ns) / count as f64
        }
    }

    /// Per-bucket counts over the window, overflow bucket last.
    pub fn bucket_counts_at(&self, now_ns: u64) -> Vec<u64> {
        let mut totals = vec![0u64; self.bounds.len() + 1];
        for slot in self.live_slots(now_ns) {
            for (t, b) in totals.iter_mut().zip(&slot.buckets) {
                *t += b;
            }
        }
        totals
    }

    /// The window's probability mass function: per-bucket fraction of
    /// observations, overflow bucket last. All zeros when empty.
    pub fn pmf_at(&self, now_ns: u64) -> Vec<f64> {
        let counts = self.bucket_counts_at(now_ns);
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return vec![0.0; counts.len()];
        }
        counts.iter().map(|&c| c as f64 / total as f64).collect()
    }

    /// The `q`-quantile over the window, linearly interpolated inside
    /// the containing bucket (`NaN` when empty). The overflow bucket has
    /// no upper bound, so mass landing there reports the last bound.
    pub fn quantile_at(&self, now_ns: u64, q: f64) -> f64 {
        let counts = self.bucket_counts_at(now_ns);
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return f64::NAN;
        }
        let target = q.clamp(0.0, 1.0) * total as f64;
        let mut cumulative = 0u64;
        let last = self.bounds[self.bounds.len() - 1];
        for (i, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let next = cumulative + count;
            if (next as f64) >= target {
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let upper = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    return last;
                };
                let into = ((target - cumulative as f64) / count as f64).clamp(0.0, 1.0);
                return lower + into * (upper - lower);
            }
            cumulative = next;
        }
        last
    }

    /// Forgets everything.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            slot.reset(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = NANOS_PER_SEC;

    #[test]
    fn counter_totals_within_window() {
        let mut c = WindowedCounter::new(10, 10); // 1 s slots
        c.add_at(SEC, 3);
        c.inc_at(2 * SEC);
        assert_eq!(c.total_at(2 * SEC), 4);
        assert!((c.rate_per_sec_at(2 * SEC) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn counter_expires_old_slots() {
        let mut c = WindowedCounter::new(10, 10);
        c.add_at(SEC, 5);
        // 1 s slot, 10 slots: by t=11s the write at t=1s has rotated out.
        assert_eq!(c.total_at(10 * SEC), 5);
        assert_eq!(c.total_at(11 * SEC), 0);
    }

    #[test]
    fn counter_slot_reuse_clears_stale_content() {
        let mut c = WindowedCounter::new(2, 2); // 1 s slots, 2 of them
        c.add_at(0, 7); // slot 0, epoch 0
        c.add_at(2 * SEC, 1); // slot 0 again, epoch 2: must reset first
        assert_eq!(c.total_at(2 * SEC), 1);
    }

    #[test]
    fn counter_is_deterministic_under_logical_ticks() {
        // Logical ticks 1, 2, 3… all land in epoch 0: the window
        // degenerates to a running total, bit-stably.
        let mut a = WindowedCounter::new(60, 12);
        let mut b = WindowedCounter::new(60, 12);
        for t in 1..=50u64 {
            a.inc_at(t);
            b.inc_at(t);
        }
        assert_eq!(a.total_at(50), b.total_at(50));
        assert_eq!(a.total_at(50), 50);
    }

    #[test]
    fn counter_clear_forgets() {
        let mut c = WindowedCounter::new(10, 5);
        c.add_at(SEC, 9);
        c.clear();
        assert_eq!(c.total_at(SEC), 0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_are_rejected() {
        let _ = WindowedCounter::new(10, 0);
    }

    #[test]
    fn histogram_counts_and_means_within_window() {
        let mut h = WindowedHistogram::new(10, 10, vec![1.0, 2.0]);
        h.observe_at(SEC, 0.5);
        h.observe_at(SEC, 1.5);
        h.observe_at(2 * SEC, 5.0);
        assert_eq!(h.count_at(2 * SEC), 3);
        assert!((h.sum_at(2 * SEC) - 7.0).abs() < 1e-12);
        assert!((h.mean_at(2 * SEC) - 7.0 / 3.0).abs() < 1e-12);
        assert_eq!(h.bucket_counts_at(2 * SEC), vec![1, 1, 1]);
    }

    #[test]
    fn histogram_expires_old_observations() {
        let mut h = WindowedHistogram::new(4, 4, vec![1.0]);
        h.observe_at(0, 0.5);
        assert_eq!(h.count_at(3 * SEC), 1);
        assert_eq!(h.count_at(4 * SEC), 0);
        assert!(h.mean_at(4 * SEC).is_nan());
    }

    #[test]
    fn histogram_pmf_normalises() {
        let mut h = WindowedHistogram::new(10, 5, vec![1.0, 2.0]);
        for v in [0.5, 0.6, 1.5, 9.0] {
            h.observe_at(SEC, v);
        }
        let pmf = h.pmf_at(SEC);
        assert_eq!(pmf.len(), 3);
        assert!((pmf.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((pmf[0] - 0.5).abs() < 1e-12);
        assert!((pmf[2] - 0.25).abs() < 1e-12);
        // Empty window: all-zero pmf, same length.
        assert_eq!(h.pmf_at(u64::MAX), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let mut h = WindowedHistogram::new(10, 5, vec![10.0, 20.0, 30.0]);
        for i in 1..=100 {
            h.observe_at(SEC, 0.3 * f64::from(i));
        }
        let p50 = h.quantile_at(SEC, 0.5);
        assert!((13.0..=17.0).contains(&p50), "p50 {p50}");
        // Overflow mass reports the last bound.
        h.observe_at(SEC, 1e6);
        assert_eq!(h.quantile_at(SEC, 1.0), 30.0);
        assert!(h.quantile_at(2 * SEC + 10 * SEC, 0.5).is_nan());
    }

    #[test]
    fn histogram_drops_non_finite() {
        let mut h = WindowedHistogram::new(10, 5, vec![1.0]);
        h.observe_at(SEC, f64::NAN);
        h.observe_at(SEC, f64::INFINITY);
        assert_eq!(h.count_at(SEC), 0);
    }

    #[test]
    fn histogram_clear_forgets_even_at_epoch_zero() {
        let mut h = WindowedHistogram::new(60, 12, vec![1.0]);
        h.observe_at(1, 0.5); // logical tick: epoch 0
        h.clear();
        assert_eq!(h.count_at(2), 0);
        h.observe_at(3, 0.5);
        assert_eq!(h.count_at(3), 1);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_bounds_are_rejected() {
        let _ = WindowedHistogram::new(10, 5, vec![2.0, 1.0]);
    }
}
