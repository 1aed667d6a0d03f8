//! A global registry of atomic counters, gauges, and log-linear
//! histograms with quantile readout ([`Histogram`] documents its layout,
//! rank rule and error bound).
//!
//! Handles are `Arc`-backed and cheap to clone; the [`crate::counter!`]
//! family of macros caches a handle per call site, so hot-path updates
//! are lock-free atomic operations. Name lookup (registration) takes a
//! registry mutex and is meant for set-up paths.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use mandipass_util::json::Value;

/// A monotonically increasing `u64`.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins `f64`.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` atomically (negative deltas decrement) — the
    /// up/down shape a live connection or queue-depth gauge needs,
    /// which last-write-wins [`Gauge::set`] would lose under
    /// concurrent workers.
    pub fn add(&self, delta: f64) {
        atomic_f64_update(&self.0, delta, |current, d| current + d);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

fn atomic_f64_update(cell: &AtomicU64, value: f64, keep: impl Fn(f64, f64) -> f64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = keep(f64::from_bits(current), value).to_bits();
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => current = seen,
        }
    }
}

/// Linear sub-buckets per power of two, as a bit count: each octave
/// `[2^e, 2^(e+1))` splits into 2^4 equal buckets, so a bucket's lower
/// bound is within 2^-4 (6.25%) below every value in it.
const SUB_BITS: u32 = 4;
const SUBS: usize = 1 << SUB_BITS;
/// Octaves resolved: binary exponents -32..=39, the range
/// `[2^-32, 2^40)`, which holds second-valued metrics and `u64`
/// nanoseconds alike. Values outside it land in the edge buckets.
const OCTAVES: usize = 72;
/// Biased `f64` exponent of 2^-32, the smallest resolved value.
const MIN_EXP: u64 = 1023 - 32;
/// Right shift that keeps an `f64`'s exponent and top mantissa bits.
const KEY_SHIFT: u32 = 52 - SUB_BITS;

/// The bucket holding `value`: the exponent and top [`SUB_BITS`]
/// mantissa bits of its bit pattern, clamped to the resolved range.
fn bucket_of(value: f64) -> usize {
    if value < f64::from_bits(MIN_EXP << 52) {
        return 0;
    }
    let key = (value.to_bits() >> KEY_SHIFT) - (MIN_EXP << SUB_BITS);
    (key as usize).min(OCTAVES * SUBS - 1)
}

/// The smallest value `bucket` holds (0 for the bottom edge bucket,
/// which also takes everything below the range).
fn lower_bound(bucket: usize) -> f64 {
    if bucket == 0 {
        return 0.0;
    }
    f64::from_bits((bucket as u64 + (MIN_EXP << SUB_BITS)) << KEY_SHIFT)
}

type Octave = [AtomicU64; SUBS];

#[derive(Debug)]
struct HistogramInner {
    /// One slot per octave; its 16 sub-bucket counters are allocated
    /// on the octave's first observation, so a histogram costs only
    /// the octaves its values span.
    octaves: [OnceLock<Box<Octave>>; OCTAVES],
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

/// A log-linear histogram of `f64` observations, the one quantile type
/// of the workspace (registry metrics, trace attribution, stage
/// reports and profiler frames all read it).
///
/// Buckets follow the HdrHistogram layout: powers of two split into 16
/// linear sub-buckets, indexed straight from the `f64` bit pattern over
/// `[2^-32, 2^40)`. Updates are relaxed atomics, so handles can be
/// shared across threads without a lock. `count`, `sum`, `min` and
/// `max` are exact; [`Histogram::merge`] is lossless.
///
/// [`Histogram::quantile`] uses nearest rank, `ceil(q·n)` clamped to
/// `[1, n]`: rank 1 reads the exact minimum, rank `n` the exact
/// maximum, and any other rank its bucket's lower bound clamped to
/// `[min, max]`. Readouts are monotone in `q` and, for values inside
/// the range, at most 2^-4 relative below the exact order statistic.
///
/// The monitor's [`crate::WindowedHistogram`] is not a latency summary:
/// drift's PSI needs its fixed distance bins in a time ring.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramInner {
            octaves: std::array::from_fn(|_| OnceLock::new()),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }))
    }
}

impl Histogram {
    fn bucket(&self, bucket: usize) -> &AtomicU64 {
        let octave = self.0.octaves[bucket / SUBS]
            .get_or_init(|| Box::new(std::array::from_fn(|_| AtomicU64::new(0))));
        &octave[bucket % SUBS]
    }

    /// `(bucket, count)` of every allocated bucket, ascending.
    fn buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.0
            .octaves
            .iter()
            .enumerate()
            .flat_map(|(octave, slot)| {
                slot.get().into_iter().flat_map(move |subs| {
                    subs.iter()
                        .enumerate()
                        .map(move |(sub, n)| (octave * SUBS + sub, n.load(Ordering::Relaxed)))
                })
            })
    }

    /// Records one observation (non-finite values are dropped).
    pub fn observe(&self, value: f64) {
        if value.is_finite() {
            self.bucket(bucket_of(value))
                .fetch_add(1, Ordering::Relaxed);
            self.add_totals(1, value, value, value);
        }
    }

    /// Adds every observation of `other` into `self`, bucket for bucket
    /// (lossless: the result equals one histogram fed both streams).
    pub fn merge(&self, other: &Histogram) {
        for (bucket, n) in other.buckets().filter(|&(_, n)| n > 0) {
            self.bucket(bucket).fetch_add(n, Ordering::Relaxed);
        }
        let bits = |cell: &AtomicU64| f64::from_bits(cell.load(Ordering::Relaxed));
        let theirs = &other.0;
        self.add_totals(
            other.count(),
            other.sum(),
            bits(&theirs.min_bits),
            bits(&theirs.max_bits),
        );
    }

    fn add_totals(&self, count: u64, sum: f64, min: f64, max: f64) {
        let inner = &self.0;
        inner.count.fetch_add(count, Ordering::Relaxed);
        atomic_f64_update(&inner.sum_bits, sum, |acc, v| acc + v);
        atomic_f64_update(&inner.min_bits, min, f64::min);
        atomic_f64_update(&inner.max_bits, max, f64::max);
    }

    /// Zeroes every count in place, keeping allocated octaves, so
    /// handles cached elsewhere stay valid.
    pub(crate) fn clear(&self) {
        let inner = &self.0;
        for octave in inner.octaves.iter().filter_map(OnceLock::get) {
            for n in octave.iter() {
                n.store(0, Ordering::Relaxed);
            }
        }
        inner.count.store(0, Ordering::Relaxed);
        inner.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
        inner
            .min_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        inner
            .max_bits
            .store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean observation (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            f64::NAN
        } else {
            self.sum() / count as f64
        }
    }

    /// Smallest observation (`NaN` when empty).
    pub fn min(&self) -> f64 {
        if self.count() == 0 {
            f64::NAN
        } else {
            f64::from_bits(self.0.min_bits.load(Ordering::Relaxed))
        }
    }

    /// Largest observation (`NaN` when empty).
    pub fn max(&self) -> f64 {
        if self.count() == 0 {
            f64::NAN
        } else {
            f64::from_bits(self.0.max_bits.load(Ordering::Relaxed))
        }
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`) by nearest rank:
    /// rank `ceil(q·n)` clamped to `[1, n]`. Ranks 1 and `n` read the
    /// exact min and max; any other rank reads its bucket's lower
    /// bound clamped to `[min, max]`, at most 2^-4 relative below the
    /// exact value. `NaN` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return f64::NAN;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
        let (min, max) = (self.min(), self.max());
        if rank == 1 {
            return min;
        }
        if rank == n {
            return max;
        }
        let mut seen = 0u64;
        self.buckets()
            .find(|&(_, count)| {
                seen += count;
                seen >= rank
            })
            .map_or(max, |(bucket, _)| lower_bound(bucket).max(min).min(max))
    }

    /// Serialises count/sum/mean/min/max and the p50/p90/p99 estimates.
    pub fn to_json(&self) -> Value {
        let num = |v: f64| {
            if v.is_finite() {
                Value::Number(v)
            } else {
                Value::Null
            }
        };
        Value::Object(vec![
            ("count".to_string(), Value::Number(self.count() as f64)),
            ("sum".to_string(), num(self.sum())),
            ("mean".to_string(), num(self.mean())),
            ("min".to_string(), num(self.min())),
            ("max".to_string(), num(self.max())),
            ("p50".to_string(), num(self.quantile(0.5))),
            ("p90".to_string(), num(self.quantile(0.9))),
            ("p99".to_string(), num(self.quantile(0.99))),
        ])
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// A namespace of metrics. Most code uses the process-wide [`global`]
/// registry; tests can build private ones.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        self.lock()
            .counters
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.lock()
            .gauges
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.lock()
            .histograms
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Serialises every metric:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    pub fn snapshot_json(&self) -> Value {
        let inner = self.lock();
        let counters = inner
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Value::Number(v.get() as f64)))
            .collect();
        let gauges = inner
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), Value::Number(v.get())))
            .collect();
        let histograms = inner
            .histograms
            .iter()
            .map(|(k, v)| (k.clone(), v.to_json()))
            .collect();
        Value::Object(vec![
            ("counters".to_string(), Value::Object(counters)),
            ("gauges".to_string(), Value::Object(gauges)),
            ("histograms".to_string(), Value::Object(histograms)),
        ])
    }
}

/// The process-wide registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let reg = Registry::new();
        let c = reg.counter("requests");
        c.inc();
        c.add(4);
        // Same name → same underlying cell.
        assert_eq!(reg.counter("requests").get(), 5);
        assert_eq!(reg.counter("other").get(), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let reg = Registry::new();
        let g = reg.gauge("loss");
        g.set(0.25);
        g.set(0.125);
        assert_eq!(reg.gauge("loss").get(), 0.125);
    }

    #[test]
    fn gauge_add_is_atomic_under_contention() {
        let reg = Registry::new();
        let g = reg.gauge("depth");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let g = g.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        g.add(1.0);
                        g.add(-1.0);
                    }
                    g.add(2.5);
                });
            }
        });
        assert_eq!(g.get(), 10.0);
    }

    /// The nonzero `(bucket, count)` pairs, for comparing histograms
    /// bucket for bucket.
    fn nonzero_buckets(h: &Histogram) -> Vec<(usize, u64)> {
        h.buckets().filter(|&(_, n)| n > 0).collect()
    }

    /// The exact nearest-rank quantile of an ascending-sorted slice: the
    /// oracle [`Histogram::quantile`] approximates.
    fn sorted_quantile(sorted: &[f64], q: f64) -> f64 {
        let n = sorted.len();
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
        sorted[rank - 1]
    }

    /// Seeded sample sets: integer nanoseconds log-uniform over 1 ns to
    /// 10^3 s, sub-second `f64` seconds, and hand-picked edge cases.
    fn sample_sets() -> Vec<Vec<f64>> {
        use mandipass_util::rand::rngs::StdRng;
        use mandipass_util::rand::{Rng, SeedableRng};
        let mut sets = vec![vec![3.5], vec![0.5, 1.5, 3.0, 3.9], vec![7.0; 5]];
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            for n in [2usize, 7, 66, 100, 1000] {
                let nanos = (0..n)
                    .map(|_| 10f64.powf(rng.gen_range(0.0..12.0)).round())
                    .collect();
                let seconds = (0..n)
                    .map(|_| 10f64.powf(rng.gen_range(-9.0..0.0)))
                    .collect();
                sets.push(nanos);
                sets.push(seconds);
            }
        }
        sets
    }

    fn histogram_of(values: &[f64]) -> Histogram {
        let h = Histogram::default();
        for &v in values {
            h.observe(v);
        }
        h
    }

    #[test]
    fn histogram_quantiles_match_the_nearest_rank_oracle() {
        for values in sample_sets() {
            let h = histogram_of(&values);
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            let n = sorted.len();
            assert_eq!(h.count(), n as u64);
            assert_eq!((h.min(), h.max()), (sorted[0], sorted[n - 1]));
            let exact_sum: f64 = sorted.iter().sum();
            assert!((h.sum() - exact_sum).abs() <= 1e-9 * exact_sum.abs());
            let mut previous = f64::NEG_INFINITY;
            for q in [-3.0, 0.0, 0.5, 0.9, 0.99, 0.999, 1.0, 7.0] {
                let read = h.quantile(q);
                let exact = sorted_quantile(&sorted, q);
                let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
                if rank == 1 || rank == n {
                    assert_eq!(read, exact, "rank {rank} of {n} must be exact");
                } else {
                    assert!(
                        read <= exact && exact - read < exact / 16.0,
                        "q={q}: read {read}, exact {exact}"
                    );
                }
                assert!(read >= previous, "q={q}: {read} < {previous}");
                previous = read;
            }
        }
    }

    #[test]
    fn histogram_merge_is_lossless_and_order_free() {
        for values in sample_sets() {
            let (left, right) = values.split_at(values.len() / 2);
            let merged = histogram_of(left);
            merged.merge(&histogram_of(right));
            let whole = histogram_of(&values);
            let reversed: Vec<f64> = values.iter().rev().copied().collect();
            for other in [&whole, &histogram_of(&reversed)] {
                assert_eq!(nonzero_buckets(&merged), nonzero_buckets(other));
                assert_eq!(merged.count(), other.count());
                assert_eq!((merged.min(), merged.max()), (other.min(), other.max()));
                for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
                    assert_eq!(merged.quantile(q), other.quantile(q), "q={q}");
                }
            }
        }
    }

    #[test]
    fn histogram_reads_small_integers_exactly() {
        // `verify.retry_depth` observes 1..=3 attempts.
        let h = histogram_of(&[1.0, 2.0, 2.0, 3.0, 3.0, 3.0]);
        assert_eq!(h.quantile(0.5), 2.0);
        assert_eq!(h.quantile(0.6), 3.0);
        for v in 1..32u32 {
            let h = histogram_of(&[0.0, f64::from(v), 1e6]);
            assert_eq!(h.quantile(0.5), f64::from(v));
        }
    }

    #[test]
    fn histogram_edge_buckets_hold_out_of_range_values() {
        let h = histogram_of(&[0.0, 1e-12, 2.0, 5e12, 9e12]);
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(0.4), 0.0);
        assert_eq!(h.quantile(0.6), 2.0);
        assert_eq!(h.quantile(1.0), 9e12);
        assert!(h.quantile(0.8) <= 5e12);
        assert_eq!(bucket_of(-1.0), 0);
        assert_eq!(bucket_of(f64::MAX), OCTAVES * SUBS - 1);
    }

    #[test]
    fn histogram_clear_zeroes_in_place() {
        let h = histogram_of(&[1.0, 100.0]);
        let handle = h.clone();
        h.clear();
        assert_eq!(h.count(), 0);
        assert!(h.quantile(0.5).is_nan());
        handle.observe(4.0);
        assert_eq!((h.count(), h.quantile(0.5)), (1, 4.0));
        assert_eq!(nonzero_buckets(&h), vec![(bucket_of(4.0), 1)]);
    }

    #[test]
    fn empty_histogram_reports_nan() {
        let reg = Registry::new();
        let h = reg.histogram("empty");
        assert!(h.mean().is_nan());
        assert!(h.quantile(0.5).is_nan());
        assert!(h.min().is_nan() && h.max().is_nan());
    }

    #[test]
    fn non_finite_observations_are_dropped() {
        let reg = Registry::new();
        let h = reg.histogram("nf");
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn snapshot_serialises_all_kinds() {
        let reg = Registry::new();
        reg.counter("c").add(2);
        reg.gauge("g").set(1.5);
        reg.histogram("h").observe(0.5);
        let json = reg.snapshot_json().to_json();
        assert!(json.contains("\"c\":2"));
        assert!(json.contains("\"g\":1.5"));
        assert!(json.contains("\"count\":1"));
    }
}
