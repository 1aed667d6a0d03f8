//! MandiblePrints and cancelable templates (§VI).
//!
//! Replay defence: before a MandiblePrint is stored, it is multiplied by
//! a user-chosen **Gaussian matrix** `G`. The stored value `x' = x·G` is
//! *cancelable*: if it leaks, the user switches to a fresh matrix and the
//! leaked template no longer matches anything the verifier computes —
//! while genuine verification is unaffected because random projection
//! approximately preserves angles (Johnson–Lindenstrauss), so the cosine
//! distance between two prints transformed by the *same* matrix stays
//! close to the original.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use mandipass_util::rand::rngs::StdRng;
use mandipass_util::rand::SeedableRng;
use mandipass_util::rand_distr::Normal;

use crate::error::MandiPassError;

/// A biometric vector produced by the extractor (sigmoid outputs, each
/// component in `(0, 1)`; paper default dimension 512).
#[derive(Debug, Clone, PartialEq)]
pub struct MandiblePrint(Vec<f32>);

impl MandiblePrint {
    /// Wraps an extractor output vector.
    pub fn new(values: Vec<f32>) -> Self {
        MandiblePrint(values)
    }

    /// The vector components.
    pub fn as_slice(&self) -> &[f32] {
        &self.0
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Mean of several prints (used to enrol from multiple probes).
    ///
    /// # Errors
    ///
    /// Returns [`MandiPassError::NoEnrolmentData`] for an empty slice and
    /// [`MandiPassError::DimensionMismatch`] for ragged inputs.
    pub fn mean(prints: &[MandiblePrint]) -> Result<MandiblePrint, MandiPassError> {
        let first = prints.first().ok_or(MandiPassError::NoEnrolmentData)?;
        let d = first.dim();
        let mut acc = vec![0.0f32; d];
        for p in prints {
            if p.dim() != d {
                return Err(MandiPassError::DimensionMismatch {
                    expected: d,
                    got: p.dim(),
                });
            }
            for (a, &v) in acc.iter_mut().zip(p.as_slice()) {
                *a += v;
            }
        }
        let n = prints.len() as f32;
        for a in &mut acc {
            *a /= n;
        }
        Ok(MandiblePrint(acc))
    }
}

/// A user-revocable Gaussian projection matrix, stored compactly as its
/// generation seed. Entries are `N(0, 1/dim)` (standard deviation
/// `1/√dim`), drawn row-major from the seed on every pass; only a
/// [`MatrixMemo`] keeps drawn entries, and only for `dim ≤ 128`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GaussianMatrix {
    seed: u64,
    dim: usize,
}

impl GaussianMatrix {
    /// Creates the matrix identity for `(seed, dim)`. A square `dim×dim`
    /// projection keeps the template the same size as the print (the
    /// paper's ≈ 1.8 KB template is 512 fp values, with some metadata).
    pub fn generate(seed: u64, dim: usize) -> Self {
        GaussianMatrix { seed, dim }
    }

    /// The generation seed (the user's revocable secret).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Projection dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Transforms a print into a cancelable template: `x' = x·G`.
    ///
    /// # Errors
    ///
    /// Returns [`MandiPassError::DimensionMismatch`] when the print's
    /// dimension differs from the matrix dimension.
    pub fn transform(&self, print: &MandiblePrint) -> Result<CancelableTemplate, MandiPassError> {
        self.check_dim(print)?;
        let mut out = self.zero_template();
        self.project(&[print], std::slice::from_mut(&mut out), Rows::Stream);
        Ok(out)
    }

    /// Transforms every print under this matrix in one pass over `G`,
    /// so a batch costs one draw of the matrix instead of one per print.
    /// Each template is bit-identical to [`Self::transform`] of its print.
    ///
    /// # Errors
    ///
    /// Returns [`MandiPassError::DimensionMismatch`] for the first print
    /// whose dimension differs from the matrix dimension; no template is
    /// produced then.
    pub fn transform_all(
        &self,
        prints: &[&MandiblePrint],
    ) -> Result<Vec<CancelableTemplate>, MandiPassError> {
        self.transform_rows(prints, Rows::Stream)
    }

    /// [`Self::transform_all`] with the rows of `G` taken from `rows`.
    fn transform_rows(
        &self,
        prints: &[&MandiblePrint],
        rows: Rows<'_>,
    ) -> Result<Vec<CancelableTemplate>, MandiPassError> {
        for print in prints {
            self.check_dim(print)?;
        }
        let mut outs: Vec<CancelableTemplate> =
            prints.iter().map(|_| self.zero_template()).collect();
        self.project(prints, &mut outs, rows);
        Ok(outs)
    }

    fn check_dim(&self, print: &MandiblePrint) -> Result<(), MandiPassError> {
        if print.dim() == self.dim {
            Ok(())
        } else {
            Err(MandiPassError::DimensionMismatch {
                expected: self.dim,
                got: print.dim(),
            })
        }
    }

    fn zero_template(&self) -> CancelableTemplate {
        CancelableTemplate {
            values: vec![0.0; self.dim],
            matrix_seed: self.seed,
        }
    }

    /// The generator every pass over `G` starts from.
    fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ 0x6761_7573_7373)
    }

    /// Adds `x·G` into `outs` (zeroed, one per print, dimensions already
    /// checked), taking `G` one row at a time in the generator's
    /// row-major order and adding `x[i]·G[i][·]` into every output. Each
    /// output component is therefore the sum over ascending `i` of the
    /// same f32 products a column walk of the whole matrix would add, so
    /// the result matches it bit for bit whether the rows are drawn now
    /// or were drawn earlier.
    fn project(&self, prints: &[&MandiblePrint], outs: &mut [CancelableTemplate], rows: Rows<'_>) {
        if prints.is_empty() {
            return;
        }
        let _span = mandipass_telemetry::span("template_transform");
        let dim = self.dim;
        // Only `dim == 0` makes the standard deviation non-finite; its
        // outputs are empty, so there is nothing left to draw for.
        let Ok(normal) = Normal::new(0.0, 1.0 / (dim as f64).sqrt()) else {
            return;
        };
        match rows {
            Rows::Drawn(matrix) => {
                for (i, row) in matrix.chunks_exact(dim).enumerate() {
                    add_row(prints, i, row, outs);
                }
            }
            Rows::Keep(matrix) => {
                matrix.resize(dim * dim, 0.0);
                let mut rng = self.rng();
                for (i, row) in matrix.chunks_exact_mut(dim).enumerate() {
                    normal.fill_f32(&mut rng, row);
                    add_row(prints, i, row, outs);
                }
            }
            Rows::Stream => {
                let mut row = vec![0.0; dim];
                let mut rng = self.rng();
                for i in 0..dim {
                    normal.fill_f32(&mut rng, &mut row);
                    add_row(prints, i, &row, outs);
                }
            }
        }
    }
}

/// Adds `x[i]·row` into each output, `x` being the matching print.
fn add_row(prints: &[&MandiblePrint], i: usize, row: &[f32], outs: &mut [CancelableTemplate]) {
    for (print, out) in prints.iter().zip(outs) {
        let xi = print.as_slice()[i];
        for (o, &g) in out.values.iter_mut().zip(row) {
            *o += xi * g;
        }
    }
}

/// Where [`GaussianMatrix::project`] takes the rows of `G` from.
enum Rows<'a> {
    /// Draw each row from the seed into a one-row buffer.
    Stream,
    /// Draw each row from the seed and keep all `dim²` entries,
    /// row-major, in the buffer: a memo miss.
    Keep(&'a mut Vec<f32>),
    /// Read the rows of a matrix [`Rows::Keep`] drew earlier: a memo hit.
    Drawn(&'a [f32]),
}

/// A bounded least-recently-used memo of drawn Gaussian matrices, keyed
/// by `(seed, dim)`, so a user who verifies again does not redraw the
/// `dim²` Box–Muller normals of a matrix already drawn.
///
/// It admits a matrix only when its entries take at most
/// [`MatrixMemo::ENTRY_MAX_BYTES`] (`dim ≤ 128`) and holds at most
/// [`MatrixMemo::BUDGET_BYTES`], evicting the least recently used entry
/// to make room; every entry is charged at least
/// [`MatrixMemo::ENTRY_MIN_CHARGE`], so tiny matrices cannot fill the
/// budget with bookkeeping. Larger matrices bypass the memo and take
/// the streaming pass of [`GaussianMatrix::transform_all`] unchanged.
/// A hit multiplies the memoized rows with the same row loop a draw
/// uses, so every template is bit-identical either way.
///
/// Lookups bump the `template.memo.hits` / `template.memo.misses`
/// counters; the `template.memo.bytes` gauge sums the bytes every live
/// memo charges against its budget.
#[derive(Default)]
pub struct MatrixMemo {
    inner: Mutex<MemoInner>,
}

/// A memo key: the matrix's `(seed, dim)`.
type Key = (u64, usize);

#[derive(Default)]
struct MemoInner {
    /// Drawn matrices, row-major, with the tick of their last use.
    entries: HashMap<Key, (Arc<[f32]>, u64)>,
    /// Last-use tick → key, oldest first.
    recency: BTreeMap<u64, Key>,
    tick: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
}

/// A point-in-time view of one [`MatrixMemo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemoStats {
    /// Matrices held.
    pub(crate) entries: usize,
    /// Bytes charged against [`MatrixMemo::BUDGET_BYTES`].
    pub(crate) bytes: usize,
    /// Lookups that found their matrix.
    pub(crate) hits: u64,
    /// Lookups that drew their matrix.
    pub(crate) misses: u64,
}

impl MatrixMemo {
    /// The most the memo holds: 1 MiB.
    pub const BUDGET_BYTES: usize = 1 << 20;
    /// The largest matrix the memo admits: 64 KiB, a 128-d matrix, so
    /// at least 16 users fit.
    pub const ENTRY_MAX_BYTES: usize = 64 << 10;
    /// The least an entry is charged, so the budget also bounds the
    /// entry count (and with it the map's bookkeeping) at 1024.
    pub const ENTRY_MIN_CHARGE: usize = 1 << 10;

    /// An empty memo.
    pub fn new() -> Self {
        MatrixMemo::default()
    }

    /// Whether matrices of dimension `dim` enter the memo.
    pub fn admits(dim: usize) -> bool {
        matrix_bytes(dim) <= Self::ENTRY_MAX_BYTES
    }

    /// [`GaussianMatrix::transform`] through the memo.
    ///
    /// # Errors
    ///
    /// As [`GaussianMatrix::transform`].
    pub fn transform(
        &self,
        matrix: &GaussianMatrix,
        print: &MandiblePrint,
    ) -> Result<CancelableTemplate, MandiPassError> {
        if !Self::admits(matrix.dim) {
            return matrix.transform(print);
        }
        // One print in, one template out; an empty result would be a
        // shape failure, not a panic-worthy state.
        self.transform_all(matrix, &[print])?
            .pop()
            .ok_or(MandiPassError::DimensionMismatch {
                expected: 1,
                got: 0,
            })
    }

    /// [`GaussianMatrix::transform_all`] through the memo: a hit reads
    /// the memoized rows, a miss draws the rows into a new entry while
    /// it multiplies them. An empty batch or a dimension error looks
    /// nothing up.
    ///
    /// # Errors
    ///
    /// As [`GaussianMatrix::transform_all`].
    pub fn transform_all(
        &self,
        matrix: &GaussianMatrix,
        prints: &[&MandiblePrint],
    ) -> Result<Vec<CancelableTemplate>, MandiPassError> {
        if prints.is_empty() || !Self::admits(matrix.dim) {
            return matrix.transform_all(prints);
        }
        for print in prints {
            matrix.check_dim(print)?;
        }
        let key = (matrix.seed, matrix.dim);
        if let Some(drawn) = self.lookup(key) {
            return matrix.transform_rows(prints, Rows::Drawn(&drawn));
        }
        let mut drawn = Vec::new();
        let outs = matrix.transform_rows(prints, Rows::Keep(&mut drawn))?;
        self.insert(key, drawn.into());
        Ok(outs)
    }

    /// Drops every matrix drawn from `seed` (a revoked user's).
    pub(crate) fn evict_seed(&self, seed: u64) {
        let mut inner = self.lock();
        let keys: Vec<Key> = inner
            .entries
            .keys()
            .filter(|(s, _)| *s == seed)
            .copied()
            .collect();
        for key in keys {
            inner.remove(key);
        }
    }

    /// Entries, bytes and lookup counts of this memo.
    pub(crate) fn stats(&self) -> MemoStats {
        let inner = self.lock();
        MemoStats {
            entries: inner.entries.len(),
            bytes: inner.bytes,
            hits: inner.hits,
            misses: inner.misses,
        }
    }

    fn lock(&self) -> MutexGuard<'_, MemoInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The memoized matrix for `key`, marked most recently used.
    fn lookup(&self, key: Key) -> Option<Arc<[f32]>> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.tick += 1;
        let Some((drawn, used)) = inner.entries.get_mut(&key) else {
            inner.misses += 1;
            mandipass_telemetry::counter!("template.memo.misses").inc();
            return None;
        };
        inner.recency.remove(&*used);
        *used = inner.tick;
        inner.recency.insert(inner.tick, key);
        inner.hits += 1;
        mandipass_telemetry::counter!("template.memo.hits").inc();
        Some(Arc::clone(drawn))
    }

    /// Admits a freshly drawn matrix, evicting least recently used
    /// entries until it fits. Two threads that missed the same key
    /// drew the same bits; the second keeps the first's entry.
    fn insert(&self, key: Key, drawn: Arc<[f32]>) {
        let mut inner = self.lock();
        if inner.entries.contains_key(&key) {
            return;
        }
        let charge = charge(key.1);
        while inner.bytes + charge > Self::BUDGET_BYTES {
            let Some((_, &oldest)) = inner.recency.iter().next() else {
                break;
            };
            inner.remove(oldest);
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.entries.insert(key, (drawn, tick));
        inner.recency.insert(tick, key);
        inner.bytes += charge;
        memo_bytes_gauge().add(charge as f64);
    }
}

impl MemoInner {
    fn remove(&mut self, key: Key) {
        if let Some((_, used)) = self.entries.remove(&key) {
            self.recency.remove(&used);
            let charge = charge(key.1);
            self.bytes -= charge;
            memo_bytes_gauge().add(-(charge as f64));
        }
    }
}

impl Drop for MatrixMemo {
    fn drop(&mut self) {
        let inner = self.inner.get_mut().unwrap_or_else(PoisonError::into_inner);
        memo_bytes_gauge().add(-(inner.bytes as f64));
    }
}

impl std::fmt::Debug for MatrixMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("MatrixMemo").field(&self.stats()).finish()
    }
}

fn memo_bytes_gauge() -> &'static mandipass_telemetry::Gauge {
    mandipass_telemetry::gauge!("template.memo.bytes")
}

/// Bytes of a `dim × dim` f32 matrix (saturating, so any `dim` compares).
fn matrix_bytes(dim: usize) -> usize {
    dim.saturating_mul(dim)
        .saturating_mul(std::mem::size_of::<f32>())
}

/// What a `dim`-d entry costs the memo's budget.
fn charge(dim: usize) -> usize {
    matrix_bytes(dim).max(MatrixMemo::ENTRY_MIN_CHARGE)
}

/// A Gaussian-transformed MandiblePrint — safe to store at rest; revoked
/// by switching to a new [`GaussianMatrix`].
#[derive(Debug, Clone, PartialEq)]
pub struct CancelableTemplate {
    values: Vec<f32>,
    matrix_seed: u64,
}

impl CancelableTemplate {
    /// The transformed vector.
    pub fn as_slice(&self) -> &[f32] {
        &self.values
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// Seed of the matrix that produced this template (metadata used to
    /// detect stale templates after revocation).
    pub fn matrix_seed(&self) -> u64 {
        self.matrix_seed
    }

    /// Serialised size in bytes (values + seed). The paper reports
    /// ≈ 1.8 KB per template at 512 dimensions.
    pub fn storage_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<f32>() + std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::cosine_distance;
    use mandipass_util::rand::Rng;
    use mandipass_util::rand_distr::Distribution;

    fn random_print(seed: u64, dim: usize) -> MandiblePrint {
        let mut rng = StdRng::seed_from_u64(seed);
        MandiblePrint::new((0..dim).map(|_| rng.gen_range(0.0f32..1.0)).collect())
    }

    fn perturbed(print: &MandiblePrint, seed: u64, sigma: f32) -> MandiblePrint {
        let mut rng = StdRng::seed_from_u64(seed);
        MandiblePrint::new(
            print
                .as_slice()
                .iter()
                .map(|&v| (v + rng.gen_range(-sigma..sigma)).clamp(0.0, 1.0))
                .collect(),
        )
    }

    #[test]
    fn same_matrix_preserves_genuine_similarity() {
        let g = GaussianMatrix::generate(42, 256);
        let a = random_print(1, 256);
        let b = perturbed(&a, 2, 0.05);
        let raw = cosine_distance(a.as_slice(), b.as_slice());
        let ta = g.transform(&a).unwrap();
        let tb = g.transform(&b).unwrap();
        let transformed = cosine_distance(ta.as_slice(), tb.as_slice());
        // Random projection approximately preserves angles.
        assert!(
            (transformed - raw).abs() < 0.15,
            "raw {raw:.3} vs transformed {transformed:.3}"
        );
        assert!(transformed < 0.2, "genuine pair too distant: {transformed}");
    }

    #[test]
    fn different_matrices_break_similarity() {
        // The §VI replay defence: the same print under two different
        // matrices must be far apart (the stolen template fails).
        let g1 = GaussianMatrix::generate(1, 256);
        let g2 = GaussianMatrix::generate(2, 256);
        let p = random_print(3, 256);
        let t1 = g1.transform(&p).unwrap();
        let t2 = g2.transform(&p).unwrap();
        let d = cosine_distance(t1.as_slice(), t2.as_slice());
        assert!(d > 0.5485, "cross-matrix distance {d} below threshold");
    }

    #[test]
    fn transform_is_deterministic() {
        let g = GaussianMatrix::generate(9, 64);
        let p = random_print(4, 64);
        assert_eq!(g.transform(&p).unwrap(), g.transform(&p).unwrap());
    }

    #[test]
    fn impostor_separation_survives_projection() {
        let g = GaussianMatrix::generate(5, 256);
        let a = random_print(10, 256);
        let b = random_print(11, 256);
        let raw = cosine_distance(a.as_slice(), b.as_slice());
        let ta = g.transform(&a).unwrap();
        let tb = g.transform(&b).unwrap();
        let transformed = cosine_distance(ta.as_slice(), tb.as_slice());
        assert!(
            (transformed - raw).abs() < 0.25,
            "raw {raw} vs {transformed}"
        );
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let g = GaussianMatrix::generate(6, 64);
        let p = random_print(12, 32);
        assert!(matches!(
            g.transform(&p),
            Err(MandiPassError::DimensionMismatch {
                expected: 64,
                got: 32
            })
        ));
    }

    /// The textbook transform, the oracle for the streaming pass:
    /// materialise all `dim²` entries row-major, then walk each output
    /// column.
    fn oracle_transform(matrix: &GaussianMatrix, print: &MandiblePrint) -> Vec<f32> {
        let dim = matrix.dim();
        if dim == 0 {
            return Vec::new();
        }
        let mut rng = StdRng::seed_from_u64(matrix.seed() ^ 0x6761_7573_7373);
        let normal = Normal::new(0.0, 1.0 / (dim as f64).sqrt()).unwrap();
        let g: Vec<f32> = (0..dim * dim)
            .map(|_| normal.sample(&mut rng) as f32)
            .collect();
        let x = print.as_slice();
        (0..dim)
            .map(|j| {
                let mut acc = 0.0f32;
                for (i, &xv) in x.iter().enumerate() {
                    acc += xv * g[i * dim + j];
                }
                acc
            })
            .collect()
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn holds(memo: &MatrixMemo, seed: u64, dim: usize) -> bool {
        memo.lock().entries.contains_key(&(seed, dim))
    }

    #[test]
    fn streaming_pass_matches_the_materialised_oracle_bit_for_bit() {
        for dim in [1, 7, 64, 129, 130, 257, 512] {
            for k in [1usize, 2, 6] {
                for mseed in [0u64, 7, 0xdead_beef] {
                    let g = GaussianMatrix::generate(mseed, dim);
                    let prints: Vec<MandiblePrint> = (0..k)
                        .map(|p| random_print(100 * dim as u64 + p as u64, dim))
                        .collect();
                    let refs: Vec<&MandiblePrint> = prints.iter().collect();
                    let batch = g.transform_all(&refs).unwrap();
                    assert_eq!(batch.len(), k);
                    for (p, t) in prints.iter().zip(&batch) {
                        let want = bits(&oracle_transform(&g, p));
                        assert_eq!(bits(t.as_slice()), want, "dim {dim} k {k} seed {mseed}");
                        assert_eq!(bits(g.transform(p).unwrap().as_slice()), want);
                        assert_eq!(t.matrix_seed(), mseed);
                    }
                }
            }
        }
    }

    #[test]
    fn memo_hit_miss_and_over_cap_match_the_materialised_oracle_bit_for_bit() {
        // 128 is the largest dim the memo admits and 130 the smallest it
        // turns away, so both sides of the cap run.
        for dim in [1, 7, 64, 128, 130, 512] {
            let admitted = MatrixMemo::admits(dim);
            assert_eq!(admitted, dim <= 128, "dim {dim}");
            for k in [1usize, 2, 6] {
                let memo = MatrixMemo::new();
                let g = GaussianMatrix::generate(0x5eed ^ dim as u64, dim);
                let prints: Vec<MandiblePrint> = (0..k)
                    .map(|p| random_print(300 * dim as u64 + p as u64, dim))
                    .collect();
                let refs: Vec<&MandiblePrint> = prints.iter().collect();
                let want: Vec<Vec<u32>> = prints
                    .iter()
                    .map(|p| bits(&oracle_transform(&g, p)))
                    .collect();
                // First pass: a miss (or the streaming pass over the cap),
                // then a hit on the same matrix.
                for (pass, hits) in [("miss", 0), ("hit", 1)] {
                    let batch = memo.transform_all(&g, &refs).unwrap();
                    let got: Vec<Vec<u32>> = batch.iter().map(|t| bits(t.as_slice())).collect();
                    assert_eq!(got, want, "{pass}: dim {dim} k {k}");
                    let stats = memo.stats();
                    if admitted {
                        assert_eq!((stats.hits, stats.misses), (hits, 1), "dim {dim}");
                        assert!(holds(&memo, g.seed(), dim));
                    } else {
                        assert_eq!(
                            stats,
                            MemoStats {
                                entries: 0,
                                bytes: 0,
                                hits: 0,
                                misses: 0
                            }
                        );
                    }
                }
                for (p, want) in prints.iter().zip(&want) {
                    let single = memo.transform(&g, p).unwrap();
                    assert_eq!(&bits(single.as_slice()), want, "single: dim {dim} k {k}");
                    assert_eq!(single.matrix_seed(), g.seed());
                }
            }
        }
    }

    #[test]
    fn memo_stays_within_its_budget() {
        let memo = MatrixMemo::new();
        let mut seen = 0;
        for (seed, dim) in (0..200u64).map(|s| (s, [3usize, 16, 64, 100, 128][s as usize % 5])) {
            let p = random_print(seed, dim);
            memo.transform(&GaussianMatrix::generate(seed, dim), &p)
                .unwrap();
            let stats = memo.stats();
            assert!(stats.bytes <= MatrixMemo::BUDGET_BYTES, "{stats:?}");
            seen = seen.max(stats.entries);
        }
        assert!(
            seen >= 16,
            "the budget should hold at least 16 entries, held {seen}"
        );
        // Past the cap nothing is admitted.
        let before = memo.stats();
        memo.transform(&GaussianMatrix::generate(1, 129), &random_print(1, 129))
            .unwrap();
        assert_eq!(memo.stats(), before);
    }

    #[test]
    fn memo_evicts_the_least_recently_used_matrix_for_a_17th_user() {
        let dim = 128;
        assert_eq!(dim * dim * 4, MatrixMemo::ENTRY_MAX_BYTES);
        let memo = MatrixMemo::new();
        let p = random_print(9, dim);
        for seed in 0..16u64 {
            memo.transform(&GaussianMatrix::generate(seed, dim), &p)
                .unwrap();
        }
        assert_eq!(memo.stats().bytes, MatrixMemo::BUDGET_BYTES);
        // User 0 verifies again, so user 1 is now the least recent.
        memo.transform(&GaussianMatrix::generate(0, dim), &p)
            .unwrap();
        memo.transform(&GaussianMatrix::generate(16, dim), &p)
            .unwrap();
        let stats = memo.stats();
        assert_eq!(stats.entries, 16);
        assert_eq!(stats.bytes, MatrixMemo::BUDGET_BYTES);
        assert!(!holds(&memo, 1, dim), "the least recently used entry stays");
        for seed in [0u64, 2, 15, 16] {
            assert!(holds(&memo, seed, dim), "seed {seed} was evicted");
        }
    }

    #[test]
    fn memo_evicts_every_dim_of_a_seed_and_skips_failed_lookups() {
        let memo = MatrixMemo::new();
        for dim in [8, 16] {
            memo.transform(&GaussianMatrix::generate(5, dim), &random_print(1, dim))
                .unwrap();
        }
        memo.transform(&GaussianMatrix::generate(6, 8), &random_print(1, 8))
            .unwrap();
        memo.evict_seed(5);
        assert!(!holds(&memo, 5, 8) && !holds(&memo, 5, 16) && holds(&memo, 6, 8));
        // A dimension error and an empty batch look nothing up.
        let before = memo.stats();
        assert!(memo
            .transform(&GaussianMatrix::generate(7, 8), &random_print(1, 9))
            .is_err());
        assert!(memo
            .transform_all(&GaussianMatrix::generate(7, 8), &[])
            .unwrap()
            .is_empty());
        assert_eq!(memo.stats(), before);
    }

    #[test]
    fn empty_batch_yields_no_templates() {
        let g = GaussianMatrix::generate(3, 64);
        assert!(g.transform_all(&[]).unwrap().is_empty());
    }

    #[test]
    fn batch_dimension_mismatch_yields_no_partial_output() {
        let g = GaussianMatrix::generate(3, 64);
        let good = random_print(1, 64);
        let bad = random_print(2, 63);
        assert!(matches!(
            g.transform_all(&[&good, &bad, &good]),
            Err(MandiPassError::DimensionMismatch {
                expected: 64,
                got: 63
            })
        ));
    }

    #[test]
    fn template_storage_matches_paper_ballpark() {
        let g = GaussianMatrix::generate(7, 512);
        let p = random_print(13, 512);
        let t = g.transform(&p).unwrap();
        // 512 × 4 bytes + seed = 2056 bytes ≈ the paper's "about 1.8 KB".
        assert_eq!(t.storage_bytes(), 512 * 4 + 8);
        assert_eq!(t.matrix_seed(), 7);
    }

    #[test]
    fn mean_of_prints_averages_componentwise() {
        let a = MandiblePrint::new(vec![0.0, 1.0]);
        let b = MandiblePrint::new(vec![1.0, 0.0]);
        let m = MandiblePrint::mean(&[a, b]).unwrap();
        assert_eq!(m.as_slice(), &[0.5, 0.5]);
    }

    #[test]
    fn mean_rejects_empty_and_ragged() {
        assert!(matches!(
            MandiblePrint::mean(&[]),
            Err(MandiPassError::NoEnrolmentData)
        ));
        let a = MandiblePrint::new(vec![0.0, 1.0]);
        let b = MandiblePrint::new(vec![1.0]);
        assert!(matches!(
            MandiblePrint::mean(&[a, b]),
            Err(MandiPassError::DimensionMismatch { .. })
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::similarity::cosine_distance;
    use mandipass_util::proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn projection_roughly_preserves_distance(
            seed_a in 0u64..1000,
            seed_b in 1000u64..2000,
            mseed in 0u64..100,
        ) {
            let dim = 128;
            let mut ra = mandipass_util::rand::rngs::StdRng::seed_from_u64(seed_a);
            let mut rb = mandipass_util::rand::rngs::StdRng::seed_from_u64(seed_b);
            use mandipass_util::rand::Rng;
            let a = MandiblePrint::new((0..dim).map(|_| ra.gen_range(0.0f32..1.0)).collect());
            let b = MandiblePrint::new((0..dim).map(|_| rb.gen_range(0.0f32..1.0)).collect());
            let g = GaussianMatrix::generate(mseed, dim);
            let raw = cosine_distance(a.as_slice(), b.as_slice());
            let t = cosine_distance(
                g.transform(&a).unwrap().as_slice(),
                g.transform(&b).unwrap().as_slice(),
            );
            prop_assert!((raw - t).abs() < 0.35, "raw {} vs transformed {}", raw, t);
        }
    }
}
