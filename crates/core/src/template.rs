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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use mandipass_util::rand::rngs::StdRng;
use mandipass_util::rand::{Rng, SeedableRng};
use mandipass_util::rand_distr::{Distribution, Normal};

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
        self.project(
            &[print],
            std::slice::from_mut(&mut out),
            Rows::Stream(Cores::global()),
        );
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
        self.transform_rows(prints, Rows::Stream(Cores::global()))
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
    /// the result matches it bit for bit whether the rows are drawn now,
    /// were drawn earlier, or are drawn in column bands.
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
                    add_row(prints, i, row, outs.iter_mut().map(|o| &mut o.values[..]));
                }
            }
            Rows::Keep(matrix) => {
                matrix.resize(dim * dim, 0.0);
                let mut rng = self.rng();
                for (i, row) in matrix.chunks_exact_mut(dim).enumerate() {
                    draw_row(&mut rng, normal, row);
                    add_row(prints, i, row, outs.iter_mut().map(|o| &mut o.values[..]));
                }
            }
            Rows::Stream(cores) => {
                // A memo-sized matrix is cheap to draw and stays on one
                // core, claiming none.
                let claim =
                    (!MatrixMemo::admits(dim)).then(|| cores.claim(dim.min(Cores::MAX_BANDS)));
                let bands = claim.as_ref().map_or(1, |claim| claim.held);
                self.stream_banded(normal, prints, outs, bands);
            }
        }
    }

    /// Streams `G` in `bands` column bands (clamped to `1..=dim`): the
    /// caller and `bands − 1` scoped helper threads take them from one
    /// queue. Each band replays the generator from the seed and
    /// skips the words of the columns outside it, so it draws the very
    /// entries a single pass draws, and writes only its own columns of
    /// every output, each still summed over ascending `i`. The result is
    /// bit-identical for every band count. A helper that cannot be
    /// spawned leaves its band to the threads that run.
    pub(crate) fn stream_banded(
        &self,
        normal: Normal,
        prints: &[&MandiblePrint],
        outs: &mut [CancelableTemplate],
        bands: usize,
    ) {
        let dim = self.dim;
        let bands = bands.clamp(1, dim.max(1));
        // Carve one row buffer and every output into the same bands.
        let mut row = vec![0.0; dim];
        let mut row_rest = &mut row[..];
        let mut outs_rest: Vec<&mut [f32]> = outs.iter_mut().map(|o| &mut o.values[..]).collect();
        let work: Vec<Band<'_>> = (0..bands)
            .map(|b| {
                let start = b * dim / bands;
                let width = (b + 1) * dim / bands - start;
                let (row, rest) = std::mem::take(&mut row_rest).split_at_mut(width);
                row_rest = rest;
                let outs = outs_rest
                    .iter_mut()
                    .map(|out| {
                        let (band, rest) = std::mem::take(out).split_at_mut(width);
                        *out = rest;
                        band
                    })
                    .collect();
                Band { start, row, outs }
            })
            .collect();
        let queue = Mutex::new(work);
        // The guard drops before the band is drawn, so bands run at once.
        let next = || queue.lock().unwrap_or_else(PoisonError::into_inner).pop();
        let run = || {
            while let Some(band) = next() {
                band.draw(self, normal, prints);
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..bands {
                // A failed spawn only means fewer threads take bands.
                let _ = std::thread::Builder::new().spawn_scoped(scope, run);
            }
            run();
        });
    }
}

/// One column band of a streamed pass: columns `start..start +
/// row.len()` of `G`, drawn into `row`, and the same columns of every
/// output.
struct Band<'a> {
    start: usize,
    row: &'a mut [f32],
    outs: Vec<&'a mut [f32]>,
}

impl Band<'_> {
    /// Draws this band of every row of `matrix` from a fresh generator
    /// and adds it into the band's outputs. Each entry takes two
    /// generator words ([`Normal::sample`]), so skipping `2·c` words
    /// steps over `c` columns.
    fn draw(mut self, matrix: &GaussianMatrix, normal: Normal, prints: &[&MandiblePrint]) {
        let before = 2 * self.start;
        let after = 2 * (matrix.dim - self.start - self.row.len());
        let mut rng = matrix.rng();
        for i in 0..matrix.dim {
            skip(&mut rng, before);
            draw_row(&mut rng, normal, self.row);
            skip(&mut rng, after);
            add_row(prints, i, self.row, self.outs.iter_mut().map(|o| &mut **o));
        }
    }
}

/// Fills `row` with the generator's next entries of `G`.
fn draw_row(rng: &mut StdRng, normal: Normal, row: &mut [f32]) {
    for g in row {
        *g = normal.sample(rng) as f32;
    }
}

/// Advances the generator by `words` words.
fn skip(rng: &mut StdRng, words: usize) {
    for _ in 0..words {
        rng.next_u64();
    }
}

/// Adds `x[i]·row` into each output, `x` being the matching print.
fn add_row<'o>(
    prints: &[&MandiblePrint],
    i: usize,
    row: &[f32],
    outs: impl Iterator<Item = &'o mut [f32]>,
) {
    for (print, out) in prints.iter().zip(outs) {
        let xi = print.as_slice()[i];
        for (o, &g) in out.iter_mut().zip(row) {
            *o += xi * g;
        }
    }
}

/// Where [`GaussianMatrix::project`] takes the rows of `G` from.
enum Rows<'a> {
    /// Draw each row from the seed into a one-row buffer; past the
    /// memo's size, in column bands on the cores claimed from the pool.
    Stream(&'a Cores),
    /// Draw each row from the seed and keep all `dim²` entries,
    /// row-major, in the buffer: a memo miss.
    Keep(&'a mut Vec<f32>),
    /// Read the rows of a matrix [`Rows::Keep`] drew earlier: a memo hit.
    Drawn(&'a [f32]),
}

/// The cores streamed draws hold, out of the machine's
/// ([`std::thread::available_parallelism`]). A draw claims the free
/// cores, and always at least one, for its whole duration: a draw that
/// finds every core held runs on one band, and holding that one core
/// too keeps later draws from splitting onto cores already busy.
///
/// The count publishes no other data, so its atomics are `Relaxed`.
/// The `template.stream.cores` gauge follows it.
pub(crate) struct Cores {
    held: AtomicUsize,
    total: usize,
}

impl Cores {
    /// The most bands one draw splits into. Each band replays the whole
    /// generator stream, about a tenth of a serial draw, so eight bands
    /// already bring a draw to about a quarter of its serial time, and
    /// each further band saves less than the replay it adds.
    const MAX_BANDS: usize = 8;

    /// A pool of `total` cores, none held.
    fn new(total: usize) -> Self {
        Cores {
            held: AtomicUsize::new(0),
            total,
        }
    }

    /// The process-wide pool, sized to the machine.
    fn global() -> &'static Cores {
        static GLOBAL: OnceLock<Cores> = OnceLock::new();
        GLOBAL
            .get_or_init(|| Cores::new(std::thread::available_parallelism().map_or(1, |n| n.get())))
    }

    /// Claims the free cores, at most `want` and at least one.
    fn claim(&self, want: usize) -> Claim<'_> {
        let take = |held: usize| self.total.saturating_sub(held).clamp(1, want.max(1));
        let (Ok(before) | Err(before)) =
            self.held
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |held| {
                    Some(held + take(held))
                });
        let held = take(before);
        stream_cores_gauge().add(held as f64);
        Claim { cores: self, held }
    }
}

/// Cores one draw holds, given back on drop.
struct Claim<'a> {
    cores: &'a Cores,
    held: usize,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.cores.held.fetch_sub(self.held, Ordering::Relaxed);
        stream_cores_gauge().add(-(self.held as f64));
    }
}

fn stream_cores_gauge() -> &'static mandipass_telemetry::Gauge {
    mandipass_telemetry::gauge!("template.stream.cores")
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
        for dim in [1, 7, 64, 130, 512] {
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

    fn held(cores: &Cores) -> usize {
        cores.held.load(Ordering::Relaxed)
    }

    fn normal_for(dim: usize) -> Normal {
        Normal::new(0.0, 1.0 / (dim as f64).sqrt()).unwrap()
    }

    #[test]
    fn bands_match_the_materialised_oracle_bit_for_bit() {
        // Band counts that do and do not divide each dim.
        for dim in [129, 130, 257, 512] {
            for k in [1usize, 2, 6] {
                for mseed in [0u64, 7, 0xdead_beef] {
                    let g = GaussianMatrix::generate(mseed, dim);
                    let prints: Vec<MandiblePrint> = (0..k)
                        .map(|p| random_print(500 * dim as u64 + p as u64, dim))
                        .collect();
                    let refs: Vec<&MandiblePrint> = prints.iter().collect();
                    let want: Vec<Vec<u32>> = prints
                        .iter()
                        .map(|p| bits(&oracle_transform(&g, p)))
                        .collect();
                    for bands in 1..=5 {
                        let mut outs: Vec<CancelableTemplate> =
                            prints.iter().map(|_| g.zero_template()).collect();
                        g.stream_banded(normal_for(dim), &refs, &mut outs, bands);
                        let got: Vec<Vec<u32>> = outs.iter().map(|t| bits(t.as_slice())).collect();
                        assert_eq!(got, want, "dim {dim} k {k} seed {mseed} bands {bands}");
                    }
                }
            }
        }
    }

    #[test]
    fn band_counts_past_the_dim_clamp_to_one_column_each() {
        let g = GaussianMatrix::generate(3, 4);
        let p = random_print(8, 4);
        let mut outs = vec![g.zero_template()];
        g.stream_banded(normal_for(4), &[&p], &mut outs, 9);
        assert_eq!(bits(outs[0].as_slice()), bits(&oracle_transform(&g, &p)));
    }

    #[test]
    fn claims_are_given_back_after_every_streamed_pass() {
        let cores = Cores::new(2);
        let dim = 257;
        let g = GaussianMatrix::generate(11, dim);
        let p = random_print(21, dim);
        let want = bits(&oracle_transform(&g, &p));
        let got = g.transform_rows(&[&p, &p], Rows::Stream(&cores)).unwrap();
        assert!(got.iter().all(|t| bits(t.as_slice()) == want));
        assert_eq!(held(&cores), 0, "after a transform");

        let short = random_print(21, dim - 1);
        assert!(g
            .transform_rows(&[&p, &short], Rows::Stream(&cores))
            .is_err());
        assert_eq!(held(&cores), 0, "after a dimension mismatch");

        // Every core held elsewhere: the draw still gets one, runs one
        // band, and gives it back.
        let elsewhere = cores.claim(Cores::MAX_BANDS);
        assert_eq!((elsewhere.held, held(&cores)), (2, 2));
        let got = g.transform_rows(&[&p], Rows::Stream(&cores)).unwrap();
        assert_eq!(bits(got[0].as_slice()), want);
        assert_eq!(held(&cores), 2, "after a one-band draw");
        drop(elsewhere);
        assert_eq!(held(&cores), 0);

        // Memo-sized matrices claim nothing.
        let small = GaussianMatrix::generate(11, 128);
        let elsewhere = cores.claim(1);
        small
            .transform_rows(&[&random_print(1, 128)], Rows::Stream(&cores))
            .unwrap();
        assert_eq!(held(&cores), 1);
        drop(elsewhere);
        assert_eq!(held(&cores), 0);
    }

    #[test]
    fn claims_take_the_free_cores_and_at_least_one() {
        let cores = Cores::new(3);
        let first = cores.claim(2);
        let second = cores.claim(Cores::MAX_BANDS);
        let third = cores.claim(Cores::MAX_BANDS);
        assert_eq!((first.held, second.held, third.held), (2, 1, 1));
        assert_eq!(held(&cores), 4);
        drop((first, second, third));
        assert_eq!(held(&cores), 0);
        assert_eq!(Cores::new(0).claim(0).held, 1);
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
