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

use mandipass_util::rand::rngs::StdRng;
use mandipass_util::rand::SeedableRng;
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
/// `1/√dim`), drawn row-major from the seed on every pass and never
/// stored.
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
        self.project(&[print], std::slice::from_mut(&mut out));
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
        for print in prints {
            self.check_dim(print)?;
        }
        let mut outs: Vec<CancelableTemplate> =
            prints.iter().map(|_| self.zero_template()).collect();
        self.project(prints, &mut outs);
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

    /// The streaming pass: draws `G` one row at a time, in the
    /// generator's row-major order, and adds `x[i]·G[i][·]` into every
    /// output. Each output component is therefore the sum over ascending
    /// `i` of the same f32 products a column walk of the whole matrix
    /// would add, so the result matches it bit for bit while holding only
    /// one `dim`-sized row. `outs` are zeroed, one per print, with
    /// dimensions already checked.
    fn project(&self, prints: &[&MandiblePrint], outs: &mut [CancelableTemplate]) {
        if prints.is_empty() {
            return;
        }
        let _span = mandipass_telemetry::span("template_transform");
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x6761_7573_7373);
        // Only `dim == 0` makes the standard deviation non-finite; its
        // outputs are empty, so there is nothing left to draw for.
        let Ok(normal) = Normal::new(0.0, 1.0 / (self.dim as f64).sqrt()) else {
            return;
        };
        let mut row = vec![0.0f32; self.dim];
        for i in 0..self.dim {
            for g in &mut row {
                *g = normal.sample(&mut rng) as f32;
            }
            for (print, out) in prints.iter().zip(outs.iter_mut()) {
                let xi = print.as_slice()[i];
                for (o, &g) in out.values.iter_mut().zip(&row) {
                    *o += xi * g;
                }
            }
        }
    }
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
