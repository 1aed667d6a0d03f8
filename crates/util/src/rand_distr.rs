//! Continuous distributions over [`crate::rand::Rng`], API-compatible with
//! the subset of the `rand_distr` crate this workspace used.

use crate::rand::Rng;

/// Types that can draw samples of `T` from a random source.
pub trait Distribution<T> {
    /// Draws one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
}

/// Error constructing a distribution from invalid parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistributionError {
    reason: &'static str,
}

impl std::fmt::Display for DistributionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.reason)
    }
}

impl std::error::Error for DistributionError {}

/// The normal (Gaussian) distribution `N(mean, std_dev²)`, sampled with
/// the Box–Muller transform.
///
/// Every sample consumes exactly two [`Rng::next_u64`] words, whatever
/// the parameters or the words drawn. [`Normal::fill_f32`] relies on
/// this: it draws a chunk's words up front and maps each pair of words
/// to one entry, so a sampler that consumes a variable number of words
/// (a ziggurat, say) must not replace this one unnoticed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates `N(mean, std_dev²)`.
    ///
    /// # Errors
    ///
    /// Returns an error when either parameter is non-finite or `std_dev`
    /// is negative (`std_dev = 0` is allowed and degenerates to `mean`).
    pub fn new(mean: f64, std_dev: f64) -> Result<Normal, DistributionError> {
        if !mean.is_finite() || !std_dev.is_finite() {
            return Err(DistributionError {
                reason: "normal parameters must be finite",
            });
        }
        if std_dev < 0.0 {
            return Err(DistributionError {
                reason: "standard deviation must be non-negative",
            });
        }
        Ok(Normal { mean, std_dev })
    }

    /// Fills `out` with the next `out.len()` samples as `f32`: `out[j]`
    /// is bit-equal to the `j`-th `self.sample(rng) as f32`, and `rng`
    /// ends where those samples leave it, two words per entry. Allocates
    /// nothing.
    ///
    /// It is several times faster than sampling one by one. The entries
    /// go in stack chunks of 64 whose `ln` and `cos` are evaluated by
    /// inlined polynomial kernels, which the compiler vectorises: fdlibm's
    /// `log`, and its `__kernel_cos`/`__kernel_sin` after a two-part
    /// π/2 reduction. On x86_64 CPUs with AVX2 the same chunk body runs
    /// compiled for AVX2.
    ///
    /// *Why the bits are the reference's.* The kernels bracket the
    /// reference value rather than reproduce it. Each kernel, like the
    /// libm `ln` and `cos` that [`Distribution::sample`] calls, is within
    /// one ulp of the true function; the reduction adds at most about
    /// 2⁻⁸² to the cosine. Carried through `sqrt` and the product, the
    /// reference `z = √(−2 ln u₁)·cos(2πu₂)` lies within
    /// `|z|·2⁻⁴⁹ + √(−2 ln u₁)·2⁻⁸⁰` of the kernels' `z`. The bracket is
    /// `z ± (|z|·2⁻⁴⁴ + √(−2 ln u₁)·2⁻⁷⁶)`, 16 to 32 times wider. For
    /// `σ ≥ 0`, `σ·z`, `mean + ·` and the rounding to `f32` are each
    /// non-decreasing in `z`, so the reference entry lies between the
    /// `f32`s of the two ends, for any `mean`. Where both ends give the
    /// same non-zero `f32`, that is the reference entry; a zero is
    /// excluded because its sign is not ordered. Every other entry,
    /// about 1.5 in 10⁶ at `σ = 1/√512`, is recomputed with the
    /// reference formula.
    pub fn fill_f32<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f32]) {
        self.fill_with(rng, out, bracket);
    }

    /// [`Normal::fill_f32`] with its chunk body passed in.
    fn fill_with<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f32], body: ChunkBody) {
        let mut chunk = Chunk::default();
        for out in out.chunks_mut(CHUNK) {
            for j in 0..out.len() {
                chunk.w0[j] = rng.next_u64();
                chunk.w1[j] = rng.next_u64();
            }
            // Lanes past a short chunk's end bracket stale words and
            // are not read.
            body(*self, &mut chunk);
            for (j, out) in out.iter_mut().enumerate() {
                let (lo, hi) = (chunk.lo[j], chunk.hi[j]);
                *out = if lo.to_bits() == hi.to_bits() && lo != 0.0 {
                    lo
                } else {
                    self.scale(box_muller(chunk.w0[j], chunk.w1[j])) as f32
                };
            }
        }
    }

    /// `mean + std_dev·z`, the one place a standard draw is scaled.
    #[inline(always)]
    fn scale(&self, z: f64) -> f64 {
        self.mean + self.std_dev * z
    }
}

impl Distribution<f64> for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let w0 = rng.next_u64();
        let w1 = rng.next_u64();
        self.scale(box_muller(w0, w1))
    }
}

/// The reference standard normal of the words `(w0, w1)`, by
/// Box–Muller through libm: `u1` from `w0`'s top 53 bits, nudged away
/// from 0 so `ln` stays finite, and `u2` from `w1` as
/// [`Rng::next_f64`] reads it. [`Normal::fill_f32`] brackets this value
/// and falls back to it.
fn box_muller(w0: u64, w1: u64) -> f64 {
    let u1 = ((w0 >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64);
    let u2 = (w1 >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Entries per chunk of [`Normal::fill_f32`].
const CHUNK: usize = 64;

/// One chunk of [`Normal::fill_f32`]: each lane's two words, and the
/// `f32`s of the two ends of the bracket around the lane's reference
/// entry.
struct Chunk {
    w0: [u64; CHUNK],
    w1: [u64; CHUNK],
    lo: [f32; CHUNK],
    hi: [f32; CHUNK],
}

impl Default for Chunk {
    fn default() -> Self {
        Chunk {
            w0: [0; CHUNK],
            w1: [0; CHUNK],
            lo: [0.0; CHUNK],
            hi: [0.0; CHUNK],
        }
    }
}

/// A chunk body: fills every lane's `lo` and `hi` from its words.
type ChunkBody = fn(Normal, &mut Chunk);

/// The chunk body for this CPU.
fn bracket(normal: Normal, chunk: &mut Chunk) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `bracket_avx2` needs only AVX2, which this CPU was
        // just found to support.
        return unsafe { bracket_avx2(normal, chunk) };
    }
    bracket_portable(normal, chunk);
}

/// [`bracket_portable`] compiled for AVX2's four-wide `f64` lanes.
/// Without fused multiply-add every operation rounds as in the portable
/// body, so both give the same bits.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn bracket_avx2(normal: Normal, chunk: &mut Chunk) {
    bracket_portable(normal, chunk);
}

/// The chunk body for the compilation target's baseline features: a
/// branch-free lane loop, which [`bracket_avx2`] compiles again.
#[inline(always)]
fn bracket_portable(normal: Normal, chunk: &mut Chunk) {
    const UNIT: f64 = 1.0 / (1u64 << 53) as f64;
    for j in 0..CHUNK {
        // The reference's u1 and u2, exactly.
        let u1 = (exact_f64(chunk.w0[j] >> 11) + 1.0) * UNIT;
        let u2 = exact_f64(chunk.w1[j] >> 11) * UNIT;
        let r = (-2.0 * ln_kernel(u1)).sqrt();
        let z = r * cos_kernel(std::f64::consts::TAU * u2);
        let margin = z.abs() * (1.0 / (1u64 << 44) as f64) + r * (1.0 / (1u128 << 76) as f64);
        chunk.lo[j] = normal.scale(z - margin) as f32;
        chunk.hi[j] = normal.scale(z + margin) as f32;
    }
}

/// `t as f64` for `t < 2⁵³`, exact: its high 27 and low 26 bits each
/// go into the mantissa of `2⁵²`, which is then subtracted. Only bit
/// operations and `f64` arithmetic, which every vector unit has.
#[inline(always)]
fn exact_f64(t: u64) -> f64 {
    const TWO52: f64 = (1u64 << 52) as f64;
    let half = |bits: u64| f64::from_bits(TWO52.to_bits() | bits) - TWO52;
    half(t >> 26) * (1u64 << 26) as f64 + half(t & ((1 << 26) - 1))
}

/// `ln x` for normal `x > 0`, within one ulp: fdlibm's `log`.
#[inline(always)]
fn ln_kernel(x: f64) -> f64 {
    const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
    const LG1: f64 = f64::from_bits(0x3fe5_5555_5555_5593);
    const LG2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04);
    const LG3: f64 = f64::from_bits(0x3fd2_4924_9422_9359);
    const LG4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af);
    const LG5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de);
    const LG6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f);
    const LG7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244);
    // x = 2^k·(1 + f) with √2/2 < 1 + f < √2.
    let bits = x.to_bits() + ((0x3ff0_0000 - 0x3fe6_a09e) << 32);
    let k = exact_f64(bits >> 52) - 1023.0;
    let f = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) + (0x3fe6_a09e << 32)) - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    s * (hfsq + (t2 + t1)) + k * LN2_LO - hfsq + f + k * LN2_HI
}

/// `cos x` for `0 ≤ x < 2π`, within one ulp plus about 2⁻⁸²:
/// `x = n·π/2 + y` with π/2 in two parts (fdlibm's `pio2_1`, 33 bits,
/// and `pio2_1t`), then fdlibm's `__kernel_cos` or `__kernel_sin` of
/// `y`, both evaluated and one picked, so the loop stays branch-free.
#[inline(always)]
fn cos_kernel(x: f64) -> f64 {
    const PIO2_1: f64 = f64::from_bits(0x3ff9_21fb_5440_0000);
    const PIO2_1T: f64 = f64::from_bits(0x3dd0_b461_1a62_6331);
    const TOINT: f64 = 1.5 * (1u64 << 52) as f64;
    const C1: f64 = f64::from_bits(0x3fa5_5555_5555_554c);
    const C2: f64 = f64::from_bits(0xbf56_c16c_16c1_5177);
    const C3: f64 = f64::from_bits(0x3efa_01a0_19cb_1590);
    const C4: f64 = f64::from_bits(0xbe92_7e4f_809c_52ad);
    const C5: f64 = f64::from_bits(0x3e21_ee9e_bdb4_b1c4);
    const C6: f64 = f64::from_bits(0xbda8_fae9_be88_38d4);
    const S1: f64 = f64::from_bits(0xbfc5_5555_5555_5549);
    const S2: f64 = f64::from_bits(0x3f81_1111_1110_f8a6);
    const S3: f64 = f64::from_bits(0xbf2a_01a0_19c1_61d5);
    const S4: f64 = f64::from_bits(0x3ec7_1de3_57b1_fe7d);
    const S5: f64 = f64::from_bits(0xbe5a_e5e6_8a2b_9ceb);
    const S6: f64 = f64::from_bits(0x3de5_d93a_5acf_d57c);
    // n = round(x·2/π) ∈ 0..=4 lands in the low bits of `t`; n·PIO2_1
    // is exact and so, by Sterbenz, is `x − n·PIO2_1`.
    let t = x * std::f64::consts::FRAC_2_PI + TOINT;
    let n = t - TOINT;
    let y = (x - n * PIO2_1) - n * PIO2_1T;
    let z = y * y;
    let w = z * z;
    let r = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let one = 1.0 - hz;
    let cos = one + (((1.0 - one) - hz) + z * r);
    let r = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let sin = y + z * y * (S1 + z * r);
    // cos(n·π/2 + y) is cos y, −sin y, −cos y, sin y for n mod 4 = 0..=3.
    let q = t.to_bits();
    let c = if q & 1 == 0 { cos } else { sin };
    f64::from_bits(c.to_bits() ^ (((q + 1) & 2) << 62))
}

/// The continuous uniform distribution over an interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    low: f64,
    span: f64,
}

impl Uniform {
    /// Uniform over the half-open interval `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics when `low >= high`.
    pub fn new(low: f64, high: f64) -> Uniform {
        assert!(
            low < high,
            "uniform requires low < high, got [{low}, {high})"
        );
        Uniform {
            low,
            span: high - low,
        }
    }

    /// Uniform over the closed interval `[low, high]`.
    ///
    /// # Panics
    ///
    /// Panics when `low > high`.
    pub fn new_inclusive(low: f64, high: f64) -> Uniform {
        assert!(
            low <= high,
            "uniform requires low <= high, got [{low}, {high}]"
        );
        // With 53-bit samples in [0, 1) the closed upper bound is reached
        // only up to rounding; that matches rand_distr's float behaviour.
        Uniform {
            low,
            span: high - low,
        }
    }
}

impl Distribution<f64> for Uniform {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.low + self.span * rng.next_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rand::rngs::StdRng;
    use crate::rand::{Rng, SeedableRng};

    #[test]
    fn normal_moments_match_parameters() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = Normal::new(3.0, 2.0).unwrap();
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn zero_std_collapses_to_mean() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = Normal::new(1.5, 0.0).unwrap();
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 1.5);
        }
    }

    #[test]
    fn invalid_normal_parameters_are_rejected() {
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn uniform_respects_bounds_and_mean() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = Uniform::new_inclusive(-2.0, 2.0);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = d.sample(&mut rng);
            assert!((-2.0..=2.0).contains(&v));
            sum += v;
        }
        assert!((sum / n as f64).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "uniform requires low < high")]
    fn empty_uniform_panics() {
        let _ = Uniform::new(1.0, 1.0);
    }

    #[test]
    fn normal_consumes_exactly_two_words_per_sample() {
        for (seed, std_dev) in [(4u64, 1.0), (5, 0.0), (6, 1e-3)] {
            let d = Normal::new(0.5, std_dev).unwrap();
            let mut sampled = StdRng::seed_from_u64(seed);
            let mut stepped = sampled.clone();
            for n in [1usize, 2, 10, 1000] {
                for _ in 0..n {
                    d.sample(&mut sampled);
                }
                for _ in 0..2 * n {
                    stepped.next_u64();
                }
                assert_eq!(sampled, stepped, "seed {seed} after {n} more samples");
            }
        }
    }

    /// A generator that yields `words` in order, cycling.
    #[derive(Debug, Clone, PartialEq)]
    struct Words {
        words: Vec<u64>,
        at: usize,
    }

    impl Rng for Words {
        fn next_u64(&mut self) -> u64 {
            let word = self.words[self.at % self.words.len()];
            self.at += 1;
            word
        }
    }

    /// σ = 1/√d for the template dimensions, σ = 1, σ = 0 and a
    /// non-zero mean.
    fn normals() -> Vec<Normal> {
        let mut normals: Vec<Normal> = [1.0f64, 7.0, 64.0, 129.0, 512.0]
            .iter()
            .map(|d| Normal::new(0.0, 1.0 / d.sqrt()).unwrap())
            .collect();
        normals.extend(
            [(0.0, 1.0), (0.0, 0.0), (-3.25, 0.75)].map(|(m, s)| Normal::new(m, s).unwrap()),
        );
        normals
    }

    /// The chunk bodies this CPU runs: the portable one, and the AVX2
    /// one where the CPU has AVX2.
    fn bodies() -> Vec<(&'static str, ChunkBody)> {
        let mut bodies: Vec<(&'static str, ChunkBody)> = vec![("portable", bracket_portable)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU was just found to support AVX2.
            bodies.push(("avx2", |normal, chunk| unsafe {
                bracket_avx2(normal, chunk)
            }));
        }
        bodies
    }

    /// Fills `len` entries from a clone of `rng` with `body` and asserts
    /// each is bit-equal to `sample(..) as f32` from another clone, and
    /// that both clones end in the same state.
    fn assert_fill_matches_sample<R: Rng + Clone + PartialEq + std::fmt::Debug>(
        normal: Normal,
        rng: &R,
        len: usize,
        (name, body): (&str, ChunkBody),
    ) {
        let (mut filled, mut sampled) = (rng.clone(), rng.clone());
        let mut out = vec![0f32; len];
        normal.fill_with(&mut filled, &mut out, body);
        for (j, got) in out.iter().enumerate() {
            let want = normal.sample(&mut sampled) as f32;
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{name} {normal:?} entry {j} of {len}: {got:e} vs {want:e}"
            );
        }
        assert_eq!(filled, sampled, "{name} {normal:?} state after {len}");
    }

    crate::proptest! {
        #![proptest_config(crate::proptest::ProptestConfig::with_cases(32))]
        #[test]
        fn normal_fill_matches_sample_bit_for_bit(seed in 0u64..u64::MAX, len in 0usize..300) {
            let rng = StdRng::seed_from_u64(seed);
            for normal in normals() {
                for body in bodies() {
                    assert_fill_matches_sample(normal, &rng, len, body);
                }
            }
        }
    }

    #[test]
    fn normal_fill_matches_sample_over_a_512_d_matrix() {
        let normal = Normal::new(0.0, 1.0 / 512f64.sqrt()).unwrap();
        for body in bodies() {
            assert_fill_matches_sample(normal, &StdRng::seed_from_u64(512), 512 * 512, body);
        }
    }

    #[test]
    fn normal_fill_matches_sample_at_chosen_words() {
        // u1 = 2⁻⁵³, a middling u1 and u1 = 1; u2 = 0, ¼, ½, ¾ and the
        // largest below 1, where cos is ±1 or close to 0.
        for w0 in [0, 0x9e37_79b9_7f4a_7c15, u64::MAX] {
            for w1 in [0, 1 << 62, 1 << 63, 3 << 62, u64::MAX] {
                let rng = Words {
                    words: vec![w0, w1],
                    at: 0,
                };
                for normal in normals() {
                    for body in bodies() {
                        assert_fill_matches_sample(normal, &rng, 65, body);
                    }
                }
            }
        }
    }

    #[test]
    fn normal_fill_falls_back_where_the_bracket_straddles_an_f32() {
        // Words whose bracket ends round to neighbouring f32s at
        // σ = 1/√512: only the reference formula decides this entry.
        let (w0, w1) = (0xcd0d_0a45_8193_df15, 0x6f09_e37f_9f4e_ae69);
        let normal = Normal::new(0.0, 1.0 / 512f64.sqrt()).unwrap();
        for (name, body) in bodies() {
            let mut chunk = Chunk {
                w0: [w0; CHUNK],
                w1: [w1; CHUNK],
                ..Chunk::default()
            };
            body(normal, &mut chunk);
            assert_ne!(chunk.lo[0].to_bits(), chunk.hi[0].to_bits(), "{name}");
            let rng = Words {
                words: vec![w0, w1],
                at: 0,
            };
            assert_fill_matches_sample(normal, &rng, 3, (name, body));
        }
    }

    #[test]
    fn normal_fill_consumes_exactly_two_words_per_entry() {
        let d = Normal::new(0.5, 0.1).unwrap();
        let mut filled = StdRng::seed_from_u64(8);
        let mut stepped = filled.clone();
        for n in [0usize, 1, 63, 64, 65, 1000] {
            d.fill_f32(&mut filled, &mut vec![0f32; n]);
            for _ in 0..2 * n {
                stepped.next_u64();
            }
            assert_eq!(filled, stepped, "after {n} more entries");
        }
    }

    #[test]
    fn normal_is_deterministic_per_seed() {
        let d = Normal::new(0.0, 1.0).unwrap();
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let va: Vec<f64> = (0..16).map(|_| d.sample(&mut a)).collect();
        let vb: Vec<f64> = (0..16).map(|_| d.sample(&mut b)).collect();
        assert_eq!(va, vb);
    }
}
