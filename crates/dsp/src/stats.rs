//! Descriptive statistics used throughout the pipeline.
//!
//! These back both the vibration-start detector (windowed standard
//! deviation, §IV) and the statistical-feature study the paper uses to
//! motivate the deep extractor (§V.A: mean, median, variance, standard
//! deviation, upper quartile, lower quartile).

/// Arithmetic mean of `xs`. Returns `0.0` for an empty slice.
///
/// ```
/// assert_eq!(mandipass_dsp::stats::mean(&[1.0, 2.0, 3.0]), 2.0);
/// ```
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance of `xs`. Returns `0.0` for slices shorter than 2.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation of `xs`.
///
/// This is the statistic the paper thresholds to find the vibration start
/// (window std > 250 at a drastic onset).
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Median of `xs`. Returns `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Lower (25 %) quartile of `xs`.
pub fn lower_quartile(xs: &[f64]) -> f64 {
    quantile(xs, 0.25)
}

/// Upper (75 %) quartile of `xs`.
pub fn upper_quartile(xs: &[f64]) -> f64 {
    quantile(xs, 0.75)
}

/// Linearly interpolated quantile `q ∈ [0, 1]` of `xs`.
///
/// Returns `0.0` for an empty slice. `q` is clamped into `[0, 1]`.
///
/// The value is the one a stable sort of `xs` would give at the
/// interpolated rank, bit for bit, but found by selection: the low rank
/// by `select_nth_unstable_by`, the high rank as the minimum of the
/// partition right of it.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let mut scratch = xs.to_vec();
    let (_, low, right) = scratch.select_nth_unstable_by(lo, |a, b| {
        a.partial_cmp(b).expect("quantile input must be finite")
    });
    let low = stable_rank_value(xs, lo, *low);
    if lo == hi {
        return low;
    }
    // `hi == lo + 1`, so its value is the smallest one right of `lo`.
    let high = right
        .iter()
        .copied()
        .reduce(|min, x| if x < min { x } else { min })
        .expect("hi < xs.len()");
    let high = stable_rank_value(xs, hi, high);
    let frac = pos - lo as f64;
    low * (1.0 - frac) + high * frac
}

/// The value a stable sort of `xs` puts at `rank`, given the `value`
/// selection found there. They differ only in the sign of a zero:
/// `-0.0` and `+0.0` compare equal, so the sort keeps them in input
/// order, while selection may return either.
fn stable_rank_value(xs: &[f64], rank: usize, value: f64) -> f64 {
    if value != 0.0 {
        return value;
    }
    let below = xs.iter().filter(|&&x| x < 0.0).count();
    xs.iter()
        .copied()
        .filter(|&x| x == 0.0)
        .nth(rank - below)
        .expect("rank falls in the run of zeros")
}

/// Median absolute deviation (MAD) of `xs`: `median(|x - median(xs)|)`.
///
/// The paper's outlier processing (§IV) flags samples whose deviation from
/// the segment median exceeds a multiple of the MAD.
pub fn mad(xs: &[f64]) -> f64 {
    mad_around(xs, median(xs))
}

/// MAD of `xs` about a `median` the caller already computed:
/// `median(|x - median|)`.
pub fn mad_around(xs: &[f64], median_of_xs: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let deviations: Vec<f64> = xs.iter().map(|x| (x - median_of_xs).abs()).collect();
    median(&deviations)
}

/// Minimum and maximum of `xs` in one pass.
///
/// Returns `None` for an empty slice.
pub fn min_max(xs: &[f64]) -> Option<(f64, f64)> {
    let first = *xs.first()?;
    let mut min = first;
    let mut max = first;
    for &x in &xs[1..] {
        if x < min {
            min = x;
        }
        if x > max {
            max = x;
        }
    }
    Some((min, max))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn variance_matches_hand_computation() {
        // xs = [2, 4, 4, 4, 5, 5, 7, 9] has population variance 4.
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance(&xs) - 4.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_of_known_sequence() {
        let xs: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(lower_quartile(&xs), 2.0);
        assert_eq!(upper_quartile(&xs), 4.0);
    }

    #[test]
    fn mad_of_constant_is_zero() {
        assert_eq!(mad(&[5.0; 10]), 0.0);
    }

    #[test]
    fn mad_is_robust_to_single_outlier() {
        let mut xs = vec![1.0; 9];
        xs.push(1000.0);
        // Median stays 1, so MAD stays 0 despite the huge outlier.
        assert_eq!(mad(&xs), 0.0);
    }

    #[test]
    fn mad_of_spread_sequence() {
        // xs = [1..7]: median 4, deviations [3,2,1,0,1,2,3], MAD 2.
        let xs: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(mad(&xs), 2.0);
    }

    #[test]
    fn min_max_single_pass() {
        assert_eq!(min_max(&[3.0, -1.0, 7.0]), Some((-1.0, 7.0)));
        assert_eq!(min_max(&[]), None);
    }

    /// The sort-based quantile the selection replaced.
    fn sorted_quantile(xs: &[f64], q: f64) -> f64 {
        if xs.is_empty() {
            return 0.0;
        }
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q = q.clamp(0.0, 1.0);
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            let frac = pos - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }

    #[test]
    fn selection_matches_the_stable_sort_bit_for_bit() {
        use mandipass_util::rand::rngs::StdRng;
        use mandipass_util::rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5e1ec7);
        let pool = [-0.0, 0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-300, -1e300];
        for case in 0..3000 {
            let len = 1 + case % 41;
            let xs: Vec<f64> = (0..len)
                .map(|_| match rng.gen_range(0u32..4) {
                    // Duplicates and signed zeros from a small pool.
                    0 | 1 => pool[rng.gen_range(0..pool.len())],
                    2 => f64::from(rng.gen_range(-4i32..5)),
                    _ => (rng.next_f64() - 0.5) * 1e3,
                })
                .collect();
            for q in [0.0, 0.25, 0.5, 0.75, 1.0, rng.next_f64()] {
                assert_eq!(
                    quantile(&xs, q).to_bits(),
                    sorted_quantile(&xs, q).to_bits(),
                    "q={q} xs={xs:?}"
                );
            }
            assert_eq!(
                mad(&xs).to_bits(),
                mad_around(&xs, sorted_quantile(&xs, 0.5)).to_bits()
            );
        }
        // A run of zeros keeps its input order under the stable sort.
        assert_eq!(median(&[0.0, -0.0, 0.0]).to_bits(), (-0.0f64).to_bits());
        assert_eq!(median(&[-0.0, 0.0, 0.0]).to_bits(), 0.0f64.to_bits());
        assert_eq!(
            quantile(&[1.0, -0.0, 0.0, -1.0, 2.0], 0.25).to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    fn quantile_clamps_q() {
        let xs = [1.0, 2.0, 3.0];
        assert_eq!(quantile(&xs, -1.0), 1.0);
        assert_eq!(quantile(&xs, 2.0), 3.0);
    }
}
