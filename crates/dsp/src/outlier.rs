//! MAD-based outlier detection with two-step mean replacement (§IV).
//!
//! Hardware imperfections and body motion put extreme values into raw IMU
//! streams. The paper detects them with a median-absolute-deviation rule
//! and replaces each outlier with the mean of its two previous and two
//! subsequent *normal* values.

use crate::stats;

/// Scale factor that makes MAD a consistent estimator of σ for Gaussian
/// data (`1 / Φ⁻¹(3/4)`).
pub const MAD_GAUSSIAN_SCALE: f64 = 1.4826;

/// Default MAD multiplier beyond which a sample counts as an outlier.
pub const DEFAULT_MAD_THRESHOLD: f64 = 3.5;

/// Indices of samples whose deviation from the segment median exceeds
/// `threshold × (scaled MAD)`.
///
/// A segment with zero MAD (e.g. constant data with spikes) falls back to
/// flagging every sample that differs from the median at all, which keeps
/// the rule useful on degenerate segments.
///
/// ```
/// let mut seg = vec![1.0; 20];
/// seg[7] = 900.0;
/// let idx = mandipass_dsp::outlier::detect_outliers(&seg, 3.5);
/// assert_eq!(idx, vec![7]);
/// ```
pub fn detect_outliers(segment: &[f64], threshold: f64) -> Vec<usize> {
    if segment.is_empty() {
        return Vec::new();
    }
    let med = stats::median(segment);
    let mad = stats::mad_around(segment, med) * MAD_GAUSSIAN_SCALE;
    segment
        .iter()
        .enumerate()
        .filter(|&(_, &x)| {
            let dev = (x - med).abs();
            if mad > 0.0 {
                dev / mad > threshold
            } else {
                dev > 0.0
            }
        })
        .map(|(i, _)| i)
        .collect()
}

/// Replaces each flagged outlier with the mean of up to two previous and
/// two subsequent **normal** (non-flagged) values — the paper's two-step
/// mean replacement.
///
/// When an outlier has no normal neighbours at all (every sample flagged),
/// it is replaced by the segment median as a safe fallback.
pub fn replace_outliers(segment: &mut [f64], outliers: &[usize]) {
    if segment.is_empty() || outliers.is_empty() {
        return;
    }
    let flagged: Vec<bool> = {
        let mut f = vec![false; segment.len()];
        for &i in outliers {
            if i < segment.len() {
                f[i] = true;
            }
        }
        f
    };
    // Work from a snapshot so replacements do not cascade into each other.
    let original = segment.to_vec();
    let median = stats::median(&original);
    for &i in outliers {
        if i >= segment.len() {
            continue;
        }
        let mut neighbours = Vec::with_capacity(4);
        // Two previous normal values.
        let mut found = 0;
        for j in (0..i).rev() {
            if !flagged[j] {
                neighbours.push(original[j]);
                found += 1;
                if found == 2 {
                    break;
                }
            }
        }
        // Two subsequent normal values.
        found = 0;
        for j in i + 1..original.len() {
            if !flagged[j] {
                neighbours.push(original[j]);
                found += 1;
                if found == 2 {
                    break;
                }
            }
        }
        segment[i] = if neighbours.is_empty() {
            median
        } else {
            stats::mean(&neighbours)
        };
    }
}

/// Convenience wrapper: detect with [`detect_outliers`] then repair with
/// [`replace_outliers`]. Returns the indices that were replaced.
pub fn clean_segment(segment: &mut [f64], threshold: f64) -> Vec<usize> {
    let outliers = detect_outliers(segment, threshold);
    replace_outliers(segment, &outliers);
    outliers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_single_spike() {
        let mut seg: Vec<f64> = (0..30).map(|i| (i as f64 * 0.7).sin()).collect();
        seg[11] = 50.0;
        let idx = detect_outliers(&seg, DEFAULT_MAD_THRESHOLD);
        assert_eq!(idx, vec![11]);
    }

    #[test]
    fn detects_multiple_spikes_both_signs() {
        let mut seg: Vec<f64> = (0..40).map(|i| (i as f64 * 0.5).cos()).collect();
        seg[5] = 80.0;
        seg[20] = -80.0;
        let idx = detect_outliers(&seg, DEFAULT_MAD_THRESHOLD);
        assert_eq!(idx, vec![5, 20]);
    }

    #[test]
    fn clean_data_has_no_outliers() {
        let seg: Vec<f64> = (0..50).map(|i| (i as f64 * 0.3).sin()).collect();
        assert!(detect_outliers(&seg, DEFAULT_MAD_THRESHOLD).is_empty());
    }

    #[test]
    fn replacement_uses_two_step_mean() {
        let mut seg = vec![1.0, 2.0, 100.0, 4.0, 5.0];
        replace_outliers(&mut seg, &[2]);
        // mean of {1, 2, 4, 5} = 3
        assert_eq!(seg[2], 3.0);
    }

    #[test]
    fn replacement_skips_flagged_neighbours() {
        let mut seg = vec![1.0, 100.0, 100.0, 4.0, 5.0, 6.0];
        replace_outliers(&mut seg, &[1, 2]);
        // For index 1: previous normals {1}, next normals {4, 5} -> mean 10/3.
        assert!((seg[1] - 10.0 / 3.0).abs() < 1e-12);
        // For index 2: previous normals {1} (index 1 flagged), next {4, 5}.
        assert!((seg[2] - 10.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn replacement_at_boundaries() {
        let mut seg = vec![100.0, 2.0, 3.0, 4.0, 100.0];
        replace_outliers(&mut seg, &[0, 4]);
        assert_eq!(seg[0], 2.5); // mean of {2, 3}
        assert_eq!(seg[4], 3.5); // mean of {3, 4}
    }

    #[test]
    fn all_flagged_falls_back_to_median() {
        let mut seg = vec![10.0, 20.0, 30.0];
        replace_outliers(&mut seg, &[0, 1, 2]);
        assert_eq!(seg, vec![20.0, 20.0, 20.0]);
    }

    #[test]
    fn clean_segment_removes_spike_influence() {
        let mut seg: Vec<f64> = (0..60).map(|i| (i as f64 * 0.4).sin()).collect();
        seg[30] = 500.0;
        let before_max = seg.iter().cloned().fold(f64::MIN, f64::max);
        let replaced = clean_segment(&mut seg, DEFAULT_MAD_THRESHOLD);
        let after_max = seg.iter().cloned().fold(f64::MIN, f64::max);
        assert_eq!(replaced, vec![30]);
        assert!(before_max > 100.0 && after_max < 2.0);
    }

    #[test]
    fn empty_segment_is_noop() {
        let mut seg: Vec<f64> = Vec::new();
        assert!(clean_segment(&mut seg, DEFAULT_MAD_THRESHOLD).is_empty());
    }

    #[test]
    fn out_of_range_indices_are_ignored() {
        let mut seg = vec![1.0, 2.0, 3.0];
        replace_outliers(&mut seg, &[10]);
        assert_eq!(seg, vec![1.0, 2.0, 3.0]);
    }
}
