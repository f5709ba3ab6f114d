//! Banding parameters for Locality-Sensitive Hashing over MinHash signatures.
//!
//! The curation framework needs to ask, for every incoming file, "have we
//! already kept something at least 0.85-similar?" without comparing against
//! every kept file. Banding LSH answers that: signatures are split into `b`
//! bands of `r` rows; documents colliding in *any* band become candidates and
//! only candidates are verified (in the pipeline, with exact Jaccard).
//! [`LshParams`] chooses `b` and `r`; the index that buckets signatures by
//! band is [`crate::ShardedLshIndex`].

use serde::{Deserialize, Serialize};

/// Banding parameters for a [`crate::ShardedLshIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LshParams {
    /// Number of bands the signature is split into.
    pub bands: usize,
    /// Number of rows (signature positions) per band.
    pub rows_per_band: usize,
}

impl LshParams {
    /// Creates banding parameters.
    ///
    /// # Panics
    ///
    /// Panics if either value is zero.
    pub fn new(bands: usize, rows_per_band: usize) -> Self {
        assert!(bands > 0, "bands must be positive");
        assert!(rows_per_band > 0, "rows_per_band must be positive");
        Self {
            bands,
            rows_per_band,
        }
    }

    /// How far a full-coverage banding's threshold error may exceed the best
    /// achievable error before a row-discarding banding is preferred instead.
    /// The S-curve midpoint `(1/b)^(1/r)` is itself only an approximation of
    /// the effective retrieval threshold, so treating errors within a few
    /// hundredths as tied buys full use of every computed permutation. Kept
    /// deliberately small: a higher midpoint lowers candidate-retrieval
    /// probability for pairs sitting exactly at the target similarity (the
    /// exact-verification step downstream is unaffected), so the slack must
    /// stay in the same range as the midpoint approximation error itself.
    const FULL_COVERAGE_TOLERANCE: f64 = 0.03;

    /// Chooses `bands`/`rows` for a signature of `signature_len` positions so
    /// that the S-curve threshold `(1/b)^(1/r)` lands as close as possible to
    /// `target_threshold`.
    ///
    /// When `signature_len % rows != 0` the trailing `signature_len - b·r`
    /// positions take no part in candidate retrieval, wasting permutations
    /// that were computed for every document. Candidates whose error is tied
    /// with (within `FULL_COVERAGE_TOLERANCE`, 0.03, of) the best therefore
    /// prefer full coverage: a banding with `bands * rows == signature_len`
    /// wins unless a row-discarding banding is strictly closer to the target
    /// by more than the tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `signature_len == 0` or the threshold is outside `(0, 1)`.
    pub fn for_threshold(signature_len: usize, target_threshold: f64) -> Self {
        assert!(signature_len > 0, "signature length must be positive");
        assert!(
            target_threshold > 0.0 && target_threshold < 1.0,
            "threshold must lie strictly between 0 and 1"
        );
        let mut best = Self::new(1, signature_len);
        let mut best_err = f64::INFINITY;
        let mut best_full = best;
        let mut best_full_err = (best.threshold() - target_threshold).abs();
        for rows in 1..=signature_len {
            let bands = signature_len / rows;
            if bands == 0 {
                continue;
            }
            let candidate = Self::new(bands, rows);
            let err = (candidate.threshold() - target_threshold).abs();
            if err < best_err {
                best_err = err;
                best = candidate;
            }
            if bands * rows == signature_len && err < best_full_err {
                best_full_err = err;
                best_full = candidate;
            }
        }
        if best_full_err <= best_err + Self::FULL_COVERAGE_TOLERANCE {
            best_full
        } else {
            best
        }
    }

    /// The approximate Jaccard threshold at which the probability of becoming
    /// a candidate crosses 1/2, `(1/b)^(1/r)`.
    pub fn threshold(&self) -> f64 {
        (1.0 / self.bands as f64).powf(1.0 / self.rows_per_band as f64)
    }

    /// Minimum signature length these parameters require.
    pub fn required_signature_len(&self) -> usize {
        self.bands * self.rows_per_band
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_for_threshold_lands_near_target() {
        let p = LshParams::for_threshold(128, 0.85);
        assert!((p.threshold() - 0.85).abs() < 0.1);
        assert!(p.required_signature_len() <= 128);
    }

    #[test]
    fn paper_setup_uses_every_permutation() {
        // Regression: 128 permutations at the 0.85 threshold used to pick
        // 9 bands × 14 rows, silently discarding the last 2 signature rows.
        // Near-tied errors must prefer full coverage (8 × 16 = 128).
        let p = LshParams::for_threshold(128, 0.85);
        assert_eq!(
            p.required_signature_len(),
            128,
            "chose {} bands × {} rows, wasting {} of 128 permutations",
            p.bands,
            p.rows_per_band,
            128 - p.bands * p.rows_per_band
        );
    }

    #[test]
    fn awkward_signature_lengths_may_still_discard_rows() {
        // A prime length has no useful full factorisation; the search must
        // fall back to the closest row-discarding banding rather than pick
        // the degenerate 1-band or 1-row layouts.
        let p = LshParams::for_threshold(127, 0.85);
        assert!((p.threshold() - 0.85).abs() < 0.05);
        assert!(p.bands > 1 && p.rows_per_band > 1);
    }

    #[test]
    #[should_panic(expected = "bands must be positive")]
    fn zero_bands_rejected() {
        let _ = LshParams::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "threshold must lie strictly between 0 and 1")]
    fn threshold_out_of_range_rejected() {
        let _ = LshParams::for_threshold(64, 1.5);
    }
}
