//! Iterative common-range selection for aging-aware mapping
//! (paper §IV-B, Fig. 8).
//!
//! After aging, the traced devices report different aged upper bounds. The
//! column currents must sum linearly, so one *common* resistance window must
//! be chosen for the whole array. The paper iterates over every traced aged
//! upper bound between `R^L_aged,max` and `R^U_aged,max`, maps the weights
//! against each candidate window, evaluates classification accuracy, and
//! keeps the best-performing bound.
//!
//! The shipped sweep is the incremental engine behind
//! [`crate::CrossbarNetwork::map_weights`]. It and the test-only naive
//! sweep, `select_range`, share the candidate list and the fold below, so
//! the two are compared bit for bit by the crate's tests.

use memaging_device::AgedWindow;

use crate::error::CrossbarError;
use crate::tracer::TracedEstimate;

/// Minimum accuracy gain a *narrower* candidate window must deliver to be
/// adopted over a wider one: narrow windows park every device at low
/// resistance (maximum programming current), so an accuracy-neutral
/// narrowing would trade nothing for a much faster aging rate.
pub(crate) const MIN_IMPROVEMENT: f64 = 0.005;

/// The candidate upper bounds of a sweep: the distinct traced aged maxima,
/// descending (widest-first), with collapsed candidates (`r_max <=
/// fresh_r_min`) dropped. The naive `select_range` and the incremental
/// engine both derive their candidate list here, so they agree bit-for-bit
/// on the iteration order, the dedup tolerance, and `candidates_tried`.
pub(crate) fn candidate_upper_bounds(estimates: &[TracedEstimate], fresh_r_min: f64) -> Vec<f64> {
    let mut candidates: Vec<f64> = estimates.iter().map(|e| e.window.r_max).collect();
    candidates.sort_by(|a, b| b.partial_cmp(a).expect("aged bounds are finite"));
    candidates.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
    candidates.retain(|&r_max| r_max > fresh_r_min);
    candidates
}

/// Folds evaluated candidates (in widest-first order) into the selection:
/// the first candidate is adopted, and each later one only if it beats the
/// running best by more than [`MIN_IMPROVEMENT`]. The fold is shared by
/// the naive `select_range` and the incremental engine so adoption decisions,
/// tie-breaks and error precedence are identical whatever produced the
/// accuracies.
pub(crate) fn fold_candidates(
    fresh_r_min: f64,
    evaluated: impl Iterator<Item = (f64, Result<f64, CrossbarError>)>,
) -> Result<RangeSelection, CrossbarError> {
    let mut best: Option<RangeSelection> = None;
    let mut tried = 0usize;
    for (r_max, result) in evaluated {
        let accuracy = result?;
        tried += 1;
        let window = AgedWindow { r_min: fresh_r_min, r_max };
        let better = match &best {
            None => true,
            Some(b) => accuracy > b.accuracy + MIN_IMPROVEMENT,
        };
        if better {
            best = Some(RangeSelection { window, accuracy, candidates_tried: 0 });
        }
    }
    let mut sel = best.ok_or(CrossbarError::InvalidMapping {
        reason: "no viable candidate window (all collapsed below fresh r_min)".into(),
    })?;
    sel.candidates_tried = tried;
    Ok(sel)
}

/// The outcome of a range selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeSelection {
    /// The selected common window.
    pub window: AgedWindow,
    /// Accuracy achieved by the selected window on the calibration data.
    pub accuracy: f64,
    /// Number of candidate windows evaluated.
    pub candidates_tried: usize,
}

/// The naive sweep, the oracle of the incremental engine: selects the
/// common resistance window by iterating over the traced aged upper bounds
/// and keeping the candidate with the best evaluated accuracy.
///
/// `fresh_r_min` is the fresh lower bound — after aging, original lower
/// bounds remain inside every aged range (paper Fig. 4 discussion), so the
/// common window keeps it. `evaluate` receives each candidate window and
/// returns the classification accuracy of mapping against it (typically a
/// software simulation over a calibration batch — no physical programming,
/// hence no aging cost).
///
/// # Errors
///
/// Returns [`CrossbarError::InvalidMapping`] if `estimates` is empty, and
/// propagates evaluator errors.
#[cfg(test)]
pub(crate) fn select_range(
    estimates: &[TracedEstimate],
    fresh_r_min: f64,
    evaluate: &mut dyn FnMut(AgedWindow) -> Result<f64, CrossbarError>,
) -> Result<RangeSelection, CrossbarError> {
    let (_lo, _hi) = crate::tracer::traced_upper_bound_range(estimates).ok_or(
        CrossbarError::InvalidMapping {
            reason: "range selection needs at least one traced estimate".into(),
        },
    )?;
    // Candidates are iterated widest-first; see MIN_IMPROVEMENT. The map
    // below is lazy, so evaluations stay serial and stop at the first error.
    let candidates = candidate_upper_bounds(estimates, fresh_r_min);
    fold_candidates(
        fresh_r_min,
        candidates
            .into_iter()
            .map(|r_max| (r_max, evaluate(AgedWindow { r_min: fresh_r_min, r_max }))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(r_max: f64) -> TracedEstimate {
        TracedEstimate { row: 0, col: 0, window: AgedWindow { r_min: 9.0e3, r_max } }
    }

    #[test]
    fn empty_estimates_rejected() {
        assert!(select_range(&[], 1e4, &mut |_| Ok(0.5)).is_err());
    }

    #[test]
    fn picks_highest_accuracy_candidate() {
        let estimates = vec![est(9e4), est(7e4), est(5e4)];
        // Peak accuracy at the middle candidate.
        let sel = select_range(&estimates, 1e4, &mut |w| Ok(1.0 - ((w.r_max - 7e4).abs() / 1e5)))
            .unwrap();
        assert!((sel.window.r_max - 7e4).abs() < 1.0);
        assert_eq!(sel.candidates_tried, 3);
        assert_eq!(sel.window.r_min, 1e4);
    }

    #[test]
    fn duplicate_bounds_evaluated_once() {
        let estimates = vec![est(8e4), est(8e4), est(8e4)];
        let mut calls = 0;
        let sel = select_range(&estimates, 1e4, &mut |_| {
            calls += 1;
            Ok(0.9)
        })
        .unwrap();
        assert_eq!(calls, 1);
        assert_eq!(sel.candidates_tried, 1);
    }

    #[test]
    fn collapsed_candidates_skipped() {
        let estimates = vec![est(5e3), est(8e4)];
        let mut seen = Vec::new();
        let sel = select_range(&estimates, 1e4, &mut |w| {
            seen.push(w.r_max);
            Ok(0.5)
        })
        .unwrap();
        assert_eq!(seen, vec![8e4], "candidate below fresh r_min must be skipped");
        assert_eq!(sel.window.r_max, 8e4);
    }

    #[test]
    fn all_collapsed_is_an_error() {
        let estimates = vec![est(5e3), est(6e3)];
        assert!(select_range(&estimates, 1e4, &mut |_| Ok(0.5)).is_err());
    }

    #[test]
    fn evaluator_errors_propagate() {
        let estimates = vec![est(8e4)];
        let result = select_range(&estimates, 1e4, &mut |_| {
            Err(CrossbarError::InvalidMapping { reason: "boom".into() })
        });
        assert!(result.is_err());
    }

    #[test]
    fn ties_keep_first_evaluated() {
        // Candidates descending: 9e4 then 7e4; equal accuracy keeps 9e4,
        // the least-restrictive window.
        let estimates = vec![est(7e4), est(9e4)];
        let sel = select_range(&estimates, 1e4, &mut |_| Ok(0.5)).unwrap();
        assert_eq!(sel.window.r_max, 9e4);
    }
}
