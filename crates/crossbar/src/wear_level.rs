//! Row-level wear leveling — the *swapping* counter-aging baseline of the
//! paper's ref. [12] ("Long live TIME", DAC 2018).
//!
//! The technique re-assigns which **physical** crossbar row hosts which
//! **logical** weight-matrix row, so that heavily-aged physical rows take
//! over the rows of the weight matrix that draw the least programming
//! current. The paper positions its framework against this method: swapping
//! works at a "gross granularity" and needs bookkeeping in the peripheral
//! addressing logic, while skewed training + aging-aware mapping need no
//! extra hardware. This module implements the baseline so the comparison
//! can be measured.

use memaging_tensor::Tensor;

use crate::crossbar::Crossbar;
use crate::error::CrossbarError;

/// A logical→physical row assignment for one array.
///
/// `assignment[logical] = physical`: logical row `l` of the weight matrix is
/// stored on physical row `assignment[l]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowAssignment {
    assignment: Vec<usize>,
}

impl RowAssignment {
    /// The identity assignment for `rows` rows.
    pub fn identity(rows: usize) -> Self {
        RowAssignment { assignment: (0..rows).collect() }
    }

    /// Creates an assignment from an explicit permutation.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidMapping`] unless `assignment` is a
    /// permutation of `0..len`.
    pub fn new(assignment: Vec<usize>) -> Result<Self, CrossbarError> {
        let mut seen = vec![false; assignment.len()];
        for &p in &assignment {
            if p >= assignment.len() || seen[p] {
                return Err(CrossbarError::InvalidMapping {
                    reason: format!("row assignment {assignment:?} is not a permutation"),
                });
            }
            seen[p] = true;
        }
        Ok(RowAssignment { assignment })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.assignment.len()
    }

    /// The physical row hosting logical row `logical`.
    ///
    /// # Panics
    ///
    /// Panics if `logical` is out of range.
    pub fn physical(&self, logical: usize) -> usize {
        self.assignment[logical]
    }

    /// The inverse assignment: entry `physical` is the logical row that
    /// physical row hosts.
    pub(crate) fn logical_rows(&self) -> Vec<usize> {
        let mut logical = vec![0; self.assignment.len()];
        for (l, &p) in self.assignment.iter().enumerate() {
            logical[p] = l;
        }
        logical
    }

    /// Permutes a `[rows, cols]` matrix of logical-row targets into physical
    /// row order (for programming).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::DimensionMismatch`] if the matrix row count
    /// differs from the assignment length.
    pub fn to_physical(&self, logical: &Tensor) -> Result<Tensor, CrossbarError> {
        self.permute(logical, true)
    }

    /// Permutes a `[rows, cols]` matrix of physical-row values back into
    /// logical order (for read-back).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::DimensionMismatch`] if the matrix row count
    /// differs from the assignment length.
    pub fn to_logical(&self, physical: &Tensor) -> Result<Tensor, CrossbarError> {
        self.permute(physical, false)
    }

    fn permute(&self, m: &Tensor, forward: bool) -> Result<Tensor, CrossbarError> {
        if m.rank() != 2 || m.dims()[0] != self.assignment.len() {
            return Err(CrossbarError::DimensionMismatch {
                what: "row permutation",
                expected: (self.assignment.len(), 0),
                actual: (if m.rank() == 2 { m.dims()[0] } else { m.len() }, 0),
            });
        }
        let (rows, cols) = (m.dims()[0], m.dims()[1]);
        let src = m.as_slice();
        let mut out = vec![0.0f32; rows * cols];
        for (logical, &physical) in self.assignment.iter().enumerate() {
            let (from, to) = if forward { (logical, physical) } else { (physical, logical) };
            out[to * cols..(to + 1) * cols].copy_from_slice(&src[from * cols..(from + 1) * cols]);
        }
        Tensor::from_vec(out, [rows, cols]).map_err(CrossbarError::from)
    }
}

/// The ratio of the most-worn row's stress to the median row stress — the
/// trigger signal for a swap. `1.0` means perfectly level wear; large values
/// mean a few rows are burning out ahead of the rest. Returns `1.0` for a
/// stress-free array.
pub fn wear_imbalance(array: &Crossbar) -> f64 {
    let rows = array.rows();
    let cols = array.cols();
    let mut stresses: Vec<f64> =
        (0..rows).map(|r| (0..cols).map(|c| array.device(r, c).stress()).sum()).collect();
    stresses.sort_by(|a, b| a.partial_cmp(b).expect("stress is finite"));
    let median = stresses[rows / 2];
    let max = stresses[rows - 1];
    if median <= 0.0 {
        if max > 0.0 {
            f64::INFINITY
        } else {
            1.0
        }
    } else {
        max / median
    }
}

/// One incremental swap step, as deployed systems apply the technique: find
/// the most-worn physical row and the coldest logical row; if they are not
/// already paired, exchange the two logical rows' physical hosts. A single
/// swap per maintenance session keeps the reprogramming churn bounded (a
/// full re-sort would move every row's targets every time).
///
/// # Errors
///
/// Returns [`CrossbarError::DimensionMismatch`] if shapes disagree.
pub fn incremental_swap(
    array: &Crossbar,
    targets: &Tensor,
    current: &RowAssignment,
) -> Result<RowAssignment, CrossbarError> {
    let (rows, cols) = (array.rows(), array.cols());
    if targets.dims() != [rows, cols] || current.rows() != rows {
        return Err(CrossbarError::DimensionMismatch {
            what: "incremental swap",
            expected: (rows, cols),
            actual: (if targets.rank() == 2 { targets.dims()[0] } else { targets.len() }, 0),
        });
    }
    if rows < 2 {
        return Ok(current.clone());
    }
    // Most-worn physical row.
    let hottest_physical = (0..rows)
        .max_by(|&a, &b| {
            let sa: f64 = (0..cols).map(|c| array.device(a, c).stress()).sum();
            let sb: f64 = (0..cols).map(|c| array.device(b, c).stress()).sum();
            sa.partial_cmp(&sb).expect("stress is finite")
        })
        .expect("rows >= 2");
    // Coldest logical row (lowest total target conductance).
    let t = targets.as_slice();
    let coldest_logical = (0..rows)
        .min_by(|&a, &b| {
            let ga: f64 = t[a * cols..(a + 1) * cols].iter().map(|&x| x as f64).sum();
            let gb: f64 = t[b * cols..(b + 1) * cols].iter().map(|&x| x as f64).sum();
            ga.partial_cmp(&gb).expect("conductance is finite")
        })
        .expect("rows >= 2");
    let mut assignment: Vec<usize> = (0..rows).map(|l| current.physical(l)).collect();
    if assignment[coldest_logical] != hottest_physical {
        // Find who currently holds the hottest physical row and swap hosts.
        let holder = assignment
            .iter()
            .position(|&p| p == hottest_physical)
            .expect("assignment is a permutation");
        assignment.swap(coldest_logical, holder);
    }
    RowAssignment::new(assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memaging_device::DeviceModel;

    #[test]
    fn identity_is_a_fixed_point() {
        let a = RowAssignment::identity(4);
        let m = Tensor::from_fn([4, 2], |i| i as f32);
        assert_eq!(a.to_physical(&m).unwrap(), m);
        assert_eq!(a.to_logical(&m).unwrap(), m);
        assert_eq!(a.physical(2), 2);
    }

    #[test]
    fn new_validates_permutations() {
        assert!(RowAssignment::new(vec![0, 1, 2]).is_ok());
        assert!(RowAssignment::new(vec![0, 0, 2]).is_err());
        assert!(RowAssignment::new(vec![0, 3]).is_err());
    }

    #[test]
    fn physical_and_logical_are_inverse() {
        let a = RowAssignment::new(vec![2, 0, 1]).unwrap();
        let m = Tensor::from_fn([3, 2], |i| i as f32);
        let p = a.to_physical(&m).unwrap();
        // Logical row 0 lands on physical row 2.
        assert_eq!(&p.as_slice()[4..6], &m.as_slice()[0..2]);
        let back = a.to_logical(&p).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn permute_rejects_wrong_shapes() {
        let a = RowAssignment::identity(3);
        assert!(a.to_physical(&Tensor::zeros([4, 2])).is_err());
        assert!(a.to_logical(&Tensor::zeros([6])).is_err());
    }

    #[test]
    fn incremental_swap_moves_one_pair() {
        let mut array = Crossbar::new(4, 2, DeviceModel::default()).unwrap();
        let (m, d) = array.device_mut(1, 0);
        for _ in 0..300 {
            d.pulse(m, 1).unwrap();
            d.pulse(m, -1).unwrap();
        }
        // Logical row 3 is the coldest.
        let targets =
            Tensor::from_vec(vec![9e-5, 9e-5, 8e-5, 8e-5, 5e-5, 5e-5, 1.1e-5, 1.1e-5], [4, 2])
                .unwrap();
        let id = RowAssignment::identity(4);
        let next = incremental_swap(&array, &targets, &id).unwrap();
        assert_eq!(next.physical(3), 1, "coldest logical row hosts the hottest physical row");
        assert_eq!(next.physical(1), 3, "displaced holder takes the vacated row");
        // Exactly two entries changed.
        let changed = (0..4).filter(|&l| next.physical(l) != id.physical(l)).count();
        assert_eq!(changed, 2);
        // Already-paired case is a no-op.
        let again = incremental_swap(&array, &targets, &next).unwrap();
        assert_eq!(again, next);
    }

    #[test]
    fn incremental_swap_single_row_is_identity() {
        let array = Crossbar::new(1, 2, DeviceModel::default()).unwrap();
        let id = RowAssignment::identity(1);
        let next = incremental_swap(&array, &Tensor::full([1, 2], 5e-5), &id).unwrap();
        assert_eq!(next, id);
    }
}
