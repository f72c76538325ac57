//! Tensor shapes and row-major index arithmetic.

use std::fmt;

use crate::error::TensorError;

/// The dimensions of a dense, row-major tensor.
///
/// A `Shape` is an ordered list of dimension sizes. The last dimension is
/// contiguous in memory (row-major / C order). A rank-0 shape (no dims)
/// describes a scalar with one element.
///
/// # Examples
///
/// ```
/// use memaging_tensor::Shape;
///
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.num_elements(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from dimension sizes.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape { dims }
    }

    /// Creates a scalar (rank-0) shape with a single element.
    pub fn scalar() -> Self {
        Shape { dims: Vec::new() }
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (product of all dims; 1 for a scalar).
    pub fn num_elements(&self) -> usize {
        self.dims.iter().product()
    }

    /// Row-major strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat row-major offset.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the index rank differs
    /// from the shape rank or any coordinate exceeds its dimension.
    pub fn flat_index(&self, index: &[usize]) -> Result<usize, TensorError> {
        if index.len() != self.dims.len() {
            return Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.clone(),
            });
        }
        let mut offset = 0;
        let mut stride = 1;
        for axis in (0..self.dims.len()).rev() {
            if index[axis] >= self.dims[axis] {
                return Err(TensorError::IndexOutOfBounds {
                    index: index.to_vec(),
                    shape: self.clone(),
                });
            }
            offset += index[axis] * stride;
            stride *= self.dims[axis];
        }
        Ok(offset)
    }

    /// Returns `true` when the two shapes have the same element count, which
    /// is the requirement for `reshape`.
    pub fn is_reshape_compatible(&self, other: &Shape) -> bool {
        self.num_elements() == other.num_elements()
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(dims.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_shape_has_one_element() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.num_elements(), 1);
        assert_eq!(s.flat_index(&[]).unwrap(), 0);
    }

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(vec![4, 3, 2]);
        assert_eq!(s.strides(), vec![6, 2, 1]);
    }

    #[test]
    fn flat_index_round_trip() {
        let s = Shape::new(vec![2, 3, 4]);
        let mut seen = std::collections::HashSet::new();
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    let flat = s.flat_index(&[i, j, k]).unwrap();
                    assert!(flat < s.num_elements());
                    assert!(seen.insert(flat), "duplicate flat index {flat}");
                }
            }
        }
        assert_eq!(seen.len(), 24);
    }

    #[test]
    fn flat_index_rejects_out_of_bounds() {
        let s = Shape::new(vec![2, 2]);
        assert!(s.flat_index(&[2, 0]).is_err());
        assert!(s.flat_index(&[0, 2]).is_err());
        assert!(s.flat_index(&[0]).is_err());
        assert!(s.flat_index(&[0, 0, 0]).is_err());
    }

    #[test]
    fn zero_dim_shape_has_zero_elements() {
        let s = Shape::new(vec![3, 0, 2]);
        assert_eq!(s.num_elements(), 0);
    }

    #[test]
    fn reshape_compatibility() {
        let a = Shape::new(vec![2, 6]);
        let b = Shape::new(vec![3, 4]);
        let c = Shape::new(vec![5]);
        assert!(a.is_reshape_compatible(&b));
        assert!(!a.is_reshape_compatible(&c));
    }

    #[test]
    fn from_array_and_slice() {
        let a: Shape = [2, 3].into();
        let b: Shape = vec![2, 3].into();
        assert_eq!(a, b);
    }
}
