//! The dense, row-major `f32` tensor type.

use std::fmt;

use crate::error::TensorError;
use crate::shape::Shape;

/// A dense, row-major tensor of `f32` values.
///
/// `Tensor` owns its storage (`Vec<f32>`) and carries a [`Shape`]. All layout
/// is row-major (C order). The type is deliberately small: it provides the
/// construction, element access, reshaping and element-wise arithmetic that
/// the neural-network and crossbar crates need, and nothing more.
///
/// # Examples
///
/// ```
/// use memaging_tensor::Tensor;
///
/// # fn main() -> Result<(), memaging_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2])?;
/// let b = Tensor::full([2, 2], 10.0);
/// let c = a.add(&b)?;
/// assert_eq!(c.as_slice(), &[11.0, 12.0, 13.0, 14.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.num_elements();
        Tensor { shape, data: vec![0.0; n] }
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.num_elements();
        Tensor { shape, data: vec![value; n] }
    }

    /// Creates a rank-0 (scalar) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor { shape: Shape::scalar(), data: vec![value] }
    }

    /// Creates a tensor from a flat buffer and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLengthMismatch`] if `data.len()` differs
    /// from the shape's element count.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Result<Self, TensorError> {
        let shape = shape.into();
        if data.len() != shape.num_elements() {
            return Err(TensorError::DataLengthMismatch {
                expected: shape.num_elements(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor by evaluating `f` at each flat index.
    pub fn from_fn(shape: impl Into<Shape>, mut f: impl FnMut(usize) -> f32) -> Self {
        let shape = shape.into();
        let n = shape.num_elements();
        let data = (0..n).map(&mut f).collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension sizes (shorthand for `self.shape().dims()`).
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the flat storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for an invalid index.
    pub fn get(&self, index: &[usize]) -> Result<f32, TensorError> {
        let flat = self.shape.flat_index(index)?;
        Ok(self.data[flat])
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for an invalid index.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<(), TensorError> {
        let flat = self.shape.flat_index(index)?;
        self.data[flat] = value;
        Ok(())
    }

    /// Returns a reshaped copy sharing no storage with `self`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Result<Tensor, TensorError> {
        let shape = shape.into();
        if !self.shape.is_reshape_compatible(&shape) {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape.clone(),
                actual: shape,
                op: "reshape",
            });
        }
        Ok(Tensor { shape, data: self.data.clone() })
    }

    /// Applies `f` element-wise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Applies `f` element-wise in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise binary operation against a same-shaped tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip_with(
        &self,
        other: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape.clone(),
                actual: other.shape.clone(),
                op,
            });
        }
        let data = self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect();
        Ok(Tensor { shape: self.shape.clone(), data })
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, "mul", |a, b| a * b)
    }

    /// In-place `self += alpha * other` (AXPY), the backbone of SGD updates.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape.clone(),
                actual: other.shape.clone(),
                op: "axpy",
            });
        }
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Multiplies every element by `alpha`, returning a new tensor.
    pub fn scale(&self, alpha: f32) -> Tensor {
        self.map(|x| x * alpha)
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale_in_place(&mut self, alpha: f32) {
        self.map_in_place(|x| x * alpha);
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Sum of all elements (f64 accumulator for stability).
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&x| x as f64).sum::<f64>() as f32
    }

    /// Arithmetic mean of all elements; `0.0` for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Largest element; `None` for an empty tensor. NaNs are ignored.
    pub fn max(&self) -> Option<f32> {
        self.data
            .iter()
            .copied()
            .filter(|x| !x.is_nan())
            .fold(None, |acc, x| Some(acc.map_or(x, |m: f32| m.max(x))))
    }

    /// Smallest element; `None` for an empty tensor. NaNs are ignored.
    pub fn min(&self) -> Option<f32> {
        self.data
            .iter()
            .copied()
            .filter(|x| !x.is_nan())
            .fold(None, |acc, x| Some(acc.map_or(x, |m: f32| m.min(x))))
    }

    /// Flat index of the largest element; `None` for an empty tensor.
    pub fn argmax(&self) -> Option<usize> {
        if self.data.is_empty() {
            return None;
        }
        let mut best = 0;
        for (i, &x) in self.data.iter().enumerate() {
            if x > self.data[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// Squared L2 norm of all elements.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>() as f32
    }

    /// Returns `true` if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const MAX_SHOWN: usize = 16;
        write!(f, "Tensor{} [", self.shape)?;
        for (i, x) in self.data.iter().take(MAX_SHOWN).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.4}")?;
        }
        if self.data.len() > MAX_SHOWN {
            write!(f, ", ... ({} total)", self.data.len())?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_full() {
        let z = Tensor::zeros([2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let o = Tensor::ones([2, 3]);
        assert!(o.as_slice().iter().all(|&x| x == 1.0));
        let f = Tensor::full([2], 7.5);
        assert_eq!(f.as_slice(), &[7.5, 7.5]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], [3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]).is_ok());
    }

    #[test]
    fn get_set_round_trip() {
        let mut t = Tensor::zeros([2, 3]);
        t.set(&[1, 2], 5.0).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 5.0);
        assert_eq!(t.get(&[0, 0]).unwrap(), 0.0);
        assert!(t.get(&[2, 0]).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]).unwrap();
        let r = t.reshape([3, 2]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape([4]).is_err());
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 5.0], [2]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[3.0, 10.0]);
        let c = Tensor::zeros([3]);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_vec(vec![1.0, 1.0], [2]).unwrap();
        let g = Tensor::from_vec(vec![2.0, 4.0], [2]).unwrap();
        a.axpy(-0.5, &g).unwrap();
        assert_eq!(a.as_slice(), &[0.0, -1.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0], [3]).unwrap();
        assert_eq!(t.sum(), 2.0);
        assert!((t.mean() - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(t.max(), Some(3.0));
        assert_eq!(t.min(), Some(-2.0));
        assert_eq!(t.argmax(), Some(2));
        assert_eq!(t.norm_sq(), 14.0);
    }

    #[test]
    fn argmax_prefers_first_on_ties() {
        let t = Tensor::from_vec(vec![5.0, 5.0, 1.0], [3]).unwrap();
        assert_eq!(t.argmax(), Some(0));
    }

    #[test]
    fn all_finite_detects_nan_and_inf() {
        let mut t = Tensor::ones([3]);
        assert!(t.all_finite());
        t.as_mut_slice()[1] = f32::NAN;
        assert!(!t.all_finite());
        t.as_mut_slice()[1] = f32::INFINITY;
        assert!(!t.all_finite());
    }

    #[test]
    fn scalar_tensor() {
        let s = Tensor::scalar(3.5);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(&[]).unwrap(), 3.5);
    }

    #[test]
    fn display_truncates() {
        let t = Tensor::zeros([100]);
        let s = t.to_string();
        assert!(s.contains("(100 total)"));
    }

    #[test]
    fn map_and_scale() {
        let t = Tensor::from_vec(vec![1.0, -2.0], [2]).unwrap();
        assert_eq!(t.map(|x| x.abs()).as_slice(), &[1.0, 2.0]);
        assert_eq!(t.scale(2.0).as_slice(), &[2.0, -4.0]);
        let mut u = t.clone();
        u.scale_in_place(-1.0);
        assert_eq!(u.as_slice(), &[-1.0, 2.0]);
    }
}
