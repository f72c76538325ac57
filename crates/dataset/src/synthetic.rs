//! Synthetic image dataset generators.
//!
//! CIFAR-10/CIFAR-100 (used by the paper) are neither redistributable inside
//! this repository nor trainable at full scale on the simulation budget, so
//! the workspace substitutes deterministic synthetic datasets that exercise
//! identical code paths: multi-class images with intra-class variation and
//! inter-class structure, at CIFAR-like tensor shapes. See `DESIGN.md` §2 for
//! the substitution argument.
//!
//! Two generators are provided:
//!
//! * [`Dataset::gaussian_blobs`] — every class has a smooth random prototype
//!   image; samples are the prototype plus i.i.d. gaussian pixel noise. Class
//!   difficulty is controlled by `noise_std`.
//! * [`Dataset::shapes`] — every class renders a parametric geometric pattern
//!   (oriented bars, crosses, rings, checkers) plus noise, giving spatial
//!   structure that convolution layers can exploit.

use memaging_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;
use crate::error::DatasetError;

/// Configuration for the synthetic dataset generators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticSpec {
    /// Number of classes.
    pub classes: usize,
    /// Image channels (1 = grayscale, 3 = CIFAR-like RGB).
    pub channels: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Image width in pixels.
    pub width: usize,
    /// Samples generated per class.
    pub samples_per_class: usize,
    /// Standard deviation of additive gaussian pixel noise.
    pub noise_std: f32,
    /// RNG seed; equal specs generate identical datasets.
    pub seed: u64,
}

impl SyntheticSpec {
    /// A small, fast spec (1×12×12, 40 samples/class) for tests and scaled
    /// experiments.
    pub fn small(classes: usize, seed: u64) -> Self {
        SyntheticSpec {
            classes,
            channels: 1,
            height: 12,
            width: 12,
            samples_per_class: 40,
            noise_std: 0.25,
            seed,
        }
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] for any zero-valued dimension
    /// or a negative/non-finite noise level.
    pub fn validate(&self) -> Result<(), DatasetError> {
        if self.classes == 0
            || self.channels == 0
            || self.height == 0
            || self.width == 0
            || self.samples_per_class == 0
        {
            return Err(DatasetError::InvalidConfig {
                reason: "all spec dimensions must be nonzero".into(),
            });
        }
        if !self.noise_std.is_finite() || self.noise_std < 0.0 {
            return Err(DatasetError::InvalidConfig {
                reason: format!("noise_std {} must be finite and >= 0", self.noise_std),
            });
        }
        Ok(())
    }

    fn pixels(&self) -> usize {
        self.channels * self.height * self.width
    }
}

impl Dataset {
    /// Generates a gaussian-blob dataset: one smooth random prototype per
    /// class, plus per-sample gaussian noise.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] if the spec is invalid.
    pub fn gaussian_blobs(spec: &SyntheticSpec) -> Result<Dataset, DatasetError> {
        spec.validate()?;
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let pixels = spec.pixels();
        // Smooth prototypes: random low-frequency sinusoid mixtures so
        // nearby pixels correlate, as in natural images.
        let mut prototypes = Vec::with_capacity(spec.classes);
        for _ in 0..spec.classes {
            let fx: f64 = rng.gen_range(0.5..3.0);
            let fy: f64 = rng.gen_range(0.5..3.0);
            let phase: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            let amp: f32 = rng.gen_range(0.6..1.2);
            let chan_shift: f64 = rng.gen_range(0.0..1.0);
            let mut proto = vec![0.0f32; pixels];
            for c in 0..spec.channels {
                for y in 0..spec.height {
                    for x in 0..spec.width {
                        let u = x as f64 / spec.width as f64;
                        let v = y as f64 / spec.height as f64;
                        let val = ((fx * std::f64::consts::TAU * u
                            + fy * std::f64::consts::TAU * v
                            + phase
                            + c as f64 * chan_shift)
                            .sin()) as f32;
                        proto[(c * spec.height + y) * spec.width + x] = amp * val;
                    }
                }
            }
            prototypes.push(proto);
        }
        let n = spec.classes * spec.samples_per_class;
        let mut data = Vec::with_capacity(n * pixels);
        let mut labels = Vec::with_capacity(n);
        for (class, proto) in prototypes.iter().enumerate() {
            for _ in 0..spec.samples_per_class {
                for &p in proto {
                    data.push(p + spec.noise_std * init::standard_normal(&mut rng));
                }
                labels.push(class);
            }
        }
        let images = Tensor::from_vec(data, [n, spec.channels, spec.height, spec.width])
            .expect("length matches by construction");
        Dataset::new(images, labels, spec.classes)
    }

    /// Generates a shapes dataset: each class renders a parametric geometric
    /// pattern (bar / cross / ring / checker family selected by class index)
    /// with jittered position, plus gaussian noise.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] if the spec is invalid.
    pub fn shapes(spec: &SyntheticSpec) -> Result<Dataset, DatasetError> {
        spec.validate()?;
        let mut rng = StdRng::seed_from_u64(spec.seed.wrapping_add(0x5AFE));
        let pixels = spec.pixels();
        let n = spec.classes * spec.samples_per_class;
        let mut data = Vec::with_capacity(n * pixels);
        let mut labels = Vec::with_capacity(n);
        for class in 0..spec.classes {
            for _ in 0..spec.samples_per_class {
                let jx: f64 = rng.gen_range(-1.5..1.5);
                let jy: f64 = rng.gen_range(-1.5..1.5);
                for c in 0..spec.channels {
                    for y in 0..spec.height {
                        for x in 0..spec.width {
                            let base = render_shape(
                                class,
                                spec.classes,
                                c,
                                x as f64 + jx,
                                y as f64 + jy,
                                spec.width as f64,
                                spec.height as f64,
                            );
                            data.push(base + spec.noise_std * init::standard_normal(&mut rng));
                        }
                    }
                }
                labels.push(class);
            }
        }
        let images = Tensor::from_vec(data, [n, spec.channels, spec.height, spec.width])
            .expect("length matches by construction");
        Dataset::new(images, labels, spec.classes)
    }
}

/// Renders the noiseless intensity of class `class` at pixel `(x, y)`.
///
/// Classes cycle through four shape families; within a family the class index
/// additionally modulates orientation/scale so that arbitrarily many classes
/// stay distinguishable (needed for the 100-class Cifar100 stand-in).
fn render_shape(
    class: usize,
    num_classes: usize,
    channel: usize,
    x: f64,
    y: f64,
    w: f64,
    h: f64,
) -> f32 {
    let cx = w / 2.0;
    let cy = h / 2.0;
    let dx = x - cx;
    let dy = y - cy;
    let family = class % 4;
    let variant = (class / 4) as f64;
    let chan = channel as f64 * 0.35;
    let strength: f64 = match family {
        // Oriented bar: angle set by variant.
        0 => {
            let angle = std::f64::consts::PI * (variant + 1.0) / (num_classes as f64 / 4.0 + 1.0);
            let d = (dx * angle.cos() + dy * angle.sin()).abs();
            if d < 1.5 {
                1.0
            } else {
                -0.3
            }
        }
        // Cross with variant-dependent arm width.
        1 => {
            let arm = 1.0 + variant * 0.5;
            if dx.abs() < arm || dy.abs() < arm {
                1.0
            } else {
                -0.3
            }
        }
        // Ring with variant-dependent radius.
        2 => {
            let r = (dx * dx + dy * dy).sqrt();
            let target = 2.0 + variant + chan;
            if (r - target).abs() < 1.2 {
                1.0
            } else {
                -0.3
            }
        }
        // Checkerboard with variant-dependent period.
        _ => {
            let period = 2.0 + variant;
            let cell = ((x / period).floor() + (y / period).floor()) as i64;
            if cell % 2 == 0 {
                0.8
            } else {
                -0.8
            }
        }
    };
    (strength + chan * 0.1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validation() {
        let mut s = SyntheticSpec::small(3, 1);
        assert!(s.validate().is_ok());
        s.classes = 0;
        assert!(s.validate().is_err());
        let mut s = SyntheticSpec::small(3, 1);
        s.noise_std = -1.0;
        assert!(s.validate().is_err());
        let mut s = SyntheticSpec::small(3, 1);
        s.noise_std = f32::NAN;
        assert!(s.validate().is_err());
    }

    #[test]
    fn gaussian_blobs_shape_and_balance() {
        let spec = SyntheticSpec::small(5, 11);
        let d = Dataset::gaussian_blobs(&spec).unwrap();
        assert_eq!(d.len(), 200);
        assert_eq!(d.num_classes(), 5);
        assert_eq!(d.image_shape(), (1, 12, 12));
        assert_eq!(d.class_counts(), vec![40; 5]);
    }

    #[test]
    fn generators_are_deterministic() {
        let spec = SyntheticSpec::small(3, 99);
        let a = Dataset::gaussian_blobs(&spec).unwrap();
        let b = Dataset::gaussian_blobs(&spec).unwrap();
        assert_eq!(a, b);
        let c = Dataset::shapes(&spec).unwrap();
        let d = Dataset::shapes(&spec).unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Dataset::gaussian_blobs(&SyntheticSpec::small(3, 1)).unwrap();
        let b = Dataset::gaussian_blobs(&SyntheticSpec::small(3, 2)).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn classes_are_separable_by_nearest_prototype() {
        // Sanity: with moderate noise, per-class means must be closer to
        // their own samples than to other classes' means on average.
        let spec = SyntheticSpec::small(4, 7);
        let d = Dataset::gaussian_blobs(&spec).unwrap();
        let (c, h, w) = d.image_shape();
        let pix = c * h * w;
        let mut means = vec![vec![0.0f64; pix]; 4];
        let counts = d.class_counts();
        for i in 0..d.len() {
            let img = d.image(i);
            let l = d.labels()[i];
            for (m, &v) in means[l].iter_mut().zip(img.as_slice()) {
                *m += v as f64;
            }
        }
        for (m, &n) in means.iter_mut().zip(&counts) {
            for v in m.iter_mut() {
                *v /= n as f64;
            }
        }
        // Nearest-mean classification accuracy should beat chance easily.
        let mut correct = 0;
        for i in 0..d.len() {
            let img = d.image(i);
            let mut best = 0;
            let mut best_d = f64::INFINITY;
            for (k, m) in means.iter().enumerate() {
                let dist: f64 =
                    img.as_slice().iter().zip(m).map(|(&a, &b)| (a as f64 - b).powi(2)).sum();
                if dist < best_d {
                    best_d = dist;
                    best = k;
                }
            }
            if best == d.labels()[i] {
                correct += 1;
            }
        }
        let acc = correct as f64 / d.len() as f64;
        assert!(acc > 0.9, "nearest-prototype accuracy too low: {acc}");
    }

    #[test]
    fn shapes_dataset_has_spatial_structure() {
        let spec = SyntheticSpec {
            classes: 4,
            channels: 1,
            height: 12,
            width: 12,
            samples_per_class: 5,
            noise_std: 0.0,
            seed: 5,
        };
        let d = Dataset::shapes(&spec).unwrap();
        // Noiseless samples of different classes must differ.
        let a = d.image(0);
        let b = d.image(5 /* first sample of class 1 */);
        assert_ne!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn hundred_class_generation_works() {
        let mut spec = SyntheticSpec::small(100, 123);
        spec.samples_per_class = 2;
        let d = Dataset::shapes(&spec).unwrap();
        assert_eq!(d.num_classes(), 100);
        assert_eq!(d.len(), 200);
        assert!(d.images().all_finite());
    }
}
