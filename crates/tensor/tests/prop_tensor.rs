//! Property-based tests for the tensor crate's core invariants.

use memaging_tensor::conv::{col2im, im2col, ConvGeometry};
use memaging_tensor::{ops, Shape, Tensor};
use proptest::prelude::*;

fn small_matrix() -> impl Strategy<Value = Tensor> {
    (1usize..6, 1usize..6).prop_flat_map(|(m, n)| {
        proptest::collection::vec(-10.0f32..10.0, m * n)
            .prop_map(move |data| Tensor::from_vec(data, [m, n]).expect("sized correctly"))
    })
}

proptest! {
    #[test]
    fn flat_index_bijective(dims in proptest::collection::vec(1usize..5, 1..4)) {
        let shape = Shape::new(dims.clone());
        let n = shape.num_elements();
        let mut seen = std::collections::HashSet::new();
        let mut index = vec![0usize; dims.len()];
        for _ in 0..n {
            let flat = shape.flat_index(&index).unwrap();
            prop_assert!(flat < n);
            prop_assert!(seen.insert(flat));
            // advance odometer
            for axis in (0..dims.len()).rev() {
                index[axis] += 1;
                if index[axis] < dims[axis] {
                    break;
                }
                index[axis] = 0;
            }
        }
        prop_assert_eq!(seen.len(), n);
    }

    #[test]
    fn add_commutes(a in small_matrix()) {
        let b = a.map(|x| x * 0.5 + 1.0);
        let ab = a.add(&b).unwrap();
        let ba = b.add(&a).unwrap();
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn sub_then_add_round_trips(a in small_matrix()) {
        let b = a.map(|x| x - 3.0);
        let diff = a.sub(&b).unwrap();
        let back = diff.add(&b).unwrap();
        for (x, y) in back.as_slice().iter().zip(a.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn transpose_involution(a in small_matrix()) {
        let att = ops::transpose(&ops::transpose(&a).unwrap()).unwrap();
        prop_assert_eq!(att, a);
    }

    #[test]
    fn matmul_distributes_over_add(m in 1usize..4, k in 1usize..4, n in 1usize..4, seed in 0u64..1000) {
        let f = |i: usize, s: u64| ((i as f64 + s as f64) * 0.7).sin() as f32;
        let a = Tensor::from_fn([m, k], |i| f(i, seed));
        let b = Tensor::from_fn([k, n], |i| f(i, seed + 1));
        let c = Tensor::from_fn([k, n], |i| f(i, seed + 2));
        let lhs = ops::matmul(&a, &b.add(&c).unwrap()).unwrap();
        let rhs = ops::matmul(&a, &b).unwrap().add(&ops::matmul(&a, &c).unwrap()).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn matmul_transpose_variants_agree(m in 1usize..4, k in 1usize..4, n in 1usize..4) {
        let a = Tensor::from_fn([m, k], |i| (i as f32 * 0.3).cos());
        let b = Tensor::from_fn([n, k], |i| (i as f32 * 0.5).sin());
        let direct = ops::matmul(&a, &ops::transpose(&b).unwrap()).unwrap();
        let fused = ops::matmul_transpose_b(&a, &b).unwrap();
        for (x, y) in direct.as_slice().iter().zip(fused.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn blocked_matmul_is_bit_identical_to_naive_reference(
        m in 1usize..24, k in 1usize..24, n in 1usize..24, seed in 0u64..1000,
    ) {
        let f = |i: usize, s: u64| (((i as f64) * 0.61 + s as f64).sin() * 4.0) as f32;
        let a = Tensor::from_fn([m, k], |i| f(i, seed));
        let b = Tensor::from_fn([k, n], |i| f(i, seed + 1));
        let got = ops::matmul(&a, &b).unwrap();
        // Naive i-k-j reference with the same per-element accumulation
        // order: the blocked/parallel kernel must match it EXACTLY, not
        // within a tolerance.
        let (av, bv) = (a.as_slice(), b.as_slice());
        let mut want = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    want[i * n + j] += av[i * k + p] * bv[p * n + j];
                }
            }
        }
        prop_assert_eq!(got.as_slice(), &want[..]);
    }

    #[test]
    fn softmax_rows_are_distributions(a in small_matrix()) {
        let s = ops::softmax_rows(&a).unwrap();
        let n = a.dims()[1];
        for i in 0..a.dims()[0] {
            let row = &s.as_slice()[i * n..(i + 1) * n];
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn im2col_col2im_adjoint(
        c in 1usize..3, h in 3usize..7, w in 3usize..7,
        k in 1usize..4, s in 1usize..3, p in 0usize..2,
    ) {
        let geom = ConvGeometry {
            in_channels: c, in_h: h, in_w: w,
            kernel_h: k, kernel_w: k, stride: s, padding: p,
        };
        prop_assume!(geom.validate().is_ok());
        let x = Tensor::from_fn([c, h, w], |i| (i as f32 * 0.19).sin());
        let y = Tensor::from_fn([geom.patch_len(), geom.num_patches()], |i| (i as f32 * 0.23).cos());
        let ax = im2col(&x, &geom).unwrap();
        let aty = col2im(&y, &geom).unwrap();
        let lhs: f64 = ax.as_slice().iter().zip(y.as_slice()).map(|(&u, &v)| u as f64 * v as f64).sum();
        let rhs: f64 = x.as_slice().iter().zip(aty.as_slice()).map(|(&u, &v)| u as f64 * v as f64).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()));
    }

    #[test]
    fn reshape_preserves_sum(a in small_matrix()) {
        let n = a.len();
        let r = a.reshape([n]).unwrap();
        prop_assert!((r.sum() - a.sum()).abs() < 1e-4);
    }
}
