//! Property-based tests of the tensor/NN substrate's invariants.

use proptest::prelude::*;
use unifyfl_tensor::loss::softmax_cross_entropy_into;
use unifyfl_tensor::zoo::ModelSpec;
use unifyfl_tensor::{weights_from_bytes, weights_to_bytes, Tensor};

fn finite_f32() -> impl Strategy<Value = f32> {
    (-1.0e3f32..1.0e3).prop_map(|v| v)
}

/// `a · b` into a fresh output.
fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(vec![a.shape()[0], b.shape()[1]]);
    a.matmul_into(b, &mut out);
    out
}

proptest! {
    /// Weight serialization is the identity on finite vectors.
    #[test]
    fn weights_round_trip(w in proptest::collection::vec(finite_f32(), 0..256)) {
        let bytes = weights_to_bytes(&w);
        prop_assert_eq!(weights_from_bytes(&bytes).unwrap(), w);
    }

    /// Truncated weight blobs error rather than panic or mis-decode.
    #[test]
    fn weights_truncation_detected(w in proptest::collection::vec(finite_f32(), 1..64), cut in 0usize..64) {
        let bytes = weights_to_bytes(&w);
        let cut = cut.min(bytes.len().saturating_sub(1));
        prop_assert!(weights_from_bytes(&bytes[..cut]).is_err());
    }

    /// Matmul distributes over scaling: (αA)B = α(AB).
    #[test]
    fn matmul_is_homogeneous(
        a in proptest::collection::vec(-10.0f32..10.0, 6),
        b in proptest::collection::vec(-10.0f32..10.0, 6),
        alpha in -4.0f32..4.0,
    ) {
        let ta = Tensor::from_vec(vec![2, 3], a);
        let tb = Tensor::from_vec(vec![3, 2], b);
        let mut scaled_a = ta.clone();
        scaled_a.scale(alpha);
        let lhs = matmul(&scaled_a, &tb);
        let mut rhs = matmul(&ta, &tb);
        rhs.scale(alpha);
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-2, "{x} vs {y}");
        }
    }

    /// Transpose is an involution.
    #[test]
    fn transpose_involution(data in proptest::collection::vec(finite_f32(), 12)) {
        let t = Tensor::from_vec(vec![3, 4], data);
        prop_assert_eq!(t.transpose().transpose(), t);
    }

    /// Softmax-CE loss is non-negative, finite, and its gradient rows sum
    /// to ~0 for any logits.
    #[test]
    fn loss_invariants(
        logits in proptest::collection::vec(-50.0f32..50.0, 8),
        label in 0usize..4,
    ) {
        let t = Tensor::from_vec(vec![2, 4], logits);
        let mut grad = Tensor::zeros(vec![0]);
        let loss = softmax_cross_entropy_into(
            &t,
            &[label, (label + 1) % 4],
            &mut grad,
            &mut Vec::new(),
            &mut Vec::new(),
        );
        prop_assert!(loss >= 0.0);
        prop_assert!(loss.is_finite());
        for row in 0..2 {
            let s: f32 = grad.data()[row * 4..(row + 1) * 4].iter().sum();
            prop_assert!(s.abs() < 1e-4, "row grad sum {s}");
        }
    }

    /// Flat-parameter set/get is the identity for any model weights.
    #[test]
    fn flat_params_round_trip(seed in any::<u64>(), delta in -1.0f32..1.0) {
        let spec = ModelSpec::mlp(6, vec![8], 3);
        let mut m = spec.build(seed);
        let mut p = m.flat_params();
        for v in p.iter_mut() {
            *v += delta;
        }
        m.set_flat_params(&p);
        prop_assert_eq!(m.flat_params(), p);
    }

    /// Model inference is deterministic: same weights, same input, same
    /// loss and accuracy against every label, bit for bit.
    #[test]
    fn inference_is_deterministic(seed in any::<u64>(), input in proptest::collection::vec(-2.0f32..2.0, 6)) {
        let spec = ModelSpec::mlp(6, vec![8], 3);
        let mut m1 = spec.build(seed);
        let mut m2 = spec.build(seed);
        let x = Tensor::from_vec(vec![1, 6], input);
        for label in 0..3 {
            let (l1, a1) = m1.evaluate_batch(&x, &[label]);
            let (l2, a2) = m2.evaluate_batch(&x, &[label]);
            prop_assert_eq!((l1.to_bits(), a1.to_bits()), (l2.to_bits(), a2.to_bits()));
        }
    }

    /// The cache-blocked matmul kernels are **bit-identical** to the naive
    /// triple loops for every orientation, on arbitrary shapes straddling
    /// the 64-wide tile boundaries (odd, prime, exactly-tile, tile±1) and
    /// data with exact zeros (the kernels' skip path).
    #[test]
    fn blocked_kernels_are_bit_identical_to_naive(
        m in 1usize..70,
        k in 1usize..70,
        n in 1usize..70,
        seed in any::<u64>(),
        zero_every in 2usize..9,
    ) {
        let fill = |dims: &[usize], salt: u64| {
            let count: usize = dims.iter().product();
            let data = (0..count)
                .map(|i| {
                    let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(salt);
                    if h.is_multiple_of(zero_every as u64) {
                        0.0
                    } else {
                        ((h % 2000) as f32 - 1000.0) / 250.0
                    }
                })
                .collect();
            Tensor::from_vec(dims.to_vec(), data)
        };
        // A panicking assertion reads as a test-case failure under
        // proptest, so a plain closure suffices here.
        let assert_bits = |blocked: &Tensor, naive: &Tensor| {
            assert_eq!(blocked.shape(), naive.shape());
            for (b, v) in blocked.data().iter().zip(naive.data()) {
                assert_eq!(b.to_bits(), v.to_bits());
            }
        };

        // Every blocked kernel writes into one reused `[m, n]` output, so
        // each also proves it overwrites what the previous one left there.
        let mut out = Tensor::zeros(vec![m, n]);
        let a = fill(&[m, k], seed);
        let b = fill(&[k, n], seed ^ 0xABCD);
        a.matmul_into(&b, &mut out);
        assert_bits(&out, &a.matmul_naive(&b));

        let at = fill(&[k, m], seed ^ 0x1111);
        at.matmul_tn_into(&b, &mut out);
        assert_bits(&out, &at.matmul_tn_naive(&b));

        let bt = fill(&[n, k], seed ^ 0x2222);
        a.matmul_nt_into(&bt, &mut out);
        assert_bits(&out, &a.matmul_nt_naive(&bt));
    }
}

proptest! {
    /// The lowered `Conv2d` (packed patches over the blocked matmul core)
    /// reproduces the frozen direct loops bit for bit: the forward output,
    /// `grad_w` and `grad_b` accumulated over two batches, and the input
    /// gradient. Kernels 1/3/5 with every padding up to `k/2`, 1–6 samples,
    /// 1–4 channels each way, `h`/`w` from `k − 2·pad` to 9, and zero
    /// densities 0, ½ or 1 on each of `x`, `W` and `grad_out`.
    #[test]
    fn conv_lowering_is_bit_identical_to_naive(
        k_pick in 0usize..3,
        pad_pick in 0usize..3,
        batch in 1usize..=6,
        in_c in 1usize..=4,
        out_c in 1usize..=4,
        h_pick in 0usize..10,
        w_pick in 0usize..10,
        zero_x in 0u64..3,
        zero_w in 0u64..3,
        zero_g in 0u64..3,
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        use unifyfl_tensor::arena::Arena;
        use unifyfl_tensor::layers::{conv_backward_naive, conv_forward_naive, Conv2d, Layer};

        let k = [1usize, 3, 5][k_pick];
        let pad = pad_pick % (k / 2 + 1);
        let min_hw = k - 2 * pad;
        let h = min_hw + h_pick % (10 - min_hw);
        let w = min_hw + w_pick % (10 - min_hw);
        let (oh, ow) = (h + 2 * pad + 1 - k, w + 2 * pad + 1 - k);
        // `zero` ∈ {0, 1, 2}: no zeros, about half zeros, all zeros.
        let fill = |dims: &[usize], salt: u64, zero: u64| {
            let count: usize = dims.iter().product();
            let data = (0..count)
                .map(|i| {
                    let h = (i as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let h = h ^ (h >> 29);
                    if zero == 2 || (zero == 1 && h & 1 == 0) {
                        0.0
                    } else {
                        ((h >> 8) % 2000) as f32 / 250.0 - 3.998
                    }
                })
                .collect();
            Tensor::from_vec(dims.to_vec(), data)
        };
        let assert_bits = |lowered: &[f32], naive: &[f32], what: &str| {
            assert_eq!(lowered.len(), naive.len(), "{what} length");
            for (i, (a, b)) in lowered.iter().zip(naive).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{what}[{i}]: {a} vs {b}");
            }
        };

        let weight = fill(&[out_c, in_c, k, k], seed, zero_w);
        let bias = fill(&[out_c], seed ^ 0xB1A5, 0).into_vec();
        let mut conv = Conv2d::new(in_c, out_c, k, pad, &mut rand::rngs::StdRng::seed_from_u64(seed));
        let mut slots = [weight.data(), &bias[..]].into_iter();
        conv.for_each_param_mut(&mut |p| p.copy_from_slice(slots.next().expect("two slots")));
        conv.zero_grads();
        let mut grad_w = vec![0.0f32; weight.len()];
        let mut grad_b = vec![0.0f32; out_c];
        let mut arena = Arena::new();
        for step in 0..2u64 {
            let x = fill(&[batch, in_c, h, w], seed ^ (0x1111 * (step + 1)), zero_x);
            let g = fill(&[batch, out_c, oh, ow], seed ^ (0x2222 * (step + 1)), zero_g);

            let out = conv.forward_arena(&x, true, &mut arena);
            assert_bits(out.data(), conv_forward_naive(&x, &weight, &bias, pad).data(), "out");
            let gin = conv.backward_arena(&g, &mut arena);
            let gin_naive = conv_backward_naive(&x, &weight, &g, pad, &mut grad_w, &mut grad_b);
            assert_bits(gin.data(), gin_naive.data(), "grad_in");
            let mut naive_grads = [(&grad_w[..], "grad_w"), (&grad_b[..], "grad_b")].into_iter();
            conv.for_each_grad(&mut |lowered| {
                let (naive, what) = naive_grads.next().expect("two slots");
                assert_bits(lowered, naive, what);
            });
            arena.recycle(gin);
            arena.recycle(out);
        }
    }
}

proptest! {
    /// Delta encode → decode is exactly the identity on arbitrary finite
    /// weight tensors, bit for bit, for every base relationship: related
    /// (small drift), unrelated, quantized, or length-mismatched.
    #[test]
    fn delta_round_trip_is_bit_exact(
        base in proptest::collection::vec(finite_f32(), 0..256),
        extra in proptest::collection::vec(finite_f32(), 0..16),
        drift in -0.5f32..0.5,
        mantissa_bits in 1u32..=23,
        same_len in any::<bool>(),
    ) {
        use unifyfl_tensor::delta::{delta_from_bytes, delta_to_bytes};
        use unifyfl_tensor::weights::quantize_release;

        // Derive a "new" vector that exercises each encoder regime.
        let mut new: Vec<f32> = base.iter().map(|w| w + w * drift).collect();
        if !same_len {
            new.extend(&extra);
        }
        let new = quantize_release(&new, mantissa_bits);

        let bytes = delta_to_bytes(&base, &new);
        let decoded = delta_from_bytes(&base, &bytes).unwrap();
        prop_assert_eq!(decoded.len(), new.len());
        for (d, n) in decoded.iter().zip(&new) {
            prop_assert_eq!(d.to_bits(), n.to_bits(), "bit-exact reconstruction");
        }
    }

    /// The NaN-free guarantee: a delta whose reconstruction would contain
    /// non-finite values is rejected at decode, never returned.
    #[test]
    fn delta_decode_rejects_non_finite(
        base in proptest::collection::vec(finite_f32(), 1..64),
        poison_at in 0usize..64,
    ) {
        use unifyfl_tensor::delta::{delta_from_bytes, delta_to_bytes, DeltaDecodeError};

        let mut new = base.clone();
        let poison_at = poison_at % new.len();
        new[poison_at] = f32::NAN;
        let bytes = delta_to_bytes(&base, &new);
        prop_assert_eq!(
            delta_from_bytes(&base, &bytes).unwrap_err(),
            DeltaDecodeError::NonFinite
        );
    }

    /// A delta never decodes against a wrong-length base (stand-in for
    /// "the wrong base model"): it errors rather than fabricating weights.
    #[test]
    fn delta_decode_rejects_wrong_base_length(
        base in proptest::collection::vec(finite_f32(), 2..64),
        cut in 1usize..63,
    ) {
        use unifyfl_tensor::delta::{delta_from_bytes, delta_to_bytes};

        let new: Vec<f32> = base.iter().map(|w| w + 1.0e-3).collect();
        let bytes = delta_to_bytes(&base, &new);
        let cut = cut.min(base.len() - 1);
        // Dense encodings need no base at all; base-relative ones must
        // reject the mismatch. Either way the decode never mis-applies.
        match delta_from_bytes(&base[..cut], &bytes) {
            Ok(decoded) => {
                for (d, n) in decoded.iter().zip(&new) {
                    prop_assert_eq!(d.to_bits(), n.to_bits());
                }
            }
            Err(e) => prop_assert!(matches!(
                e,
                unifyfl_tensor::delta::DeltaDecodeError::BaseMismatch { .. }
            )),
        }
    }

    /// Release quantization really bounds the payload: the dropped mantissa
    /// bits of every released word are zero, and the value error is within
    /// one step of the kept precision.
    #[test]
    fn quantize_release_zeroes_dropped_bits(
        w in proptest::collection::vec(finite_f32(), 0..128),
        mantissa_bits in 1u32..=23,
    ) {
        use unifyfl_tensor::weights::quantize_release;
        let q = quantize_release(&w, mantissa_bits);
        let mask = (1u32 << (23 - mantissa_bits)) - 1;
        for (orig, quant) in w.iter().zip(&q) {
            prop_assert!(quant.is_finite());
            prop_assert_eq!(quant.to_bits() & mask, 0);
            if *orig != 0.0 {
                let rel = ((quant - orig) / orig).abs();
                prop_assert!(rel <= 1.0 / ((1u64 << mantissa_bits) as f32), "{} -> {}", orig, quant);
            }
        }
    }
}
