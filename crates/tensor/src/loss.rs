//! Softmax cross-entropy loss (fused forward + gradient).

use crate::tensor::Tensor;

/// Computes mean softmax cross-entropy and its gradient, writing the
/// gradient and predictions into caller-owned buffers (`exps` is per-row
/// scratch), so the training hot path allocates nothing per batch once the
/// buffers have warmed up.
///
/// Numerically stabilized by subtracting each row's max logit.
///
/// `grad` is reshaped to `[batch, classes]` in place; `predictions` is
/// cleared and refilled with each row's argmax.
///
/// # Panics
///
/// Panics if `logits` is not `[batch, classes]`, `labels.len() != batch`,
/// or any label is out of range.
pub fn softmax_cross_entropy_into(
    logits: &Tensor,
    labels: &[usize],
    grad: &mut Tensor,
    predictions: &mut Vec<usize>,
    exps: &mut Vec<f32>,
) -> f32 {
    assert_eq!(logits.shape().len(), 2, "logits must be [batch, classes]");
    let (batch, classes) = (logits.shape()[0], logits.shape()[1]);
    assert_eq!(labels.len(), batch, "labels/batch mismatch");

    grad.reset_to(&[batch, classes]);
    predictions.clear();
    let mut total_loss = 0.0f64;
    let x = logits.data();
    let g = grad.data_mut();

    for i in 0..batch {
        let row = &x[i * classes..(i + 1) * classes];
        let label = labels[i];
        assert!(
            label < classes,
            "label {label} out of range for {classes} classes"
        );

        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        exps.clear();
        exps.extend(row.iter().map(|v| (v - max).exp()));
        let sum: f32 = exps.iter().sum();

        let mut best = 0;
        for (j, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = j;
            }
            let p = exps[j] / sum;
            // d(mean CE)/d logit = (softmax - onehot) / batch
            g[i * classes + j] = (p - if j == label { 1.0 } else { 0.0 }) / batch as f32;
        }
        predictions.push(best);

        let p_label = (exps[label] / sum).max(1e-12);
        total_loss -= (p_label as f64).ln();
    }

    (total_loss / batch as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Loss, gradient and predictions through fresh buffers.
    fn ce(logits: &Tensor, labels: &[usize]) -> (f32, Tensor, Vec<usize>) {
        let mut grad = Tensor::zeros(vec![0]);
        let mut predictions = Vec::new();
        let loss = softmax_cross_entropy_into(
            logits,
            labels,
            &mut grad,
            &mut predictions,
            &mut Vec::new(),
        );
        (loss, grad, predictions)
    }

    #[test]
    fn uniform_logits_give_log_classes() {
        let logits = Tensor::zeros(vec![4, 10]);
        let (loss, _, _) = ce(&logits, &[0, 1, 2, 3]);
        assert!((loss - (10.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn confident_correct_logits_give_near_zero_loss() {
        let mut logits = Tensor::zeros(vec![1, 3]);
        logits.set(&[0, 1], 20.0);
        let (loss, _, predictions) = ce(&logits, &[1]);
        assert!(loss < 1e-4);
        assert_eq!(predictions, vec![1]);
    }

    #[test]
    fn confident_wrong_logits_give_large_loss() {
        let mut logits = Tensor::zeros(vec![1, 3]);
        logits.set(&[0, 2], 20.0);
        let (loss, _, _) = ce(&logits, &[0]);
        assert!(loss > 10.0);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let logits = Tensor::from_vec(vec![2, 3], vec![0.2, -0.5, 0.9, 1.5, 0.0, -1.0]);
        let labels = [2usize, 0];
        let (_, grad, _) = ce(&logits, &labels);
        let eps = 1e-3f32;
        for idx in 0..logits.len() {
            let mut plus = logits.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = logits.clone();
            minus.data_mut()[idx] -= eps;
            let numeric = (ce(&plus, &labels).0 - ce(&minus, &labels).0) / (2.0 * eps);
            let analytic = grad.data()[idx];
            assert!(
                (numeric - analytic).abs() < 1e-3,
                "grad mismatch at {idx}: {numeric} vs {analytic}"
            );
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let logits = Tensor::from_vec(vec![1, 4], vec![3.0, 1.0, -2.0, 0.5]);
        let (_, grad, _) = ce(&logits, &[1]);
        let sum: f32 = grad.data().iter().sum();
        assert!(sum.abs() < 1e-6, "softmax-CE grad sums to zero per row");
    }

    #[test]
    fn extreme_logits_are_stable() {
        let logits = Tensor::from_vec(vec![1, 2], vec![1000.0, -1000.0]);
        let (loss, grad, _) = ce(&logits, &[0]);
        assert!(loss.is_finite());
        assert!(grad.data().iter().all(|g| g.is_finite()));
    }

    #[test]
    fn into_variant_reuses_buffers_bit_identically() {
        let logits = Tensor::from_vec(vec![2, 3], vec![0.2, -0.5, 0.9, 1.5, 0.0, -1.0]);
        let labels = [2usize, 0];
        let (ref_loss, ref_grad, ref_predictions) = ce(&logits, &labels);

        // Warm the buffers with stale contents of the wrong size.
        let mut grad = Tensor::zeros(vec![7]);
        grad.data_mut().fill(9.0);
        let mut predictions = vec![99usize; 5];
        let mut exps = vec![3.0f32; 11];
        for _ in 0..2 {
            let loss = softmax_cross_entropy_into(
                &logits,
                &labels,
                &mut grad,
                &mut predictions,
                &mut exps,
            );
            assert_eq!(loss.to_bits(), ref_loss.to_bits());
            assert_eq!(predictions, ref_predictions);
            assert_eq!(grad.shape(), ref_grad.shape());
            for (a, b) in grad.data().iter().zip(ref_grad.data()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "label")]
    fn out_of_range_label_panics() {
        let logits = Tensor::zeros(vec![1, 3]);
        let _ = ce(&logits, &[3]);
    }
}
