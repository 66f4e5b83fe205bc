//! Sequential models and the flat-parameter view used for FL weight
//! exchange.
//!
//! Federated learning moves *weights*, not layers: [`Sequential::flat_params`]
//! and [`Sequential::set_flat_params`] expose every trainable parameter as
//! one `Vec<f32>` in a stable order, which is exactly what gets serialized,
//! stored on IPFS and aggregated by the strategies.

use crate::arena::Arena;
use crate::layers::Layer;
use crate::loss::softmax_cross_entropy_into;
use crate::tensor::Tensor;

/// A feed-forward stack of layers.
///
/// The model owns a tensor [`Arena`] plus loss scratch buffers, so
/// [`Sequential::train_batch`] and [`Sequential::evaluate_batch`] stop
/// allocating once the pools have warmed up (first batch) — every
/// activation, gradient and softmax scratch vector is recycled batch to
/// batch.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    arena: Arena,
    scratch_predictions: Vec<usize>,
    scratch_exps: Vec<f32>,
}

impl Sequential {
    /// Creates an empty model.
    pub fn new() -> Self {
        Sequential {
            layers: Vec::new(),
            arena: Arena::new(),
            scratch_predictions: Vec::new(),
            scratch_exps: Vec::new(),
        }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True if the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// All parameters flattened into one vector (stable order).
    pub fn flat_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        self.flat_params_into(&mut out);
        out
    }

    /// [`Sequential::flat_params`] into a caller-owned buffer (cleared and
    /// refilled), so hot loops can reuse one allocation across batches.
    pub fn flat_params_into(&self, out: &mut Vec<f32>) {
        out.clear();
        for layer in &self.layers {
            layer.for_each_param(&mut |p| out.extend_from_slice(p));
        }
    }

    /// All gradients flattened into a caller-owned buffer (cleared and
    /// refilled), in [`Sequential::flat_params`] order.
    pub fn flat_grads_into(&self, out: &mut Vec<f32>) {
        out.clear();
        for layer in &self.layers {
            layer.for_each_grad(&mut |g| out.extend_from_slice(g));
        }
    }

    /// Overwrites all parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` does not equal [`Sequential::param_count`].
    pub fn set_flat_params(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.param_count(),
            "flat parameter vector length mismatch"
        );
        let mut offset = 0;
        for layer in &mut self.layers {
            layer.for_each_param_mut(&mut |p| {
                p.copy_from_slice(&flat[offset..offset + p.len()]);
                offset += p.len();
            });
        }
    }

    /// One SGD mini-batch step: forward, loss, backward. Gradients are left
    /// in the layers for an optimizer to consume; returns the mean batch
    /// loss.
    ///
    /// Runs entirely on the model's arena — after the first batch at a
    /// given shape, the whole step performs zero heap allocations. The
    /// first layer runs [`Layer::backward_params`], so its unread input
    /// gradient is never computed; the gradients left in the layers are
    /// bit-identical to running [`Layer::backward_arena`] on every layer.
    ///
    /// # Panics
    ///
    /// Panics on shape/label mismatches (see
    /// [`softmax_cross_entropy_into`]).
    pub fn train_batch(&mut self, x: &Tensor, labels: &[usize]) -> f32 {
        self.zero_grads();
        let logits = self.forward_pooled(x, true);
        let Sequential {
            layers,
            arena,
            scratch_predictions,
            scratch_exps,
        } = self;
        let mut grad = arena.take(&[0]);
        let loss = softmax_cross_entropy_into(
            &logits,
            labels,
            &mut grad,
            scratch_predictions,
            scratch_exps,
        );
        arena.recycle(logits);
        if let Some((first, rest)) = layers.split_first_mut() {
            for layer in rest.iter_mut().rev() {
                let next = layer.backward_arena(&grad, arena);
                arena.recycle(grad);
                grad = next;
            }
            // Nothing reads the first layer's input gradient: accumulate
            // its parameter gradients only.
            first.backward_params(&grad, arena);
        }
        arena.recycle(grad);
        loss
    }

    /// Evaluates mean loss and accuracy on a batch without training.
    ///
    /// Like [`Sequential::train_batch`], allocation-free once the arena has
    /// warmed up.
    pub fn evaluate_batch(&mut self, x: &Tensor, labels: &[usize]) -> (f32, f32) {
        let logits = self.forward_pooled(x, false);
        let Sequential {
            arena,
            scratch_predictions,
            scratch_exps,
            ..
        } = self;
        let mut grad = arena.take(&[0]);
        let loss = softmax_cross_entropy_into(
            &logits,
            labels,
            &mut grad,
            scratch_predictions,
            scratch_exps,
        );
        arena.recycle(logits);
        arena.recycle(grad);
        let correct = scratch_predictions
            .iter()
            .zip(labels)
            .filter(|(p, l)| p == l)
            .count();
        (loss, correct as f32 / labels.len().max(1) as f32)
    }

    /// Arena-backed forward pass; the returned tensor belongs to the arena
    /// and must be recycled by the caller.
    pub(crate) fn forward_pooled(&mut self, input: &Tensor, train: bool) -> Tensor {
        let Sequential { layers, arena, .. } = self;
        let mut x = arena.take_from(input);
        for layer in layers.iter_mut() {
            let next = layer.forward_arena(&x, train, arena);
            arena.recycle(x);
            x = next;
        }
        x
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("layers", &self.layers.len())
            .field("params", &self.param_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_mlp(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new()
            .push(Dense::new(4, 16, &mut rng))
            .push(Relu::new())
            .push(Dense::new(16, 3, &mut rng))
    }

    /// A linearly separable 3-class toy problem.
    fn toy_batch() -> (Tensor, Vec<usize>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..30 {
            let class = i % 3;
            let mut row = vec![0.1f32; 4];
            row[class] = 1.0 + (i as f32 * 0.01);
            xs.extend(row);
            ys.push(class);
        }
        (Tensor::from_vec(vec![30, 4], xs), ys)
    }

    #[test]
    fn flat_params_round_trip() {
        let mut m = tiny_mlp(1);
        let p = m.flat_params();
        assert_eq!(p.len(), m.param_count());
        let mut modified = p.clone();
        for v in modified.iter_mut() {
            *v += 1.0;
        }
        m.set_flat_params(&modified);
        assert_eq!(m.flat_params(), modified);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn set_flat_params_rejects_wrong_len() {
        let mut m = tiny_mlp(1);
        m.set_flat_params(&[0.0; 3]);
    }

    #[test]
    fn sgd_training_reduces_loss() {
        let mut m = tiny_mlp(2);
        let (x, y) = toy_batch();
        let lr = 0.5f32;
        let first = m.train_batch(&x, &y);
        for _ in 0..50 {
            let _ = m.train_batch(&x, &y);
            // Manual SGD over the flat views.
            let mut grads = Vec::new();
            m.flat_grads_into(&mut grads);
            let mut params = m.flat_params();
            for (p, g) in params.iter_mut().zip(&grads) {
                *p -= lr * g;
            }
            m.set_flat_params(&params);
        }
        let (final_loss, acc) = m.evaluate_batch(&x, &y);
        assert!(final_loss < first * 0.5, "loss {first} -> {final_loss}");
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn evaluate_does_not_mutate_params() {
        let mut m = tiny_mlp(3);
        let (x, y) = toy_batch();
        let before = m.flat_params();
        let _ = m.evaluate_batch(&x, &y);
        assert_eq!(m.flat_params(), before);
    }

    #[test]
    fn identical_seeds_build_identical_models() {
        let a = tiny_mlp(9).flat_params();
        let b = tiny_mlp(9).flat_params();
        assert_eq!(a, b);
    }

    /// A deterministic `[batch, 3, 8, 8]` image batch with 10 classes,
    /// exact zeros included, for the small CNN.
    fn cnn_batch() -> (Tensor, Vec<usize>) {
        let n = 6 * 3 * 8 * 8;
        let xs = (0..n)
            .map(|i| {
                if i % 5 == 0 {
                    0.0
                } else {
                    ((i as f32) * 0.37).sin()
                }
            })
            .collect();
        (Tensor::from_vec(vec![6, 3, 8, 8], xs), (0..6).collect())
    }

    /// The full training step `train_batch` shortcuts: every layer runs
    /// `forward_arena` and `backward_arena` on a fresh arena, nothing is
    /// recycled, and the first layer's input gradient is computed too.
    /// Returns the loss.
    fn unpooled_step(m: &mut Sequential, x: &Tensor, labels: &[usize]) -> f32 {
        let mut arena = Arena::new();
        m.zero_grads();
        let mut a = x.clone();
        for layer in &mut m.layers {
            a = layer.forward_arena(&a, true, &mut arena);
        }
        let mut grad = Tensor::zeros(vec![0]);
        let loss =
            softmax_cross_entropy_into(&a, labels, &mut grad, &mut Vec::new(), &mut Vec::new());
        for layer in m.layers.iter_mut().rev() {
            grad = layer.backward_arena(&grad, &mut arena);
        }
        loss
    }

    #[test]
    fn train_batch_matches_unpooled_forward_backward_bitwise() {
        use crate::zoo::ModelSpec;
        // Same seed → identical models; one trains through `train_batch`
        // (recycled arena, first layer via `backward_params`), the other
        // through the full unpooled step. Losses and gradients must agree
        // bit for bit across repeated batches, for a Dense-first and a
        // Conv2d-first stack.
        let cnn = ModelSpec::small_cnn(10);
        let cases = [
            (tiny_mlp(7), tiny_mlp(7), toy_batch()),
            (cnn.build(7), cnn.build(7), cnn_batch()),
        ];
        for (mut pooled, mut plain, (x, y)) in cases {
            let (mut gp, mut gq) = (Vec::new(), Vec::new());
            for _ in 0..3 {
                let loss = pooled.train_batch(&x, &y);
                let plain_loss = unpooled_step(&mut plain, &x, &y);
                assert_eq!(loss.to_bits(), plain_loss.to_bits());
                pooled.flat_grads_into(&mut gp);
                plain.flat_grads_into(&mut gq);
                assert_eq!(gp.len(), gq.len());
                for (a, b) in gp.iter().zip(&gq) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn train_batch_on_empty_model_scores_the_input() {
        // No layers: logits are the input itself; the arena path must not
        // choke on the degenerate stack.
        let mut m = Sequential::new();
        let x = Tensor::from_vec(vec![2, 2], vec![5.0, 0.0, 0.0, 5.0]);
        let loss = m.train_batch(&x, &[0, 1]);
        assert!(loss.is_finite() && loss < 0.1);
        let (eval_loss, acc) = m.evaluate_batch(&x, &[0, 1]);
        assert_eq!(eval_loss.to_bits(), loss.to_bits());
        assert!((acc - 1.0).abs() < 1e-6);
    }

    #[test]
    fn flat_into_variants_match_allocating_views() {
        let mut m = tiny_mlp(5);
        let (x, y) = toy_batch();
        let _ = m.train_batch(&x, &y);
        let mut params = vec![99.0f32; 3]; // stale contents must be cleared
        let mut grads = vec![-7.0f32; 500];
        m.flat_params_into(&mut params);
        m.flat_grads_into(&mut grads);
        assert_eq!(params, m.flat_params());
        let mut fresh = Vec::new();
        m.flat_grads_into(&mut fresh);
        assert_eq!(grads, fresh);
        assert_eq!(grads.len(), m.param_count());
    }

    #[test]
    fn param_count_sums_layers() {
        let m = tiny_mlp(1);
        assert_eq!(m.param_count(), 4 * 16 + 16 + 16 * 3 + 3);
        assert_eq!(m.len(), 3);
    }
}
