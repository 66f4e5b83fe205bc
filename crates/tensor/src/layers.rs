//! Neural-network layers with explicit forward/backward passes.
//!
//! Every pass runs on a caller-owned [`Arena`]: a [`Layer`] takes its
//! output (or input gradient) from the arena and hands it to the caller,
//! who recycles it once the next layer has consumed it. A layer caches
//! whatever it needs during `forward_arena(train = true)` and accumulates
//! parameter gradients during `backward_arena`. Parameters and gradients
//! are reached through visitors in one stable order, so flat-view
//! extraction allocates nothing. The [`Dense`] and [`Conv2d`] layers cover
//! the paper's two model classes (the 62 K-param CNN for CIFAR-10 and the
//! MLP proxy for VGG16).

use std::ops::Range;

use rand::rngs::StdRng;
use rand::Rng;

use crate::arena::Arena;
use crate::tensor::{matmul_acc, Tensor};

/// A differentiable layer.
pub trait Layer: Send {
    /// Forward pass, serving the output from `arena`. When `train` is true
    /// the layer caches the activations [`Layer::backward_arena`] needs.
    fn forward_arena(&mut self, input: &Tensor, train: bool, arena: &mut Arena) -> Tensor;

    /// Backward pass: consumes the gradient w.r.t. this layer's output,
    /// accumulates parameter gradients, and returns the gradient w.r.t. the
    /// input, served from `arena`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before a training-mode forward.
    fn backward_arena(&mut self, grad_out: &Tensor, arena: &mut Arena) -> Tensor;

    /// Accumulates the parameter gradients for `grad_out` exactly as
    /// [`Layer::backward_arena`] does, but produces no input gradient: a
    /// stack's first layer has nobody to hand one to. The default runs
    /// [`Layer::backward_arena`] and recycles the result; layers that hold
    /// parameters override it to skip the input-gradient work.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before a training-mode forward.
    fn backward_params(&mut self, grad_out: &Tensor, arena: &mut Arena) {
        let grad_in = self.backward_arena(grad_out, arena);
        arena.recycle(grad_in);
    }

    /// Resets accumulated gradients to zero.
    fn zero_grads(&mut self);

    /// Visits every parameter slice, in a stable order.
    fn for_each_param(&self, f: &mut dyn FnMut(&[f32]));

    /// Mutable counterpart of [`Layer::for_each_param`], same order.
    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut [f32]));

    /// Visits every accumulated-gradient slice, in
    /// [`Layer::for_each_param`] order.
    fn for_each_grad(&self, f: &mut dyn FnMut(&[f32]));

    /// Total trainable parameter count.
    fn param_count(&self) -> usize {
        let mut count = 0;
        self.for_each_param(&mut |p| count += p.len());
        count
    }
}

/// Samples from a uniform(-limit, limit) He/Glorot-style initialization.
fn init_uniform(rng: &mut StdRng, n: usize, limit: f32) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-limit..limit)).collect()
}

/// Fully connected layer: `y = x·W + b` with `x: [batch, in]`,
/// `W: [in, out]`.
pub struct Dense {
    w: Tensor,
    b: Vec<f32>,
    grad_w: Tensor,
    grad_b: Vec<f32>,
    cached_input: Option<Tensor>,
    /// Scratch for the per-batch `xᵀ · g` product, reused across backward
    /// calls so the hot path allocates nothing per batch.
    scratch_gw: Tensor,
    in_dim: usize,
    out_dim: usize,
}

impl Dense {
    /// Creates a dense layer with Glorot-uniform initialization.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        let limit = (6.0 / (in_dim + out_dim) as f32).sqrt();
        Dense {
            w: Tensor::from_vec(
                vec![in_dim, out_dim],
                init_uniform(rng, in_dim * out_dim, limit),
            ),
            b: vec![0.0; out_dim],
            grad_w: Tensor::zeros(vec![in_dim, out_dim]),
            grad_b: vec![0.0; out_dim],
            cached_input: None,
            scratch_gw: Tensor::zeros(vec![in_dim, out_dim]),
            in_dim,
            out_dim,
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

impl Dense {
    /// Adds the bias row to every batch row of `out`.
    fn add_bias(&self, out: &mut Tensor) {
        let batch = out.shape()[0];
        let data = out.data_mut();
        for i in 0..batch {
            for (j, bias) in self.b.iter().enumerate() {
                data[i * self.out_dim + j] += bias;
            }
        }
    }

    /// Refreshes the training-mode input cache, reusing its buffers after
    /// the first batch.
    fn cache_input(&mut self, input: &Tensor) {
        match self.cached_input.as_mut() {
            Some(c) => c.copy_from(input),
            None => self.cached_input = Some(input.clone()),
        }
    }

    /// `grad_w += xᵀ · g`, `grad_b += Σ_batch g`. The `xᵀ · g` product is
    /// read in place (`matmul_tn_into`, no transposed copy) into the reused
    /// scratch; it cannot accumulate straight into `grad_w`, since that
    /// would change the f32 add order against the reference formulation.
    fn accumulate_grads(&mut self, grad_out: &Tensor) {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward requires a training-mode forward");
        input.matmul_tn_into(grad_out, &mut self.scratch_gw);
        self.grad_w.add_assign(&self.scratch_gw);
        for row in grad_out.data().chunks_exact(self.out_dim) {
            for (gb, &g) in self.grad_b.iter_mut().zip(row) {
                *gb += g;
            }
        }
    }
}

impl Layer for Dense {
    fn forward_arena(&mut self, input: &Tensor, train: bool, arena: &mut Arena) -> Tensor {
        assert_eq!(input.shape().len(), 2, "dense expects [batch, features]");
        assert_eq!(input.shape()[1], self.in_dim, "input dim mismatch");
        let mut out = arena.take(&[input.shape()[0], self.out_dim]);
        input.matmul_into(&self.w, &mut out);
        self.add_bias(&mut out);
        if train {
            self.cache_input(input);
        }
        out
    }

    fn backward_arena(&mut self, grad_out: &Tensor, arena: &mut Arena) -> Tensor {
        self.accumulate_grads(grad_out);
        let mut gin = arena.take(&[grad_out.shape()[0], self.in_dim]);
        grad_out.matmul_nt_into(&self.w, &mut gin);
        gin
    }

    fn backward_params(&mut self, grad_out: &Tensor, _arena: &mut Arena) {
        self.accumulate_grads(grad_out);
    }

    fn for_each_param(&self, f: &mut dyn FnMut(&[f32])) {
        f(self.w.data());
        f(&self.b);
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        f(self.w.data_mut());
        f(&mut self.b);
    }

    fn for_each_grad(&self, f: &mut dyn FnMut(&[f32])) {
        f(self.grad_w.data());
        f(&self.grad_b);
    }

    fn zero_grads(&mut self) {
        self.grad_w.data_mut().fill(0.0);
        self.grad_b.fill(0.0);
    }
}

/// Rectified linear unit.
#[derive(Default)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Relu {
    /// Clamps negatives in place, refreshing the training mask (reusing
    /// its buffer) when asked.
    fn clamp(&mut self, out: &mut Tensor, train: bool) {
        if train {
            self.mask.clear();
            self.mask.extend(out.data().iter().map(|&x| x > 0.0));
        }
        for x in out.data_mut() {
            if *x < 0.0 {
                *x = 0.0;
            }
        }
    }

    /// Zeroes gradient entries the forward pass clamped.
    fn apply_mask(&self, g: &mut Tensor) {
        for (x, &keep) in g.data_mut().iter_mut().zip(&self.mask) {
            if !keep {
                *x = 0.0;
            }
        }
    }
}

impl Layer for Relu {
    fn forward_arena(&mut self, input: &Tensor, train: bool, arena: &mut Arena) -> Tensor {
        let mut out = arena.take_from(input);
        self.clamp(&mut out, train);
        out
    }

    fn backward_arena(&mut self, grad_out: &Tensor, arena: &mut Arena) -> Tensor {
        assert_eq!(
            grad_out.len(),
            self.mask.len(),
            "backward requires a training-mode forward"
        );
        let mut g = arena.take_from(grad_out);
        self.apply_mask(&mut g);
        g
    }

    fn zero_grads(&mut self) {}

    fn for_each_param(&self, _: &mut dyn FnMut(&[f32])) {}

    fn for_each_param_mut(&mut self, _: &mut dyn FnMut(&mut [f32])) {}

    fn for_each_grad(&self, _: &mut dyn FnMut(&[f32])) {}
}

/// Flattens `[batch, c, h, w]` (or any rank ≥ 2) to `[batch, rest]`.
#[derive(Default)]
pub struct Flatten {
    cached_shape: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward_arena(&mut self, input: &Tensor, train: bool, arena: &mut Arena) -> Tensor {
        assert!(input.shape().len() >= 2, "flatten expects rank >= 2");
        let batch = input.shape()[0];
        let rest: usize = input.shape()[1..].iter().product();
        if train {
            self.cached_shape.clear();
            self.cached_shape.extend_from_slice(input.shape());
        }
        let mut out = arena.take_from(input);
        out.reshape_to(&[batch, rest]);
        out
    }

    fn backward_arena(&mut self, grad_out: &Tensor, arena: &mut Arena) -> Tensor {
        let mut g = arena.take_from(grad_out);
        g.reshape_to(&self.cached_shape);
        g
    }

    fn zero_grads(&mut self) {}

    fn for_each_param(&self, _: &mut dyn FnMut(&[f32])) {}

    fn for_each_param_mut(&mut self, _: &mut dyn FnMut(&mut [f32])) {}

    fn for_each_grad(&self, _: &mut dyn FnMut(&[f32])) {}
}

/// 2-D convolution, stride 1, zero "same" padding optional.
///
/// Input `[batch, in_c, h, w]`, kernel `[out_c, in_c, kh, kw]`, output
/// `[batch, out_c, h', w']` with `h' = h - kh + 1 + 2·pad`.
///
/// Lowered onto the blocked matmul core through packed patches (im2col).
/// Per sample, the receptive fields are packed into `col[p, pix]` with
/// `p = (ic, ky, kx)` ascending and `+0.0` at padded taps; the output rows
/// are prefilled with their bias, then `out[oc, ·] += W[oc, ·] · col`. The
/// weight gradient runs the same core as `grad_w[oc, ·] += g[oc, ·] ·
/// colᵀ`, samples and pixels ascending, and skips `g == 0` like the
/// reference. Every element thus accumulates bias (or its running
/// gradient) first and then its products in the order of the frozen
/// direct loops, [`conv_forward_naive`] and [`conv_backward_naive`]; the
/// two agree bit for bit (proptest-pinned). The input gradient, which
/// only a layer with a layer before it needs, walks output rows directly
/// (see `conv_input_grad`).
///
/// # Signed zeros
///
/// The lowering adds `±0.0` products the reference never forms (padded
/// taps) and skips the `x · 0.0` products the reference forms for zero
/// weights. Adding `±0.0` changes a sum only when the sum is exactly
/// `-0.0`, and in round-to-nearest a sum that starts at `+0.0` or at a
/// nonzero value can never become `-0.0`. So a forward output can differ
/// from the reference only in the sign of a zero, and only under a `-0.0`
/// bias; gradients, which start at `+0.0`, never differ. The identity
/// also assumes finite inputs and weights (`inf · 0.0` is NaN on whichever
/// side forms it).
pub struct Conv2d {
    w: Tensor,
    b: Vec<f32>,
    grad_w: Tensor,
    grad_b: Vec<f32>,
    cached_input: Option<Tensor>,
    /// One sample's packed patches `[in_c·k·k, h'·w']`, reused across
    /// samples and calls so the hot path allocates nothing per batch.
    col: Vec<f32>,
    /// `col` transposed, `[h'·w', in_c·k·k]`: the weight-gradient rhs.
    col_t: Vec<f32>,
    in_c: usize,
    out_c: usize,
    k: usize,
    pad: usize,
}

impl Conv2d {
    /// Creates a `k×k` convolution with He-uniform initialization.
    ///
    /// `pad = k/2` gives "same" output size for odd `k`.
    pub fn new(in_c: usize, out_c: usize, k: usize, pad: usize, rng: &mut StdRng) -> Self {
        let fan_in = (in_c * k * k) as f32;
        let limit = (6.0 / fan_in).sqrt();
        let n = out_c * in_c * k * k;
        Conv2d {
            w: Tensor::from_vec(vec![out_c, in_c, k, k], init_uniform(rng, n, limit)),
            b: vec![0.0; out_c],
            grad_w: Tensor::zeros(vec![out_c, in_c, k, k]),
            grad_b: vec![0.0; out_c],
            cached_input: None,
            col: Vec::new(),
            col_t: Vec::new(),
            in_c,
            out_c,
            k,
            pad,
        }
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (h + 2 * self.pad + 1 - self.k, w + 2 * self.pad + 1 - self.k)
    }
}

/// `(batch, in_c, h, w, out_c, k)` of a conv input `[batch, in_c, h, w]`
/// and kernel `[out_c, in_c, k, k]`.
fn conv_dims(input: &Tensor, weight: &Tensor) -> (usize, usize, usize, usize, usize, usize) {
    let (s, ws) = (input.shape(), weight.shape());
    assert_eq!(s.len(), 4, "conv expects [batch, c, h, w]");
    assert_eq!(ws.len(), 4, "conv kernel is [out_c, in_c, k, k]");
    assert_eq!(s[1], ws[1], "channel mismatch");
    assert_eq!(ws[2], ws[3], "conv kernel must be square");
    (s[0], s[1], s[2], s[3], ws[0], ws[2])
}

/// The frozen direct-loop forward that [`Conv2d`]'s lowered forward is
/// proven bit-identical to (see its signed-zero note): `out[b, oc, oy, ox]
/// = bias[oc] + Σ x·w` over the valid receptive field, `ic → ky → kx`
/// ascending, with a bounds check per tap. `input` is `[batch, in_c, h,
/// w]`, `weight` is `[out_c, in_c, k, k]`, stride 1, zero padding `pad`.
/// Kept for the tests and the conv microbench.
pub fn conv_forward_naive(input: &Tensor, weight: &Tensor, bias: &[f32], pad: usize) -> Tensor {
    let (batch, in_c, h, w, out_c, k) = conv_dims(input, weight);
    let (oh, ow) = (h + 2 * pad + 1 - k, w + 2 * pad + 1 - k);
    let (x, wdat) = (input.data(), weight.data());
    let pad = pad as isize;
    let mut out = Tensor::zeros(vec![batch, out_c, oh, ow]);
    let odat = out.data_mut();
    for b in 0..batch {
        for oc in 0..out_c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias[oc];
                    for ic in 0..in_c {
                        for ky in 0..k {
                            let iy = oy as isize + ky as isize - pad;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = ox as isize + kx as isize - pad;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let xi = ((b * in_c + ic) * h + iy as usize) * w + ix as usize;
                                let wi = ((oc * in_c + ic) * k + ky) * k + kx;
                                acc += x[xi] * wdat[wi];
                            }
                        }
                    }
                    odat[((b * out_c + oc) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    out
}

/// The frozen direct-loop backward that [`Conv2d`]'s lowered backward is
/// proven bit-identical to. Accumulates into `grad_w` (`[out_c, in_c, k,
/// k]`, flat) and `grad_b`, skipping zero entries of `grad_out`, and
/// returns the input gradient. Shapes as [`conv_forward_naive`].
pub fn conv_backward_naive(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    pad: usize,
    grad_w: &mut [f32],
    grad_b: &mut [f32],
) -> Tensor {
    let (batch, in_c, h, w, out_c, k) = conv_dims(input, weight);
    let (oh, ow) = (h + 2 * pad + 1 - k, w + 2 * pad + 1 - k);
    assert_eq!(grad_out.shape(), &[batch, out_c, oh, ow]);
    let (x, g, wdat) = (input.data(), grad_out.data(), weight.data());
    let pad = pad as isize;
    let mut grad_in = Tensor::zeros(input.shape().to_vec());
    let gi = grad_in.data_mut();
    for b in 0..batch {
        for oc in 0..out_c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let go = g[((b * out_c + oc) * oh + oy) * ow + ox];
                    if go == 0.0 {
                        continue;
                    }
                    grad_b[oc] += go;
                    for ic in 0..in_c {
                        for ky in 0..k {
                            let iy = oy as isize + ky as isize - pad;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = ox as isize + kx as isize - pad;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let xi = ((b * in_c + ic) * h + iy as usize) * w + ix as usize;
                                let wi = ((oc * in_c + ic) * k + ky) * k + kx;
                                grad_w[wi] += x[xi] * go;
                                gi[xi] += wdat[wi] * go;
                            }
                        }
                    }
                }
            }
        }
    }
    grad_in
}

/// The output positions `o < n_out` whose tap `t` reads inside an input
/// of length `n_in`, i.e. `0 ≤ o + t − pad < n_in`.
fn tap_range(n_in: usize, n_out: usize, t: usize, pad: usize) -> Range<usize> {
    let lo = pad.saturating_sub(t).min(n_out);
    let hi = (n_in + pad).saturating_sub(t).clamp(lo, n_out);
    lo..hi
}

/// Packs one sample `x: [in_c, h, w]` into `col: [in_c·k·k, oh·ow]`: row
/// `p = (ic, ky, kx)` holds the input value each output pixel reads
/// through that tap, `+0.0` where the tap lands in the padding.
fn pack_patches(
    x: &[f32],
    col: &mut [f32],
    (h, w): (usize, usize),
    (oh, ow): (usize, usize),
    k: usize,
    pad: usize,
) {
    let mut rows = col.chunks_exact_mut(oh * ow);
    for plane in x.chunks_exact(h * w) {
        for ky in 0..k {
            let ys = tap_range(h, oh, ky, pad);
            for kx in 0..k {
                let xs = tap_range(w, ow, kx, pad);
                let row = rows.next().expect("col holds in_c·k·k rows");
                for (oy, dst) in row.chunks_exact_mut(ow).enumerate() {
                    if !ys.contains(&oy) || xs.is_empty() {
                        dst.fill(0.0);
                        continue;
                    }
                    let src = &plane[(oy + ky - pad) * w + xs.start + kx - pad..][..xs.len()];
                    dst[..xs.start].fill(0.0);
                    dst[xs.clone()].copy_from_slice(src);
                    dst[xs.end..].fill(0.0);
                }
            }
        }
    }
}

/// Accumulates the input gradient `gi[b, ic, iy, ix] += W[oc, ic, ky, kx]
/// · g[b, oc, oy, ox]` over every tap reading `(iy, ix)`, one output-row
/// span per tap instead of a bounds check per tap. Walking the taps
/// `(ky, kx)` descending visits each `gi` element's products in the
/// reference's order: `oc`, then `(oy, ox)` ascending. The reference's
/// zero-`g` skip needs no mirror: `gi` starts at `+0.0`, so it never holds
/// `-0.0`, and adding `W · 0.0 = ±0.0` leaves it unchanged.
fn conv_input_grad(
    g: &[f32],
    wdat: &[f32],
    gi: &mut [f32],
    (in_c, h, w): (usize, usize, usize),
    (out_c, oh, ow): (usize, usize, usize),
    k: usize,
    pad: usize,
) {
    for (g_b, gi_b) in g
        .chunks_exact(out_c * oh * ow)
        .zip(gi.chunks_exact_mut(in_c * h * w))
    {
        for (g_oc, w_oc) in g_b
            .chunks_exact(oh * ow)
            .zip(wdat.chunks_exact(in_c * k * k))
        {
            for (gi_ic, w_ic) in gi_b.chunks_exact_mut(h * w).zip(w_oc.chunks_exact(k * k)) {
                for ky in (0..k).rev() {
                    let ys = tap_range(h, oh, ky, pad);
                    for kx in (0..k).rev() {
                        let xs = tap_range(w, ow, kx, pad);
                        if xs.is_empty() {
                            continue;
                        }
                        let wv = w_ic[ky * k + kx];
                        for oy in ys.clone() {
                            let src = &g_oc[oy * ow..][xs.clone()];
                            let dst =
                                &mut gi_ic[(oy + ky - pad) * w + xs.start + kx - pad..][..xs.len()];
                            for (a, &go) in dst.iter_mut().zip(src) {
                                *a += wv * go;
                            }
                        }
                    }
                }
            }
        }
    }
}

impl Conv2d {
    /// Refreshes the training-mode input cache, reusing its buffers after
    /// the first batch.
    fn cache_input(&mut self, input: &Tensor) {
        match self.cached_input.as_mut() {
            Some(c) => c.copy_from(input),
            None => self.cached_input = Some(input.clone()),
        }
    }

    /// The lowered parameter gradients: per sample, `grad_b` in the
    /// reference's order and `grad_w += g · colᵀ`.
    fn accumulate_grads(&mut self, grad_out: &Tensor) {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward requires a training-mode forward");
        let s = input.shape();
        let (batch, h, w) = (s[0], s[2], s[3]);
        let (oh, ow) = self.out_hw(h, w);
        assert_eq!(grad_out.shape(), &[batch, self.out_c, oh, ow]);
        let (taps, pixels) = (self.in_c * self.k * self.k, oh * ow);
        self.col.resize(taps * pixels, 0.0);
        self.col_t.resize(taps * pixels, 0.0);
        for (x, g) in input
            .data()
            .chunks_exact(self.in_c * h * w)
            .zip(grad_out.data().chunks_exact(self.out_c * pixels))
        {
            for (gb, g_oc) in self.grad_b.iter_mut().zip(g.chunks_exact(pixels)) {
                for &go in g_oc {
                    if go != 0.0 {
                        *gb += go;
                    }
                }
            }
            pack_patches(x, &mut self.col, (h, w), (oh, ow), self.k, self.pad);
            for (p, row) in self.col.chunks_exact(pixels).enumerate() {
                for (pix, &v) in row.iter().enumerate() {
                    self.col_t[pix * taps + p] = v;
                }
            }
            matmul_acc(
                g,
                &self.col_t,
                self.grad_w.data_mut(),
                (self.out_c, pixels, taps),
            );
        }
    }
}

impl Layer for Conv2d {
    /// The lowered forward: per sample, pack patches, prefill the bias,
    /// `out += W · col`.
    fn forward_arena(&mut self, input: &Tensor, train: bool, arena: &mut Arena) -> Tensor {
        let s = input.shape();
        assert_eq!(s.len(), 4, "conv expects [batch, c, h, w]");
        assert_eq!(s[1], self.in_c, "channel mismatch");
        let (h, w) = (s[2], s[3]);
        let (oh, ow) = self.out_hw(h, w);
        let mut out = arena.take(&[s[0], self.out_c, oh, ow]);
        let (taps, pixels) = (self.in_c * self.k * self.k, oh * ow);
        self.col.resize(taps * pixels, 0.0);
        for (x, o) in input
            .data()
            .chunks_exact(self.in_c * h * w)
            .zip(out.data_mut().chunks_exact_mut(self.out_c * pixels))
        {
            pack_patches(x, &mut self.col, (h, w), (oh, ow), self.k, self.pad);
            for (row, &bias) in o.chunks_exact_mut(pixels).zip(&self.b) {
                row.fill(bias);
            }
            matmul_acc(self.w.data(), &self.col, o, (self.out_c, taps, pixels));
        }
        if train {
            self.cache_input(input);
        }
        out
    }

    fn backward_arena(&mut self, grad_out: &Tensor, arena: &mut Arena) -> Tensor {
        self.accumulate_grads(grad_out);
        let s = self
            .cached_input
            .as_ref()
            .expect("backward requires a training-mode forward")
            .shape();
        let mut grad_in = arena.take(s);
        let (h, w) = (s[2], s[3]);
        let (oh, ow) = self.out_hw(h, w);
        conv_input_grad(
            grad_out.data(),
            self.w.data(),
            grad_in.data_mut(),
            (self.in_c, h, w),
            (self.out_c, oh, ow),
            self.k,
            self.pad,
        );
        grad_in
    }

    fn backward_params(&mut self, grad_out: &Tensor, _arena: &mut Arena) {
        self.accumulate_grads(grad_out);
    }

    fn for_each_param(&self, f: &mut dyn FnMut(&[f32])) {
        f(self.w.data());
        f(&self.b);
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        f(self.w.data_mut());
        f(&mut self.b);
    }

    fn for_each_grad(&self, f: &mut dyn FnMut(&[f32])) {
        f(self.grad_w.data());
        f(&self.grad_b);
    }

    fn zero_grads(&mut self) {
        self.grad_w.data_mut().fill(0.0);
        self.grad_b.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    /// A forward pass through a fresh arena.
    fn forward<L: Layer>(layer: &mut L, input: &Tensor, train: bool) -> Tensor {
        layer.forward_arena(input, train, &mut Arena::new())
    }

    /// A backward pass through a fresh arena.
    fn backward<L: Layer>(layer: &mut L, grad_out: &Tensor) -> Tensor {
        layer.backward_arena(grad_out, &mut Arena::new())
    }

    /// The layer's gradient slices, copied out in visitor order.
    fn grads<L: Layer>(layer: &L) -> Vec<Vec<f32>> {
        let mut out = Vec::new();
        layer.for_each_grad(&mut |g| out.push(g.to_vec()));
        out
    }

    /// Applies `edit` to the `slot`-th parameter slice.
    fn edit_param<L: Layer>(layer: &mut L, slot: usize, edit: impl FnOnce(&mut [f32])) {
        let (mut edit, mut i) = (Some(edit), 0);
        layer.for_each_param_mut(&mut |p| {
            if i == slot {
                edit.take().expect("one slot per index")(p);
            }
            i += 1;
        });
        assert!(edit.is_none(), "layer has no parameter slot {slot}");
    }

    /// Finite-difference check of a layer's backward pass w.r.t. both its
    /// input and parameters.
    fn grad_check<L: Layer>(layer: &mut L, input: Tensor) {
        let eps = 1e-3f32;
        // Loss = sum of outputs (so dL/dout = 1 everywhere).
        let out = forward(layer, &input, true);
        let ones = Tensor::from_vec(out.shape().to_vec(), vec![1.0; out.len()]);
        layer.zero_grads();
        let grad_in = backward(layer, &ones);
        let loss =
            |layer: &mut L, x: &Tensor| -> f32 { forward(layer, x, false).data().iter().sum() };

        // Check input gradient at a few positions.
        for idx in [0, input.len() / 2, input.len() - 1] {
            let mut plus = input.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = input.clone();
            minus.data_mut()[idx] -= eps;
            let numeric = (loss(layer, &plus) - loss(layer, &minus)) / (2.0 * eps);
            let analytic = grad_in.data()[idx];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "input grad mismatch at {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }

        // Check first parameter tensor gradient at a few positions.
        if layer.param_count() > 0 {
            let grads0 = grads(layer).swap_remove(0);
            let plen = grads0.len();
            for idx in [0, plen / 2, plen - 1] {
                let mut orig = 0.0;
                edit_param(layer, 0, |p| {
                    orig = p[idx];
                    p[idx] = orig + eps;
                });
                let f_plus = loss(layer, &input);
                edit_param(layer, 0, |p| p[idx] = orig - eps);
                let f_minus = loss(layer, &input);
                edit_param(layer, 0, |p| p[idx] = orig);
                let numeric = (f_plus - f_minus) / (2.0 * eps);
                assert!(
                    (numeric - grads0[idx]).abs() < 2e-2,
                    "param grad mismatch at {idx}: numeric {numeric} vs analytic {}",
                    grads0[idx]
                );
            }
        }
    }

    #[test]
    fn dense_gradients_match_finite_differences() {
        let mut rng = rng();
        let mut layer = Dense::new(4, 3, &mut rng);
        let input = Tensor::from_vec(vec![2, 4], (0..8).map(|i| i as f32 * 0.1 - 0.3).collect());
        grad_check(&mut layer, input);
    }

    #[test]
    fn relu_gradients_match_finite_differences() {
        let mut layer = Relu::new();
        // Keep values away from the kink at 0.
        let input = Tensor::from_vec(vec![2, 3], vec![0.5, -0.7, 1.2, -0.1, 0.9, -2.0]);
        grad_check(&mut layer, input);
    }

    #[test]
    fn conv_gradients_match_finite_differences() {
        let mut rng = rng();
        let mut layer = Conv2d::new(2, 3, 3, 1, &mut rng);
        grad_check(&mut layer, conv_input());
    }

    /// A `[2, 2, 5, 5]` conv input with exact zeros and both signs.
    fn conv_input() -> Tensor {
        let n = 2 * 2 * 5 * 5;
        Tensor::from_vec(
            vec![2, 2, 5, 5],
            (0..n).map(|i| ((i * 7 % 13) as f32 - 6.0) * 0.1).collect(),
        )
    }

    #[test]
    fn dense_backward_matches_reference_formulation_bitwise() {
        // The matmul_tn_into / matmul_nt_into fast path must reproduce the naive
        // transpose-then-matmul gradients bit for bit (weight releases are
        // content-addressed, so any drift would change CIDs).
        let mut rng = rng();
        let mut layer = Dense::new(5, 4, &mut rng);
        let input = Tensor::from_vec(
            vec![3, 5],
            (0..15)
                .map(|i| ((i * 11 % 7) as f32 - 3.0) * 0.25)
                .collect(),
        );
        let fwd = forward(&mut layer, &input, true);
        let grad_out = Tensor::from_vec(
            fwd.shape().to_vec(),
            (0..fwd.len()).map(|i| (i as f32 - 5.0) * 0.1).collect(),
        );
        layer.zero_grads();
        let grad_in = backward(&mut layer, &grad_out);

        let ref_gw = input.transpose().matmul_naive(&grad_out);
        let ref_gin = grad_out.matmul_naive(&layer.w.transpose());
        for (a, b) in layer.grad_w.data().iter().zip(ref_gw.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in grad_in.data().iter().zip(ref_gin.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Stale arena buffers and layer caches must never leak into results:
    /// each batch through one long-lived layer and a warm, recycled arena
    /// must match the same batch through a fresh layer and a fresh arena,
    /// bit for bit. The first batch runs different values, so every later
    /// one reuses buffers that held other data.
    fn warm_arena_matches_fresh<L: Layer>(make: impl Fn() -> L, input: Tensor) {
        let assert_bits = |a: &[f32], b: &[f32], what: &str| {
            assert_eq!(a.len(), b.len(), "{what} length");
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "{what} drifted");
            }
        };
        let mut stale = input.clone();
        stale.scale(-1.5);
        let mut warm = make();
        let mut arena = Arena::new();
        for x in [&stale, &input, &input] {
            let mut fresh = make();
            let mut fresh_arena = Arena::new();
            warm.zero_grads();
            let out_w = warm.forward_arena(x, true, &mut arena);
            let out_f = fresh.forward_arena(x, true, &mut fresh_arena);
            assert_eq!(out_w.shape(), out_f.shape());
            assert_bits(out_w.data(), out_f.data(), "forward");
            let ones = Tensor::from_vec(out_w.shape().to_vec(), vec![1.0; out_w.len()]);
            let gin_w = warm.backward_arena(&ones, &mut arena);
            let gin_f = fresh.backward_arena(&ones, &mut fresh_arena);
            assert_eq!(gin_w.shape(), gin_f.shape());
            assert_bits(gin_w.data(), gin_f.data(), "backward");
            for (gw, gf) in grads(&warm).iter().zip(&grads(&fresh)) {
                assert_bits(gw, gf, "param grads");
            }
            arena.recycle(gin_w);
            arena.recycle(out_w);
        }
    }

    #[test]
    fn dense_arena_path_is_bit_identical() {
        let input = Tensor::from_vec(vec![3, 4], (0..12).map(|i| i as f32 * 0.3 - 1.7).collect());
        warm_arena_matches_fresh(|| Dense::new(4, 5, &mut rng()), input);
    }

    #[test]
    fn relu_and_flatten_arena_paths_are_bit_identical() {
        let input = Tensor::from_vec(vec![2, 6], (0..12).map(|i| i as f32 * 0.4 - 2.1).collect());
        warm_arena_matches_fresh(Relu::new, input.clone());
        let boxed = input.reshape(vec![2, 2, 3]);
        warm_arena_matches_fresh(Flatten::new, boxed);
    }

    #[test]
    fn conv_arena_path_is_bit_identical() {
        warm_arena_matches_fresh(|| Conv2d::new(2, 3, 3, 1, &mut rng()), conv_input());
    }

    /// The one documented divergence of the conv lowering from its frozen
    /// reference: the sign of a zero output, reachable only through a
    /// `-0.0` bias. Two single-output cases reach it from both sides: a
    /// zero weight (the reference adds `1.0 · 0.0`, the lowering skips it)
    /// and padded taps (the lowering adds `+0.0` products the reference
    /// never forms, before the in-bounds `-0.0` one).
    #[test]
    fn conv_signed_zero_divergence_needs_a_negative_zero_bias() {
        let cases = [
            // (k, pad, weight, input): 1×1 zero weight; 3×3 ones over a
            // padded 1×1 input of -0.0.
            (1, 0, vec![0.0], vec![1.0]),
            (3, 1, vec![1.0; 9], vec![-0.0]),
        ];
        for (k, pad, weight, x) in cases {
            let input = Tensor::from_vec(vec![1, 1, 1, 1], x);
            let w = Tensor::from_vec(vec![1, 1, k, k], weight);
            let mut layer = Conv2d::new(1, 1, k, pad, &mut rng());
            layer.w.data_mut().copy_from_slice(w.data());
            for bias in [0.0f32, -0.0] {
                layer.b[0] = bias;
                let lowered = forward(&mut layer, &input, false).data()[0];
                let naive = conv_forward_naive(&input, &w, &[bias], pad).data()[0];
                assert_eq!(lowered, naive, "values agree");
                assert_eq!(lowered, 0.0);
                if bias.is_sign_positive() {
                    assert_eq!(lowered.to_bits(), naive.to_bits(), "k={k}: +0.0 bias");
                } else {
                    assert_ne!(
                        lowered.is_sign_negative(),
                        naive.is_sign_negative(),
                        "k={k}: only a -0.0 bias flips the zero's sign"
                    );
                }
            }
        }
    }

    #[test]
    fn dense_forward_applies_bias() {
        let mut rng = rng();
        let mut layer = Dense::new(2, 2, &mut rng);
        edit_param(&mut layer, 0, |w| w.copy_from_slice(&[1.0, 0.0, 0.0, 1.0])); // identity W
        edit_param(&mut layer, 1, |b| b.copy_from_slice(&[10.0, 20.0]));
        let out = forward(
            &mut layer,
            &Tensor::from_vec(vec![1, 2], vec![1.0, 2.0]),
            false,
        );
        assert_eq!(out.data(), &[11.0, 22.0]);
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut layer = Relu::new();
        let input = Tensor::from_vec(vec![1, 3], vec![-1.0, 0.0, 2.0]);
        let out = forward(&mut layer, &input, false);
        assert_eq!(out.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn conv_same_padding_preserves_hw() {
        let mut rng = rng();
        let mut layer = Conv2d::new(3, 8, 3, 1, &mut rng);
        let out = forward(&mut layer, &Tensor::zeros(vec![2, 3, 8, 8]), false);
        assert_eq!(out.shape(), &[2, 8, 8, 8]);
    }

    #[test]
    fn conv_valid_padding_shrinks_hw() {
        let mut rng = rng();
        let mut layer = Conv2d::new(1, 1, 3, 0, &mut rng);
        let out = forward(&mut layer, &Tensor::zeros(vec![1, 1, 8, 8]), false);
        assert_eq!(out.shape(), &[1, 1, 6, 6]);
    }

    #[test]
    fn flatten_round_trips_shape() {
        let mut layer = Flatten::new();
        let input = Tensor::zeros(vec![2, 3, 4, 5]);
        let out = forward(&mut layer, &input, true);
        assert_eq!(out.shape(), &[2, 60]);
        let back = backward(&mut layer, &out);
        assert_eq!(back.shape(), &[2, 3, 4, 5]);
    }

    #[test]
    fn param_counts() {
        let mut rng = rng();
        let dense = Dense::new(10, 5, &mut rng);
        assert_eq!(dense.param_count(), 10 * 5 + 5);
        let conv = Conv2d::new(3, 8, 3, 1, &mut rng);
        assert_eq!(conv.param_count(), 8 * 3 * 3 * 3 + 8);
        assert_eq!(Relu::new().param_count(), 0);
        assert_eq!(Flatten::new().param_count(), 0);
    }

    #[test]
    fn zero_grads_resets_accumulation() {
        let mut rng = rng();
        let mut layer = Dense::new(2, 2, &mut rng);
        let input = Tensor::from_vec(vec![1, 2], vec![1.0, 1.0]);
        let out = forward(&mut layer, &input, true);
        let ones = Tensor::from_vec(vec![1, 2], vec![1.0; out.len()]);
        backward(&mut layer, &ones);
        assert!(grads(&layer)[0].iter().any(|g| *g != 0.0));
        layer.zero_grads();
        assert!(grads(&layer).iter().flatten().all(|g| *g == 0.0));
    }
}
