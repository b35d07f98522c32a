//! A dense (fully connected) layer with explicit forward/backward passes.

use crate::activation::Activation;
use crate::init::Init;
use fv_linalg::{GemmScratch, Matrix};
use rand::Rng;
use rayon::prelude::*;

/// A dense layer `y = act(x Wᵀ + b)`.
///
/// Weights are stored `[out, in]` (one row per output unit) so both the
/// forward product and the weight-gradient product walk contiguous rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    /// Weight matrix, shape `[out, in]`.
    pub weights: Matrix<f32>,
    /// Bias vector, length `out`.
    pub bias: Vec<f32>,
    /// Activation applied element-wise.
    pub activation: Activation,
    /// Whether the trainer may update this layer (fine-tuning Case 2
    /// freezes all but the last two layers).
    pub trainable: bool,
}

/// Cached intermediates from a forward pass, needed by backward.
#[derive(Debug)]
pub struct ForwardCache {
    /// The layer input `[batch, in]`.
    pub input: Matrix<f32>,
    /// Pre-activation values `[batch, out]`.
    pub pre: Matrix<f32>,
}

/// Parameter gradients produced by a backward pass.
#[derive(Debug, Clone)]
pub struct DenseGrads {
    /// `dL/dW`, shape `[out, in]`.
    pub weights: Matrix<f32>,
    /// `dL/db`, length `out`.
    pub bias: Vec<f32>,
}

impl Dense {
    /// A new layer with the given fan-in/out, activation and initializer.
    pub fn new(
        input: usize,
        output: usize,
        activation: Activation,
        init: Init,
        rng: &mut impl Rng,
    ) -> Self {
        Self {
            weights: init.matrix(output, input, rng),
            bias: vec![0.0; output],
            activation,
            trainable: true,
        }
    }

    /// Input width.
    pub fn input_size(&self) -> usize {
        self.weights.cols()
    }

    /// Output width.
    pub fn output_size(&self) -> usize {
        self.weights.rows()
    }

    /// Number of learnable parameters.
    pub fn num_params(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.len()
    }

    /// Forward pass over a `[batch, in]` matrix; returns the activated
    /// output `[batch, out]` and the cache for backward.
    pub fn forward(&self, input: Matrix<f32>) -> (Matrix<f32>, ForwardCache) {
        // x Wᵀ: both operands walk rows contiguously.
        let mut pre = input
            .matmul_transpose_b(&self.weights)
            .expect("layer width checked by Mlp::forward");
        let width = self.output_size();
        let bias = &self.bias;
        pre.as_mut_slice().par_chunks_mut(width).for_each(|row| {
            for (v, &b) in row.iter_mut().zip(bias.iter()) {
                *v += b;
            }
        });
        let act = self.activation;
        let out_data: Vec<f32> = pre.as_slice().par_iter().map(|&v| act.apply(v)).collect();
        let out = Matrix::from_vec(pre.rows(), pre.cols(), out_data)
            .expect("same shape as pre-activation");
        (out, ForwardCache { input, pre })
    }

    /// Inference-only forward (no cache).
    pub fn infer(&self, input: &Matrix<f32>) -> Matrix<f32> {
        let mut pre = input
            .matmul_transpose_b(&self.weights)
            .expect("layer width checked by Mlp::forward");
        let act = self.activation;
        let width = self.output_size();
        let bias = &self.bias;
        pre.as_mut_slice().par_chunks_mut(width).for_each(|row| {
            for (v, &b) in row.iter_mut().zip(bias.iter()) {
                *v = act.apply(*v + b);
            }
        });
        pre
    }

    /// Fused workspace forward: `pre = x Wᵀ + b` and `act = act(pre)`, both
    /// written into caller-provided buffers through the packed-GEMM kernel
    /// with the bias+activation applied at tile write-back.
    /// Bitwise-identical to [`Self::forward`] (each element's product is
    /// fully summed, then biased, then activated) without its allocations.
    pub(crate) fn forward_into(
        &self,
        input: &Matrix<f32>,
        pre: &mut Matrix<f32>,
        act_out: &mut Matrix<f32>,
        gemm: &mut GemmScratch<f32>,
    ) {
        let act = self.activation;
        input
            .matmul_bias_act_into_with(
                &self.weights,
                &self.bias,
                |v| act.apply(v),
                Some(pre),
                act_out,
                gemm,
            )
            .expect("layer width checked by Mlp");
    }

    /// Inference forward into a caller-provided buffer; the counterpart of
    /// [`Self::infer`] for the streaming reconstruct path. The fused
    /// epilogue writes `act(x Wᵀ + b)` straight out of the GEMM tiles —
    /// no separate bias/activation sweep, no pre-activation buffer.
    pub(crate) fn infer_into(
        &self,
        input: &Matrix<f32>,
        out: &mut Matrix<f32>,
        gemm: &mut GemmScratch<f32>,
    ) {
        let act = self.activation;
        input
            .matmul_bias_act_into_with(&self.weights, &self.bias, |v| act.apply(v), None, out, gemm)
            .expect("layer width checked by Mlp");
    }

    /// Backward pass: given `dL/d(output)` `[batch, out]` and the forward
    /// cache, produce parameter gradients and `dL/d(input)` `[batch, in]`.
    pub fn backward(
        &self,
        mut grad_out: Matrix<f32>,
        cache: &ForwardCache,
    ) -> (DenseGrads, Matrix<f32>) {
        // dZ = dA ⊙ act'(Z)
        let act = self.activation;
        grad_out
            .as_mut_slice()
            .par_iter_mut()
            .zip(cache.pre.as_slice().par_iter())
            .for_each(|(g, &z)| *g *= act.derivative(z));
        // dW = dZᵀ · X  -> [out, in]
        let dw = grad_out
            .transpose_a_matmul(&cache.input)
            .expect("shapes match by construction");
        // db = column sums of dZ. Row chunks fold locally and merge in
        // chunk order, so the sum is reproducible at any thread count.
        let width = self.output_size();
        let db = grad_out
            .as_slice()
            .par_chunks(width)
            .fold(
                || vec![0.0f32; width],
                |mut acc, row| {
                    for (b, &g) in acc.iter_mut().zip(row.iter()) {
                        *b += g;
                    }
                    acc
                },
            )
            .reduce(
                || vec![0.0f32; width],
                |mut a, b| {
                    for (x, &y) in a.iter_mut().zip(b.iter()) {
                        *x += y;
                    }
                    a
                },
            );
        // dX = dZ · W -> [batch, in]
        let dx = grad_out
            .matmul(&self.weights)
            .expect("shapes match by construction");
        (
            DenseGrads {
                weights: dw,
                bias: db,
            },
            dx,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    fn layer_with(w: Vec<f32>, b: Vec<f32>, act: Activation, input: usize) -> Dense {
        let out = b.len();
        Dense {
            weights: Matrix::from_vec(out, input, w).unwrap(),
            bias: b,
            activation: act,
            trainable: true,
        }
    }

    #[test]
    fn forward_known_values() {
        // y = relu(x W^T + b); W = [[1, 2], [0, -1]], b = [0.5, 0]
        let l = layer_with(vec![1.0, 2.0, 0.0, -1.0], vec![0.5, 0.0], Activation::Relu, 2);
        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]).unwrap();
        let (y, _) = l.forward(x);
        // pre = [1*1+1*2+0.5, 1*0+1*(-1)+0] = [3.5, -1] -> relu -> [3.5, 0]
        assert_eq!(y.as_slice(), &[3.5, 0.0]);
    }

    #[test]
    fn infer_matches_forward() {
        let mut r = rng();
        let l = Dense::new(5, 3, Activation::Tanh, Init::HeNormal, &mut r);
        let x = Matrix::from_fn(4, 5, |i, j| (i as f32 - j as f32) * 0.3);
        let (y, _) = l.forward(x.clone());
        assert_eq!(l.infer(&x), y);
    }

    #[test]
    fn gradient_check_weights_and_bias() {
        // Numerical gradient check of L = sum(output) wrt every parameter.
        let mut r = rng();
        let mut l = Dense::new(3, 2, Activation::Tanh, Init::XavierUniform, &mut r);
        let x = Matrix::from_vec(2, 3, vec![0.1, -0.2, 0.3, 0.4, 0.5, -0.6]).unwrap();

        let loss = |layer: &Dense| -> f32 { layer.infer(&x).as_slice().iter().sum() };

        let (y, cache) = l.forward(x.clone());
        let ones = Matrix::filled(y.rows(), y.cols(), 1.0f32);
        let (grads, dx) = l.backward(ones, &cache);

        let h = 1e-3f32;
        for r_i in 0..2 {
            for c_i in 0..3 {
                let orig = l.weights[(r_i, c_i)];
                l.weights[(r_i, c_i)] = orig + h;
                let up = loss(&l);
                l.weights[(r_i, c_i)] = orig - h;
                let down = loss(&l);
                l.weights[(r_i, c_i)] = orig;
                let fd = (up - down) / (2.0 * h);
                let an = grads.weights[(r_i, c_i)];
                assert!((fd - an).abs() < 2e-2, "dW[{r_i},{c_i}]: fd {fd} an {an}");
            }
        }
        for b_i in 0..2 {
            let orig = l.bias[b_i];
            l.bias[b_i] = orig + h;
            let up = loss(&l);
            l.bias[b_i] = orig - h;
            let down = loss(&l);
            l.bias[b_i] = orig;
            let fd = (up - down) / (2.0 * h);
            assert!((fd - grads.bias[b_i]).abs() < 2e-2, "db[{b_i}]");
        }
        // dX check for one entry
        let probe = (0usize, 1usize);
        let mut x2 = x.clone();
        x2[(probe.0, probe.1)] += h;
        let up: f32 = l.infer(&x2).as_slice().iter().sum();
        x2[(probe.0, probe.1)] -= 2.0 * h;
        let down: f32 = l.infer(&x2).as_slice().iter().sum();
        let fd = (up - down) / (2.0 * h);
        assert!((fd - dx[(probe.0, probe.1)]).abs() < 2e-2, "dX");
    }

    #[test]
    fn relu_blocks_gradient_through_dead_units() {
        let l = layer_with(vec![1.0], vec![-10.0], Activation::Relu, 1);
        let x = Matrix::from_vec(1, 1, vec![1.0]).unwrap();
        let (y, cache) = l.forward(x);
        assert_eq!(y.as_slice(), &[0.0]); // dead unit
        let (grads, dx) = l.backward(Matrix::filled(1, 1, 1.0), &cache);
        assert_eq!(grads.weights.as_slice(), &[0.0]);
        assert_eq!(grads.bias, vec![0.0]);
        assert_eq!(dx.as_slice(), &[0.0]);
    }

    #[test]
    fn param_count() {
        let mut r = rng();
        let l = Dense::new(23, 512, Activation::Relu, Init::HeNormal, &mut r);
        assert_eq!(l.num_params(), 23 * 512 + 512);
        assert_eq!(l.input_size(), 23);
        assert_eq!(l.output_size(), 512);
    }
}
