//! Transformer building blocks: multi-head attention, feed-forward network,
//! layer normalisation, encoder and decoder layers.
//!
//! Every layer owns its weights as plain [`Matrix`] values and exposes two
//! operations:
//!
//! * `collect` / `collect_mut` — enumerate `(name, matrix)` pairs under a
//!   prefix, used to build the model-wide parameter list;
//! * `forward` — run the layer inside a [`Graph`], looking its weights up in
//!   the [`ParamBindings`] created by the owning model (so pruning masks are
//!   applied uniformly in one place).

use crate::model::ParamBindings;
use rand::Rng;
use rt3_tensor::{Graph, Matrix, Var};

/// Multi-head attention with separate query/key/value/output projections.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiHeadAttention {
    /// Query projection, `hidden x hidden`.
    pub wq: Matrix,
    /// Key projection, `hidden x hidden`.
    pub wk: Matrix,
    /// Value projection, `hidden x hidden`.
    pub wv: Matrix,
    /// Output projection, `hidden x hidden`.
    pub wo: Matrix,
    /// Query bias, `1 x hidden`.
    pub bq: Matrix,
    /// Key bias, `1 x hidden`.
    pub bk: Matrix,
    /// Value bias, `1 x hidden`.
    pub bv: Matrix,
    /// Output bias, `1 x hidden`.
    pub bo: Matrix,
    num_heads: usize,
}

impl MultiHeadAttention {
    /// Creates a randomly initialised attention layer.
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is not divisible by `num_heads`.
    pub fn new<R: Rng + ?Sized>(hidden: usize, num_heads: usize, rng: &mut R) -> Self {
        assert_eq!(
            hidden % num_heads,
            0,
            "hidden must divide evenly into heads"
        );
        Self {
            wq: Matrix::xavier(hidden, hidden, rng),
            wk: Matrix::xavier(hidden, hidden, rng),
            wv: Matrix::xavier(hidden, hidden, rng),
            wo: Matrix::xavier(hidden, hidden, rng),
            bq: Matrix::zeros(1, hidden),
            bk: Matrix::zeros(1, hidden),
            bv: Matrix::zeros(1, hidden),
            bo: Matrix::zeros(1, hidden),
            num_heads,
        }
    }

    /// Number of attention heads.
    pub fn num_heads(&self) -> usize {
        self.num_heads
    }

    /// Appends `(name, matrix)` pairs under `prefix`.
    pub fn collect<'a>(&'a self, prefix: &str, out: &mut Vec<(String, &'a Matrix)>) {
        out.push((format!("{prefix}.wq"), &self.wq));
        out.push((format!("{prefix}.wk"), &self.wk));
        out.push((format!("{prefix}.wv"), &self.wv));
        out.push((format!("{prefix}.wo"), &self.wo));
        out.push((format!("{prefix}.bq"), &self.bq));
        out.push((format!("{prefix}.bk"), &self.bk));
        out.push((format!("{prefix}.bv"), &self.bv));
        out.push((format!("{prefix}.bo"), &self.bo));
    }

    /// Appends mutable `(name, matrix)` pairs under `prefix` in the same
    /// order as [`MultiHeadAttention::collect`].
    pub fn collect_mut<'a>(&'a mut self, prefix: &str, out: &mut Vec<(String, &'a mut Matrix)>) {
        out.push((format!("{prefix}.wq"), &mut self.wq));
        out.push((format!("{prefix}.wk"), &mut self.wk));
        out.push((format!("{prefix}.wv"), &mut self.wv));
        out.push((format!("{prefix}.wo"), &mut self.wo));
        out.push((format!("{prefix}.bq"), &mut self.bq));
        out.push((format!("{prefix}.bk"), &mut self.bk));
        out.push((format!("{prefix}.bv"), &mut self.bv));
        out.push((format!("{prefix}.bo"), &mut self.bo));
    }

    /// Runs causal attention with `query` attending over `memory`
    /// (self-attention when they are the same variable): query position `i`
    /// may only attend to memory positions `<= i`.
    pub fn forward(
        &self,
        g: &mut Graph,
        bindings: &ParamBindings,
        prefix: &str,
        query: Var,
        memory: Var,
    ) -> Var {
        let hidden = g.value(query).cols();
        let head_dim = hidden / self.num_heads;
        let wq = bindings.var(&format!("{prefix}.wq"));
        let wk = bindings.var(&format!("{prefix}.wk"));
        let wv = bindings.var(&format!("{prefix}.wv"));
        let wo = bindings.var(&format!("{prefix}.wo"));
        let bq = bindings.var(&format!("{prefix}.bq"));
        let bk = bindings.var(&format!("{prefix}.bk"));
        let bv = bindings.var(&format!("{prefix}.bv"));
        let bo = bindings.var(&format!("{prefix}.bo"));

        let q_proj = g.matmul(query, wq);
        let q_proj = g.add_row_broadcast(q_proj, bq);
        let k_proj = g.matmul(memory, wk);
        let k_proj = g.add_row_broadcast(k_proj, bk);
        let v_proj = g.matmul(memory, wv);
        let v_proj = g.add_row_broadcast(v_proj, bv);

        let seq_q = g.value(q_proj).rows();
        let seq_k = g.value(k_proj).rows();
        let causal_mask = g.constant(causal_bias(seq_q, seq_k));

        let mut head_outputs = Vec::with_capacity(self.num_heads);
        for h in 0..self.num_heads {
            let start = h * head_dim;
            let end = start + head_dim;
            let qh = g.slice_cols(q_proj, start, end);
            let kh = g.slice_cols(k_proj, start, end);
            let vh = g.slice_cols(v_proj, start, end);
            let kht = g.transpose(kh);
            let scores = g.matmul(qh, kht);
            let scaled = g.scale(scores, 1.0 / (head_dim as f32).sqrt());
            let biased = g.add(scaled, causal_mask);
            let attn = g.softmax_rows(biased);
            let out = g.matmul(attn, vh);
            head_outputs.push(out);
        }
        let concat = g.concat_cols(&head_outputs);
        let projected = g.matmul(concat, wo);
        g.add_row_broadcast(projected, bo)
    }
}

/// Additive causal bias: 0 where attention is allowed, a large negative value
/// where a query would look into the future.
fn causal_bias(seq_q: usize, seq_k: usize) -> Matrix {
    Matrix::from_fn(seq_q, seq_k, |i, j| if j > i { -1e9 } else { 0.0 })
}

/// Position-wise feed-forward network (two linear layers with GELU).
#[derive(Debug, Clone, PartialEq)]
pub struct FeedForward {
    /// First projection, `hidden x ffn_dim`.
    pub w1: Matrix,
    /// First bias, `1 x ffn_dim`.
    pub b1: Matrix,
    /// Second projection, `ffn_dim x hidden`.
    pub w2: Matrix,
    /// Second bias, `1 x hidden`.
    pub b2: Matrix,
}

impl FeedForward {
    /// Creates a randomly initialised feed-forward block.
    pub fn new<R: Rng + ?Sized>(hidden: usize, ffn_dim: usize, rng: &mut R) -> Self {
        Self {
            w1: Matrix::xavier(hidden, ffn_dim, rng),
            b1: Matrix::zeros(1, ffn_dim),
            w2: Matrix::xavier(ffn_dim, hidden, rng),
            b2: Matrix::zeros(1, hidden),
        }
    }

    /// Appends `(name, matrix)` pairs under `prefix`.
    pub fn collect<'a>(&'a self, prefix: &str, out: &mut Vec<(String, &'a Matrix)>) {
        out.push((format!("{prefix}.w1"), &self.w1));
        out.push((format!("{prefix}.b1"), &self.b1));
        out.push((format!("{prefix}.w2"), &self.w2));
        out.push((format!("{prefix}.b2"), &self.b2));
    }

    /// Appends mutable `(name, matrix)` pairs under `prefix`.
    pub fn collect_mut<'a>(&'a mut self, prefix: &str, out: &mut Vec<(String, &'a mut Matrix)>) {
        out.push((format!("{prefix}.w1"), &mut self.w1));
        out.push((format!("{prefix}.b1"), &mut self.b1));
        out.push((format!("{prefix}.w2"), &mut self.w2));
        out.push((format!("{prefix}.b2"), &mut self.b2));
    }

    /// Runs the feed-forward block on `x`.
    pub fn forward(&self, g: &mut Graph, bindings: &ParamBindings, prefix: &str, x: Var) -> Var {
        let w1 = bindings.var(&format!("{prefix}.w1"));
        let b1 = bindings.var(&format!("{prefix}.b1"));
        let w2 = bindings.var(&format!("{prefix}.w2"));
        let b2 = bindings.var(&format!("{prefix}.b2"));
        let h = g.matmul(x, w1);
        let h = g.add_row_broadcast(h, b1);
        let h = g.gelu(h);
        let out = g.matmul(h, w2);
        g.add_row_broadcast(out, b2)
    }
}

/// Learnable layer-normalisation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerNormParams {
    /// Scale, `1 x hidden`.
    pub gamma: Matrix,
    /// Shift, `1 x hidden`.
    pub beta: Matrix,
}

impl LayerNormParams {
    /// Creates identity layer-norm parameters (`gamma = 1`, `beta = 0`).
    pub fn new(hidden: usize) -> Self {
        Self {
            gamma: Matrix::filled(1, hidden, 1.0),
            beta: Matrix::zeros(1, hidden),
        }
    }

    /// Appends `(name, matrix)` pairs under `prefix`.
    pub fn collect<'a>(&'a self, prefix: &str, out: &mut Vec<(String, &'a Matrix)>) {
        out.push((format!("{prefix}.gamma"), &self.gamma));
        out.push((format!("{prefix}.beta"), &self.beta));
    }

    /// Appends mutable `(name, matrix)` pairs under `prefix`.
    pub fn collect_mut<'a>(&'a mut self, prefix: &str, out: &mut Vec<(String, &'a mut Matrix)>) {
        out.push((format!("{prefix}.gamma"), &mut self.gamma));
        out.push((format!("{prefix}.beta"), &mut self.beta));
    }

    /// Applies layer normalisation to `x`.
    pub fn forward(&self, g: &mut Graph, bindings: &ParamBindings, prefix: &str, x: Var) -> Var {
        let gamma = bindings.var(&format!("{prefix}.gamma"));
        let beta = bindings.var(&format!("{prefix}.beta"));
        g.layer_norm_rows(x, gamma, beta)
    }
}

/// One Transformer encoder layer (post-norm: `LN(x + Sublayer(x))`).
#[derive(Debug, Clone, PartialEq)]
pub struct EncoderLayer {
    /// Self-attention block.
    pub attn: MultiHeadAttention,
    /// Normalisation after attention.
    pub norm1: LayerNormParams,
    /// Feed-forward block.
    pub ffn: FeedForward,
    /// Normalisation after the feed-forward block.
    pub norm2: LayerNormParams,
}

impl EncoderLayer {
    /// Creates a randomly initialised encoder layer.
    pub fn new<R: Rng + ?Sized>(hidden: usize, heads: usize, ffn_dim: usize, rng: &mut R) -> Self {
        Self {
            attn: MultiHeadAttention::new(hidden, heads, rng),
            norm1: LayerNormParams::new(hidden),
            ffn: FeedForward::new(hidden, ffn_dim, rng),
            norm2: LayerNormParams::new(hidden),
        }
    }

    /// Appends `(name, matrix)` pairs under `prefix`.
    pub fn collect<'a>(&'a self, prefix: &str, out: &mut Vec<(String, &'a Matrix)>) {
        self.attn.collect(&format!("{prefix}.attn"), out);
        self.norm1.collect(&format!("{prefix}.norm1"), out);
        self.ffn.collect(&format!("{prefix}.ffn"), out);
        self.norm2.collect(&format!("{prefix}.norm2"), out);
    }

    /// Appends mutable `(name, matrix)` pairs under `prefix`.
    pub fn collect_mut<'a>(&'a mut self, prefix: &str, out: &mut Vec<(String, &'a mut Matrix)>) {
        self.attn.collect_mut(&format!("{prefix}.attn"), out);
        self.norm1.collect_mut(&format!("{prefix}.norm1"), out);
        self.ffn.collect_mut(&format!("{prefix}.ffn"), out);
        self.norm2.collect_mut(&format!("{prefix}.norm2"), out);
    }

    /// Runs the encoder layer on `x` with causal self-attention, as needed
    /// for language modelling.
    pub fn forward(&self, g: &mut Graph, bindings: &ParamBindings, prefix: &str, x: Var) -> Var {
        let attn_out = self
            .attn
            .forward(g, bindings, &format!("{prefix}.attn"), x, x);
        let residual1 = g.add(x, attn_out);
        let x1 = self
            .norm1
            .forward(g, bindings, &format!("{prefix}.norm1"), residual1);
        let ffn_out = self.ffn.forward(g, bindings, &format!("{prefix}.ffn"), x1);
        let residual2 = g.add(x1, ffn_out);
        self.norm2
            .forward(g, bindings, &format!("{prefix}.norm2"), residual2)
    }
}

/// One Transformer decoder layer: causal self-attention, causal
/// cross-attention to the encoder output, then a feed-forward block.
#[derive(Debug, Clone, PartialEq)]
pub struct DecoderLayer {
    /// Causal self-attention block.
    pub self_attn: MultiHeadAttention,
    /// Normalisation after self-attention.
    pub norm1: LayerNormParams,
    /// Causal cross-attention block over the encoder memory.
    pub cross_attn: MultiHeadAttention,
    /// Normalisation after cross-attention.
    pub norm2: LayerNormParams,
    /// Feed-forward block.
    pub ffn: FeedForward,
    /// Normalisation after the feed-forward block.
    pub norm3: LayerNormParams,
}

impl DecoderLayer {
    /// Creates a randomly initialised decoder layer.
    pub fn new<R: Rng + ?Sized>(hidden: usize, heads: usize, ffn_dim: usize, rng: &mut R) -> Self {
        Self {
            self_attn: MultiHeadAttention::new(hidden, heads, rng),
            norm1: LayerNormParams::new(hidden),
            cross_attn: MultiHeadAttention::new(hidden, heads, rng),
            norm2: LayerNormParams::new(hidden),
            ffn: FeedForward::new(hidden, ffn_dim, rng),
            norm3: LayerNormParams::new(hidden),
        }
    }

    /// Appends `(name, matrix)` pairs under `prefix`.
    pub fn collect<'a>(&'a self, prefix: &str, out: &mut Vec<(String, &'a Matrix)>) {
        self.self_attn.collect(&format!("{prefix}.self_attn"), out);
        self.norm1.collect(&format!("{prefix}.norm1"), out);
        self.cross_attn
            .collect(&format!("{prefix}.cross_attn"), out);
        self.norm2.collect(&format!("{prefix}.norm2"), out);
        self.ffn.collect(&format!("{prefix}.ffn"), out);
        self.norm3.collect(&format!("{prefix}.norm3"), out);
    }

    /// Appends mutable `(name, matrix)` pairs under `prefix`.
    pub fn collect_mut<'a>(&'a mut self, prefix: &str, out: &mut Vec<(String, &'a mut Matrix)>) {
        self.self_attn
            .collect_mut(&format!("{prefix}.self_attn"), out);
        self.norm1.collect_mut(&format!("{prefix}.norm1"), out);
        self.cross_attn
            .collect_mut(&format!("{prefix}.cross_attn"), out);
        self.norm2.collect_mut(&format!("{prefix}.norm2"), out);
        self.ffn.collect_mut(&format!("{prefix}.ffn"), out);
        self.norm3.collect_mut(&format!("{prefix}.norm3"), out);
    }

    /// Runs the decoder layer on `x` with cross-attention over `memory`.
    /// The language model's memory encodes the same sequence, so the
    /// cross-attention is causal too: without it, position `i` would read
    /// the encoding of the token it is trained to predict.
    pub fn forward(
        &self,
        g: &mut Graph,
        bindings: &ParamBindings,
        prefix: &str,
        x: Var,
        memory: Var,
    ) -> Var {
        let self_out = self
            .self_attn
            .forward(g, bindings, &format!("{prefix}.self_attn"), x, x);
        let residual1 = g.add(x, self_out);
        let x1 = self
            .norm1
            .forward(g, bindings, &format!("{prefix}.norm1"), residual1);
        let cross_out =
            self.cross_attn
                .forward(g, bindings, &format!("{prefix}.cross_attn"), x1, memory);
        let residual2 = g.add(x1, cross_out);
        let x2 = self
            .norm2
            .forward(g, bindings, &format!("{prefix}.norm2"), residual2);
        let ffn_out = self.ffn.forward(g, bindings, &format!("{prefix}.ffn"), x2);
        let residual3 = g.add(x2, ffn_out);
        self.norm3
            .forward(g, bindings, &format!("{prefix}.norm3"), residual3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn causal_bias_blocks_future_positions() {
        let bias = causal_bias(3, 3);
        assert_eq!(bias.get(0, 0), 0.0);
        assert_eq!(bias.get(1, 0), 0.0);
        assert!(bias.get(0, 2) < -1e8);
        assert!(bias.get(1, 2) < -1e8);
    }

    #[test]
    fn attention_collect_orders_match() {
        let mut rng = rand::rngs::mock::StepRng::new(1, 7);
        let mut attn = MultiHeadAttention::new(8, 2, &mut rng);
        let mut names_a = Vec::new();
        attn.collect("x", &mut names_a);
        let names_a: Vec<String> = names_a.into_iter().map(|(n, _)| n).collect();
        let mut names_b = Vec::new();
        attn.collect_mut("x", &mut names_b);
        let names_b: Vec<String> = names_b.into_iter().map(|(n, _)| n).collect();
        assert_eq!(names_a, names_b);
        assert_eq!(names_a.len(), 8);
    }
}
