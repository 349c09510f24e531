//! The model the paper prunes in its WikiText-2 experiments: a small
//! encoder–decoder Transformer language model, and the [`Model`] interface
//! the pruning, search and serving layers see it through.

use crate::config::TransformerConfig;
use crate::layers::{DecoderLayer, EncoderLayer};
use crate::masks::MaskSet;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rt3_data::LmBatch;
use rt3_tensor::{Graph, Matrix, Var};
use std::collections::HashMap;

/// Handles to the model parameters registered in a [`Graph`] for one forward
/// pass: the raw leaves (which receive gradients) and the *effective*
/// variables actually used by the layers (masked when a pruning mask exists).
#[derive(Debug)]
pub struct ParamBindings {
    order: Vec<String>,
    leaves: HashMap<String, Var>,
    effective: HashMap<String, Var>,
}

impl ParamBindings {
    /// Builds bindings for `parameters`, applying any masks in `masks`.
    pub fn bind(g: &mut Graph, parameters: &[(String, &Matrix)], masks: Option<&MaskSet>) -> Self {
        let mut order = Vec::with_capacity(parameters.len());
        let mut leaves = HashMap::with_capacity(parameters.len());
        let mut effective = HashMap::with_capacity(parameters.len());
        for (name, value) in parameters {
            let leaf = g.leaf((*value).clone());
            let eff = match masks.and_then(|m| m.get(name)) {
                Some(mask) => {
                    assert_eq!(
                        mask.shape(),
                        value.shape(),
                        "mask shape mismatch for parameter {}",
                        name
                    );
                    g.mul_const(leaf, mask)
                }
                None => leaf,
            };
            order.push(name.clone());
            leaves.insert(name.clone(), leaf);
            effective.insert(name.clone(), eff);
        }
        Self {
            order,
            leaves,
            effective,
        }
    }

    /// The effective (possibly masked) variable for `name`.
    ///
    /// # Panics
    ///
    /// Panics if the parameter was not bound.
    pub fn var(&self, name: &str) -> Var {
        *self
            .effective
            .get(name)
            .unwrap_or_else(|| panic!("parameter {} was not bound", name))
    }

    /// The raw leaf variable (gradient target) for `name`.
    ///
    /// # Panics
    ///
    /// Panics if the parameter was not bound.
    pub fn leaf(&self, name: &str) -> Var {
        *self
            .leaves
            .get(name)
            .unwrap_or_else(|| panic!("parameter {} was not bound", name))
    }

    /// Parameter names in binding order (identical to the model's parameter
    /// order).
    pub fn names(&self) -> &[String] {
        &self.order
    }
}

/// Common interface of a prunable model.
pub trait Model {
    /// The model's configuration.
    fn config(&self) -> &TransformerConfig;

    /// All parameters as `(name, matrix)` pairs in a stable order.
    fn parameters(&self) -> Vec<(String, &Matrix)>;

    /// All parameters mutably, in the same order as [`Model::parameters`].
    fn parameters_mut(&mut self) -> Vec<(String, &mut Matrix)>;

    /// Names of the parameters eligible for pruning: the two-dimensional
    /// projection weights (attention, feed-forward and output heads).
    /// Embeddings, biases and layer-norm parameters are never pruned, which
    /// matches the paper's setup.
    fn prunable_parameter_names(&self) -> Vec<String> {
        self.parameters()
            .iter()
            .filter(|(name, m)| {
                m.rows() > 1
                    && m.cols() > 1
                    && !name.contains("embedding")
                    && !name.contains("norm")
            })
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// Total number of scalar parameters.
    fn num_parameters(&self) -> usize {
        self.parameters().iter().map(|(_, m)| m.len()).sum()
    }

    /// A named parameter, if it exists.
    ///
    /// The default implementation rebuilds the whole [`Model::parameters`]
    /// list (one formatted name per parameter) on every call, so do not
    /// call it per element or per block: resolve the weights once from
    /// [`Model::parameters`] and index them instead.
    fn parameter(&self, name: &str) -> Option<&Matrix> {
        self.parameters()
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, m)| m)
    }

    /// Registers every parameter in `g`, applying `masks`.
    fn bind(&self, g: &mut Graph, masks: Option<&MaskSet>) -> ParamBindings {
        ParamBindings::bind(g, &self.parameters(), masks)
    }

    /// Overwrites each masked parameter with its masked value (permanently
    /// zeroing pruned weights). Used when a pruning decision is frozen into
    /// the backbone model.
    fn apply_masks_permanently(&mut self, masks: &MaskSet) {
        for (name, param) in self.parameters_mut() {
            if let Some(mask) = masks.get(&name) {
                assert_eq!(
                    mask.shape(),
                    param.shape(),
                    "mask shape mismatch for {}",
                    name
                );
                *param = param.zip(mask, |w, m| if m != 0.0 { w } else { 0.0 });
            }
        }
    }
}

/// Encoder–decoder Transformer language model (the paper's WikiText-2 model:
/// two encoder layers and one decoder layer in the default preset).
///
/// # Examples
///
/// ```
/// use rt3_transformer::{Model, TransformerConfig, TransformerLm};
///
/// let model = TransformerLm::new(TransformerConfig::tiny(32), 0);
/// assert!(model.num_parameters() > 0);
/// assert!(!model.prunable_parameter_names().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct TransformerLm {
    config: TransformerConfig,
    token_embedding: Matrix,
    pos_embedding: Matrix,
    encoders: Vec<EncoderLayer>,
    decoders: Vec<DecoderLayer>,
    lm_head_w: Matrix,
    lm_head_b: Matrix,
}

impl TransformerLm {
    /// Creates a randomly initialised model.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: TransformerConfig, seed: u64) -> Self {
        config
            .validate()
            .expect("invalid transformer configuration");
        let mut rng = StdRng::seed_from_u64(seed);
        let h = config.hidden_dim;
        let encoders = (0..config.num_encoder_layers)
            .map(|_| EncoderLayer::new(h, config.num_heads, config.ffn_dim, &mut rng))
            .collect();
        let decoders = (0..config.num_decoder_layers)
            .map(|_| DecoderLayer::new(h, config.num_heads, config.ffn_dim, &mut rng))
            .collect();
        Self {
            token_embedding: Matrix::xavier(config.vocab_size, h, &mut rng),
            pos_embedding: Matrix::xavier(config.max_seq_len, h, &mut rng),
            lm_head_w: Matrix::xavier(h, config.vocab_size, &mut rng),
            lm_head_b: Matrix::zeros(1, config.vocab_size),
            encoders,
            decoders,
            config,
        }
    }

    /// Computes next-token logits (`seq_len x vocab`) for one token sequence.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is empty, longer than `max_seq_len`, or
    /// contains out-of-vocabulary ids.
    pub fn logits(&self, g: &mut Graph, bindings: &ParamBindings, tokens: &[usize]) -> Var {
        assert!(!tokens.is_empty(), "token sequence must not be empty");
        assert!(
            tokens.len() <= self.config.max_seq_len,
            "sequence length {} exceeds max_seq_len {}",
            tokens.len(),
            self.config.max_seq_len
        );
        let tok_table = bindings.var("token_embedding");
        let pos_table = bindings.var("pos_embedding");
        let tok = g.gather_rows(tok_table, tokens);
        let positions: Vec<usize> = (0..tokens.len()).collect();
        let pos = g.gather_rows(pos_table, &positions);
        let mut x = g.add(tok, pos);
        for (i, enc) in self.encoders.iter().enumerate() {
            x = enc.forward(g, bindings, &format!("encoder.{i}"), x);
        }
        let memory = x;
        for (i, dec) in self.decoders.iter().enumerate() {
            x = dec.forward(g, bindings, &format!("decoder.{i}"), x, memory);
        }
        let head_w = bindings.var("lm_head.w");
        let head_b = bindings.var("lm_head.b");
        let logits = g.matmul(x, head_w);
        g.add_row_broadcast(logits, head_b)
    }

    /// Mean next-token cross-entropy loss over one batch.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty.
    pub fn batch_loss(&self, g: &mut Graph, bindings: &ParamBindings, batch: &LmBatch) -> Var {
        assert!(!batch.is_empty(), "batch must not be empty");
        let mut losses = Vec::with_capacity(batch.len());
        for (input, target) in batch.inputs.iter().zip(&batch.targets) {
            let logits = self.logits(g, bindings, input);
            losses.push(g.cross_entropy_logits(logits, target));
        }
        let mut total = losses[0];
        for &l in &losses[1..] {
            total = g.add(total, l);
        }
        g.scale(total, 1.0 / losses.len() as f32)
    }

    /// Greedy next-token predictions for one sequence (no gradient tracking).
    pub fn predict(&self, tokens: &[usize], masks: Option<&MaskSet>) -> Vec<usize> {
        let mut g = Graph::new();
        let bindings = self.bind(&mut g, masks);
        let logits = self.logits(&mut g, &bindings, tokens);
        let values = g.value(logits);
        (0..values.rows()).map(|r| values.row_argmax(r)).collect()
    }
}

impl Model for TransformerLm {
    fn config(&self) -> &TransformerConfig {
        &self.config
    }

    fn parameters(&self) -> Vec<(String, &Matrix)> {
        let mut out = Vec::new();
        out.push(("token_embedding".to_string(), &self.token_embedding));
        out.push(("pos_embedding".to_string(), &self.pos_embedding));
        for (i, enc) in self.encoders.iter().enumerate() {
            enc.collect(&format!("encoder.{i}"), &mut out);
        }
        for (i, dec) in self.decoders.iter().enumerate() {
            dec.collect(&format!("decoder.{i}"), &mut out);
        }
        out.push(("lm_head.w".to_string(), &self.lm_head_w));
        out.push(("lm_head.b".to_string(), &self.lm_head_b));
        out
    }

    fn parameters_mut(&mut self) -> Vec<(String, &mut Matrix)> {
        let mut out = Vec::new();
        out.push(("token_embedding".to_string(), &mut self.token_embedding));
        out.push(("pos_embedding".to_string(), &mut self.pos_embedding));
        for (i, enc) in self.encoders.iter_mut().enumerate() {
            enc.collect_mut(&format!("encoder.{i}"), &mut out);
        }
        for (i, dec) in self.decoders.iter_mut().enumerate() {
            dec.collect_mut(&format!("decoder.{i}"), &mut out);
        }
        out.push(("lm_head.w".to_string(), &mut self.lm_head_w));
        out.push(("lm_head.b".to_string(), &mut self.lm_head_b));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_lm() -> TransformerLm {
        TransformerLm::new(TransformerConfig::tiny(32), 42)
    }

    #[test]
    fn parameters_and_parameters_mut_agree_on_order() {
        let mut model = tiny_lm();
        let names: Vec<String> = model.parameters().iter().map(|(n, _)| n.clone()).collect();
        let names_mut: Vec<String> = model
            .parameters_mut()
            .iter()
            .map(|(n, _)| n.clone())
            .collect();
        assert_eq!(names, names_mut);
        assert!(names.contains(&"encoder.0.attn.wq".to_string()));
        assert!(names.contains(&"decoder.0.cross_attn.wo".to_string()));
        assert!(names.contains(&"lm_head.w".to_string()));
    }

    #[test]
    fn prunable_parameters_exclude_embeddings_norms_and_biases() {
        let model = tiny_lm();
        let prunable = model.prunable_parameter_names();
        assert!(prunable.iter().all(|n| !n.contains("embedding")));
        assert!(prunable.iter().all(|n| !n.contains("norm")));
        assert!(prunable.iter().all(|n| !n.ends_with('b')
            && !n.ends_with("bq")
            && !n.ends_with("bk")
            && !n.ends_with("bv")
            && !n.ends_with("bo")));
        assert!(prunable.contains(&"encoder.0.ffn.w1".to_string()));
        assert!(prunable.contains(&"lm_head.w".to_string()));
    }

    #[test]
    fn lm_logits_have_vocab_width() {
        let model = tiny_lm();
        let mut g = Graph::new();
        let bindings = model.bind(&mut g, None);
        let logits = model.logits(&mut g, &bindings, &[1, 2, 3, 4]);
        assert_eq!(g.value(logits).shape(), (4, 32));
    }

    /// Every attention is causal, the decoder's cross-attention over the
    /// encoder memory included, so a later token cannot move an earlier
    /// position's logits by even one bit.
    #[test]
    fn earlier_logits_ignore_later_tokens() {
        let paper = TransformerLm::new(TransformerConfig::paper_transformer(64), 7);
        for model in [tiny_lm(), paper] {
            let logits = |tokens: &[usize]| {
                let mut g = Graph::new();
                let bindings = model.bind(&mut g, None);
                let out = model.logits(&mut g, &bindings, tokens);
                g.value(out).clone()
            };
            let before = logits(&[1, 2, 3, 4, 5, 6]);
            let after = logits(&[1, 2, 3, 4, 5, 17]);
            let earlier = 5 * before.cols();
            let bits =
                |m: &Matrix| -> Vec<u32> { m.as_slice().iter().map(|x| x.to_bits()).collect() };
            assert_eq!(bits(&before)[..earlier], bits(&after)[..earlier]);
            assert_ne!(bits(&before)[earlier..], bits(&after)[earlier..]);
        }
    }

    #[test]
    fn lm_loss_decreases_with_one_gradient_step_on_same_batch() {
        use rt3_tensor::{Optimizer, Sgd};
        let mut model = tiny_lm();
        let batch = LmBatch {
            inputs: vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8]],
            targets: vec![vec![2, 3, 4, 5], vec![6, 7, 8, 9]],
        };
        let loss_before;
        {
            let mut g = Graph::new();
            let bindings = model.bind(&mut g, None);
            let loss = model.batch_loss(&mut g, &bindings, &batch);
            loss_before = g.scalar(loss);
            g.backward(loss);
            let grads: Vec<Matrix> = bindings
                .names()
                .iter()
                .map(|n| g.grad(bindings.leaf(n)).clone())
                .collect();
            let mut opt = Sgd::new(0.5);
            for (slot, ((name, param), grad)) in
                model.parameters_mut().into_iter().zip(grads).enumerate()
            {
                let _ = name;
                opt.step(slot, param, &grad);
            }
        }
        let mut g = Graph::new();
        let bindings = model.bind(&mut g, None);
        let loss = model.batch_loss(&mut g, &bindings, &batch);
        let loss_after = g.scalar(loss);
        assert!(
            loss_after < loss_before,
            "loss should decrease: {} -> {}",
            loss_before,
            loss_after
        );
    }

    #[test]
    fn masked_weights_receive_no_gradient() {
        let model = tiny_lm();
        let mut masks = MaskSet::new();
        let shape = model.parameter("encoder.0.ffn.w1").unwrap().shape();
        masks.insert("encoder.0.ffn.w1", Matrix::zeros(shape.0, shape.1));
        let mut g = Graph::new();
        let bindings = model.bind(&mut g, Some(&masks));
        let batch = LmBatch {
            inputs: vec![vec![1, 2, 3]],
            targets: vec![vec![2, 3, 4]],
        };
        let loss = model.batch_loss(&mut g, &bindings, &batch);
        g.backward(loss);
        let grad = g.grad(bindings.leaf("encoder.0.ffn.w1"));
        assert!(grad.as_slice().iter().all(|&x| x == 0.0));
        // an unmasked weight still learns
        let other = g.grad(bindings.leaf("encoder.0.attn.wq"));
        assert!(other.as_slice().iter().any(|&x| x != 0.0));
    }

    #[test]
    fn apply_masks_permanently_zeroes_weights() {
        let mut model = tiny_lm();
        let shape = model.parameter("encoder.0.attn.wq").unwrap().shape();
        let mut mask = Matrix::zeros(shape.0, shape.1);
        mask.set(0, 0, 1.0);
        let mut masks = MaskSet::new();
        masks.insert("encoder.0.attn.wq", mask);
        model.apply_masks_permanently(&masks);
        let w = model.parameter("encoder.0.attn.wq").unwrap();
        assert_eq!(w.count_nonzero(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds max_seq_len")]
    fn lm_rejects_overlong_sequences() {
        let model = tiny_lm();
        let mut g = Graph::new();
        let bindings = model.bind(&mut g, None);
        let tokens = vec![1usize; 100];
        let _ = model.logits(&mut g, &bindings, &tokens);
    }
}
