//! Model hyper-parameter configuration.

/// Hyper-parameters of a Transformer model.
///
/// Presets mirror the two models evaluated in the paper: a small Transformer
/// with two encoder and one decoder layer for WikiText-2 (at reduced width,
/// so training fits a CPU-only container; see DESIGN.md), and the
/// DistilBERT shape (6 layers, H = 768, A = 12) for latency accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformerConfig {
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Model (hidden) dimension; must be divisible by `num_heads`.
    pub hidden_dim: usize,
    /// Number of attention heads.
    pub num_heads: usize,
    /// Feed-forward inner dimension.
    pub ffn_dim: usize,
    /// Number of encoder layers.
    pub num_encoder_layers: usize,
    /// Number of decoder layers (with cross-attention to the encoder output).
    pub num_decoder_layers: usize,
    /// Maximum sequence length (size of the learned positional table).
    pub max_seq_len: usize,
}

impl TransformerConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.vocab_size < 2 {
            return Err("vocab_size must be at least 2".into());
        }
        if self.hidden_dim == 0 || self.num_heads == 0 {
            return Err("hidden_dim and num_heads must be positive".into());
        }
        if !self.hidden_dim.is_multiple_of(self.num_heads) {
            return Err(format!(
                "hidden_dim {} must be divisible by num_heads {}",
                self.hidden_dim, self.num_heads
            ));
        }
        if self.num_encoder_layers == 0 && self.num_decoder_layers == 0 {
            return Err("model must have at least one layer".into());
        }
        if self.max_seq_len == 0 {
            return Err("max_seq_len must be positive".into());
        }
        Ok(())
    }

    /// Head dimension (`hidden_dim / num_heads`).
    pub fn head_dim(&self) -> usize {
        self.hidden_dim / self.num_heads
    }

    /// The paper's WikiText-2 Transformer shape (2 encoder + 1 decoder
    /// layers) at reduced width for CPU training.
    pub fn paper_transformer(vocab_size: usize) -> Self {
        Self {
            vocab_size,
            hidden_dim: 48,
            num_heads: 4,
            ffn_dim: 96,
            num_encoder_layers: 2,
            num_decoder_layers: 1,
            max_seq_len: 64,
        }
    }

    /// Full-size DistilBERT shape (for shape/latency accounting only — do not
    /// train this on CPU).
    pub fn distilbert_full(vocab_size: usize) -> Self {
        Self {
            vocab_size,
            hidden_dim: 768,
            num_heads: 12,
            ffn_dim: 3072,
            num_encoder_layers: 6,
            num_decoder_layers: 0,
            max_seq_len: 512,
        }
    }

    /// Tiny configuration for unit tests.
    pub fn tiny(vocab_size: usize) -> Self {
        Self {
            vocab_size,
            hidden_dim: 16,
            num_heads: 2,
            ffn_dim: 32,
            num_encoder_layers: 1,
            num_decoder_layers: 1,
            max_seq_len: 32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        assert!(TransformerConfig::paper_transformer(256).validate().is_ok());
        assert!(TransformerConfig::distilbert_full(30522).validate().is_ok());
        assert!(TransformerConfig::tiny(32).validate().is_ok());
    }

    #[test]
    fn paper_shapes_match_the_paper() {
        let t = TransformerConfig::paper_transformer(256);
        assert_eq!(t.num_encoder_layers, 2);
        assert_eq!(t.num_decoder_layers, 1);
        let d = TransformerConfig::distilbert_full(30522);
        assert_eq!(d.num_encoder_layers, 6);
        assert_eq!(d.hidden_dim, 768);
        assert_eq!(d.num_heads, 12);
    }

    #[test]
    fn validation_rejects_indivisible_heads() {
        let mut c = TransformerConfig::tiny(32);
        c.num_heads = 3;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_zero_layers() {
        let mut c = TransformerConfig::tiny(32);
        c.num_encoder_layers = 0;
        c.num_decoder_layers = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn head_dim_is_quotient() {
        let c = TransformerConfig::tiny(32);
        assert_eq!(c.head_dim(), 8);
    }
}
