//! Performance predictor: estimated inference latency of a (pruned)
//! Transformer at a given V/F level.
//!
//! The paper uses the PatDNN-style mobile compiler [31] to predict execution
//! cycles for pattern-pruned weights. This module plays the same role
//! (component ④'s latency input) with an analytical model: compute cycles
//! from the surviving multiply-accumulates, discounted by a per-format
//! execution-efficiency factor (regular formats vectorise well, irregular
//! COO does not), plus a memory-traffic term for streaming the weights.

use crate::dvfs::VfLevel;
use rt3_sparse::SparseFormat;
use rt3_transformer::TransformerConfig;

/// Workload of one weight matrix in the model.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerWorkload {
    /// Parameter name (for reporting).
    pub name: String,
    /// Rows of the weight matrix.
    pub rows: usize,
    /// Columns of the weight matrix.
    pub cols: usize,
    /// Fraction of weights pruned away, in `[0, 1]`.
    pub sparsity: f64,
    /// Storage/kernel format used for this weight.
    pub format: SparseFormat,
}

impl LayerWorkload {
    /// Returns `true` for embedding tables, which are gathered (one row per
    /// token) rather than multiplied, so they contribute neither MACs nor
    /// meaningful weight streaming to an inference.
    pub fn is_embedding(&self) -> bool {
        self.name.contains("embedding")
    }

    /// Returns `true` for an attention block's query projection; their
    /// count and the first one's width price the quadratic attention terms.
    fn is_attention_query(&self) -> bool {
        self.name.contains("attn.wq")
    }

    /// Multiply-accumulate operations for one token passing through this
    /// weight (surviving weights only). Embedding tables are lookups and
    /// contribute zero MACs.
    pub fn macs_per_token(&self) -> f64 {
        if self.is_embedding() {
            return 0.0;
        }
        self.kept()
    }

    /// Surviving weights (the non-embedding MACs per token).
    fn kept(&self) -> f64 {
        (self.rows * self.cols) as f64 * (1.0 - self.sparsity)
    }

    /// Bytes of weight data streamed from memory (values + format index
    /// overhead, 4-byte values). Embedding tables stream only the rows a
    /// sequence touches, which is negligible next to the projection weights,
    /// so they are counted as zero here.
    pub fn weight_bytes(&self) -> f64 {
        if self.is_embedding() {
            return 0.0;
        }
        self.streamed_bytes()
    }

    /// [`Self::weight_bytes`] of a non-embedding layer.
    fn streamed_bytes(&self) -> f64 {
        let nnz = self.kept();
        let index_overhead = match self.format {
            SparseFormat::Dense => 0.0,
            SparseFormat::Coo => 8.0 * nnz,
            SparseFormat::Csr => 4.0 * nnz + 4.0 * self.rows as f64,
            SparseFormat::BlockPruned => 0.1 * nnz,
        };
        let value_bytes = match self.format {
            SparseFormat::Dense => (self.rows * self.cols) as f64 * 4.0,
            _ => nnz * 4.0,
        };
        value_bytes + index_overhead
    }
}

/// Full-model workload: per-layer weights plus the sequence length the model
/// is run at.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelWorkload {
    /// Per-weight workloads.
    pub layers: Vec<LayerWorkload>,
    /// Sequence length of one inference.
    pub seq_len: usize,
}

impl ModelWorkload {
    /// Builds the workload analytically from a configuration, applying a
    /// uniform `sparsity` to every prunable projection. Used for full-size
    /// shapes (e.g. DistilBERT, H = 768) that are never instantiated as live
    /// models in this reproduction.
    pub fn from_config(
        config: &TransformerConfig,
        sparsity: f64,
        seq_len: usize,
        format: SparseFormat,
    ) -> Self {
        let h = config.hidden_dim;
        let f = config.ffn_dim;
        let v = config.vocab_size;
        let mut layers = Vec::new();
        let mut push = |name: String, rows: usize, cols: usize, s: f64, fmt: SparseFormat| {
            layers.push(LayerWorkload {
                name,
                rows,
                cols,
                sparsity: s,
                format: fmt,
            });
        };
        push("token_embedding".into(), v, h, 0.0, SparseFormat::Dense);
        for i in 0..config.num_encoder_layers {
            for w in ["wq", "wk", "wv", "wo"] {
                push(format!("encoder.{i}.attn.{w}"), h, h, sparsity, format);
            }
            push(format!("encoder.{i}.ffn.w1"), h, f, sparsity, format);
            push(format!("encoder.{i}.ffn.w2"), f, h, sparsity, format);
        }
        for i in 0..config.num_decoder_layers {
            for w in ["wq", "wk", "wv", "wo"] {
                push(format!("decoder.{i}.self_attn.{w}"), h, h, sparsity, format);
                push(
                    format!("decoder.{i}.cross_attn.{w}"),
                    h,
                    h,
                    sparsity,
                    format,
                );
            }
            push(format!("decoder.{i}.ffn.w1"), h, f, sparsity, format);
            push(format!("decoder.{i}.ffn.w2"), f, h, sparsity, format);
        }
        push("lm_head.w".into(), h, v, sparsity, format);
        Self { layers, seq_len }
    }

    /// Sets every layer not stored densely to `sparsity`. On a workload
    /// [`Self::from_config`] built in a sparse format, the result equals
    /// building it again at `sparsity`, without formatting its layer names
    /// again.
    pub fn set_sparsity(&mut self, sparsity: f64) {
        for layer in &mut self.layers {
            if layer.format != SparseFormat::Dense {
                layer.sparsity = sparsity;
            }
        }
    }

    /// Total multiply-accumulates per inference (weights applied to every
    /// token, plus the quadratic attention score/value products).
    pub fn total_macs(&self) -> f64 {
        let weight_macs: f64 = self
            .layers
            .iter()
            .map(|l| l.macs_per_token() * self.seq_len as f64)
            .sum();
        // attention score + context products: 2 * seq^2 * hidden per
        // attention block; approximate hidden by the most common square
        // weight size
        let attn_blocks = self
            .layers
            .iter()
            .filter(|l| l.is_attention_query())
            .count();
        let hidden = self
            .layers
            .iter()
            .find(|l| l.is_attention_query())
            .map(|l| l.cols);
        weight_macs + self.attention_macs(attn_blocks, hidden)
    }

    /// Quadratic attention MACs for `blocks` attention blocks whose first
    /// query projection has `hidden` columns (0 without one).
    fn attention_macs(&self, blocks: usize, hidden: Option<usize>) -> f64 {
        blocks as f64 * 2.0 * (self.seq_len as f64).powi(2) * hidden.unwrap_or(0) as f64
    }

    /// Total weight bytes streamed per inference.
    pub fn total_weight_bytes(&self) -> f64 {
        self.layers.iter().map(LayerWorkload::weight_bytes).sum()
    }
}

/// Analytical latency model for a mobile in-order core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerformancePredictor {
    /// Multiply-accumulates retired per cycle with a perfectly regular
    /// (dense) kernel.
    pub macs_per_cycle: f64,
    /// Weight bytes streamed from DRAM per cycle.
    pub bytes_per_cycle: f64,
}

impl PerformancePredictor {
    /// Calibrated for a single Cortex-A7 core: dual-issue NEON gives roughly
    /// 4 single-precision MACs per cycle; LPDDR3 sustains about 2 bytes per
    /// core cycle.
    pub fn cortex_a7() -> Self {
        Self {
            macs_per_cycle: 4.0,
            bytes_per_cycle: 2.0,
        }
    }

    /// Calibrated for the whole quad-core A7 cluster running a multi-threaded
    /// inference runtime (the DistilBERT experiments in the paper use the
    /// full cluster): about 16 MACs and 6 bytes per cluster cycle.
    pub fn cortex_a7_cluster() -> Self {
        Self {
            macs_per_cycle: 16.0,
            bytes_per_cycle: 6.0,
        }
    }

    /// Fraction of peak MAC throughput a kernel reaches for a given storage
    /// format (regular formats vectorise, irregular formats stall on index
    /// decode — the paper's Challenge 1).
    pub fn format_efficiency(format: SparseFormat) -> f64 {
        match format {
            SparseFormat::Dense => 1.0,
            SparseFormat::BlockPruned => 0.92,
            SparseFormat::Csr => 0.55,
            SparseFormat::Coo => 0.35,
        }
    }

    /// Estimated execution cycles for one inference of `workload`.
    ///
    /// One pass over the layers classifies each once and accumulates the
    /// compute cycles, the weight MACs and the streamed bytes; every sum
    /// runs in layer order, as [`ModelWorkload::total_macs`] and
    /// [`ModelWorkload::total_weight_bytes`] sum. An embedding's zero terms
    /// are skipped, which leaves a sum of non-negative terms bit-unchanged.
    pub fn cycles(&self, workload: &ModelWorkload) -> f64 {
        let seq_len = workload.seq_len as f64;
        let (mut compute, mut weight_macs, mut bytes) = (0.0, 0.0, 0.0);
        let (mut attn_blocks, mut hidden) = (0, None);
        for l in &workload.layers {
            if !l.is_embedding() {
                let macs = l.kept() * seq_len;
                compute += macs / (self.macs_per_cycle * Self::format_efficiency(l.format));
                weight_macs += macs;
                bytes += l.streamed_bytes();
            }
            if l.is_attention_query() {
                attn_blocks += 1;
                hidden.get_or_insert(l.cols);
            }
        }
        // quadratic attention terms run as dense kernels; the difference
        // is taken as `total_macs() - weight MACs`, rounding included
        let total_macs = weight_macs + workload.attention_macs(attn_blocks, hidden);
        let attn_cycles = (total_macs - weight_macs) / self.macs_per_cycle;
        let memory = bytes / self.bytes_per_cycle;
        // compute and memory overlap imperfectly on an in-order core: take
        // the max plus a fraction of the smaller term
        let (hi, lo) = if compute + attn_cycles > memory {
            (compute + attn_cycles, memory)
        } else {
            (memory, compute + attn_cycles)
        };
        hi + 0.3 * lo
    }

    /// Estimated latency in milliseconds at a V/F level.
    pub fn latency_ms(&self, workload: &ModelWorkload, level: &VfLevel) -> f64 {
        self.cycles(workload) / level.frequency_hz() * 1000.0
    }
}

/// The one single-request latency formula the offline search, the
/// baselines and the serving cost models all price a level with: the
/// predictor on the block-pruned serving workload shape at a sparsity.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    /// Latency predictor calibrated for the target core/cluster.
    pub predictor: PerformancePredictor,
    /// Model shape used for latency accounting (may be the full-size paper
    /// shape even when the banked weights are smaller).
    pub workload_config: TransformerConfig,
    /// Sequence length of one request.
    pub seq_len: usize,
}

impl LatencyModel {
    /// Predicted latency of a single request at `sparsity` on `level`.
    pub fn base_latency_ms(&self, sparsity: f64, level: &VfLevel) -> f64 {
        let workload = ModelWorkload::from_config(
            &self.workload_config,
            sparsity,
            self.seq_len,
            SparseFormat::BlockPruned,
        );
        self.predictor.latency_ms(&workload, level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn higher_sparsity_means_lower_latency() {
        let config = TransformerConfig::distilbert_full(30522);
        let predictor = PerformancePredictor::cortex_a7();
        let l6 = VfLevel::odroid_level(6);
        let latencies: Vec<f64> = [0.0, 0.5, 0.8]
            .iter()
            .map(|&s| {
                let w = ModelWorkload::from_config(&config, s, 32, SparseFormat::BlockPruned);
                predictor.latency_ms(&w, &l6)
            })
            .collect();
        assert!(latencies[0] > latencies[1] && latencies[1] > latencies[2]);
    }

    #[test]
    fn lower_frequency_means_higher_latency() {
        let config = TransformerConfig::paper_transformer(1000);
        let predictor = PerformancePredictor::cortex_a7();
        let w = ModelWorkload::from_config(&config, 0.5, 24, SparseFormat::BlockPruned);
        let l3 = predictor.latency_ms(&w, &VfLevel::odroid_level(3));
        let l6 = predictor.latency_ms(&w, &VfLevel::odroid_level(6));
        assert!(l3 > l6);
        let ratio = l3 / l6;
        assert!((ratio - 1400.0 / 800.0).abs() < 1e-6);
    }

    #[test]
    fn irregular_formats_are_slower_at_equal_sparsity() {
        let config = TransformerConfig::distilbert_full(30522);
        let predictor = PerformancePredictor::cortex_a7();
        let l6 = VfLevel::odroid_level(6);
        let block = ModelWorkload::from_config(&config, 0.7, 32, SparseFormat::BlockPruned);
        let coo = ModelWorkload::from_config(&config, 0.7, 32, SparseFormat::Coo);
        assert!(
            predictor.latency_ms(&coo, &l6) > predictor.latency_ms(&block, &l6),
            "COO must be slower than block-pruned at the same sparsity"
        );
    }

    #[test]
    fn full_distilbert_latency_is_in_hundreds_of_milliseconds() {
        // sanity-check against the paper's Table III, where DistilBERT
        // latencies at mobile V/F levels are 100-330 ms
        let config = TransformerConfig::distilbert_full(30522);
        let predictor = PerformancePredictor::cortex_a7();
        let w = ModelWorkload::from_config(&config, 0.5, 64, SparseFormat::BlockPruned);
        let lat = predictor.latency_ms(&w, &VfLevel::odroid_level(4));
        assert!(
            (30.0..2000.0).contains(&lat),
            "latency {:.1} ms should be in a mobile-plausible range",
            lat
        );
    }

    /// `cycles` as five walks over the layers: compute cycles, then the
    /// attention MACs as `total_macs()` minus the weight MACs summed
    /// again, then the streamed bytes.
    fn cycles_by_layer_walks(p: &PerformancePredictor, workload: &ModelWorkload) -> f64 {
        let seq_len = workload.seq_len as f64;
        let compute: f64 = workload
            .layers
            .iter()
            .map(|l| {
                l.macs_per_token() * seq_len
                    / (p.macs_per_cycle * PerformancePredictor::format_efficiency(l.format))
            })
            .sum();
        let attn_macs = workload.total_macs()
            - workload
                .layers
                .iter()
                .map(|l| l.macs_per_token() * seq_len)
                .sum::<f64>();
        let attn_cycles = attn_macs / p.macs_per_cycle;
        let memory = workload.total_weight_bytes() / p.bytes_per_cycle;
        let (hi, lo) = if compute + attn_cycles > memory {
            (compute + attn_cycles, memory)
        } else {
            (memory, compute + attn_cycles)
        };
        hi + 0.3 * lo
    }

    /// The one-pass `cycles` equals the layer walks bit for bit, and
    /// `set_sparsity` equals building the workload again, over two model
    /// shapes, every format, sparsities from dense to fully pruned and both
    /// predictors.
    #[test]
    fn one_pass_cycles_match_the_layer_walks() {
        let mut workloads = Vec::new();
        for config in [
            TransformerConfig::paper_transformer(512),
            TransformerConfig::distilbert_full(30522),
        ] {
            for format in [
                SparseFormat::Dense,
                SparseFormat::BlockPruned,
                SparseFormat::Csr,
                SparseFormat::Coo,
            ] {
                let mut probe = ModelWorkload::from_config(&config, 0.05, 24, format);
                for sparsity in [0.0, 0.05, 0.37, 0.8125, 0.97, 1.0] {
                    let workload = ModelWorkload::from_config(&config, sparsity, 24, format);
                    if format != SparseFormat::Dense {
                        probe.set_sparsity(sparsity);
                        assert_eq!(probe, workload);
                    }
                    workloads.push(workload);
                }
            }
        }
        for p in [
            PerformancePredictor::cortex_a7(),
            PerformancePredictor::cortex_a7_cluster(),
        ] {
            for workload in &workloads {
                assert_eq!(
                    p.cycles(workload).to_bits(),
                    cycles_by_layer_walks(&p, workload).to_bits()
                );
            }
        }
    }

    #[test]
    fn weight_bytes_account_for_format_overhead() {
        let layer = |format| LayerWorkload {
            name: "w".into(),
            rows: 100,
            cols: 100,
            sparsity: 0.5,
            format,
        };
        let coo = layer(SparseFormat::Coo).weight_bytes();
        let block = layer(SparseFormat::BlockPruned).weight_bytes();
        let dense = layer(SparseFormat::Dense).weight_bytes();
        assert!(
            coo > dense,
            "COO at 50% sparsity costs more bytes than dense"
        );
        assert!(
            block < dense,
            "block-pruned storage should be smaller than dense"
        );
    }
}
