//! LLM architectures: Llama2-70B and OPT-66B (§8).

use deca_kernels::GemmShape;

/// The feed-forward style of a transformer block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FfnKind {
    /// Gated SwiGLU feed-forward (Llama): gate, up and down projections.
    SwiGlu,
    /// Classic two-matrix feed-forward (OPT): fc1 and fc2.
    Mlp,
}

/// Geometry of one transformer layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerGeometry {
    /// Model (hidden) dimension.
    pub hidden: usize,
    /// Feed-forward intermediate dimension.
    pub ffn_hidden: usize,
    /// Attention heads.
    pub heads: usize,
    /// Key/value heads (grouped-query attention when smaller than `heads`).
    pub kv_heads: usize,
    /// Dimension of each head.
    pub head_dim: usize,
    /// Feed-forward style.
    pub ffn: FfnKind,
}

impl LayerGeometry {
    /// Key/value projection width (`kv_heads · head_dim`).
    #[must_use]
    pub fn kv_dim(&self) -> usize {
        self.kv_heads * self.head_dim
    }

    /// The FC-layer GeMM shapes of one transformer layer at batch size
    /// `batch` during the generation phase (one token per sequence).
    #[must_use]
    pub fn fc_gemms(&self, batch: usize) -> Vec<GemmShape> {
        let h = self.hidden;
        let mut shapes = vec![
            // Q projection.
            GemmShape::new(batch, h, self.heads * self.head_dim),
            // K and V projections (possibly grouped-query, i.e. narrower).
            GemmShape::new(batch, h, self.kv_dim()),
            GemmShape::new(batch, h, self.kv_dim()),
            // Output projection.
            GemmShape::new(batch, self.heads * self.head_dim, h),
        ];
        match self.ffn {
            FfnKind::SwiGlu => {
                shapes.push(GemmShape::new(batch, h, self.ffn_hidden)); // gate
                shapes.push(GemmShape::new(batch, h, self.ffn_hidden)); // up
                shapes.push(GemmShape::new(batch, self.ffn_hidden, h)); // down
            }
            FfnKind::Mlp => {
                shapes.push(GemmShape::new(batch, h, self.ffn_hidden)); // fc1
                shapes.push(GemmShape::new(batch, self.ffn_hidden, h)); // fc2
            }
        }
        shapes
    }

    /// The largest FC-layer GeMM of one transformer layer at batch size
    /// `batch`.
    ///
    /// Never panics: [`LayerGeometry::fc_gemms`] always emits the four
    /// attention projections before the feed-forward shapes, so the fold is
    /// seeded with the Q projection instead of unwrapping an
    /// `Iterator::max` that is empty only in an unreachable state.
    #[must_use]
    pub fn largest_fc_gemm(&self, batch: usize) -> GemmShape {
        let q_projection = GemmShape::new(batch, self.hidden, self.heads * self.head_dim);
        self.fc_gemms(batch)
            .into_iter()
            .fold(q_projection, |best, shape| {
                if shape.weight_elements() > best.weight_elements() {
                    shape
                } else {
                    best
                }
            })
    }

    /// FC-layer weight parameters of one layer.
    #[must_use]
    pub fn fc_params(&self) -> usize {
        self.fc_gemms(1)
            .iter()
            .map(GemmShape::weight_elements)
            .sum()
    }

    /// Bytes of KV cache appended per token per sequence (BF16 keys and
    /// values).
    #[must_use]
    pub fn kv_bytes_per_token(&self) -> usize {
        2 * self.kv_dim() * 2
    }
}

/// A full decoder-only LLM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LlmModel {
    name: String,
    layers: usize,
    layer: LayerGeometry,
    vocab: usize,
}

impl LlmModel {
    /// Builds a model from an explicit geometry. The stock inventories
    /// ([`LlmModel::llama2_70b`], [`LlmModel::opt_66b`]) cover the paper's
    /// evaluation; this constructor exists for sharded per-socket views
    /// (`deca_llm::parallel`), what-if geometries and degenerate-input
    /// tests. No validation is performed here — a zero-layer or
    /// zero-KV-head model is representable, and downstream consumers
    /// (e.g. [`crate::footprint::max_kv_tokens`]) must guard against it.
    #[must_use]
    pub fn new(name: impl Into<String>, layers: usize, layer: LayerGeometry, vocab: usize) -> Self {
        LlmModel {
            name: name.into(),
            layers,
            layer,
            vocab,
        }
    }

    /// Llama2-70B: 80 layers, 8192 hidden, 28672 FFN, 64 heads with 8 KV
    /// heads (GQA), 32 k vocabulary.
    #[must_use]
    pub fn llama2_70b() -> Self {
        LlmModel {
            name: "Llama2-70B".to_string(),
            layers: 80,
            layer: LayerGeometry {
                hidden: 8192,
                ffn_hidden: 28672,
                heads: 64,
                kv_heads: 8,
                head_dim: 128,
                ffn: FfnKind::SwiGlu,
            },
            vocab: 32_000,
        }
    }

    /// Llama2-7B: 32 layers, 4096 hidden, 11008 FFN, 32 heads (full MHA),
    /// 32 k vocabulary — the stock *draft* model for speculative decoding
    /// ([`crate::DraftSpec`]): same family and tokenizer as
    /// [`LlmModel::llama2_70b`], a tenth of the weights.
    #[must_use]
    pub fn llama2_7b() -> Self {
        LlmModel {
            name: "Llama2-7B".to_string(),
            layers: 32,
            layer: LayerGeometry {
                hidden: 4096,
                ffn_hidden: 11_008,
                heads: 32,
                kv_heads: 32,
                head_dim: 128,
                ffn: FfnKind::SwiGlu,
            },
            vocab: 32_000,
        }
    }

    /// OPT-66B: 64 layers, 9216 hidden, 36864 FFN, 72 heads, 50 k vocabulary.
    #[must_use]
    pub fn opt_66b() -> Self {
        LlmModel {
            name: "OPT-66B".to_string(),
            layers: 64,
            layer: LayerGeometry {
                hidden: 9216,
                ffn_hidden: 36_864,
                heads: 72,
                kv_heads: 72,
                head_dim: 128,
                ffn: FfnKind::Mlp,
            },
            vocab: 50_272,
        }
    }

    /// Model name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of transformer layers.
    #[must_use]
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Per-layer geometry.
    #[must_use]
    pub fn layer(&self) -> &LayerGeometry {
        &self.layer
    }

    /// Vocabulary size.
    #[must_use]
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// All FC-layer GeMMs executed for one generated token at batch size
    /// `batch` (every layer, plus the LM-head projection).
    #[must_use]
    pub fn fc_gemms_per_token(&self, batch: usize) -> Vec<GemmShape> {
        let mut shapes = Vec::new();
        for _ in 0..self.layers {
            shapes.extend(self.layer.fc_gemms(batch));
        }
        // LM head: hidden -> vocabulary logits.
        shapes.push(GemmShape::new(batch, self.layer.hidden, self.vocab));
        shapes
    }

    /// The largest FC-layer GeMM executed for one token at batch size
    /// `batch` (the LM-head projection included). Like
    /// [`LayerGeometry::largest_fc_gemm`], this cannot panic: the candidate
    /// list is non-empty by construction.
    #[must_use]
    pub fn largest_fc_gemm(&self, batch: usize) -> GemmShape {
        let lm_head = GemmShape::new(batch, self.layer.hidden, self.vocab);
        let per_layer = self.layer.largest_fc_gemm(batch);
        if per_layer.weight_elements() > lm_head.weight_elements() {
            per_layer
        } else {
            lm_head
        }
    }

    /// Total FC-layer weight parameters (the compressible part of the
    /// model).
    #[must_use]
    pub fn fc_params(&self) -> usize {
        self.layers * self.layer.fc_params() + self.layer.hidden * self.vocab
    }

    /// Total parameters including the embedding table.
    #[must_use]
    pub fn total_params(&self) -> usize {
        self.fc_params() + self.vocab * self.layer.hidden
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llama2_70b_parameter_count_is_about_70b() {
        let m = LlmModel::llama2_70b();
        let params = m.total_params() as f64;
        assert!(
            (66e9..72e9).contains(&params),
            "Llama2-70B parameter count {params:.3e}"
        );
        assert_eq!(m.layers(), 80);
        assert_eq!(m.layer().kv_dim(), 1024);
    }

    #[test]
    fn llama2_7b_parameter_count_is_about_7b() {
        let m = LlmModel::llama2_7b();
        let params = m.total_params() as f64;
        assert!(
            (6e9..7.5e9).contains(&params),
            "Llama2-7B parameter count {params:.3e}"
        );
        assert_eq!(m.layers(), 32);
        // Full MHA: every head keeps its own KV.
        assert_eq!(m.layer().kv_dim(), 4096);
    }

    #[test]
    fn opt_66b_parameter_count_is_about_66b() {
        let m = LlmModel::opt_66b();
        let params = m.total_params() as f64;
        assert!(
            (63e9..69e9).contains(&params),
            "OPT-66B parameter count {params:.3e}"
        );
        assert_eq!(m.layers(), 64);
    }

    #[test]
    fn llama_layer_has_seven_fc_gemms_and_opt_six() {
        assert_eq!(LlmModel::llama2_70b().layer().fc_gemms(1).len(), 7);
        assert_eq!(LlmModel::opt_66b().layer().fc_gemms(1).len(), 6);
    }

    #[test]
    fn fc_gemm_shapes_use_batch_as_n() {
        let shapes = LlmModel::llama2_70b().layer().fc_gemms(16);
        assert!(shapes.iter().all(|s| s.n == 16));
        // The largest FC GeMMs of Llama2-70B are hidden x ffn: 8192 x 28672
        // ≈ 235 M parameters — the "large FC layers" the paper's
        // microbenchmark mimics.
        let largest = LlmModel::llama2_70b().layer().largest_fc_gemm(16);
        assert_eq!(largest.weight_elements(), 8192 * 28672);
        assert_eq!(largest.n, 16);
    }

    #[test]
    fn largest_fc_gemm_is_the_true_maximum_for_both_models() {
        for model in [LlmModel::llama2_70b(), LlmModel::opt_66b()] {
            for batch in [1usize, 4, 16] {
                // Several shapes can tie on weight elements (gate/up/down of
                // SwiGLU), so compare the maximum weight count, not shapes.
                let per_layer = model.layer().largest_fc_gemm(batch);
                let by_scan = model
                    .layer()
                    .fc_gemms(batch)
                    .into_iter()
                    .map(|s| s.weight_elements())
                    .max();
                assert_eq!(
                    by_scan,
                    Some(per_layer.weight_elements()),
                    "{}",
                    model.name()
                );

                let overall = model.largest_fc_gemm(batch);
                let by_scan = model
                    .fc_gemms_per_token(batch)
                    .into_iter()
                    .map(|s| s.weight_elements())
                    .max();
                assert_eq!(by_scan, Some(overall.weight_elements()), "{}", model.name());
            }
        }
        // For OPT the LM head (9216 x 50272) beats the FFN (9216 x 36864).
        let opt = LlmModel::opt_66b();
        assert_eq!(opt.largest_fc_gemm(1).weight_elements(), 9216 * 50_272);
    }

    #[test]
    fn per_token_gemm_list_covers_all_layers_plus_lm_head() {
        let m = LlmModel::llama2_70b();
        assert_eq!(m.fc_gemms_per_token(1).len(), 80 * 7 + 1);
        let o = LlmModel::opt_66b();
        assert_eq!(o.fc_gemms_per_token(4).len(), 64 * 6 + 1);
    }

    #[test]
    fn kv_bytes_reflect_grouped_query_attention() {
        // Llama2-70B uses GQA: only 8 KV heads of 128 dims = 1024 values for
        // K and V each, 2 bytes per value.
        assert_eq!(LlmModel::llama2_70b().layer().kv_bytes_per_token(), 4096);
        // OPT has full multi-head KV.
        assert_eq!(LlmModel::opt_66b().layer().kv_bytes_per_token(), 36864);
    }
}
