//! Multi-socket sharded inference: tensor/pipeline parallelism over an
//! explicit interconnect model.
//!
//! One SPR socket tops out at 64 GB of HBM, and §8's capacity observations
//! show exactly which Table 4 configurations that excludes (uncompressed
//! BF16, Q16_50%, dense Q8 — and *any* scheme once the KV working set grows
//! past the post-weights headroom). This module describes the production
//! answer: a (scheme × engine × TP × PP) deployment, priced in latency and
//! per-socket memory.
//!
//! * [`ShardSpec`] — Megatron-style sharding: tensor parallelism splits
//!   every FC GeMM's output dimension (attention heads, KV heads, FFN
//!   columns and the LM-head vocabulary) across `tensor_parallel` sockets;
//!   pipeline parallelism partitions the layer stack into
//!   `pipeline_parallel` contiguous stages.
//! * [`InterconnectModel`] — per-link bandwidth and latency, priced as a
//!   ring all-reduce per tensor-parallel GeMM and a point-to-point
//!   activation transfer per pipeline-stage boundary.
//! * [`InferenceEstimator::sharded`](crate::InferenceEstimator::sharded) — prices a plan with the one
//!   estimator: the per-socket shard shapes of every pipeline stage run
//!   through the same per-tile arithmetic, and the collectives are added
//!   on top. The single-socket estimator is the `TP=1 × PP=1` plan, whose
//!   interconnect terms are exactly zero.
//! * [`crate::footprint`] — per-socket weight/KV footprints and the
//!   fleet-wide KV-token budget under a plan (the admission budget
//!   `deca-serve` uses for every replica, sharded or not).

use crate::LayerGeometry;

/// How a model is sharded across sockets: `tensor_parallel × pipeline_parallel`
/// sockets in total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    /// Tensor-parallel degree: every FC GeMM's output dimension is split
    /// this many ways (and the KV heads with it).
    pub tensor_parallel: usize,
    /// Pipeline-parallel degree: the layer stack is partitioned into this
    /// many contiguous stages.
    pub pipeline_parallel: usize,
}

impl ShardSpec {
    /// A sharding plan.
    ///
    /// # Panics
    ///
    /// Panics if either degree is zero.
    #[must_use]
    pub fn new(tensor_parallel: usize, pipeline_parallel: usize) -> Self {
        assert!(
            tensor_parallel > 0 && pipeline_parallel > 0,
            "parallelism degrees must be positive"
        );
        ShardSpec {
            tensor_parallel,
            pipeline_parallel,
        }
    }

    /// The unsharded single-socket plan.
    #[must_use]
    pub fn single() -> Self {
        ShardSpec::new(1, 1)
    }

    /// Pure tensor parallelism over `degree` sockets.
    #[must_use]
    pub fn tp(degree: usize) -> Self {
        ShardSpec::new(degree, 1)
    }

    /// Pure pipeline parallelism over `degree` stages.
    #[must_use]
    pub fn pp(degree: usize) -> Self {
        ShardSpec::new(1, degree)
    }

    /// Total sockets the plan occupies.
    #[must_use]
    pub fn sockets(&self) -> usize {
        self.tensor_parallel * self.pipeline_parallel
    }

    /// Whether this is the unsharded single-socket plan.
    #[must_use]
    pub fn is_single(&self) -> bool {
        self.sockets() == 1
    }

    /// Layers per pipeline stage: as even as possible, with the first
    /// `layers % pp` stages taking one extra. `None` when a multi-stage
    /// plan has more stages than the model has layers (every stage of a
    /// pipeline holds at least one layer); a single stage holds the whole
    /// model, whatever its size.
    #[must_use]
    pub fn stage_layers(&self, layers: usize) -> Option<Vec<usize>> {
        let pp = self.pipeline_parallel;
        if pp > layers.max(1) {
            return None;
        }
        let (base, extra) = (layers / pp, layers % pp);
        Some((0..pp).map(|s| base + usize::from(s < extra)).collect())
    }

    /// One socket's share of a layer under tensor parallelism: the Q/KV
    /// heads and FFN columns are split `tensor_parallel` ways (rounded up,
    /// so the modeled socket is the worst-loaded one); the hidden dimension
    /// — every GeMM's *input* — stays full, exactly as in Megatron-style
    /// column/row-parallel sharding.
    #[must_use]
    pub fn shard_layer(&self, layer: &LayerGeometry) -> LayerGeometry {
        let t = self.tensor_parallel;
        LayerGeometry {
            hidden: layer.hidden,
            ffn_hidden: layer.ffn_hidden.div_ceil(t),
            heads: layer.heads.div_ceil(t),
            kv_heads: layer.kv_heads.div_ceil(t),
            head_dim: layer.head_dim,
            ffn: layer.ffn,
        }
    }

    /// One socket's share of the LM-head output (the vocabulary is
    /// column-sharded like every other FC GeMM).
    #[must_use]
    pub fn shard_vocab(&self, vocab: usize) -> usize {
        vocab.div_ceil(self.tensor_parallel)
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TP{}xPP{}", self.tensor_parallel, self.pipeline_parallel)
    }
}

/// The socket-to-socket interconnect: every link has a bandwidth and a
/// latency, and the two collective shapes a sharded plan needs are priced
/// on top.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterconnectModel {
    /// Usable bandwidth of one socket's links in GB/s.
    pub link_bandwidth_gbps: f64,
    /// One-way link latency in microseconds.
    pub link_latency_us: f64,
}

impl InterconnectModel {
    /// A free interconnect (infinite bandwidth, zero latency): sharding
    /// with this model isolates the pure compute/memory effect. The
    /// single-socket estimator runs over it (though a `TP=1 × PP=1` plan
    /// pays no interconnect over any link).
    #[must_use]
    pub fn zero_cost() -> Self {
        InterconnectModel {
            link_bandwidth_gbps: f64::INFINITY,
            link_latency_us: 0.0,
        }
    }

    /// A UPI-class socket interconnect: three 16 GT/s links ≈ 62.4 GB/s of
    /// usable aggregate bandwidth per socket, ~1.2 µs one-way latency.
    #[must_use]
    pub fn spr_upi() -> Self {
        InterconnectModel {
            link_bandwidth_gbps: 62.4,
            link_latency_us: 1.2,
        }
    }

    fn bytes_per_second(&self) -> f64 {
        self.link_bandwidth_gbps * 1e9
    }

    fn latency_seconds(&self) -> f64 {
        self.link_latency_us * 1e-6
    }

    /// Ring all-reduce of `bytes` across `participants` sockets: each
    /// socket sends `2·(p−1)/p · bytes` over `2·(p−1)` latency-bound steps.
    /// Zero for a single participant.
    #[must_use]
    pub fn all_reduce_seconds(&self, bytes: f64, participants: usize) -> f64 {
        if participants <= 1 {
            return 0.0;
        }
        let p = participants as f64;
        let steps = 2.0 * (p - 1.0);
        2.0 * (p - 1.0) / p * bytes / self.bytes_per_second() + steps * self.latency_seconds()
    }

    /// Point-to-point transfer of `bytes` over one link.
    #[must_use]
    pub fn point_to_point_seconds(&self, bytes: f64) -> f64 {
        bytes / self.bytes_per_second() + self.latency_seconds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::{self, fits_in_hbm_with_kv, max_kv_blocks, max_kv_tokens};
    use crate::inference::single_socket_reference;
    use crate::{InferenceEstimator, LlmModel};
    use deca_compress::CompressionScheme;
    use deca_kernels::Engine;
    use deca_roofsurface::MachineConfig;

    fn hbm_sharded(spec: ShardSpec) -> InferenceEstimator {
        InferenceEstimator::sharded(MachineConfig::spr_hbm(), spec, InterconnectModel::spr_upi())
    }

    fn weights(model: &LlmModel, scheme: &CompressionScheme, spec: &ShardSpec) -> f64 {
        footprint::weight_bytes_per_socket(model, scheme, spec).expect("plan splits the model")
    }

    #[test]
    fn single_socket_zero_cost_plan_is_bit_identical_to_the_unsharded_estimator() {
        let sharded = InferenceEstimator::sharded(
            MachineConfig::spr_hbm(),
            ShardSpec::single(),
            InterconnectModel::zero_cost(),
        );
        let model = LlmModel::llama2_70b();
        let engine = Engine::deca_default();
        for scheme in [
            CompressionScheme::bf16_dense(),
            CompressionScheme::bf8_sparse(0.05),
        ] {
            let (decode, prefill) =
                single_socket_reference(&sharded, &model, &scheme, engine, 4, 384, 512);
            let shard = sharded.next_token(&model, &scheme, engine, 4, 512);
            assert_eq!(shard.fc_seconds.to_bits(), decode[0].to_bits());
            assert_eq!(shard.attention_seconds.to_bits(), decode[1].to_bits());
            assert_eq!(shard.other_seconds.to_bits(), decode[2].to_bits());
            assert_eq!(
                shard.total_seconds().to_bits(),
                decode.iter().sum::<f64>().to_bits()
            );
            assert_eq!(shard.comm_seconds(), 0.0);

            let shard_p = sharded.prefill(&model, &scheme, engine, 384, 512);
            assert_eq!(
                shard_p.total_seconds().to_bits(),
                prefill.iter().sum::<f64>().to_bits()
            );
        }
    }

    #[test]
    fn sharded_block_budget_is_the_sharded_token_budget_in_whole_blocks() {
        let model = LlmModel::llama2_70b();
        let q8 = CompressionScheme::bf8_dense();
        // Dense Q8 does not fit one socket: no tokens, no blocks.
        assert_eq!(max_kv_blocks(&model, &q8, &ShardSpec::single(), 16), None);
        let tp2 = ShardSpec::tp(2);
        let tokens = max_kv_tokens(&model, &q8, &tp2).expect("TP2 fits");
        assert_eq!(max_kv_blocks(&model, &q8, &tp2, 16), Some(tokens / 16));
        // Block size 1 reduces to the token budget.
        let q8_5 = CompressionScheme::bf8_sparse(0.05);
        assert_eq!(
            max_kv_blocks(&model, &q8_5, &ShardSpec::single(), 1),
            max_kv_tokens(&model, &q8_5, &ShardSpec::single())
        );
    }

    #[test]
    fn tensor_parallelism_cuts_per_socket_time_and_memory() {
        let model = LlmModel::llama2_70b();
        let scheme = CompressionScheme::bf8_sparse(0.05);
        let tp1 = hbm_sharded(ShardSpec::single());
        let tp4 = hbm_sharded(ShardSpec::tp(4));
        let base = tp1.next_token(&model, &scheme, Engine::deca_default(), 1, 2048);
        let shard = tp4.next_token(&model, &scheme, Engine::deca_default(), 1, 2048);
        // The weight stream shrinks close to 4x (the per-GeMM launch
        // barrier is a fixed serial cost, so the FC ratio floors above
        // 1/4); KV traffic shards with the KV heads; comm is added on top.
        assert!(shard.fc_seconds < 0.55 * base.fc_seconds);
        assert!(shard.attention_seconds < 0.3 * base.attention_seconds);
        assert!(shard.comm_seconds() > 0.0);
        assert!(shard.total_seconds() < base.total_seconds());

        let w1 = weights(&model, &scheme, &ShardSpec::single());
        let w4 = weights(&model, &scheme, &ShardSpec::tp(4));
        assert!(w4 < 0.3 * w1, "TP4 per-socket weights {w4:.2e} vs {w1:.2e}");
    }

    #[test]
    fn pipeline_stages_partition_the_layers() {
        let spec = ShardSpec::pp(3);
        let stages = spec.stage_layers(80).expect("80 layers split 3 ways");
        assert_eq!(stages.iter().sum::<usize>(), 80);
        assert_eq!(stages, vec![27, 27, 26]);
        assert_eq!(ShardSpec::pp(1).stage_layers(80), Some(vec![80]));
        // More stages than layers is not a plan; one stage always is.
        assert_eq!(ShardSpec::pp(81).stage_layers(80), None);
        assert_eq!(ShardSpec::single().stage_layers(0), Some(vec![0]));
    }

    #[test]
    fn q8_dense_fits_at_tp2_but_not_on_one_socket() {
        // §8: dense Q8 Llama2-70B does not fit in 64 GB of HBM. Two-way
        // tensor parallelism halves the shard and restores a KV budget.
        let model = LlmModel::llama2_70b();
        let q8 = CompressionScheme::bf8_dense();
        assert_eq!(max_kv_tokens(&model, &q8, &ShardSpec::single()), None);
        let budget = max_kv_tokens(&model, &q8, &ShardSpec::tp(2)).expect("Q8 dense fits at TP2");
        assert!(budget > 50_000, "budget {budget}");
        assert!(fits_in_hbm_with_kv(&model, &q8, &ShardSpec::tp(2), 4096, 4));
    }

    #[test]
    fn sharded_footprint_reduces_to_the_unsharded_one_on_a_single_socket() {
        // On one socket the per-socket weights are the §8 whole-model
        // footprint: every FC weight (LM head included) compressed, plus
        // the BF16 embedding table.
        let model = LlmModel::llama2_70b();
        for scheme in [
            CompressionScheme::bf8_sparse(0.05),
            CompressionScheme::mxfp4(),
        ] {
            let whole_model = model.fc_params() as f64 * footprint::bytes_per_parameter(&scheme)
                + (model.total_params() - model.fc_params()) as f64 * 2.0;
            let single = weights(&model, &scheme, &ShardSpec::single());
            assert_eq!(single.to_bits(), whole_model.to_bits());
        }
    }

    #[test]
    fn interconnect_collectives_price_latency_and_bandwidth() {
        let link = InterconnectModel::spr_upi();
        assert_eq!(link.all_reduce_seconds(1e9, 1), 0.0);
        let two = link.all_reduce_seconds(1e9, 2);
        let four = link.all_reduce_seconds(1e9, 4);
        // More participants move more total bytes per socket and pay more
        // latency steps.
        assert!(four > two && two > 0.0);
        let p2p = link.point_to_point_seconds(62.4e9);
        assert!((p2p - (1.0 + 1.2e-6)).abs() < 1e-9, "p2p {p2p}");
        // Zero-cost interconnect prices everything at exactly zero.
        let free = InterconnectModel::zero_cost();
        assert_eq!(free.all_reduce_seconds(1e12, 8), 0.0);
        assert_eq!(free.point_to_point_seconds(1e12), 0.0);
    }

    #[test]
    fn deep_pipelines_add_transfer_time_but_split_memory() {
        let model = LlmModel::llama2_70b();
        let scheme = CompressionScheme::mxfp4();
        let pp1 = hbm_sharded(ShardSpec::single());
        let pp4 = hbm_sharded(ShardSpec::pp(4));
        let base = pp1.next_token(&model, &scheme, Engine::deca_default(), 1, 128);
        let deep = pp4.next_token(&model, &scheme, Engine::deca_default(), 1, 128);
        // A decode token still traverses every layer, so PP does not cut
        // the serial FC time — it adds boundary transfers...
        assert!(deep.transfer_seconds > 0.0);
        assert!(deep.fc_seconds >= 0.99 * base.fc_seconds);
        // ...but it does split the per-socket weights.
        let w1 = weights(&model, &scheme, &ShardSpec::single());
        let w4 = weights(&model, &scheme, &ShardSpec::pp(4));
        assert!(w4 < 0.4 * w1);
    }

    #[test]
    fn gqa_kv_heads_stop_sharding_below_one_head() {
        // Llama2-70B has 8 KV heads: TP16 cannot split below one head per
        // socket, so the KV shard saturates at 1/8 of the full cache.
        let spec = ShardSpec::tp(16);
        let layer = *LlmModel::llama2_70b().layer();
        let sharded = spec.shard_layer(&layer);
        assert_eq!(sharded.kv_heads, 1);
        assert_eq!(sharded.heads, 4);
        assert_eq!(sharded.ffn_hidden, 1792);
    }

    #[test]
    fn spec_display_and_socket_accounting() {
        let spec = ShardSpec::new(4, 2);
        assert_eq!(spec.to_string(), "TP4xPP2");
        assert_eq!(spec.sockets(), 8);
        assert!(!spec.is_single());
        assert!(ShardSpec::single().is_single());
    }
}
