//! Model memory footprints per compression scheme and sharding plan (§8).
//!
//! The paper notes that the uncompressed BF16 model, Q16 at 50 % density and
//! dense Q8 do not fit in the 64 GB of on-package HBM, so those
//! configurations are simulated with a larger HBM capacity. This module
//! reproduces that accounting for any [`ShardSpec`]: each pipeline stage's
//! worst-loaded socket holds its layers' FC weights divided `TP` ways, the
//! last stage adds the sharded LM head, and stage 0 carries the
//! (unsharded, BF16) embedding table. The single-socket view is
//! [`ShardSpec::single`], whose one stage holds the whole model.

use deca_compress::{CompressionScheme, TILE_ELEMS};

use crate::{LlmModel, ShardSpec};

/// HBM capacity of the evaluated SPR part in bytes (64 GB).
pub const HBM_CAPACITY_BYTES: u64 = 64 * 1024 * 1024 * 1024;

/// Bytes per weight parameter under a compression scheme (including the
/// bitmask and scale-factor overheads).
#[must_use]
pub fn bytes_per_parameter(scheme: &CompressionScheme) -> f64 {
    scheme.expected_tile_bytes() / TILE_ELEMS as f64
}

/// One pipeline stage's worst-loaded socket.
struct Stage {
    /// Resident weight bytes (FC shard, plus the LM-head shard on the last
    /// stage and the embeddings on stage 0).
    weight_bytes: f64,
    /// KV bytes one resident token stores on this socket (the stage's
    /// layers at the sharded KV width).
    kv_bytes_per_token: usize,
}

/// Per-stage footprints under a plan, or `None` when the plan has more
/// pipeline stages than the model has layers.
fn stages(model: &LlmModel, scheme: &CompressionScheme, spec: &ShardSpec) -> Option<Vec<Stage>> {
    let stage_layers = spec.stage_layers(model.layers())?;
    let sharded_layer = spec.shard_layer(model.layer());
    let last = stage_layers.len() - 1;
    let embedding_bytes = (model.total_params() - model.fc_params()) as f64 * 2.0;
    let stages = stage_layers
        .iter()
        .enumerate()
        .map(|(stage, &layers)| {
            let mut params = layers * sharded_layer.fc_params();
            if stage == last {
                params += model.layer().hidden * spec.shard_vocab(model.vocab());
            }
            let mut weight_bytes = params as f64 * bytes_per_parameter(scheme);
            if stage == 0 {
                weight_bytes += embedding_bytes;
            }
            Stage {
                weight_bytes,
                kv_bytes_per_token: layers * sharded_layer.kv_bytes_per_token(),
            }
        })
        .collect();
    Some(stages)
}

/// Weight bytes resident on the *worst-loaded* socket under a plan — on
/// one socket, the whole model's weight footprint. `None` when the plan
/// has more pipeline stages than the model has layers.
#[must_use]
pub fn weight_bytes_per_socket(
    model: &LlmModel,
    scheme: &CompressionScheme,
    spec: &ShardSpec,
) -> Option<f64> {
    let stages = stages(model, scheme, spec)?;
    Some(
        stages
            .iter()
            .map(|stage| stage.weight_bytes)
            .fold(0.0, f64::max),
    )
}

/// Whether every socket of the plan holds its weight shard in the 64 GB
/// HBM (weights only — see [`fits_in_hbm_with_kv`] for the serving-time
/// check that includes the KV cache). `false` when the plan has more
/// pipeline stages than the model has layers.
#[must_use]
pub fn fits_in_hbm(model: &LlmModel, scheme: &CompressionScheme, spec: &ShardSpec) -> bool {
    weight_bytes_per_socket(model, scheme, spec)
        .is_some_and(|bytes| bytes <= HBM_CAPACITY_BYTES as f64)
}

/// Bytes of KV cache held for one sequence at `context_tokens` (keys and
/// values of every layer, BF16) for the whole, unsharded model.
#[must_use]
pub fn kv_cache_bytes_per_sequence(model: &LlmModel, context_tokens: usize) -> u64 {
    (model.layers() * model.layer().kv_bytes_per_token() * context_tokens) as u64
}

/// Total KV-cache bytes for `batch` sequences at a uniform context length
/// (whole, unsharded model).
#[must_use]
pub fn kv_cache_bytes(model: &LlmModel, context_tokens: usize, batch: usize) -> u64 {
    kv_cache_bytes_per_sequence(model, context_tokens) * batch as u64
}

/// Whether the weight shards *and* the sharded KV cache of `batch`
/// sequences at `context_tokens` fit on every socket of the plan. `false`
/// when the plan has more pipeline stages than the model has layers.
#[must_use]
pub fn fits_in_hbm_with_kv(
    model: &LlmModel,
    scheme: &CompressionScheme,
    spec: &ShardSpec,
    context_tokens: usize,
    batch: usize,
) -> bool {
    stages(model, scheme, spec).is_some_and(|stages| {
        stages.iter().all(|stage| {
            let kv = (stage.kv_bytes_per_token * context_tokens * batch) as f64;
            kv <= HBM_CAPACITY_BYTES as f64 - stage.weight_bytes
        })
    })
}

/// The total number of KV-cache token slots (summed across all resident
/// sequences) the plan sustains: a resident token stores sharded KV on
/// *every* stage's sockets, so the budget is the minimum over stages of
/// `stage headroom / stage per-token KV bytes`. This is the KV budget the
/// serving scheduler in `deca-serve` admits against.
///
/// `None` when some socket's weight shard alone does not fit, when the
/// plan has more pipeline stages than the model has layers, or when a
/// degenerate model has zero per-token KV cost on a stage (zero layers, or
/// zero KV heads via [`LlmModel::new`]): dividing the headroom by `0.0`
/// would produce `inf`, which a `u64` cast saturates into a bogus
/// "unbounded" scheduler budget.
#[must_use]
pub fn max_kv_tokens(
    model: &LlmModel,
    scheme: &CompressionScheme,
    spec: &ShardSpec,
) -> Option<u64> {
    stages(model, scheme, spec)?
        .iter()
        .try_fold(u64::MAX, |budget, stage| {
            let headroom = HBM_CAPACITY_BYTES as f64 - stage.weight_bytes;
            let per_token = stage.kv_bytes_per_token as f64;
            (headroom >= 0.0 && per_token > 0.0).then(|| budget.min((headroom / per_token) as u64))
        })
}

/// The number of whole KV-cache *blocks* of `block_size` tokens the plan
/// sustains — the pool size of `deca-serve`'s paged allocator — rounded
/// down (a partial block cannot be allocated). `None` exactly when
/// [`max_kv_tokens`] is `None`.
///
/// # Panics
///
/// Panics if `block_size` is zero.
#[must_use]
pub fn max_kv_blocks(
    model: &LlmModel,
    scheme: &CompressionScheme,
    spec: &ShardSpec,
    block_size: usize,
) -> Option<u64> {
    assert!(block_size > 0, "block size must be positive");
    max_kv_tokens(model, scheme, spec).map(|tokens| tokens / block_size as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_per_parameter_tracks_the_scheme() {
        assert_eq!(bytes_per_parameter(&CompressionScheme::bf16_dense()), 2.0);
        assert_eq!(bytes_per_parameter(&CompressionScheme::bf8_dense()), 1.0);
        assert!((bytes_per_parameter(&CompressionScheme::mxfp4()) - 0.53125).abs() < 1e-9);
        // Q8 at 5 %: 0.05 + 1/8 bitmask bytes per parameter.
        assert!((bytes_per_parameter(&CompressionScheme::bf8_sparse(0.05)) - 0.175).abs() < 1e-9);
    }

    #[test]
    fn paper_capacity_observations_hold() {
        // §8: BF16, Q16_50% and Q8_100% do not fit in 64 GB of HBM; the
        // compressed schemes evaluated with DECA do.
        let fits = |model: &LlmModel, scheme| fits_in_hbm(model, &scheme, &ShardSpec::single());
        let llama = LlmModel::llama2_70b();
        assert!(!fits(&llama, CompressionScheme::bf16_dense()));
        assert!(!fits(&llama, CompressionScheme::bf16_sparse(0.5)));
        assert!(!fits(&llama, CompressionScheme::bf8_dense()));
        assert!(fits(&llama, CompressionScheme::mxfp4()));
        assert!(fits(&llama, CompressionScheme::bf8_sparse(0.2)));
        assert!(fits(&llama, CompressionScheme::bf8_sparse(0.05)));

        let opt = LlmModel::opt_66b();
        assert!(!fits(&opt, CompressionScheme::bf16_dense()));
        assert!(fits(&opt, CompressionScheme::mxfp4()));
    }

    #[test]
    fn kv_cache_accounting_scales_with_context_and_batch() {
        let llama = LlmModel::llama2_70b();
        // 80 layers x 4096 B/token (GQA) = 327 680 B per context token.
        assert_eq!(kv_cache_bytes_per_sequence(&llama, 1), 327_680);
        assert_eq!(
            kv_cache_bytes(&llama, 4096, 16),
            327_680 * 4096 * 16 // ~21.5 GB: a real bite out of the headroom
        );
        assert_eq!(kv_cache_bytes(&llama, 0, 16), 0);
    }

    #[test]
    fn kv_cache_participates_in_the_hbm_fit_check() {
        let llama = LlmModel::llama2_70b();
        let q8_5 = CompressionScheme::bf8_sparse(0.05);
        let single = ShardSpec::single();
        // Weights fit with lots of headroom...
        assert!(fits_in_hbm_with_kv(&llama, &q8_5, &single, 4096, 16));
        // ...but a large enough resident KV set overflows even Q8_5%.
        let budget = max_kv_tokens(&llama, &q8_5, &single).expect("weights fit") as usize;
        assert!(budget > 100_000, "budget {budget}");
        assert!(!fits_in_hbm_with_kv(&llama, &q8_5, &single, budget + 1, 1));
        assert!(fits_in_hbm_with_kv(&llama, &q8_5, &single, budget, 1));

        // Headroom is consistent with the budget: budget tokens eat it all.
        let weights = weight_bytes_per_socket(&llama, &q8_5, &single).expect("one stage");
        let headroom = HBM_CAPACITY_BYTES as f64 - weights;
        let used = kv_cache_bytes(&llama, budget, 1) as f64;
        assert!(used <= headroom && headroom - used < 327_680.0);
    }

    #[test]
    fn models_that_do_not_fit_have_no_kv_budget() {
        let llama = LlmModel::llama2_70b();
        let bf16 = CompressionScheme::bf16_dense();
        assert_eq!(max_kv_tokens(&llama, &bf16, &ShardSpec::single()), None);
        let weights =
            weight_bytes_per_socket(&llama, &bf16, &ShardSpec::single()).expect("one stage");
        assert!(weights > HBM_CAPACITY_BYTES as f64);
        assert!(!fits_in_hbm_with_kv(
            &llama,
            &bf16,
            &ShardSpec::single(),
            0,
            1
        ));
    }

    /// Regression: a degenerate zero-layer model has zero per-token KV
    /// cost; before the guard, `headroom / 0.0 == inf` and the `u64` cast
    /// saturated it into a bogus "unbounded" scheduler budget. Under a
    /// plan, the budget used to panic in `ShardSpec::stage_layers`.
    #[test]
    fn degenerate_models_with_zero_kv_cost_have_no_budget() {
        let zero_layers = LlmModel::new("degenerate", 0, *LlmModel::llama2_70b().layer(), 32_000);
        let scheme = CompressionScheme::bf8_sparse(0.05);
        // The (tiny) footprint fits, so the headroom is positive...
        assert!(fits_in_hbm(&zero_layers, &scheme, &ShardSpec::single()));
        // ...but the per-token KV cost is zero: no meaningful budget exists,
        // on one socket or under any plan.
        for spec in [ShardSpec::single(), ShardSpec::tp(2), ShardSpec::pp(2)] {
            assert_eq!(max_kv_tokens(&zero_layers, &scheme, &spec), None, "{spec}");
            assert_eq!(max_kv_blocks(&zero_layers, &scheme, &spec, 16), None);
        }
    }

    /// Regression: a plan with more pipeline stages than the model has
    /// layers used to panic in `ShardSpec::stage_layers`; every footprint
    /// now reports it as unservable.
    #[test]
    fn plans_deeper_than_the_model_do_not_fit() {
        let llama = LlmModel::llama2_70b();
        let scheme = CompressionScheme::bf8_sparse(0.05);
        let too_deep = ShardSpec::pp(81);
        assert_eq!(weight_bytes_per_socket(&llama, &scheme, &too_deep), None);
        assert!(!fits_in_hbm(&llama, &scheme, &too_deep));
        assert!(!fits_in_hbm_with_kv(&llama, &scheme, &too_deep, 0, 1));
        assert_eq!(max_kv_tokens(&llama, &scheme, &too_deep), None);
        assert_eq!(max_kv_blocks(&llama, &scheme, &too_deep, 16), None);
        // One layer per stage is still a plan.
        assert!(max_kv_tokens(&llama, &scheme, &ShardSpec::pp(80)).is_some());
    }

    #[test]
    fn block_budget_is_the_token_budget_in_whole_blocks() {
        let llama = LlmModel::llama2_70b();
        let q8_5 = CompressionScheme::bf8_sparse(0.05);
        let tokens = max_kv_tokens(&llama, &q8_5, &ShardSpec::single()).expect("fits");
        let blocks = max_kv_blocks(&llama, &q8_5, &ShardSpec::single(), 16).expect("fits");
        assert_eq!(blocks, tokens / 16);
        // Block size 1 degenerates to the token budget.
        assert_eq!(
            max_kv_blocks(&llama, &q8_5, &ShardSpec::single(), 1),
            Some(tokens)
        );
        // No weights fit ⇒ no block pool either.
        assert_eq!(
            max_kv_blocks(
                &llama,
                &CompressionScheme::bf16_dense(),
                &ShardSpec::single(),
                16
            ),
            None
        );
    }

    #[test]
    fn footprints_are_ordered_by_compression_factor() {
        let llama = LlmModel::llama2_70b();
        let footprint = |scheme| {
            weight_bytes_per_socket(&llama, &scheme, &ShardSpec::single()).expect("one stage")
        };
        let bf16 = footprint(CompressionScheme::bf16_dense());
        let q8 = footprint(CompressionScheme::bf8_dense());
        let q4 = footprint(CompressionScheme::mxfp4());
        let q8_5 = footprint(CompressionScheme::bf8_sparse(0.05));
        assert!(bf16 > q8 && q8 > q4 && q4 > q8_5);
        // The BF16 footprint is roughly 2 bytes per parameter.
        assert!((bf16 / llama.total_params() as f64 - 2.0).abs() < 0.01);
    }
}
