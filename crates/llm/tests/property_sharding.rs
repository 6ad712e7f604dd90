//! Property tests for the plan-aware footprint (`deca_llm::footprint`).
//!
//! Every footprint function takes a [`ShardSpec`]; the single-socket view
//! is [`ShardSpec::single`]. Sharding must only ever *split* the weights,
//! and a plan's KV-token budget must be exactly what its tightest socket
//! holds. (The estimator's anchor property — the single-socket plan is the
//! unsharded composition, bit for bit — lives in-crate, next to the test
//! oracle it compares against.)

use deca_compress::CompressionScheme;
use deca_llm::{footprint, LlmModel, ShardSpec};
use proptest::prelude::*;

fn scheme(index: u32) -> CompressionScheme {
    match index % 5 {
        0 => CompressionScheme::bf16_dense(),
        1 => CompressionScheme::bf8_dense(),
        2 => CompressionScheme::bf8_sparse(0.2),
        3 => CompressionScheme::bf8_sparse(0.05),
        _ => CompressionScheme::mxfp4(),
    }
}

fn model(index: u32) -> LlmModel {
    if index.is_multiple_of(2) {
        LlmModel::llama2_70b()
    } else {
        LlmModel::opt_66b()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sharding never *increases* the per-socket weight bytes over the
    /// single-socket footprint; a plan with a KV budget holds exactly that
    /// many tokens and not one more, in whole blocks too.
    #[test]
    fn sharded_footprints_are_consistent(
        scheme_index in 0u32..5,
        model_index in 0u32..2,
        tp_exp in 0u32..4,
        pp in 1usize..5,
    ) {
        let scheme = scheme(scheme_index);
        let model = model(model_index);
        let spec = ShardSpec::new(1 << tp_exp, pp);
        let weights = |spec: &ShardSpec| {
            footprint::weight_bytes_per_socket(&model, &scheme, spec)
                .expect("every plan here splits the model")
        };
        let single = weights(&ShardSpec::single());
        let sharded = weights(&spec);
        prop_assert!(sharded <= single * 1.0001, "{spec}: {sharded} > {single}");
        prop_assert_eq!(
            footprint::fits_in_hbm(&model, &scheme, &spec),
            sharded <= footprint::HBM_CAPACITY_BYTES as f64
        );

        let budget = footprint::max_kv_tokens(&model, &scheme, &spec);
        prop_assert_eq!(
            footprint::max_kv_blocks(&model, &scheme, &spec, 16),
            budget.map(|tokens| tokens / 16)
        );
        if let Some(budget) = budget {
            let budget = usize::try_from(budget).unwrap();
            prop_assert!(footprint::fits_in_hbm(&model, &scheme, &spec));
            prop_assert!(footprint::fits_in_hbm_with_kv(&model, &scheme, &spec, budget, 1));
            prop_assert!(!footprint::fits_in_hbm_with_kv(
                &model, &scheme, &spec, budget + 1, 1
            ));
        }
    }
}
