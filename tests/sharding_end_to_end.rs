//! End-to-end test of the sharding layer: a `deca_llm::parallel` plan
//! priced by the one `InferenceEstimator`, driving the full serving stack
//! through `deca-serve`'s sharded cost model — no linear stand-ins. The scenario is the ROADMAP's production one: a Table 4
//! scheme that one socket cannot serve (dense Q8's weights overflow 64 GB;
//! Q4's weights fit but its KV working set does not) becomes servable at
//! TP ≥ 2, with the interconnect priced in.

use deca_compress::CompressionScheme;
use deca_kernels::Engine;
use deca_llm::{footprint, InferenceEstimator, InterconnectModel, LlmModel, ShardSpec};
use deca_roofsurface::MachineConfig;
use deca_serve::{
    min_sockets_for_slo, sharded_kv_budget_tokens, ArrivalProcess, EstimatorCostModel,
    LengthDistribution, RequestRecord, ServingConfig, ServingSimulator, ShardingSearchSpec,
    SloTarget, WorkloadSpec,
};

fn small_chat(rate: f64, requests: usize, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        arrivals: ArrivalProcess::Poisson { rate_per_sec: rate },
        prompt_lengths: LengthDistribution::Bimodal {
            short: 128,
            long: 1024,
            long_fraction: 0.1,
        },
        output_lengths: LengthDistribution::Uniform { min: 32, max: 96 },
        requests,
        seed,
    }
}

/// Dense Q8 cannot be served from one socket's HBM at all, but a TP2 plan
/// restores a KV budget and a full serving run completes on it with the
/// production (estimator-backed, sharded) cost model.
#[test]
fn unservable_scheme_serves_at_tp2() {
    let machine = MachineConfig::spr_hbm();
    let model = LlmModel::llama2_70b();
    let q8 = CompressionScheme::bf8_dense();

    // One socket: the weights alone overflow (the §8 capacity observation),
    // so there is no budget to admit against.
    let single = ShardSpec::single();
    assert!(!footprint::fits_in_hbm(&model, &q8, &single));
    assert_eq!(footprint::max_kv_tokens(&model, &q8, &single), None);
    assert_eq!(sharded_kv_budget_tokens(&model, &q8, &single), None);

    // TP2: every socket holds half the output features; the budget exists
    // and a real trace drains against it.
    let spec = ShardSpec::tp(2);
    let budget = sharded_kv_budget_tokens(&model, &q8, &spec).expect("Q8 dense fits at TP2");
    assert!(budget > 50_000, "budget {budget}");
    let trace = small_chat(1.0, 24, 7).generate();
    let cost = EstimatorCostModel::sharded(
        machine.clone(),
        model.clone(),
        q8,
        Engine::deca_default(),
        spec,
        InterconnectModel::spr_upi(),
    );
    let report = ServingSimulator::new(cost, ServingConfig::continuous(8, budget)).run(&trace);
    assert_eq!(report.completed() + report.rejected, trace.len());
    assert_eq!(report.rejected, 0);
    assert!(report.peak_kv_reserved_tokens <= budget);

    // TTFT is real: nothing undercuts the sharded prefill of its own
    // prompt (queueing and batching only ever add).
    let estimator = InferenceEstimator::sharded(machine, spec, InterconnectModel::spr_upi());
    for record in &report.records {
        let floor = estimator
            .prefill(&model, &q8, Engine::deca_default(), record.prompt_tokens, 0)
            .total_seconds();
        assert!(
            record.ttft_s() >= floor * 0.999,
            "request {}: TTFT {:.3}s below its own prefill {:.3}s",
            record.id,
            record.ttft_s(),
            floor
        );
    }
}

/// On the same sharded plan and trace, DECA beats software decompression
/// at the decode tail — the single-socket Table 4 story survives sharding.
#[test]
fn deca_beats_software_on_a_sharded_replica() {
    let machine = MachineConfig::spr_hbm();
    let model = LlmModel::llama2_70b();
    let q4 = CompressionScheme::mxfp4();
    let spec = ShardSpec::tp(2);
    let budget = sharded_kv_budget_tokens(&model, &q4, &spec).expect("Q4 fits at TP2");
    let trace = small_chat(1.5, 32, 13).generate();
    let run = |engine| {
        let cost = EstimatorCostModel::sharded(
            machine.clone(),
            model.clone(),
            q4,
            engine,
            spec,
            InterconnectModel::spr_upi(),
        );
        ServingSimulator::new(cost, ServingConfig::continuous(16, budget)).run(&trace)
    };
    let sw = run(Engine::software());
    let deca = run(Engine::deca_default());
    assert_eq!(sw.completed(), deca.completed());
    let mean_tpot = |records: &[RequestRecord]| {
        records.iter().map(RequestRecord::tpot_s).sum::<f64>() / records.len() as f64
    };
    assert!(
        mean_tpot(&deca.records) < mean_tpot(&sw.records),
        "DECA mean TPOT {:.1} ms vs software {:.1} ms",
        mean_tpot(&deca.records) * 1e3,
        mean_tpot(&sw.records) * 1e3
    );
    assert!(deca.metrics().e2e.p99_s <= sw.metrics().e2e.p99_s);
}

/// The min-socket search reproduces the `bench_sharding` acceptance story:
/// Q4's weights fit one socket but its 131 k-token KV working set does
/// not, and DECA meets the interactive p99 SLO at TP ≥ 2.
#[test]
fn q4_working_set_needs_sharding_and_deca_serves_it() {
    let machine = MachineConfig::spr_hbm();
    let model = LlmModel::llama2_70b();
    let q4 = CompressionScheme::mxfp4();
    let working_set = 16 * 8192;

    // The one-socket contradiction: weights fit, weights + working set
    // don't.
    let single = ShardSpec::single();
    assert!(footprint::fits_in_hbm(&model, &q4, &single));
    assert!(!footprint::fits_in_hbm_with_kv(
        &model, &q4, &single, 8192, 16
    ));
    assert!(footprint::fits_in_hbm_with_kv(
        &model,
        &q4,
        &ShardSpec::tp(2),
        8192,
        16
    ));

    let search = ShardingSearchSpec {
        slo: SloTarget::interactive(),
        workload: small_chat(0.4, 16, 17),
        max_batch: 16,
        required_kv_tokens: working_set,
    };
    let plans = [ShardSpec::single(), ShardSpec::tp(2), ShardSpec::tp(4)];
    let winner = min_sockets_for_slo(
        &machine,
        &model,
        &q4,
        Engine::deca_default(),
        InterconnectModel::spr_upi(),
        &plans,
        &search,
    )
    .expect("DECA serves the working set at some TP degree");
    assert!(
        winner.spec.sockets() >= 2,
        "one socket cannot hold the working set, got {}",
        winner.spec
    );
    assert!(winner.feasible);
    assert!(winner.p99_tpot_s <= search.slo.tpot_s);
    assert!(winner.p99_ttft_s <= search.slo.ttft_s);
}
