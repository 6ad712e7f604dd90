//! The two serving workloads, `chat_prefix` and `tenant_backlog`.
//!
//! Both time the same phase — request generation, the event core
//! (`run_streamed`) and the report summary (`report.metrics()`) — and
//! repeat it until the time budget is spent, reporting medians. They load
//! the scheduler layer in opposite ways: `chat_prefix` is the real pricing
//! path (`EstimatorCostModel`) on the paged core with prefix sharing at a
//! load the replica sustains, so the admission queue stays short while the
//! prefix cache and block allocator work hard; `tenant_backlog` is the
//! continuous core under a deep mixed-class backlog with closed-form
//! pricing, so admission and the event queue dominate and the prefix cache,
//! the block pool and the estimator are bypassed.

use std::fmt::Write as _;
use std::time::Instant;

use deca_compress::CompressionScheme;
use deca_kernels::Engine;
use deca_llm::LlmModel;
use deca_roofsurface::MachineConfig;
use deca_serve::{
    capacity_search_with, hbm_kv_budget_tokens, AdapterModel, CapacitySpec, EstimatorCostModel,
    LinearCostModel, MultiTenantSpec, Request, ServingConfig, ServingCostModel, ServingMetrics,
    ServingReport, ServingSimulator, SharedPrefixChatSpec, SloTarget,
};

use crate::trace::{CostStats, MemoCounters, TimedCost, TimedIter, Tracer};
use crate::{median, Digest, Results};

/// Session arrival rate of `chat_prefix` (sessions/s): about two thirds of
/// what one Llama2-70B Q8_5% DECA replica sustains at the interactive SLO
/// (~0.3 sessions/s), so the queue stays near empty. Closer to the knee
/// (0.25) the p99 TTFT swings by a third from seed to seed.
const CHAT_RATE: f64 = 0.2;
/// Conversations per timed repetition of `chat_prefix` (four requests each).
const CHAT_SESSIONS: usize = 10_000;
/// Conversations replayed during set-up to fill the cost model's memo.
const CHAT_WARM_SESSIONS: usize = 1_000;
/// Conversations per probe of the capacity search.
const CAPACITY_SESSIONS: usize = 1_000;
/// Decode batch limit of both serving workloads.
const MAX_BATCH: usize = 16;
/// Tokens per KV block on the paged core.
const BLOCK_SIZE: usize = 32;

/// Interactive arrival rate of `tenant_backlog` (req/s). With the Batch
/// lane (a quarter of the rate, jobs ~5× longer) the replica is offered
/// more than it serves, so Batch work piles up all run (thousands queued)
/// while Interactive requests bypass it — yet Interactive alone stays
/// within capacity, so goodput is a steady figure. From ~2.4 req/s on, the
/// Interactive lane saturates too and goodput collapses towards 0.
const TENANT_RATE: f64 = 2.0;
/// Interactive requests of `tenant_backlog`; the Batch lane adds a quarter
/// more. Large enough that the superlinear admission cost shows.
const TENANT_INTERACTIVE: usize = 80_000;
/// LoRA adapter footprint in KV-token equivalents.
const ADAPTER_TOKENS: usize = 64;
/// Adapter cache slots: all twelve tenants fit.
const ADAPTER_SLOTS: usize = 12;
/// Consecutive Interactive bypasses before a waiting Batch request is
/// promoted.
const QOS_AGING: usize = 8;

/// Trace generations per set-up sample of `tenant_backlog`.
const TENANT_SETUP_GENERATIONS: usize = 10;
/// Timed repetitions at least, whatever the time budget.
const MIN_REPS: usize = 3;

/// One timed repetition of a serving workload. Only the first
/// repetition's report is kept (the others must model identical outputs,
/// which their digests check), so memory does not grow with the count.
struct Rep {
    start: Instant,
    /// End of generation + run.
    run_end: Instant,
    /// End of the summary.
    end: Instant,
    /// Digest of the repetition's report.
    digest: u64,
    /// Filled on traced repetitions only.
    cost: Option<CostStats>,
    /// Time spent in the request source (traced repetitions only).
    gen_s: f64,
    generated: u64,
}

impl Rep {
    /// Generation + run + summary, seconds.
    fn wall_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    /// Generation + run, seconds.
    fn run_s(&self) -> f64 {
        (self.run_end - self.start).as_secs_f64()
    }

    fn summary_s(&self) -> f64 {
        (self.end - self.run_end).as_secs_f64()
    }

    fn cost(&self) -> &CostStats {
        self.cost
            .as_ref()
            .expect("traced repetitions carry cost stats")
    }
}

/// The repetitions of one timed phase, with the first one's outputs.
struct Phase {
    report: ServingReport,
    summary: ServingMetrics,
    reps: Vec<Rep>,
}

impl Phase {
    /// Mean wall time of a repetition.
    fn mean_wall_s(&self) -> f64 {
        self.reps.iter().map(Rep::wall_s).sum::<f64>() / self.reps.len() as f64
    }
}

/// Runs one repetition, optionally through the tracing wrappers, and
/// returns it with the cost model (memo warm) for the next one.
fn run_rep<C, I>(
    cost: C,
    config: ServingConfig,
    requests: I,
    traced: bool,
) -> (ServingReport, ServingMetrics, Rep, C)
where
    C: ServingCostModel + MemoCounters,
    I: Iterator<Item = Request>,
{
    let start = Instant::now();
    let (report, run_end, cost, stats, gen_s, generated) = if traced {
        let mut source = TimedIter::new(requests);
        let mut simulator = ServingSimulator::new(TimedCost::new(cost), config);
        let report = simulator.run_streamed(&mut source);
        let run_end = Instant::now();
        let (cost, stats) = simulator.into_cost_model().finish();
        let gen_s = source.busy_ns as f64 * 1e-9;
        (report, run_end, cost, Some(stats), gen_s, source.items)
    } else {
        let mut simulator = ServingSimulator::new(cost, config);
        let report = simulator.run_streamed(requests);
        let run_end = Instant::now();
        (report, run_end, simulator.into_cost_model(), None, 0.0, 0)
    };
    let summary = report.metrics();
    let end = Instant::now();
    let rep = Rep {
        start,
        run_end,
        end,
        digest: Digest::of(&report),
        cost: stats,
        gen_s,
        generated,
    };
    (report, summary, rep, cost)
}

/// Repeats the timed phase until `budget_s` is spent (and at least
/// [`MIN_REPS`] times), checking every repetition's outputs and calling
/// `between` after each one, outside its timed interval.
#[allow(clippy::too_many_arguments)]
fn timed_phase<C, I>(
    mut cost: C,
    config: ServingConfig,
    source: impl Fn() -> I,
    offered: usize,
    budget_s: f64,
    traced: bool,
    between: &mut dyn FnMut(),
    out: &mut Results,
) -> (Phase, C)
where
    C: ServingCostModel + MemoCounters,
    I: Iterator<Item = Request>,
{
    let start = Instant::now();
    let mut first = None;
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < budget_s {
        let (report, summary, rep, warm) = run_rep(cost, config, source(), traced);
        cost = warm;
        check_report(&report, offered, out);
        if reps.is_empty() && !traced {
            out.sample_peak_rss();
        }
        reps.push(rep);
        first.get_or_insert((report, summary));
        between();
    }
    let (report, summary) = first.expect("at least one repetition");
    (
        Phase {
            report,
            summary,
            reps,
        },
        cost,
    )
}

/// The untraced timed phase, then — with a tracer — the traced one, each
/// given half the time budget. `setup` re-times the set-up after each
/// untraced repetition: set-up samples spread over the whole run track the
/// shared host's shifting speed as the timed phase does, where samples
/// taken back to back before it see one moment.
#[allow(clippy::too_many_arguments)]
fn both_phases<C, I>(
    cost: C,
    config: ServingConfig,
    source: impl Fn() -> I,
    offered: usize,
    seconds: f64,
    setup: &mut dyn FnMut(),
    tracer: Option<&mut Tracer>,
    label: &str,
    out: &mut Results,
) -> (Phase, Option<Phase>)
where
    C: ServingCostModel + MemoCounters,
    I: Iterator<Item = Request>,
{
    let Some(tracer) = tracer else {
        return (
            timed_phase(cost, config, source, offered, seconds, false, setup, out).0,
            None,
        );
    };
    let half = seconds / 2.0;
    let (untraced, cost) = timed_phase(cost, config, &source, offered, half, false, setup, out);
    let (traced, _) = timed_phase(cost, config, &source, offered, half, true, &mut || {}, out);
    record_spans(tracer, &untraced, &format!("{label}.untraced"));
    record_spans(tracer, &traced, &format!("{label}.traced"));
    (untraced, Some(traced))
}

/// Conservation and ordering checks on one report; rejected requests count
/// as failures too.
fn check_report(report: &ServingReport, offered: usize, out: &mut Results) {
    out.checks.attempt(offered as u64);
    out.checks.fail("rejected", report.rejected as u64);
    out.checks.fail(
        "completed_plus_rejected_eq_offered",
        offered.abs_diff(report.completed() + report.rejected) as u64,
    );
    let disordered = report
        .records
        .iter()
        .filter(|r| {
            !(r.arrival_s.is_finite()
                && r.arrival_s <= r.first_token_s
                && r.first_token_s <= r.completion_s
                && r.completion_s.is_finite())
        })
        .count();
    out.checks
        .fail("arrival_le_first_token_le_finish", disordered as u64);
}

/// Sets the serving workloads' shared metrics and checks from the
/// untraced (and, with a tracer, traced) phase. Returns the digest of the
/// modeled outputs.
fn report_serving(
    untraced: &Phase,
    traced: Option<&Phase>,
    cold: Option<&CostStats>,
    setup_s: &[f64],
    offered: usize,
    out: &mut Results,
) -> Digest {
    let digest = untraced.reps[0].digest;
    for rep in &untraced.reps {
        out.checks
            .expect("repetitions_model_identical_outputs", rep.digest == digest);
    }
    for rep in traced.iter().flat_map(|p| &p.reps) {
        out.checks
            .expect("traced_digest_eq_untraced", rep.digest == digest);
    }
    // All repetitions' requests over their total wall time. On a shared
    // host the speed shifts between levels for seconds to minutes; over
    // ten-run sets this total spread less than the median, the fastest or
    // the upper quartile of the repetitions.
    out.set(
        "requests_per_wall_s",
        offered as f64 / untraced.mean_wall_s(),
        untraced.reps.len(),
    );
    out.set("setup_s", median(setup_s), setup_s.len());
    let summary = &untraced.summary;
    let completed = summary.completed;
    out.set("sim_ttft_p50_s", summary.ttft.p50_s, completed);
    out.set("sim_ttft_p99_s", summary.ttft.p99_s, completed);
    out.set("sim_tpot_p50_s", summary.tpot.p50_s, completed);
    out.set("sim_tpot_p99_s", summary.tpot.p99_s, completed);
    out.set(
        "sim_goodput_rps",
        untraced.report.goodput_rps(&SloTarget::interactive()),
        completed,
    );
    out.notes.push(format!(
        "offered={offered} completed={completed} rejected={} sim_makespan_s={:.1}",
        untraced.report.rejected, untraced.report.makespan_s,
    ));
    let listed: Vec<String> = untraced
        .reps
        .iter()
        .map(|r| format!("{:.0}", offered as f64 / r.wall_s()))
        .collect();
    out.notes
        .push(format!("req/s per repetition: {}", listed.join(" ")));
    if let Some(traced) = traced {
        per_layer(untraced, traced, cold, out);
    }
    Digest(digest)
}

/// Per-layer metrics from the traced repetitions (medians across them).
/// The memo figures come from `cold`, a traced run that starts with an empty
/// memo: every timed repetition replays conversations the memo has seen, so
/// there all lookups hit.
fn per_layer(untraced: &Phase, traced: &Phase, cold: Option<&CostStats>, out: &mut Results) {
    let n = traced.reps.len();
    let med = |f: &dyn Fn(&Rep) -> f64| median(&traced.reps.iter().map(f).collect::<Vec<_>>());
    out.set(
        "trace.overhead",
        traced.mean_wall_s() / untraced.mean_wall_s(),
        n,
    );
    out.set("workload.gen_s", med(&|r| r.gen_s), n);
    out.set("workload.requests", traced.reps[0].generated as f64, n);
    out.set("cost.calls", med(&|r| r.cost().calls as f64), n);
    out.set("cost.busy_s", med(&|r| r.cost().busy_ns as f64 * 1e-9), n);
    out.set("cost.call_ns_p50", med(&|r| r.cost().call_ns_p50), n);
    out.set("cost.call_ns_p99", med(&|r| r.cost().call_ns_p99), n);
    if let Some(cold) = cold {
        let lookups = cold.memo_hits + cold.memo_misses;
        let lookups_n = lookups as usize;
        out.set(
            "cost.memo_hit_ratio",
            cold.memo_hits as f64 / lookups.max(1) as f64,
            lookups_n,
        );
        out.set("cost.memo_misses", cold.memo_misses as f64, lookups_n);
        out.set(
            "cost.miss_busy_s",
            cold.miss_busy_ns as f64 * 1e-9,
            lookups_n,
        );
    }
    let self_s = |r: &Rep| r.run_s() - r.cost().busy_ns as f64 * 1e-9 - r.gen_s;
    out.set("scheduler.self_s", med(&self_s), n);
    let report = &traced.report;
    let steps = (report.decode_steps + report.prefill_steps + report.chunk_steps) as f64;
    out.set(
        "scheduler.wall_ns_per_step",
        med(&|r| self_s(r) / steps * 1e9),
        n,
    );
    out.set("scheduler.decode_steps", report.decode_steps as f64, n);
    out.set("scheduler.prefill_steps", report.prefill_steps as f64, n);
    out.set(
        "scheduler.peak_queue_depth",
        report.peak_queue_depth as f64,
        n,
    );
    out.set("scheduler.mean_queue_depth", report.mean_queue_depth, n);
    out.set("scheduler.peak_batch", report.peak_batch as f64, n);
    if let Some(paged) = &report.paged {
        out.set("kv.peak_blocks", paged.peak_allocated_blocks as f64, n);
        out.set("kv.mean_block_utilization", paged.mean_block_utilization, n);
        out.set("kv.preemptions", paged.preemptions as f64, n);
        out.set("prefix.hit_ratio", paged.prefix_hit_rate(), n);
        out.set("prefix.hit_tokens", paged.prefix_hit_tokens as f64, n);
        out.set("prefix.evictions", paged.cache_evictions as f64, n);
    }
    if report.qos.interactive_bypasses + report.qos.aging_promotions > 0 {
        out.set("tenant.bypasses", report.qos.interactive_bypasses as f64, n);
        out.set(
            "tenant.aging_promotions",
            report.qos.aging_promotions as f64,
            n,
        );
        out.set(
            "tenant.peak_interactive_run",
            report.qos.peak_interactive_run as f64,
            n,
        );
    }
    if report.adapters.cache_hits + report.adapters.cache_loads > 0 {
        out.set("lora.hit_ratio", report.adapters.hit_rate(), n);
        out.set("lora.loads", report.adapters.cache_loads as f64, n);
    }
    out.set("metrics.summary_s", med(&Rep::summary_s), n);
}

/// Records each repetition as a span, with its run and summary as
/// children.
fn record_spans(tracer: &mut Tracer, phase: &Phase, label: &str) {
    for rep in &phase.reps {
        let parent = Some(tracer.record(format!("{label}.rep"), None, rep.start, rep.end));
        tracer.record("serve.run_streamed", parent, rep.start, rep.run_end);
        tracer.record("serve.metrics", parent, rep.run_end, rep.end);
    }
}

/// The model, scheme and engine `chat_prefix` prices with.
fn chat_cost() -> EstimatorCostModel {
    EstimatorCostModel::new(
        MachineConfig::spr_hbm(),
        LlmModel::llama2_70b(),
        CompressionScheme::bf8_sparse(0.05),
        Engine::deca_default(),
    )
}

/// KV budget of both serving workloads: what one socket's HBM holds next to
/// Llama2-70B's Q8_5% weights.
fn kv_budget_tokens() -> usize {
    hbm_kv_budget_tokens(
        &LlmModel::llama2_70b(),
        &CompressionScheme::bf8_sparse(0.05),
    )
    .expect("Llama2-70B at Q8_5% fits in one socket's HBM")
}

/// Replays the first [`CHAT_WARM_SESSIONS`] conversations through `cost`,
/// filling its memo.
fn warm_memo<C: ServingCostModel>(cost: C, config: ServingConfig, seed: u64) -> C {
    let warm = SharedPrefixChatSpec::fleet(CHAT_RATE, CHAT_WARM_SESSIONS, seed);
    let mut simulator = ServingSimulator::new(cost, config);
    let _ = simulator.run_streamed(warm.stream());
    simulator.into_cost_model()
}

fn chat_config() -> ServingConfig {
    ServingConfig::paged(MAX_BATCH, kv_budget_tokens(), BLOCK_SIZE).with_prefix_sharing(true)
}

/// `chat_prefix`: multi-turn conversations over a shared system prompt,
/// streamed through the paged core with prefix sharing, priced by the
/// memoized estimator at a sustainable rate.
pub fn chat_prefix(seed: u64, seconds: f64, mut tracer: Option<&mut Tracer>, out: &mut Results) {
    let spec = SharedPrefixChatSpec::fleet(CHAT_RATE, CHAT_SESSIONS, seed);
    let config = chat_config();

    // Set-up: build the cost model and fill its memo on a prefix of the
    // same conversations, so the timed phase measures the warm path. A
    // traced run times the cost calls of this cold start, where the memo
    // misses are.
    let start = Instant::now();
    let (cost, cold) = if tracer.is_some() {
        let (cost, cold) = warm_memo(TimedCost::new(chat_cost()), config, seed).finish();
        (cost, Some(cold))
    } else {
        (warm_memo(chat_cost(), config, seed), None)
    };
    let mut setup_s = vec![start.elapsed().as_secs_f64()];

    // The capacity search runs outside the timed phase, on a short slice of
    // the same conversations.
    let start = Instant::now();
    let slice = SharedPrefixChatSpec::fleet(CHAT_RATE, CAPACITY_SESSIONS, seed);
    let capacity = capacity_search_with(
        cost.clone(),
        &config,
        &CapacitySpec {
            slo: SloTarget::interactive(),
            requests: slice.requests(),
            seed,
            min_rate: 0.0625,
            max_rate: 8.0,
            iterations: 6,
        },
        |rate| slice.with_rate(rate).generate(),
    );
    let capacity_s = start.elapsed().as_secs_f64();
    out.set("sim_capacity_rps", capacity.max_rate_rps, CAPACITY_SESSIONS);
    out.notes.push(format!(
        "capacity search: {:.4} sessions/s (p99 ttft {:.3} s, p99 tpot {:.4} s) in {capacity_s:.2} s",
        capacity.max_rate_rps, capacity.p99_ttft_s, capacity.p99_tpot_s
    ));

    let offered = spec.requests();
    let source = || spec.stream();
    let mut resample = || {
        let start = Instant::now();
        drop(warm_memo(chat_cost(), config, seed));
        setup_s.push(start.elapsed().as_secs_f64());
    };
    let (untraced, traced) = both_phases(
        cost,
        config,
        source,
        offered,
        seconds,
        &mut resample,
        tracer.as_deref_mut(),
        "chat_prefix",
        out,
    );
    let mut digest = report_serving(
        &untraced,
        traced.as_ref(),
        cold.as_ref(),
        &setup_s,
        offered,
        out,
    );
    write!(digest, "{capacity:?}").expect("hashing cannot fail");
    crate::decompress::gemm_speedup(tracer, out, &mut digest);
    out.digest = digest.0;
}

/// `tenant_backlog`: twelve LoRA tenants, Interactive:Batch about 4:1,
/// offered above capacity to the continuous core with QoS admission.
pub fn tenant_backlog(seed: u64, seconds: f64, mut tracer: Option<&mut Tracer>, out: &mut Results) {
    let config = ServingConfig::continuous(MAX_BATCH, kv_budget_tokens())
        .with_adapters(AdapterModel::new(ADAPTER_TOKENS, ADAPTER_SLOTS))
        .with_qos_aging(QOS_AGING);

    // Set-up: generate the whole trace (the timed phase replays it). One
    // generation takes under 10 ms, too short to time steadily, so each
    // set-up sample times a batch of them and counts the time per
    // generation.
    let generate = || MultiTenantSpec::fleet(TENANT_RATE, TENANT_INTERACTIVE, seed).generate();
    let time_setup = || {
        let start = Instant::now();
        for _ in 1..TENANT_SETUP_GENERATIONS {
            drop(generate());
        }
        let trace = generate();
        let per_generation = start.elapsed().as_secs_f64() / TENANT_SETUP_GENERATIONS as f64;
        (trace, per_generation)
    };
    let (trace, first_s) = time_setup();
    let mut setup_s = vec![first_s];
    let cost = LinearCostModel::default_70b();

    let offered = trace.len();
    let source = || trace.requests().iter().copied();
    let mut resample = || setup_s.push(time_setup().1);
    let (untraced, traced) = both_phases(
        cost,
        config,
        source,
        offered,
        seconds,
        &mut resample,
        tracer.as_deref_mut(),
        "tenant_backlog",
        out,
    );
    let mut digest = report_serving(&untraced, traced.as_ref(), None, &setup_s, offered, out);
    crate::decompress::gemm_speedup(tracer, out, &mut digest);
    out.digest = digest.0;
}
