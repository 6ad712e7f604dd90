//! The `weight_decompress` workload, and the modeled GeMM speedup every
//! workload reports.
//!
//! `weight_decompress` loads the layers the serving workloads barely touch:
//! the compressor, the five functional decompression engines, and the paper
//! stack underneath the serving cost model (kernels, tile simulator, DECA
//! core and Roof-Surface through `CompressedGemmExecutor`, and the LLM
//! estimator). Its three schemes pull the engines in different directions:
//! Q8_50% and Q8_5% are bitmask-sparse 8-bit LUT formats at two densities,
//! Q4 (MXFP4) is dense and group-scaled.

use std::fmt::Write as _;
use std::time::Instant;

use deca_compress::{
    generator::WeightGenerator, CompressedMatrix, CompressionScheme, Compressor, DecompressEngine,
    Decompressor, EngineKind, SchemeSet, WeightMatrix,
};
use deca_kernels::{CompressedGemmExecutor, Engine};
use deca_llm::{InferenceEstimator, LlmModel};
use deca_roofsurface::MachineConfig;
use deca_serve::{percentile, SloTarget};

use crate::trace::Tracer;
use crate::{median, Digest, Results};

/// Rows of the generated weight matrix.
const ROWS: usize = 512;
/// Columns of the generated weight matrix.
const COLS: usize = 1024;
/// Set-up repetitions; set-up time is their median.
const SETUP_REPS: usize = 3;
/// Calls per (engine, scheme) pair at least, whatever the time budget.
const MIN_CALLS: usize = 5;
/// Requests of the modeled single-request latency sample.
const LATENCY_SAMPLE: usize = 4_000;
/// The paper's headline: DECA is "up to 4×" faster than the software
/// kernel on compressed GeMMs.
const PAPER_GEMM_SPEEDUP: f64 = 4.0;

/// The compressed forms of the generated matrix, with each one's reference
/// decompression.
struct Prepared {
    label: &'static str,
    compressed: CompressedMatrix,
    reference: WeightMatrix,
}

fn schemes() -> [(&'static str, CompressionScheme); 3] {
    [
        ("q8_50", CompressionScheme::bf8_sparse(0.5)),
        ("q8_5", CompressionScheme::bf8_sparse(0.05)),
        ("q4", CompressionScheme::mxfp4()),
    ]
}

/// Generates the weights and compresses them with every scheme; returns the
/// prepared matrices and each scheme's compression time in seconds.
fn prepare(seed: u64, mut tracer: Option<&mut Tracer>) -> (Vec<Prepared>, Vec<f64>) {
    let weights = WeightGenerator::new(seed).dense_matrix(ROWS, COLS);
    let mut prepared = Vec::new();
    let mut compress_s = Vec::new();
    for (label, scheme) in schemes() {
        let start = Instant::now();
        let compressed = Compressor::new(scheme)
            .compress_matrix(&weights)
            .expect("generated weights compress");
        let end = Instant::now();
        compress_s.push((end - start).as_secs_f64());
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.record(format!("compress.{label}"), None, start, end);
        }
        let reference = Decompressor::new()
            .decompress_matrix(&compressed)
            .expect("reference decompression of a freshly compressed matrix");
        prepared.push(Prepared {
            label,
            compressed,
            reference,
        });
    }
    (prepared, compress_s)
}

/// Per-call durations of every (engine, scheme) pair, in seconds, indexed
/// `[engine][scheme]`, whether every output of the pair matched the
/// reference, and the wall time of the whole loop.
struct Timings {
    calls: Vec<Vec<Vec<f64>>>,
    exact: Vec<Vec<bool>>,
    wall_s: f64,
}

/// Decompresses every prepared matrix with every engine, round robin, until
/// `budget_s` is spent; every output is compared with the scalar reference
/// outside the timed interval.
fn decompress_loop(
    engines: &[(EngineKind, Box<dyn DecompressEngine>)],
    prepared: &[Prepared],
    budget_s: f64,
    mut tracer: Option<&mut Tracer>,
    out: &mut Results,
) -> Timings {
    let mut calls = vec![vec![Vec::new(); prepared.len()]; engines.len()];
    let mut exact = vec![vec![true; prepared.len()]; engines.len()];
    let mut output = WeightMatrix::zeros(ROWS, COLS);
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_CALLS || start.elapsed().as_secs_f64() < budget_s {
        for (e, (kind, engine)) in engines.iter().enumerate() {
            for (s, matrix) in prepared.iter().enumerate() {
                let call_start = Instant::now();
                let result = engine.decompress_matrix_into(&matrix.compressed, &mut output);
                let call_end = Instant::now();
                calls[e][s].push((call_end - call_start).as_secs_f64());
                if let Some(tracer) = tracer.as_deref_mut() {
                    let name = format!("decompress.{}.{}", kind.label(), matrix.label);
                    tracer.record(name, None, call_start, call_end);
                }
                let matches = result.is_ok() && output == matrix.reference;
                exact[e][s] &= matches;
                out.checks.attempt(1);
                out.checks
                    .expect("engine_output_eq_scalar_decompressor", matches);
            }
        }
        rounds += 1;
    }
    Timings {
        calls,
        exact,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Dense BF16 bytes one decompression writes.
fn output_bytes() -> f64 {
    (ROWS * COLS * 2) as f64
}

/// `weight_decompress`: compress a generated weight matrix three ways,
/// decompress it repeatedly with every engine, then evaluate the modeled
/// GeMM speedup and the estimator's single-request latencies.
pub fn weight_decompress(
    seed: u64,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    out: &mut Results,
) {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // The auto-tuned engine calibrates once per process, on first use;
    // building every engine here keeps that out of set-up and timing.
    let engines: Vec<(EngineKind, Box<dyn DecompressEngine>)> = EngineKind::all()
        .into_iter()
        .map(|kind| (kind, kind.build()))
        .collect();
    out.notes.push(format!(
        "{ROWS}x{COLS} weights, {} engines, parallel-matrix on {threads} threads",
        engines.len()
    ));

    let mut setup_s = Vec::new();
    let mut compress_s: Vec<Vec<f64>> = vec![Vec::new(); schemes().len()];
    let mut prepared = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let (matrices, times) = prepare(seed, tracer.as_deref_mut());
        let end = Instant::now();
        setup_s.push((end - start).as_secs_f64());
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.record("weight_decompress.setup", None, start, end);
        }
        for (per_scheme, t) in compress_s.iter_mut().zip(times) {
            per_scheme.push(t);
        }
        prepared = matrices;
    }
    out.set("setup_s", median(&setup_s), setup_s.len());

    let budget = if tracer.is_some() {
        seconds / 2.0
    } else {
        seconds
    };
    let untraced = decompress_loop(&engines, &prepared, budget, None, out);
    out.sample_peak_rss();
    let mut digest = Digest::default();
    for matrix in &prepared {
        let bits: Vec<u32> = matrix
            .reference
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        write!(digest, "{bits:?}").expect("hashing cannot fail");
    }
    let modeled = model_outputs(seed, None, out);
    write!(digest, "{modeled:?}").expect("hashing cannot fail");

    // Per scheme, the fastest engine whose every output matched the
    // reference; the end-to-end figures are geometric means over schemes.
    let per_call = |timings: &Timings, e: usize, s: usize| median(&timings.calls[e][s]);
    let mut log_rate = 0.0;
    for (s, matrix) in prepared.iter().enumerate() {
        let best = (0..engines.len())
            .filter(|&e| untraced.exact[e][s])
            .map(|e| per_call(&untraced, e, s))
            .fold(f64::INFINITY, f64::min);
        log_rate += (1.0 / best).ln();
        out.notes.push(format!(
            "{}: fastest bit-exact engine {:.3} GB/s",
            matrix.label,
            output_bytes() / best / 1e9
        ));
    }
    let rate = (log_rate / prepared.len() as f64).exp();
    let samples = untraced
        .calls
        .iter()
        .flatten()
        .map(Vec::len)
        .min()
        .unwrap_or(0);
    out.set("requests_per_wall_s", rate, samples);
    out.set("decompress_gbps", rate * output_bytes() / 1e9, samples);

    if let Some(tracer) = tracer.as_deref_mut() {
        let traced = decompress_loop(&engines, &prepared, budget, Some(&mut *tracer), out);
        let traced_modeled = model_outputs(seed, Some(&mut *tracer), out);
        out.checks.expect(
            "traced_digest_eq_untraced",
            Digest::of(&traced_modeled) == Digest::of(&modeled),
        );
        let calls = |t: &Timings| t.calls.iter().flatten().map(Vec::len).sum::<usize>() as f64;
        out.set(
            "trace.overhead",
            (traced.wall_s / calls(&traced)) / (untraced.wall_s / calls(&untraced)),
            1,
        );
        for (s, matrix) in prepared.iter().enumerate() {
            let mb = output_bytes() / 1e6;
            out.set(
                format!("compress.mbps.{}", matrix.label),
                mb / median(&compress_s[s]),
                compress_s[s].len(),
            );
            for (e, (kind, _)) in engines.iter().enumerate() {
                out.set(
                    format!("decompress.gbps.{}.{}", kind.label(), matrix.label),
                    output_bytes() / per_call(&traced, e, s) / 1e9,
                    traced.calls[e][s].len(),
                );
            }
        }
        let all_ms: Vec<f64> = traced
            .calls
            .iter()
            .flatten()
            .flatten()
            .map(|s| s * 1e3)
            .collect();
        out.set(
            "decompress.call_ms_p50",
            percentile(&all_ms, 50.0),
            all_ms.len(),
        );
        out.set(
            "decompress.call_ms_p99",
            percentile(&all_ms, 99.0),
            all_ms.len(),
        );
    }
    gemm_speedup(tracer, out, &mut digest);
    out.digest = digest.0;
}

/// The modeled outputs of `weight_decompress` beyond the GeMM speedup: the
/// estimator's single-request latencies on Llama2-70B at Q8_5% on DECA,
/// batch 1, over a seeded sample of prompt and output lengths.
#[derive(Debug)]
struct ModeledLatency {
    ttft_s: Vec<f64>,
    tpot_s: Vec<f64>,
    output_tokens: Vec<usize>,
}

/// Evaluates the latency sample and sets the `sim_` latency metrics. The
/// requests are served one at a time (no batching, no queueing), so goodput
/// is the requests meeting the interactive SLO per simulated second of
/// back-to-back service.
fn model_outputs(seed: u64, mut tracer: Option<&mut Tracer>, out: &mut Results) -> ModeledLatency {
    let estimator = InferenceEstimator::new(MachineConfig::spr_hbm());
    let model = LlmModel::llama2_70b();
    let scheme = CompressionScheme::bf8_sparse(0.05);
    let engine = Engine::deca_default();
    let mut state = seed ^ 0x5eed_1a7e_u64;
    let mut draw =
        |lo: usize, hi: usize| lo + (splitmix64(&mut state) % (hi - lo + 1) as u64) as usize;
    let mut modeled = ModeledLatency {
        ttft_s: Vec::new(),
        tpot_s: Vec::new(),
        output_tokens: Vec::new(),
    };
    let mut next_token_us = Vec::new();
    for _ in 0..LATENCY_SAMPLE {
        let prompt = draw(32, 2048);
        let output = draw(48, 384);
        let start = Instant::now();
        let ttft = estimator
            .prefill(&model, &scheme, engine, prompt, 0)
            .total_seconds();
        let mid = Instant::now();
        let tpot = estimator
            .next_token(&model, &scheme, engine, 1, prompt + output / 2)
            .total_seconds();
        let end = Instant::now();
        next_token_us.push((end - mid).as_secs_f64() * 1e6);
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.record("llm.prefill", None, start, mid);
            tracer.record("llm.next_token", None, mid, end);
        }
        modeled.ttft_s.push(ttft);
        modeled.tpot_s.push(tpot);
        modeled.output_tokens.push(output);
    }
    let n = LATENCY_SAMPLE;
    out.set("sim_ttft_p50_s", percentile(&modeled.ttft_s, 50.0), n);
    out.set("sim_ttft_p99_s", percentile(&modeled.ttft_s, 99.0), n);
    out.set("sim_tpot_p50_s", percentile(&modeled.tpot_s, 50.0), n);
    out.set("sim_tpot_p99_s", percentile(&modeled.tpot_s, 99.0), n);
    let slo = SloTarget::interactive();
    let mut busy_s = 0.0;
    let mut good = 0;
    for ((&ttft, &tpot), &output) in modeled
        .ttft_s
        .iter()
        .zip(&modeled.tpot_s)
        .zip(&modeled.output_tokens)
    {
        busy_s += ttft + tpot * (output - 1) as f64;
        good += usize::from(ttft <= slo.ttft_s && tpot <= slo.tpot_s);
    }
    out.set("sim_goodput_rps", good as f64 / busy_s, n);
    if tracer.is_some() {
        out.set("llm.next_token_us", median(&next_token_us), n);
    }
    modeled
}

/// Best DECA-over-software TFLOPS ratio over the paper's evaluation schemes
/// on SPR-HBM at batch 1 (the paper: "up to 4×"). The same on every
/// workload; computed outside the timed phase, where it costs well under a
/// millisecond. Feeds the results into `digest`.
pub fn gemm_speedup(mut tracer: Option<&mut Tracer>, out: &mut Results, digest: &mut Digest) {
    let executor = CompressedGemmExecutor::new(MachineConfig::spr_hbm());
    let mut call_us = Vec::new();
    let mut best: f64 = 0.0;
    let mut runs = Vec::new();
    for scheme in SchemeSet::paper_evaluation() {
        let start = Instant::now();
        let software = executor.run(&scheme, Engine::software(), 1);
        let mid = Instant::now();
        let deca = executor.run(&scheme, Engine::deca_default(), 1);
        let end = Instant::now();
        call_us.push((mid - start).as_secs_f64() * 1e6);
        call_us.push((end - mid).as_secs_f64() * 1e6);
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.record(format!("gemm_sim.software.{scheme}"), None, start, mid);
            tracer.record(format!("gemm_sim.deca.{scheme}"), None, mid, end);
        }
        best = best.max(deca.tflops / software.tflops);
        runs.push((software, deca));
    }
    write!(digest, "{runs:?}").expect("hashing cannot fail");
    let n = runs.len();
    out.set("sim_gemm_speedup", best, n);
    if tracer.is_some() {
        out.set("gemm_sim.calls", call_us.len() as f64, call_us.len());
        out.set("gemm_sim.call_us", median(&call_us), call_us.len());
        out.set(
            "model.gemm_speedup_err_vs_paper",
            (best - PAPER_GEMM_SPEEDUP).abs() / PAPER_GEMM_SPEEDUP,
            n,
        );
    }
}

/// SplitMix64: the benchmark's own seeded stream for the latency sample.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
