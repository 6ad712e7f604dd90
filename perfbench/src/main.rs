//! The repository benchmark: generates one named workload from a seed, runs
//! it through the public APIs, checks its outputs, and prints every metric
//! by name with its unit and sample count. The last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! deca-perfbench --workload <chat_prefix|tenant_backlog|weight_decompress>
//!                --seconds N [--seed N] [--trace 0|1]
//! ```
//!
//! `--seconds` is the length of the timed phase; `perfbench/run.py` passes
//! `run_seconds` from `BENCHMARK.json` when it is not given. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the timed phase
//! untraced and then traced, and reports the per-layer metrics, the tracing
//! overhead, and whether both halves modeled the same outputs.
//! `perfbench/README.md` describes the workloads and metrics.

mod decompress;
mod serving;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 2025;

/// The end-to-end metrics, reported on every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("requests_per_wall_s", "req/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_ttft_p50_s", "s"),
    ("sim_ttft_p99_s", "s"),
    ("sim_tpot_p50_s", "s"),
    ("sim_tpot_p99_s", "s"),
    ("sim_goodput_rps", "req/s"),
    ("sim_gemm_speedup", "x"),
];

/// End-to-end numbers printed for a reader but left out of the result line:
/// each exists on one workload only, or reads 0 when all is well.
const REPORTED_ONLY: &[(&str, &str)] = &[
    ("decompress_gbps", "GB/s"),
    ("sim_capacity_rps", "sessions/s"),
    ("fail_ratio", "failed/attempted"),
];

/// The per-layer metrics, reported on every workload with `--trace 1`; a
/// layer the workload does not load reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("trace.overhead", "ratio"),
    ("workload.gen_s", "s"),
    ("workload.requests", "count"),
    ("cost.calls", "count"),
    ("cost.busy_s", "s"),
    ("cost.call_ns_p50", "ns"),
    ("cost.call_ns_p99", "ns"),
    ("cost.memo_hit_ratio", "ratio"),
    ("cost.memo_misses", "count"),
    ("cost.miss_busy_s", "s"),
    ("scheduler.self_s", "s"),
    ("scheduler.wall_ns_per_step", "ns"),
    ("scheduler.decode_steps", "count"),
    ("scheduler.prefill_steps", "count"),
    ("scheduler.peak_queue_depth", "count"),
    ("scheduler.mean_queue_depth", "count"),
    ("scheduler.peak_batch", "count"),
    ("kv.peak_blocks", "count"),
    ("kv.mean_block_utilization", "ratio"),
    ("kv.preemptions", "count"),
    ("prefix.hit_ratio", "ratio"),
    ("prefix.hit_tokens", "count"),
    ("prefix.evictions", "count"),
    ("tenant.bypasses", "count"),
    ("tenant.aging_promotions", "count"),
    ("tenant.peak_interactive_run", "count"),
    ("lora.hit_ratio", "ratio"),
    ("lora.loads", "count"),
    ("metrics.summary_s", "s"),
    ("compress.mbps.q8_50", "MB/s"),
    ("compress.mbps.q8_5", "MB/s"),
    ("compress.mbps.q4", "MB/s"),
    ("decompress.gbps.scalar.q8_50", "GB/s"),
    ("decompress.gbps.scalar.q8_5", "GB/s"),
    ("decompress.gbps.scalar.q4", "GB/s"),
    ("decompress.gbps.word-parallel.q8_50", "GB/s"),
    ("decompress.gbps.word-parallel.q8_5", "GB/s"),
    ("decompress.gbps.word-parallel.q4", "GB/s"),
    ("decompress.gbps.simd.q8_50", "GB/s"),
    ("decompress.gbps.simd.q8_5", "GB/s"),
    ("decompress.gbps.simd.q4", "GB/s"),
    ("decompress.gbps.parallel-matrix.q8_50", "GB/s"),
    ("decompress.gbps.parallel-matrix.q8_5", "GB/s"),
    ("decompress.gbps.parallel-matrix.q4", "GB/s"),
    ("decompress.gbps.auto-tuned.q8_50", "GB/s"),
    ("decompress.gbps.auto-tuned.q8_5", "GB/s"),
    ("decompress.gbps.auto-tuned.q4", "GB/s"),
    ("decompress.call_ms_p50", "ms"),
    ("decompress.call_ms_p99", "ms"),
    ("gemm_sim.calls", "count"),
    ("gemm_sim.call_us", "us"),
    ("model.gemm_speedup_err_vs_paper", "ratio"),
    ("llm.next_token_us", "us"),
];

/// Output checks: how many were attempted and which failed, by name.
#[derive(Default)]
pub struct Checks {
    attempted: u64,
    failures: BTreeMap<&'static str, u64>,
}

impl Checks {
    /// Counts `n` more checked operations (requests or decompressions).
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records `n` failures of the named check.
    pub fn fail(&mut self, name: &'static str, n: u64) {
        if n > 0 {
            *self.failures.entry(name).or_default() += n;
        }
    }

    /// Records one failure of the named check unless `ok`.
    pub fn expect(&mut self, name: &'static str, ok: bool) {
        self.fail(name, u64::from(!ok));
    }

    fn failed(&self) -> u64 {
        self.failures.values().sum()
    }
}

/// Everything one workload run produced.
#[derive(Default)]
pub struct Results {
    /// Metric name → (value, sample count).
    values: BTreeMap<String, (f64, usize)>,
    pub checks: Checks,
    /// Hash of every modeled output of the run.
    pub digest: u64,
    /// Free-form lines for the reader.
    pub notes: Vec<String>,
}

impl Results {
    pub fn set(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        self.values.insert(name.into(), (value, samples));
    }

    /// Records the process's memory high-water mark so far as
    /// `peak_rss_mb`. Workloads call it once the set-up and the first
    /// timed repetition are done: later repetitions repeat the same work
    /// for timing, and how many run depends on the host's speed.
    pub fn sample_peak_rss(&mut self) {
        match peak_rss_mib() {
            Some(mib) => self.set("peak_rss_mb", mib, 1),
            None => self.checks.fail("peak_rss_readable", 1),
        }
    }
}

/// FNV-1a over formatted text: `write!(digest, "{value:?}")` hashes a
/// value's full `Debug` rendering, which prints every field and every
/// float exactly (shortest round-trip form).
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn of(value: &impl std::fmt::Debug) -> u64 {
        let mut digest = Digest::default();
        write!(digest, "{value:?}").expect("hashing cannot fail");
        digest.0
    }
}

impl std::fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for byte in s.bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    deca_serve::percentile(values, 50.0)
}

/// The process's memory high-water mark in MiB, from `VmHWM` in
/// `/proc/self/status` (each workload runs in a process of its own, so no
/// other workload's peak carries into it).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} value {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err(
            "--seconds takes the timed phase's length in seconds, a finite positive number"
                .to_string(),
        );
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("deca-perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let spans_path = std::path::PathBuf::from(format!(
        ".perfbench/spans/{}-seed{}.jsonl",
        args.workload, args.seed
    ));
    let mut tracer = trace::Tracer::new();
    let tracer_arg = if args.trace { Some(&mut tracer) } else { None };
    let mut results = Results::default();
    match args.workload.as_str() {
        "chat_prefix" => serving::chat_prefix(args.seed, args.seconds, tracer_arg, &mut results),
        "tenant_backlog" => {
            serving::tenant_backlog(args.seed, args.seconds, tracer_arg, &mut results);
        }
        "weight_decompress" => {
            decompress::weight_decompress(args.seed, args.seconds, tracer_arg, &mut results);
        }
        other => {
            eprintln!(
                "deca-perfbench: unknown workload {other:?} \
                 (chat_prefix, tenant_backlog, weight_decompress)"
            );
            return ExitCode::from(2);
        }
    }
    if args.trace {
        if let Err(error) = tracer.write(&spans_path) {
            eprintln!(
                "deca-perfbench: cannot write {}: {error}",
                spans_path.display()
            );
            results.checks.fail("spans_written", 1);
        }
    }
    report(&args, &mut results, &spans_path)
}

/// Prints the human-readable report and the result line; the exit code is
/// non-zero when any check failed.
fn report(args: &Args, results: &mut Results, spans_path: &std::path::Path) -> ExitCode {
    let attempted = results.checks.attempted.max(1);
    let failed = results.checks.failed();
    results.set(
        "fail_ratio",
        failed as f64 / attempted as f64,
        attempted as usize,
    );
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string());
    println!(
        "workload={} seed={} seconds={} trace={} host_cores={cores} commit={commit}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &results.notes {
        println!("  {note}");
    }
    let listed: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().chain(REPORTED_ONLY).copied().collect()
    };
    let mut json_metrics = Vec::new();
    let mut correct = failed == 0;
    for (name, unit) in &listed {
        let measured = results.values.get(*name).copied();
        let (value, samples) = measured.unwrap_or((0.0, 0));
        let scope = if measured.is_some() {
            ""
        } else {
            " (not measured on this workload)"
        };
        println!("  {name:<40} {value:>16.6} {unit:<16} n={samples}{scope}");
        if !value.is_finite() {
            println!("  check failed: {name} is not finite");
            correct = false;
        }
        let end_to_end = !args.trace && END_TO_END.iter().any(|(n, _)| n == name);
        if end_to_end && measured.is_none() {
            println!("  check failed: {name} was not measured");
            correct = false;
        }
        if args.trace || end_to_end {
            let value = if value.is_finite() { value } else { 0.0 };
            json_metrics.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
    }
    println!("  sim_digest = {:016x}", results.digest);
    if args.trace {
        println!("  spans written to {}", spans_path.display());
    }
    for (name, count) in &results.checks.failures {
        println!("  check failed: {name} ({count} of {attempted})");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        json_metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
