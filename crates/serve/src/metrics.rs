//! Per-request records and fleet-level serving metrics: TTFT / TPOT /
//! end-to-end latency percentiles, throughput, and SLO goodput.

use crate::tenant::QosClass;

/// A time-weighted running mean: the integral of a piecewise-constant
/// signal over the elapsed simulation time.
///
/// The event-driven scheduler core observes a value (queue depth, KV
/// occupancy, block utilization) over each inter-event interval, so the
/// mean integrates the signal *exactly* — including idle gaps and the
/// partial intervals an arrival splits a step into — instead of sampling
/// it once per engine step as the old step loop did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimeWeightedMean {
    integral: f64,
    elapsed_s: f64,
}

impl TimeWeightedMean {
    /// An empty accumulator (mean 0 until something is observed).
    #[must_use]
    pub fn new() -> Self {
        TimeWeightedMean::default()
    }

    /// Accumulates `value` held constant for `dt_s` seconds.
    pub fn observe(&mut self, value: f64, dt_s: f64) {
        self.integral += value * dt_s;
        self.elapsed_s += dt_s;
    }

    /// Total time observed so far, seconds.
    #[must_use]
    pub fn elapsed_s(&self) -> f64 {
        self.elapsed_s
    }

    /// The time-weighted mean (0 for an empty accumulator).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.integral / self.elapsed_s
        } else {
            0.0
        }
    }
}

/// The lifecycle timestamps of one completed request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRecord {
    /// Request id from the trace.
    pub id: usize,
    /// Arrival time (seconds from trace start).
    pub arrival_s: f64,
    /// When the first output token was produced (end of the prefill).
    pub first_token_s: f64,
    /// When the last output token was produced.
    pub completion_s: f64,
    /// Prompt length in tokens.
    pub prompt_tokens: usize,
    /// Output length in tokens.
    pub output_tokens: usize,
    /// Service class the request was admitted under (Interactive or
    /// Batch), so metrics can break down per class.
    pub qos: QosClass,
}

impl RequestRecord {
    /// Time to first token: queueing plus prefill.
    #[must_use]
    pub fn ttft_s(&self) -> f64 {
        self.first_token_s - self.arrival_s
    }

    /// Mean time per output token after the first (0 for single-token
    /// outputs, which have no decode phase).
    #[must_use]
    pub fn tpot_s(&self) -> f64 {
        if self.output_tokens <= 1 {
            0.0
        } else {
            (self.completion_s - self.first_token_s) / (self.output_tokens - 1) as f64
        }
    }

    /// End-to-end latency from arrival to the last token.
    #[must_use]
    pub fn e2e_s(&self) -> f64 {
        self.completion_s - self.arrival_s
    }
}

/// A latency service-level objective. A request meets the SLO when both its
/// TTFT and its TPOT are within bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloTarget {
    /// Maximum acceptable time to first token, seconds.
    pub ttft_s: f64,
    /// Maximum acceptable time per output token, seconds.
    pub tpot_s: f64,
}

impl SloTarget {
    /// An interactive-chat objective: first token within 4 s, then a
    /// sustained stream of at least ~7 tokens/s (150 ms/token) — reading
    /// speed, with headroom for prefill interruptions from co-batched
    /// requests.
    #[must_use]
    pub fn interactive() -> Self {
        SloTarget {
            ttft_s: 4.0,
            tpot_s: 0.150,
        }
    }

    /// Whether a completed request met this objective.
    #[must_use]
    pub fn met_by(&self, record: &RequestRecord) -> bool {
        record.ttft_s() <= self.ttft_s && record.tpot_s() <= self.tpot_s
    }
}

/// A total order on `f64` that ranks every NaN — regardless of its sign
/// bit — above every non-NaN value, for sorting samples that may hold
/// NaNs. A comparator that treats NaN as equal to everything
/// (`partial_cmp(..).unwrap_or(Equal)`) is not a total order: it leaves
/// `sort_by`'s output unspecified — scrambling the *finite* values too —
/// and may make it panic. Bare `f64::total_cmp` would put negative-signed
/// NaNs — what `0.0 / 0.0` produces on x86-64 — *below* the finite values.
pub(crate) fn nan_last_cmp(a: f64, b: f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => a.total_cmp(&b),
    }
}

/// Nearest-rank percentile (`p` in `[0, 100]`) of an unsorted sample.
/// Returns 0 for an empty sample.
///
/// The sort order is total even when the sample contains NaNs, and every
/// NaN — regardless of its sign bit — ranks above every finite value, so
/// NaNs can only surface at the top percentiles instead of silently
/// scrambling p50/p99 for the finite latencies, and the tail stays
/// conservative.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| nan_last_cmp(*a, *b));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Order statistics of one latency population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Median.
    pub p50_s: f64,
    /// 95th percentile.
    pub p95_s: f64,
    /// 99th percentile.
    pub p99_s: f64,
    /// Arithmetic mean.
    pub mean_s: f64,
    /// Maximum.
    pub max_s: f64,
}

impl LatencySummary {
    /// Summarizes a sample (all zeros for an empty one).
    #[must_use]
    pub fn from_sample(values: &[f64]) -> Self {
        let mean = if values.is_empty() {
            0.0
        } else {
            values.iter().sum::<f64>() / values.len() as f64
        };
        LatencySummary {
            p50_s: percentile(values, 50.0),
            p95_s: percentile(values, 95.0),
            p99_s: percentile(values, 99.0),
            mean_s: mean,
            max_s: values.iter().fold(0.0, |a, &b| a.max(b)),
        }
    }
}

/// Fleet-level metrics of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingMetrics {
    /// Requests that completed.
    pub completed: usize,
    /// Requests rejected at admission (could never fit the KV budget).
    pub rejected: usize,
    /// Wall-clock span of the run (first arrival to last completion).
    pub makespan_s: f64,
    /// Completed requests per second over the makespan.
    pub throughput_rps: f64,
    /// Generated tokens per second over the makespan.
    pub tokens_per_second: f64,
    /// Time-to-first-token statistics.
    pub ttft: LatencySummary,
    /// Time-per-output-token statistics.
    pub tpot: LatencySummary,
    /// End-to-end latency statistics.
    pub e2e: LatencySummary,
}

/// The divisor rate metrics use for a run of `makespan_s` seconds: a
/// degenerate makespan — zero (an all-rejected or empty run completes no
/// request and never advances the clock), negative, or non-finite — is
/// replaced by `EPSILON` so throughput and goodput stay finite (and, with
/// an empty numerator, exactly zero) instead of going NaN or infinite.
fn positive_span(makespan_s: f64) -> f64 {
    if makespan_s.is_finite() && makespan_s > 0.0 {
        makespan_s
    } else {
        f64::EPSILON
    }
}

impl ServingMetrics {
    /// Builds the metrics of a completed-request population. Guaranteed
    /// finite even for the all-rejected/empty case (zero makespan).
    #[must_use]
    pub fn from_records(records: &[RequestRecord], rejected: usize, makespan_s: f64) -> Self {
        let ttft: Vec<f64> = records.iter().map(RequestRecord::ttft_s).collect();
        let tpot: Vec<f64> = records.iter().map(RequestRecord::tpot_s).collect();
        let e2e: Vec<f64> = records.iter().map(RequestRecord::e2e_s).collect();
        let tokens: u64 = records.iter().map(|r| r.output_tokens as u64).sum();
        let span = positive_span(makespan_s);
        ServingMetrics {
            completed: records.len(),
            rejected,
            makespan_s,
            throughput_rps: records.len() as f64 / span,
            tokens_per_second: tokens as f64 / span,
            ttft: LatencySummary::from_sample(&ttft),
            tpot: LatencySummary::from_sample(&tpot),
            e2e: LatencySummary::from_sample(&e2e),
        }
    }

    /// Requests per second that met `slo` (goodput). Finite for any
    /// makespan, zero for an empty population.
    #[must_use]
    pub fn goodput_rps(records: &[RequestRecord], slo: &SloTarget, makespan_s: f64) -> f64 {
        let good = records.iter().filter(|r| slo.met_by(r)).count();
        good as f64 / positive_span(makespan_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_weighted_mean_integrates_intervals() {
        let mut mean = TimeWeightedMean::new();
        assert_eq!(mean.mean(), 0.0, "empty accumulator");
        // Depth 2 for 1 s, depth 0 for 3 s: mean = 2/4 = 0.5 — a per-step
        // sampler that never saw the idle gap would report 2.0.
        mean.observe(2.0, 1.0);
        mean.observe(0.0, 3.0);
        assert!((mean.mean() - 0.5).abs() < 1e-12);
        assert!((mean.elapsed_s() - 4.0).abs() < 1e-12);
        // Zero-width observations are no-ops.
        mean.observe(1e9, 0.0);
        assert!((mean.mean() - 0.5).abs() < 1e-12);
    }

    fn record(arrival: f64, first: f64, done: f64, output: usize) -> RequestRecord {
        RequestRecord {
            id: 0,
            arrival_s: arrival,
            first_token_s: first,
            completion_s: done,
            prompt_tokens: 10,
            output_tokens: output,
            qos: QosClass::default(),
        }
    }

    #[test]
    fn derived_latencies() {
        let r = record(1.0, 1.5, 2.5, 11);
        assert!((r.ttft_s() - 0.5).abs() < 1e-12);
        assert!((r.tpot_s() - 0.1).abs() < 1e-12);
        assert!((r.e2e_s() - 1.5).abs() < 1e-12);
        assert_eq!(record(0.0, 1.0, 1.0, 1).tpot_s(), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert_eq!(percentile(&values, 1.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    /// Regression: a single NaN used to leave the sort order unspecified
    /// (`partial_cmp(..).unwrap_or(Equal)` is not a total order), so the
    /// *finite* percentiles silently corrupted. Now the finite ranks are
    /// exact and NaN — of either sign — is confined to the very top.
    #[test]
    fn nan_latencies_do_not_corrupt_finite_percentiles() {
        // Runtime NaNs (e.g. 0.0/0.0 on x86-64) are negative-signed; they
        // must rank above the finite values exactly like the positive
        // constant (bare `total_cmp` would sort them *below* everything).
        let negative_nan = -f64::NAN;
        assert!(negative_nan.is_sign_negative());
        let values = [5.0, negative_nan, 1.0, 4.0, f64::NAN, 2.0, 3.0];
        // Ranks 1..=5 are the finite values in order; the NaNs sort last.
        assert_eq!(percentile(&values, 1.0), 1.0);
        assert_eq!(percentile(&values, 50.0), 4.0);
        assert_eq!(percentile(&values, 5.0 / 7.0 * 100.0), 5.0);
        assert!(percentile(&values, 100.0).is_nan());
        // A NaN-free sample is untouched by the comparator change.
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 50.0), 3.0);
    }

    /// Regression: an all-rejected (or empty) run has no records and a
    /// degenerate makespan; every derived metric must stay finite — zero
    /// throughput/goodput, not NaN or infinity.
    #[test]
    fn all_rejected_runs_produce_finite_metrics() {
        for makespan in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let metrics = ServingMetrics::from_records(&[], 5, makespan);
            assert_eq!(metrics.completed, 0);
            assert_eq!(metrics.rejected, 5);
            assert!(
                metrics.throughput_rps.is_finite() && metrics.throughput_rps == 0.0,
                "throughput {} for makespan {makespan}",
                metrics.throughput_rps
            );
            assert!(metrics.tokens_per_second.is_finite() && metrics.tokens_per_second == 0.0);
            for summary in [&metrics.ttft, &metrics.tpot, &metrics.e2e] {
                assert!(summary.p50_s.is_finite() && summary.mean_s.is_finite());
            }
            let goodput = ServingMetrics::goodput_rps(&[], &SloTarget::interactive(), makespan);
            assert!(goodput.is_finite() && goodput == 0.0, "goodput {goodput}");
        }
    }

    #[test]
    fn slo_requires_both_bounds() {
        let slo = SloTarget {
            ttft_s: 1.0,
            tpot_s: 0.1,
        };
        assert!(slo.met_by(&record(0.0, 0.9, 1.8, 11)));
        assert!(!slo.met_by(&record(0.0, 1.1, 2.0, 11))); // TTFT too slow
        assert!(!slo.met_by(&record(0.0, 0.5, 2.5, 11))); // TPOT too slow
    }

    #[test]
    fn metrics_aggregate_and_goodput_counts_only_good_requests() {
        let records = vec![
            record(0.0, 0.5, 1.2, 11), // good (TPOT 70 ms)
            record(0.0, 5.0, 5.7, 11), // bad TTFT
            record(1.0, 1.4, 2.1, 11), // good
        ];
        let metrics = ServingMetrics::from_records(&records, 2, 10.0);
        assert_eq!(metrics.completed, 3);
        assert_eq!(metrics.rejected, 2);
        assert!((metrics.throughput_rps - 0.3).abs() < 1e-12);
        assert!((metrics.tokens_per_second - 3.3).abs() < 1e-12);
        assert!(metrics.ttft.max_s >= metrics.ttft.p50_s);
        let goodput = ServingMetrics::goodput_rps(&records, &SloTarget::interactive(), 10.0);
        assert!((goodput - 0.2).abs() < 1e-12);
    }
}
