//! In-memory tracing from the benchmark's side of each layer boundary.
//!
//! Nothing here reaches inside the program: spans wrap the benchmark's own
//! calls into a layer, a [`TimedCost`] wraps the serving cost model, and a
//! [`TimedIter`] wraps the request source. Spans stay in memory and are
//! written out once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

use deca_serve::{
    percentile, ChunkWork, EstimatorCostModel, LinearCostModel, ServingCostModel, StepMix,
};

/// One recorded interval: a named call into a layer, and the span that
/// caused it.
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// The span log of one run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records an interval measured by the caller and returns its span id.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let to_ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            name: name.into(),
            start_ns: to_ns(start),
            end_ns: to_ns(end),
            parent,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                span.name, span.start_ns, span.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Memo-miss counter of a cost model, so a call can be classed as a hit or
/// a miss by whether the counter rose during it.
pub trait MemoCounters {
    /// (hits, misses) so far; (0, 0) for a model without a memo.
    fn memo_counts(&self) -> (u64, u64);
}

impl MemoCounters for EstimatorCostModel {
    fn memo_counts(&self) -> (u64, u64) {
        let stats = self.memo_stats();
        (stats.hits, stats.misses)
    }
}

impl MemoCounters for LinearCostModel {
    fn memo_counts(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// What a [`TimedCost`] saw.
#[derive(Default)]
pub struct CostStats {
    pub calls: u64,
    pub busy_ns: u64,
    pub miss_busy_ns: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    /// Median call duration, nanoseconds.
    pub call_ns_p50: f64,
    /// 99th-percentile call duration, nanoseconds.
    pub call_ns_p99: f64,
}

/// A [`ServingCostModel`] that forwards every trait method — the defaulted
/// ones too — to the wrapped model and times each call. Forwarding the
/// defaulted methods (rather than inheriting the defaults) keeps the
/// wrapped model's overrides in force, so a traced run prices every step
/// exactly as an untraced one.
pub struct TimedCost<C> {
    inner: C,
    stats: CostStats,
    /// Duration of every call so far, nanoseconds.
    call_ns: Vec<f64>,
}

impl<C: ServingCostModel + MemoCounters> TimedCost<C> {
    pub fn new(inner: C) -> Self {
        TimedCost {
            inner,
            stats: CostStats::default(),
            call_ns: Vec::new(),
        }
    }

    /// The wrapped model back, and what the wrapper saw.
    pub fn finish(self) -> (C, CostStats) {
        let stats = CostStats {
            call_ns_p50: percentile(&self.call_ns, 50.0),
            call_ns_p99: percentile(&self.call_ns, 99.0),
            ..self.stats
        };
        (self.inner, stats)
    }

    fn timed(&mut self, call: impl FnOnce(&mut C) -> f64) -> f64 {
        let (hits_before, misses_before) = self.inner.memo_counts();
        let start = Instant::now();
        let seconds = call(&mut self.inner);
        let ns = start.elapsed().as_nanos() as u64;
        let (hits_after, misses_after) = self.inner.memo_counts();
        let stats = &mut self.stats;
        stats.calls += 1;
        stats.busy_ns += ns;
        self.call_ns.push(ns as f64);
        stats.memo_hits += hits_after - hits_before;
        stats.memo_misses += misses_after - misses_before;
        if misses_after > misses_before {
            stats.miss_busy_ns += ns;
        }
        seconds
    }
}

impl<C: ServingCostModel + MemoCounters> ServingCostModel for TimedCost<C> {
    fn prefill_seconds(&mut self, prompt_tokens: usize) -> f64 {
        self.timed(|c| c.prefill_seconds(prompt_tokens))
    }

    fn decode_step_seconds(&mut self, batch: usize, max_context_tokens: usize) -> f64 {
        self.timed(|c| c.decode_step_seconds(batch, max_context_tokens))
    }

    fn prefill_seconds_cached(&mut self, prompt_tokens: usize, cached_prefix_tokens: usize) -> f64 {
        self.timed(|c| c.prefill_seconds_cached(prompt_tokens, cached_prefix_tokens))
    }

    fn chunk_seconds(&mut self, chunk: ChunkWork) -> f64 {
        self.timed(|c| c.chunk_seconds(chunk))
    }

    fn step_seconds(&mut self, mix: &StepMix) -> f64 {
        self.timed(|c| c.step_seconds(mix))
    }

    fn speculative_burst_seconds(
        &mut self,
        draft_tokens: usize,
        batch: usize,
        max_context_tokens: usize,
    ) -> f64 {
        self.timed(|c| c.speculative_burst_seconds(draft_tokens, batch, max_context_tokens))
    }

    fn adapter_load_seconds(&mut self, weight_tokens: usize) -> f64 {
        self.timed(|c| c.adapter_load_seconds(weight_tokens))
    }
}

/// A request source that times every `next` call: the workload
/// generator's share of a streamed run.
pub struct TimedIter<I> {
    inner: I,
    pub items: u64,
    pub busy_ns: u64,
}

impl<I> TimedIter<I> {
    pub fn new(inner: I) -> Self {
        TimedIter {
            inner,
            items: 0,
            busy_ns: 0,
        }
    }
}

impl<I: Iterator> Iterator for &mut TimedIter<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let start = Instant::now();
        let item = self.inner.next();
        self.busy_ns += start.elapsed().as_nanos() as u64;
        self.items += u64::from(item.is_some());
        item
    }
}
