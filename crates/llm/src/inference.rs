//! Next-token (generation-phase) latency estimation.
//!
//! One generated token runs, per transformer layer, a set of FC-layer GeMMs
//! (timed through the compressed-GeMM executor on the simulated machine)
//! plus attention over the KV cache and a collection of small stages
//! (normalization, rotary embeddings, softmax, residuals and framework
//! overhead). The FC GeMMs dominate (Table 1); the non-GeMM stages are
//! modelled as KV-cache bandwidth time plus a per-layer overhead calibrated
//! once against Table 1's FC-time fractions and then left untouched for
//! every other experiment.

use deca_compress::{CompressionScheme, EngineKind};
use deca_kernels::{CompressedGemmExecutor, Engine, GemmShape, Parlooper};
use deca_roofsurface::MachineConfig;

use crate::LlmModel;

/// Fixed per-layer, per-token overhead (µs) for normalization, softmax,
/// residuals, KV-cache bookkeeping and framework dispatch. Calibrated so the
/// uncompressed Llama2-70B FC-time fraction matches Table 1 on both DDR and
/// HBM.
const LAYER_OVERHEAD_US: f64 = 190.0;
/// Additional per-layer overhead per sequence in the batch (µs): the
/// per-token elementwise work scales with the batch size.
const LAYER_OVERHEAD_PER_SEQUENCE_US: f64 = 7.0;
/// Launch/barrier overhead per FC GeMM (µs): Parlooper synchronizes the 56
/// cores at the end of every GeMM, and each GeMM pays a short ramp-up before
/// the tile pipeline reaches steady state.
const GEMM_LAUNCH_BARRIER_US: f64 = 15.0;

/// Latency breakdown of generating one token.
#[derive(Debug, Clone, PartialEq)]
pub struct NextTokenReport {
    /// Model name.
    pub model: String,
    /// Scheme label.
    pub scheme: String,
    /// Engine label.
    pub engine: String,
    /// Which functional decompression backend stands behind the modeled FC
    /// numbers (the engine axis of the compression substrate).
    pub decompress_engine: String,
    /// Batch size.
    pub batch: usize,
    /// Context length (tokens already in the KV cache).
    pub context_tokens: usize,
    /// Seconds spent in FC-layer GeMMs.
    pub fc_seconds: f64,
    /// Seconds spent reading/writing the KV cache during attention.
    pub attention_seconds: f64,
    /// Seconds of per-layer overhead (norms, softmax, residuals, framework).
    pub other_seconds: f64,
}

impl NextTokenReport {
    /// Total next-token latency in seconds.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.fc_seconds + self.attention_seconds + self.other_seconds
    }

    /// Total next-token latency in milliseconds (the unit of Table 4).
    #[must_use]
    pub fn total_ms(&self) -> f64 {
        self.total_seconds() * 1e3
    }

    /// Fraction of the next-token time spent in FC-layer GeMMs (Table 1).
    #[must_use]
    pub fn fc_fraction(&self) -> f64 {
        if self.total_seconds() == 0.0 {
            0.0
        } else {
            self.fc_seconds / self.total_seconds()
        }
    }

    /// Tokens per second for the whole batch.
    #[must_use]
    pub fn tokens_per_second(&self) -> f64 {
        if self.total_seconds() == 0.0 {
            0.0
        } else {
            self.batch as f64 / self.total_seconds()
        }
    }
}

/// Latency breakdown of the prefill (prompt-processing) phase of one
/// sequence: the whole prompt runs through every layer at once, so the FC
/// GeMMs have `prompt_tokens` activation rows and the TMUL — not the weight
/// stream — can become the bound.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefillReport {
    /// Model name.
    pub model: String,
    /// Scheme label.
    pub scheme: String,
    /// Engine label.
    pub engine: String,
    /// Functional decompression backend behind the modeled FC numbers.
    pub decompress_engine: String,
    /// Prompt tokens processed by this prefill.
    pub prompt_tokens: usize,
    /// Tokens already resident in the KV cache before the prefill (0 for a
    /// fresh request).
    pub context_tokens: usize,
    /// Seconds spent in FC-layer GeMMs.
    pub fc_seconds: f64,
    /// Seconds spent reading/writing the KV cache during causal attention.
    pub attention_seconds: f64,
    /// Seconds of per-layer overhead (norms, softmax, residuals, framework).
    pub other_seconds: f64,
}

impl PrefillReport {
    /// Total prefill latency in seconds — the time-to-first-token
    /// contribution of prompt processing.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.fc_seconds + self.attention_seconds + self.other_seconds
    }

    /// Total prefill latency in milliseconds.
    #[must_use]
    pub fn total_ms(&self) -> f64 {
        self.total_seconds() * 1e3
    }

    /// Prompt tokens processed per second.
    #[must_use]
    pub fn tokens_per_second(&self) -> f64 {
        if self.total_seconds() == 0.0 {
            0.0
        } else {
            self.prompt_tokens as f64 / self.total_seconds()
        }
    }
}

/// The draft side of speculative decoding: a second, smaller model that
/// proposes `draft_tokens` tokens per burst, each priced as one of *its*
/// decode steps, before the target model verifies the whole burst in a
/// single step. The spec is pure pricing data — acceptance behaviour
/// (which drafts survive verification) is scheduler policy and lives with
/// the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub struct DraftSpec {
    model: LlmModel,
    draft_tokens: usize,
}

impl DraftSpec {
    /// A draft model proposing `draft_tokens` tokens per burst.
    ///
    /// # Panics
    ///
    /// Panics if `draft_tokens` is zero (a zero-draft burst is just a
    /// decode step).
    #[must_use]
    pub fn new(model: LlmModel, draft_tokens: usize) -> Self {
        assert!(
            draft_tokens > 0,
            "a draft burst proposes at least one token"
        );
        DraftSpec {
            model,
            draft_tokens,
        }
    }

    /// The stock pairing: [`LlmModel::llama2_7b`] drafting for a Llama2
    /// target.
    #[must_use]
    pub fn llama2_7b(draft_tokens: usize) -> Self {
        DraftSpec::new(LlmModel::llama2_7b(), draft_tokens)
    }

    /// The draft model.
    #[must_use]
    pub fn model(&self) -> &LlmModel {
        &self.model
    }

    /// Draft tokens proposed per burst.
    #[must_use]
    pub fn draft_tokens(&self) -> usize {
        self.draft_tokens
    }
}

/// Estimates next-token latency for a model/scheme/engine combination on a
/// simulated machine.
#[derive(Debug, Clone)]
pub struct InferenceEstimator {
    machine: MachineConfig,
    executor: CompressedGemmExecutor,
}

impl InferenceEstimator {
    /// Creates an estimator for a machine.
    #[must_use]
    pub fn new(machine: MachineConfig) -> Self {
        InferenceEstimator {
            executor: CompressedGemmExecutor::new(machine.clone()),
            machine,
        }
    }

    /// Selects the functional decompression backend behind the FC-GeMM
    /// numbers; every [`NextTokenReport`] names it.
    #[must_use]
    pub fn with_decompress_backend(mut self, backend: EngineKind) -> Self {
        self.executor = self.executor.with_decompress_backend(backend);
        self
    }

    /// The underlying compressed-GeMM executor.
    #[must_use]
    pub fn executor(&self) -> &CompressedGemmExecutor {
        &self.executor
    }

    /// Estimates the latency of generating one token.
    #[must_use]
    pub fn next_token(
        &self,
        model: &LlmModel,
        scheme: &CompressionScheme,
        engine: Engine,
        batch: usize,
        context_tokens: usize,
    ) -> NextTokenReport {
        // One steady-state simulation gives the per-tile rate for this
        // (scheme, engine, batch); every FC GeMM then contributes its own
        // worst-loaded-core tile count at that rate.
        let (seconds_per_tile, decompress_engine) = self.decode_tile_seconds(scheme, engine, batch);
        let fc_seconds = self.fc_seconds_for(&model.fc_gemms_per_token(batch), seconds_per_tile);
        let attention_seconds = self.attention_seconds(model, batch, context_tokens);
        let other_seconds = Self::overhead_seconds(model.layers(), batch);

        NextTokenReport {
            model: model.name().to_string(),
            scheme: scheme.label(),
            engine: engine.label(),
            decompress_engine,
            batch,
            context_tokens,
            fc_seconds,
            attention_seconds,
            other_seconds,
        }
    }

    /// Estimates the latency of the prefill phase: processing a
    /// `prompt_tokens`-long prompt of one sequence whose KV cache already
    /// holds `context_tokens` tokens.
    ///
    /// The weight stream is identical to a decode step (every FC weight is
    /// read once), but each decompressed tile now feeds
    /// `ceil(prompt_tokens / 16)` TMUL operations, so per tile the pipeline
    /// pays the *slower* of the steady-state (memory/decompress) tile rate
    /// and the TMUL occupancy — long prompts are compute-bound, exactly why
    /// prefill and decode need separate models.
    ///
    /// # Panics
    ///
    /// Panics if `prompt_tokens` is zero.
    #[must_use]
    pub fn prefill(
        &self,
        model: &LlmModel,
        scheme: &CompressionScheme,
        engine: Engine,
        prompt_tokens: usize,
        context_tokens: usize,
    ) -> PrefillReport {
        assert!(prompt_tokens > 0, "a prefill processes at least one token");
        let (seconds_per_tile, decompress_engine) =
            self.prefill_tile_seconds(scheme, engine, prompt_tokens);
        let fc_seconds =
            self.fc_seconds_for(&model.fc_gemms_per_token(prompt_tokens), seconds_per_tile);
        let attention_seconds =
            self.prefill_attention_seconds(model, prompt_tokens, context_tokens);
        // The elementwise per-token work (norms, rotary, residuals) scales
        // with the prompt length; the fixed per-layer dispatch is paid once.
        let other_seconds = Self::overhead_seconds(model.layers(), prompt_tokens);

        PrefillReport {
            model: model.name().to_string(),
            scheme: scheme.label(),
            engine: engine.label(),
            decompress_engine,
            prompt_tokens,
            context_tokens,
            fc_seconds,
            attention_seconds,
            other_seconds,
        }
    }

    /// Seconds of one speculative-decoding burst for a batch: the draft
    /// model runs `draft.draft_tokens()` of its own decode steps (weights
    /// streamed per drafted token), then the target model verifies the
    /// whole burst in one forward pass, priced as one of *its* decode
    /// steps — the standard approximation that scoring k drafted tokens
    /// costs one target pass, since the weight stream (not the k extra
    /// activation rows) is the bound.
    #[must_use]
    pub fn speculative_burst(
        &self,
        target: &LlmModel,
        draft: &DraftSpec,
        scheme: &CompressionScheme,
        engine: Engine,
        batch: usize,
        context_tokens: usize,
    ) -> f64 {
        let draft_step = self
            .next_token(draft.model(), scheme, engine, batch, context_tokens)
            .total_seconds();
        let verify = self
            .next_token(target, scheme, engine, batch, context_tokens)
            .total_seconds();
        draft.draft_tokens() as f64 * draft_step + verify
    }

    fn gemm_seconds(&self, shape: &GemmShape, seconds_per_tile: f64) -> f64 {
        let partition = Parlooper::partition(shape, self.machine.cores);
        partition.max_tiles_per_core() as f64 * seconds_per_tile
    }

    /// Steady-state decode tile rate for a (scheme, engine, batch) point,
    /// plus the functional decompression backend's label. Shared with the
    /// sharded estimator (`crate::parallel`) so both views price a tile
    /// identically.
    pub(crate) fn decode_tile_seconds(
        &self,
        scheme: &CompressionScheme,
        engine: Engine,
        batch: usize,
    ) -> (f64, String) {
        let run = self.executor.run(scheme, engine, batch);
        let seconds_per_tile = run.stats.cycles_per_tile() / self.machine.frequency_hz();
        (seconds_per_tile, run.decompress_engine)
    }

    /// Per-tile prefill rate: the slower of the steady-state stream rate and
    /// the TMUL occupancy — ceil(P/16) tile ops of `tmul_cycles_per_op`
    /// cycles each (the TMUL saturates at 16 activation rows per op).
    pub(crate) fn prefill_tile_seconds(
        &self,
        scheme: &CompressionScheme,
        engine: Engine,
        prompt_tokens: usize,
    ) -> (f64, String) {
        let run = self.executor.run(scheme, engine, prompt_tokens);
        let stream_seconds_per_tile = run.stats.cycles_per_tile() / self.machine.frequency_hz();
        let tmul_seconds_per_tile = prompt_tokens.div_ceil(16) as f64
            * f64::from(self.machine.tmul_cycles_per_op)
            / self.machine.frequency_hz();
        (
            stream_seconds_per_tile.max(tmul_seconds_per_tile),
            run.decompress_engine,
        )
    }

    /// Total FC time of a list of GeMMs at a fixed per-tile rate: each GeMM
    /// pays its worst-loaded-core tile count plus the launch/barrier cost.
    pub(crate) fn fc_seconds_for(&self, shapes: &[GemmShape], seconds_per_tile: f64) -> f64 {
        shapes
            .iter()
            .map(|shape| self.gemm_seconds(shape, seconds_per_tile))
            .sum::<f64>()
            + shapes.len() as f64 * GEMM_LAUNCH_BARRIER_US * 1e-6
    }

    /// Decode-step KV traffic time for `layers` layers whose per-token KV
    /// cost is `kv_bytes_per_token`: every layer reads the keys and values
    /// of the whole context for every sequence in the batch, and appends
    /// the new token's keys/values.
    pub(crate) fn kv_traffic_seconds(
        &self,
        kv_bytes_per_token: usize,
        layers: usize,
        batch: usize,
        context_tokens: usize,
    ) -> f64 {
        let per_layer_read = kv_bytes_per_token as f64 * context_tokens as f64 * batch as f64;
        let per_layer_write = kv_bytes_per_token as f64 * batch as f64;
        let total_bytes = (per_layer_read + per_layer_write) * layers as f64;
        total_bytes / self.machine.memory_bandwidth_bytes_per_sec()
    }

    /// Causal-attention KV traffic of a prefill: token `i` of the prompt
    /// reads the `context + i` keys/values before it, and every prompt
    /// token appends its own.
    pub(crate) fn prefill_kv_traffic_seconds(
        &self,
        kv_bytes_per_token: usize,
        layers: usize,
        prompt_tokens: usize,
        context_tokens: usize,
    ) -> f64 {
        let p = prompt_tokens as f64;
        let positions_read = p * context_tokens as f64 + p * (p - 1.0) / 2.0;
        let kv_bytes = kv_bytes_per_token as f64;
        let total_bytes = (positions_read + p) * kv_bytes * layers as f64;
        total_bytes / self.machine.memory_bandwidth_bytes_per_sec()
    }

    /// Per-layer overhead (norms, softmax, residuals, framework dispatch)
    /// for `layers` layers processing `sequences` token rows.
    pub(crate) fn overhead_seconds(layers: usize, sequences: usize) -> f64 {
        layers as f64
            * (LAYER_OVERHEAD_US + LAYER_OVERHEAD_PER_SEQUENCE_US * sequences as f64)
            * 1e-6
    }

    fn prefill_attention_seconds(
        &self,
        model: &LlmModel,
        prompt_tokens: usize,
        context_tokens: usize,
    ) -> f64 {
        self.prefill_kv_traffic_seconds(
            model.layer().kv_bytes_per_token(),
            model.layers(),
            prompt_tokens,
            context_tokens,
        )
    }

    fn attention_seconds(&self, model: &LlmModel, batch: usize, context_tokens: usize) -> f64 {
        self.kv_traffic_seconds(
            model.layer().kv_bytes_per_token(),
            model.layers(),
            batch,
            context_tokens,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deca_compress::CompressionScheme;

    fn hbm() -> InferenceEstimator {
        InferenceEstimator::new(MachineConfig::spr_hbm())
    }

    #[test]
    fn uncompressed_llama_latency_is_in_the_table4_ballpark() {
        // Table 4: 192.3 ms for BF16 Llama2-70B at batch 1 on HBM.
        let report = hbm().next_token(
            &LlmModel::llama2_70b(),
            &CompressionScheme::bf16_dense(),
            Engine::software(),
            1,
            128,
        );
        let ms = report.total_ms();
        assert!(
            (160.0..230.0).contains(&ms),
            "BF16 batch-1 next-token latency {ms:.1} ms"
        );
        assert!(report.fc_fraction() > 0.85);
    }

    #[test]
    fn deca_latency_decreases_monotonically_with_compression() {
        let estimator = hbm();
        let model = LlmModel::llama2_70b();
        let mut last = f64::INFINITY;
        for scheme in [
            CompressionScheme::mxfp4(),
            CompressionScheme::bf8_sparse(0.2),
            CompressionScheme::bf8_sparse(0.05),
        ] {
            let ms = estimator
                .next_token(&model, &scheme, Engine::deca_default(), 1, 128)
                .total_ms();
            assert!(ms < last, "{scheme}: {ms:.1} ms not below {last:.1} ms");
            last = ms;
        }
    }

    #[test]
    fn larger_batches_take_longer_but_give_more_tokens_per_second() {
        let estimator = hbm();
        let model = LlmModel::opt_66b();
        let scheme = CompressionScheme::mxfp4();
        let b1 = estimator.next_token(&model, &scheme, Engine::deca_default(), 1, 128);
        let b16 = estimator.next_token(&model, &scheme, Engine::deca_default(), 16, 128);
        assert!(b16.total_ms() > b1.total_ms());
        assert!(b16.tokens_per_second() > b1.tokens_per_second());
    }

    #[test]
    fn attention_time_grows_with_context_length() {
        let estimator = hbm();
        let model = LlmModel::opt_66b();
        let scheme = CompressionScheme::bf8_sparse(0.2);
        let short = estimator.next_token(&model, &scheme, Engine::deca_default(), 16, 128);
        let long = estimator.next_token(&model, &scheme, Engine::deca_default(), 16, 4096);
        assert!(long.attention_seconds > 10.0 * short.attention_seconds);
        assert!(long.total_ms() > short.total_ms());
        // FC time itself is unchanged by the context length.
        assert!((long.fc_seconds - short.fc_seconds).abs() < 1e-9);
    }

    #[test]
    fn report_accessors_are_consistent() {
        let report = hbm().next_token(
            &LlmModel::llama2_70b(),
            &CompressionScheme::mxfp4(),
            Engine::deca_default(),
            4,
            128,
        );
        let total = report.fc_seconds + report.attention_seconds + report.other_seconds;
        assert!((report.total_seconds() - total).abs() < 1e-15);
        assert!((report.total_ms() - total * 1e3).abs() < 1e-9);
        assert!(report.fc_fraction() > 0.0 && report.fc_fraction() < 1.0);
        assert!((report.tokens_per_second() - 4.0 / total).abs() < 1e-6);
        assert_eq!(report.batch, 4);
        assert_eq!(report.scheme, "Q4");
        assert_eq!(report.decompress_engine, "scalar");
    }

    #[test]
    fn prefill_is_much_faster_than_token_by_token_decode() {
        // The whole point of a prefill phase: 512 prompt tokens through the
        // weight stream once beats 512 decode steps by a wide margin.
        let estimator = hbm();
        let model = LlmModel::llama2_70b();
        let scheme = CompressionScheme::bf8_sparse(0.05);
        let prefill = estimator.prefill(&model, &scheme, Engine::deca_default(), 512, 0);
        let decode = estimator.next_token(&model, &scheme, Engine::deca_default(), 1, 256);
        assert!(
            prefill.total_seconds() < 0.25 * 512.0 * decode.total_seconds(),
            "prefill {:.1} ms vs 512 decode steps {:.1} ms",
            prefill.total_ms(),
            512.0 * decode.total_ms()
        );
        // But a prefill is still far more work than a single decode step.
        assert!(prefill.total_seconds() > 2.0 * decode.total_seconds());
    }

    #[test]
    fn long_prompts_become_tmul_bound() {
        // At short prompts the weight stream dominates (memory-bound), so
        // doubling the prompt barely moves the FC time; at long prompts the
        // TMUL occupancy dominates and the FC time scales linearly. The
        // uncompressed BF16 stream is heavy enough to stay memory-bound up
        // to a few hundred prompt tokens (highly compressed schemes flip to
        // TMUL-bound almost immediately).
        let estimator = hbm();
        let model = LlmModel::llama2_70b();
        let scheme = CompressionScheme::bf16_dense();
        let fc = |tokens| {
            estimator
                .prefill(&model, &scheme, Engine::software(), tokens, 0)
                .fc_seconds
        };
        let short_ratio = fc(32) / fc(16);
        let long_ratio = fc(2048) / fc(1024);
        assert!(short_ratio < 1.6, "short-prompt FC ratio {short_ratio:.2}");
        assert!(long_ratio > 1.9, "long-prompt FC ratio {long_ratio:.2}");
    }

    #[test]
    fn prefill_attention_grows_quadratically_and_with_prior_context() {
        let estimator = hbm();
        let model = LlmModel::opt_66b();
        let scheme = CompressionScheme::mxfp4();
        let short = estimator.prefill(&model, &scheme, Engine::deca_default(), 256, 0);
        let long = estimator.prefill(&model, &scheme, Engine::deca_default(), 1024, 0);
        // 4x the prompt, ~16x the causal KV reads.
        let ratio = long.attention_seconds / short.attention_seconds;
        assert!((14.0..18.0).contains(&ratio), "attention ratio {ratio:.1}");
        let with_context = estimator.prefill(&model, &scheme, Engine::deca_default(), 256, 4096);
        assert!(with_context.attention_seconds > 5.0 * short.attention_seconds);
        assert_eq!(with_context.context_tokens, 4096);
    }

    #[test]
    fn prefill_report_accessors_are_consistent() {
        let report = hbm().prefill(
            &LlmModel::llama2_70b(),
            &CompressionScheme::mxfp4(),
            Engine::deca_default(),
            128,
            0,
        );
        let total = report.fc_seconds + report.attention_seconds + report.other_seconds;
        assert!((report.total_seconds() - total).abs() < 1e-15);
        assert!((report.total_ms() - total * 1e3).abs() < 1e-9);
        assert!((report.tokens_per_second() - 128.0 / total).abs() < 1e-6);
        assert_eq!(report.prompt_tokens, 128);
        assert_eq!(report.scheme, "Q4");
        assert_eq!(report.decompress_engine, "scalar");
    }

    #[test]
    fn deca_prefill_beats_software_prefill() {
        // DECA speeds up the memory/decompress side; on short prompts that
        // side is the bound, so the prefill advantage survives.
        let estimator = hbm();
        let model = LlmModel::llama2_70b();
        let scheme = CompressionScheme::bf8_sparse(0.05);
        let sw = estimator.prefill(&model, &scheme, Engine::software(), 64, 0);
        let deca = estimator.prefill(&model, &scheme, Engine::deca_default(), 64, 0);
        assert!(
            deca.total_seconds() < sw.total_seconds(),
            "DECA {:.1} ms vs software {:.1} ms",
            deca.total_ms(),
            sw.total_ms()
        );
    }

    #[test]
    fn decompress_backend_choice_is_named_but_does_not_move_latency() {
        let model = LlmModel::llama2_70b();
        let scheme = CompressionScheme::bf8_sparse(0.2);
        let scalar = hbm().next_token(&model, &scheme, Engine::deca_default(), 1, 128);
        let word = hbm()
            .with_decompress_backend(EngineKind::WordParallel)
            .next_token(&model, &scheme, Engine::deca_default(), 1, 128);
        assert_eq!(scalar.decompress_engine, "scalar");
        assert_eq!(word.decompress_engine, "word-parallel");
        // All backends are bit-exact, so the modeled latency is identical.
        assert!((scalar.total_ms() - word.total_ms()).abs() < 1e-12);
    }

    #[test]
    fn draft_spec_accessors_and_stock_pairing() {
        let draft = DraftSpec::llama2_7b(4);
        assert_eq!(draft.model().name(), "Llama2-7B");
        assert_eq!(draft.draft_tokens(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one token")]
    fn zero_draft_tokens_panic() {
        let _ = DraftSpec::llama2_7b(0);
    }

    #[test]
    fn speculative_burst_prices_draft_steps_plus_one_verify() {
        let estimator = hbm();
        let target = LlmModel::llama2_70b();
        let scheme = CompressionScheme::bf8_sparse(0.05);
        let engine = Engine::deca_default();
        let draft = DraftSpec::llama2_7b(4);
        let burst = estimator.speculative_burst(&target, &draft, &scheme, engine, 4, 512);
        let draft_step = estimator
            .next_token(draft.model(), &scheme, engine, 4, 512)
            .total_seconds();
        let verify = estimator
            .next_token(&target, &scheme, engine, 4, 512)
            .total_seconds();
        assert_eq!(
            burst.to_bits(),
            (4.0 * draft_step + verify).to_bits(),
            "a burst is exactly k draft steps plus one verify step"
        );
        // The whole point: a 4-token burst on a 7B draft costs well under
        // four target decode steps.
        assert!(burst < 4.0 * verify);
    }
}
