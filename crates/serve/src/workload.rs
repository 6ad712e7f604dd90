//! Workload generation: request arrival processes, prompt/output-length
//! distributions, and the replayable [`RequestTrace`] the schedulers
//! consume.
//!
//! Everything is a deterministic function of a seed, so a trace can be
//! regenerated bit-for-bit (and the whole serving simulation above it is
//! replayable).

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::lora::AdapterId;
use crate::metrics::nan_last_cmp;
use crate::tenant::QosClass;

/// `splitmix64`: the token-id mixer behind [`TokenStream`] (and the
/// scheduler's seeded speculative-acceptance draws). Cheap, and a
/// bijection on `u64`, so distinct (stream, position) pairs essentially
/// never collide into equal block keys.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The stream key every session's shared system prompt draws from.
const SYSTEM_STREAM: u64 = 0x5953_5445_4d5f_5052; // "SYSTEM_PR"

/// Salt distinguishing per-request unique streams from session streams.
const UNIQUE_SALT: u64 = 0x554e_4951_5545_5f53; // "UNIQUE_S"

/// Deterministic token-id source for one request's prompt (and generated
/// continuation): token `p` of the sequence is a pure function of the
/// stream, so two requests of the same session share identical token-id
/// prefixes — the real keys the radix prefix cache ([`crate::prefix`])
/// matches on — without the trace storing any token arrays.
///
/// Positions below `system_tokens` are drawn from a shared stream —
/// normally the global system-prompt stream, but a document stream
/// ([`TokenStream::document`]) scopes the sharing to one document's
/// sessions instead of all sessions; positions at or above it come from
/// the per-session stream (the deterministic "conversation transcript",
/// which also covers generated tokens, so a follow-up turn's prompt
/// extends its predecessor's prompt + output exactly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TokenStream {
    /// Key of the per-session token stream.
    pub session: u64,
    /// Leading positions drawn from the shared stream.
    pub system_tokens: usize,
    /// Key of the shared stream the leading positions draw from:
    /// [`TokenStream::unique`] and [`TokenStream::session`] set the global
    /// system-prompt stream; RAG traces put a per-document key here so
    /// exactly that document's sessions share the prefix.
    pub shared: u64,
}

impl TokenStream {
    /// A stream unique to one request: no shared system prefix, session key
    /// derived from the request id. (Distinct requests share no token-id
    /// blocks, so the prefix cache stays cold — the pre-paged behavior.)
    #[must_use]
    pub fn unique(request_id: usize) -> Self {
        TokenStream {
            session: splitmix64(UNIQUE_SALT ^ request_id as u64),
            system_tokens: 0,
            shared: SYSTEM_STREAM,
        }
    }

    /// The stream of one chat session: `system_tokens` of shared system
    /// prompt, then the session's own transcript.
    #[must_use]
    pub fn session(session: u64, system_tokens: usize) -> Self {
        TokenStream {
            session,
            system_tokens,
            shared: SYSTEM_STREAM,
        }
    }

    /// The stream of one RAG session: `document_tokens` drawn from the
    /// per-`document` stream (shared by every session querying that
    /// document, and only those), then the session's own question and
    /// generated answer.
    #[must_use]
    pub fn document(document: u64, session: u64, document_tokens: usize) -> Self {
        TokenStream {
            session,
            system_tokens: document_tokens,
            shared: document,
        }
    }

    /// The token id at `position` of this stream.
    #[must_use]
    pub fn token_id(&self, position: usize) -> u64 {
        let stream = if position < self.system_tokens {
            self.shared
        } else {
            self.session
        };
        splitmix64(stream ^ splitmix64(position as u64))
    }

    /// The first `len` token ids of the stream.
    #[must_use]
    pub fn token_ids(&self, len: usize) -> Vec<u64> {
        (0..len).map(|p| self.token_id(p)).collect()
    }
}

/// One inference request: when it arrives and how much work it carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Stable request id (index in arrival order within the trace).
    pub id: usize,
    /// Arrival time in seconds from the start of the trace.
    pub arrival_s: f64,
    /// Prompt length in tokens (processed by the prefill phase).
    pub prompt_tokens: usize,
    /// Output length in tokens (the first is produced by the prefill, the
    /// rest by decode steps). Always at least 1.
    pub output_tokens: usize,
    /// Token-id source of the prompt (and generated continuation) — what
    /// the paged scheduler's prefix cache keys on.
    pub stream: TokenStream,
    /// Service class: which SLO this request is sold under and how
    /// admission prioritizes it. The single-class generators set
    /// Interactive, which is also [`QosClass::default`].
    pub qos: QosClass,
    /// The LoRA adapter this request runs, [`AdapterId::BASE`] (the
    /// default) for the unadapted base model.
    pub adapter: AdapterId,
}

impl Request {
    /// KV-cache tokens this request occupies once fully generated — the
    /// amount a budget-respecting scheduler must reserve at admission.
    /// Saturating: a deserialized or fuzzed trace may carry lengths whose
    /// sum overflows `usize`, and such a request must surface as "larger
    /// than any budget" (rejected), not as a debug-build panic or a tiny
    /// wrapped footprint that slips past admission.
    #[must_use]
    pub fn kv_tokens_at_completion(&self) -> usize {
        self.prompt_tokens.saturating_add(self.output_tokens)
    }
}

/// A distribution over token counts (prompt or output lengths).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LengthDistribution {
    /// Every request draws the same length.
    Fixed(usize),
    /// Uniform over `[min, max]` inclusive.
    Uniform {
        /// Smallest length.
        min: usize,
        /// Largest length.
        max: usize,
    },
    /// Chat-style mixture: mostly `short`, with a `long_fraction` of `long`
    /// (e.g. pasted documents).
    Bimodal {
        /// The common (modal) length.
        short: usize,
        /// The rare long length.
        long: usize,
        /// Probability of drawing `long`, in `[0, 1]`.
        long_fraction: f64,
    },
}

impl LengthDistribution {
    /// Draws one length. Lengths are clamped to at least 1 token.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let raw = match *self {
            LengthDistribution::Fixed(len) => len,
            LengthDistribution::Uniform { min, max } => {
                let (lo, hi) = (min.min(max), min.max(max));
                rng.gen_range(lo..hi + 1)
            }
            LengthDistribution::Bimodal {
                short,
                long,
                long_fraction,
            } => {
                if rng.gen::<f64>() < long_fraction {
                    long
                } else {
                    short
                }
            }
        };
        raw.max(1)
    }

    /// The largest length this distribution can produce (used for KV-budget
    /// sanity checks).
    #[must_use]
    pub fn max_len(&self) -> usize {
        match *self {
            LengthDistribution::Fixed(len) => len.max(1),
            LengthDistribution::Uniform { min, max } => min.max(max).max(1),
            LengthDistribution::Bimodal { short, long, .. } => short.max(long).max(1),
        }
    }
}

/// Why a workload spec cannot generate a trace. Surfaced by the specs'
/// `try_generate` methods so a mis-parameterized sweep or a deserialized
/// config errors out clearly instead of hanging in (or silently
/// degenerating) trace generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadError {
    /// An arrival rate (or burst/period shape) that can never produce a
    /// valid arrival sequence: zero, negative, or non-finite.
    InvalidRate(&'static str),
    /// A spec describing zero requests (no sessions, no documents, …).
    EmptySpec(&'static str),
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::InvalidRate(what) => write!(f, "invalid arrival rate: {what}"),
            WorkloadError::EmptySpec(what) => write!(f, "empty workload spec: {what}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// A stochastic arrival process over continuous time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a constant rate (requests per second).
    Poisson {
        /// Mean arrival rate in requests per second. Must be positive.
        rate_per_sec: f64,
    },
    /// On/off modulated Poisson: every `period_secs`-long cycle starts with
    /// `burst_secs` at `burst_rate`, then drops to `base_rate` for the rest
    /// — the bursty traffic that separates continuous from static batching.
    Bursty {
        /// Arrival rate outside bursts (may be 0).
        base_rate: f64,
        /// Arrival rate during bursts. Must be positive.
        burst_rate: f64,
        /// Burst duration at the start of each period.
        burst_secs: f64,
        /// Full cycle length. Must exceed `burst_secs`.
        period_secs: f64,
    },
}

impl ArrivalProcess {
    /// The instantaneous rate at time `t` and the next time the rate
    /// changes (`f64::INFINITY` for the homogeneous process).
    fn rate_and_boundary(&self, t: f64) -> (f64, f64) {
        match *self {
            ArrivalProcess::Poisson { rate_per_sec } => (rate_per_sec, f64::INFINITY),
            ArrivalProcess::Bursty {
                base_rate,
                burst_rate,
                burst_secs,
                period_secs,
            } => {
                let cycle = (t / period_secs).floor();
                let phase = t - cycle * period_secs;
                if phase < burst_secs {
                    (burst_rate, cycle * period_secs + burst_secs)
                } else {
                    (base_rate, (cycle + 1.0) * period_secs)
                }
            }
        }
    }

    /// Draws the next arrival strictly after `t`, exactly (piecewise-
    /// constant rates use the memorylessness of the exponential: on a rate
    /// change the residual clock is simply redrawn).
    ///
    /// # Panics
    ///
    /// Panics if the process parameters are invalid (non-positive peak
    /// rate, or a bursty period not exceeding its burst).
    pub fn next_arrival<R: Rng>(&self, t: f64, rng: &mut R) -> f64 {
        self.validate();
        let mut t = t;
        loop {
            let (rate, boundary) = self.rate_and_boundary(t);
            if rate <= 0.0 {
                t = boundary;
                continue;
            }
            let dt = exponential_gap(rng.gen(), rate);
            if t + dt <= boundary {
                return t + dt;
            }
            t = boundary;
        }
    }

    fn validate(&self) {
        if let Err(error) = self.validated() {
            panic!("{error}");
        }
    }

    /// Checks the process parameters, returning a clear error for a
    /// process that could never produce a valid arrival sequence —
    /// non-positive or non-finite rates, or a bursty period not exceeding
    /// its burst. (A zero Poisson rate, for example, would otherwise spin
    /// [`ArrivalProcess::next_arrival`] forever chasing an infinite
    /// boundary.)
    ///
    /// # Errors
    ///
    /// [`WorkloadError::InvalidRate`] describing the offending parameter.
    pub fn validated(&self) -> Result<(), WorkloadError> {
        match *self {
            ArrivalProcess::Poisson { rate_per_sec } => {
                if !(rate_per_sec > 0.0 && rate_per_sec.is_finite()) {
                    return Err(WorkloadError::InvalidRate(
                        "Poisson rate must be positive and finite",
                    ));
                }
            }
            ArrivalProcess::Bursty {
                base_rate,
                burst_rate,
                burst_secs,
                period_secs,
            } => {
                if !(base_rate >= 0.0 && base_rate.is_finite()) {
                    return Err(WorkloadError::InvalidRate(
                        "base rate must be non-negative and finite",
                    ));
                }
                if !(burst_rate > 0.0 && burst_rate.is_finite()) {
                    return Err(WorkloadError::InvalidRate(
                        "burst rate must be positive and finite",
                    ));
                }
                if !(burst_secs > 0.0 && period_secs > burst_secs && period_secs.is_finite()) {
                    return Err(WorkloadError::InvalidRate("period must exceed the burst"));
                }
            }
        }
        Ok(())
    }

    /// Long-run average arrival rate in requests per second.
    #[must_use]
    pub fn mean_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_sec } => rate_per_sec,
            ArrivalProcess::Bursty {
                base_rate,
                burst_rate,
                burst_secs,
                period_secs,
            } => (burst_rate * burst_secs + base_rate * (period_secs - burst_secs)) / period_secs,
        }
    }
}

/// Inverse-CDF exponential inter-arrival gap at `rate` from a unit draw.
///
/// The transform needs `unit < 1.0` strictly: at exactly 1.0,
/// `ln(1 − unit) = ln(0) = −inf` turns the gap infinite and every later
/// timestamp NaN. `Rng::gen` contracts to the half-open `[0, 1)`, but that
/// invariant lives in a different crate (and other `Rng` sources — e.g. a
/// replayed unit stream — may include the endpoint), so it is enforced
/// here by clamping the draw into the interval the transform tolerates
/// (`max` then `min` rather than `f64::clamp`, which passes NaN through —
/// `max(NaN, 0.0)` resolves to `0.0`). The returned gap is therefore
/// always finite and non-negative for a positive, finite `rate`, whatever
/// the draw.
// Not `f64::clamp`: the whole point of max-then-min here is its NaN
// behavior, which `clamp` does not share.
#[allow(clippy::manual_clamp)]
pub(crate) fn exponential_gap(unit: f64, rate: f64) -> f64 {
    let unit = unit.max(0.0).min(1.0 - f64::EPSILON);
    -(1.0 - unit).ln() / rate
}

/// A complete workload description: arrivals × lengths × size × seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// The arrival process.
    pub arrivals: ArrivalProcess,
    /// Prompt-length distribution.
    pub prompt_lengths: LengthDistribution,
    /// Output-length distribution.
    pub output_lengths: LengthDistribution,
    /// Number of requests to generate.
    pub requests: usize,
    /// RNG seed: the same spec always generates the same trace.
    pub seed: u64,
}

impl WorkloadSpec {
    /// A chat-style workload: Poisson arrivals, mostly-short prompts with
    /// an occasional pasted document, full-response outputs (decode-heavy,
    /// the regime where online decompression speed shows up in capacity).
    #[must_use]
    pub fn chat(rate_per_sec: f64, requests: usize, seed: u64) -> Self {
        WorkloadSpec {
            arrivals: ArrivalProcess::Poisson { rate_per_sec },
            prompt_lengths: LengthDistribution::Bimodal {
                short: 128,
                long: 1024,
                long_fraction: 0.1,
            },
            output_lengths: LengthDistribution::Uniform { min: 64, max: 224 },
            requests,
            seed,
        }
    }

    /// A bursty variant of [`WorkloadSpec::chat`]: the same mean rate
    /// delivered as 5x bursts for a fifth of every 20-second period.
    #[must_use]
    pub fn bursty_chat(mean_rate_per_sec: f64, requests: usize, seed: u64) -> Self {
        WorkloadSpec {
            arrivals: ArrivalProcess::Bursty {
                base_rate: 0.0,
                burst_rate: mean_rate_per_sec * 5.0,
                burst_secs: 4.0,
                period_secs: 20.0,
            },
            ..WorkloadSpec::chat(mean_rate_per_sec, requests, seed)
        }
    }

    /// Generates the replayable trace, or a clear error for a spec that
    /// could never generate one (an invalid arrival process would
    /// otherwise hang or degenerate inside generation).
    ///
    /// # Errors
    ///
    /// [`WorkloadError::InvalidRate`] for zero/negative/non-finite rates;
    /// [`WorkloadError::EmptySpec`] when `requests` is zero.
    pub fn try_generate(&self) -> Result<RequestTrace, WorkloadError> {
        self.arrivals.validated()?;
        if self.requests == 0 {
            return Err(WorkloadError::EmptySpec(
                "a workload spec needs at least one request",
            ));
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut t = 0.0;
        let mut requests = Vec::with_capacity(self.requests);
        for id in 0..self.requests {
            t = self.arrivals.next_arrival(t, &mut rng);
            requests.push(Request {
                id,
                arrival_s: t,
                prompt_tokens: self.prompt_lengths.sample(&mut rng),
                output_tokens: self.output_lengths.sample(&mut rng),
                stream: TokenStream::unique(id),
                qos: QosClass::Interactive,
                adapter: AdapterId::BASE,
            });
        }
        Ok(RequestTrace { requests })
    }

    /// Generates the replayable trace this spec describes.
    ///
    /// # Panics
    ///
    /// Panics where [`WorkloadSpec::try_generate`] errors.
    #[must_use]
    pub fn generate(&self) -> RequestTrace {
        match self.try_generate() {
            Ok(trace) => trace,
            Err(error) => panic!("{error}"),
        }
    }
}

/// A shared-prefix chat workload: `sessions` conversations arrive as a
/// Poisson process, every session opens with the same `system_prompt_tokens`
/// system prompt (drawn from the global system stream, so *all* sessions
/// share those token-id blocks), and each of its `turns_per_session` turns
/// carries the whole conversation so far as its prompt — turn `t+1`'s
/// prompt extends turn `t`'s prompt + generated output in the session's
/// [`TokenStream`], exactly the workload a radix prefix cache serves well
/// and a reserve-up-front scheduler pays full prefill for every turn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharedPrefixChatSpec {
    /// Session (conversation) arrival rate, sessions per second.
    pub rate_per_sec: f64,
    /// Number of conversations.
    pub sessions: usize,
    /// Turns per conversation (≥ 1).
    pub turns_per_session: usize,
    /// System-prompt tokens shared by every session.
    pub system_prompt_tokens: usize,
    /// Length of each turn's fresh user message.
    pub user_tokens: LengthDistribution,
    /// Length of each turn's generated reply.
    pub output_tokens: LengthDistribution,
    /// Mean think time between receiving a reply and sending the next turn
    /// (an exponential gap, plus a decode-time allowance so open-loop
    /// follow-ups usually arrive after their predecessor finished).
    pub think_time_s: f64,
    /// RNG seed: the same spec always generates the same trace.
    pub seed: u64,
}

impl SharedPrefixChatSpec {
    /// A prefix-heavy chat fleet: 512-token system prompt, 4 turns per
    /// conversation, short user messages, mid-length replies.
    #[must_use]
    pub fn fleet(rate_per_sec: f64, sessions: usize, seed: u64) -> Self {
        SharedPrefixChatSpec {
            rate_per_sec,
            sessions,
            turns_per_session: 4,
            system_prompt_tokens: 512,
            user_tokens: LengthDistribution::Uniform { min: 24, max: 96 },
            output_tokens: LengthDistribution::Uniform { min: 48, max: 160 },
            think_time_s: 20.0,
            seed,
        }
    }

    /// The deterministic sim-speed benchmark trace (`bench_simspeed`, and
    /// the CI `simspeed` gate): `sessions` two-turn conversations over a
    /// 128-token shared system prompt, short user messages and replies,
    /// offered at 16 sessions/s. Small per-request token counts keep the
    /// simulated work per request bounded, so the benchmark measures the
    /// event core's overhead — heap ops and incremental accounting — not
    /// the length of the conversations; the fixed seed makes every run
    /// (and every CI machine) simulate the identical trace.
    #[must_use]
    pub fn simspeed(sessions: usize) -> Self {
        SharedPrefixChatSpec {
            rate_per_sec: 16.0,
            sessions,
            turns_per_session: 2,
            system_prompt_tokens: 128,
            user_tokens: LengthDistribution::Uniform { min: 16, max: 48 },
            output_tokens: LengthDistribution::Uniform { min: 16, max: 48 },
            think_time_s: 5.0,
            seed: 71,
        }
    }

    /// The same conversations offered at a different session rate (the
    /// knob a capacity search turns).
    #[must_use]
    pub fn with_rate(self, rate_per_sec: f64) -> Self {
        SharedPrefixChatSpec {
            rate_per_sec,
            ..self
        }
    }

    /// Requests the generated trace will contain.
    #[must_use]
    pub fn requests(&self) -> usize {
        self.sessions * self.turns_per_session.max(1)
    }

    /// Generates the replayable trace, or a clear error for a spec that
    /// could never generate one.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::InvalidRate`] for a zero/negative/non-finite
    /// session rate; [`WorkloadError::EmptySpec`] when `sessions` is zero.
    pub fn try_generate(&self) -> Result<RequestTrace, WorkloadError> {
        ArrivalProcess::Poisson {
            rate_per_sec: self.rate_per_sec,
        }
        .validated()?;
        if self.sessions == 0 {
            return Err(WorkloadError::EmptySpec(
                "a shared-prefix chat spec needs at least one session",
            ));
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut requests = Vec::with_capacity(self.requests());
        let mut session_start = 0.0f64;
        let think_rate = 1.0 / self.think_time_s.max(1e-6);
        for session in 0..self.sessions {
            session_start += exponential_gap(rng.gen(), self.rate_per_sec);
            let stream = TokenStream::session(
                splitmix64(self.seed ^ splitmix64(session as u64)),
                self.system_prompt_tokens,
            );
            let mut transcript = self.system_prompt_tokens;
            let mut arrival = session_start;
            for _ in 0..self.turns_per_session.max(1) {
                let user = self.user_tokens.sample(&mut rng);
                let output = self.output_tokens.sample(&mut rng);
                transcript += user;
                requests.push(Request {
                    id: 0, // assigned in arrival order below
                    arrival_s: arrival,
                    prompt_tokens: transcript,
                    output_tokens: output,
                    stream,
                    qos: QosClass::Interactive,
                    adapter: AdapterId::BASE,
                });
                transcript += output;
                // Next turn: think time plus a generous decode allowance
                // (~60 ms/token) so the reply is usually complete first.
                arrival += exponential_gap(rng.gen(), think_rate) + output as f64 * 0.06;
            }
        }
        let mut trace = RequestTrace::new(requests);
        for (index, request) in trace.requests.iter_mut().enumerate() {
            request.id = index;
        }
        Ok(trace)
    }

    /// Generates the replayable trace this spec describes.
    ///
    /// # Panics
    ///
    /// Panics where [`SharedPrefixChatSpec::try_generate`] errors.
    #[must_use]
    pub fn generate(&self) -> RequestTrace {
        match self.try_generate() {
            Ok(trace) => trace,
            Err(error) => panic!("{error}"),
        }
    }

    /// Streams the same requests as [`SharedPrefixChatSpec::generate`] —
    /// bit-identical, same ids, same order — without ever materializing
    /// the trace. At million-session scale the materialized `Vec<Request>`
    /// is the simulation's dominant allocation; the stream holds only the
    /// turns of sessions that have started but whose arrivals are not yet
    /// safe to emit (bounded by session concurrency, not session count).
    ///
    /// # Panics
    ///
    /// Panics if the session rate is not positive.
    #[must_use]
    pub fn stream(&self) -> SharedPrefixChatStream {
        assert!(self.rate_per_sec > 0.0, "session rate must be positive");
        SharedPrefixChatStream {
            spec: *self,
            rng: StdRng::seed_from_u64(self.seed),
            next_session: 0,
            session_start: 0.0,
            gen_seq: 0,
            emitted: 0,
            pending: std::collections::BinaryHeap::new(),
        }
    }
}

/// One not-yet-emitted turn inside [`SharedPrefixChatStream`], ordered by
/// `(arrival, generation index)`. The generation index reproduces the
/// stable tie-break of [`RequestTrace::new`]'s sort: co-timed requests
/// keep the order [`SharedPrefixChatSpec::generate`] produced them in.
#[derive(Debug, Clone)]
struct PendingTurn {
    gen_seq: usize,
    request: Request,
}

impl PartialEq for PendingTurn {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for PendingTurn {}

impl PartialOrd for PendingTurn {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PendingTurn {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.request
            .arrival_s
            .total_cmp(&other.request.arrival_s)
            .then(self.gen_seq.cmp(&other.gen_seq))
    }
}

/// Lazy, arrival-ordered request source over a [`SharedPrefixChatSpec`] —
/// see [`SharedPrefixChatSpec::stream`].
///
/// Sessions are generated in start order from a single sequential RNG
/// (the exact draw order of `generate`), and a turn is emitted once its
/// arrival is at or before the most recently started session: every
/// later session starts no earlier, so no future turn can precede it.
/// Ids are assigned in emission order, matching the materialized trace's
/// post-sort renumbering.
#[derive(Debug, Clone)]
pub struct SharedPrefixChatStream {
    spec: SharedPrefixChatSpec,
    rng: StdRng,
    /// Next session index to generate.
    next_session: usize,
    /// Start time of the most recently generated session.
    session_start: f64,
    /// Turns generated so far (the stable tie-break key).
    gen_seq: usize,
    /// Requests emitted so far (the next request id).
    emitted: usize,
    /// Generated turns whose arrival might still be preceded by a
    /// not-yet-generated session's turn (min-heap by arrival).
    pending: std::collections::BinaryHeap<std::cmp::Reverse<PendingTurn>>,
}

impl SharedPrefixChatStream {
    /// Draws the next session's start and all of its turns into `pending`,
    /// replicating `generate`'s per-session RNG draw order exactly.
    fn generate_next_session(&mut self) {
        let spec = &self.spec;
        let think_rate = 1.0 / spec.think_time_s.max(1e-6);
        self.session_start += exponential_gap(self.rng.gen(), spec.rate_per_sec);
        let session = self.next_session;
        self.next_session += 1;
        let stream = TokenStream::session(
            splitmix64(spec.seed ^ splitmix64(session as u64)),
            spec.system_prompt_tokens,
        );
        let mut transcript = spec.system_prompt_tokens;
        let mut arrival = self.session_start;
        for _ in 0..spec.turns_per_session.max(1) {
            let user = spec.user_tokens.sample(&mut self.rng);
            let output = spec.output_tokens.sample(&mut self.rng);
            transcript += user;
            self.pending.push(std::cmp::Reverse(PendingTurn {
                gen_seq: self.gen_seq,
                request: Request {
                    id: 0, // assigned in emission (arrival) order
                    arrival_s: arrival,
                    prompt_tokens: transcript,
                    output_tokens: output.max(1),
                    stream,
                    qos: QosClass::Interactive,
                    adapter: AdapterId::BASE,
                },
            }));
            self.gen_seq += 1;
            transcript += output;
            arrival += exponential_gap(self.rng.gen(), think_rate) + output as f64 * 0.06;
        }
    }
}

impl Iterator for SharedPrefixChatStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        loop {
            let exhausted = self.next_session >= self.spec.sessions;
            if let Some(std::cmp::Reverse(head)) = self.pending.peek() {
                // Safe to emit once no ungenerated session can precede it:
                // future sessions start at or after the latest start, and
                // a co-timed future turn loses the gen_seq tie-break.
                if exhausted || head.request.arrival_s <= self.session_start {
                    let std::cmp::Reverse(turn) = self.pending.pop().expect("peeked");
                    let mut request = turn.request;
                    request.id = self.emitted;
                    self.emitted += 1;
                    return Some(request);
                }
            } else if exhausted {
                return None;
            }
            self.generate_next_session();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.spec.requests() - self.emitted;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for SharedPrefixChatStream {}

/// A cold-session chat workload: conversations open with a burst of
/// `first_turns` closely spaced turns, go idle for a long `idle_s` gap
/// (the user walks away), then come back for `return_turns` more turns
/// that still carry the whole transcript as their prompt.
///
/// This is the workload the KV tier hierarchy ([`crate::KvTierModel`])
/// exists for: during the idle gap the session's blocks go cold and get
/// evicted from HBM, so the returning turn either re-prefills its entire
/// accumulated context (recompute) or promotes the demoted blocks back
/// from DDR/disk at transfer cost — the swap-vs-recompute comparison
/// `bench_disagg` prices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColdSessionSpec {
    /// Session (conversation) arrival rate, sessions per second.
    pub rate_per_sec: f64,
    /// Number of conversations.
    pub sessions: usize,
    /// Turns in the opening burst (≥ 1).
    pub first_turns: usize,
    /// Turns after the idle gap (may be 0 for fire-and-forget sessions).
    pub return_turns: usize,
    /// System-prompt tokens shared by every session.
    pub system_prompt_tokens: usize,
    /// Length of each turn's fresh user message.
    pub user_tokens: LengthDistribution,
    /// Length of each turn's generated reply.
    pub output_tokens: LengthDistribution,
    /// Mean think time between turns inside a burst (exponential).
    pub think_time_s: f64,
    /// Mean idle gap between the opening burst and the return (an
    /// exponential draw, so returns don't arrive in lockstep). Must be
    /// much larger than `think_time_s` for the sessions to actually go
    /// cold.
    pub idle_s: f64,
    /// RNG seed: the same spec always generates the same trace.
    pub seed: u64,
}

impl ColdSessionSpec {
    /// A cold-return fleet: sessions open with two turns over a 256-token
    /// system prompt, accumulate a substantial transcript, go idle for
    /// ~5 simulated minutes, then return for two more turns.
    #[must_use]
    pub fn fleet(rate_per_sec: f64, sessions: usize, seed: u64) -> Self {
        ColdSessionSpec {
            rate_per_sec,
            sessions,
            first_turns: 2,
            return_turns: 2,
            system_prompt_tokens: 256,
            user_tokens: LengthDistribution::Uniform { min: 64, max: 192 },
            output_tokens: LengthDistribution::Uniform { min: 48, max: 160 },
            think_time_s: 10.0,
            idle_s: 300.0,
            seed,
        }
    }

    /// The same sessions offered at a different rate (the capacity-search
    /// knob).
    #[must_use]
    pub fn with_rate(self, rate_per_sec: f64) -> Self {
        ColdSessionSpec {
            rate_per_sec,
            ..self
        }
    }

    /// Requests the generated trace will contain.
    #[must_use]
    pub fn requests(&self) -> usize {
        self.sessions * (self.first_turns.max(1) + self.return_turns)
    }

    /// Generates the replayable trace, or a clear error for a spec that
    /// could never generate one.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::InvalidRate`] for a zero/negative/non-finite
    /// session rate; [`WorkloadError::EmptySpec`] when `sessions` is zero.
    pub fn try_generate(&self) -> Result<RequestTrace, WorkloadError> {
        ArrivalProcess::Poisson {
            rate_per_sec: self.rate_per_sec,
        }
        .validated()?;
        if self.sessions == 0 {
            return Err(WorkloadError::EmptySpec(
                "a cold-session spec needs at least one session",
            ));
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut requests = Vec::with_capacity(self.requests());
        let mut session_start = 0.0f64;
        let think_rate = 1.0 / self.think_time_s.max(1e-6);
        let idle_rate = 1.0 / self.idle_s.max(1e-6);
        for session in 0..self.sessions {
            session_start += exponential_gap(rng.gen(), self.rate_per_sec);
            let stream = TokenStream::session(
                splitmix64(self.seed ^ splitmix64(session as u64)),
                self.system_prompt_tokens,
            );
            let mut transcript = self.system_prompt_tokens;
            let mut arrival = session_start;
            let turns = self.first_turns.max(1) + self.return_turns;
            for turn in 0..turns {
                if turn == self.first_turns.max(1) {
                    // The user walks away; the session's KV goes cold.
                    arrival += exponential_gap(rng.gen(), idle_rate) + self.idle_s;
                }
                let user = self.user_tokens.sample(&mut rng);
                let output = self.output_tokens.sample(&mut rng);
                transcript += user;
                requests.push(Request {
                    id: 0, // assigned in arrival order below
                    arrival_s: arrival,
                    prompt_tokens: transcript,
                    output_tokens: output,
                    stream,
                    qos: QosClass::Interactive,
                    adapter: AdapterId::BASE,
                });
                transcript += output;
                arrival += exponential_gap(rng.gen(), think_rate) + output as f64 * 0.06;
            }
        }
        let mut trace = RequestTrace::new(requests);
        for (index, request) in trace.requests.iter_mut().enumerate() {
            request.id = index;
        }
        Ok(trace)
    }

    /// Generates the replayable trace this spec describes.
    ///
    /// # Panics
    ///
    /// Panics where [`ColdSessionSpec::try_generate`] errors.
    #[must_use]
    pub fn generate(&self) -> RequestTrace {
        match self.try_generate() {
            Ok(trace) => trace,
            Err(error) => panic!("{error}"),
        }
    }
}

/// A mixed long-document + interactive-chat workload: two independent
/// Poisson streams share one server. Chat requests are short-prompt,
/// decode-heavy, and latency-sensitive; document requests carry
/// multi-thousand-token prompts whose monolithic prefill waves stall every
/// co-resident chat decode — the head-of-line interference chunked prefill
/// ([`crate::ServingConfig::with_chunked_prefill`]) exists to bound, and
/// the traffic the `bench_chunked` experiment measures p99 chat TPOT
/// under.
///
/// Document prompts are strictly longer than the longest chat prompt, so
/// [`DocChatMixSpec::is_document`] can classify a generated request from
/// its prompt length alone (the merged trace re-ids requests in arrival
/// order, so provenance is not recoverable from the id).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DocChatMixSpec {
    /// Chat arrival rate, requests per second.
    pub chat_rate_per_sec: f64,
    /// Document arrival rate, requests per second.
    pub doc_rate_per_sec: f64,
    /// Number of chat requests.
    pub chat_requests: usize,
    /// Number of document requests.
    pub doc_requests: usize,
    /// Chat prompt lengths. Must stay strictly below every document
    /// prompt for [`DocChatMixSpec::is_document`] to classify correctly.
    pub chat_prompt_tokens: LengthDistribution,
    /// Chat reply lengths (decode-heavy).
    pub chat_output_tokens: LengthDistribution,
    /// Document prompt lengths (prefill-heavy).
    pub doc_prompt_tokens: LengthDistribution,
    /// Document output lengths (short summaries).
    pub doc_output_tokens: LengthDistribution,
    /// RNG seed: the same spec always generates the same trace.
    pub seed: u64,
}

impl DocChatMixSpec {
    /// The headline mix: latency-sensitive chat at `chat_rate_per_sec`
    /// with one 4k–12k-token document ingestion for every ~8 chats riding
    /// the same server.
    #[must_use]
    pub fn fleet(chat_rate_per_sec: f64, chat_requests: usize, seed: u64) -> Self {
        DocChatMixSpec {
            chat_rate_per_sec,
            doc_rate_per_sec: chat_rate_per_sec / 8.0,
            chat_requests,
            doc_requests: (chat_requests / 8).max(1),
            chat_prompt_tokens: LengthDistribution::Uniform { min: 32, max: 256 },
            chat_output_tokens: LengthDistribution::Uniform { min: 64, max: 224 },
            doc_prompt_tokens: LengthDistribution::Uniform {
                min: 4_096,
                max: 12_288,
            },
            doc_output_tokens: LengthDistribution::Uniform { min: 16, max: 64 },
            seed,
        }
    }

    /// The same mix offered at a different chat rate, document traffic
    /// scaled proportionally (the capacity-search knob).
    #[must_use]
    pub fn with_rate(self, chat_rate_per_sec: f64) -> Self {
        let scale = chat_rate_per_sec / self.chat_rate_per_sec;
        DocChatMixSpec {
            chat_rate_per_sec,
            doc_rate_per_sec: self.doc_rate_per_sec * scale,
            ..self
        }
    }

    /// Requests the generated trace will contain.
    #[must_use]
    pub fn requests(&self) -> usize {
        self.chat_requests + self.doc_requests
    }

    /// Whether a generated request is a document ingestion (as opposed to
    /// a chat turn), judged by prompt length.
    #[must_use]
    pub fn is_document(&self, request: &Request) -> bool {
        request.prompt_tokens > self.chat_prompt_tokens.max_len()
    }

    /// Generates the replayable trace: both Poisson streams drawn from
    /// seeded RNGs, merged in arrival order with ids reassigned — or a
    /// clear error for a spec that could never generate one.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::InvalidRate`] when a lane with requests has a
    /// zero/negative/non-finite rate; [`WorkloadError::EmptySpec`] when
    /// both lanes are empty.
    ///
    /// # Panics
    ///
    /// Panics if the longest chat prompt reaches the shortest possible
    /// document prompt (which would break classification).
    pub fn try_generate(&self) -> Result<RequestTrace, WorkloadError> {
        let doc_floor = match self.doc_prompt_tokens {
            LengthDistribution::Fixed(len) => len,
            LengthDistribution::Uniform { min, .. } => min,
            LengthDistribution::Bimodal { short, long, .. } => short.min(long),
        };
        assert!(
            self.chat_prompt_tokens.max_len() < doc_floor,
            "chat prompts must stay strictly shorter than document prompts"
        );
        if self.requests() == 0 {
            return Err(WorkloadError::EmptySpec(
                "a doc/chat mix needs at least one request in some lane",
            ));
        }
        let mut requests = Vec::with_capacity(self.requests());
        let mut lane = |count: usize,
                        rate: f64,
                        prompts: LengthDistribution,
                        outputs: LengthDistribution,
                        salt: u64|
         -> Result<(), WorkloadError> {
            if count == 0 {
                return Ok(());
            }
            ArrivalProcess::Poisson { rate_per_sec: rate }.validated()?;
            let mut rng = StdRng::seed_from_u64(splitmix64(self.seed ^ salt));
            let mut t = 0.0f64;
            for _ in 0..count {
                t += exponential_gap(rng.gen(), rate);
                requests.push(Request {
                    id: 0, // assigned in arrival order below
                    arrival_s: t,
                    prompt_tokens: prompts.sample(&mut rng),
                    output_tokens: outputs.sample(&mut rng),
                    stream: TokenStream::unique(0),
                    qos: QosClass::Interactive,
                    adapter: AdapterId::BASE,
                });
            }
            Ok(())
        };
        lane(
            self.chat_requests,
            self.chat_rate_per_sec,
            self.chat_prompt_tokens,
            self.chat_output_tokens,
            0x5EED_C4A7,
        )?;
        lane(
            self.doc_requests,
            self.doc_rate_per_sec,
            self.doc_prompt_tokens,
            self.doc_output_tokens,
            0xD0C_F00D,
        )?;
        let mut trace = RequestTrace::new(requests);
        for (index, request) in trace.requests.iter_mut().enumerate() {
            request.id = index;
            request.stream = TokenStream::unique(index);
        }
        Ok(trace)
    }

    /// Generates the replayable trace this spec describes.
    ///
    /// # Panics
    ///
    /// Panics where [`DocChatMixSpec::try_generate`] errors, and on a
    /// chat/document prompt-length overlap.
    #[must_use]
    pub fn generate(&self) -> RequestTrace {
        match self.try_generate() {
            Ok(trace) => trace,
            Err(error) => panic!("{error}"),
        }
    }
}

/// An ordered, replayable list of requests. Traces can come from
/// [`WorkloadSpec::generate`] or be constructed directly (e.g. replayed from
/// a serialized production log).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RequestTrace {
    requests: Vec<Request>,
}

impl RequestTrace {
    /// Builds a trace from explicit requests, sorting by arrival time
    /// (ties keep their relative order, so replays are stable; NaN
    /// arrivals of either sign sort after every finite one) and
    /// enforcing the [`Request::output_tokens`] ≥ 1 invariant — a replayed
    /// log entry with a zero-length output is served as a single-token
    /// (prefill-only) request rather than wedging the scheduler.
    #[must_use]
    pub fn new(mut requests: Vec<Request>) -> Self {
        for request in &mut requests {
            request.output_tokens = request.output_tokens.max(1);
        }
        requests.sort_by(|a, b| nan_last_cmp(a.arrival_s, b.arrival_s));
        RequestTrace { requests }
    }

    /// The requests in arrival order.
    #[must_use]
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Mutable access for in-crate generators that re-id requests after
    /// the arrival sort. Crate-private: external mutation could break the
    /// sorted-by-arrival invariant.
    pub(crate) fn requests_mut(&mut self) -> &mut [Request] {
        &mut self.requests
    }

    /// Number of requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Time of the last arrival (0 for an empty trace).
    #[must_use]
    pub fn duration_s(&self) -> f64 {
        self.requests.last().map_or(0.0, |r| r.arrival_s)
    }

    /// Realized offered load in requests per second.
    #[must_use]
    pub fn offered_rate(&self) -> f64 {
        if self.duration_s() == 0.0 {
            0.0
        } else {
            self.len() as f64 / self.duration_s()
        }
    }

    /// Total output tokens the trace asks for.
    #[must_use]
    pub fn total_output_tokens(&self) -> u64 {
        self.requests.iter().map(|r| r.output_tokens as u64).sum()
    }

    /// Splits the trace round-robin across `replicas` servers (the
    /// front-end load balancer of a multi-replica fleet). Arrival times are
    /// preserved; every request lands on exactly one replica.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    #[must_use]
    pub fn split_round_robin(&self, replicas: usize) -> Vec<RequestTrace> {
        assert!(replicas > 0, "a fleet has at least one replica");
        let mut shards = vec![Vec::new(); replicas];
        for (i, request) in self.requests.iter().enumerate() {
            shards[i % replicas].push(*request);
        }
        shards
            .into_iter()
            .map(|requests| RequestTrace { requests })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic_and_sorted() {
        let spec = WorkloadSpec::chat(4.0, 200, 42);
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
        assert!(a
            .requests()
            .windows(2)
            .all(|w| w[0].arrival_s <= w[1].arrival_s));
        assert!(a.requests().iter().all(|r| r.output_tokens >= 1));
        let other_seed = WorkloadSpec::chat(4.0, 200, 43).generate();
        assert_ne!(a, other_seed);
    }

    /// Regression: the arrival sort used `partial_cmp(..).unwrap_or(Equal)`,
    /// which is not a total order once a NaN appears — the finite arrivals
    /// could come out of order, or the sort could panic. NaNs of either
    /// sign now sort after every finite arrival, which stay ascending.
    #[test]
    fn nan_arrivals_sort_last_and_keep_the_finite_order() {
        let at = |id: usize, arrival_s: f64| Request {
            id,
            arrival_s,
            prompt_tokens: 8,
            output_tokens: 4,
            stream: TokenStream::unique(id),
            qos: QosClass::default(),
            adapter: AdapterId::BASE,
        };
        let trace = RequestTrace::new(vec![
            at(0, 3.0),
            at(1, f64::NAN),
            at(2, 1.0),
            at(3, -f64::NAN),
            at(4, 0.5),
            at(5, 2.0),
            at(6, f64::NAN),
            at(7, 1.5),
        ]);
        let arrivals: Vec<f64> = trace.requests().iter().map(|r| r.arrival_s).collect();
        assert_eq!(arrivals[..5], [0.5, 1.0, 1.5, 2.0, 3.0]);
        assert!(arrivals[5..].iter().all(|a| a.is_nan()));
        // Equal keys keep their relative order: the NaNs stay as given.
        let nan_ids: Vec<usize> = trace.requests()[5..].iter().map(|r| r.id).collect();
        assert_eq!(nan_ids, [1, 3, 6]);
    }

    /// Regression: a unit draw of exactly 1.0 used to hit `ln(0) = -inf`,
    /// producing an infinite inter-arrival gap (and NaN timestamps after
    /// it). The clamp keeps the transform finite over the whole closed
    /// unit interval.
    #[test]
    fn exponential_gap_is_finite_over_the_closed_unit_interval() {
        for rate in [1e-6, 1.0, 1e6] {
            for unit in [0.0, 0.5, 1.0 - f64::EPSILON, 1.0] {
                let gap = exponential_gap(unit, rate);
                assert!(gap.is_finite() && gap >= 0.0, "gap({unit}, {rate}) = {gap}");
            }
        }
        assert_eq!(exponential_gap(0.0, 4.0), 0.0);
        // The endpoint is clamped, not special-cased: it matches the
        // largest representable sub-1.0 draw.
        assert_eq!(
            exponential_gap(1.0, 4.0),
            exponential_gap(1.0 - f64::EPSILON, 4.0)
        );
        // Even a NaN draw (a corrupted replayed unit stream) resolves to a
        // finite gap instead of poisoning every later timestamp.
        let nan_gap = exponential_gap(f64::NAN, 4.0);
        assert!(nan_gap.is_finite() && nan_gap >= 0.0, "gap {nan_gap}");
    }

    /// Regression (spec validation): a zero/negative/non-finite rate used
    /// to panic deep inside generation — or, for a zero Poisson rate, spin
    /// `next_arrival` forever chasing an infinite boundary. Every spec now
    /// rejects such parameters (and zero-session shapes) up front with a
    /// clear `Err`, at any seed.
    #[test]
    fn invalid_specs_error_instead_of_hanging() {
        for seed in [0, 1, u64::MAX, u64::MAX - 1, 0x8000_0000_0000_0000] {
            for rate in [0.0, -3.0, f64::NAN, f64::INFINITY] {
                assert!(matches!(
                    WorkloadSpec::chat(rate, 10, seed).try_generate(),
                    Err(WorkloadError::InvalidRate(_))
                ));
                assert!(matches!(
                    SharedPrefixChatSpec::fleet(rate, 4, seed).try_generate(),
                    Err(WorkloadError::InvalidRate(_))
                ));
                assert!(matches!(
                    ColdSessionSpec::fleet(rate, 4, seed).try_generate(),
                    Err(WorkloadError::InvalidRate(_))
                ));
                assert!(matches!(
                    DocChatMixSpec::fleet(rate, 16, seed).try_generate(),
                    Err(WorkloadError::InvalidRate(_))
                ));
            }
            assert!(matches!(
                WorkloadSpec::chat(4.0, 0, seed).try_generate(),
                Err(WorkloadError::EmptySpec(_))
            ));
            assert!(matches!(
                SharedPrefixChatSpec::fleet(4.0, 0, seed).try_generate(),
                Err(WorkloadError::EmptySpec(_))
            ));
            assert!(matches!(
                ColdSessionSpec::fleet(4.0, 0, seed).try_generate(),
                Err(WorkloadError::EmptySpec(_))
            ));
        }
        // Bursty shapes that could never tick over are rejected too.
        let bad_burst = WorkloadSpec {
            arrivals: ArrivalProcess::Bursty {
                base_rate: 0.0,
                burst_rate: 5.0,
                burst_secs: 20.0,
                period_secs: 20.0,
            },
            ..WorkloadSpec::chat(4.0, 10, 1)
        };
        assert!(matches!(
            bad_burst.try_generate(),
            Err(WorkloadError::InvalidRate(_))
        ));
        let error = WorkloadSpec::chat(0.0, 10, 1).try_generate().unwrap_err();
        assert!(error.to_string().contains("Poisson rate"), "{error}");
        // Valid specs still generate through the fallible path.
        assert_eq!(
            WorkloadSpec::chat(4.0, 10, 1).try_generate().unwrap(),
            WorkloadSpec::chat(4.0, 10, 1).generate()
        );
    }

    #[test]
    fn poisson_rate_is_roughly_honored() {
        let trace = WorkloadSpec::chat(8.0, 2000, 7).generate();
        let rate = trace.offered_rate();
        assert!((6.5..9.5).contains(&rate), "offered rate {rate:.2}");
    }

    #[test]
    fn bursty_arrivals_cluster_in_the_burst_window() {
        let spec = WorkloadSpec::bursty_chat(4.0, 800, 11);
        let trace = spec.generate();
        let ArrivalProcess::Bursty {
            burst_secs,
            period_secs,
            ..
        } = spec.arrivals
        else {
            panic!("bursty spec");
        };
        let in_burst = trace
            .requests()
            .iter()
            .filter(|r| (r.arrival_s % period_secs) < burst_secs)
            .count();
        // base_rate = 0: every arrival must fall inside a burst window.
        assert_eq!(in_burst, trace.len());
        // Mean rate matches the homogeneous equivalent.
        let mean = spec.arrivals.mean_rate();
        assert!((mean - 4.0).abs() < 1e-12);
        let realized = trace.offered_rate();
        assert!((3.0..5.5).contains(&realized), "realized {realized:.2}");
    }

    #[test]
    fn length_distributions_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let uniform = LengthDistribution::Uniform { min: 10, max: 20 };
        for _ in 0..200 {
            let v = uniform.sample(&mut rng);
            assert!((10..=20).contains(&v));
        }
        assert_eq!(uniform.max_len(), 20);
        let bimodal = LengthDistribution::Bimodal {
            short: 64,
            long: 2048,
            long_fraction: 0.25,
        };
        let longs = (0..400)
            .filter(|_| bimodal.sample(&mut rng) == 2048)
            .count();
        assert!((40..170).contains(&longs), "long draws {longs}");
        assert_eq!(LengthDistribution::Fixed(0).sample(&mut rng), 1);
    }

    #[test]
    fn round_robin_split_conserves_requests() {
        let trace = WorkloadSpec::chat(4.0, 101, 5).generate();
        let shards = trace.split_round_robin(4);
        assert_eq!(shards.len(), 4);
        assert_eq!(shards.iter().map(RequestTrace::len).sum::<usize>(), 101);
        let mut ids: Vec<usize> = shards
            .iter()
            .flat_map(|s| s.requests().iter().map(|r| r.id))
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..101).collect::<Vec<_>>());
    }

    #[test]
    fn kv_reservation_covers_prompt_and_output() {
        let r = Request {
            id: 0,
            arrival_s: 0.0,
            prompt_tokens: 100,
            output_tokens: 28,
            stream: TokenStream::unique(0),
            qos: QosClass::default(),
            adapter: AdapterId::default(),
        };
        assert_eq!(r.kv_tokens_at_completion(), 128);
    }

    /// Regression: a deserialized/fuzzed trace with huge lengths used to
    /// overflow `prompt_tokens + output_tokens` in debug builds; the
    /// footprint now saturates, so such a request reads as "larger than
    /// any budget" and is rejected instead of panicking.
    #[test]
    fn kv_reservation_saturates_instead_of_overflowing() {
        let r = Request {
            id: 0,
            arrival_s: 0.0,
            prompt_tokens: usize::MAX - 10,
            output_tokens: 1_000,
            stream: TokenStream::unique(0),
            qos: QosClass::default(),
            adapter: AdapterId::default(),
        };
        assert_eq!(r.kv_tokens_at_completion(), usize::MAX);
    }

    #[test]
    fn token_streams_are_deterministic_and_share_exactly_the_right_prefixes() {
        let a = TokenStream::session(7, 4);
        let b = TokenStream::session(7, 4);
        let c = TokenStream::session(8, 4);
        assert_eq!(a.token_ids(16), b.token_ids(16));
        // Same session: identical everywhere. Different session: the
        // system prompt matches, the transcript diverges.
        assert_eq!(a.token_ids(4), c.token_ids(4));
        assert_ne!(a.token_id(4), c.token_id(4));
        // Unique streams share nothing (no system prefix).
        let u = TokenStream::unique(0);
        let v = TokenStream::unique(1);
        assert_ne!(u.token_id(0), v.token_id(0));
        assert_eq!(u.system_tokens, 0);
    }

    #[test]
    fn shared_prefix_chat_turns_extend_their_session_transcript() {
        let spec = SharedPrefixChatSpec::fleet(0.5, 6, 9);
        let trace = spec.generate();
        assert_eq!(trace.len(), spec.requests());
        let again = spec.generate();
        assert_eq!(trace, again, "deterministic");
        // Ids are arrival-ordered.
        for (index, request) in trace.requests().iter().enumerate() {
            assert_eq!(request.id, index);
        }
        // Group turns by session stream; prompts must be strictly growing
        // and each turn's prompt must extend the previous turn's
        // prompt + output by that turn's fresh user tokens.
        let mut by_session: std::collections::HashMap<u64, Vec<&Request>> =
            std::collections::HashMap::new();
        for request in trace.requests() {
            assert_eq!(request.stream.system_tokens, spec.system_prompt_tokens);
            assert!(request.prompt_tokens > spec.system_prompt_tokens);
            by_session
                .entry(request.stream.session)
                .or_default()
                .push(request);
        }
        assert_eq!(by_session.len(), 6);
        for turns in by_session.values_mut() {
            turns.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
            assert_eq!(turns.len(), spec.turns_per_session);
            for pair in turns.windows(2) {
                assert!(pair[1].arrival_s > pair[0].arrival_s);
                assert!(
                    pair[1].prompt_tokens > pair[0].prompt_tokens + pair[0].output_tokens,
                    "a follow-up carries its whole conversation prefix"
                );
            }
        }
        // Two different sessions share the system prompt's token ids.
        let sessions: Vec<u64> = by_session.keys().copied().collect();
        let s0 = TokenStream::session(sessions[0], spec.system_prompt_tokens);
        let s1 = TokenStream::session(sessions[1], spec.system_prompt_tokens);
        assert_eq!(
            s0.token_ids(spec.system_prompt_tokens),
            s1.token_ids(spec.system_prompt_tokens)
        );
    }

    /// The lazy stream must be indistinguishable from the materialized
    /// trace: same requests, same ids, same (sorted) order, bit-identical
    /// floats — including under heavy cross-session interleaving (long
    /// think times push a session's later turns far past the starts of
    /// many following sessions) and arrival ties.
    #[test]
    fn streamed_requests_match_the_materialized_trace_exactly() {
        let interleaved = SharedPrefixChatSpec {
            rate_per_sec: 50.0,
            sessions: 60,
            turns_per_session: 5,
            system_prompt_tokens: 16,
            user_tokens: LengthDistribution::Uniform { min: 1, max: 8 },
            output_tokens: LengthDistribution::Uniform { min: 1, max: 8 },
            think_time_s: 200.0,
            seed: 3,
        };
        for spec in [
            SharedPrefixChatSpec::fleet(2.0, 40, 9),
            SharedPrefixChatSpec::simspeed(300),
            interleaved,
        ] {
            let stream = spec.stream();
            assert_eq!(stream.len(), spec.requests(), "exact size hint");
            let streamed: Vec<Request> = stream.collect();
            assert_eq!(streamed.as_slice(), spec.generate().requests());
        }
    }

    #[test]
    fn cold_sessions_return_after_a_long_idle_gap_with_their_transcript() {
        let spec = ColdSessionSpec::fleet(1.0, 8, 13);
        let trace = spec.generate();
        assert_eq!(trace.len(), spec.requests());
        assert_eq!(trace, spec.generate(), "deterministic");
        for (index, request) in trace.requests().iter().enumerate() {
            assert_eq!(request.id, index, "ids are arrival-ordered");
        }
        let mut by_session: std::collections::HashMap<u64, Vec<&Request>> =
            std::collections::HashMap::new();
        for request in trace.requests() {
            by_session
                .entry(request.stream.session)
                .or_default()
                .push(request);
        }
        assert_eq!(by_session.len(), 8);
        for turns in by_session.values_mut() {
            turns.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
            assert_eq!(turns.len(), spec.first_turns + spec.return_turns);
            // Transcript keeps growing across the gap: the returning turn
            // still carries everything said before the idle.
            for pair in turns.windows(2) {
                assert!(pair[1].prompt_tokens > pair[0].prompt_tokens + pair[0].output_tokens);
            }
            // The gap between the opening burst and the return dwarfs any
            // in-burst think time.
            let gap = turns[spec.first_turns].arrival_s - turns[spec.first_turns - 1].arrival_s;
            assert!(gap >= spec.idle_s, "idle gap {gap:.1}s");
        }
    }

    #[test]
    fn simspeed_trace_is_deterministic_and_bounded() {
        let spec = SharedPrefixChatSpec::simspeed(200);
        assert_eq!(spec.requests(), 400, "two turns per session");
        let trace = spec.generate();
        assert_eq!(trace.len(), 400);
        assert_eq!(trace, spec.generate(), "fixed seed: byte-identical");
        // Bounded per-request work: prompt = 128-token system prompt plus
        // at most two turns of (user ≤ 48) + (reply ≤ 48) transcript.
        for request in trace.requests() {
            assert!(request.prompt_tokens >= spec.system_prompt_tokens);
            assert!(request.prompt_tokens <= 128 + 2 * (48 + 48));
            assert!((16..=48).contains(&request.output_tokens));
        }
        // The offered rate is what the spec says: ~16 sessions/s of
        // arrivals, so 200 sessions span roughly 12.5 simulated seconds.
        assert!(trace.duration_s() > 5.0 && trace.duration_s() < 60.0);
    }

    #[test]
    fn doc_chat_mix_interleaves_classifiable_lanes() {
        let spec = DocChatMixSpec::fleet(4.0, 64, 19);
        assert_eq!(spec.requests(), 72, "64 chats + 8 documents");
        let trace = spec.generate();
        assert_eq!(trace.len(), 72);
        assert_eq!(trace, spec.generate(), "fixed seed: byte-identical");
        let docs = trace
            .requests()
            .iter()
            .filter(|r| spec.is_document(r))
            .count();
        assert_eq!(docs, spec.doc_requests);
        for (index, request) in trace.requests().iter().enumerate() {
            assert_eq!(request.id, index, "ids follow arrival order");
            if spec.is_document(request) {
                assert!((4_096..=12_288).contains(&request.prompt_tokens));
            } else {
                assert!((32..=256).contains(&request.prompt_tokens));
            }
        }
        // Scaling the rate keeps the mix ratio.
        let faster = spec.with_rate(8.0);
        assert!((faster.doc_rate_per_sec - 1.0).abs() < 1e-12);
        assert!(faster.generate().duration_s() < trace.duration_s());
    }
}
