//! Multi-tenant serving: QoS classes with priority admission, the
//! fairness/starvation accounting behind it, and the tenant-shaped
//! workloads (RAG document fleets, agentic tool loops, mixed
//! interactive/batch LoRA traffic).
//!
//! Serving millions of users means heterogeneous traffic, not one chat
//! spec. This module makes requests first-class tenants:
//!
//! * [`QosClass`] labels every [`Request`] Interactive or Batch; both
//!   schedulers admit through the shared [`QosAdmission`] policy —
//!   Interactive first, with an aging rule that force-admits the oldest
//!   waiting Batch request after [`crate::ServingConfig::qos_aging`]
//!   consecutive bypasses, so Batch is delayed but never starved. The
//!   counters land in [`QosStats`] on [`crate::ServingReport`].
//! * [`RagSpec`] generates retrieval traffic: many sessions asking
//!   questions over a handful of large shared documents — the workload
//!   that drives the radix prefix cache far past one system prompt.
//! * [`AgentLoopSpec`] generates tool-call loops: short decodes
//!   interleaved with re-prefills of a transcript that grows by every
//!   tool result — the incremental-prefix pattern where cached re-prefill
//!   beats recompute.
//! * [`MultiTenantSpec`] merges an Interactive LoRA-chat lane with a Batch
//!   long-job lane over many tenants' adapters — the headline trace of
//!   the `bench_multitenant` experiment.
//!
//! A trace whose requests all carry the default class (and the default
//! [`AdapterId::BASE`]) admits in exact FIFO order: [`QosAdmission::pick`]
//! degenerates to "take the queue head", so single-class runs are
//! bit-identical to their pre-tenant behavior.

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::lora::AdapterId;
use crate::workload::{
    exponential_gap, splitmix64, ArrivalProcess, LengthDistribution, Request, RequestTrace,
    TokenStream, WorkloadError,
};

/// The service class of one request: which SLO it is sold under, and how
/// admission prioritizes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QosClass {
    /// Latency-sensitive traffic (chat, RAG answers): admitted first. The
    /// `Default`, so unlabeled traces behave exactly as before.
    #[default]
    Interactive,
    /// Throughput traffic (offline jobs, evals): admitted when no
    /// Interactive request waits, plus the aging guarantee.
    Batch,
}

impl std::fmt::Display for QosClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QosClass::Interactive => write!(f, "interactive"),
            QosClass::Batch => write!(f, "batch"),
        }
    }
}

/// Per-class admission and fairness counters of one serving run, reported
/// in [`crate::ServingReport`]. Every field is an exact count, computed
/// identically by the event cores and the reference loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QosStats {
    /// Interactive requests admitted.
    pub interactive_admitted: usize,
    /// Batch requests admitted.
    pub batch_admitted: usize,
    /// Interactive requests rejected (footprint over budget).
    pub interactive_rejected: usize,
    /// Batch requests rejected.
    pub batch_rejected: usize,
    /// Interactive admissions that jumped past an earlier-queued Batch
    /// request (the priority in action).
    pub interactive_bypasses: usize,
    /// Batch admissions forced by the aging rule after a full run of
    /// consecutive bypasses.
    pub aging_promotions: usize,
    /// Longest run of consecutive bypasses endured by a waiting Batch
    /// request — the starvation bound. Never exceeds the configured
    /// [`crate::ServingConfig::qos_aging`] threshold.
    pub peak_interactive_run: usize,
}

impl QosStats {
    /// Admissions across both classes.
    #[must_use]
    pub fn admitted(&self) -> usize {
        self.interactive_admitted + self.batch_admitted
    }
}

/// One admission candidate chosen by [`QosAdmission::pick`]: where it sits
/// in the queue and why it was chosen (plain FIFO, a priority bypass, or
/// an aging promotion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QosPick {
    /// Position of the candidate in the scheduler's wait queue.
    pub position: usize,
    /// The candidate is a Batch request force-admitted by the aging rule.
    pub aged: bool,
    /// The candidate is an Interactive request jumping past an
    /// earlier-queued Batch request.
    pub bypassed: bool,
}

/// The deterministic QoS admission policy, shared verbatim by
/// [`crate::scheduler`]'s event cores and the test-only reference loops so
/// their reports stay bit-identical.
///
/// Selection rule, applied per admission attempt:
///
/// 1. No Interactive request waiting → the queue's front-most Batch
///    request (plain FIFO).
/// 2. Interactive waiting, and fewer than `aging` consecutive bypasses
///    have accumulated → the front-most Interactive request. If an
///    earlier-queued Batch request waits, that admission counts as a
///    bypass.
/// 3. Interactive waiting, but the bypass run has reached `aging` → the
///    front-most Batch request (an aging promotion), resetting the run.
///
/// A single-class queue always selects position 0, so the policy is
/// invisible on unlabeled traces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QosAdmission {
    consecutive_bypasses: usize,
    stats: QosStats,
}

impl QosAdmission {
    /// A fresh policy with zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        QosAdmission::default()
    }

    /// Chooses the next admission candidate from the queued classes (in
    /// queue order). Pure: counters move only when the caller commits the
    /// admission via [`QosAdmission::record_admit`] — a candidate that
    /// stalls on the KV budget must not advance the aging clock.
    pub fn pick<I: Iterator<Item = QosClass>>(&self, classes: I, aging: usize) -> Option<QosPick> {
        let aged_due = self.consecutive_bypasses >= aging.max(1);
        let mut first_interactive = None;
        let mut first_batch = None;
        for (position, class) in classes.enumerate() {
            match class {
                QosClass::Interactive if first_interactive.is_none() => {
                    first_interactive = Some(position);
                    // No earlier-queued Batch and the aging clock idle:
                    // nothing later in the queue can change the outcome
                    // (a later Batch is neither bypassed nor promotable),
                    // so stop scanning. This keeps single-class queues
                    // O(1) per pick — the pre-tenant front-of-queue cost —
                    // instead of O(queue).
                    if first_batch.is_none() && !aged_due {
                        break;
                    }
                }
                QosClass::Batch if first_batch.is_none() => first_batch = Some(position),
                _ => {}
            }
            if first_interactive.is_some() && first_batch.is_some() {
                break;
            }
        }
        match (first_interactive, first_batch) {
            (None, None) => None,
            (Some(position), None) | (None, Some(position)) => Some(QosPick {
                position,
                aged: false,
                bypassed: false,
            }),
            (Some(interactive), Some(batch)) => {
                if aged_due {
                    Some(QosPick {
                        position: batch,
                        aged: true,
                        bypassed: false,
                    })
                } else {
                    Some(QosPick {
                        position: interactive,
                        aged: false,
                        // Only jumping past an *earlier-queued* Batch
                        // request is a bypass; admitting ahead of one that
                        // arrived later is plain FIFO.
                        bypassed: batch < interactive,
                    })
                }
            }
        }
    }

    /// Commits the admission of a picked candidate, updating the per-class
    /// counters and the aging clock.
    pub fn record_admit(&mut self, class: QosClass, pick: QosPick) {
        match class {
            QosClass::Interactive => {
                self.stats.interactive_admitted += 1;
                if pick.bypassed {
                    self.consecutive_bypasses += 1;
                    self.stats.interactive_bypasses += 1;
                    self.stats.peak_interactive_run = self
                        .stats
                        .peak_interactive_run
                        .max(self.consecutive_bypasses);
                }
            }
            QosClass::Batch => {
                self.stats.batch_admitted += 1;
                if pick.aged {
                    self.stats.aging_promotions += 1;
                }
                self.consecutive_bypasses = 0;
            }
        }
    }

    /// Records the rejection of a picked candidate (footprint over budget).
    /// Rejections do not advance the aging clock.
    pub fn record_reject(&mut self, class: QosClass) {
        match class {
            QosClass::Interactive => self.stats.interactive_rejected += 1,
            QosClass::Batch => self.stats.batch_rejected += 1,
        }
    }

    /// Snapshot of the counters.
    #[must_use]
    pub fn stats(&self) -> QosStats {
        self.stats
    }
}

/// Salt deriving per-document token streams in [`RagSpec`].
const DOCUMENT_SALT: u64 = 0x5241_475f_444f_4331; // "RAG_DOC1"

/// Salt deriving per-session agent streams in [`AgentLoopSpec`].
const AGENT_SALT: u64 = 0x4147_454e_545f_4c50; // "AGENT_LP"

/// Salts separating the two lanes of [`MultiTenantSpec`].
const INTERACTIVE_LANE_SALT: u64 = 0x7e4a_17;
const BATCH_LANE_SALT: u64 = 0xba7c_4;

/// A retrieval-augmented-generation workload: `documents` large shared
/// documents, each queried by many independent sessions. Every request's
/// prompt is one whole document plus a short fresh question, so sessions
/// of the same document share a multi-thousand-token token-id prefix —
/// the traffic that pushes the radix prefix cache far past one system
/// prompt (many deep branches, one per document), while a reserve-up-front
/// scheduler re-prefills the document every single time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RagSpec {
    /// Aggregate question arrival rate, requests per second.
    pub rate_per_sec: f64,
    /// Distinct documents in the corpus.
    pub documents: usize,
    /// Question sessions per document.
    pub sessions_per_document: usize,
    /// Tokens of each document (the shared prefix).
    pub document_tokens: usize,
    /// Length of each fresh question appended to its document.
    pub question_tokens: LengthDistribution,
    /// Length of each generated answer.
    pub output_tokens: LengthDistribution,
    /// Service class of the questions.
    pub qos: QosClass,
    /// RNG seed: the same spec always generates the same trace.
    pub seed: u64,
}

impl RagSpec {
    /// A RAG fleet: 4096-token documents, eight sessions per document,
    /// short questions, mid-length grounded answers, Interactive class.
    #[must_use]
    pub fn fleet(rate_per_sec: f64, documents: usize, seed: u64) -> Self {
        RagSpec {
            rate_per_sec,
            documents,
            sessions_per_document: 8,
            document_tokens: 4_096,
            question_tokens: LengthDistribution::Uniform { min: 16, max: 64 },
            output_tokens: LengthDistribution::Uniform { min: 32, max: 128 },
            qos: QosClass::Interactive,
            seed,
        }
    }

    /// The same corpus queried at a different rate (the capacity knob).
    #[must_use]
    pub fn with_rate(self, rate_per_sec: f64) -> Self {
        RagSpec {
            rate_per_sec,
            ..self
        }
    }

    /// Requests the generated trace will contain.
    #[must_use]
    pub fn requests(&self) -> usize {
        self.documents * self.sessions_per_document
    }

    /// Generates the replayable trace, or a clear error for a spec that
    /// could never generate one (non-positive rate, empty corpus).
    ///
    /// # Errors
    ///
    /// [`WorkloadError::InvalidRate`] for a zero/negative/non-finite rate;
    /// [`WorkloadError::EmptySpec`] when `documents` or
    /// `sessions_per_document` is zero.
    pub fn try_generate(&self) -> Result<RequestTrace, WorkloadError> {
        ArrivalProcess::Poisson {
            rate_per_sec: self.rate_per_sec,
        }
        .validated()?;
        if self.documents == 0 || self.sessions_per_document == 0 {
            return Err(WorkloadError::EmptySpec(
                "a RAG spec needs at least one document and one session per document",
            ));
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut requests = Vec::with_capacity(self.requests());
        let mut t = 0.0f64;
        for session in 0..self.requests() {
            // Round-robin over the corpus: consecutive arrivals hit
            // different documents, so the radix tree's branches interleave
            // instead of warming one document at a time.
            let document = session % self.documents;
            t += exponential_gap(rng.gen(), self.rate_per_sec);
            let question = self.question_tokens.sample(&mut rng);
            let output = self.output_tokens.sample(&mut rng);
            requests.push(Request {
                id: 0, // assigned in arrival order below
                arrival_s: t,
                prompt_tokens: self.document_tokens + question,
                output_tokens: output,
                stream: TokenStream::document(
                    splitmix64(self.seed ^ DOCUMENT_SALT ^ splitmix64(document as u64)),
                    splitmix64(self.seed ^ splitmix64(session as u64)),
                    self.document_tokens,
                ),
                qos: self.qos,
                adapter: AdapterId::BASE,
            });
        }
        let mut trace = RequestTrace::new(requests);
        for (index, request) in trace.requests_mut().iter_mut().enumerate() {
            request.id = index;
        }
        Ok(trace)
    }

    /// Generates the replayable trace this spec describes.
    ///
    /// # Panics
    ///
    /// Panics where [`RagSpec::try_generate`] errors.
    #[must_use]
    pub fn generate(&self) -> RequestTrace {
        match self.try_generate() {
            Ok(trace) => trace,
            Err(error) => panic!("{error}"),
        }
    }
}

/// An agentic tool-loop workload: every session is an agent alternating
/// short decodes (tool calls) with re-prefills of a transcript that grows
/// by each call's output *and* its tool result. All sessions share a
/// `system_tokens` scaffold prompt; within a session, iteration `k+1`'s
/// prompt extends iteration `k`'s prompt + output + tool result in the
/// session's [`TokenStream`], so a radix-cached server re-prefills only
/// the fresh suffix while a reserve-up-front server replays the whole
/// transcript every hop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentLoopSpec {
    /// Session (agent run) arrival rate, sessions per second.
    pub rate_per_sec: f64,
    /// Number of agent runs.
    pub sessions: usize,
    /// Tool calls per run; each run ends with one final answer on top.
    pub tool_calls: usize,
    /// Scaffold-prompt tokens shared by every run.
    pub system_tokens: usize,
    /// Length of each run's initial task description.
    pub task_tokens: LengthDistribution,
    /// Length of each tool's returned result (appended to the transcript).
    pub tool_result_tokens: LengthDistribution,
    /// Length of each emitted tool call (a short decode).
    pub tool_call_tokens: LengthDistribution,
    /// Length of the final answer.
    pub final_tokens: LengthDistribution,
    /// Mean tool execution latency between a call and the follow-up
    /// request (an exponential gap).
    pub tool_latency_s: f64,
    /// Service class of the runs.
    pub qos: QosClass,
    /// RNG seed: the same spec always generates the same trace.
    pub seed: u64,
}

impl AgentLoopSpec {
    /// An agent fleet: three tool calls per run over a 256-token scaffold,
    /// short calls, mid-length results, ~1.5 s tools.
    #[must_use]
    pub fn fleet(rate_per_sec: f64, sessions: usize, seed: u64) -> Self {
        AgentLoopSpec {
            rate_per_sec,
            sessions,
            tool_calls: 3,
            system_tokens: 256,
            task_tokens: LengthDistribution::Uniform { min: 32, max: 128 },
            tool_result_tokens: LengthDistribution::Uniform { min: 64, max: 256 },
            tool_call_tokens: LengthDistribution::Uniform { min: 8, max: 24 },
            final_tokens: LengthDistribution::Uniform { min: 64, max: 192 },
            tool_latency_s: 1.5,
            qos: QosClass::Interactive,
            seed,
        }
    }

    /// The same runs offered at a different rate (the capacity knob).
    #[must_use]
    pub fn with_rate(self, rate_per_sec: f64) -> Self {
        AgentLoopSpec {
            rate_per_sec,
            ..self
        }
    }

    /// Requests the generated trace will contain (`tool_calls` hops plus
    /// the final answer, per session).
    #[must_use]
    pub fn requests(&self) -> usize {
        self.sessions * (self.tool_calls + 1)
    }

    /// Generates the replayable trace, or a clear error for a spec that
    /// could never generate one.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::InvalidRate`] for a zero/negative/non-finite rate;
    /// [`WorkloadError::EmptySpec`] when `sessions` is zero.
    pub fn try_generate(&self) -> Result<RequestTrace, WorkloadError> {
        ArrivalProcess::Poisson {
            rate_per_sec: self.rate_per_sec,
        }
        .validated()?;
        if self.sessions == 0 {
            return Err(WorkloadError::EmptySpec(
                "an agent-loop spec needs at least one session",
            ));
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut requests = Vec::with_capacity(self.requests());
        let mut session_start = 0.0f64;
        let tool_rate = 1.0 / self.tool_latency_s.max(1e-6);
        for session in 0..self.sessions {
            session_start += exponential_gap(rng.gen(), self.rate_per_sec);
            let stream = TokenStream::session(
                splitmix64(self.seed ^ AGENT_SALT ^ splitmix64(session as u64)),
                self.system_tokens,
            );
            let mut transcript = self.system_tokens + self.task_tokens.sample(&mut rng);
            let mut arrival = session_start;
            for hop in 0..=self.tool_calls {
                let last = hop == self.tool_calls;
                let output = if last {
                    self.final_tokens.sample(&mut rng)
                } else {
                    self.tool_call_tokens.sample(&mut rng)
                };
                requests.push(Request {
                    id: 0, // assigned in arrival order below
                    arrival_s: arrival,
                    prompt_tokens: transcript,
                    output_tokens: output,
                    stream,
                    qos: self.qos,
                    adapter: AdapterId::BASE,
                });
                transcript += output;
                if !last {
                    // The tool runs, its result joins the transcript, and
                    // the next hop re-prefills the grown prefix (a decode
                    // allowance keeps open-loop hops mostly ordered).
                    transcript += self.tool_result_tokens.sample(&mut rng);
                    arrival += exponential_gap(rng.gen(), tool_rate) + output as f64 * 0.06;
                }
            }
        }
        let mut trace = RequestTrace::new(requests);
        for (index, request) in trace.requests_mut().iter_mut().enumerate() {
            request.id = index;
        }
        Ok(trace)
    }

    /// Generates the replayable trace this spec describes.
    ///
    /// # Panics
    ///
    /// Panics where [`AgentLoopSpec::try_generate`] errors.
    #[must_use]
    pub fn generate(&self) -> RequestTrace {
        match self.try_generate() {
            Ok(trace) => trace,
            Err(error) => panic!("{error}"),
        }
    }
}

/// A mixed multi-tenant workload: an Interactive LoRA-chat lane and a
/// Batch long-job lane share one server, each request pinned to one of
/// `tenants` per-tenant adapters. The headline trace of the
/// `bench_multitenant` experiment: priority admission must hold the
/// Interactive lane's SLO under the Batch backlog without starving it,
/// while the adapter cache absorbs the tenant churn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiTenantSpec {
    /// Interactive-lane arrival rate, requests per second.
    pub interactive_rate_per_sec: f64,
    /// Batch-lane arrival rate, requests per second.
    pub batch_rate_per_sec: f64,
    /// Number of Interactive requests.
    pub interactive_requests: usize,
    /// Number of Batch requests.
    pub batch_requests: usize,
    /// Distinct tenants (LoRA adapters) across both lanes; 0 serves
    /// everything on the base model.
    pub tenants: usize,
    /// Interactive prompt lengths (chat-shaped).
    pub interactive_prompt_tokens: LengthDistribution,
    /// Interactive reply lengths (decode-heavy).
    pub interactive_output_tokens: LengthDistribution,
    /// Batch prompt lengths (long jobs).
    pub batch_prompt_tokens: LengthDistribution,
    /// Batch output lengths.
    pub batch_output_tokens: LengthDistribution,
    /// RNG seed: the same spec always generates the same trace.
    pub seed: u64,
}

impl MultiTenantSpec {
    /// The headline mix: one Batch job for every ~4 Interactive chats,
    /// twelve tenant adapters round the traffic.
    #[must_use]
    pub fn fleet(interactive_rate_per_sec: f64, interactive_requests: usize, seed: u64) -> Self {
        MultiTenantSpec {
            interactive_rate_per_sec,
            batch_rate_per_sec: interactive_rate_per_sec / 4.0,
            interactive_requests,
            batch_requests: (interactive_requests / 4).max(1),
            tenants: 12,
            interactive_prompt_tokens: LengthDistribution::Uniform { min: 32, max: 256 },
            interactive_output_tokens: LengthDistribution::Uniform { min: 48, max: 160 },
            batch_prompt_tokens: LengthDistribution::Uniform {
                min: 512,
                max: 2_048,
            },
            batch_output_tokens: LengthDistribution::Uniform { min: 128, max: 384 },
            seed,
        }
    }

    /// The same mix offered at a different Interactive rate, Batch traffic
    /// scaled proportionally (the capacity-search knob).
    #[must_use]
    pub fn with_rate(self, interactive_rate_per_sec: f64) -> Self {
        let scale = interactive_rate_per_sec / self.interactive_rate_per_sec;
        MultiTenantSpec {
            interactive_rate_per_sec,
            batch_rate_per_sec: self.batch_rate_per_sec * scale,
            ..self
        }
    }

    /// Requests the generated trace will contain.
    #[must_use]
    pub fn requests(&self) -> usize {
        self.interactive_requests + self.batch_requests
    }

    /// Generates the replayable trace: both Poisson lanes drawn from
    /// seeded RNGs, merged in arrival order with ids reassigned and every
    /// request pinned to its tenant's adapter.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::InvalidRate`] when a lane with requests has a
    /// zero/negative/non-finite rate; [`WorkloadError::EmptySpec`] when
    /// both lanes are empty.
    pub fn try_generate(&self) -> Result<RequestTrace, WorkloadError> {
        if self.requests() == 0 {
            return Err(WorkloadError::EmptySpec(
                "a multi-tenant spec needs at least one request in some lane",
            ));
        }
        let mut requests = Vec::with_capacity(self.requests());
        let mut lane = |count: usize,
                        rate: f64,
                        prompts: LengthDistribution,
                        outputs: LengthDistribution,
                        qos: QosClass,
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
                let prompt = prompts.sample(&mut rng);
                let output = outputs.sample(&mut rng);
                let adapter = if self.tenants == 0 {
                    AdapterId::BASE
                } else {
                    AdapterId(1 + rng.gen_range(0..self.tenants) as u32)
                };
                requests.push(Request {
                    id: 0, // assigned in arrival order below
                    arrival_s: t,
                    prompt_tokens: prompt,
                    output_tokens: output,
                    stream: TokenStream::unique(0),
                    qos,
                    adapter,
                });
            }
            Ok(())
        };
        lane(
            self.interactive_requests,
            self.interactive_rate_per_sec,
            self.interactive_prompt_tokens,
            self.interactive_output_tokens,
            QosClass::Interactive,
            INTERACTIVE_LANE_SALT,
        )?;
        lane(
            self.batch_requests,
            self.batch_rate_per_sec,
            self.batch_prompt_tokens,
            self.batch_output_tokens,
            QosClass::Batch,
            BATCH_LANE_SALT,
        )?;
        let mut trace = RequestTrace::new(requests);
        for (index, request) in trace.requests_mut().iter_mut().enumerate() {
            request.id = index;
            request.stream = TokenStream::unique(index);
        }
        Ok(trace)
    }

    /// Generates the replayable trace this spec describes.
    ///
    /// # Panics
    ///
    /// Panics where [`MultiTenantSpec::try_generate`] errors.
    #[must_use]
    pub fn generate(&self) -> RequestTrace {
        match self.try_generate() {
            Ok(trace) => trace,
            Err(error) => panic!("{error}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classes(spec: &[QosClass]) -> impl Iterator<Item = QosClass> + '_ {
        spec.iter().copied()
    }

    #[test]
    fn single_class_queues_pick_the_front() {
        let policy = QosAdmission::new();
        let all_interactive = [QosClass::Interactive; 3];
        let all_batch = [QosClass::Batch; 3];
        for queue in [&all_interactive[..], &all_batch[..]] {
            let pick = policy.pick(classes(queue), 8).expect("non-empty");
            assert_eq!(pick.position, 0, "FIFO on single-class queues");
            assert!(!pick.aged && !pick.bypassed);
        }
        assert_eq!(policy.pick(classes(&[]), 8), None);
    }

    #[test]
    fn interactive_jumps_waiting_batch_until_aging_promotes_it() {
        let mut policy = QosAdmission::new();
        // Batch at the front, Interactive behind: priority selects the
        // Interactive and counts a bypass — until the third attempt.
        let queue = [QosClass::Batch, QosClass::Interactive];
        for round in 0..2 {
            let pick = policy.pick(classes(&queue), 2).expect("non-empty");
            assert_eq!(pick.position, 1, "round {round}");
            assert!(pick.bypassed && !pick.aged);
            policy.record_admit(QosClass::Interactive, pick);
        }
        let promoted = policy.pick(classes(&queue), 2).expect("non-empty");
        assert_eq!(promoted.position, 0, "aging promotes the waiting Batch");
        assert!(promoted.aged && !promoted.bypassed);
        policy.record_admit(QosClass::Batch, promoted);
        let stats = policy.stats();
        assert_eq!(stats.interactive_bypasses, 2);
        assert_eq!(stats.aging_promotions, 1);
        assert_eq!(stats.peak_interactive_run, 2);
        assert_eq!(stats.admitted(), 3);
        // The clock reset: the next mixed pick is a bypass again.
        let pick = policy.pick(classes(&queue), 2).expect("non-empty");
        assert!(pick.bypassed);
    }

    #[test]
    fn fifo_order_between_classes_is_not_a_bypass() {
        let mut policy = QosAdmission::new();
        // Interactive queued *before* the Batch: admitting it is FIFO.
        let queue = [QosClass::Interactive, QosClass::Batch];
        let pick = policy.pick(classes(&queue), 1).expect("non-empty");
        assert_eq!(pick.position, 0);
        assert!(!pick.bypassed, "no earlier-queued Batch was jumped");
        policy.record_admit(QosClass::Interactive, pick);
        assert_eq!(policy.stats().interactive_bypasses, 0);
        assert_eq!(policy.stats().peak_interactive_run, 0);
    }

    #[test]
    fn rejections_count_per_class_without_advancing_the_aging_clock() {
        let mut policy = QosAdmission::new();
        policy.record_reject(QosClass::Interactive);
        policy.record_reject(QosClass::Batch);
        policy.record_reject(QosClass::Batch);
        let stats = policy.stats();
        assert_eq!(stats.interactive_rejected, 1);
        assert_eq!(stats.batch_rejected, 2);
        assert_eq!(stats.interactive_bypasses, 0);
    }

    #[test]
    fn rag_sessions_share_their_document_and_only_their_document() {
        let spec = RagSpec::fleet(4.0, 3, 17);
        let trace = spec.generate();
        assert_eq!(trace.len(), spec.requests());
        assert_eq!(trace, spec.generate(), "deterministic");
        for (index, request) in trace.requests().iter().enumerate() {
            assert_eq!(request.id, index, "ids follow arrival order");
            assert!(request.prompt_tokens > spec.document_tokens);
            assert_eq!(request.qos, QosClass::Interactive);
            assert!(request.adapter.is_base());
        }
        // Group sessions by shared document stream: every document gets
        // its sessions, and two sessions of the same document share the
        // document's token ids while different documents share none.
        let mut by_document: std::collections::HashMap<u64, Vec<&Request>> =
            std::collections::HashMap::new();
        for request in trace.requests() {
            by_document
                .entry(request.stream.shared)
                .or_default()
                .push(request);
        }
        assert_eq!(by_document.len(), spec.documents);
        let documents: Vec<&Vec<&Request>> = by_document.values().collect();
        for sessions in &documents {
            assert_eq!(sessions.len(), spec.sessions_per_document);
            let ids: Vec<Vec<u64>> = sessions
                .iter()
                .map(|r| r.stream.token_ids(spec.document_tokens))
                .collect();
            assert!(ids.windows(2).all(|w| w[0] == w[1]), "document shared");
            // Questions diverge: past the document, sessions differ.
            assert_ne!(
                sessions[0].stream.token_id(spec.document_tokens),
                sessions[1].stream.token_id(spec.document_tokens)
            );
        }
        assert_ne!(
            documents[0][0].stream.token_id(0),
            documents[1][0].stream.token_id(0),
            "different documents share nothing"
        );
    }

    #[test]
    fn agent_loops_regrow_their_transcript_every_hop() {
        let spec = AgentLoopSpec::fleet(1.0, 5, 23);
        let trace = spec.generate();
        assert_eq!(trace.len(), spec.requests());
        assert_eq!(trace, spec.generate(), "deterministic");
        let mut by_session: std::collections::HashMap<u64, Vec<&Request>> =
            std::collections::HashMap::new();
        for request in trace.requests() {
            assert_eq!(request.stream.system_tokens, spec.system_tokens);
            by_session
                .entry(request.stream.session)
                .or_default()
                .push(request);
        }
        assert_eq!(by_session.len(), 5);
        for hops in by_session.values_mut() {
            hops.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
            assert_eq!(hops.len(), spec.tool_calls + 1);
            for pair in hops.windows(2) {
                assert!(pair[1].arrival_s > pair[0].arrival_s);
                // The next hop carries the previous prompt + its output
                // *and* the tool result on top.
                assert!(
                    pair[1].prompt_tokens > pair[0].prompt_tokens + pair[0].output_tokens,
                    "transcript grows past prompt + output"
                );
            }
        }
    }

    #[test]
    fn multi_tenant_lanes_carry_their_class_and_a_tenant_adapter() {
        let spec = MultiTenantSpec::fleet(4.0, 40, 29);
        assert_eq!(spec.requests(), 50, "40 interactive + 10 batch");
        let trace = spec.generate();
        assert_eq!(trace.len(), 50);
        assert_eq!(trace, spec.generate(), "deterministic");
        let batch = trace
            .requests()
            .iter()
            .filter(|r| r.qos == QosClass::Batch)
            .count();
        assert_eq!(batch, spec.batch_requests);
        let mut tenants_seen = std::collections::HashSet::new();
        for (index, request) in trace.requests().iter().enumerate() {
            assert_eq!(request.id, index, "ids follow arrival order");
            assert!(!request.adapter.is_base(), "every request has a tenant");
            assert!((request.adapter.0 as usize) <= spec.tenants);
            tenants_seen.insert(request.adapter);
            if request.qos == QosClass::Batch {
                assert!((512..=2_048).contains(&request.prompt_tokens));
            } else {
                assert!((32..=256).contains(&request.prompt_tokens));
            }
        }
        assert!(tenants_seen.len() > 1, "the tenant mix is real");
        // Rate scaling keeps the lane ratio.
        let faster = spec.with_rate(8.0);
        assert!((faster.batch_rate_per_sec - 2.0).abs() < 1e-12);
        // Zero tenants serve the base model.
        let base_only = MultiTenantSpec { tenants: 0, ..spec };
        assert!(base_only
            .generate()
            .requests()
            .iter()
            .all(|r| r.adapter.is_base()));
    }

    #[test]
    fn invalid_tenant_specs_error_instead_of_hanging() {
        assert!(matches!(
            RagSpec::fleet(0.0, 3, 1).try_generate(),
            Err(WorkloadError::InvalidRate(_))
        ));
        assert!(matches!(
            RagSpec::fleet(2.0, 0, 1).try_generate(),
            Err(WorkloadError::EmptySpec(_))
        ));
        assert!(matches!(
            AgentLoopSpec::fleet(-1.0, 5, 1).try_generate(),
            Err(WorkloadError::InvalidRate(_))
        ));
        assert!(matches!(
            AgentLoopSpec::fleet(1.0, 0, 1).try_generate(),
            Err(WorkloadError::EmptySpec(_))
        ));
        let mut empty = MultiTenantSpec::fleet(4.0, 4, 1);
        empty.interactive_requests = 0;
        empty.batch_requests = 0;
        assert!(matches!(
            empty.try_generate(),
            Err(WorkloadError::EmptySpec(_))
        ));
        let mut bad_rate = MultiTenantSpec::fleet(4.0, 4, 1);
        bad_rate.batch_rate_per_sec = f64::NAN;
        assert!(matches!(
            bad_rate.try_generate(),
            Err(WorkloadError::InvalidRate(_))
        ));
    }
}
