//! # lad-serve — continuous-batching serving engine
//!
//! The paper's GPU baseline (Sec. V-A) assumes a vLLM-style serving loop:
//! paged KV blocks, dynamic admission, preemption. This crate builds that
//! loop on top of the repo's step-synchronous batched GEMM engine
//! ([`lad_model::BatchSession`]):
//!
//! * a **FIFO request queue** with per-request prompt, `max_tokens`,
//!   arrival step and optional latency deadline;
//! * **per-step admission**: requests join mid-flight whenever the paged
//!   [`lad_accel::paged::BlockPool`] can reserve their prompt blocks and a
//!   batch slot is free — dynamic membership, with samples joining *and*
//!   leaving the [`lad_model::BatchSession`] at any global step;
//! * **chunked prefill** interleaved with decode: decode-phase requests
//!   advance one token per engine tick, while prefilling requests consume
//!   up to `prefill_chunk` prompt tokens per tick as one multi-row run in
//!   the tick's single step, so every tick streams the weights once;
//! * **retirement** on EOS or `max_tokens`, returning exactly the
//!   request's KV blocks to the pool;
//! * **recompute preemption**: on pool exhaustion the youngest active
//!   request is evicted (KV dropped, blocks freed) and re-queued with its
//!   generated prefix folded into the prompt — greedy decoding is
//!   deterministic, so the re-decoded stream continues bit-identically.
//!
//! Every phase is instrumented with `lad-obs` spans (`serve.admit`,
//! `serve.prefill_chunk`, `serve.decode_step`, `serve.retire`,
//! `serve.preempt`). Each [`RequestOutcome`] carries its time to first
//! token and end-to-end latency, which the engine also records into the
//! `serve.ttft_ns` / `serve.e2e_ns` metric histograms.
//!
//! Correctness is pinned the repo's usual way: `tests/serving.rs` proves
//! every request's token stream under continuous batching — across
//! staggered joins, mid-flight retirement and forced preemption — is
//! bit-identical to its solo [`lad_model::Session`] decode.
//!
//! [`Engine`] is the crate's one serving loop. Its end-to-end measurement
//! is the serving ledger under `benchmark/`: the `chat_short` (request
//! churn) and `mixed_pressure` (pool pressure, speculation, eviction)
//! workloads report tokens/s, TTFT and TPOT percentiles.

pub mod engine;

pub use engine::Engine;

use lad_model::spec::SpecConfig;
use lad_model::AttentionKind;
use std::time::{Duration, Instant};

/// One serving request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Caller-chosen request id, echoed in the [`RequestOutcome`].
    pub id: u64,
    /// Prompt tokens (must be non-empty).
    pub prompt: Vec<u32>,
    /// Maximum tokens to generate (must be at least 1); generation also
    /// stops at the configured EOS token.
    pub max_tokens: usize,
    /// Engine step at which the request arrives. Arrival is simulated in
    /// deterministic global steps so schedules are reproducible; latency
    /// metrics are wall-clock from the moment the arrival step begins.
    pub arrival_step: usize,
    /// End-to-end latency deadline (`None` = no deadline; the request
    /// always meets it). Sets [`RequestOutcome::met_deadline`], and a miss
    /// trips the SLO flight recorder.
    pub deadline: Option<Duration>,
    /// Opt-in speculative decoding for this request (`None` = plain
    /// one-token-per-tick decode). Speculative and plain requests coexist
    /// in one tick; speculation commits only greedy-verified tokens, so the
    /// output stream is bit-identical either way.
    pub spec: Option<SpecConfig>,
    /// Attention backend for this request (`None` = the engine's default).
    /// Requests with different backends — exact, LAD, top-k, H2O — coexist
    /// in one engine tick; each sample's heads are built with its own kind
    /// at admission, and preemption replays through the same kind.
    pub backend: Option<AttentionKind>,
}

impl Request {
    /// A request arriving at step 0 with no deadline.
    pub fn new(id: u64, prompt: Vec<u32>, max_tokens: usize) -> Request {
        Request {
            id,
            prompt,
            max_tokens,
            arrival_step: 0,
            deadline: None,
            spec: None,
            backend: None,
        }
    }

    /// Same request arriving at `step`.
    pub fn arriving_at(mut self, step: usize) -> Request {
        self.arrival_step = step;
        self
    }

    /// Same request with an end-to-end deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Request {
        self.deadline = Some(deadline);
        self
    }

    /// Same request decoded speculatively: each tick a training-free
    /// drafter proposes up to `cfg.k` tokens, the batch verifies them in
    /// one multi-row forward, and the greedy-matching prefix commits.
    pub fn with_speculation(mut self, cfg: SpecConfig) -> Request {
        self.spec = Some(cfg);
        self
    }

    /// Same request decoded with a specific attention backend instead of
    /// the engine default.
    pub fn with_backend(mut self, kind: AttentionKind) -> Request {
        self.backend = Some(kind);
        self
    }
}

/// Scheduler policy knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Batch budget: maximum simultaneously active requests (sample slots).
    pub max_active: usize,
    /// Prompt tokens a prefilling request may consume per engine tick, fed
    /// as one multi-row run in the tick's single step alongside every
    /// decode row. `1` disables chunking — prefill advances one prompt
    /// token per tick, in lockstep with decode.
    pub prefill_chunk: usize,
    /// Token that terminates generation early (`None` = decode to
    /// `max_tokens` always). The EOS token is included in the output.
    pub eos: Option<u32>,
    /// Fan-out width handed to the underlying [`lad_model::BatchSession`].
    pub parallelism: usize,
    /// Flight-recorder trip wire: a request preempted **more** than this
    /// many times raises a [`IncidentReason::PreemptionStorm`] incident (a
    /// deadline miss always raises [`IncidentReason::DeadlineMiss`]).
    pub incident_max_preemptions: usize,
    /// Timeline events captured per incident: the last `K` events of the
    /// offending request still resident in the global timeline ring.
    pub incident_last_k: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_active: 8,
            prefill_chunk: 4,
            eos: None,
            parallelism: 1,
            incident_max_preemptions: 4,
            incident_last_k: 32,
        }
    }
}

/// Why the SLO flight recorder captured an [`Incident`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentReason {
    /// The request retired after its end-to-end deadline.
    DeadlineMiss,
    /// The request was preempted more than
    /// [`ServeConfig::incident_max_preemptions`] times.
    PreemptionStorm,
}

impl IncidentReason {
    /// Stable snake_case code used in the JSON export.
    pub fn code(&self) -> &'static str {
        match self {
            IncidentReason::DeadlineMiss => "deadline_miss",
            IncidentReason::PreemptionStorm => "preemption_storm",
        }
    }
}

/// One SLO flight-recorder capture: the moment a request missed its
/// deadline or crossed the preemption-storm threshold, the engine snapshots
/// the request's last-K timeline events plus a full metrics snapshot so the
/// violation can be diagnosed offline without re-running the workload.
///
/// Captures are best-effort observability: when the timeline recorder is
/// disabled `events` is empty, and when the metrics registry is disabled the
/// snapshot holds only the builtin drop counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// Offending request id.
    pub request: u64,
    /// What tripped the recorder.
    pub reason: IncidentReason,
    /// Engine tick at capture time.
    pub step: usize,
    /// The request's preemption count at capture time.
    pub preemptions: usize,
    /// Last-K timeline events of the request (oldest first), as still
    /// resident in the global ring at capture time.
    pub events: Vec<lad_obs::timeline::TimelineEvent>,
    /// Full metrics snapshot at capture time.
    pub metrics: lad_obs::metrics::MetricsSnapshot,
}

/// Serialises incidents as a JSON document (`{"incidents": [...]}`), each
/// with its reason code, timeline events and metrics snapshot — written
/// alongside the Perfetto trace by `examples/serve_trace.rs`.
pub fn incidents_json(incidents: &[Incident]) -> String {
    let mut out = String::from("{\"incidents\":[");
    for (i, inc) in incidents.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"request\":{},\"reason\":\"{}\",\"step\":{},\"preemptions\":{},\"events\":[",
            inc.request,
            inc.reason.code(),
            inc.step,
            inc.preemptions
        ));
        for (j, ev) in inc.events.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"request\":{},\"kind\":\"{}\",\"t_ns\":{},\"step\":{},\"value\":{}}}",
                ev.request,
                ev.kind.code(),
                ev.t_ns,
                ev.step,
                ev.value
            ));
        }
        out.push_str("],\"metrics\":");
        let metrics = lad_obs::metrics::json_text(&inc.metrics);
        out.push_str(metrics.trim_end());
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Why a request finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishReason {
    /// The EOS token was generated (it is included in the output).
    Eos,
    /// `max_tokens` tokens were generated.
    MaxTokens,
}

/// The served result of one request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// Caller-chosen id from the [`Request`].
    pub id: u64,
    /// Every generated token, across preemptions, in order.
    pub tokens: Vec<u32>,
    /// Why generation stopped.
    pub finish: FinishReason,
    /// Wall time from arrival (queueing included) to the first token.
    pub ttft: Duration,
    /// Wall time from arrival to retirement.
    pub e2e: Duration,
    /// Times this request was preempted and recomputed.
    pub preemptions: usize,
    /// Whether `e2e` met the request's deadline (`true` without one).
    pub met_deadline: bool,
}

/// Aggregate result of serving a workload to completion.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Per-request outcomes, in retirement order.
    pub outcomes: Vec<RequestOutcome>,
    /// Engine ticks executed (including idle ticks).
    pub steps: usize,
    /// Ticks where the active set was empty (arrival gaps).
    pub idle_steps: usize,
    /// Admissions performed (re-admissions after preemption included).
    pub admissions: usize,
    /// Preemptions performed.
    pub preemptions: usize,
    /// End-to-end wall time of the run.
    pub wall: Duration,
    /// Speculative verify rounds run. Each commits its matched drafts plus
    /// one token, so the rounds committed `spec_accepted + spec_rounds`
    /// tokens.
    pub spec_rounds: usize,
    /// Draft tokens proposed across all speculative rounds.
    pub spec_drafted: usize,
    /// Draft tokens accepted across all speculative rounds.
    pub spec_accepted: usize,
    /// SLO flight-recorder captures (deadline misses and preemption
    /// storms), in capture order.
    pub incidents: Vec<Incident>,
}

impl ServeReport {
    /// Total generated tokens.
    pub fn total_tokens(&self) -> usize {
        self.outcomes.iter().map(|o| o.tokens.len()).sum()
    }

    /// Fraction of proposed draft tokens the verifier accepted (0.0 when
    /// nothing was drafted).
    pub fn spec_acceptance_rate(&self) -> f64 {
        if self.spec_drafted == 0 {
            return 0.0;
        }
        self.spec_accepted as f64 / self.spec_drafted as f64
    }

    /// Mean tokens committed per speculative verify round (0.0 when no
    /// request opted into speculation).
    pub fn mean_accepted_len(&self) -> f64 {
        if self.spec_rounds == 0 {
            return 0.0;
        }
        (self.spec_accepted + self.spec_rounds) as f64 / self.spec_rounds as f64
    }
}

/// Mutable per-request serving state of the [`Engine`]. Lives in the queue
/// between incarnations.
#[derive(Debug, Clone)]
pub(crate) struct ReqState {
    pub id: u64,
    /// Effective prompt of the next incarnation: the original prompt plus
    /// every token generated before the latest preemption.
    pub prompt: Vec<u32>,
    /// Tokens generated in earlier incarnations (prefix of the output).
    pub done: Vec<u32>,
    /// Tokens still to generate in this incarnation.
    pub remaining: usize,
    pub arrival_step: usize,
    pub deadline: Option<Duration>,
    /// Wall time the arrival step began (latency epoch).
    pub eligible_at: Option<Instant>,
    /// Wall time of the first generated token.
    pub first_token_at: Option<Instant>,
    pub preemptions: usize,
    /// Speculative-decoding opt-in, preserved across preemptions (the
    /// drafter itself is rebuilt deterministically from `prompt` on
    /// re-admission — the folded prefix replays the observed stream).
    pub spec: Option<SpecConfig>,
    /// Per-request attention backend, preserved across preemptions so the
    /// recompute incarnation evicts/selects identically to the first.
    pub backend: Option<AttentionKind>,
}

impl ReqState {
    pub(crate) fn from_request(req: Request) -> ReqState {
        ReqState {
            id: req.id,
            prompt: req.prompt,
            done: Vec::new(),
            remaining: req.max_tokens,
            arrival_step: req.arrival_step,
            deadline: req.deadline,
            eligible_at: None,
            first_token_at: None,
            preemptions: 0,
            spec: req.spec,
            backend: req.backend,
        }
    }

    /// Records a generated token's wall time: the first one sets the
    /// request's time to first token.
    pub(crate) fn record_token(&mut self, now: Instant) {
        self.first_token_at.get_or_insert(now);
    }

    /// Builds the final outcome at retirement.
    pub(crate) fn into_outcome(
        self,
        generated: Vec<u32>,
        finish: FinishReason,
        now: Instant,
    ) -> RequestOutcome {
        let eligible = self.eligible_at.expect("retired before arrival");
        let first = self.first_token_at.expect("retired without a token");
        let e2e = now.duration_since(eligible);
        let met_deadline = self.deadline.is_none_or(|d| e2e <= d);
        let mut tokens = self.done;
        tokens.extend(generated);
        RequestOutcome {
            id: self.id,
            tokens,
            finish,
            ttft: first.duration_since(eligible),
            e2e,
            preemptions: self.preemptions,
            met_deadline,
        }
    }
}
