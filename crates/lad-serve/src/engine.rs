//! The continuous-batching scheduler loop.
//!
//! One [`Engine::tick`] is one global serving step:
//!
//! 1. **decode reservation** — every decode-phase request appends one KV
//!    token to the paged pool; on exhaustion the *youngest* active request
//!    is preempted (recompute style) until the append fits;
//! 2. **admission** — FIFO queue head(s) whose arrival step has come join
//!    while a batch slot and their prompt's blocks are available;
//! 3. **one step** — every active request contributes one run to a single
//!    [`BatchSession::step_runs`] call, so the weights stream once per tick
//!    (cross-sample GEMMs): a prefilling request its next
//!    `min(prefill_chunk, prompt left)` prompt tokens, a decode request its
//!    pending token plus any speculative drafts. Only draft rows are
//!    checkpointed for rollback;
//! 4. **sampling + retirement** — a request whose prompt ends in this run
//!    samples its first token from the run's last row, a decode request its
//!    next token (plus accepted drafts); EOS/`max_tokens` retires the
//!    request and returns its blocks.
//!
//! Scheduling never changes results: samples are independent and greedy
//! decoding is deterministic, so whatever the admission pattern, each
//! request's token stream equals its solo [`lad_model::Session`] decode
//! (`tests/serving.rs` pins this, preemption included).
//!
//! Requests may carry their own attention backend
//! ([`Request::with_backend`]): each sample's heads are built with that
//! kind at admission, so exact, LAD, top-k and H2O requests share one
//! tick's GEMMs. After every tick the engine folds attention evictions
//! back into the paged pool — positions that every head of a sample has
//! evicted are marked dead ([`BlockPool::mark_dead`]), and fully-dead
//! blocks return to the free list for new admissions. Preemption still
//! recomputes: the folded prompt replays through the same backend, so
//! eviction decisions (and the resulting stream) are reproduced exactly.

use crate::{FinishReason, Incident, IncidentReason, ReqState, Request, ServeConfig, ServeReport};
use lad_accel::paged::BlockPool;
use lad_model::backend::AttentionKind;
use lad_model::batch::{BatchSession, Run, StepOutcome};
use lad_model::spec::Drafter;
use lad_model::transformer::{argmax, Model};
use lad_obs::metrics::{self, Counter, Gauge, MetricHistogram};
use lad_obs::timeline::{self, TimelineKind};
use lad_obs::Histogram;
use std::collections::VecDeque;
use std::time::Instant;

/// Registry handles the engine records into, resolved once at construction
/// ([`metrics::counter`] & co. are lock + scan — not hot-path operations).
/// All record calls are no-ops while metrics are disabled.
#[derive(Debug)]
struct EngineObs {
    admissions: Counter,
    preemptions: Counter,
    retired: Counter,
    incidents: Counter,
    /// Committed (generated) tokens across all requests.
    tokens: Counter,
    active: Gauge,
    queued: Gauge,
    ttft_ns: MetricHistogram,
    e2e_ns: MetricHistogram,
}

impl EngineObs {
    fn new() -> EngineObs {
        EngineObs {
            admissions: metrics::counter("serve.admissions"),
            preemptions: metrics::counter("serve.preemptions"),
            retired: metrics::counter("serve.retired"),
            incidents: metrics::counter("serve.incidents"),
            tokens: metrics::counter("serve.tokens"),
            active: metrics::gauge("serve.active"),
            queued: metrics::gauge("serve.queued"),
            ttft_ns: metrics::histogram("serve.ttft_ns"),
            e2e_ns: metrics::histogram("serve.e2e_ns"),
        }
    }
}

/// The per-backend traffic counter a request's attention bytes flow into —
/// one counter per [`AttentionKind`] variant, so an exposition splits KV
/// bandwidth by backend class across every engine in the process.
fn traffic_counter(kind: &AttentionKind) -> Counter {
    metrics::counter(match kind {
        AttentionKind::Exact => "serve.bytes_moved.exact",
        AttentionKind::ExactF16 => "serve.bytes_moved.exact_f16",
        AttentionKind::Lad(_) => "serve.bytes_moved.lad",
        AttentionKind::QserveKv4 => "serve.bytes_moved.qserve_kv4",
        AttentionKind::TopK { .. } => "serve.bytes_moved.topk",
        AttentionKind::H2O { .. } => "serve.bytes_moved.h2o",
    })
}

/// One admitted, currently-decoding request.
#[derive(Debug)]
struct Active {
    state: ReqState,
    /// Sample slot in the [`BatchSession`].
    slot: usize,
    /// Sequence id in the [`BlockPool`].
    pool_id: usize,
    /// Tokens fed to the session in this incarnation (prompt included).
    consumed: usize,
    /// Tokens generated in this incarnation.
    generated: Vec<u32>,
    /// Draft-token proposer, present iff the request opted into
    /// speculation. Seeded from the incarnation's prompt at admission and
    /// fed every committed token, so a preempted request rebuilds the exact
    /// same table from its folded prefix.
    drafter: Option<Drafter>,
    /// Draft KV rows the pool granted for this tick's verify round
    /// (reserved optimistically in [`Engine::reserve_decode_blocks`], the
    /// rejected tail returned via [`BlockPool::truncate`] after the walk).
    granted: usize,
    /// Per-backend `serve.bytes_moved.*` counter this request's attention
    /// traffic accumulates into (resolved once at admission).
    traffic: Counter,
}

impl Active {
    fn in_prefill(&self) -> bool {
        self.consumed < self.state.prompt.len()
    }
}

/// One active request's run in the tick's step.
struct Part {
    /// Sample slot in the [`BatchSession`].
    slot: usize,
    /// Index into the engine's active list.
    active: usize,
    /// Whether `tokens` ranges over the request's prompt; otherwise it ranges
    /// over the tick's decode-token buffer (the pending token, then any
    /// drafts).
    prompt: bool,
    tokens: std::ops::Range<usize>,
}

/// Continuous-batching serving engine over one model.
#[derive(Debug)]
pub struct Engine<'m> {
    cfg: ServeConfig,
    /// The served model, whose vocabulary and `max_seq` bound what
    /// [`Engine::submit`] accepts.
    model: &'m Model,
    session: BatchSession<'m>,
    pool: BlockPool,
    /// Default attention backend for requests without an explicit one.
    kind: AttentionKind,
    /// Waiting requests, FIFO by arrival (preempted requests re-enter at
    /// the front, which preserves arrival order — they arrived before
    /// everything still queued).
    queue: VecDeque<ReqState>,
    /// Admitted requests in admission order (oldest first; the preemption
    /// victim is always the last element).
    active: Vec<Active>,
    step: usize,
    // Report accumulators.
    outcomes: Vec<crate::RequestOutcome>,
    ttft: Histogram,
    itl: Histogram,
    idle_steps: usize,
    admissions: usize,
    preemptions: usize,
    accepted_len: Histogram,
    acceptance_pct: Histogram,
    spec_drafted: usize,
    spec_accepted: usize,
    incidents: Vec<Incident>,
    obs: EngineObs,
}

impl<'m> Engine<'m> {
    /// Builds an engine serving `model` with `kind` attention heads from
    /// the KV capacity of `pool`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.max_active == 0`, `cfg.prefill_chunk == 0` or
    /// `cfg.parallelism == 0`.
    pub fn new(model: &'m Model, kind: &AttentionKind, pool: BlockPool, cfg: ServeConfig) -> Self {
        assert!(cfg.max_active > 0, "serve: max_active must be positive");
        assert!(
            cfg.prefill_chunk > 0,
            "serve: prefill_chunk must be positive"
        );
        let session = BatchSession::dynamic(model, kind, cfg.parallelism);
        Engine {
            cfg,
            model,
            session,
            pool,
            kind: kind.clone(),
            queue: VecDeque::new(),
            active: Vec::new(),
            step: 0,
            outcomes: Vec::new(),
            ttft: Histogram::new(),
            itl: Histogram::new(),
            idle_steps: 0,
            admissions: 0,
            preemptions: 0,
            accepted_len: Histogram::new(),
            acceptance_pct: Histogram::new(),
            spec_drafted: 0,
            spec_accepted: 0,
            incidents: Vec::new(),
            obs: EngineObs::new(),
        }
    }

    /// Enqueues a request. Requests must be submitted in arrival order.
    ///
    /// Everything that could fail mid-[`Engine::run`] — and take every
    /// co-batched request down with it — is rejected here instead.
    ///
    /// # Panics
    ///
    /// Panics on an empty prompt, `max_tokens == 0`, out-of-order arrival
    /// steps, a prompt token outside the model's vocabulary, a request that
    /// needs more positions than the model's `max_seq` (the engine feeds
    /// `prompt + max_tokens - 1` of them, speculation included), or a
    /// request that could never fit the pool even alone
    /// (`blocks_for(prompt + max_tokens) > total_blocks` — such a request
    /// would preempt itself forever).
    pub fn submit(&mut self, req: Request) {
        assert!(
            !req.prompt.is_empty(),
            "serve: request {} has an empty prompt",
            req.id
        );
        assert!(
            req.max_tokens > 0,
            "serve: request {} has max_tokens 0",
            req.id
        );
        let model = self.model.config();
        if let Some(&t) = req.prompt.iter().find(|&&t| t as usize >= model.vocab) {
            panic!(
                "serve: request {} has prompt token {t} outside the vocabulary ({})",
                req.id, model.vocab
            );
        }
        let positions = req
            .prompt
            .len()
            .saturating_add(req.max_tokens)
            .saturating_sub(1);
        assert!(
            positions <= model.max_seq,
            "serve: request {} needs {positions} positions, above max_seq {}",
            req.id,
            model.max_seq
        );
        assert!(
            BlockPool::blocks_for(req.prompt.len() + req.max_tokens) <= self.pool.total_blocks(),
            "serve: request {} can never fit the pool",
            req.id
        );
        if let Some(back) = self.queue.back() {
            assert!(
                req.arrival_step >= back.arrival_step,
                "serve: requests must be submitted in arrival order"
            );
        }
        self.queue.push_back(ReqState::from_request(req));
    }

    /// Requests waiting in the queue.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Requests currently active in the batch.
    pub fn active(&self) -> usize {
        self.active.len()
    }

    /// Global steps executed so far.
    pub fn step_count(&self) -> usize {
        self.step
    }

    /// Runs the scheduler loop until every submitted request has retired,
    /// and returns the drained report.
    pub fn run(&mut self) -> ServeReport {
        let started = Instant::now();
        while !self.queue.is_empty() || !self.active.is_empty() {
            self.tick();
        }
        ServeReport {
            outcomes: std::mem::take(&mut self.outcomes),
            steps: self.step,
            idle_steps: self.idle_steps,
            admissions: self.admissions,
            preemptions: self.preemptions,
            wall: started.elapsed(),
            ttft: std::mem::replace(&mut self.ttft, Histogram::new()),
            itl: std::mem::replace(&mut self.itl, Histogram::new()),
            accepted_len: std::mem::replace(&mut self.accepted_len, Histogram::new()),
            acceptance_pct: std::mem::replace(&mut self.acceptance_pct, Histogram::new()),
            spec_drafted: std::mem::take(&mut self.spec_drafted),
            spec_accepted: std::mem::take(&mut self.spec_accepted),
            incidents: std::mem::take(&mut self.incidents),
        }
    }

    /// Executes one global serving step.
    pub fn tick(&mut self) {
        let _tick = lad_obs::span("serve.tick");
        let now = Instant::now();
        // Requests whose arrival step has come start their latency clock
        // now — queueing time counts toward TTFT.
        for q in self.queue.iter_mut() {
            if q.arrival_step <= self.step && q.eligible_at.is_none() {
                q.eligible_at = Some(now);
            }
        }

        self.reserve_decode_blocks();
        self.admit();
        self.obs.active.set(self.active.len() as i64);
        self.obs.queued.set(self.queue.len() as i64);

        if self.active.is_empty() {
            // The active set drained while later arrivals are still in the
            // future: the documented BatchSession idle no-op.
            let _idle = lad_obs::span("serve.idle");
            let outcome = self.session.step(&[]);
            debug_assert_eq!(outcome, StepOutcome::Idle);
            self.idle_steps += 1;
            self.step += 1;
            return;
        }

        self.step_active();
        self.reclaim_evicted();
        self.obs.active.set(self.active.len() as i64);
        self.obs.queued.set(self.queue.len() as i64);
        self.step += 1;
    }

    /// Folds attention evictions into the paged accounting: a position that
    /// every (layer, head) state of a sample has evicted (the H2O backend)
    /// is marked dead in the pool, and a block whose tokens are all dead
    /// returns to the free list. Runs after the tick's step — past any
    /// speculative rollback — so only decisions that survived verification
    /// are committed ([`BlockPool::mark_dead`] is irreversible). Exact,
    /// Qserve, top-k and LAD heads never evict, so for those requests this
    /// is a no-op.
    fn reclaim_evicted(&mut self) {
        let _span = lad_obs::span("serve.reclaim");
        let step = self.step as u64;
        for a in &self.active {
            let mut freed_blocks = 0u64;
            for pos in self.session.dead_positions(a.slot) {
                if self.pool.mark_dead(a.pool_id, pos) {
                    freed_blocks += 1;
                }
            }
            if freed_blocks > 0 {
                timeline::record(
                    a.state.id,
                    TimelineKind::EvictionReclaim,
                    step,
                    freed_blocks,
                );
            }
        }
    }

    /// Reserves this tick's KV token for every decode-phase request,
    /// preempting the youngest active request on pool exhaustion.
    /// (Prefilling requests reserved their prompt blocks at admission.)
    ///
    /// Speculative requests additionally reserve up to `k` draft rows
    /// *optimistically*: extra appends that the pool refuses simply shrink
    /// this tick's draft budget to whatever was granted (never preempting
    /// anyone), so under pressure speculation degrades to plain decode.
    fn reserve_decode_blocks(&mut self) {
        let _span = lad_obs::span("serve.reserve");
        let mut i = 0;
        while i < self.active.len() {
            if self.active[i].in_prefill() {
                self.active[i].granted = 0;
                i += 1;
                continue;
            }
            loop {
                if self.pool.append_token(self.active[i].pool_id) {
                    self.active[i].granted = 0;
                    i += 1;
                    break;
                }
                let youngest = self.active.len() - 1;
                let self_preempted = youngest == i;
                self.preempt(youngest);
                if self_preempted {
                    break; // `i` now indexes the next request (or the end)
                }
            }
        }
        // Second pass, after every mandatory row is safe: optimistic draft
        // rows. These never contend with mandatory reservations and never
        // preempt — a refused append just caps the budget.
        for a in self.active.iter_mut() {
            let Some(spec) = &a.state.spec else { continue };
            if a.in_prefill() {
                continue;
            }
            // Never draft past the request's budget: the walk commits every
            // matched token, so proposing more than `remaining - 1` could
            // overshoot max_tokens.
            let left = a.state.remaining - a.generated.len();
            let want = spec.k.min(left - 1);
            while a.granted < want && self.pool.append_token(a.pool_id) {
                a.granted += 1;
            }
        }
    }

    /// Evicts active request `idx` (recompute preemption): KV dropped,
    /// blocks freed, generated prefix folded into the prompt, request
    /// re-queued at the front (it arrived before everything still queued).
    fn preempt(&mut self, idx: usize) {
        let _span = lad_obs::span("serve.preempt");
        let mut a = self.active.remove(idx);
        self.session.remove_sample(a.slot);
        self.pool.release(a.pool_id);
        let generated = std::mem::take(&mut a.generated);
        let mut st = a.state;
        st.remaining -= generated.len();
        debug_assert!(st.remaining > 0, "finished request was preempted");
        st.prompt.extend_from_slice(&generated);
        st.done.extend(generated);
        st.preemptions += 1;
        self.preemptions += 1;
        self.obs.preemptions.inc(1);
        timeline::record(
            st.id,
            TimelineKind::Preempt,
            self.step as u64,
            st.preemptions as u64,
        );
        // Preemption storm: trips exactly once, the first time the count
        // crosses the configured ceiling.
        if st.preemptions == self.cfg.incident_max_preemptions + 1 {
            self.record_incident(st.id, IncidentReason::PreemptionStorm, st.preemptions);
        }
        self.queue.push_front(st);
    }

    /// Flight recorder: snapshots the request's last-K timeline events and
    /// the full metrics registry into an [`Incident`] on the report.
    fn record_incident(&mut self, request: u64, reason: IncidentReason, preemptions: usize) {
        self.obs.incidents.inc(1);
        self.incidents.push(Incident {
            request,
            reason,
            step: self.step,
            preemptions,
            events: timeline::tail_for(request, self.cfg.incident_last_k),
            metrics: metrics::snapshot(),
        });
    }

    /// Admits FIFO queue heads while a slot and their prompt blocks are
    /// available. Admission is strictly in arrival order: a blocked head
    /// blocks everything behind it (no out-of-order admission).
    fn admit(&mut self) {
        let _span = lad_obs::span("serve.admit");
        while self.active.len() < self.cfg.max_active {
            let Some(front) = self.queue.front() else {
                break;
            };
            if front.arrival_step > self.step {
                break;
            }
            let Some(pool_id) = self.pool.admit(front.prompt.len()) else {
                break;
            };
            let state = self.queue.pop_front().expect("front checked above");
            let kind = state.backend.as_ref().unwrap_or(&self.kind).clone();
            let slot = self.session.add_sample_with_kind(&kind);
            self.admissions += 1;
            self.obs.admissions.inc(1);
            timeline::record(
                state.id,
                TimelineKind::Admit,
                self.step as u64,
                state.prompt.len() as u64,
            );
            // The drafter observes the incarnation's prompt up front. After
            // a preemption that prompt includes every token generated so
            // far, so the rebuilt table equals the uninterrupted one.
            let drafter = state.spec.as_ref().map(|spec| {
                let mut d = Drafter::new(spec.policy.clone());
                d.observe_all(&state.prompt);
                d
            });
            self.active.push(Active {
                state,
                slot,
                pool_id,
                consumed: 0,
                generated: Vec::new(),
                drafter,
                granted: 0,
                traffic: traffic_counter(&kind),
            });
        }
    }

    /// Runs the tick's one [`BatchSession::step_runs`] over every active
    /// request, then samples next tokens and retires finished requests.
    ///
    /// A prefilling request contributes its next
    /// `min(prefill_chunk, prompt left)` prompt tokens as a run that is
    /// never rolled back (so it takes no head checkpoints); the run that
    /// finishes the prompt yields the first token from its last row. A
    /// plain decode request contributes a one-token run. A speculative
    /// decode request contributes a `1 + d`-row verify run (its pending
    /// token plus `d` drafted tokens); after the step the acceptance walk
    /// commits the greedy-matching prefix, rolls the session back to the
    /// kept rows and returns the rejected rows' KV blocks to the pool. Every
    /// committed token is the argmax of logits conditioned only on committed
    /// rows, so the stream is bit-identical to the request's plain decode.
    fn step_active(&mut self) {
        // The step span covers run building, the cross-sample GEMMs and the
        // sampling/retirement walk, so `serve.tick` time decomposes almost
        // entirely into its direct children (the coverage invariant
        // `examples/serve_trace.rs` asserts).
        let _outer = if self.active.iter().any(|a| !a.in_prefill()) {
            lad_obs::span("serve.decode_step")
        } else {
            lad_obs::span("serve.prefill_chunk")
        };
        let step_u64 = self.step as u64;
        // Decode runs are built here; prompt runs borrow the prompt.
        let mut decode_tokens: Vec<u32> = Vec::new();
        let mut parts: Vec<Part> = Vec::with_capacity(self.active.len());
        let mut any_spec = false;
        for (i, a) in self.active.iter().enumerate() {
            if a.in_prefill() {
                let take = self
                    .cfg
                    .prefill_chunk
                    .min(a.state.prompt.len() - a.consumed);
                parts.push(Part {
                    slot: a.slot,
                    active: i,
                    prompt: true,
                    tokens: a.consumed..a.consumed + take,
                });
                continue;
            }
            let start = decode_tokens.len();
            decode_tokens.push(*a.generated.last().expect("decode phase feeds last token"));
            if let (Some(drafter), true) = (&a.drafter, a.granted > 0) {
                let _span = lad_obs::span("spec.draft");
                let mut drafts = drafter.draft(a.granted);
                drafts.truncate(a.granted);
                if !drafts.is_empty() {
                    timeline::record(
                        a.state.id,
                        TimelineKind::SpecDraft,
                        step_u64,
                        drafts.len() as u64,
                    );
                }
                any_spec |= !drafts.is_empty();
                decode_tokens.extend_from_slice(&drafts);
            }
            parts.push(Part {
                slot: a.slot,
                active: i,
                prompt: false,
                tokens: start..decode_tokens.len(),
            });
        }
        // The session requires strictly increasing sample ids.
        parts.sort_unstable_by_key(|p| p.slot);
        let runs: Vec<Run> = parts
            .iter()
            .map(|p| {
                if p.prompt {
                    Run::new(
                        p.slot,
                        &self.active[p.active].state.prompt[p.tokens.clone()],
                    )
                } else {
                    Run::verify(p.slot, &decode_tokens[p.tokens.clone()])
                }
            })
            .collect();
        {
            let _verify = any_spec.then(|| lad_obs::span("spec.verify"));
            self.session.step_runs(&runs);
        }
        // Per-backend KV traffic: every head of every stepped sample
        // reports bytes_moved for this step; fold each sample's total into
        // its backend's counter (gated here to skip the stats walk entirely
        // while metrics are off).
        if metrics::metrics_enabled() {
            for p in &parts {
                let bytes: usize = self
                    .session
                    .last_stats(p.slot)
                    .iter()
                    .map(|s| s.bytes_moved)
                    .sum();
                self.active[p.active].traffic.inc(bytes as u64);
            }
        }

        let now = Instant::now();
        let mut retired: Vec<(usize, FinishReason)> = Vec::new();
        // Logits rows are run-major in `runs` order: track each run's base.
        let mut base = 0usize;
        for p in &parts {
            let row_base = base;
            let len = p.tokens.len();
            base += len;
            let i = p.active;
            let a = &mut self.active[i];
            a.consumed += len;
            // The first row the walk samples from, and the drafts it checks.
            let (first_row, drafts) = if p.prompt {
                timeline::record(a.state.id, TimelineKind::PrefillChunk, step_u64, len as u64);
                if a.in_prefill() {
                    continue;
                }
                // The prompt is done: its last row yields the first token.
                // Prompt rows are never drafts, so nothing rolls back.
                (row_base + len - 1, &[][..])
            } else {
                (row_base, &decode_tokens[p.tokens.start + 1..p.tokens.end])
            };

            // Acceptance walk. Row `first_row + j` holds the logits after
            // the committed prefix plus `j` matched drafts, so its argmax is
            // the exact greedy next token at that point. Without drafts it
            // commits exactly one token.
            let mut matched = 0usize;
            let mut committed = 0usize;
            let mut finish = None;
            loop {
                let next = argmax(self.session.logits(first_row + matched));
                a.state.record_token(now, &mut self.ttft, &mut self.itl);
                a.generated.push(next);
                if let Some(d) = a.drafter.as_mut() {
                    d.observe(next);
                }
                committed += 1;
                if self.cfg.eos == Some(next) {
                    finish = Some(FinishReason::Eos);
                    break;
                }
                if a.generated.len() >= a.state.remaining {
                    finish = Some(FinishReason::MaxTokens);
                    break;
                }
                if matched < drafts.len() && drafts[matched] == next {
                    matched += 1;
                } else {
                    break;
                }
            }
            // A verify round is a speculative request's decode run; the
            // token sampled where the prompt ends is not one.
            if a.state.spec.is_some() && !p.prompt {
                self.spec_drafted += drafts.len();
                self.spec_accepted += matched;
                self.accepted_len.record(committed as u64);
                if !drafts.is_empty() {
                    self.acceptance_pct
                        .record((100 * matched / drafts.len()) as u64);
                }
            }
            if !drafts.is_empty() {
                timeline::record(
                    a.state.id,
                    TimelineKind::SpecVerify,
                    step_u64,
                    matched as u64,
                );
            }
            timeline::record(
                a.state.id,
                TimelineKind::DecodeTick,
                step_u64,
                committed as u64,
            );
            self.obs.tokens.inc(committed as u64);
            if let Some(finish) = finish {
                // Retirement discards the whole sample; no rollback needed.
                retired.push((i, finish));
                continue;
            }
            if !drafts.is_empty() {
                let _span = lad_obs::span("spec.rollback");
                timeline::record(
                    a.state.id,
                    TimelineKind::SpecRollback,
                    step_u64,
                    (len - committed) as u64,
                );
                self.session.rollback_sample(a.slot, committed);
            }
            if a.granted > 0 {
                // Return the rejected rows' blocks: the pool holds `1 +
                // granted` rows reserved this tick, only `committed` stay.
                let current = self
                    .pool
                    .sequence_tokens(a.pool_id)
                    .expect("active request has a live pool sequence");
                let target = current - (1 + a.granted) + committed;
                if target < current {
                    self.pool.truncate(a.pool_id, target);
                }
                a.granted = 0;
            }
        }
        // Retire in descending active-index order so removals do not shift
        // the remaining indices (parts are in slot order, not index order).
        retired.sort_unstable_by_key(|&(i, _)| std::cmp::Reverse(i));
        for &(i, finish) in &retired {
            let _span = lad_obs::span("serve.retire");
            let a = self.active.remove(i);
            self.session.remove_sample(a.slot);
            self.pool.release(a.pool_id);
            let total_tokens = a.state.done.len() + a.generated.len();
            timeline::record(
                a.state.id,
                TimelineKind::Retire,
                step_u64,
                total_tokens as u64,
            );
            self.obs.retired.inc(1);
            let outcome = a.state.into_outcome(a.generated, finish, now);
            self.obs.ttft_ns.record(outcome.ttft.as_nanos() as u64);
            self.obs.e2e_ns.record(outcome.e2e.as_nanos() as u64);
            if !outcome.met_deadline {
                self.record_incident(
                    outcome.id,
                    IncidentReason::DeadlineMiss,
                    outcome.preemptions,
                );
            }
            self.outcomes.push(outcome);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_model::config::ModelConfig;
    use lad_model::spec::SpecConfig;
    use lad_model::transformer::Session;
    use std::time::Duration;

    fn tiny_model() -> Model {
        Model::random(ModelConfig::tiny("serve", 2, 32, 2), 71)
    }

    /// Blocks→bytes for the tiny model above (2 layers × 32 hidden).
    fn budget(blocks: usize) -> usize {
        let cfg = ModelConfig::tiny("serve", 2, 32, 2);
        cfg.layers * 2 * cfg.hidden * 2 * lad_accel::paged::BLOCK_TOKENS * blocks
    }

    fn prompt(seed: u64, len: usize) -> Vec<u32> {
        (0..len)
            .map(|i| ((i as u64 * 37 + seed * 13) % 256) as u32)
            .collect()
    }

    /// Solo greedy reference under `kind`, truncated after the first EOS
    /// (inclusive) the way the engine retires.
    fn solo_kind(
        model: &Model,
        kind: &AttentionKind,
        prompt: &[u32],
        max_tokens: usize,
        eos: Option<u32>,
    ) -> Vec<u32> {
        let mut session = Session::new(model, kind);
        let full = session.generate_greedy(prompt, max_tokens);
        match eos.and_then(|e| full.iter().position(|&t| t == e)) {
            Some(at) => full[..=at].to_vec(),
            None => full,
        }
    }

    /// Asserts that each `(id, prompt_len, max_tokens)` request retired with
    /// its solo greedy stream under `kind`.
    fn assert_solo_streams(
        report: &ServeReport,
        model: &Model,
        kind: &AttentionKind,
        requests: &[(u64, usize, usize)],
    ) {
        for &(id, plen, max) in requests {
            let got = &report
                .outcomes
                .iter()
                .find(|o| o.id == id)
                .expect("request retired")
                .tokens;
            let want = solo_kind(model, kind, &prompt(id, plen), max, None);
            assert_eq!(got, &want, "request {id}");
        }
    }

    /// Exact-attention solo reference.
    fn solo(model: &Model, prompt: &[u32], max_tokens: usize, eos: Option<u32>) -> Vec<u32> {
        solo_kind(model, &AttentionKind::Exact, prompt, max_tokens, eos)
    }

    /// Serves `prompt` as the only request of an engine whose one tick
    /// prefills the whole prompt and whose pool holds the whole request,
    /// decoding `steps` tokens speculatively under `spec`.
    fn serve_alone(
        model: &Model,
        kind: &AttentionKind,
        prompt: &[u32],
        steps: usize,
        spec: &SpecConfig,
    ) -> ServeReport {
        let cfg = ServeConfig {
            prefill_chunk: prompt.len(),
            ..ServeConfig::default()
        };
        let blocks = BlockPool::blocks_for(prompt.len() + steps);
        let pool = BlockPool::new(model.config(), budget(blocks));
        let mut engine = Engine::new(model, kind, pool, cfg);
        engine.submit(Request::new(0, prompt.to_vec(), steps).with_speculation(spec.clone()));
        engine.run()
    }

    #[test]
    fn continuous_streams_match_solo_sessions() {
        let model = tiny_model();
        let cfg = ServeConfig {
            max_active: 2,
            prefill_chunk: 3,
            eos: None,
            parallelism: 1,
            ..ServeConfig::default()
        };
        let pool = BlockPool::new(&ModelConfig::tiny("serve", 2, 32, 2), budget(64));
        let mut engine = Engine::new(&model, &AttentionKind::Exact, pool, cfg);
        let specs = [(0u64, 9usize, 12usize, 0usize), (1, 6, 7, 0), (2, 11, 9, 4)];
        for &(id, plen, max, at) in &specs {
            engine.submit(Request::new(id, prompt(id, plen), max).arriving_at(at));
        }
        let report = engine.run();

        assert_eq!(report.outcomes.len(), specs.len());
        assert_eq!(report.admissions, specs.len());
        assert_eq!(report.preemptions, 0);
        assert_solo_streams(
            &report,
            &model,
            &AttentionKind::Exact,
            &specs.map(|(id, plen, max, _)| (id, plen, max)),
        );
        let total: usize = specs.iter().map(|&(_, _, max, _)| max).sum();
        assert_eq!(report.total_tokens(), total);
        assert_eq!(report.ttft.count(), specs.len() as u64);
        assert_eq!(report.itl.count(), (total - specs.len()) as u64);
    }

    #[test]
    fn forced_preemption_recovers_bit_identical_streams() {
        let model = tiny_model();
        let cfg = ServeConfig {
            max_active: 2,
            prefill_chunk: 1,
            eos: None,
            parallelism: 1,
            ..ServeConfig::default()
        };
        // Three blocks total; two requests each peaking at two blocks, so
        // the pool must run dry and evict the youngest mid-decode.
        let pool = BlockPool::new(&ModelConfig::tiny("serve", 2, 32, 2), budget(3));
        let mut engine = Engine::new(&model, &AttentionKind::Exact, pool, cfg);
        let specs = [(0u64, 8usize, 24usize), (1, 8, 24)];
        for &(id, plen, max) in &specs {
            engine.submit(Request::new(id, prompt(id, plen), max));
        }
        let report = engine.run();

        assert!(
            report.preemptions >= 1,
            "pool pressure must force a preemption"
        );
        let preempted: usize = report.outcomes.iter().map(|o| o.preemptions).sum();
        assert_eq!(preempted, report.preemptions);
        assert_solo_streams(&report, &model, &AttentionKind::Exact, &specs);
    }

    #[test]
    fn eos_retires_early_and_is_included() {
        let model = tiny_model();
        let p = prompt(3, 10);
        // Pick the third solo token as EOS so the engine must stop there.
        let reference = solo(&model, &p, 12, None);
        let eos = reference[2];
        let expect = solo(&model, &p, 12, Some(eos));
        assert!(expect.len() < 12, "chosen EOS must truncate");

        let cfg = ServeConfig {
            eos: Some(eos),
            ..ServeConfig::default()
        };
        let pool = BlockPool::new(&ModelConfig::tiny("serve", 2, 32, 2), budget(64));
        let mut engine = Engine::new(&model, &AttentionKind::Exact, pool, cfg);
        engine.submit(Request::new(7, p, 12));
        let report = engine.run();

        let out = &report.outcomes[0];
        assert_eq!(out.finish, FinishReason::Eos);
        assert_eq!(out.tokens, expect);
        assert_eq!(*out.tokens.last().unwrap(), eos);
    }

    #[test]
    fn idle_ticks_bridge_arrival_gaps() {
        let model = tiny_model();
        let pool = BlockPool::new(&ModelConfig::tiny("serve", 2, 32, 2), budget(64));
        let mut engine = Engine::new(&model, &AttentionKind::Exact, pool, ServeConfig::default());
        engine.submit(Request::new(0, prompt(0, 4), 3).arriving_at(5));
        let report = engine.run();
        assert_eq!(report.idle_steps, 5);
        assert_eq!(report.outcomes[0].tokens.len(), 3);
    }

    #[test]
    #[should_panic(expected = "serve: request 0 can never fit the pool")]
    fn oversized_request_is_rejected_at_submit() {
        let model = tiny_model();
        let pool = BlockPool::new(&ModelConfig::tiny("serve", 2, 32, 2), budget(2));
        let mut engine = Engine::new(&model, &AttentionKind::Exact, pool, ServeConfig::default());
        engine.submit(Request::new(0, prompt(0, 8), 64));
    }

    #[test]
    #[should_panic(expected = "serve: request 4 has an empty prompt")]
    fn empty_prompt_is_rejected_at_submit() {
        let model = tiny_model();
        let pool = BlockPool::new(model.config(), budget(64));
        let mut engine = Engine::new(&model, &AttentionKind::Exact, pool, ServeConfig::default());
        engine.submit(Request::new(4, Vec::new(), 4));
    }

    #[test]
    #[should_panic(expected = "serve: request 5 has max_tokens 0")]
    fn zero_max_tokens_is_rejected_at_submit() {
        let model = tiny_model();
        let pool = BlockPool::new(model.config(), budget(64));
        let mut engine = Engine::new(&model, &AttentionKind::Exact, pool, ServeConfig::default());
        engine.submit(Request::new(5, prompt(5, 4), 0));
    }

    #[test]
    #[should_panic(expected = "serve: request 3 has prompt token 256 outside the vocabulary (256)")]
    fn out_of_vocabulary_prompt_is_rejected_at_submit() {
        let model = tiny_model();
        let pool = BlockPool::new(model.config(), budget(64));
        let mut engine = Engine::new(&model, &AttentionKind::Exact, pool, ServeConfig::default());
        engine.submit(Request::new(3, vec![1, 256, 2], 4));
    }

    #[test]
    #[should_panic(expected = "serve: request 1 needs 25 positions, above max_seq 24")]
    fn max_seq_bounds_what_submit_accepts() {
        // The engine feeds `prompt + max_tokens - 1` positions (the last
        // generated token is never fed back), speculative verify rows
        // included, so with `max_seq` 24 and a 4-token prompt 21 tokens is
        // the largest request that fits.
        let mut cfg = ModelConfig::tiny("serve", 2, 32, 2);
        cfg.max_seq = 24;
        let model = Model::random(cfg, 71);
        let p = prompt(5, 4);
        let pool = BlockPool::new(model.config(), budget(64));
        let mut engine = Engine::new(&model, &AttentionKind::Exact, pool, ServeConfig::default());
        engine.submit(Request::new(0, p.clone(), 21).with_speculation(SpecConfig::recency(4)));
        let report = engine.run();
        // `Session::generate_greedy` also feeds its last token, so the
        // reference runs on the same weights at the default `max_seq`
        // (rotary positions: `max_seq` draws no weights).
        assert_eq!(report.outcomes[0].tokens, solo(&tiny_model(), &p, 21, None));
        engine.submit(Request::new(1, p, 22));
    }

    #[test]
    fn speculative_and_plain_requests_coexist_and_match_solo() {
        let model = tiny_model();
        let cfg = ServeConfig {
            max_active: 3,
            prefill_chunk: 2,
            eos: None,
            parallelism: 1,
            ..ServeConfig::default()
        };
        let pool = BlockPool::new(&ModelConfig::tiny("serve", 2, 32, 2), budget(64));
        let mut engine = Engine::new(&model, &AttentionKind::Exact, pool, cfg);
        // Requests 0 and 2 speculate (different policies), request 1 stays
        // plain; all three share ticks.
        engine.submit(
            Request::new(0, prompt(0, 9), 24)
                .with_speculation(lad_model::spec::SpecConfig::recency(4)),
        );
        engine.submit(Request::new(1, prompt(1, 6), 15));
        engine.submit(
            Request::new(2, prompt(2, 11), 20)
                .with_speculation(lad_model::spec::SpecConfig::ngram(2))
                .arriving_at(3),
        );
        let report = engine.run();

        assert_eq!(report.outcomes.len(), 3);
        assert_solo_streams(
            &report,
            &model,
            &AttentionKind::Exact,
            &[(0u64, 9usize, 24usize), (1, 6, 15), (2, 11, 20)],
        );
        // Speculation actually ran: rounds were recorded and every round
        // committed at least the bonus token.
        assert!(report.accepted_len.count() > 0, "no verify rounds recorded");
        assert!(report.mean_accepted_len() >= 1.0);
        assert!(report.spec_accepted <= report.spec_drafted);
        // The tiny model's greedy stream cycles, so the recency drafter must
        // land at least one accepted draft over 40+ generated tokens.
        assert!(
            report.spec_accepted > 0,
            "drafter never predicted the cycle"
        );
    }

    #[test]
    fn speculative_request_survives_forced_preemption() {
        let model = tiny_model();
        let cfg = ServeConfig {
            max_active: 2,
            prefill_chunk: 1,
            eos: None,
            parallelism: 1,
            ..ServeConfig::default()
        };
        // Three blocks, two speculating requests that must each cross the
        // 16-token block boundary a few tokens into decode: whoever crosses
        // second finds the pool dry mid-speculation and is preempted.
        let pool = BlockPool::new(&ModelConfig::tiny("serve", 2, 32, 2), budget(3));
        let mut engine = Engine::new(&model, &AttentionKind::Exact, pool, cfg);
        let spec = lad_model::spec::SpecConfig::recency(4);
        let specs = [(0u64, 12usize, 24usize), (1, 12, 24)];
        for &(id, plen, max) in &specs {
            engine.submit(Request::new(id, prompt(id, plen), max).with_speculation(spec.clone()));
        }
        let report = engine.run();

        assert!(
            report.preemptions >= 1,
            "pool pressure must force a preemption"
        );
        assert_solo_streams(&report, &model, &AttentionKind::Exact, &specs);
    }

    #[test]
    fn speculative_eos_stops_exactly_where_solo_does() {
        let model = tiny_model();
        let p = prompt(3, 10);
        let reference = solo(&model, &p, 12, None);
        let eos = reference[2];
        let expect = solo(&model, &p, 12, Some(eos));
        assert!(expect.len() < 12, "chosen EOS must truncate");

        let cfg = ServeConfig {
            eos: Some(eos),
            ..ServeConfig::default()
        };
        let pool = BlockPool::new(&ModelConfig::tiny("serve", 2, 32, 2), budget(64));
        let mut engine = Engine::new(&model, &AttentionKind::Exact, pool, cfg);
        engine.submit(
            Request::new(7, p, 12).with_speculation(lad_model::spec::SpecConfig::recency(4)),
        );
        let report = engine.run();

        let out = &report.outcomes[0];
        assert_eq!(out.finish, FinishReason::Eos);
        assert_eq!(out.tokens, expect, "tokens past EOS must be discarded");
    }

    #[test]
    fn speculation_matches_greedy_for_both_policies() {
        let model = tiny_model();
        let p = [3u32, 1, 4, 1, 5];
        let want = solo(&model, &p, 24, None);
        for spec in [SpecConfig::recency(4), SpecConfig::ngram(4)] {
            let report = serve_alone(&model, &AttentionKind::Exact, &p, 24, &spec);
            assert_eq!(
                report.outcomes[0].tokens, want,
                "{:?} diverged from greedy",
                spec.policy
            );
            assert!(report.spec_accepted <= report.spec_drafted);
        }
    }

    #[test]
    fn k_zero_speculation_is_one_tick_per_token() {
        let model = tiny_model();
        let p = [7u32, 8, 9];
        let report = serve_alone(
            &model,
            &AttentionKind::Exact,
            &p,
            12,
            &SpecConfig::recency(0),
        );
        assert_eq!(report.outcomes[0].tokens, solo(&model, &p, 12, None));
        // One prefill tick yields the first token, then one tick per token.
        assert_eq!(report.steps, 12);
        assert_eq!(report.spec_drafted, 0);
        assert_eq!(report.acceptance_pct.count(), 0);
        assert!((report.mean_accepted_len() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn speculation_matches_greedy_for_sparse_backends() {
        // Speculation with rollback (K = 4) and the degenerate one-token
        // rounds (K = 0) must both reproduce plain greedy decoding, with
        // budgets tight enough that top-k selection and H2O eviction are
        // exercised mid-speculation.
        let model = tiny_model();
        let p = [3u32, 1, 4, 1, 5];
        for kind in [AttentionKind::topk(4), AttentionKind::h2o_budget(8, 4)] {
            let want = solo_kind(&model, &kind, &p, 24, None);
            for k in [0usize, 4] {
                let report = serve_alone(&model, &kind, &p, 24, &SpecConfig::recency(k));
                assert_eq!(
                    report.outcomes[0].tokens, want,
                    "{kind:?} K={k} diverged from greedy"
                );
            }
        }
    }

    #[test]
    fn cyclic_stream_reaches_high_acceptance() {
        // Greedy decoding of a tiny random model settles into a short cycle;
        // once the cycle has been seen the recency drafter predicts it
        // perfectly, so speculation must commit > 1 token per forward pass.
        let model = tiny_model();
        let p = [3u32, 1, 4, 1, 5];
        let report = serve_alone(
            &model,
            &AttentionKind::Exact,
            &p,
            48,
            &SpecConfig::recency(4),
        );
        assert!(
            report.mean_accepted_len() > 1.0,
            "mean accepted length {} never beat plain decoding",
            report.mean_accepted_len()
        );
        // Every tick after the prefill tick is one verify round.
        assert_eq!(report.accepted_len.count() as usize, report.steps - 1);
    }

    #[test]
    fn mixed_backend_requests_match_their_solo_streams() {
        let model = tiny_model();
        let cfg = ServeConfig {
            max_active: 4,
            prefill_chunk: 2,
            eos: None,
            parallelism: 1,
            ..ServeConfig::default()
        };
        let pool = BlockPool::new(&ModelConfig::tiny("serve", 2, 32, 2), budget(64));
        // Engine default is exact; the other three override per request, so
        // all four backends share the same engine ticks.
        let mut engine = Engine::new(&model, &AttentionKind::Exact, pool, cfg);
        let kinds: [(u64, Option<AttentionKind>); 4] = [
            (0, None),
            (
                1,
                Some(AttentionKind::Lad(lad_core::decoder::LadConfig::default())),
            ),
            (2, Some(AttentionKind::topk(6))),
            (3, Some(AttentionKind::h2o_budget(12, 4))),
        ];
        for (id, kind) in &kinds {
            let mut req =
                Request::new(*id, prompt(*id, 8 + *id as usize), 20).arriving_at(*id as usize);
            if let Some(kind) = kind {
                req = req.with_backend(kind.clone());
            }
            engine.submit(req);
        }
        let report = engine.run();

        assert_eq!(report.outcomes.len(), kinds.len());
        assert_eq!(report.preemptions, 0);
        let mut streams = Vec::new();
        for (id, kind) in &kinds {
            let got = report
                .outcomes
                .iter()
                .find(|o| o.id == *id)
                .expect("request retired")
                .tokens
                .clone();
            let kind = kind.clone().unwrap_or(AttentionKind::Exact);
            let want = solo_kind(&model, &kind, &prompt(*id, 8 + *id as usize), 20, None);
            assert_eq!(got, want, "request {id} under {kind:?}");
            streams.push(got);
        }
        // The backends genuinely disagree on this model (otherwise the test
        // would pass with the per-request kind silently ignored).
        assert!(
            streams.iter().any(|s| s != &streams[0]),
            "all backends produced one stream; per-request kinds untested"
        );
    }

    #[test]
    fn h2o_request_survives_forced_preemption() {
        let model = tiny_model();
        let cfg = ServeConfig {
            max_active: 2,
            prefill_chunk: 1,
            eos: None,
            parallelism: 1,
            ..ServeConfig::default()
        };
        let kind = AttentionKind::h2o_budget(10, 4);
        // Same three-block squeeze as the exact-attention preemption test:
        // the H2O victim's KV (eviction state included) is dropped and must
        // be reproduced by replaying the folded prompt through H2O again.
        let pool = BlockPool::new(&ModelConfig::tiny("serve", 2, 32, 2), budget(3));
        let mut engine = Engine::new(&model, &AttentionKind::Exact, pool, cfg);
        let specs = [(0u64, 8usize, 24usize), (1, 8, 24)];
        for &(id, plen, max) in &specs {
            engine.submit(Request::new(id, prompt(id, plen), max).with_backend(kind.clone()));
        }
        let report = engine.run();

        assert!(
            report.preemptions >= 1,
            "pool pressure must force a preemption"
        );
        assert_solo_streams(&report, &model, &kind, &specs);
    }

    /// Two rolling-window H2O requests (`spec` opts both into speculation)
    /// in a 9-block pool. A zero heavy budget keeps exactly the 8 newest
    /// positions alive per head, so older blocks go fully dead as decode
    /// rolls past them. Each request spans 88 tokens = 6 blocks; two of them
    /// need 12 blocks at peak without eviction feedback, which would force a
    /// preemption. Reclaimed dead blocks keep each request's footprint at
    /// ~2 blocks, so both fit. After every tick, each position the pool
    /// holds dead must be evicted by every head of its sample (`mark_dead`
    /// is irreversible). Returns the report after checking that no request
    /// was preempted and both streams equal their solo decodes.
    fn serve_rolling_window_pair(spec: Option<SpecConfig>) -> ServeReport {
        let model = tiny_model();
        let cfg = ServeConfig {
            max_active: 2,
            prefill_chunk: 4,
            eos: None,
            parallelism: 1,
            ..ServeConfig::default()
        };
        let kind = AttentionKind::h2o_budget(0, 8);
        let pool = BlockPool::new(&ModelConfig::tiny("serve", 2, 32, 2), budget(9));
        let mut engine = Engine::new(&model, &AttentionKind::Exact, pool, cfg);
        let specs = [(0u64, 8usize, 80usize), (1, 8, 80)];
        for &(id, plen, max) in &specs {
            let mut req = Request::new(id, prompt(id, plen), max).with_backend(kind.clone());
            req.spec = spec.clone();
            engine.submit(req);
        }
        while engine.queued() + engine.active() > 0 {
            engine.tick();
            for a in &engine.active {
                let dead = engine.session.dead_positions(a.slot);
                for pos in 0..engine.session.position(a.slot) {
                    assert!(
                        !engine.pool.is_dead(a.pool_id, pos) || dead.contains(&pos),
                        "tick {}: request {} position {pos} reclaimed while alive",
                        engine.step,
                        a.state.id
                    );
                }
            }
        }
        let report = engine.run();
        assert_eq!(
            report.preemptions, 0,
            "reclaimed blocks must absorb the concurrent overhang"
        );
        assert_solo_streams(&report, &model, &kind, &specs);
        report
    }

    #[test]
    fn eviction_returns_blocks_to_the_pool() {
        serve_rolling_window_pair(None);
    }

    #[test]
    fn speculative_eviction_reclaims_only_committed_rows() {
        // Reclaim runs after the tick's rollback: a rejected draft row's
        // evictions are undone before the pool sees them, so no position a
        // head revives on rollback is ever marked dead.
        let report = serve_rolling_window_pair(Some(SpecConfig::recency(4)));
        assert_eq!((report.spec_drafted, report.spec_accepted), (185, 79));
    }

    #[test]
    fn only_the_missed_deadline_is_marked() {
        let model = tiny_model();
        let pool = BlockPool::new(&ModelConfig::tiny("serve", 2, 32, 2), budget(64));
        let mut engine = Engine::new(&model, &AttentionKind::Exact, pool, ServeConfig::default());
        engine.submit(Request::new(0, prompt(0, 4), 5));
        engine.submit(Request::new(1, prompt(1, 4), 5).with_deadline(Duration::ZERO));
        let report = engine.run();

        let missed = report.outcomes.iter().find(|o| o.id == 1).unwrap();
        assert!(!missed.met_deadline, "a zero deadline cannot be met");
        let good: usize = report
            .outcomes
            .iter()
            .filter(|o| o.met_deadline)
            .map(|o| o.tokens.len())
            .sum();
        assert_eq!(good, 5);
    }
}
