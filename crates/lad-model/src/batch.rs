//! Step-synchronous batched decoding across samples.
//!
//! The paper's throughput evaluation decodes batches of samples; each sample
//! owns its per-head attention state but shares the model weights. A
//! [`BatchSession`] advances all samples **one token per global step**, their
//! activation vectors stacked into a `batch × hidden` matrix so every linear
//! layer runs as a single cross-sample blocked GEMM ([`lad_math::gemm`]) —
//! the weights stream once per step instead of once per sample. The
//! attention heads, which own per-sample state, are the only part that fans
//! out: one task per chunk of samples per layer on the shared
//! [`WorkerPool`]. This is the only parallel decode path; the serving
//! engine (speculative verify rounds included) and [`decode_batch_gemm`]
//! drive it.
//!
//! Neither batching nor scheduling changes results: the GEMM's ascending-`k`
//! accumulation contract makes every row bit-identical to the per-sample
//! `matvec`, samples are independent, and head outputs are collected in
//! (row, head) order. `tests/differential.rs` pins tokens and algorithmic
//! stats against solo [`Session`](crate::transformer::Session) decodes, the
//! sequential reference.

use crate::backend::{AttentionKind, HeadCheckpoint, HeadState, HeadStepOutput};
use crate::config::{MlpKind, PositionKind};
use crate::layers::{gelu, rope_in_place, silu, ROPE_BASE};
use crate::transformer::{argmax, Model};
use lad_core::pool::{PoolMetrics, WorkerPool};
use lad_core::stats::{GemmBatchMetrics, StatsSummary, StepStats};
use lad_math::gemm::{gemm_bt_into, GemmScratch};
use lad_math::vector;

/// Result of decoding one batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResult {
    /// Generated tokens per sample, prompt order.
    pub sequences: Vec<Vec<u32>>,
    /// Step statistics of every (sample, layer, head) at the final step —
    /// every backend reports the shared traffic counters; LAD additionally
    /// fills its identification fields.
    pub final_stats: Vec<StepStats>,
    /// Worker-pool scheduling counters metered across the whole batch (zero
    /// when every step ran inline; best-effort on a pool shared with
    /// concurrent decodes).
    pub pool: PoolMetrics,
    /// Batched-GEMM calls and step barriers crossed.
    pub gemm: GemmBatchMetrics,
}

impl BatchResult {
    /// Aggregate of the final-step LAD statistics, with the batch's pool
    /// and batched-GEMM scheduling counters attached.
    pub fn stats_summary(&self) -> StatsSummary {
        StatsSummary::from_steps(&self.final_stats)
            .with_pool_metrics(self.pool)
            .with_gemm_metrics(self.gemm)
    }
}

/// Reused activation matrices of a [`BatchSession`]: every buffer holds
/// `active` stacked per-sample rows, so after the first step the batched hot
/// path performs no per-projection allocation.
#[derive(Debug, Clone, Default)]
struct BatchScratch {
    x: Vec<f32>,
    normed: Vec<f32>,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    attn: Vec<f32>,
    proj: Vec<f32>,
    up: Vec<f32>,
    gate: Vec<f32>,
    final_h: Vec<f32>,
    logits: Vec<f32>,
    gemm: GemmScratch,
}

impl BatchScratch {
    fn resize(&mut self, active: usize, hidden: usize, intermediate: usize, vocab: usize) {
        for buf in [
            &mut self.x,
            &mut self.normed,
            &mut self.q,
            &mut self.k,
            &mut self.v,
            &mut self.attn,
            &mut self.proj,
            &mut self.final_h,
        ] {
            buf.resize(active * hidden, 0.0);
        }
        self.up.resize(active * intermediate, 0.0);
        self.gate.resize(active * intermediate, 0.0);
        self.logits.resize(active * vocab, 0.0);
    }
}

/// Result of one [`BatchSession::step`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The step fed `active` token rows (one per sample on the plain
    /// [`BatchSession::step`] path; the summed run lengths under
    /// [`BatchSession::step_runs`]).
    Advanced {
        /// Number of token rows the step fed.
        active: usize,
    },
    /// The token list was empty — the step was a no-op: no position moved,
    /// no barrier was crossed, no GEMM ran and the logits buffer is
    /// untouched. A scheduler whose active set momentarily drains (all
    /// requests retired, next arrival still in the queue) hits this.
    Idle,
}

/// One sample's run of consecutive tokens in a [`BatchSession::step_runs`]
/// call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run<'a> {
    /// Sample slot the run feeds.
    pub sample: usize,
    /// Tokens fed in order; row `r` attends over the KV state rows `< r`
    /// left behind.
    pub tokens: &'a [u32],
    /// Trailing rows [`BatchSession::rollback_sample`] may unwind (the drafts
    /// of a speculative verify run). Only these rows are checkpointed, so a
    /// run with `drafts == 0` — a prompt chunk, a plain decode token — costs
    /// no checkpoint at all.
    pub drafts: usize,
}

impl<'a> Run<'a> {
    /// A run that is never rolled back: prompt tokens or a plain decode
    /// token.
    pub fn new(sample: usize, tokens: &'a [u32]) -> Run<'a> {
        Run {
            sample,
            tokens,
            drafts: 0,
        }
    }

    /// A speculative verify run: the pending token followed by drafted
    /// tokens, every draft row rollback-able.
    pub fn verify(sample: usize, tokens: &'a [u32]) -> Run<'a> {
        Run {
            sample,
            tokens,
            drafts: tokens.len().saturating_sub(1),
        }
    }
}

/// Rollback state of one sample's run with drafts, captured during the
/// latest [`BatchSession::step_runs`] so rejected speculative rows can be
/// unwound.
#[derive(Debug)]
struct SampleCheckpoints {
    sample: usize,
    /// Tokens the sample had consumed before the run.
    pos_before: usize,
    run_len: usize,
    /// First rollback-able row (`run_len - drafts`): a rollback keeps at
    /// least this many rows.
    first_row: usize,
    /// Head state before each rollback-able row, indexed
    /// `((row - first_row) * layers + layer) * heads + head`.
    heads: Vec<Option<HeadCheckpoint>>,
}

/// Step-synchronous batched decode session (the cross-sample GEMM engine).
///
/// Where one [`Session`](crate::transformer::Session) per sample streams
/// every weight matrix once per sample per step, a `BatchSession` advances
/// **all** samples one token per global step: the per-sample activation
/// vectors are stacked into a `batch × hidden` matrix and every linear layer
/// runs as *one* matrix-matrix product ([`lad_math::gemm`]) — the weights
/// stream once per step, not once per sample. The attention heads, which own
/// per-sample state, fan out as one pool task per (sample-chunk, layer) on
/// the process-global [`WorkerPool`].
///
/// The GEMM kernel's ascending-`k` accumulation contract makes every row of
/// a batched projection bit-identical to the per-sample `matvec`, so tokens
/// and algorithmic stats are exactly those of a solo `Session`;
/// `tests/differential.rs` pins this down.
///
/// # Dynamic membership
///
/// Membership is not fixed at construction: [`BatchSession::add_sample`]
/// opens a fresh sample slot mid-flight (reusing slots freed by
/// [`BatchSession::remove_sample`]) and `remove_sample` drops a sample and
/// its KV state. A continuous-batching scheduler (`lad-serve`) admits and
/// retires requests per global step this way; [`BatchSession::dynamic`]
/// opens a session with zero slots for exactly that use. Slot indices are
/// stable while a sample is live.
#[derive(Debug)]
pub struct BatchSession<'m> {
    model: &'m Model,
    /// Attention backend every sample's heads run (kept for
    /// [`BatchSession::add_sample`]).
    kind: AttentionKind,
    /// Attention state, indexed `[sample][layer][head]`.
    heads: Vec<Vec<Vec<HeadState>>>,
    /// Tokens consumed so far, per sample.
    pos: Vec<usize>,
    /// Whether each slot currently holds a live sample.
    live: Vec<bool>,
    /// Slots freed by [`BatchSession::remove_sample`], ready for reuse.
    free_slots: Vec<usize>,
    /// Fan-out width of the per-layer sample-chunk scheduling.
    parallelism: usize,
    /// Per-sample statistics from each sample's latest step: one entry per
    /// (layer, row, head) in that order, so `layers × rows × heads` entries
    /// after a multi-row run (rejected rows included) and plain
    /// (layer, head) order after a one-row step.
    last_stats: Vec<Vec<StepStats>>,
    scratch: BatchScratch,
    gemm_metrics: GemmBatchMetrics,
    pool_metrics: PoolMetrics,
    /// Run descriptors of the in-flight step (samples, run lengths, draft
    /// rows, tokens run-major) — reused scratch so stepping stays
    /// allocation-free.
    run_samples: Vec<usize>,
    run_lens: Vec<usize>,
    run_drafts: Vec<usize>,
    run_tokens: Vec<u32>,
    /// Rollback checkpoints from the latest step's runs with drafts
    /// (invalidated by the next step).
    ckpts: Vec<SampleCheckpoints>,
}

impl<'m> BatchSession<'m> {
    /// Opens a step-synchronous session for `batch` samples over `model`,
    /// with every head running `kind`. Fan-out widths above 1 schedule
    /// sample chunks on the process-global [`WorkerPool`].
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0` or `parallelism == 0`.
    pub fn new(
        model: &'m Model,
        kind: &AttentionKind,
        batch: usize,
        parallelism: usize,
    ) -> BatchSession<'m> {
        assert!(batch > 0, "BatchSession: batch must be positive");
        BatchSession::build(model, kind, batch, parallelism)
    }

    /// Opens a session with **zero** sample slots for dynamic-membership
    /// schedulers: samples join via [`BatchSession::add_sample`] and leave
    /// via [`BatchSession::remove_sample`].
    ///
    /// # Panics
    ///
    /// Panics if `parallelism == 0`.
    pub fn dynamic(model: &'m Model, kind: &AttentionKind, parallelism: usize) -> BatchSession<'m> {
        BatchSession::build(model, kind, 0, parallelism)
    }

    fn build(
        model: &'m Model,
        kind: &AttentionKind,
        batch: usize,
        parallelism: usize,
    ) -> BatchSession<'m> {
        assert!(parallelism > 0, "BatchSession: threads must be positive");
        let d = model.cfg.head_dim();
        let heads = (0..batch)
            .map(|_| {
                (0..model.cfg.layers)
                    .map(|_| {
                        (0..model.cfg.heads)
                            .map(|_| HeadState::new(d, kind))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        BatchSession {
            model,
            kind: kind.clone(),
            heads,
            pos: vec![0; batch],
            live: vec![true; batch],
            free_slots: Vec::new(),
            parallelism,
            last_stats: vec![Vec::new(); batch],
            scratch: BatchScratch::default(),
            gemm_metrics: GemmBatchMetrics::default(),
            pool_metrics: PoolMetrics::default(),
            run_samples: Vec::new(),
            run_lens: Vec::new(),
            run_drafts: Vec::new(),
            run_tokens: Vec::new(),
            ckpts: Vec::new(),
        }
    }

    /// Number of sample slots (live samples plus freed slots awaiting
    /// reuse). Every statically-opened session has `batch() == live_samples()`
    /// until a sample is removed.
    pub fn batch(&self) -> usize {
        self.pos.len()
    }

    /// Number of currently live samples.
    pub fn live_samples(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    /// Whether slot `sample` currently holds a live sample.
    pub fn is_live(&self, sample: usize) -> bool {
        self.live.get(sample).copied().unwrap_or(false)
    }

    /// Opens a fresh sample slot mid-flight (position 0, empty KV state,
    /// same attention backend as the session) and returns its index. Freed
    /// slots are reused before the session grows.
    pub fn add_sample(&mut self) -> usize {
        let kind = self.kind.clone();
        self.add_sample_with_kind(&kind)
    }

    /// Like [`BatchSession::add_sample`], but the fresh sample's heads run
    /// `kind` instead of the session default — the serving engine uses this
    /// to mix attention backends inside one step-synchronous batch.
    pub fn add_sample_with_kind(&mut self, kind: &AttentionKind) -> usize {
        let cfg = &self.model.cfg;
        let d = cfg.head_dim();
        let fresh: Vec<Vec<HeadState>> = (0..cfg.layers)
            .map(|_| (0..cfg.heads).map(|_| HeadState::new(d, kind)).collect())
            .collect();
        match self.free_slots.pop() {
            Some(slot) => {
                debug_assert!(!self.live[slot], "free list held a live slot");
                self.heads[slot] = fresh;
                self.pos[slot] = 0;
                self.last_stats[slot].clear();
                self.live[slot] = true;
                slot
            }
            None => {
                self.heads.push(fresh);
                self.pos.push(0);
                self.last_stats.push(Vec::new());
                self.live.push(true);
                self.pos.len() - 1
            }
        }
    }

    /// Removes live sample `sample`, dropping its KV state; the slot is
    /// recycled by a later [`BatchSession::add_sample`].
    ///
    /// # Panics
    ///
    /// Panics if `sample` is out of range or not live (double remove).
    pub fn remove_sample(&mut self, sample: usize) {
        assert!(
            self.is_live(sample),
            "BatchSession::remove_sample: sample {sample} is not live"
        );
        self.live[sample] = false;
        self.heads[sample] = Vec::new();
        self.last_stats[sample].clear();
        self.pos[sample] = 0;
        self.free_slots.push(sample);
        // Stale rollback state must not survive into a reused slot.
        self.ckpts.retain(|c| c.sample != sample);
    }

    /// Tokens consumed so far by `sample`.
    pub fn position(&self, sample: usize) -> usize {
        self.pos[sample]
    }

    /// Arena positions of `sample` that **every** (layer, head) state has
    /// evicted — safe for a paged KV allocator to reclaim. Non-evicting
    /// backends never report any.
    ///
    /// # Panics
    ///
    /// Panics if `sample` is not live.
    pub fn dead_positions(&self, sample: usize) -> Vec<usize> {
        assert!(
            self.is_live(sample),
            "BatchSession::dead_positions: sample {sample} is not live"
        );
        let heads = &self.heads[sample];
        (0..self.pos[sample])
            .filter(|&p| heads.iter().flatten().all(|h| !h.is_alive(p)))
            .collect()
    }

    /// Step statistics of `sample` from its latest step: one entry per
    /// (layer, row, head), in that order. A one-row step yields the plain
    /// (layer, head) listing; a run of `L` rows through
    /// [`BatchSession::step_runs`] yields `layers × L × heads` entries, rows
    /// later rejected by [`BatchSession::rollback_sample`] included.
    pub fn last_stats(&self, sample: usize) -> &[StepStats] {
        &self.last_stats[sample]
    }

    /// Next-token logits of the `active_idx`-th row fed to the latest
    /// [`BatchSession::step`] / [`BatchSession::step_runs`] (rows are laid
    /// out run-major, so under `step` row index == token-list index).
    pub fn logits(&self, active_idx: usize) -> &[f32] {
        let vocab = self.model.cfg.vocab;
        &self.scratch.logits[active_idx * vocab..(active_idx + 1) * vocab]
    }

    /// Batched-GEMM calls and step barriers accumulated so far.
    pub fn gemm_metrics(&self) -> GemmBatchMetrics {
        self.gemm_metrics
    }

    /// Pool scheduling counters accumulated across this session's steps
    /// (best-effort on a pool shared with concurrent decodes).
    pub fn pool_metrics(&self) -> PoolMetrics {
        self.pool_metrics
    }

    /// Advances every listed sample by one token — one step-synchronous
    /// global step. `tokens` pairs each active sample index with the token
    /// it consumes, in strictly increasing sample order; inactive samples
    /// (already finished their ragged tail) are simply omitted. Logits land
    /// row-per-entry in [`BatchSession::logits`].
    ///
    /// An **empty** `tokens` slice is a documented no-op returning
    /// [`StepOutcome::Idle`]: nothing advances, no barrier or GEMM is
    /// counted, and the logits buffer keeps its previous contents. This is
    /// the idle tick of a scheduler whose active set momentarily drained.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is out of order, names a sample out of range or
    /// not live, a token outside the vocabulary, or a sample past the
    /// model's maximum sequence length.
    pub fn step(&mut self, tokens: &[(usize, u32)]) -> StepOutcome {
        self.run_samples.clear();
        self.run_lens.clear();
        self.run_drafts.clear();
        self.run_tokens.clear();
        for &(s, t) in tokens {
            self.run_samples.push(s);
            self.run_lens.push(1);
            self.run_drafts.push(0);
            self.run_tokens.push(t);
        }
        self.step_flat()
    }

    /// Advances every listed sample by a *run* of consecutive tokens in one
    /// step-synchronous global step — the shape of both a prompt chunk and
    /// a speculative verify round. All rows of all runs are stacked
    /// run-major into the shared activation matrix, so each linear layer is
    /// still one cross-sample GEMM; within a run the attention heads consume
    /// the rows sequentially (row `r` attends over the KV state left by rows
    /// `< r`), making every row's logits bit-identical to feeding the same
    /// tokens one [`BatchSession::step`] at a time. Logits land row-per-row
    /// in [`BatchSession::logits`], in run order (a run of length `L`
    /// starting at global row `r0` owns rows `r0..r0 + L`).
    ///
    /// Only a run's last [`Run::drafts`] rows are checkpointed: the session
    /// records the head state before each of them so
    /// [`BatchSession::rollback_sample`] can unwind rejected speculative
    /// rows. A run with no drafts — prompt tokens, a plain decode token —
    /// skips the bookkeeping entirely.
    ///
    /// An empty `runs` slice is the same documented no-op as an empty
    /// [`BatchSession::step`], returning [`StepOutcome::Idle`].
    ///
    /// # Panics
    ///
    /// Panics on out-of-order or repeated sample indices, empty runs, more
    /// drafts than rows, samples out of range or not live, tokens outside
    /// the vocabulary, or a run overshooting the model's maximum sequence
    /// length.
    pub fn step_runs(&mut self, runs: &[Run<'_>]) -> StepOutcome {
        self.run_samples.clear();
        self.run_lens.clear();
        self.run_drafts.clear();
        self.run_tokens.clear();
        for run in runs {
            self.run_samples.push(run.sample);
            self.run_lens.push(run.tokens.len());
            self.run_drafts.push(run.drafts);
            self.run_tokens.extend_from_slice(run.tokens);
        }
        self.step_flat()
    }

    /// Unwinds sample `sample` to just after row `keep_rows` of its run in
    /// the latest [`BatchSession::step_runs`] call: head states are restored
    /// from the checkpoint taken before row `keep_rows` (KV arenas
    /// truncated, in-place metadata rewound) and the sample's position is
    /// reset, so subsequent steps are bit-identical to never having fed the
    /// rejected rows. Only draft rows can be unwound: `keep_rows` ranges
    /// from `run_len - drafts` to `run_len`, and `keep_rows == run_len` is a
    /// no-op. Each run's checkpoints can be consumed once and are
    /// invalidated by the next step.
    ///
    /// # Panics
    ///
    /// Panics if the latest step held no run with drafts for `sample` (or it
    /// was already rolled back), or if `keep_rows` is outside the range
    /// above.
    pub fn rollback_sample(&mut self, sample: usize, keep_rows: usize) {
        let _rollback_span = lad_obs::span("batch.rollback");
        let idx = self
            .ckpts
            .iter()
            .position(|c| c.sample == sample)
            .unwrap_or_else(|| panic!("rollback_sample: no checkpointed run for sample {sample}"));
        let ck = self.ckpts.swap_remove(idx);
        assert!(
            keep_rows <= ck.run_len,
            "rollback_sample: keep_rows {keep_rows} exceeds run length {}",
            ck.run_len
        );
        assert!(
            keep_rows >= ck.first_row,
            "rollback_sample: keep_rows {keep_rows} unwinds rows before the first draft row {}",
            ck.first_row
        );
        if keep_rows == ck.run_len {
            return;
        }
        let layers = self.model.cfg.layers;
        let heads_n = self.model.cfg.heads;
        for (layer, row) in self.heads[sample].iter_mut().enumerate() {
            for (h, head) in row.iter_mut().enumerate() {
                let slot = ((keep_rows - ck.first_row) * layers + layer) * heads_n + h;
                let hc = ck.heads[slot].as_ref().expect("checkpoint recorded");
                head.restore(hc);
            }
        }
        self.pos[sample] = ck.pos_before + keep_rows;
    }

    /// The shared step body: consumes the run descriptors staged in
    /// `run_samples` / `run_lens` / `run_drafts` / `run_tokens`.
    fn step_flat(&mut self) -> StepOutcome {
        let samples = std::mem::take(&mut self.run_samples);
        let lens = std::mem::take(&mut self.run_lens);
        let drafts = std::mem::take(&mut self.run_drafts);
        let toks = std::mem::take(&mut self.run_tokens);
        let outcome = self.step_impl(&samples, &lens, &drafts, &toks);
        self.run_samples = samples;
        self.run_lens = lens;
        self.run_drafts = drafts;
        self.run_tokens = toks;
        outcome
    }

    fn step_impl(
        &mut self,
        samples: &[usize],
        lens: &[usize],
        drafts: &[usize],
        toks: &[u32],
    ) -> StepOutcome {
        if samples.is_empty() {
            return StepOutcome::Idle;
        }
        let _step_span = lad_obs::span("batch.step");
        let cfg = &self.model.cfg;
        for pair in samples.windows(2) {
            assert!(
                pair[0] < pair[1],
                "BatchSession::step: sample indices must be strictly increasing"
            );
        }
        for ((&s, &len), &d) in samples.iter().zip(lens).zip(drafts) {
            assert!(len > 0, "BatchSession::step_runs: empty token run");
            assert!(d <= len, "BatchSession::step_runs: more drafts than rows");
            assert!(s < self.pos.len(), "sample index out of range");
            assert!(self.live[s], "BatchSession::step: sample {s} is not live");
            assert!(self.pos[s] + len <= cfg.max_seq, "sequence length exceeded");
        }
        for &t in toks {
            assert!((t as usize) < cfg.vocab, "token out of vocabulary");
        }
        let n_runs = samples.len();
        let rows = toks.len();
        let hidden = cfg.hidden;
        let d = cfg.head_dim();
        let heads_n = cfg.heads;
        let layers_n = cfg.layers;

        // Rollback state: one checkpoint set per run with drafts, filled
        // layer by layer below. The previous step's checkpoints die here.
        let mut ckpt_store = std::mem::take(&mut self.ckpts);
        ckpt_store.clear();
        // Run index -> index into `ckpt_store` (runs with drafts only).
        let mut store_of_run: Vec<Option<usize>> = Vec::with_capacity(n_runs);
        for ((&s, &len), &d) in samples.iter().zip(lens).zip(drafts) {
            if d > 0 {
                store_of_run.push(Some(ckpt_store.len()));
                ckpt_store.push(SampleCheckpoints {
                    sample: s,
                    pos_before: self.pos[s],
                    run_len: len,
                    first_row: len - d,
                    heads: std::iter::repeat_with(|| None)
                        .take(d * layers_n * heads_n)
                        .collect(),
                });
            } else {
                store_of_run.push(None);
            }
        }

        let width = self.parallelism.min(n_runs).max(1);
        let pool = (width > 1).then(WorkerPool::global);
        let pool_before = pool.map(|p| p.metrics());
        let mut gemm_calls = 0usize;

        // The scratch matrices move out of `self` for the step so the head
        // states below can be borrowed mutably alongside them.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.resize(rows, hidden, cfg.intermediate, cfg.vocab);
        let BatchScratch {
            x,
            normed,
            q,
            k,
            v,
            attn,
            proj,
            up,
            gate,
            final_h,
            logits,
            gemm,
        } = &mut scratch;

        let mut row0 = 0usize;
        for (&s, &len) in samples.iter().zip(lens) {
            for r in 0..len {
                let row = &mut x[(row0 + r) * hidden..(row0 + r + 1) * hidden];
                row.copy_from_slice(self.model.embed.row(toks[row0 + r] as usize));
                if let Some(pos_embed) = &self.model.pos_embed {
                    vector::axpy(row, 1.0, pos_embed.row(self.pos[s] + r));
                }
            }
            self.last_stats[s].clear();
            row0 += len;
        }

        let mut slots: Vec<Option<HeadStepOutput>> = Vec::new();
        let mut ck_slots: Vec<Option<HeadCheckpoint>> = Vec::new();
        for (layer, block) in self.model.blocks.iter().enumerate() {
            let qkv_span = lad_obs::span("batch.qkv_gemm");
            for a in 0..rows {
                block.norm1.forward_into(
                    &x[a * hidden..(a + 1) * hidden],
                    &mut normed[a * hidden..(a + 1) * hidden],
                );
            }
            // One cross-sample GEMM per projection: the whole batch shares a
            // single streaming pass over each weight matrix.
            block.wq.forward_batch_into(rows, normed, q, gemm);
            block.wk.forward_batch_into(rows, normed, k, gemm);
            block.wv.forward_batch_into(rows, normed, v, gemm);
            gemm_calls += 3;
            drop(qkv_span);

            if cfg.position == PositionKind::Rope {
                let mut row0 = 0usize;
                for (&s, &len) in samples.iter().zip(lens) {
                    for r in 0..len {
                        for h in 0..heads_n {
                            let base = (row0 + r) * hidden;
                            let span = base + h * d..base + (h + 1) * d;
                            rope_in_place(&mut q[span.clone()], self.pos[s] + r, ROPE_BASE);
                            rope_in_place(&mut k[span], self.pos[s] + r, ROPE_BASE);
                        }
                    }
                    row0 += len;
                }
            }

            // Gather each active sample's head row for this layer, in run
            // order, so chunks of runs can fan out as pool tasks.
            let mut layer_heads: Vec<&mut [HeadState]> = Vec::with_capacity(n_runs);
            {
                let mut head_rows = self.heads.iter_mut().enumerate();
                for &s in samples {
                    let row = loop {
                        let (i, row) = head_rows.next().expect("sample index in range");
                        if i == s {
                            break row;
                        }
                    };
                    layer_heads.push(&mut row[layer][..]);
                }
            }

            slots.clear();
            slots.resize_with(rows * heads_n, || None);
            ck_slots.clear();
            ck_slots.resize_with(rows * heads_n, || None);
            let attn_span = lad_obs::span("batch.attn_fanout");
            match pool {
                None => step_run_chunk(
                    0,
                    hidden,
                    d,
                    heads_n,
                    &mut layer_heads,
                    lens,
                    drafts,
                    &mut slots,
                    &mut ck_slots,
                    q,
                    k,
                    v,
                ),
                Some(pool) => {
                    let chunk = n_runs.div_ceil(width);
                    pool.scope(|scope| {
                        // Split runs — and their (row-aligned) output and
                        // checkpoint slots — at run boundaries.
                        let mut heads_rest: &mut [&mut [HeadState]] = &mut layer_heads;
                        let mut lens_rest: &[usize] = lens;
                        let mut drafts_rest: &[usize] = drafts;
                        let mut slots_rest: &mut [Option<HeadStepOutput>] = &mut slots;
                        let mut ck_rest: &mut [Option<HeadCheckpoint>] = &mut ck_slots;
                        let mut first_row = 0usize;
                        let mut first_piece = None;
                        let mut c = 0usize;
                        while !lens_rest.is_empty() {
                            let take = chunk.min(lens_rest.len());
                            let rows_here: usize = lens_rest[..take].iter().sum();
                            let (h_chunk, h_rest) = heads_rest.split_at_mut(take);
                            let (l_chunk, l_rest) = lens_rest.split_at(take);
                            let (d_chunk, d_rest) = drafts_rest.split_at(take);
                            let (s_chunk, s_rest) = slots_rest.split_at_mut(rows_here * heads_n);
                            let (c_chunk, c_rest) = ck_rest.split_at_mut(rows_here * heads_n);
                            heads_rest = h_rest;
                            lens_rest = l_rest;
                            drafts_rest = d_rest;
                            slots_rest = s_rest;
                            ck_rest = c_rest;
                            if c == 0 {
                                first_piece = Some((h_chunk, l_chunk, d_chunk, s_chunk, c_chunk));
                            } else {
                                let (q, k, v) = (&q, &k, &v);
                                let fr = first_row;
                                scope.spawn(move || {
                                    step_run_chunk(
                                        fr, hidden, d, heads_n, h_chunk, l_chunk, d_chunk, s_chunk,
                                        c_chunk, q, k, v,
                                    );
                                });
                            }
                            first_row += rows_here;
                            c += 1;
                        }
                        if let Some((h, l, dr, s, ck)) = first_piece {
                            step_run_chunk(0, hidden, d, heads_n, h, l, dr, s, ck, q, k, v);
                        }
                    });
                }
            }

            let mut row0 = 0usize;
            for (i, (&s, &len)) in samples.iter().zip(lens).enumerate() {
                let first_ck = len - drafts[i];
                for r in 0..len {
                    for h in 0..heads_n {
                        let out = slots[(row0 + r) * heads_n + h]
                            .take()
                            .expect("every head ran");
                        let base = (row0 + r) * hidden;
                        attn[base + h * d..base + (h + 1) * d].copy_from_slice(&out.output);
                        if let Some(mut stats) = out.stats {
                            stats.fanout_width = width;
                            self.last_stats[s].push(stats);
                        }
                        if let (Some(store), true) = (store_of_run[i], r >= first_ck) {
                            let ck = ck_slots[(row0 + r) * heads_n + h]
                                .take()
                                .expect("draft row checkpointed");
                            ckpt_store[store].heads
                                [((r - first_ck) * layers_n + layer) * heads_n + h] = Some(ck);
                        }
                    }
                }
                row0 += len;
            }
            drop(attn_span);

            {
                let _out_span = lad_obs::span("batch.out_gemm");
                block.wo.forward_batch_into(rows, attn, proj, gemm);
                gemm_calls += 1;
                for a in 0..rows {
                    vector::axpy(
                        &mut x[a * hidden..(a + 1) * hidden],
                        1.0,
                        &proj[a * hidden..(a + 1) * hidden],
                    );
                }
            }

            let _mlp_span = lad_obs::span("batch.mlp_gemm");
            for a in 0..rows {
                block.norm2.forward_into(
                    &x[a * hidden..(a + 1) * hidden],
                    &mut normed[a * hidden..(a + 1) * hidden],
                );
            }
            match cfg.mlp {
                MlpKind::Gelu => {
                    block.w_up.forward_batch_into(rows, normed, up, gemm);
                    for val in up.iter_mut() {
                        *val = gelu(*val);
                    }
                    block.w_down.forward_batch_into(rows, up, proj, gemm);
                    gemm_calls += 2;
                }
                MlpKind::SwiGlu => {
                    let w_gate = block
                        .w_gate
                        .as_ref()
                        .expect("SwiGLU blocks carry a gate projection");
                    w_gate.forward_batch_into(rows, normed, gate, gemm);
                    block.w_up.forward_batch_into(rows, normed, up, gemm);
                    for (g, &u) in gate.iter_mut().zip(up.iter()) {
                        *g = silu(*g) * u;
                    }
                    block.w_down.forward_batch_into(rows, gate, proj, gemm);
                    gemm_calls += 3;
                }
            }
            for a in 0..rows {
                vector::axpy(
                    &mut x[a * hidden..(a + 1) * hidden],
                    1.0,
                    &proj[a * hidden..(a + 1) * hidden],
                );
            }
        }

        let logits_span = lad_obs::span("batch.logits_gemm");
        for a in 0..rows {
            self.model.final_norm.forward_into(
                &x[a * hidden..(a + 1) * hidden],
                &mut final_h[a * hidden..(a + 1) * hidden],
            );
        }
        // The unembedding is one more cross-sample GEMM against the tied
        // embedding matrix.
        gemm_bt_into(
            rows,
            cfg.vocab,
            hidden,
            final_h,
            self.model.embed.as_slice(),
            logits,
            gemm,
        );
        gemm_calls += 1;
        drop(logits_span);

        for (&s, &len) in samples.iter().zip(lens) {
            self.pos[s] += len;
        }
        self.scratch = scratch;
        self.ckpts = ckpt_store;
        self.gemm_metrics.gemm_calls += gemm_calls;
        self.gemm_metrics.sync_barriers += 1;
        if let (Some(pool), Some(before)) = (pool, pool_before) {
            let delta = pool.metrics().delta(before);
            self.pool_metrics.tasks_executed += delta.tasks_executed;
            self.pool_metrics.tasks_stolen += delta.tasks_stolen;
            self.pool_metrics.idle_wakeups += delta.idle_wakeups;
            self.pool_metrics.scopes_completed += delta.scopes_completed;
            self.pool_metrics.park_nanos += delta.park_nanos;
        }
        StepOutcome::Advanced { active: rows }
    }
}

/// Steps every head of a contiguous chunk of runs whose first row sits at
/// global row `first_row`, writing each (row, head) output — and, for the
/// last `drafts` rows of each run, the head state *before* the row — into
/// its pre-assigned slot (the pool-task body of the per-(run-chunk, layer)
/// fan-out). Within a run each head consumes its rows oldest-first, so row
/// `r` attends over exactly the KV state rows `< r` left behind — the
/// sequential semantics prompt chunks and speculative verification rely on.
#[allow(clippy::too_many_arguments)]
fn step_run_chunk(
    first_row: usize,
    hidden: usize,
    d: usize,
    heads_n: usize,
    runs: &mut [&mut [HeadState]],
    run_lens: &[usize],
    run_drafts: &[usize],
    slots: &mut [Option<HeadStepOutput>],
    ckpts: &mut [Option<HeadCheckpoint>],
    q: &[f32],
    k: &[f32],
    v: &[f32],
) {
    let mut row = first_row;
    for ((run_heads, &len), &drafts) in runs.iter_mut().zip(run_lens).zip(run_drafts) {
        for (h, head) in run_heads.iter_mut().enumerate() {
            for r in 0..len {
                let base = (row + r) * hidden;
                let span = base + h * d..base + (h + 1) * d;
                let slot = (row + r - first_row) * heads_n + h;
                if r >= len - drafts {
                    ckpts[slot] = Some(head.checkpoint());
                }
                slots[slot] = Some(head.step(&q[span.clone()], &k[span.clone()], &v[span], false));
            }
        }
        row += len;
    }
}

/// Greedy-decodes every prompt for `steps` tokens through a step-synchronous
/// [`BatchSession`]: all samples advance one token per global step with
/// cross-sample batched GEMMs; ragged prompts are handled by shrinking the
/// active set as samples finish. Tokens and algorithmic stats are
/// bit-identical to one solo [`Session`](crate::transformer::Session) decode
/// per prompt at any `parallelism`.
///
/// # Panics
///
/// Panics if `parallelism == 0` or any prompt is empty.
pub fn decode_batch_gemm(
    model: &Model,
    kind: &AttentionKind,
    prompts: &[Vec<u32>],
    steps: usize,
    parallelism: usize,
) -> BatchResult {
    assert!(
        parallelism > 0,
        "decode_batch_gemm: threads must be positive"
    );
    assert!(
        prompts.iter().all(|p| !p.is_empty()),
        "decode_batch_gemm: empty prompt"
    );
    if prompts.is_empty() {
        return BatchResult {
            sequences: Vec::new(),
            final_stats: Vec::new(),
            pool: PoolMetrics::default(),
            gemm: GemmBatchMetrics::default(),
        };
    }
    let n = prompts.len();
    let lens: Vec<usize> = prompts.iter().map(|p| p.len()).collect();
    let horizon = lens.iter().copied().max().unwrap_or(0) + steps;
    let mut session = BatchSession::new(model, kind, n, parallelism);
    let mut next_token = vec![0u32; n];
    let mut generated: Vec<Vec<u32>> = vec![Vec::with_capacity(steps); n];
    let mut tokens: Vec<(usize, u32)> = Vec::with_capacity(n);

    #[allow(clippy::needless_range_loop)] // `t` is a global step counter, not a prompt index
    for t in 0..horizon {
        tokens.clear();
        for s in 0..n {
            // Sample `s` stays active while it still has prompt tokens to
            // consume or generated tokens to feed back — the same
            // `len + steps` consumption as `Session::generate_greedy`.
            if t < lens[s] + steps {
                let tok = if t < lens[s] {
                    prompts[s][t]
                } else {
                    next_token[s]
                };
                tokens.push((s, tok));
            }
        }
        if tokens.is_empty() {
            break;
        }
        session.step(&tokens);
        for (a, &(s, _)) in tokens.iter().enumerate() {
            if t + 1 >= lens[s] && generated[s].len() < steps {
                let next = argmax(session.logits(a));
                generated[s].push(next);
                next_token[s] = next;
            }
        }
    }

    let mut final_stats = Vec::new();
    for s in 0..n {
        final_stats.extend(session.last_stats(s).iter().copied());
    }
    BatchResult {
        sequences: generated,
        final_stats,
        pool: session.pool_metrics(),
        gemm: session.gemm_metrics(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::transformer::Session;
    use lad_core::decoder::LadConfig;

    fn model() -> Model {
        Model::random(ModelConfig::tiny("batch", 2, 32, 2), 71)
    }

    fn prompts() -> Vec<Vec<u32>> {
        vec![vec![1, 2, 3], vec![9, 8], vec![4, 4, 4, 4], vec![200, 100]]
    }

    /// The sequential reference: one solo [`Session`] greedy decode per
    /// prompt. Returns the generated tokens and every sample's final-step
    /// `algorithmic()` stats, prompt order.
    fn solo_reference(
        model: &Model,
        kind: &AttentionKind,
        prompts: &[Vec<u32>],
        steps: usize,
    ) -> (Vec<Vec<u32>>, Vec<StepStats>) {
        let mut sequences = Vec::new();
        let mut final_stats = Vec::new();
        for prompt in prompts {
            let mut session = Session::new(model, kind);
            sequences.push(session.generate_greedy(prompt, steps));
            final_stats.extend(session.last_stats().iter().map(|s| s.algorithmic()));
        }
        (sequences, final_stats)
    }

    #[test]
    #[should_panic(expected = "threads must be positive")]
    fn zero_threads_rejected() {
        decode_batch_gemm(&model(), &AttentionKind::Exact, &prompts(), 2, 0);
    }

    #[test]
    fn gemm_batch_matches_sequential_exactly() {
        // The tentpole invariant: the step-synchronous batched engine emits
        // bit-identical tokens and algorithmic stats to solo `Session`
        // decodes, for exact and LAD backends, ragged prompts included.
        let model = model();
        for kind in [
            AttentionKind::Exact,
            AttentionKind::Lad(LadConfig::default()),
            AttentionKind::topk(6),
            AttentionKind::h2o_budget(12, 4),
        ] {
            let (sequences, final_stats) = solo_reference(&model, &kind, &prompts(), 10);
            let batched = decode_batch_gemm(&model, &kind, &prompts(), 10, 1);
            assert_eq!(sequences, batched.sequences);
            let batched_stats: Vec<StepStats> = batched
                .final_stats
                .iter()
                .map(|s| s.algorithmic())
                .collect();
            assert_eq!(final_stats, batched_stats);
        }
    }

    #[test]
    fn gemm_batch_opt_style_matches_sequential() {
        // Learned positions + LayerNorm + GELU exercise the other batched
        // code paths (pos-embed add, gelu loop, no RoPE).
        let model = Model::random(ModelConfig::tiny_opt("opt-batch", 2, 32, 2), 77);
        let (sequences, _) = solo_reference(&model, &AttentionKind::Exact, &prompts(), 8);
        let batched = decode_batch_gemm(&model, &AttentionKind::Exact, &prompts(), 8, 1);
        assert_eq!(sequences, batched.sequences);
    }

    #[test]
    fn gemm_batch_fanout_is_bit_identical_to_inline() {
        let model = model();
        let kind = AttentionKind::Lad(LadConfig::default());
        let inline = decode_batch_gemm(&model, &kind, &prompts(), 10, 1);
        let fanned = decode_batch_gemm(&model, &kind, &prompts(), 10, 4);
        assert_eq!(inline.sequences, fanned.sequences);
        for (a, b) in inline.final_stats.iter().zip(&fanned.final_stats) {
            assert_eq!(a.algorithmic(), b.algorithmic());
        }
        // The fanned run scheduled head chunks on the pool.
        assert!(fanned.pool.tasks_executed > 0);
    }

    #[test]
    fn gemm_batch_counts_calls_and_barriers() {
        let model = model(); // tiny: 2 layers, SwiGLU -> 7 GEMMs/layer + unembed.
        let steps = 6;
        let batched = decode_batch_gemm(&model, &AttentionKind::Exact, &prompts(), steps, 1);
        let max_len = prompts().iter().map(Vec::len).max().unwrap();
        let barriers = max_len + steps;
        assert_eq!(batched.gemm.sync_barriers, barriers);
        assert_eq!(batched.gemm.gemm_calls, barriers * (2 * 7 + 1));
        let summary = batched.stats_summary();
        assert_eq!(summary.sync_barriers, barriers);
        assert_eq!(summary.gemm_calls, batched.gemm.gemm_calls);
    }

    #[test]
    fn empty_step_is_an_idle_noop() {
        let model = model();
        let mut session = BatchSession::new(&model, &AttentionKind::Exact, 2, 1);
        assert_eq!(
            session.step(&[(0, 1), (1, 2)]),
            StepOutcome::Advanced { active: 2 }
        );
        let logits_before = session.logits(0).to_vec();
        let gemm_before = session.gemm_metrics();
        assert_eq!(session.step(&[]), StepOutcome::Idle);
        assert_eq!(session.position(0), 1);
        assert_eq!(session.position(1), 1);
        assert_eq!(session.logits(0), &logits_before[..]);
        assert_eq!(session.gemm_metrics(), gemm_before);
        // Decoding continues unperturbed after the idle tick.
        assert_eq!(session.step(&[(0, 3)]), StepOutcome::Advanced { active: 1 });
        assert_eq!(session.position(0), 2);
    }

    #[test]
    fn dynamic_membership_matches_solo_sessions() {
        // A sample admitted mid-flight, one retired mid-flight, and one
        // reusing the freed slot all decode bit-identically to solo
        // sessions fed the same token streams.
        let model = model();
        let kind = AttentionKind::Exact;
        let mut session = BatchSession::dynamic(&model, &kind, 1);
        assert_eq!(session.live_samples(), 0);
        assert_eq!(session.step(&[]), StepOutcome::Idle);

        let tokens_a = [5u32, 6, 7, 8];
        let tokens_b = [40u32, 41, 42, 43];
        let a = session.add_sample();
        // a runs alone for two steps.
        session.step(&[(a, tokens_a[0])]);
        session.step(&[(a, tokens_a[1])]);
        // b joins mid-flight; two mixed steps finish a.
        let b = session.add_sample();
        assert_ne!(a, b);
        session.step(&[(a, tokens_a[2]), (b, tokens_b[0])]);
        session.step(&[(a, tokens_a[3]), (b, tokens_b[1])]);
        let logits_a = session.logits(0).to_vec();
        // a retires; b continues alone, then c reuses a's slot.
        session.remove_sample(a);
        session.step(&[(b, tokens_b[2])]);
        let c = session.add_sample();
        assert_eq!(c, a, "freed slot should be reused");
        let tokens_c = [100u32, 101];
        session.step(&[(c, tokens_c[0]), (b, tokens_b[3])]);
        let logits_b = session.logits(1).to_vec();
        session.step(&[(c, tokens_c[1])]);
        let logits_c = session.logits(0).to_vec();

        for (tokens, batched) in [
            (&tokens_a[..], logits_a),
            (&tokens_b[..], logits_b),
            (&tokens_c[..], logits_c),
        ] {
            let mut solo = Session::new(&model, &kind);
            let mut solo_logits = Vec::new();
            for &t in tokens {
                solo_logits = solo.step(t);
            }
            assert_eq!(batched, solo_logits);
        }
    }

    #[test]
    fn multi_row_run_matches_sequential_steps() {
        // A run of L tokens through `step_runs` must produce, row by row,
        // the exact logits of feeding the same tokens one `step` at a time —
        // for exact, LAD, top-k and H2O backends, mixed with a plain 1-row
        // sample. Stepped as a non-rollback run (a prompt chunk), it takes
        // no head checkpoint at all and cannot be rolled back.
        let model = model();
        for kind in [
            AttentionKind::Exact,
            AttentionKind::Lad(LadConfig::default()),
            AttentionKind::topk(6),
            AttentionKind::h2o_budget(12, 4),
        ] {
            let mut spec = BatchSession::new(&model, &kind, 2, 1);
            let mut seq = BatchSession::new(&model, &kind, 2, 1);
            for t in [3u32, 7, 11] {
                spec.step(&[(0, t), (1, t + 1)]);
                seq.step(&[(0, t), (1, t + 1)]);
            }
            let run = [20u32, 21, 22, 23];
            let before = checkpoints_taken();
            spec.step_runs(&[Run::new(0, &run), Run::new(1, &[50u32])]);
            assert_eq!(
                checkpoints_taken(),
                before,
                "{kind:?}: a run without drafts took head checkpoints"
            );
            // One stats entry per (layer, row, head): 2 layers x 2 heads.
            assert_eq!(spec.last_stats(0).len(), 2 * run.len() * 2);
            assert_eq!(spec.last_stats(1).len(), 2 * 2);
            let spec_logits: Vec<Vec<f32>> = (0..5).map(|r| spec.logits(r).to_vec()).collect();
            for (r, &t) in run.iter().enumerate() {
                seq.step(&[(0, t)]);
                assert_eq!(
                    spec_logits[r],
                    seq.logits(0),
                    "{kind:?}: run row {r} diverged from sequential step"
                );
            }
            seq.step(&[(1, 50)]);
            assert_eq!(
                spec_logits[4],
                seq.logits(0),
                "{kind:?}: plain row diverged"
            );
            assert_eq!(spec.position(0), seq.position(0));
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                spec.rollback_sample(0, 2);
            }));
            let message = caught
                .expect_err("rolling back a run without drafts must panic")
                .downcast::<String>()
                .expect("panic message is a formatted String");
            assert!(
                message.contains("no checkpointed run"),
                "{kind:?}: unexpected panic {message}"
            );
        }
    }

    /// [`HeadState::checkpoint`] calls made on this thread so far.
    fn checkpoints_taken() -> usize {
        crate::backend::CHECKPOINTS_TAKEN.with(|n| n.get())
    }

    #[test]
    fn verify_run_checkpoints_only_its_draft_rows() {
        // A verify run of a pending token plus three drafts snapshots each
        // head before every draft row and never before the pending row.
        let model = model(); // 2 layers x 2 heads
        for kind in [
            AttentionKind::Exact,
            AttentionKind::Lad(LadConfig::default()),
            AttentionKind::h2o_budget(12, 4),
        ] {
            let mut session = BatchSession::new(&model, &kind, 2, 1);
            session.step(&[(0, 5), (1, 6)]);
            let before = checkpoints_taken();
            session.step_runs(&[
                Run::verify(0, &[10u32, 11, 12, 13]),
                Run::new(1, &[40u32, 41, 42]),
            ]);
            assert_eq!(checkpoints_taken() - before, 3 * 2 * 2, "{kind:?}");
        }
    }

    #[test]
    #[should_panic(expected = "before the first draft row")]
    fn rollback_into_committed_rows_panics() {
        let model = model();
        let mut session = BatchSession::new(&model, &AttentionKind::Exact, 1, 1);
        session.step_runs(&[Run {
            sample: 0,
            tokens: &[1, 2, 3, 4],
            drafts: 2,
        }]);
        session.rollback_sample(0, 1);
    }

    #[test]
    fn rollback_sample_rewinds_bit_exactly() {
        // Feed a 4-row run, roll back to 2 kept rows, then continue: every
        // subsequent step must be bit-identical to a session that only ever
        // saw the kept prefix.
        let model = model();
        for kind in [
            AttentionKind::Exact,
            AttentionKind::Lad(LadConfig::default()),
            AttentionKind::topk(6),
            AttentionKind::h2o_budget(12, 4),
        ] {
            let mut spec = BatchSession::new(&model, &kind, 1, 1);
            let mut seq = BatchSession::new(&model, &kind, 1, 1);
            spec.step(&[(0, 5)]);
            seq.step(&[(0, 5)]);
            spec.step_runs(&[Run::verify(0, &[10u32, 11, 12, 13])]);
            spec.rollback_sample(0, 2);
            assert_eq!(spec.position(0), 3);
            seq.step(&[(0, 10)]);
            seq.step(&[(0, 11)]);
            for t in [30u32, 31, 32] {
                spec.step(&[(0, t)]);
                seq.step(&[(0, t)]);
                assert_eq!(
                    spec.logits(0),
                    seq.logits(0),
                    "{kind:?}: post-rollback diverged"
                );
            }
        }
    }

    #[test]
    fn step_runs_fanout_matches_inline() {
        // Mixed multi-row + plain runs under pool fan-out must be
        // bit-identical to the inline path.
        let model = model();
        let kind = AttentionKind::Lad(LadConfig::default());
        let mut inline = BatchSession::new(&model, &kind, 3, 1);
        let mut fanned = BatchSession::new(&model, &kind, 3, 4);
        for session in [&mut inline, &mut fanned] {
            session.step(&[(0, 1), (1, 2), (2, 3)]);
            session.step_runs(&[
                Run::verify(0, &[4u32, 5, 6]),
                Run::new(1, &[7u32]),
                Run::new(2, &[8u32, 9]),
            ]);
        }
        for r in 0..6 {
            assert_eq!(inline.logits(r), fanned.logits(r), "row {r} diverged");
        }
        inline.rollback_sample(0, 1);
        fanned.rollback_sample(0, 1);
        inline.step(&[(0, 40), (1, 41), (2, 42)]);
        fanned.step(&[(0, 40), (1, 41), (2, 42)]);
        for r in 0..3 {
            assert_eq!(inline.logits(r), fanned.logits(r), "post-rollback row {r}");
        }
    }

    #[test]
    #[should_panic(expected = "no checkpointed run")]
    fn rollback_without_multi_row_run_panics() {
        let model = model();
        let mut session = BatchSession::new(&model, &AttentionKind::Exact, 1, 1);
        session.step(&[(0, 1)]);
        session.rollback_sample(0, 1);
    }

    #[test]
    #[should_panic(expected = "empty token run")]
    fn empty_run_rejected() {
        let model = model();
        let mut session = BatchSession::new(&model, &AttentionKind::Exact, 1, 1);
        session.step_runs(&[Run::new(0, &[])]);
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn stepping_removed_sample_panics() {
        let model = model();
        let mut session = BatchSession::new(&model, &AttentionKind::Exact, 2, 1);
        session.remove_sample(1);
        session.step(&[(1, 3)]);
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn double_remove_panics() {
        let model = model();
        let mut session = BatchSession::new(&model, &AttentionKind::Exact, 2, 1);
        session.remove_sample(0);
        session.remove_sample(0);
    }

    #[test]
    fn batch_session_rejects_unsorted_samples() {
        let model = model();
        let mut session = BatchSession::new(&model, &AttentionKind::Exact, 3, 1);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.step(&[(1, 2), (0, 3)]);
        }));
        assert!(caught.is_err(), "unsorted sample list must panic");
    }

    #[test]
    #[should_panic(expected = "empty prompt")]
    fn empty_prompt_rejected_on_gemm_path() {
        decode_batch_gemm(&model(), &AttentionKind::Exact, &[vec![1], vec![]], 2, 1);
    }
}
