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
//! engine (`lad_serve::Engine`, speculative verify rounds included) drives
//! it.
//!
//! Neither batching nor scheduling changes results: the GEMM's ascending-`k`
//! accumulation contract makes every row bit-identical to the per-sample
//! `matvec`, samples are independent, and head outputs are collected in
//! (row, head) order. `tests/differential.rs` pins tokens and algorithmic
//! stats against solo [`Session`](crate::transformer::Session) decodes, the
//! sequential reference.

use crate::backend::{AttentionKind, HeadCheckpoint, HeadState, RowKind};
use crate::config::{MlpKind, PositionKind};
use crate::layers::{gelu, rope_in_place, silu, ROPE_BASE};
use crate::transformer::Model;
use lad_core::pool::WorkerPool;
use lad_core::stats::StepStats;
use lad_math::gemm::{gemm_bt_into, GemmScratch};
use lad_math::vector;

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
    /// Leading rows that are prompt rows ([`RowKind::Prompt`]); the rest
    /// are decode rows. Prompt rows are never drafts.
    pub prompt: usize,
    /// Trailing rows [`BatchSession::rollback_sample`] may unwind (the drafts
    /// of a speculative verify run). Only these rows are checkpointed, so a
    /// run with `drafts == 0` — a prompt chunk, a plain decode token — costs
    /// no checkpoint at all.
    pub drafts: usize,
}

impl<'a> Run<'a> {
    /// A run of decode rows that is never rolled back: a plain decode
    /// token, or generated tokens replayed after a preemption.
    pub fn new(sample: usize, tokens: &'a [u32]) -> Run<'a> {
        Run {
            sample,
            tokens,
            prompt: 0,
            drafts: 0,
        }
    }

    /// A run of prompt rows (a prompt chunk).
    pub fn prompt(sample: usize, tokens: &'a [u32]) -> Run<'a> {
        Run {
            sample,
            tokens,
            prompt: tokens.len(),
            drafts: 0,
        }
    }

    /// A speculative verify run: the pending token followed by drafted
    /// tokens, every draft row rollback-able.
    pub fn verify(sample: usize, tokens: &'a [u32]) -> Run<'a> {
        Run {
            sample,
            tokens,
            prompt: 0,
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
    /// `(layer * drafts + row - first_row) * heads + head`, so each layer's
    /// checkpoints are one contiguous slice.
    heads: Vec<Option<HeadCheckpoint>>,
}

/// One run's share of a layer's attention fan-out: the sample's heads of
/// that layer, the run's rows of the q/k/v and attention-output matrices,
/// and the slots its (row, head) stats and draft-row checkpoints land in.
struct RunWork<'a> {
    run: Run<'a>,
    heads: &'a mut [HeadState],
    q: &'a [f32],
    k: &'a [f32],
    v: &'a [f32],
    attn: &'a mut [f32],
    /// This layer's `rows × heads` stats, (row, head) order.
    stats: &'a mut [StepStats],
    /// This layer's `drafts × heads` checkpoints, (row, head) order; empty
    /// for a run without drafts.
    ckpts: &'a mut [Option<HeadCheckpoint>],
}

impl RunWork<'_> {
    /// Steps every head over the run's rows (the first [`Run::prompt`] as
    /// prompt rows), snapshotting each head before its draft rows. Each head
    /// consumes its rows oldest-first, so row `r` attends over exactly the
    /// KV state rows `< r` left behind — the sequential semantics prompt
    /// chunks and speculative verification rely on.
    fn step(&mut self, d: usize) {
        let heads_n = self.heads.len();
        let hidden = heads_n * d;
        let len = self.run.tokens.len();
        let first_draft = len - self.run.drafts;
        for (h, head) in self.heads.iter_mut().enumerate() {
            for r in 0..len {
                let kind = if r < self.run.prompt {
                    RowKind::Prompt
                } else {
                    RowKind::Decode
                };
                let span = r * hidden + h * d..r * hidden + (h + 1) * d;
                if r >= first_draft {
                    self.ckpts[(r - first_draft) * heads_n + h] = Some(head.checkpoint());
                }
                let out = head.step(
                    &self.q[span.clone()],
                    &self.k[span.clone()],
                    &self.v[span.clone()],
                    kind,
                    false,
                );
                self.attn[span].copy_from_slice(&out.output);
                self.stats[r * heads_n + h] = out.stats;
            }
        }
    }
}

/// Steps a pool task's chunk of runs.
fn step_chunk(work: &mut [RunWork<'_>], d: usize) {
    for w in work {
        w.step(d);
    }
}

/// Step-synchronous batched decode session (the cross-sample GEMM engine).
///
/// Where one [`Session`](crate::transformer::Session) per sample streams
/// every weight matrix once per sample per step, a `BatchSession` advances
/// **all** samples one token per global step: the per-sample activation
/// vectors are stacked into a `batch × hidden` matrix and every linear layer
/// runs as *one* matrix-matrix product ([`lad_math::gemm`]) — the weights
/// stream once per step, not once per sample. The attention heads, which own
/// per-sample state, fan out as one pool task per (run-chunk, layer) on
/// the process-global [`WorkerPool`].
///
/// The GEMM kernel's ascending-`k` accumulation contract makes every row of
/// a batched projection bit-identical to the per-sample `matvec`, so tokens
/// and stats are exactly those of a solo `Session`;
/// `tests/differential.rs` pins this down.
///
/// The activation matrices and the GEMM packing panel are reused across
/// steps, so the projections allocate nothing after the first step. Each
/// step still allocates small lists (the one-token runs [`BatchSession::step`]
/// builds, each layer's run work items) and every head step its output row.
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
    /// Fan-out width of the per-layer run-chunk scheduling.
    parallelism: usize,
    /// Per-sample statistics from each sample's latest step: one entry per
    /// (layer, row, head) in that order, so `layers × rows × heads` entries
    /// after a multi-row run (rejected rows included) and plain
    /// (layer, head) order after a one-row step.
    last_stats: Vec<Vec<StepStats>>,
    scratch: BatchScratch,
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

    /// Advances every listed sample by one token — one step-synchronous
    /// global step. `tokens` pairs each active sample index with the token
    /// it consumes, in strictly increasing sample order; inactive samples
    /// (already finished their ragged tail) are simply omitted. Every row is
    /// a decode row ([`RowKind::Decode`]); prompt rows go through
    /// [`BatchSession::step_runs`] with [`Run::prompt`]. Logits land
    /// row-per-entry in [`BatchSession::logits`].
    ///
    /// An **empty** `tokens` slice is a documented no-op returning
    /// [`StepOutcome::Idle`]: nothing advances, no GEMM runs, and the
    /// logits buffer keeps its previous contents. This is the idle tick of
    /// a scheduler whose active set momentarily drained.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is out of order, names a sample out of range or
    /// not live, a token outside the vocabulary, or a sample past the
    /// model's maximum sequence length.
    pub fn step(&mut self, tokens: &[(usize, u32)]) -> StepOutcome {
        let runs: Vec<Run<'_>> = tokens
            .iter()
            .map(|(s, t)| Run::new(*s, std::slice::from_ref(t)))
            .collect();
        self.step_runs(&runs)
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
    /// A run's first [`Run::prompt`] rows are prompt rows, the rest decode
    /// rows ([`RowKind`]). Only a run's last [`Run::drafts`] rows are
    /// checkpointed: the session records the head state before each of them
    /// so [`BatchSession::rollback_sample`] can unwind rejected speculative
    /// rows. A run with no drafts — prompt tokens, a plain decode token —
    /// skips the bookkeeping entirely.
    ///
    /// An empty `runs` slice is the same documented no-op as an empty
    /// [`BatchSession::step`], returning [`StepOutcome::Idle`].
    ///
    /// # Panics
    ///
    /// Panics on out-of-order or repeated sample indices, empty runs, prompt
    /// rows overlapping drafts, samples out of range or not live, tokens outside
    /// the vocabulary, or a run overshooting the model's maximum sequence
    /// length.
    pub fn step_runs(&mut self, runs: &[Run<'_>]) -> StepOutcome {
        if runs.is_empty() {
            return StepOutcome::Idle;
        }
        let _step_span = lad_obs::span("batch.step");
        let model = self.model;
        let cfg = &model.cfg;
        for pair in runs.windows(2) {
            assert!(
                pair[0].sample < pair[1].sample,
                "BatchSession::step: sample indices must be strictly increasing"
            );
        }
        for run in runs {
            let (s, len) = (run.sample, run.tokens.len());
            assert!(len > 0, "BatchSession::step_runs: empty token run");
            assert!(
                run.prompt + run.drafts <= len,
                "BatchSession::step_runs: prompt rows overlap drafts"
            );
            assert!(s < self.pos.len(), "sample index out of range");
            assert!(self.live[s], "BatchSession::step: sample {s} is not live");
            assert!(self.pos[s] + len <= cfg.max_seq, "sequence length exceeded");
            for &t in run.tokens {
                assert!((t as usize) < cfg.vocab, "token out of vocabulary");
            }
        }
        let rows: usize = runs.iter().map(|r| r.tokens.len()).sum();
        let hidden = cfg.hidden;
        let d = cfg.head_dim();
        let heads_n = cfg.heads;
        let layers_n = cfg.layers;

        // Rollback state: one checkpoint set per run with drafts, filled
        // layer by layer below. The previous step's checkpoints die here.
        self.ckpts.clear();
        for run in runs.iter().filter(|r| r.drafts > 0) {
            let len = run.tokens.len();
            self.ckpts.push(SampleCheckpoints {
                sample: run.sample,
                pos_before: self.pos[run.sample],
                run_len: len,
                first_row: len - run.drafts,
                heads: std::iter::repeat_with(|| None)
                    .take(run.drafts * layers_n * heads_n)
                    .collect(),
            });
        }
        for run in runs {
            let stats = &mut self.last_stats[run.sample];
            stats.clear();
            stats.resize(layers_n * run.tokens.len() * heads_n, StepStats::default());
        }

        let width = self.parallelism.min(runs.len());
        let pool = (width > 1).then(WorkerPool::global);
        let chunk = runs.len().div_ceil(width);

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
        for run in runs {
            let pos = self.pos[run.sample];
            for (r, &t) in run.tokens.iter().enumerate() {
                let row = &mut x[(row0 + r) * hidden..(row0 + r + 1) * hidden];
                row.copy_from_slice(model.embed.row(t as usize));
                if let Some(pos_embed) = &model.pos_embed {
                    vector::axpy(row, 1.0, pos_embed.row(pos + r));
                }
            }
            row0 += run.tokens.len();
        }

        for (layer, block) in model.blocks.iter().enumerate() {
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
            drop(qkv_span);

            if cfg.position == PositionKind::Rope {
                let mut row0 = 0usize;
                for run in runs {
                    let pos = self.pos[run.sample];
                    for r in 0..run.tokens.len() {
                        for h in 0..heads_n {
                            let base = (row0 + r) * hidden;
                            let span = base + h * d..base + (h + 1) * d;
                            rope_in_place(&mut q[span.clone()], pos + r, ROPE_BASE);
                            rope_in_place(&mut k[span], pos + r, ROPE_BASE);
                        }
                    }
                    row0 += run.tokens.len();
                }
            }

            let attn_span = lad_obs::span("batch.attn_fanout");
            {
                // One work item per run, in run order, so chunks of runs can
                // fan out as pool tasks that write their results in place.
                let mut work: Vec<RunWork<'_>> = Vec::with_capacity(runs.len());
                let mut samples = self.heads.iter_mut().zip(&mut self.last_stats).enumerate();
                let mut ckpts = self.ckpts.iter_mut();
                let mut attn_rest = &mut attn[..];
                let mut row0 = 0usize;
                for run in runs {
                    let (heads, stats) = loop {
                        let (i, sample) = samples.next().expect("sample index in range");
                        if i == run.sample {
                            break sample;
                        }
                    };
                    let len = run.tokens.len();
                    let (run_attn, rest) =
                        std::mem::take(&mut attn_rest).split_at_mut(len * hidden);
                    attn_rest = rest;
                    let run_ckpts: &mut [Option<HeadCheckpoint>] = if run.drafts > 0 {
                        let per_layer = run.drafts * heads_n;
                        let ck = ckpts
                            .next()
                            .expect("one checkpoint set per run with drafts");
                        &mut ck.heads[layer * per_layer..(layer + 1) * per_layer]
                    } else {
                        &mut []
                    };
                    let run_rows = row0 * hidden..(row0 + len) * hidden;
                    let layer_stats = len * heads_n;
                    work.push(RunWork {
                        run: *run,
                        heads: &mut heads[layer],
                        q: &q[run_rows.clone()],
                        k: &k[run_rows.clone()],
                        v: &v[run_rows],
                        attn: run_attn,
                        stats: &mut stats[layer * layer_stats..(layer + 1) * layer_stats],
                        ckpts: run_ckpts,
                    });
                    row0 += len;
                }
                let mut chunks = work.chunks_mut(chunk);
                let first = chunks.next().expect("a step has at least one run");
                match pool {
                    None => step_chunk(first, d),
                    Some(pool) => pool.scope(|scope| {
                        for rest in chunks {
                            scope.spawn(move || step_chunk(rest, d));
                        }
                        step_chunk(first, d);
                    }),
                }
            }
            drop(attn_span);

            {
                let _out_span = lad_obs::span("batch.out_gemm");
                block.wo.forward_batch_into(rows, attn, proj, gemm);
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
            model.final_norm.forward_into(
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
            model.embed.as_slice(),
            logits,
            gemm,
        );
        drop(logits_span);

        for run in runs {
            self.pos[run.sample] += run.tokens.len();
        }
        self.scratch = scratch;
        StepOutcome::Advanced { active: rows }
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
        let drafts = ck.run_len - ck.first_row;
        let heads_n = self.model.cfg.heads;
        for (layer, row) in self.heads[sample].iter_mut().enumerate() {
            for (h, head) in row.iter_mut().enumerate() {
                let slot = (layer * drafts + keep_rows - ck.first_row) * heads_n + h;
                let hc = ck.heads[slot].as_ref().expect("checkpoint recorded");
                head.restore(hc);
            }
        }
        self.pos[sample] = ck.pos_before + keep_rows;
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

    #[test]
    #[should_panic(expected = "threads must be positive")]
    fn zero_threads_rejected() {
        BatchSession::new(&model(), &AttentionKind::Exact, 2, 0);
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
        assert_eq!(session.step(&[]), StepOutcome::Idle);
        assert_eq!(session.position(0), 1);
        assert_eq!(session.position(1), 1);
        assert_eq!(session.logits(0), &logits_before[..]);
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
            prompt: 0,
            drafts: 2,
        }]);
        session.rollback_sample(0, 1);
    }

    #[test]
    #[should_panic(expected = "prompt rows overlap drafts")]
    fn prompt_rows_never_drafts() {
        let model = model();
        let mut session = BatchSession::new(&model, &AttentionKind::Exact, 1, 1);
        session.step_runs(&[Run {
            sample: 0,
            tokens: &[1, 2, 3],
            prompt: 2,
            drafts: 2,
        }]);
    }

    #[test]
    fn prompt_runs_match_session_prefill() {
        // A LAD sample fed its prompt as prompt runs (in chunks, one of
        // them ending in a decode row) then decoded must produce the logits
        // of a solo `Session::prefill` + `Session::step`, row for row.
        let model = model();
        let kind = AttentionKind::Lad(LadConfig {
            window: 4,
            ..LadConfig::default()
        });
        let prompt = [3u32, 1, 4, 1, 5, 9, 2, 6, 5, 3];
        let mut solo = Session::new(&model, &kind);
        let mut want = vec![solo.prefill(&prompt)];
        for t in [7u32, 8, 9] {
            want.push(solo.step(t));
        }
        let mut session = BatchSession::new(&model, &kind, 1, 1);
        session.step_runs(&[Run::prompt(0, &prompt[..6])]);
        session.step_runs(&[Run {
            sample: 0,
            tokens: &[prompt[6], prompt[7], prompt[8], prompt[9], 7],
            prompt: 4,
            drafts: 0,
        }]);
        assert_eq!(session.logits(3), &want[0][..], "last prompt row");
        assert_eq!(session.logits(4), &want[1][..], "first decode row");
        for (t, want) in [8u32, 9].into_iter().zip(&want[2..]) {
            session.step(&[(0, t)]);
            assert_eq!(session.logits(0), &want[..], "decode row {t}");
        }
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
        // Prompt chunks, verify runs and one-row runs under pool fan-out
        // must match the inline path bit for bit: logits, per-sample stats,
        // and the step after rolling back drafts. Five runs at widths 2, 3
        // and 4 split into uneven chunks of one to three runs.
        let model = model();
        let kind = AttentionKind::Lad(LadConfig {
            window: 4,
            ..LadConfig::default()
        });
        let prompts: Vec<Vec<u32>> = (0..5u32).map(|s| vec![s + 1, s + 9, 3, 5]).collect();
        let runs = [
            Run::verify(0, &[4u32, 5, 6]),
            Run::prompt(1, &[7u32, 8, 9, 10]),
            Run::new(2, &[11u32]),
            Run::verify(3, &[12u32, 13]),
            Run::new(4, &[14u32, 15]),
        ];
        let rows: usize = runs.iter().map(|r| r.tokens.len()).sum();
        let next: Vec<(usize, u32)> = (0..5).map(|s| (s, 40 + s as u32)).collect();
        let drive = |width: usize| {
            let mut session = BatchSession::new(&model, &kind, 5, width);
            let warm: Vec<Run<'_>> = prompts
                .iter()
                .enumerate()
                .map(|(s, p)| Run::prompt(s, p))
                .collect();
            session.step_runs(&warm);
            session.step_runs(&runs);
            let logits: Vec<Vec<f32>> = (0..rows).map(|r| session.logits(r).to_vec()).collect();
            let stats: Vec<Vec<StepStats>> =
                (0..5).map(|s| session.last_stats(s).to_vec()).collect();
            session.rollback_sample(0, 1);
            session.rollback_sample(3, 1);
            session.step(&next);
            let after: Vec<Vec<f32>> = (0..5).map(|r| session.logits(r).to_vec()).collect();
            (logits, stats, after)
        };
        let (logits, stats, after) = drive(1);
        for width in [2, 3, 4] {
            let fanned = drive(width);
            assert_eq!(fanned.0, logits, "width {width}: logits diverged");
            assert_eq!(fanned.1, stats, "width {width}: stats diverged");
            assert_eq!(
                fanned.2, after,
                "width {width}: post-rollback step diverged"
            );
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
}
