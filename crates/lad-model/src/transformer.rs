//! Decoder-only transformer: weights, blocks, and decode sessions.
//!
//! [`Model`] holds seeded random weights for a [`ModelConfig`]; a [`Session`]
//! holds the per-head attention state (KV caches / LAD state) and walks the
//! model one token at a time. Different sessions over the *same* model with
//! different [`AttentionKind`]s are exactly the paper's comparison setup:
//! the original model vs. its LAD/Qserve/H2O variants (Table I/II).
//!
//! `Session` is the plain sequential matvec forward: one sample, heads run
//! inline in head order, no pool. It is the independent reference every
//! differential leg compares the batched engine
//! ([`crate::batch::BatchSession`], the only parallel executor) against.

use crate::backend::{AttentionKind, HeadState};
use crate::config::{MlpKind, ModelConfig, NormKind, PositionKind};
use crate::layers::{gelu, rope_in_place, silu, LayerNorm, Linear, RmsNorm, ROPE_BASE};
use lad_core::audit::QkvStream;
use lad_core::locality::LocalityAnalyzer;
use lad_core::stats::StepStats;
use lad_math::pwl::PwlExp;
use lad_math::{vector, Matrix, Rng};

/// Normalisation layer (LayerNorm or RMSNorm, per config).
#[derive(Debug, Clone, PartialEq)]
pub enum Norm {
    /// OPT-style LayerNorm.
    Layer(LayerNorm),
    /// LLaMA-style RMSNorm.
    Rms(RmsNorm),
}

impl Norm {
    fn new(kind: NormKind, dim: usize) -> Norm {
        match kind {
            NormKind::LayerNorm => Norm::Layer(LayerNorm::new(dim)),
            NormKind::RmsNorm => Norm::Rms(RmsNorm::new(dim)),
        }
    }

    /// Applies the normalisation.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        match self {
            Norm::Layer(ln) => ln.forward(x),
            Norm::Rms(rn) => rn.forward(x),
        }
    }

    /// Allocation-free [`Norm::forward`] into a scratch row (overwritten).
    pub fn forward_into(&self, x: &[f32], out: &mut [f32]) {
        match self {
            Norm::Layer(ln) => ln.forward_into(x, out),
            Norm::Rms(rn) => rn.forward_into(x, out),
        }
    }
}

/// Weights of one transformer block.
#[derive(Debug, Clone)]
pub struct BlockWeights {
    pub(crate) norm1: Norm,
    pub(crate) norm2: Norm,
    pub(crate) wq: Linear,
    pub(crate) wk: Linear,
    pub(crate) wv: Linear,
    pub(crate) wo: Linear,
    pub(crate) w_up: Linear,
    pub(crate) w_down: Linear,
    pub(crate) w_gate: Option<Linear>,
}

impl BlockWeights {
    fn random(cfg: &ModelConfig, rng: &mut Rng) -> BlockWeights {
        let h = cfg.hidden;
        BlockWeights {
            norm1: Norm::new(cfg.norm, h),
            norm2: Norm::new(cfg.norm, h),
            wq: Linear::random(h, h, rng),
            wk: Linear::random(h, h, rng),
            wv: Linear::random(h, h, rng),
            wo: Linear::random(h, h, rng),
            w_up: Linear::random(cfg.intermediate, h, rng),
            w_down: Linear::random(h, cfg.intermediate, rng),
            w_gate: match cfg.mlp {
                MlpKind::SwiGlu => Some(Linear::random(cfg.intermediate, h, rng)),
                MlpKind::Gelu => None,
            },
        }
    }

    /// Feed-forward with caller-provided intermediate scratch (`up`, `gate`)
    /// and output row — the allocation-free form both the per-sample step and
    /// the batch engine share. Bit-identical to the old allocating `mlp`.
    pub(crate) fn mlp_into(
        &self,
        x: &[f32],
        kind: MlpKind,
        up: &mut [f32],
        gate: &mut [f32],
        out: &mut [f32],
    ) {
        match kind {
            MlpKind::Gelu => {
                self.w_up.forward_into(x, up);
                for v in up.iter_mut() {
                    *v = gelu(*v);
                }
                self.w_down.forward_into(up, out);
            }
            MlpKind::SwiGlu => {
                let w_gate = self
                    .w_gate
                    .as_ref()
                    .expect("SwiGLU blocks carry a gate projection");
                w_gate.forward_into(x, gate);
                self.w_up.forward_into(x, up);
                for (g, &u) in gate.iter_mut().zip(up.iter()) {
                    *g = silu(*g) * u;
                }
                self.w_down.forward_into(gate, out);
            }
        }
    }
}

/// Reused per-step activation buffers of a [`Session`]: after the first step
/// the decode hot path performs no per-projection allocation (the returned
/// logits vector is the only fresh allocation per step).
#[derive(Debug, Clone, Default)]
struct StepScratch {
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
}

impl StepScratch {
    fn resize(&mut self, hidden: usize, intermediate: usize) {
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
            buf.resize(hidden, 0.0);
        }
        self.up.resize(intermediate, 0.0);
        self.gate.resize(intermediate, 0.0);
    }
}

/// A decoder-only transformer with seeded random weights.
///
/// # Example
///
/// ```
/// use lad_model::config::ModelConfig;
/// use lad_model::transformer::{Model, Session};
/// use lad_model::backend::AttentionKind;
///
/// let model = Model::random(ModelConfig::tiny("demo", 2, 32, 2), 7);
/// let mut session = Session::new(&model, &AttentionKind::Exact);
/// let logits = session.step(5);
/// assert_eq!(logits.len(), model.config().vocab);
/// ```
#[derive(Debug, Clone)]
pub struct Model {
    pub(crate) cfg: ModelConfig,
    pub(crate) embed: Matrix,
    pub(crate) pos_embed: Option<Matrix>,
    pub(crate) blocks: Vec<BlockWeights>,
    pub(crate) final_norm: Norm,
}

impl Model {
    /// Creates a model with random weights from `seed`. Two calls with the
    /// same config and seed yield identical models.
    pub fn random(cfg: ModelConfig, seed: u64) -> Model {
        let mut rng = Rng::new(seed);
        let embed_scale = 1.0 / (cfg.hidden as f32).sqrt();
        let embed = Matrix::from_flat(
            cfg.vocab,
            cfg.hidden,
            rng.normal_vec(cfg.vocab * cfg.hidden, embed_scale),
        );
        let pos_embed = match cfg.position {
            PositionKind::Learned => Some(Matrix::from_flat(
                cfg.max_seq,
                cfg.hidden,
                rng.normal_vec(cfg.max_seq * cfg.hidden, embed_scale * 0.1),
            )),
            PositionKind::Rope => None,
        };
        let blocks = (0..cfg.layers)
            .map(|_| BlockWeights::random(&cfg, &mut rng))
            .collect();
        let final_norm = Norm::new(cfg.norm, cfg.hidden);
        Model {
            cfg,
            embed,
            pos_embed,
            blocks,
            final_norm,
        }
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Quantises the MLP and attention-output projections (`wo`, `w_up`,
    /// `w_down`, `w_gate`) of every block to int8 with per-row scales — the
    /// GEMMs the traces say dominate step time. `wq`/`wk`/`wv` and the tied
    /// embedding stay f32: they feed RoPE and the attention state, where
    /// quantisation error would compound through the KV cache rather than
    /// wash out in a single projection.
    pub fn quantize_int8_weights(&mut self) {
        for block in &mut self.blocks {
            block.wo.quantize_int8();
            block.w_up.quantize_int8();
            block.w_down.quantize_int8();
            if let Some(gate) = block.w_gate.as_mut() {
                gate.quantize_int8();
            }
        }
    }

    /// Drops every int8 weight copy, returning all projections to f32.
    pub fn dequantize_int8_weights(&mut self) {
        for block in &mut self.blocks {
            block.wo.dequantize_int8();
            block.w_up.dequantize_int8();
            block.w_down.dequantize_int8();
            if let Some(gate) = block.w_gate.as_mut() {
                gate.dequantize_int8();
            }
        }
    }

    /// Bytes of projection weights one decode step streams per sample
    /// (all block projections at their current precision plus the f32
    /// embedding/unembedding) — the denominator of quality-per-byte.
    pub fn projection_weight_bytes(&self) -> usize {
        let mut bytes = 4 * self.cfg.vocab * self.cfg.hidden;
        for block in &self.blocks {
            bytes += block.wq.weight_bytes()
                + block.wk.weight_bytes()
                + block.wv.weight_bytes()
                + block.wo.weight_bytes()
                + block.w_up.weight_bytes()
                + block.w_down.weight_bytes()
                + block.w_gate.as_ref().map_or(0, Linear::weight_bytes);
        }
        bytes
    }
}

/// A decode session: the per-head attention state for one sample.
#[derive(Debug)]
pub struct Session<'m> {
    model: &'m Model,
    heads: Vec<Vec<HeadState>>,
    pos: usize,
    /// LAD step statistics of every (layer, head) at the latest step.
    last_stats: Vec<StepStats>,
    /// Locality analyzers per (layer, head), when score recording is on.
    analyzers: Option<Vec<LocalityAnalyzer>>,
    /// Per-head (q, k, v) streams, when QKV recording is on: indexed by
    /// `layer * heads + head`, one triple per step.
    qkv_taps: Option<Vec<QkvStream>>,
    /// Reused per-step activation buffers (see [`StepScratch`]).
    scratch: StepScratch,
}

impl<'m> Session<'m> {
    /// Opens a session over `model` with every head running `kind`. Every
    /// step runs the heads inline on the calling thread, in head order.
    pub fn new(model: &'m Model, kind: &AttentionKind) -> Session<'m> {
        let d = model.cfg.head_dim();
        let heads = (0..model.cfg.layers)
            .map(|_| {
                (0..model.cfg.heads)
                    .map(|_| HeadState::new(d, kind))
                    .collect()
            })
            .collect();
        Session {
            model,
            heads,
            pos: 0,
            last_stats: Vec::new(),
            analyzers: None,
            qkv_taps: None,
            scratch: StepScratch::default(),
        }
    }

    /// Total bytes of KV state across every (layer, head) right now — the
    /// cache-traffic denominator of quality-per-byte comparisons.
    pub fn kv_bytes(&self) -> usize {
        self.heads.iter().flatten().map(HeadState::kv_bytes).sum()
    }

    /// Enables recording of every head's per-step `(q, k, v)` triples
    /// (post-RoPE, as the attention backend sees them). The streams feed the
    /// error audit ([`lad_core::audit`]) and the hardware tile engine with
    /// *real* transformer traffic.
    pub fn record_qkv(&mut self) {
        let count = self.model.cfg.layers * self.model.cfg.heads;
        self.qkv_taps = Some(vec![Vec::new(); count]);
    }

    /// The recorded per-head QKV streams, if recording was enabled.
    /// Indexed by `layer * heads + head`.
    pub fn qkv_streams(&self) -> Option<&[QkvStream]> {
        self.qkv_taps.as_deref()
    }

    /// Enables shifted-score recording into per-head locality analyzers
    /// (only effective on the exact backend, which computes dense scores).
    pub fn record_locality(&mut self, pwl: PwlExp) {
        let count = self.model.cfg.layers * self.model.cfg.heads;
        self.analyzers = Some(
            (0..count)
                .map(|_| LocalityAnalyzer::new(pwl.clone()))
                .collect(),
        );
    }

    /// The locality analyzers, if recording was enabled.
    pub fn analyzers(&self) -> Option<&[LocalityAnalyzer]> {
        self.analyzers.as_deref()
    }

    /// Number of tokens consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Step statistics of all (layer, head) pairs from the latest step —
    /// every backend reports the shared traffic counters; LAD additionally
    /// fills its identification fields.
    pub fn last_stats(&self) -> &[StepStats] {
        &self.last_stats
    }

    /// Feeds one token and returns the next-token logits.
    ///
    /// # Panics
    ///
    /// Panics if `token` is outside the vocabulary or the maximum sequence
    /// length is exceeded.
    pub fn step(&mut self, token: u32) -> Vec<f32> {
        let _step_span = lad_obs::span("session.step");
        let cfg = &self.model.cfg;
        assert!((token as usize) < cfg.vocab, "token out of vocabulary");
        assert!(self.pos < cfg.max_seq, "sequence length exceeded");
        let d = cfg.head_dim();
        let record = self.analyzers.is_some();

        // The scratch buffers move out of `self` for the step so the head
        // states below can be borrowed mutably alongside them; every buffer
        // is overwritten before use.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.resize(cfg.hidden, cfg.intermediate);
        let StepScratch {
            x,
            normed,
            q: q_full,
            k: k_full,
            v: v_full,
            attn,
            proj,
            up,
            gate,
            final_h,
        } = &mut scratch;
        x.copy_from_slice(self.model.embed.row(token as usize));
        if let Some(pos_embed) = &self.model.pos_embed {
            vector::axpy(x, 1.0, pos_embed.row(self.pos));
        }

        self.last_stats.clear();
        for (layer, block) in self.model.blocks.iter().enumerate() {
            let qkv_span = lad_obs::span("layer.qkv_proj");
            block.norm1.forward_into(x, normed);
            block.wq.forward_into(normed, q_full);
            block.wk.forward_into(normed, k_full);
            block.wv.forward_into(normed, v_full);

            // RoPE is applied in place on each head's span of the shared
            // projection buffers.
            if cfg.position == PositionKind::Rope {
                for h in 0..cfg.heads {
                    let span = h * d..(h + 1) * d;
                    rope_in_place(&mut q_full[span.clone()], self.pos, ROPE_BASE);
                    rope_in_place(&mut k_full[span], self.pos, ROPE_BASE);
                }
            }
            drop(qkv_span);
            let attn_span = lad_obs::span("layer.attn");

            for (h, head) in self.heads[layer].iter_mut().enumerate() {
                let span = h * d..(h + 1) * d;
                let out = head.step(
                    &q_full[span.clone()],
                    &k_full[span.clone()],
                    &v_full[span.clone()],
                    record,
                );
                if let Some(taps) = self.qkv_taps.as_mut() {
                    taps[layer * cfg.heads + h].push((
                        q_full[span.clone()].to_vec(),
                        k_full[span.clone()].to_vec(),
                        v_full[span.clone()].to_vec(),
                    ));
                }
                attn[span].copy_from_slice(&out.output);
                if let Some(mut stats) = out.stats {
                    stats.fanout_width = 1;
                    self.last_stats.push(stats);
                }
                if let (Some(analyzers), Some(scores)) =
                    (self.analyzers.as_mut(), out.shifted_scores)
                {
                    analyzers[layer * cfg.heads + h].observe_step(&scores);
                }
            }
            drop(attn_span);
            {
                let _out_proj_span = lad_obs::span("layer.out_proj");
                block.wo.forward_into(attn, proj);
                vector::axpy(x, 1.0, proj);
            }

            let _mlp_span = lad_obs::span("layer.mlp");
            block.norm2.forward_into(x, normed);
            block.mlp_into(normed, cfg.mlp, up, gate, proj);
            vector::axpy(x, 1.0, proj);
        }

        self.pos += 1;
        let logits_span = lad_obs::span("session.logits");
        self.model.final_norm.forward_into(x, final_h);
        let logits = self.model.embed.matvec(final_h);
        drop(logits_span);
        self.scratch = scratch;
        logits
    }

    /// Feeds a prompt token-by-token; returns the logits after the last one.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty.
    pub fn prefill(&mut self, prompt: &[u32]) -> Vec<f32> {
        assert!(!prompt.is_empty(), "prefill: empty prompt");
        let mut logits = Vec::new();
        for &t in prompt {
            logits = self.step(t);
        }
        logits
    }

    /// Greedy generation: feeds `prompt`, then generates `steps` tokens by
    /// argmax. Returns only the generated tokens.
    pub fn generate_greedy(&mut self, prompt: &[u32], steps: usize) -> Vec<u32> {
        let mut logits = self.prefill(prompt);
        let mut out = Vec::with_capacity(steps);
        for _ in 0..steps {
            let next = argmax(&logits);
            out.push(next);
            logits = self.step(next);
        }
        out
    }
}

/// Index of the maximum logit (ties resolve to the lowest index).
pub fn argmax(logits: &[f32]) -> u32 {
    let mut best = 0usize;
    for (i, &v) in logits.iter().enumerate() {
        if v > logits[best] {
            best = i;
        }
    }
    best as u32
}

/// Log-probability of `target` under a softmax over `logits`.
pub fn log_prob(logits: &[f32], target: u32) -> f64 {
    let m = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let logsum: f64 = logits
        .iter()
        .map(|&l| f64::from(l - m).exp())
        .sum::<f64>()
        .ln();
    f64::from(logits[target as usize] - m) - logsum
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_core::decoder::LadConfig;

    fn tiny_model() -> Model {
        Model::random(ModelConfig::tiny("test", 2, 32, 2), 11)
    }

    #[test]
    fn logits_shape_and_determinism() {
        let model = tiny_model();
        let mut s1 = Session::new(&model, &AttentionKind::Exact);
        let mut s2 = Session::new(&model, &AttentionKind::Exact);
        let l1 = s1.step(3);
        let l2 = s2.step(3);
        assert_eq!(l1.len(), 256);
        assert_eq!(l1, l2);
    }

    #[test]
    fn different_tokens_different_logits() {
        let model = tiny_model();
        let mut s1 = Session::new(&model, &AttentionKind::Exact);
        let mut s2 = Session::new(&model, &AttentionKind::Exact);
        assert_ne!(s1.step(3), s2.step(4));
    }

    #[test]
    fn opt_style_model_runs() {
        let model = Model::random(ModelConfig::tiny_opt("opt-test", 2, 32, 2), 12);
        let mut s = Session::new(&model, &AttentionKind::Exact);
        let tokens = s.generate_greedy(&[1, 2, 3], 10);
        assert_eq!(tokens.len(), 10);
        assert!(tokens.iter().all(|&t| (t as usize) < 256));
    }

    #[test]
    fn lad_session_tracks_exact_session() {
        // The LAD variant must generate mostly the same tokens as the exact
        // model — the Table I premise.
        let model = tiny_model();
        let mut exact = Session::new(&model, &AttentionKind::Exact);
        let mut lad = Session::new(
            &model,
            &AttentionKind::Lad(LadConfig::new(PwlExp::accurate_default())),
        );
        let prompt = [5u32, 9, 13, 2];
        let a = exact.generate_greedy(&prompt, 40);
        let b = lad.generate_greedy(&prompt, 40);
        let agree = a.iter().zip(&b).filter(|(x, y)| x == y).count();
        assert!(agree >= 36, "agreement {agree}/40");
    }

    #[test]
    fn lad_session_reports_stats() {
        let model = tiny_model();
        let mut lad = Session::new(
            &model,
            &AttentionKind::Lad(LadConfig::new(PwlExp::accurate_default())),
        );
        lad.prefill(&[1, 2, 3, 4]);
        // 2 layers × 2 heads.
        assert_eq!(lad.last_stats().len(), 4);
        assert!(lad.last_stats().iter().all(|s| s.n == 4));
    }

    #[test]
    fn locality_recording_populates_analyzers() {
        let model = tiny_model();
        let mut s = Session::new(&model, &AttentionKind::Exact);
        s.record_locality(PwlExp::paper_default());
        s.prefill(&[1, 2, 3, 4, 5]);
        let analyzers = s.analyzers().expect("recording enabled");
        assert_eq!(analyzers.len(), 4);
        assert_eq!(analyzers[0].positions(), 5);
    }

    #[test]
    fn argmax_and_log_prob() {
        assert_eq!(argmax(&[0.1, 0.9, 0.5]), 1);
        assert_eq!(argmax(&[1.0, 1.0]), 0);
        let lp = log_prob(&[0.0, 0.0], 0);
        assert!((lp - (0.5f64).ln()).abs() < 1e-6);
        // Probabilities sum to one.
        let logits = [0.3f32, -1.0, 2.0];
        let total: f64 = (0..3).map(|t| log_prob(&logits, t).exp()).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn qkv_tap_records_streams() {
        let model = tiny_model();
        let mut s = Session::new(&model, &AttentionKind::Exact);
        s.record_qkv();
        s.prefill(&[1, 2, 3, 4, 5, 6]);
        let streams = s.qkv_streams().expect("recording enabled");
        // 2 layers x 2 heads, 6 steps each, head-dim vectors.
        assert_eq!(streams.len(), 4);
        let d = model.config().head_dim();
        for stream in streams {
            assert_eq!(stream.len(), 6);
            assert!(stream
                .iter()
                .all(|(q, k, v)| { q.len() == d && k.len() == d && v.len() == d }));
        }
    }

    #[test]
    fn session_position_advances() {
        let model = tiny_model();
        let mut s = Session::new(&model, &AttentionKind::Exact);
        s.prefill(&[1, 2, 3]);
        assert_eq!(s.position(), 3);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn oversized_token_panics() {
        let model = tiny_model();
        Session::new(&model, &AttentionKind::Exact).step(9999);
    }
}
