//! Pluggable attention backends.
//!
//! Each attention head of a decode session runs one backend from the zoo,
//! mirroring the paper's comparison set (Sec. V-A) plus the sparse-attention
//! families it implicitly argues with:
//!
//! * [`AttentionKind::Exact`] — the original model (vLLM baseline), and
//!   [`AttentionKind::ExactF16`], the same algorithm over fp16 KV arenas.
//! * [`AttentionKind::Lad`] — LAD attention ([`lad_core`]).
//! * [`AttentionKind::QserveKv4`] — Qserve's A16W16KV4 configuration: the KV
//!   cache is quantised to 4 bits, everything else fp16.
//! * [`AttentionKind::TopK`] — dynamic top-k selection: exact scores over
//!   every key, softmax restricted to the `k` best-scoring positions
//!   (deterministic ties: lowest index wins).
//! * [`AttentionKind::H2O`] — the Heavy-Hitter Oracle: the positions with
//!   the highest accumulated attention mass plus a window of the most recent
//!   ones survive each step; the rest are evicted. The keep budget is either
//!   absolute counts ([`AttentionKind::h2o_budget`]) or fractions of the
//!   sequence length (the paper's 0.1 + 0.1, [`AttentionKind::h2o_default`]);
//!   a zero heavy budget is a plain rolling window.
//!
//! Every backend reports the shared [`StepStats`] traffic counters
//! (`keys_scored`, `keys_read`, `bytes_moved`, `evictions`) and implements
//! the full checkpoint/rollback contract speculative decoding relies on.

use lad_core::decoder::{LadAttention, LadCheckpoint, LadConfig};
use lad_core::kv::{KvCache, KvPrecision};
use lad_core::reference;
use lad_core::stats::StepStats;
use lad_math::vector;

/// Which attention algorithm a head runs.
#[derive(Debug, Clone, PartialEq)]
pub enum AttentionKind {
    /// Exact softmax attention over the full KV cache.
    Exact,
    /// Exact softmax attention over an fp16-stored KV cache: the same
    /// algorithm as [`AttentionKind::Exact`], but keys/values are rounded to
    /// IEEE binary16 on write and stream at half the bytes through the
    /// precision-aware read kernels ([`lad_core::kv::KvPrecision::F16`]).
    /// Bounded-error, not bit-exact — the fp16 analogue of the accelerator's
    /// on-chip number format (paper Sec. V-A).
    ExactF16,
    /// LAD attention with the given configuration.
    Lad(LadConfig),
    /// Qserve-style 4-bit KV-cache quantisation (per-vector asymmetric).
    QserveKv4,
    /// Dynamic top-k selection: exact scores over **all** keys, softmax
    /// restricted to the `k` best-scoring positions. Ties are broken
    /// deterministically by lowest position index, so decodes are
    /// reproducible across schedules and kernels. With `k >= n` this is
    /// bit-identical to [`AttentionKind::Exact`].
    TopK {
        /// Positions kept per step (must be at least 1).
        k: usize,
    },
    /// H2O eviction: after each step the heavy-hitter positions with the
    /// highest accumulated attention mass plus the newest live positions
    /// survive, sized by `keep` at the current length; everything else is
    /// evicted (masked dead in the arena, accounted exactly in the paged
    /// pool). Cumulative-mass ties are broken deterministically: the lowest
    /// index is kept. While the live set fits inside the budget, outputs are
    /// bit-identical to [`AttentionKind::Exact`].
    H2O {
        /// Keep budget, as counts or as fractions of the sequence length.
        keep: H2oKeep,
    },
}

/// Keep budget of an [`AttentionKind::H2O`] head.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum H2oKeep {
    /// Absolute counts: `heavy` heavy hitters plus the `recent` newest live
    /// positions (`recent` must be at least 1).
    Counts {
        /// Heavy-hitter positions retained by accumulated attention mass.
        heavy: usize,
        /// Newest live positions always retained.
        recent: usize,
    },
    /// Fractions of the sequence length `n`, each kept count being
    /// `max(1, ceil(ratio · n))`.
    Ratios {
        /// Fraction of positions kept by accumulated attention mass.
        heavy: f64,
        /// Fraction of most recent positions always kept.
        recent: f64,
    },
}

impl H2oKeep {
    /// The `(heavy, recent)` counts kept after a step over `n` positions.
    pub(crate) fn at(&self, n: usize) -> (usize, usize) {
        match *self {
            H2oKeep::Counts { heavy, recent } => (heavy, recent),
            H2oKeep::Ratios { heavy, recent } => {
                let count = |ratio: f64| ((ratio * n as f64).ceil() as usize).max(1);
                (count(heavy), count(recent))
            }
        }
    }
}

impl AttentionKind {
    /// The paper's H2O default configuration: 0.1 heavy + 0.1 recent.
    pub fn h2o_default() -> AttentionKind {
        AttentionKind::H2O {
            keep: H2oKeep::Ratios {
                heavy: 0.1,
                recent: 0.1,
            },
        }
    }

    /// Top-k selection keeping `k` positions per step.
    pub fn topk(k: usize) -> AttentionKind {
        AttentionKind::TopK { k }
    }

    /// Budget-based H2O keeping `budget` heavy hitters + `recent` newest.
    pub fn h2o_budget(budget: usize, recent: usize) -> AttentionKind {
        AttentionKind::H2O {
            keep: H2oKeep::Counts {
                heavy: budget,
                recent,
            },
        }
    }
}

/// Output of one head step.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadStepOutput {
    /// Attention output (length `d`).
    pub output: Vec<f32>,
    /// Per-step instrumentation. Every backend reports the shared traffic
    /// counters (`n`, `keys_scored`, `keys_read`, `bytes_moved`,
    /// `evictions`); the LAD backend additionally fills its
    /// identification/correction fields.
    pub stats: Option<StepStats>,
    /// Shifted scores (`sᵢ − m`) when recording was requested and the backend
    /// computes dense scores.
    pub shifted_scores: Option<Vec<f64>>,
}

/// Runtime state of one attention head.
///
/// Variant sizes differ widely (the LAD state carries the intermediate
/// caches); head states are long-lived, one per (layer, head), so no boxing
/// is warranted.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum HeadState {
    /// Full-cache exact softmax ([`AttentionKind::Exact`] on an f32 arena,
    /// [`AttentionKind::ExactF16`] on an fp16 one).
    Exact {
        /// The head's KV cache.
        kv: KvCache,
    },
    /// LAD decoder state.
    Lad(LadAttention),
    /// Exact attention over a 4-bit-quantised KV cache.
    Qserve {
        /// Stores *dequantised* keys/values (quantisation error baked in).
        kv: KvCache,
    },
    /// Top-k selection over the full cache (no eviction).
    TopK {
        /// The head's KV cache.
        kv: KvCache,
        /// Positions kept per step.
        k: usize,
    },
    /// H2O eviction state.
    H2O(H2oState),
}

/// State of an H2O head ([`AttentionKind::H2O`]): the KV arena stays
/// append-only (evicted positions are masked dead, never compacted), so
/// checkpoint/rollback and paged accounting work exactly like every other
/// backend.
#[derive(Debug, Clone)]
pub struct H2oState {
    kv: KvCache,
    cumulative: Vec<f64>,
    alive: Vec<bool>,
    keep: H2oKeep,
}

#[cfg(test)]
thread_local! {
    /// [`HeadState::checkpoint`] calls made on this thread, so unit tests can
    /// pin which rows pay for a snapshot.
    pub(crate) static CHECKPOINTS_TAKEN: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Snapshot of a [`HeadState`], taken before a speculative row so rejected
/// drafts can be rolled back bit-exactly ([`HeadState::restore`]).
///
/// Every backend only *appends* to its KV arena, so the arena is rewound by
/// truncation; metadata that backends mutate in place for old positions
/// (H2O's cumulative mass and liveness, LAD's counters/caches) is copied.
#[derive(Debug, Clone)]
pub enum HeadCheckpoint {
    /// Exact, Qserve and top-k heads: the arena length is the whole state.
    KvLen(usize),
    /// LAD head snapshot (boxed: the copied caches dwarf the other variants).
    Lad(Box<LadCheckpoint>),
    /// H2O head: arena length plus cumulative mass and liveness.
    H2O {
        /// KV arena length at the checkpoint.
        kv_len: usize,
        /// Cumulative attention mass per position.
        cumulative: Vec<f64>,
        /// Liveness per position.
        alive: Vec<bool>,
    },
}

impl HeadState {
    /// Creates head state for dimension `dim` under `kind`.
    pub fn new(dim: usize, kind: &AttentionKind) -> HeadState {
        match kind {
            AttentionKind::Exact => HeadState::Exact {
                kv: KvCache::new(dim),
            },
            AttentionKind::ExactF16 => HeadState::Exact {
                kv: KvCache::with_precision(dim, KvPrecision::F16),
            },
            AttentionKind::Lad(cfg) => HeadState::Lad(LadAttention::new(dim, cfg.clone())),
            AttentionKind::QserveKv4 => HeadState::Qserve {
                kv: KvCache::new(dim),
            },
            AttentionKind::TopK { k } => {
                assert!(*k >= 1, "AttentionKind::TopK: k must be at least 1");
                HeadState::TopK {
                    kv: KvCache::new(dim),
                    k: *k,
                }
            }
            AttentionKind::H2O { keep } => {
                if let H2oKeep::Counts { recent, .. } = keep {
                    assert!(
                        *recent >= 1,
                        "AttentionKind::H2O: recent must be at least 1"
                    );
                }
                HeadState::H2O(H2oState {
                    kv: KvCache::new(dim),
                    cumulative: Vec::new(),
                    alive: Vec::new(),
                    keep: *keep,
                })
            }
        }
    }

    /// Current KV length (for evicting backends this counts live positions).
    pub fn live_len(&self) -> usize {
        match self {
            HeadState::Exact { kv } | HeadState::Qserve { kv } | HeadState::TopK { kv, .. } => {
                kv.len()
            }
            HeadState::Lad(head) => head.kv().len(),
            HeadState::H2O(state) => state.alive.iter().filter(|&&a| a).count(),
        }
    }

    /// Whether arena position `pos` is still live: `false` once the H2O
    /// backend has evicted it, or if it was never decoded. Non-evicting
    /// backends report every decoded position live.
    pub fn is_alive(&self, pos: usize) -> bool {
        match self {
            HeadState::Exact { kv } | HeadState::Qserve { kv } | HeadState::TopK { kv, .. } => {
                pos < kv.len()
            }
            HeadState::Lad(head) => pos < head.kv().len(),
            HeadState::H2O(state) => state.alive.get(pos).copied().unwrap_or(false),
        }
    }

    /// Bytes this head's KV arenas occupy right now (fp16 caches count two
    /// bytes per element, f32 four). Qserve stores *dequantised* f32 copies,
    /// so its in-memory footprint is the f32 one even though the modelled
    /// accelerator format is 4-bit.
    pub fn kv_bytes(&self) -> usize {
        match self {
            HeadState::Exact { kv } | HeadState::Qserve { kv } | HeadState::TopK { kv, .. } => {
                kv.stored_bytes()
            }
            HeadState::Lad(head) => head.kv().stored_bytes(),
            HeadState::H2O(state) => state.kv.stored_bytes(),
        }
    }

    /// Captures this head's decoding state for a later [`restore`].
    ///
    /// [`restore`]: HeadState::restore
    pub fn checkpoint(&self) -> HeadCheckpoint {
        #[cfg(test)]
        CHECKPOINTS_TAKEN.with(|n| n.set(n.get() + 1));
        match self {
            HeadState::Exact { kv } | HeadState::Qserve { kv } | HeadState::TopK { kv, .. } => {
                HeadCheckpoint::KvLen(kv.len())
            }
            HeadState::Lad(head) => HeadCheckpoint::Lad(Box::new(head.checkpoint())),
            HeadState::H2O(state) => HeadCheckpoint::H2O {
                kv_len: state.kv.len(),
                cumulative: state.cumulative.clone(),
                alive: state.alive.clone(),
            },
        }
    }

    /// Rewinds this head to `ck`: positions appended since the checkpoint
    /// are truncated out of the KV arena and in-place metadata is restored,
    /// so subsequent steps are bit-identical to never having decoded past it.
    ///
    /// # Panics
    ///
    /// Panics if `ck` came from a different backend variant, or if the arena
    /// has since been truncated below the checkpoint.
    pub fn restore(&mut self, ck: &HeadCheckpoint) {
        match (self, ck) {
            (
                HeadState::Exact { kv } | HeadState::Qserve { kv } | HeadState::TopK { kv, .. },
                HeadCheckpoint::KvLen(len),
            ) => {
                kv.truncate(*len);
            }
            (HeadState::Lad(head), HeadCheckpoint::Lad(lck)) => head.restore(lck),
            (
                HeadState::H2O(state),
                HeadCheckpoint::H2O {
                    kv_len,
                    cumulative,
                    alive,
                },
            ) => {
                state.kv.truncate(*kv_len);
                state.cumulative.clone_from(cumulative);
                state.alive.clone_from(alive);
            }
            _ => panic!("HeadState::restore: checkpoint from a different backend"),
        }
    }

    /// Executes one decoding step.
    pub fn step(&mut self, q: &[f32], k: &[f32], v: &[f32], record_scores: bool) -> HeadStepOutput {
        match self {
            HeadState::Exact { kv } => {
                let _kv_span = lad_obs::span(match kv.precision() {
                    KvPrecision::F32 => "kernel.kv_read_f32",
                    KvPrecision::F16 => "kernel.kv_read_f16",
                });
                kv.push(k, v);
                let n = kv.len();
                let bpe = kv.precision().bytes_per_element();
                let (output, shifted_scores) =
                    reference::exact_attention_scored(q, kv, record_scores);
                HeadStepOutput {
                    output,
                    stats: Some(traffic_stats(n, n, n, 2 * n * kv.dim() * bpe, 0)),
                    shifted_scores,
                }
            }
            HeadState::Lad(head) => {
                let step = head.step(q, k, v);
                HeadStepOutput {
                    output: step.output,
                    stats: Some(step.stats),
                    shifted_scores: None,
                }
            }
            HeadState::Qserve { kv } => {
                kv.push(&quantize_int4(k), &quantize_int4(v));
                let n = kv.len();
                HeadStepOutput {
                    output: reference::exact_attention(q, kv),
                    stats: Some(traffic_stats(n, n, n, 2 * n * kv.dim() * 4, 0)),
                    shifted_scores: None,
                }
            }
            HeadState::TopK { kv, k: top_k } => {
                kv.push(k, v);
                let n = kv.len();
                let d = kv.dim();
                let bpe = kv.precision().bytes_per_element();
                let scores = reference::scores(q, kv);
                let m = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                // Selection: highest score first, ties broken by lowest
                // index, so the kept set (and therefore the decode) is
                // deterministic across schedules and kernels.
                let selected = {
                    let _span = lad_obs::span("attn.topk_select");
                    let mut idx: Vec<usize> = (0..n).collect();
                    idx.sort_by(|&a, &b| {
                        scores[b]
                            .partial_cmp(&scores[a])
                            .expect("attention scores are finite")
                            .then_with(|| a.cmp(&b))
                    });
                    idx.truncate(*top_k);
                    idx.sort_unstable();
                    idx
                };
                // Softmax restricted to the selection, accumulated in the
                // same ascending-index order as exact attention. The global
                // max is always selected, so `m` is also the selected max —
                // with `k >= n` this loop is bit-identical to Exact.
                let mut num = vec![0.0f64; d];
                let mut den = 0.0f64;
                for &i in &selected {
                    let w = (scores[i] - m).exp();
                    den += w;
                    kv.value_axpy(i, w, &mut num);
                }
                let output = num.into_iter().map(|x| (x / den) as f32).collect();
                HeadStepOutput {
                    output,
                    stats: Some(traffic_stats(
                        n,
                        n,
                        n,
                        n * d * bpe + selected.len() * d * bpe,
                        0,
                    )),
                    shifted_scores: record_scores.then(|| scores.iter().map(|s| s - m).collect()),
                }
            }
            HeadState::H2O(state) => state.step(q, k, v, record_scores),
        }
    }
}

/// Builds a [`StepStats`] carrying only the shared traffic counters — the
/// identification/correction fields are LAD-specific and stay zero for the
/// rest of the zoo.
fn traffic_stats(
    n: usize,
    keys_scored: usize,
    keys_read: usize,
    bytes_moved: usize,
    evictions: usize,
) -> StepStats {
    StepStats {
        n,
        centers: 0,
        large_mode_exact: 0,
        active: 0,
        window: 0,
        mode_updates: 0,
        new_active: 0,
        false_negatives: 0,
        false_positives: 0,
        den_fallbacks: 0,
        keys_scored,
        keys_read,
        bytes_moved,
        evictions,
        fanout_width: 0,
    }
}

impl H2oState {
    fn step(&mut self, q: &[f32], k: &[f32], v: &[f32], record_scores: bool) -> HeadStepOutput {
        self.kv.push(k, v);
        self.cumulative.push(0.0);
        self.alive.push(true);
        let n = self.kv.len();
        let d = self.kv.dim();
        let bpe = self.kv.precision().bytes_per_element();
        let qs = reference::scale_query(q);

        // Scores over live positions only, read per-key through the
        // precision-aware decode. On f32 arenas each dot is bit-identical to
        // the bulk score sweep Exact runs, so until the first eviction the
        // whole step mirrors exact attention bit-for-bit.
        let live: Vec<usize> = (0..n).filter(|&i| self.alive[i]).collect();
        let mut key_buf = vec![0.0f32; d];
        let scores: Vec<f64> = live
            .iter()
            .map(|&i| {
                self.kv.key_into(i, &mut key_buf);
                f64::from(vector::dot(&qs, &key_buf))
            })
            .collect();
        let m = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut num = vec![0.0f64; d];
        let mut den = 0.0f64;
        let mut weights = Vec::with_capacity(live.len());
        for (&i, &si) in live.iter().zip(&scores) {
            let w = (si - m).exp();
            den += w;
            weights.push(w);
            self.kv.value_axpy(i, w, &mut num);
        }
        let output: Vec<f32> = num.into_iter().map(|x| (x / den) as f32).collect();
        for (&i, &w) in live.iter().zip(&weights) {
            self.cumulative[i] += w / den;
        }

        // Evict down to `heavy + recent`: the newest `recent` live
        // positions always survive; among the older ones the `heavy`
        // highest accumulated-mass positions are kept (ties: lowest index).
        let (heavy, recent) = self.keep.at(n);
        let mut evictions = 0usize;
        if live.len() > heavy + recent {
            let _span = lad_obs::span("attn.h2o_evict");
            let recent_cut = live.len() - recent;
            let mut older: Vec<usize> = live[..recent_cut].to_vec();
            older.sort_by(|&a, &b| {
                self.cumulative[b]
                    .partial_cmp(&self.cumulative[a])
                    .expect("cumulative mass is finite")
                    .then_with(|| a.cmp(&b))
            });
            for &evict in &older[heavy..] {
                self.alive[evict] = false;
                evictions += 1;
            }
        }

        HeadStepOutput {
            output,
            stats: Some(traffic_stats(
                n,
                live.len(),
                live.len(),
                2 * live.len() * d * bpe,
                evictions,
            )),
            shifted_scores: record_scores.then(|| scores.iter().map(|s| s - m).collect()),
        }
    }
}

/// Per-vector asymmetric 4-bit quantisation, returning the dequantised
/// vector (the error a KV4 cache injects).
pub fn quantize_int4(x: &[f32]) -> Vec<f32> {
    let min = x.iter().copied().fold(f32::INFINITY, f32::min);
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if !min.is_finite() || !max.is_finite() || max == min {
        return x.to_vec();
    }
    let scale = (max - min) / 15.0;
    x.iter()
        .map(|&v| {
            let q = ((v - min) / scale).round().clamp(0.0, 15.0);
            q * scale + min
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_math::Rng;

    #[test]
    fn quantize_int4_error_bound() {
        let mut rng = Rng::new(41);
        for _ in 0..50 {
            let x = rng.normal_vec(16, 1.0);
            let q = quantize_int4(&x);
            let min = x.iter().copied().fold(f32::INFINITY, f32::min);
            let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let half_step = (max - min) / 15.0 / 2.0;
            for (orig, quant) in x.iter().zip(&q) {
                assert!((orig - quant).abs() <= half_step + 1e-6);
            }
        }
    }

    #[test]
    fn quantize_int4_constant_vector_passthrough() {
        assert_eq!(quantize_int4(&[2.0, 2.0]), vec![2.0, 2.0]);
    }

    #[test]
    fn exact_backend_matches_reference() {
        let mut rng = Rng::new(42);
        let d = 8;
        let mut head = HeadState::new(d, &AttentionKind::Exact);
        let mut shadow = KvCache::new(d);
        for _ in 0..20 {
            let (q, k, v) = (
                rng.normal_vec(d, 1.0),
                rng.normal_vec(d, 1.0),
                rng.normal_vec(d, 1.0),
            );
            shadow.push(&k, &v);
            let out = head.step(&q, &k, &v, false);
            assert_eq!(out.output, reference::exact_attention(&q, &shadow));
        }
    }

    #[test]
    fn exact_backend_records_shifted_scores() {
        let mut head = HeadState::new(4, &AttentionKind::Exact);
        let out = head.step(&[1.0; 4], &[0.5; 4], &[0.1; 4], true);
        let scores = out.shifted_scores.expect("recording requested");
        assert_eq!(scores.len(), 1);
        assert!(scores[0] <= 0.0);
    }

    #[test]
    fn lad_backend_produces_stats() {
        let mut rng = Rng::new(43);
        let d = 8;
        let mut head = HeadState::new(d, &AttentionKind::Lad(LadConfig::default()));
        for i in 0..30 {
            let out = head.step(
                &rng.normal_vec(d, 1.0),
                &rng.normal_vec(d, 1.0),
                &rng.normal_vec(d, 1.0),
                false,
            );
            let stats = out.stats.expect("lad backend reports stats");
            assert_eq!(stats.n, i + 1);
        }
        assert_eq!(head.live_len(), 30);
    }

    #[test]
    fn exact_f16_backend_is_close_to_exact_and_cheaper() {
        let mut rng = Rng::new(52);
        let d = 8;
        let mut exact = HeadState::new(d, &AttentionKind::Exact);
        let mut half = HeadState::new(d, &AttentionKind::ExactF16);
        let mut worst = 0.0f32;
        for _ in 0..60 {
            let (q, k, v) = (
                rng.normal_vec(d, 1.0),
                rng.normal_vec(d, 1.0),
                rng.normal_vec(d, 1.0),
            );
            let e = exact.step(&q, &k, &v, true);
            let h = half.step(&q, &k, &v, true);
            worst = worst.max(vector::relative_l2(&h.output, &e.output));
            assert!(h.shifted_scores.is_some(), "f16 backend records scores");
        }
        // fp16 must perturb (it quantises) but stay within its 2^-11-per-
        // element budget after softmax normalisation.
        assert!(worst > 1e-7, "fp16 should actually quantise");
        assert!(worst < 5e-3, "fp16 error unreasonably large: {worst}");
        assert_eq!(half.kv_bytes() * 2, exact.kv_bytes());
    }

    #[test]
    fn qserve_backend_injects_bounded_error() {
        let mut rng = Rng::new(44);
        let d = 8;
        let mut exact = HeadState::new(d, &AttentionKind::Exact);
        let mut qserve = HeadState::new(d, &AttentionKind::QserveKv4);
        let mut worst = 0.0f32;
        for _ in 0..40 {
            let (q, k, v) = (
                rng.normal_vec(d, 1.0),
                rng.normal_vec(d, 1.0),
                rng.normal_vec(d, 1.0),
            );
            let e = exact.step(&q, &k, &v, false);
            let s = qserve.step(&q, &k, &v, false);
            worst = worst.max(vector::relative_l2(&s.output, &e.output));
        }
        assert!(worst > 1e-4, "KV4 must actually perturb outputs");
        assert!(worst < 0.5, "KV4 error unreasonably large: {worst}");
    }

    #[test]
    fn h2o_evicts_down_to_budget() {
        let mut rng = Rng::new(45);
        let d = 8;
        let mut head = HeadState::new(d, &AttentionKind::h2o_default());
        for _ in 0..100 {
            head.step(
                &rng.normal_vec(d, 1.0),
                &rng.normal_vec(d, 1.0),
                &rng.normal_vec(d, 1.0),
                false,
            );
        }
        // Keep ratios 0.1 + 0.1 -> about 20 live positions out of 100.
        let live = head.live_len();
        assert!((18..=22).contains(&live), "live = {live}");
    }

    #[test]
    fn h2o_keeps_recent_positions() {
        let mut rng = Rng::new(46);
        let d = 4;
        let mut head = HeadState::new(d, &AttentionKind::h2o_default());
        for _ in 0..50 {
            head.step(
                &rng.normal_vec(d, 1.0),
                &rng.normal_vec(d, 1.0),
                &rng.normal_vec(d, 1.0),
                false,
            );
        }
        // The very latest positions must always be alive.
        for i in 45..50 {
            assert!(head.is_alive(i), "recent position {i} evicted");
        }
    }

    #[test]
    fn checkpoint_restore_is_bit_exact_for_every_backend() {
        let d = 8;
        let kinds = [
            AttentionKind::Exact,
            AttentionKind::ExactF16,
            AttentionKind::Lad(LadConfig::default()),
            AttentionKind::QserveKv4,
            AttentionKind::h2o_default(),
            AttentionKind::topk(4),
            AttentionKind::h2o_budget(12, 4),
        ];
        for kind in &kinds {
            let mut rng = Rng::new(51);
            let mut head = HeadState::new(d, kind);
            for _ in 0..30 {
                head.step(
                    &rng.normal_vec(d, 1.0),
                    &rng.normal_vec(d, 1.0),
                    &rng.normal_vec(d, 1.0),
                    false,
                );
            }
            let ck = head.checkpoint();
            let inputs: Vec<_> = (0..8)
                .map(|_| {
                    (
                        rng.normal_vec(d, 1.0),
                        rng.normal_vec(d, 1.0),
                        rng.normal_vec(d, 1.0),
                    )
                })
                .collect();
            let first: Vec<HeadStepOutput> = inputs
                .iter()
                .map(|(q, k, v)| head.step(q, k, v, false))
                .collect();
            head.restore(&ck);
            let second: Vec<HeadStepOutput> = inputs
                .iter()
                .map(|(q, k, v)| head.step(q, k, v, false))
                .collect();
            assert_eq!(first, second, "{kind:?}: replay after restore diverged");
        }
    }

    #[test]
    #[should_panic(expected = "different backend")]
    fn restore_rejects_foreign_checkpoint() {
        let exact = HeadState::new(4, &AttentionKind::Exact);
        let mut lad = HeadState::new(4, &AttentionKind::Lad(LadConfig::default()));
        lad.restore(&exact.checkpoint());
    }

    #[test]
    fn topk_matches_exact_bitwise_when_k_covers_cache() {
        let mut rng = Rng::new(54);
        let d = 8;
        let mut exact = HeadState::new(d, &AttentionKind::Exact);
        let mut topk = HeadState::new(d, &AttentionKind::topk(64));
        for _ in 0..30 {
            let (q, k, v) = (
                rng.normal_vec(d, 1.0),
                rng.normal_vec(d, 1.0),
                rng.normal_vec(d, 1.0),
            );
            let e = exact.step(&q, &k, &v, true);
            let t = topk.step(&q, &k, &v, true);
            assert_eq!(t.output, e.output, "k >= n must be bit-identical");
            assert_eq!(t.shifted_scores, e.shifted_scores);
        }
    }

    #[test]
    fn topk_diverges_from_exact_when_k_is_small() {
        let mut rng = Rng::new(55);
        let d = 8;
        let mut exact = HeadState::new(d, &AttentionKind::Exact);
        let mut topk = HeadState::new(d, &AttentionKind::topk(4));
        let mut drift = 0.0f32;
        for _ in 0..60 {
            let (q, k, v) = (
                rng.normal_vec(d, 1.0),
                rng.normal_vec(d, 1.0),
                rng.normal_vec(d, 1.0),
            );
            let e = exact.step(&q, &k, &v, false);
            let t = topk.step(&q, &k, &v, false);
            drift = drift.max(vector::relative_l2(&t.output, &e.output));
        }
        assert!(drift > 1e-4, "top-4 of 60 should drift, drift = {drift}");
    }

    #[test]
    fn topk_tie_break_keeps_lowest_index() {
        // Identical keys -> identical scores; the deterministic tie-break
        // must keep position 0, so the output is exactly its value.
        let d = 4;
        let mut head = HeadState::new(d, &AttentionKind::topk(1));
        let key = [1.0, 0.0, 0.0, 0.0];
        let q = [1.0; 4];
        let values = [[1.0f32; 4], [2.0; 4], [3.0; 4]];
        let mut last = Vec::new();
        for v in &values {
            last = head.step(&q, &key, v, false).output;
        }
        assert_eq!(last, values[0].to_vec());
    }

    #[test]
    fn h2o_budget_caps_live_set_and_keeps_recent() {
        let mut rng = Rng::new(56);
        let d = 8;
        let mut head = HeadState::new(d, &AttentionKind::h2o_budget(8, 4));
        let mut total_evictions = 0;
        for _ in 0..100 {
            let out = head.step(
                &rng.normal_vec(d, 1.0),
                &rng.normal_vec(d, 1.0),
                &rng.normal_vec(d, 1.0),
                false,
            );
            total_evictions += out.stats.expect("h2o reports stats").evictions;
        }
        assert_eq!(head.live_len(), 12, "live set must sit at budget + recent");
        assert_eq!(total_evictions, 88, "every dead position is one eviction");
        for i in 96..100 {
            assert!(head.is_alive(i), "recent position {i} evicted");
        }
        let dead = (0..100).filter(|&i| !head.is_alive(i)).count();
        assert_eq!(dead, 88);
    }

    #[test]
    fn h2o_budget_matches_exact_bitwise_until_eviction() {
        // Counts: 30 steps never exceed the 48-position live cap. Ratios:
        // 2·ceil(n/2) >= n, so a 0.5 + 0.5 budget never evicts at all.
        // Without an eviction the decode must be bit-identical to exact
        // attention.
        let kinds = [
            AttentionKind::h2o_budget(40, 8),
            AttentionKind::H2O {
                keep: H2oKeep::Ratios {
                    heavy: 0.5,
                    recent: 0.5,
                },
            },
        ];
        for kind in &kinds {
            let mut rng = Rng::new(57);
            let d = 8;
            let mut exact = HeadState::new(d, &AttentionKind::Exact);
            let mut h2o = HeadState::new(d, kind);
            for _ in 0..30 {
                let (q, k, v) = (
                    rng.normal_vec(d, 1.0),
                    rng.normal_vec(d, 1.0),
                    rng.normal_vec(d, 1.0),
                );
                let e = exact.step(&q, &k, &v, true);
                let h = h2o.step(&q, &k, &v, true);
                assert_eq!(
                    h.output, e.output,
                    "{kind:?}: pre-eviction H2O must match exact"
                );
                assert_eq!(h.shifted_scores, e.shifted_scores, "{kind:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "recent must be at least 1")]
    fn h2o_budget_requires_recent() {
        HeadState::new(4, &AttentionKind::h2o_budget(4, 0));
    }

    #[test]
    fn every_backend_reports_traffic_stats() {
        let d = 8;
        let kinds = [
            AttentionKind::Exact,
            AttentionKind::ExactF16,
            AttentionKind::Lad(LadConfig::default()),
            AttentionKind::QserveKv4,
            AttentionKind::h2o_default(),
            AttentionKind::topk(4),
            AttentionKind::h2o_budget(8, 4),
        ];
        for kind in &kinds {
            let mut rng = Rng::new(58);
            let mut head = HeadState::new(d, kind);
            for i in 0..10 {
                let out = head.step(
                    &rng.normal_vec(d, 1.0),
                    &rng.normal_vec(d, 1.0),
                    &rng.normal_vec(d, 1.0),
                    false,
                );
                let stats = out.stats.unwrap_or_else(|| panic!("{kind:?}: no stats"));
                assert_eq!(stats.n, i + 1, "{kind:?}");
                assert!(stats.keys_scored >= 1, "{kind:?}");
                assert!(stats.keys_read >= 1, "{kind:?}");
                assert!(stats.bytes_moved > 0, "{kind:?}");
            }
        }
    }

    #[test]
    fn stats_bytes_match_traffic_meter() {
        use lad_core::kv::{reset_traffic_bytes, traffic_bytes};
        let d = 8;
        let kinds = [
            AttentionKind::Exact,
            AttentionKind::ExactF16,
            AttentionKind::QserveKv4,
            AttentionKind::h2o_default(),
            AttentionKind::topk(4),
            AttentionKind::h2o_budget(8, 4),
        ];
        for kind in &kinds {
            let mut rng = Rng::new(59);
            let mut head = HeadState::new(d, kind);
            for i in 0..40 {
                let (q, k, v) = (
                    rng.normal_vec(d, 1.0),
                    rng.normal_vec(d, 1.0),
                    rng.normal_vec(d, 1.0),
                );
                reset_traffic_bytes();
                let out = head.step(&q, &k, &v, false);
                let stats = out.stats.expect("stats present");
                assert_eq!(
                    traffic_bytes(),
                    stats.bytes_moved as u64,
                    "{kind:?} step {i}: analytic bytes diverge from metered bytes"
                );
            }
        }
    }

    #[test]
    fn h2o_diverges_from_exact() {
        // H2O discards information, so outputs must drift from the original
        // model — that is the decoding-accuracy cost Table I quantifies.
        let mut rng = Rng::new(47);
        let d = 8;
        let mut exact = HeadState::new(d, &AttentionKind::Exact);
        let mut h2o = HeadState::new(d, &AttentionKind::h2o_default());
        let mut drift = 0.0f32;
        for _ in 0..80 {
            let (q, k, v) = (
                rng.normal_vec(d, 1.0),
                rng.normal_vec(d, 1.0),
                rng.normal_vec(d, 1.0),
            );
            let e = exact.step(&q, &k, &v, false);
            let h = h2o.step(&q, &k, &v, false);
            drift = drift.max(vector::relative_l2(&h.output, &e.output));
        }
        assert!(drift > 0.05, "H2O should diverge, drift = {drift}");
    }
}
