//! The LAD attention decoder — the paper's core contribution (Sec. III-E,
//! Fig. 3).
//!
//! One [`LadAttention`] instance holds the full state of one attention head
//! across decoding steps: the KV cache, the directional centers, the
//! per-position mode counters and the six intermediate caches. Each
//! [`LadAttention::step`] performs the five stages of the LAD attention
//! algorithm:
//!
//! 1. **Active position identification** — approximate scores from the
//!    directional centers (Alg. 1), exact scores for large-mode positions
//!    (Sec. III-F) and for the latest window.
//! 2. **Mode-based computation** — numerator/denominator from the
//!    intermediate caches, *no KV access*.
//! 3. **Correction** — exact scores for the (few) active positions; their
//!    keys/values are the only per-step KV-cache reads.
//! 4. **Window terms** — the latest positions, not yet in the caches, are
//!    weighted directly.
//! 5. **Maintenance** — counters, mode updates (Eq. 6) and aging the oldest
//!    window position into the caches (Eq. 5).
//!
//! LAD is a decoding-phase mechanism: no token is sampled from a prompt row
//! until the last one. So [`LadAttention::prompt_row`] answers prompt rows
//! with exact softmax attention. The same read feeds LAD's state: every
//! position's exact interval under the row's shift goes into its mode
//! counters, and the new key's dot products with the centers register it
//! with the center book (Alg. 1 is order-dependent). The first decode row
//! then settles each mode once, to the argmax of its counters, and ages
//! the positions outside the window into the caches, so LAD runs from the
//! first generated token on, on modes built from every score a position
//! has seen.
//!
//! Every row reads each key once: a prompt row scores its query and its new
//! key against all keys in one pass, and a decode row scores both against
//! the center keys in one gathered pass (EAS.1 and Alg. 1 share it).
//!
//! With [`Identification::Oracle`] the output equals the direct PWL attention
//! of [`crate::reference::pwl_attention`] exactly (up to accumulation order) —
//! the invariant the property tests pin down. With
//! [`Identification::Approximate`] the only error source is interval
//! misidentification, exactly as the paper argues.

use crate::cache::IntermediateCache;
use crate::centers::{CenterBook, DEFAULT_COLLINEARITY_THRESHOLD};
use crate::kv::{KvCache, ELEMENT_BYTES};
use crate::modes::ModeTracker;
use crate::reference;
use crate::stats::StepStats;
use lad_math::pwl::PwlExp;
use lad_math::vector;

/// The paper's latest-position exclusion window ("we exclude the latest 16
/// positions from intermediate caches", Sec. III-E).
pub const DEFAULT_WINDOW: usize = 16;

/// Smallest PWL denominator accepted before the step falls back to exact
/// window-only softmax (see `StepStats::den_fallbacks`).
const DEN_EPSILON: f64 = 1e-12;

/// How attention-score intervals are identified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Identification {
    /// Directional-center approximation (Alg. 1) — the real LAD behaviour.
    Approximate,
    /// Exact scores for every position — no misidentification. Used to
    /// validate the exactness invariant; unrealistically expensive on
    /// hardware.
    Oracle,
}

/// Configuration of a LAD attention head.
#[derive(Debug, Clone, PartialEq)]
pub struct LadConfig {
    /// The interval partition and PWL coefficients.
    pub pwl: PwlExp,
    /// Latest positions excluded from the intermediate caches.
    pub window: usize,
    /// `|cos|` threshold for directional-center grouping (Alg. 1).
    pub collinearity_threshold: f64,
    /// Score positions whose mode is `>= large_mode_min_index` exactly
    /// (Sec. III-F: intervals near 0 are short, so approximating scores there
    /// easily misidentifies).
    pub exact_large_modes: bool,
    /// Threshold index for "larger modes"; defaults to the top two intervals.
    pub large_mode_min_index: usize,
    /// Identification strategy.
    pub identification: Identification,
    /// When `true`, each step also runs oracle identification to fill the
    /// `false_negatives` / `false_positives` diagnostics (costly).
    pub diagnostics: bool,
}

impl LadConfig {
    /// Paper-default configuration on the given partition.
    pub fn new(pwl: PwlExp) -> LadConfig {
        let large = pwl.num_intervals().saturating_sub(2);
        LadConfig {
            pwl,
            window: DEFAULT_WINDOW,
            collinearity_threshold: DEFAULT_COLLINEARITY_THRESHOLD,
            exact_large_modes: true,
            large_mode_min_index: large,
            identification: Identification::Approximate,
            diagnostics: false,
        }
    }

    /// Oracle-identification configuration (for validation).
    pub fn oracle(pwl: PwlExp) -> LadConfig {
        LadConfig {
            identification: Identification::Oracle,
            ..LadConfig::new(pwl)
        }
    }
}

impl Default for LadConfig {
    fn default() -> LadConfig {
        LadConfig::new(PwlExp::accurate_default())
    }
}

/// Result of one decoding step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutput {
    /// The attention output vector (length `d`).
    pub output: Vec<f32>,
    /// Instrumentation for the accelerator model.
    pub stats: StepStats,
}

/// Snapshot of a [`LadAttention`] head's decoding state, taken before a
/// speculative row so rejected drafts can be rolled back bit-exactly.
///
/// The KV arena itself is *not* copied — LAD's step only appends to it, so
/// remembering its length suffices and [`LadAttention::restore`] truncates.
/// The mode/center/cache metadata *is* copied, because correction and aging
/// mutate entries for old positions in place (counter records, delta
/// updates, cache inserts) and those edits cannot be undone from the arena.
#[derive(Debug, Clone)]
pub struct LadCheckpoint {
    kv_len: usize,
    tracker: ModeTracker,
    centers: CenterBook,
    cache: IntermediateCache,
    cached_mode: Vec<Option<u8>>,
    prev_active: Vec<usize>,
}

/// Full LAD decoding state of one attention head.
///
/// # Example
///
/// ```
/// use lad_core::decoder::{LadAttention, LadConfig};
/// use lad_math::pwl::PwlExp;
///
/// let mut head = LadAttention::new(8, LadConfig::new(PwlExp::accurate_default()));
/// let out = head.step(&[0.1; 8], &[0.2; 8], &[0.3; 8]);
/// assert_eq!(out.output.len(), 8);
/// assert_eq!(head.kv().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct LadAttention {
    cfg: LadConfig,
    kv: KvCache,
    tracker: ModeTracker,
    centers: CenterBook,
    cache: IntermediateCache,
    /// Mode under which each position currently sits in the intermediate
    /// caches; `None` while still inside the latest window. One byte per
    /// position: [`ModeTracker::new`] admits at most 256 intervals. Empty
    /// until the first decode row: a head that has one entry per position
    /// is decoding.
    cached_mode: Vec<Option<u8>>,
    /// The previous step's active positions, ascending.
    prev_active: Vec<usize>,
    scratch: StepScratch,
}

/// Reusable per-step working memory. Every buffer is cleared and refilled
/// each step, so after warm-up the hot path performs no heap allocation
/// beyond the returned output vector and amortised arena growth.
#[derive(Debug, Clone, Default)]
struct StepScratch {
    q_scaled: Vec<f32>,
    scores: Vec<f64>,
    exact: Vec<bool>,
    num: Vec<f64>,
    /// This step's active positions, ascending.
    active: Vec<usize>,
    corrected: Vec<bool>,
    /// Positions listed for the next gathered key read, and their scores
    /// (the center read lists the new key's dot products after them).
    gather: Vec<usize>,
    gathered: Vec<f64>,
    /// `(position, weight)` pairs, as two lists, for the next gathered value
    /// read.
    value_pos: Vec<usize>,
    value_w: Vec<f64>,
    /// `(position, exact score)` of every latest-window position, cached by
    /// the window pass so the degenerate-denominator fallback can reuse the
    /// slice instead of rescanning all `n` positions.
    window_scores: Vec<(usize, f64)>,
    /// A prompt row's exact interval of every position, for the counters.
    intervals: Vec<u8>,
}

impl LadAttention {
    /// Creates a head with dimension `dim` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or the partition has more than 256 intervals.
    pub fn new(dim: usize, cfg: LadConfig) -> LadAttention {
        let threshold = cfg.collinearity_threshold;
        LadAttention {
            kv: KvCache::new(dim),
            tracker: ModeTracker::new(cfg.pwl.num_intervals()),
            centers: CenterBook::new(threshold),
            cache: IntermediateCache::new(dim),
            cached_mode: Vec::new(),
            prev_active: Vec::new(),
            scratch: StepScratch::default(),
            cfg,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &LadConfig {
        &self.cfg
    }

    /// Read access to the KV cache.
    pub fn kv(&self) -> &KvCache {
        &self.kv
    }

    /// Read access to the mode tracker.
    pub fn tracker(&self) -> &ModeTracker {
        &self.tracker
    }

    /// Read access to the directional centers.
    pub fn centers(&self) -> &CenterBook {
        &self.centers
    }

    /// Read access to the intermediate caches.
    pub fn intermediate_cache(&self) -> &IntermediateCache {
        &self.cache
    }

    /// The interval under which `position`'s contribution currently sits in
    /// the intermediate caches (`None` while inside the latest window).
    pub fn cached_interval(&self, position: usize) -> Option<usize> {
        self.cached_mode
            .get(position)
            .copied()
            .flatten()
            .map(usize::from)
    }

    /// Whether `position` was identified active (and therefore corrected)
    /// during the most recent step.
    pub fn was_corrected_last_step(&self, position: usize) -> bool {
        self.prev_active.binary_search(&position).is_ok()
    }

    /// Captures the head's decoding state so a later [`restore`] rewinds it
    /// bit-exactly (see [`LadCheckpoint`] for what is copied vs. truncated).
    ///
    /// [`restore`]: LadAttention::restore
    pub fn checkpoint(&self) -> LadCheckpoint {
        LadCheckpoint {
            kv_len: self.kv.len(),
            tracker: self.tracker.clone(),
            centers: self.centers.clone(),
            cache: self.cache.clone(),
            cached_mode: self.cached_mode.clone(),
            prev_active: self.prev_active.clone(),
        }
    }

    /// Rewinds the head to `ck`: KV entries appended since are truncated away
    /// and the mode/center/cache metadata is restored. Subsequent steps are
    /// bit-identical to never having decoded past the checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if the KV cache has been truncated below the checkpoint (the
    /// snapshot no longer describes a prefix of this head's history).
    pub fn restore(&mut self, ck: &LadCheckpoint) {
        self.kv.truncate(ck.kv_len);
        self.tracker.clone_from(&ck.tracker);
        self.centers.clone_from(&ck.centers);
        self.cache.clone_from(&ck.cache);
        self.cached_mode.clone_from(&ck.cached_mode);
        self.prev_active.clone_from(&ck.prev_active);
    }

    /// Feeds one prompt row: appends `(key, value)` and returns the exact
    /// softmax attention of `query`, bit-identical to
    /// [`reference::exact_attention`] and read under the exact backend's
    /// `kernel.kv_read_f32` span. The read scores the new key against every
    /// key too, and LAD takes its state from it: the new key joins the
    /// center book (Alg. 1, under `lad.identify`), and every position's
    /// exact interval under this row's shift is counted in its mode
    /// counters (under `lad.mode_update`). No mode moves and nothing is
    /// cached until the next [`LadAttention::step`]. The stats are the exact
    /// backend's traffic counters; the LAD fields stay zero.
    ///
    /// Once a decode row has run, LAD owns the head: a later prompt row is
    /// stepped as a decode row.
    ///
    /// # Panics
    ///
    /// Panics if any slice length differs from the head dimension.
    pub fn prompt_row(&mut self, query: &[f32], key: &[f32], value: &[f32]) -> StepOutput {
        if !self.cached_mode.is_empty() {
            return self.step(query, key, value);
        }
        let d = self.kv.dim();
        assert_eq!(query.len(), d, "prompt_row: query dim mismatch");
        let scratch = &mut self.scratch;
        let scale = 1.0 / (d as f32).sqrt();
        scratch.q_scaled.clear();
        scratch.q_scaled.extend(query.iter().map(|&x| x * scale));
        // One pass: the query's scores, then the new key's dot products.
        let n = self.kv.len() + 1;
        let scores = &mut scratch.scores;
        let m = {
            let _kv_span = lad_obs::span("kernel.kv_read_f32");
            self.kv.push(key, value);
            scores.clear();
            self.kv.score_keys2_into(&scratch.q_scaled, key, scores);
            scores[..n]
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        };
        let (scores, key_dots) = scores.split_at_mut(n);
        {
            let _identify_span = lad_obs::span("lad.identify");
            self.centers.admit(key, |_, c| key_dots[c]);
        }
        {
            let _mode_update_span = lad_obs::span("lad.mode_update");
            let intervals = &mut scratch.intervals;
            intervals.resize(n, 0);
            self.cfg.pwl.intervals_of(scores, m, intervals);
            self.tracker.push_position();
            self.tracker
                .count_row(intervals.iter().map(|&i| usize::from(i)));
        }
        let output = {
            let _kv_span = lad_obs::span("kernel.kv_read_f32");
            reference::softmax_read(scores, m, &self.kv)
        };
        StepOutput {
            output,
            stats: StepStats {
                n,
                keys_scored: n,
                keys_read: n,
                bytes_moved: 2 * n * d * ELEMENT_BYTES,
                ..StepStats::default()
            },
        }
    }

    /// The crossing from prompt rows to decode rows: every prompt position's
    /// mode becomes the argmax of the intervals its prompt rows counted,
    /// and positions `0..=P-1-window` are cached under their modes (Eq. 5).
    /// Returns the (keys, values) it read from the arena.
    fn build_decode_state(&mut self) -> (usize, usize) {
        let _mode_update_span = lad_obs::span("lad.mode_update");
        let p = self.kv.len();
        self.tracker.settle_modes();
        self.cached_mode.resize(p, None);
        let cached = p.saturating_sub(self.cfg.window);
        for i in 0..cached {
            let mode = self.tracker.mode(i);
            let (a, b) = self.cfg.pwl.coeffs(mode);
            self.cache.insert(a, b, self.kv.key(i), self.kv.value(i));
            self.cached_mode[i] = Some(mode as u8);
        }
        // Give the per-position step buffers the capacity doubling growth
        // through `P` per-row steps would have left them.
        let capacity = (p + 1).next_power_of_two();
        let scratch = &mut self.scratch;
        scratch.scores.clear();
        scratch.scores.reserve(capacity);
        // The center read lists two scores per center.
        scratch.gathered.reserve(2 * capacity);
        scratch.exact.reserve(capacity);
        scratch.corrected.reserve(capacity);
        (cached, cached)
    }

    /// Executes one decoding step: appends `(key, value)` to the KV cache and
    /// computes the attention output for `query`. The first step after
    /// [`LadAttention::prompt_row`]s first builds the decode state from them
    /// (under the `lad.mode_update` span, its reads counted in this step's
    /// stats). Alg. 1 registers the new key from the same key read that
    /// scores the query (under `lad.identify`).
    ///
    /// The per-step working memory lives in a reusable scratch, so after
    /// warm-up the hot path's only allocation is the returned output vector.
    /// Every KV read is a gathered one: each stage lists the positions it
    /// needs and reads them in one [`KvCache::score_positions_into`] /
    /// [`KvCache::values_weighted_at`] call, in the order the per-position
    /// loop would have, so the result is bit-identical to that loop.
    ///
    /// # Panics
    ///
    /// Panics if any slice length differs from the head dimension.
    pub fn step(&mut self, query: &[f32], key: &[f32], value: &[f32]) -> StepOutput {
        let d = self.kv.dim();
        assert_eq!(query.len(), d, "step: query dim mismatch");
        // Traffic counters: key/value vectors fetched from the KV arena this
        // step, incremented at every read site below.
        let (mut keys_fetched, mut values_fetched) = if self.cached_mode.len() < self.kv.len() {
            self.build_decode_state()
        } else {
            (0, 0)
        };

        // -- Append the new position; Alg. 1 registers it during
        // identification, from the key read that scores the query.
        self.kv.push(key, value);
        self.tracker.push_position();
        self.cached_mode.push(None);
        // Detach the scratch so its buffers can be borrowed alongside the
        // other fields; reattached (capacity intact) before returning.
        let mut scratch = std::mem::take(&mut self.scratch);
        let n = self.kv.len();

        let scale = 1.0 / (d as f32).sqrt();
        scratch.q_scaled.clear();
        scratch.q_scaled.extend(query.iter().map(|&x| x * scale));
        let q_scaled = &scratch.q_scaled;

        // -- Stage 1-2: attention scores for identification.
        scratch.scores.clear();
        scratch.scores.resize(n, 0.0);
        scratch.exact.clear();
        scratch.exact.resize(n, false); // which scores are exact
        let scores = &mut scratch.scores;
        let exact = &mut scratch.exact;
        let gather = &mut scratch.gather;
        let gathered = &mut scratch.gathered;
        let mut large_mode_exact = 0usize;

        let identify_span = lad_obs::span("lad.identify");
        match self.cfg.identification {
            Identification::Oracle => {
                // All keys against the query and the new key in one pass.
                scores.clear();
                self.kv.score_keys2_into(q_scaled, key, scores);
                self.centers.admit(key, |_, c| scores[n + c]);
                scores.truncate(n);
                exact.fill(true);
                keys_fetched += n;
            }
            Identification::Approximate => {
                // EAS.1 and Alg. 1 in one gathered read of the center keys:
                // the query's exact center scores, and the new key's dot
                // products with them. If the new key becomes a center, the
                // window read below scores it.
                let centers = self.centers.center_positions();
                let listed = centers.len();
                gathered.clear();
                self.kv
                    .score_positions2_into(q_scaled, key, centers, gathered);
                for (&c, &s) in centers.iter().zip(gathered.iter()) {
                    scores[c as usize] = s;
                    exact[c as usize] = true;
                }
                keys_fetched += listed;
                self.centers.admit(key, |k, _| gathered[listed + k]);
                // EAS.2: rescale via dnorm. Every `cid` is a center, whose
                // exact score EAS.1 just wrote, unless it is the new key
                // itself; the window read overwrites that estimate.
                for i in 0..n {
                    if !exact[i] {
                        scores[i] = scores[self.centers.cid(i)] * self.centers.dnorm(i);
                    }
                }
                // EAS.3: exact scores for large-mode cached positions.
                if self.cfg.exact_large_modes {
                    let _large_mode_span = lad_obs::span("lad.large_mode_exact");
                    gather.clear();
                    gather.extend((0..n).filter(|&i| {
                        !exact[i]
                            && self.cached_mode[i].is_some()
                            && self.tracker.mode(i) >= self.cfg.large_mode_min_index
                    }));
                    score_listed(&self.kv, q_scaled, gather, gathered, scores, exact);
                    large_mode_exact = gather.len();
                    keys_fetched += gather.len();
                }
                // Window positions are in the active FIFO by default — the MD
                // module computes their exact scores.
                gather.clear();
                gather.extend((0..n).filter(|&i| !exact[i] && self.cached_mode[i].is_none()));
                score_listed(&self.kv, q_scaled, gather, gathered, scores, exact);
                keys_fetched += gather.len();
            }
        }

        let m = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);

        // -- APID: identify active cached positions (ascending).
        scratch.active.clear();
        for (i, &score) in scores.iter().enumerate() {
            if self.cached_mode[i].is_some() {
                let mode = self.tracker.mode(i);
                let (lo, hi) = self.cfg.pwl.interval_bounds(mode);
                let shifted = score - m;
                if shifted < lo || shifted > hi {
                    scratch.active.push(i);
                }
            }
        }
        drop(identify_span);

        // -- AC.1/AC.2: mode-based numerator and denominator from the caches.
        let mut den = {
            let _mode_eval_span = lad_obs::span("lad.mode_eval");
            self.cache.evaluate_into(q_scaled, m, &mut scratch.num)
        };
        let num = &mut scratch.num;
        let (value_pos, value_w) = (&mut scratch.value_pos, &mut scratch.value_w);

        // -- MD + AC.3: correction computations for active positions.
        let correct_span = lad_obs::span("lad.correct");
        let mut mode_updates = 0usize;
        let mut new_active = 0usize;
        scratch.corrected.clear();
        scratch.corrected.resize(n, false);
        // The MD module computes the *accurate* score for active positions:
        // one gathered key read for those whose score is still an estimate.
        gather.clear();
        gather.extend(scratch.active.iter().copied().filter(|&j| !exact[j]));
        gathered.clear();
        self.kv.score_positions_into(q_scaled, gather, gathered);
        keys_fetched += gather.len();
        let mut fresh = gathered.iter().copied();
        // Both active lists ascend, so "new since last step" is a merge walk.
        let mut prev = self.prev_active.iter().copied().peekable();
        value_pos.clear();
        value_w.clear();
        for &j in &scratch.active {
            let s_exact = if exact[j] {
                scores[j]
            } else {
                fresh
                    .next()
                    .expect("one gathered score per estimated active")
            };
            let shifted = s_exact - m;
            let id = self.cfg.pwl.interval_of(shifted);
            let cached = usize::from(self.cached_mode[j].expect("active positions are cached"));
            let (a_id, b_id) = self.cfg.pwl.coeffs(id);
            let (a_mode, b_mode) = self.cfg.pwl.coeffs(cached);
            let alpha = a_id - a_mode;
            let beta = b_id - b_mode;
            // Correction factor; zero for false positives (id == cached).
            let cf = alpha * shifted + beta;
            if cf != 0.0 {
                value_pos.push(j);
                value_w.push(cf);
                den += cf;
            }
            scratch.corrected[j] = true;
            while prev.next_if(|&p| p < j).is_some() {}
            if prev.next_if_eq(&j).is_none() {
                new_active += 1;
            }
            // Counter maintenance for active positions uses the true interval.
            let changed = self.tracker.record(j, id);
            if changed {
                self.cache
                    .delta_update(alpha, beta, self.kv.key(j), self.kv.value(j));
                self.cached_mode[j] = Some(id as u8);
                mode_updates += 1;
                keys_fetched += 1;
                values_fetched += 1;
            }
        }
        // The corrections' value reads, in active order: `num` receives
        // exactly the adds the per-position loop made, in the same order.
        values_fetched += value_pos.len();
        self.kv.values_weighted_at(value_pos, value_w, num);
        drop(correct_span);

        // -- Step 5: window positions (not yet cached) computed directly.
        // Their `(position, score)` pairs are cached in scratch: the
        // degenerate-denominator fallback below feeds on the slice directly,
        // so it costs O(window · d) instead of rescanning all n positions.
        let window_span = lad_obs::span("lad.window");
        let mut window_count = 0usize;
        scratch.window_scores.clear();
        value_pos.clear();
        value_w.clear();
        for (i, &score) in scores.iter().enumerate() {
            if self.cached_mode[i].is_none() {
                window_count += 1;
                scratch.window_scores.push((i, score));
                let shifted = score - m;
                let id = self.cfg.pwl.interval_of(shifted);
                let (a, b) = self.cfg.pwl.coeffs(id);
                let w = a * shifted + b;
                if w != 0.0 {
                    value_pos.push(i);
                    value_w.push(w);
                    den += w;
                }
                self.tracker.record(i, id);
            } else if !scratch.corrected[i] {
                // Non-active cached position: APID increments its mode
                // counter without knowing the true interval.
                self.tracker.record_mode_hit(i);
            }
        }
        values_fetched += value_pos.len();
        self.kv.values_weighted_at(value_pos, value_w, num);
        drop(window_span);

        // -- Degenerate-denominator guard: the PWL weights can go negative
        // (the least-squares fit dips below zero near interval edges), so
        // `den` can vanish or flip sign on adversarial partitions/streams.
        // Fall back to exact softmax over the window positions — always
        // non-empty (the newest position is one) and finite by construction.
        let mut den_fallbacks = 0usize;
        let output: Vec<f32> = if den.is_finite() && den > DEN_EPSILON {
            num.iter().map(|&x| (x / den) as f32).collect()
        } else {
            let _fallback_span = lad_obs::span("lad.den_fallback");
            den_fallbacks = 1;
            // The window pass already collected every (position, exact score)
            // pair; reuse the cached slice rather than rescanning `scores`.
            let mut m_w = f64::NEG_INFINITY;
            for &(_, score) in &scratch.window_scores {
                m_w = m_w.max(score);
            }
            value_pos.clear();
            value_w.clear();
            let mut w_den = 0.0f64;
            for &(i, score) in &scratch.window_scores {
                let w = (score - m_w).exp();
                w_den += w;
                value_pos.push(i);
                value_w.push(w);
            }
            num.clear();
            num.resize(d, 0.0);
            values_fetched += value_pos.len();
            self.kv.values_weighted_at(value_pos, value_w, num);
            num.iter().map(|&x| (x / w_den) as f32).collect()
        };

        // -- Diagnostics: oracle comparison of the active set.
        let (false_negatives, false_positives) =
            if self.cfg.diagnostics && self.cfg.identification == Identification::Approximate {
                // The oracle comparison re-reads every cached position's key.
                keys_fetched += self.cached_mode.iter().flatten().count();
                self.identification_errors(q_scaled, m, &scratch.corrected)
            } else {
                (0, 0)
            };

        // -- Aging: the oldest window position joins the caches (Eq. 5).
        let _mode_update_span = lad_obs::span("lad.mode_update");
        if n > self.cfg.window {
            let aged = n - 1 - self.cfg.window;
            if self.cached_mode[aged].is_none() {
                let mode = self.tracker.mode(aged);
                let (a, b) = self.cfg.pwl.coeffs(mode);
                self.cache
                    .insert(a, b, self.kv.key(aged), self.kv.value(aged));
                self.cached_mode[aged] = Some(mode as u8);
                keys_fetched += 1;
                values_fetched += 1;
            }
        }

        // Swap rather than move: this step's ascending active list becomes
        // `prev_active`, and last step's list the next step's (cleared)
        // scratch, so neither list is ever re-allocated.
        let active_count = scratch.active.len();
        std::mem::swap(&mut self.prev_active, &mut scratch.active);
        self.scratch = scratch;

        StepOutput {
            output,
            stats: StepStats {
                n,
                centers: self.centers.centers().len(),
                large_mode_exact,
                active: active_count,
                window: window_count,
                mode_updates,
                new_active,
                false_negatives,
                false_positives,
                den_fallbacks,
                // Every position receives a score (exact or center-estimated);
                // only `keys_read` of them cost arena bandwidth.
                keys_scored: n,
                keys_read: keys_fetched,
                bytes_moved: (keys_fetched + values_fetched) * d * ELEMENT_BYTES,
                evictions: 0,
                // Scheduling metadata: the session that fanned this head out
                // (if any) overwrites it with the scheduled width.
                fanout_width: 0,
            },
        }
    }

    /// Compares the identified active set (`identified[i]` for every
    /// position the step corrected) against oracle identification.
    fn identification_errors(
        &self,
        q_scaled: &[f32],
        m: f64,
        identified: &[bool],
    ) -> (usize, usize) {
        let mut false_negatives = 0;
        let mut false_positives = 0;
        for (i, (&cached, &identified)) in self.cached_mode.iter().zip(identified).enumerate() {
            let Some(cached) = cached else {
                continue;
            };
            // We compare against the *cached* mode: a position is truly
            // active when its exact-score interval differs from the interval
            // its cache contribution assumes.
            let s = f64::from(vector::dot(q_scaled, self.kv.key(i)));
            let truly_active = self.cfg.pwl.interval_of(s - m) != usize::from(cached);
            match (truly_active, identified) {
                (true, false) => false_negatives += 1,
                (false, true) => false_positives += 1,
                _ => {}
            }
        }
        (false_negatives, false_positives)
    }
}

/// Scores the listed `positions` exactly with one gathered key read (into
/// `buf`) and records them in `scores` / `exact`.
fn score_listed(
    kv: &KvCache,
    q_scaled: &[f32],
    positions: &[usize],
    buf: &mut Vec<f64>,
    scores: &mut [f64],
    exact: &mut [bool],
) {
    buf.clear();
    kv.score_positions_into(q_scaled, positions, buf);
    for (&i, &s) in positions.iter().zip(buf.iter()) {
        scores[i] = s;
        exact[i] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use lad_math::Rng;

    fn run_head(
        cfg: LadConfig,
        n_steps: usize,
        d: usize,
        seed: u64,
    ) -> (Vec<Vec<f32>>, Vec<StepStats>, LadAttention) {
        let mut rng = Rng::new(seed);
        let mut head = LadAttention::new(d, cfg);
        let mut outs = Vec::new();
        let mut stats = Vec::new();
        for _ in 0..n_steps {
            let q = rng.normal_vec(d, 1.0);
            let k = rng.normal_vec(d, 1.0);
            let v = rng.normal_vec(d, 1.0);
            let out = head.step(&q, &k, &v);
            outs.push(out.output);
            stats.push(out.stats);
        }
        (outs, stats, head)
    }

    #[test]
    fn first_step_returns_the_value() {
        let mut head = LadAttention::new(4, LadConfig::default());
        let out = head.step(&[1.0; 4], &[0.5; 4], &[1.0, 2.0, 3.0, 4.0]);
        // One position: softmax weight 1 -> output == value.
        for (got, want) in out.output.iter().zip([1.0, 2.0, 3.0, 4.0]) {
            assert!((got - want).abs() < 1e-5);
        }
        assert_eq!(out.stats.n, 1);
        assert_eq!(out.stats.window, 1);
        assert_eq!(out.stats.active, 0);
    }

    #[test]
    fn oracle_matches_direct_pwl_attention() {
        // The core exactness invariant: with oracle identification the LAD
        // cached computation reproduces direct PWL attention (Eq.3 == Eq.4).
        let d = 16;
        let pwl = PwlExp::accurate_default();
        let mut rng = Rng::new(77);
        let mut head = LadAttention::new(d, LadConfig::oracle(pwl.clone()));
        let mut shadow = KvCache::new(d);
        for step in 0..120 {
            let q = rng.normal_vec(d, 1.0);
            let k = rng.normal_vec(d, 1.0);
            let v = rng.normal_vec(d, 1.0);
            shadow.push(&k, &v);
            let lad = head.step(&q, &k, &v).output;
            let direct = reference::pwl_attention(&q, &shadow, &pwl);
            let rel = vector::relative_l2(&lad, &direct);
            assert!(rel < 1e-4, "step {step}: relative error {rel}");
        }
    }

    #[test]
    fn approximate_tracks_exact_attention() {
        // End-to-end accuracy: approximate identification stays close to the
        // exact softmax attention on random streams.
        let d = 16;
        let (outs, _, head) = run_head(LadConfig::default(), 100, d, 78);
        let mut rng = Rng::new(78);
        let mut shadow = KvCache::new(d);
        let mut worst = 0.0f32;
        for out in &outs {
            let q = rng.normal_vec(d, 1.0);
            let k = rng.normal_vec(d, 1.0);
            let v = rng.normal_vec(d, 1.0);
            shadow.push(&k, &v);
            let exact = reference::exact_attention(&q, &shadow);
            worst = worst.max(vector::relative_l2(out, &exact));
        }
        assert_eq!(head.kv().len(), 100);
        assert!(worst < 0.15, "worst relative error {worst}");
    }

    #[test]
    fn stats_shape_is_sane() {
        let (_, stats, _) = run_head(LadConfig::default(), 80, 8, 79);
        let last = stats.last().unwrap();
        assert_eq!(last.n, 80);
        // Window covers the latest positions (W + the one about to age).
        assert_eq!(last.window, DEFAULT_WINDOW + 1);
        // Active positions are a subset of cached ones.
        assert!(last.active <= last.n - last.window);
        // Before the window fills, nothing is cached or active.
        assert_eq!(stats[5].active, 0);
        assert_eq!(stats[5].window, 6);
    }

    #[test]
    fn cached_mode_matches_tracker_after_updates() {
        // Internal consistency: every cached position's cache contribution
        // must be under its tracker mode at step boundaries.
        let (_, _, head) = run_head(LadConfig::default(), 120, 8, 80);
        for (i, cached) in head.cached_mode.iter().enumerate() {
            if let Some(mode) = cached {
                assert_eq!(
                    usize::from(*mode),
                    head.tracker.mode(i),
                    "position {i} cache/tracker divergence"
                );
            }
        }
    }

    #[test]
    fn oracle_reports_no_identification_errors() {
        let pwl = PwlExp::accurate_default();
        let mut cfg = LadConfig::oracle(pwl);
        cfg.diagnostics = true;
        let (_, stats, _) = run_head(cfg, 60, 8, 81);
        for s in &stats {
            assert_eq!(s.false_negatives, 0);
            assert_eq!(s.false_positives, 0);
        }
    }

    #[test]
    fn diagnostics_bound_misidentification() {
        let cfg = LadConfig {
            diagnostics: true,
            ..LadConfig::default()
        };
        let (_, stats, _) = run_head(cfg, 150, 16, 82);
        let total_cached: usize = stats.iter().map(|s| s.n.saturating_sub(s.window)).sum();
        let total_fn: usize = stats.iter().map(|s| s.false_negatives).sum();
        // Paper Sec. III-F: error positions are limited to ~1%. Random keys
        // are much harder than real LLM keys, so allow some slack.
        let rate = total_fn as f64 / total_cached.max(1) as f64;
        assert!(rate < 0.10, "false negative rate {rate}");
    }

    #[test]
    fn window_config_controls_cache_admission() {
        let cfg = LadConfig {
            window: 4,
            ..LadConfig::default()
        };
        let (_, stats, head) = run_head(cfg, 30, 8, 83);
        assert_eq!(stats.last().unwrap().window, 5);
        // After the step's aging, positions 0..=n-1-window are cached.
        let cached = head.cached_mode.iter().filter(|m| m.is_some()).count();
        assert_eq!(cached, 30 - 4);
    }

    #[test]
    fn centers_grow_sublinearly_on_clustered_keys() {
        // Keys drawn from a few directions produce few centers.
        let d = 8;
        let mut rng = Rng::new(84);
        let dirs: Vec<Vec<f32>> = (0..4).map(|_| rng.normal_vec(d, 1.0)).collect();
        let mut head = LadAttention::new(d, LadConfig::default());
        for i in 0..60 {
            let base = &dirs[i % 4];
            let k: Vec<f32> = base.iter().map(|&x| x * (1.0 + 0.1 * (i as f32))).collect();
            let q = rng.normal_vec(d, 1.0);
            let v = rng.normal_vec(d, 1.0);
            head.step(&q, &k, &v);
        }
        assert!(
            head.centers().centers().len() <= 8,
            "got {} centers",
            head.centers().centers().len()
        );
    }

    #[test]
    fn center_book_equals_add_key_over_the_same_keys() {
        // Alg. 1 takes its dots from the row's own key read (a full pass on
        // prompt rows and oracle decode rows, the center read on
        // approximate ones); the book must be the one `add_key` builds.
        let d = 8;
        let mut rng = Rng::new(97);
        let dirs: Vec<Vec<f32>> = (0..3).map(|_| rng.normal_vec(d, 1.0)).collect();
        for cfg in [
            LadConfig::default(),
            LadConfig::oracle(PwlExp::accurate_default()),
        ] {
            let mut head = LadAttention::new(d, cfg);
            for i in 0..60 {
                let noise = rng.normal_vec(d, 0.05);
                let k: Vec<f32> = dirs[i % 3].iter().zip(noise).map(|(x, e)| x + e).collect();
                let (q, v) = (rng.normal_vec(d, 1.0), rng.normal_vec(d, 1.0));
                if i < 20 {
                    head.prompt_row(&q, &k, &v);
                } else {
                    head.step(&q, &k, &v);
                }
            }
            let mut book = CenterBook::new(DEFAULT_COLLINEARITY_THRESHOLD);
            let keys = head.kv().keys();
            for n in 1..=keys.len() {
                let prefix: Vec<Vec<f32>> = keys.iter().take(n).map(<[f32]>::to_vec).collect();
                book.add_key(&prefix[..]);
            }
            assert_eq!(head.centers(), &book);
            assert!(book.centers().len() < 60, "keys not clustered");
        }
    }

    #[test]
    fn checkpoint_restore_is_bit_exact() {
        // Decode N steps, checkpoint, decode M more (enough to trigger
        // aging, corrections and counter records on old positions), restore,
        // replay the same M inputs: outputs and stats must be bit-identical.
        let d = 8;
        let cfg = LadConfig {
            window: 4,
            ..LadConfig::default()
        };
        let mut rng = Rng::new(90);
        let mut head = LadAttention::new(d, cfg);
        for _ in 0..20 {
            let (q, k, v) = (
                rng.normal_vec(d, 1.0),
                rng.normal_vec(d, 1.0),
                rng.normal_vec(d, 1.0),
            );
            head.step(&q, &k, &v);
        }
        let ck = head.checkpoint();
        let inputs: Vec<_> = (0..10)
            .map(|_| {
                (
                    rng.normal_vec(d, 1.0),
                    rng.normal_vec(d, 1.0),
                    rng.normal_vec(d, 1.0),
                )
            })
            .collect();
        let first: Vec<StepOutput> = inputs.iter().map(|(q, k, v)| head.step(q, k, v)).collect();
        head.restore(&ck);
        assert_eq!(head.kv().len(), 20);
        let second: Vec<StepOutput> = inputs.iter().map(|(q, k, v)| head.step(q, k, v)).collect();
        assert_eq!(first, second, "replay after restore diverged");
    }

    /// `(q, k, v)` triples of a random stream.
    fn stream(rng: &mut Rng, len: usize, d: usize) -> Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> {
        (0..len)
            .map(|_| {
                (
                    rng.normal_vec(d, 1.0),
                    rng.normal_vec(d, 1.0),
                    rng.normal_vec(d, 1.0),
                )
            })
            .collect()
    }

    /// Max absolute difference between two caches' `A`–`F` terms.
    fn cache_gap(x: &IntermediateCache, y: &IntermediateCache) -> f64 {
        let (xa, ya) = (x.a_matrix(), y.a_matrix());
        let mut gap = xa
            .as_slice()
            .iter()
            .zip(ya.as_slice())
            .map(|(a, b)| f64::from((a - b).abs()))
            .fold(0.0, f64::max);
        let (xb, xc, xd, xe, xf) = x.small_caches();
        let (yb, yc, yd, ye, yf) = y.small_caches();
        for (u, v) in [(xb, yb), (xc, yc), (xd, yd)] {
            for (a, b) in u.iter().zip(v) {
                gap = gap.max((a - b).abs());
            }
        }
        gap.max((xe - ye).abs()).max((xf - yf).abs())
    }

    #[test]
    fn prompt_rows_are_exact_and_oracle_decode_matches_pwl_attention() {
        // Prompt rows answer with exact softmax; from the first decode row
        // on, oracle LAD must reproduce direct PWL attention (Eq. 3 ==
        // Eq. 4) on top of the state the crossing built, with every cached
        // contribution under its tracker mode and A-F equal to a
        // from-scratch sum over the cached positions.
        let d = 16;
        let pwl = PwlExp::accurate_default();
        let cfg = LadConfig {
            window: 8,
            ..LadConfig::oracle(pwl.clone())
        };
        let mut rng = Rng::new(91);
        let mut head = LadAttention::new(d, cfg);
        let mut shadow = KvCache::new(d);
        for (q, k, v) in stream(&mut rng, 40, d) {
            shadow.push(&k, &v);
            let out = head.prompt_row(&q, &k, &v);
            assert_eq!(out.output, reference::exact_attention(&q, &shadow));
            assert_eq!(out.stats.active, 0);
        }
        // Every prompt row counted every position it saw, but nothing is
        // cached before the crossing.
        assert_eq!(head.tracker().len(), 40);
        for i in 0..40 {
            let rows: u16 = head.tracker().counts(i).iter().sum();
            assert_eq!(usize::from(rows), 40 - i, "position {i}");
            assert_eq!(head.cached_interval(i), None);
        }
        for (step, (q, k, v)) in stream(&mut rng, 30, d).into_iter().enumerate() {
            shadow.push(&k, &v);
            let lad = head.step(&q, &k, &v).output;
            let direct = reference::pwl_attention(&q, &shadow, &pwl);
            let rel = vector::relative_l2(&lad, &direct);
            assert!(rel < 1e-4, "decode row {step}: relative error {rel}");
            let mut scratch = IntermediateCache::new(d);
            for i in 0..head.kv().len() {
                if let Some(mode) = head.cached_interval(i) {
                    assert_eq!(mode, head.tracker().mode(i), "position {i}");
                    let (a, b) = pwl.coeffs(mode);
                    scratch.insert(a, b, shadow.key(i), shadow.value(i));
                }
            }
            let gap = cache_gap(head.intermediate_cache(), &scratch);
            assert!(gap < 1e-6, "decode row {step}: A-F gap {gap}");
        }
    }

    #[test]
    fn crossing_leaves_the_shape_of_per_row_lad_steps() {
        // After P prompt rows and one decode row the head holds the state
        // P + 1 LAD steps would: the same arena, a bit-identical center
        // book, one counter row per position and positions
        // 0..=P-window cached.
        let d = 8;
        let cfg = LadConfig {
            window: 4,
            ..LadConfig::default()
        };
        let inputs = stream(&mut Rng::new(92), 25, d);
        let mut crossed = LadAttention::new(d, cfg.clone());
        let mut per_row = LadAttention::new(d, cfg);
        let (last, prompt) = inputs.split_last().unwrap();
        for (q, k, v) in prompt {
            crossed.prompt_row(q, k, v);
            per_row.step(q, k, v);
        }
        crossed.step(&last.0, &last.1, &last.2);
        per_row.step(&last.0, &last.1, &last.2);
        assert_eq!(crossed.centers(), per_row.centers());
        assert_eq!(crossed.tracker().len(), 25);
        for i in 0..25 {
            assert_eq!(
                crossed.cached_interval(i).is_some(),
                per_row.cached_interval(i).is_some(),
                "position {i}"
            );
        }
        assert_eq!(
            (0..25)
                .filter(|&i| crossed.cached_interval(i).is_some())
                .count(),
            21
        );
    }

    #[test]
    fn counters_equal_the_pwl_intervals_of_every_row() {
        // Prompt rows count every position's exact interval, and under
        // oracle identification each decode row records it too, so each
        // position's counters are exactly the PWL intervals (Eq. 3) of
        // every prompt row and decode row that saw it.
        let d = 8;
        let pwl = PwlExp::accurate_default();
        let cfg = LadConfig {
            window: 4,
            ..LadConfig::oracle(pwl.clone())
        };
        let inputs = stream(&mut Rng::new(95), 14, d);
        let mut head = LadAttention::new(d, cfg);
        let mut shadow = KvCache::new(d);
        let mut want = vec![vec![0u16; pwl.num_intervals()]; inputs.len()];
        for (r, (q, k, v)) in inputs.iter().enumerate() {
            shadow.push(k, v);
            if r < 10 {
                head.prompt_row(q, k, v);
            } else {
                head.step(q, k, v);
            }
            let (_, intervals) = reference::pwl_attention_detailed(q, &shadow, &pwl);
            for (i, id) in intervals.into_iter().enumerate() {
                want[i][id] += 1;
            }
            if r == 9 {
                // Before the crossing nothing has moved a mode.
                assert!(head.tracker().iter_modes().all(|m| m == 0));
            }
        }
        for (i, counts) in want.iter().enumerate() {
            assert_eq!(head.tracker().counts(i), &counts[..], "position {i}");
        }
    }

    #[test]
    fn crossing_settles_modes_to_the_counted_argmax() {
        // At the crossing each prompt position's mode is the argmax of its
        // counters (lowest interval on ties), and the first decode row
        // reads no key beyond a decode row's own reads and the cache
        // inserts: P + 1 oracle scores, one key per mode update, P - window
        // inserts and one aging insert, never the P prompt keys again.
        let (d, p, window) = (8, 30, 4);
        let cfg = LadConfig {
            window,
            ..LadConfig::oracle(PwlExp::accurate_default())
        };
        let mut rng = Rng::new(96);
        let mut head = LadAttention::new(d, cfg);
        for (q, k, v) in stream(&mut rng, p, d) {
            head.prompt_row(&q, &k, &v);
        }
        let argmax: Vec<usize> = (0..p)
            .map(|i| {
                let counts = head.tracker().counts(i);
                let top = *counts.iter().max().unwrap();
                counts.iter().position(|&c| c == top).unwrap()
            })
            .collect();
        let (q, k, v) = (
            rng.normal_vec(d, 1.0),
            rng.normal_vec(d, 1.0),
            rng.normal_vec(d, 1.0),
        );
        crate::kv::reset_traffic_bytes();
        let stats = head.step(&q, &k, &v).stats;
        let inserts = p - window + 1;
        assert_eq!(stats.keys_read, (p + 1) + stats.mode_updates + inserts);
        assert_eq!(
            stats.bytes_moved as u64,
            crate::kv::traffic_bytes(),
            "stats vs meter"
        );
        // Positions the decode row did not move keep the settled argmax.
        let mut kept = 0;
        for (i, &mode) in argmax.iter().enumerate() {
            if !head.was_corrected_last_step(i) && i < p - window {
                assert_eq!(head.cached_interval(i), Some(mode), "position {i}");
                kept += 1;
            }
        }
        assert!(kept > 0, "every cached position was corrected");
    }

    #[test]
    fn restore_across_the_crossing_is_bit_exact() {
        // A checkpoint taken before the first decode row rewinds the build
        // too: the prompt rows' counters come back unsettled, and the
        // replay rebuilds the same decode state.
        let d = 8;
        let cfg = LadConfig {
            window: 4,
            ..LadConfig::default()
        };
        let mut rng = Rng::new(93);
        let mut head = LadAttention::new(d, cfg);
        for (q, k, v) in stream(&mut rng, 12, d) {
            head.prompt_row(&q, &k, &v);
        }
        let ck = head.checkpoint();
        let inputs = stream(&mut rng, 6, d);
        let first: Vec<StepOutput> = inputs.iter().map(|(q, k, v)| head.step(q, k, v)).collect();
        head.restore(&ck);
        assert_eq!(head.tracker().len(), 12);
        assert_eq!(head.cached_interval(0), None);
        let second: Vec<StepOutput> = inputs.iter().map(|(q, k, v)| head.step(q, k, v)).collect();
        assert_eq!(first, second, "replay after restore diverged");
    }

    #[test]
    fn prompt_rows_after_decode_rows_are_decode_rows() {
        let d = 8;
        let inputs = stream(&mut Rng::new(94), 10, d);
        let mut mixed = LadAttention::new(d, LadConfig::default());
        let mut decode = LadAttention::new(d, LadConfig::default());
        for (i, (q, k, v)) in inputs.iter().enumerate() {
            let got = if i < 4 {
                mixed.step(q, k, v)
            } else {
                mixed.prompt_row(q, k, v)
            };
            assert_eq!(got, decode.step(q, k, v), "row {i}");
        }
    }

    #[test]
    #[should_panic(expected = "at most 256 intervals")]
    fn more_than_256_intervals_rejected() {
        let bounds: Vec<f64> = (0..=300).map(|i| f64::from(i - 300) / 10.0).collect();
        let pwl = PwlExp::with_boundaries(&bounds).expect("valid partition");
        LadAttention::new(4, LadConfig::new(pwl));
    }

    #[test]
    #[should_panic(expected = "query dim mismatch")]
    fn wrong_query_dim_panics() {
        let mut head = LadAttention::new(4, LadConfig::default());
        head.step(&[1.0; 3], &[0.0; 4], &[0.0; 4]);
    }

    #[test]
    fn degenerate_denominator_falls_back_to_window_softmax() {
        // A deliberately coarse two-interval partition: its least-squares fit
        // of exp on [-100, 0] goes negative near the far end, so a few deeply
        // negative scores drive the PWL denominator below zero. Without the
        // guard this divided by den <= 0 and produced garbage or non-finite
        // outputs; with it, the step must stay finite and flag the event.
        let pwl = PwlExp::with_boundaries(&[-100.0, 0.0]).unwrap();
        let mut head = LadAttention::new(2, LadConfig::new(pwl));
        let q = [10.0f32, 0.0];
        let first = head.step(&q, &[2.0, 0.0], &[5.0, -3.0]);
        assert_eq!(first.stats.den_fallbacks, 0);

        let mut fallbacks = 0usize;
        let mut last = first;
        for i in 0..6 {
            last = head.step(&q, &[-12.0, 0.0], &[i as f32, 1.0]);
            assert!(
                last.output.iter().all(|x| x.is_finite()),
                "step {i}: non-finite output {:?}",
                last.output
            );
            fallbacks += last.stats.den_fallbacks;
        }
        assert!(fallbacks > 0, "partition never degenerated den");

        // Everything is still inside the window here, so the fallback is the
        // exact softmax over the whole cache.
        assert_eq!(last.stats.den_fallbacks, 1);
        let exact = reference::exact_attention(&q, head.kv());
        let rel = vector::relative_l2(&last.output, &exact);
        assert!(rel < 1e-5, "fallback vs exact softmax: {rel}");
    }

    #[test]
    fn den_fallback_matches_window_softmax_with_cached_positions() {
        // Regression for the cached window-score-slice fast path: on a stream
        // engineered to degenerate the denominator *after* positions have aged
        // into the intermediate caches, the fallback must still equal the
        // exact softmax over only the window positions — computed here
        // independently from a shadow KV cache, in the same f64 op order, so
        // the comparison is bit-exact. Any drift in what the fallback reads
        // (e.g. the cached slice going stale) breaks this equality.
        let pwl = PwlExp::with_boundaries(&[-100.0, 0.0]).unwrap();
        let cfg = LadConfig {
            window: 3,
            ..LadConfig::new(pwl)
        };
        let d = 2;
        let mut head = LadAttention::new(d, cfg);
        let mut shadow = KvCache::new(d);
        let q = [10.0f32, 0.0];
        let scale = 1.0 / (d as f32).sqrt();
        let q_scaled: Vec<f32> = q.iter().map(|&x| x * scale).collect();

        let mut fallbacks_with_cache = 0usize;
        for i in 0..12 {
            // First key scores high (pins the max); the rest score ~-85
            // shifted, where the coarse fit's weights go negative.
            let k = if i == 0 { [2.0f32, 0.0] } else { [-12.0, 0.0] };
            let v = [i as f32, 1.0 - i as f32];
            shadow.push(&k, &v);
            let out = head.step(&q, &k, &v);
            assert!(out.output.iter().all(|x| x.is_finite()));
            if out.stats.den_fallbacks == 0 {
                continue;
            }
            // Window positions during step i (0-indexed): everything not yet
            // aged into the caches, i.e. indices > i - 1 - window.
            let n: usize = i + 1;
            let first_window = n.saturating_sub(head.config().window + 1);
            if first_window > 0 {
                fallbacks_with_cache += 1;
            }
            let mut m_w = f64::NEG_INFINITY;
            let scores: Vec<f64> = (first_window..n)
                .map(|j| f64::from(vector::dot(&q_scaled, shadow.key(j))))
                .collect();
            for &s in &scores {
                m_w = m_w.max(s);
            }
            let mut num = vec![0.0f64; d];
            let mut den = 0.0f64;
            for (j, &s) in (first_window..n).zip(&scores) {
                let w = (s - m_w).exp();
                den += w;
                for (slot, &vc) in num.iter_mut().zip(shadow.value(j)) {
                    *slot += w * f64::from(vc);
                }
            }
            let expected: Vec<f32> = num.iter().map(|&x| (x / den) as f32).collect();
            assert_eq!(out.output, expected, "step {i}: fallback diverged");
        }
        assert!(
            fallbacks_with_cache > 0,
            "stream never hit the fallback with cached positions present"
        );
    }
}
