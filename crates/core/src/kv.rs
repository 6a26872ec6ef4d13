//! Per-head key-value cache (paper Eq. 1).
//!
//! Stores every key and value of the decoding history, exactly like the KV
//! cache an LLM keeps in HBM. The LAD decoder reads from it sparsely; the
//! reference attentions read it densely.
//!
//! Keys and values live in one contiguous arena each (`n × d`, row-major)
//! rather than per-position allocations, so center scoring and correction
//! reads walk sequential memory and appending a position never allocates
//! beyond the amortised arena growth.
//!
//! The arena has two storage precisions: the default `f32` layout every
//! existing caller sees unchanged, and an fp16 layout ([`KvPrecision::F16`],
//! raw IEEE binary16 bits in `u16` arenas) that halves KV memory traffic —
//! the quantity the paper's memory-access analysis is about. An fp16 cache is
//! read through the precision-aware kernels ([`KvCache::score_keys_into`],
//! [`KvCache::values_weighted_into`], [`KvCache::value_axpy`],
//! [`KvCache::key_into`]); the raw `f32` slice accessors panic on it rather
//! than silently decoding per call.
//!
//! The dense `f32` reads — every score, and the weighted sum over every
//! value — run on the dispatched [`lad_math::simd`] kernels, whose lanes are
//! keys and value columns respectively. Each score and each output column
//! still accumulates in the scalar loop's order, so both reads are
//! bit-identical to a per-key [`lad_math::vector::dot`] and a per-position
//! [`KvCache::value_axpy`] under either kernel.
//!
//! The sparse reads of the LAD decoder run the gathered forms of the same
//! kernels over a listed subset of positions, with the same guarantee and
//! the same metering as one [`KvCache::key`] / [`KvCache::value`] per
//! listed position:
//!
//! * [`KvCache::score_positions_into`] — the listed keys' scores, through
//!   [`simd::dot_gather_f32`];
//! * [`KvCache::values_weighted_at`] — the weighted sum of the listed values,
//!   in listed order, through [`simd::weighted_gather_f64`].

use lad_math::{f16, simd, F16};
use std::cell::Cell;

thread_local! {
    /// Bytes fetched from KV arenas on this thread through the read
    /// accessors below. A diagnostic shadow meter: the `bytes_moved`
    /// invariant tests reset it, run a (single-threaded) decode and compare
    /// the delta against the backend-reported [`crate::stats::StepStats`]
    /// traffic counters. Reads through a detached [`KeysView`] (center-book
    /// maintenance) are not metered — that traffic is modelled separately.
    static TRAFFIC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Bytes read from KV arenas on this thread since the last
/// [`reset_traffic_bytes`].
pub fn traffic_bytes() -> u64 {
    TRAFFIC_BYTES.with(Cell::get)
}

/// Zeroes this thread's KV traffic meter.
pub fn reset_traffic_bytes() {
    TRAFFIC_BYTES.with(|c| c.set(0));
}

#[inline]
fn meter(bytes: usize) {
    TRAFFIC_BYTES.with(|c| c.set(c.get() + bytes as u64));
}

/// Storage precision of a [`KvCache`]'s arenas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KvPrecision {
    /// Full-precision `f32` arenas — the bit-exact reference layout.
    #[default]
    F32,
    /// IEEE binary16 arenas: keys/values are rounded to nearest-even on
    /// `push` and decoded exactly on read. Halves bytes moved per attention
    /// read at a bounded quantisation error (`≤ 2^-11` relative per element).
    F16,
}

impl KvPrecision {
    /// Bytes one stored element occupies.
    pub fn bytes_per_element(self) -> usize {
        match self {
            KvPrecision::F32 => 4,
            KvPrecision::F16 => 2,
        }
    }

    /// Static name used for spans and reports.
    pub const fn name(self) -> &'static str {
        match self {
            KvPrecision::F32 => "f32",
            KvPrecision::F16 => "f16",
        }
    }
}

/// The KV cache of a single attention head: `n` keys and values of dimension
/// `d`, appended one pair per decoding step.
///
/// # Example
///
/// ```
/// use lad_core::kv::KvCache;
///
/// let mut kv = KvCache::new(4);
/// kv.push(&[1.0, 0.0, 0.0, 0.0], &[0.5; 4]);
/// assert_eq!(kv.len(), 1);
/// assert_eq!(kv.key(0)[0], 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KvCache {
    dim: usize,
    precision: KvPrecision,
    keys: Vec<f32>,
    values: Vec<f32>,
    keys16: Vec<u16>,
    values16: Vec<u16>,
}

impl KvCache {
    /// Creates an empty full-precision (`f32`) cache for head dimension
    /// `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> KvCache {
        KvCache::with_precision(dim, KvPrecision::F32)
    }

    /// Creates an empty cache with an explicit storage precision.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn with_precision(dim: usize, precision: KvPrecision) -> KvCache {
        assert!(dim > 0, "KvCache: dim must be positive");
        KvCache {
            dim,
            precision,
            keys: Vec::new(),
            values: Vec::new(),
            keys16: Vec::new(),
            values16: Vec::new(),
        }
    }

    /// Head dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Storage precision of the arenas.
    pub fn precision(&self) -> KvPrecision {
        self.precision
    }

    /// Number of cached positions `n`.
    pub fn len(&self) -> usize {
        match self.precision {
            KvPrecision::F32 => self.keys.len() / self.dim,
            KvPrecision::F16 => self.keys16.len() / self.dim,
        }
    }

    /// `true` when no positions are cached.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty() && self.keys16.is_empty()
    }

    /// Appends a new key/value pair (paper Eq. 1). The vectors are copied
    /// into the arena; callers keep ownership of their buffers. Under
    /// [`KvPrecision::F16`] both are rounded to nearest-even fp16 here — the
    /// single lossy step of the fp16 path.
    ///
    /// # Panics
    ///
    /// Panics if either slice's length differs from `dim`.
    pub fn push(&mut self, key: &[f32], value: &[f32]) {
        assert_eq!(key.len(), self.dim, "KvCache::push: key dim mismatch");
        assert_eq!(value.len(), self.dim, "KvCache::push: value dim mismatch");
        match self.precision {
            KvPrecision::F32 => {
                self.keys.extend_from_slice(key);
                self.values.extend_from_slice(value);
            }
            KvPrecision::F16 => {
                f16::encode_bits_into(key, &mut self.keys16);
                f16::encode_bits_into(value, &mut self.values16);
            }
        }
    }

    /// Key at `position`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds, or on an fp16 cache (use [`KvCache::key_into`]
    /// / the precision-aware read kernels).
    pub fn key(&self, position: usize) -> &[f32] {
        self.assert_f32("key");
        meter(self.dim * 4);
        &self.keys[position * self.dim..(position + 1) * self.dim]
    }

    /// Value at `position`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds, or on an fp16 cache (use
    /// [`KvCache::value_axpy`]).
    pub fn value(&self, position: usize) -> &[f32] {
        self.assert_f32("value");
        meter(self.dim * 4);
        &self.values[position * self.dim..(position + 1) * self.dim]
    }

    /// View over all keys, oldest first.
    ///
    /// # Panics
    ///
    /// Panics on an fp16 cache (use [`KvCache::score_keys_into`]).
    pub fn keys(&self) -> KeysView<'_> {
        self.assert_f32("keys");
        KeysView {
            dim: self.dim,
            flat: &self.keys,
        }
    }

    /// Iterator over all values, oldest first.
    ///
    /// # Panics
    ///
    /// Panics on an fp16 cache (use [`KvCache::value_axpy`]).
    pub fn values(&self) -> impl Iterator<Item = &[f32]> {
        self.assert_f32("values");
        self.values.chunks_exact(self.dim)
    }

    /// Raw fp16 bits of the key at `position` (fp16 caches only — tests and
    /// benches that want the encoded form directly).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds or on an `f32` cache.
    pub fn key_bits(&self, position: usize) -> &[u16] {
        assert_eq!(
            self.precision,
            KvPrecision::F16,
            "KvCache::key_bits: f32 cache has no fp16 encoding"
        );
        meter(self.dim * 2);
        &self.keys16[position * self.dim..(position + 1) * self.dim]
    }

    /// Decodes the key at `position` into `out`, whatever the storage
    /// precision (fp16 decode is exact).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds or `out.len() != dim`.
    pub fn key_into(&self, position: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim, "KvCache::key_into: dim mismatch");
        meter(self.dim * self.precision.bytes_per_element());
        match self.precision {
            KvPrecision::F32 => {
                out.copy_from_slice(&self.keys[position * self.dim..(position + 1) * self.dim]);
            }
            KvPrecision::F16 => {
                f16::decode_bits_into(
                    &self.keys16[position * self.dim..(position + 1) * self.dim],
                    out,
                );
            }
        }
    }

    /// The hot attention score read: appends `qs · kᵢ` (as `f64`) to `out`
    /// for every cached position, oldest first. `qs` is the already-scaled
    /// query.
    ///
    /// In `f32` mode every score is bit-identical to a sequential
    /// [`lad_math::vector::dot`] of the query and the key: the dispatched
    /// [`simd::dot_rows_f32`] scores eight keys per register (lanes are
    /// keys), each accumulated in the same element order as the scalar dot.
    /// In fp16 mode keys stream at half the bytes through the dispatched
    /// fp16 dot kernel ([`simd::dot_f16`]); its SIMD variant reorders the
    /// in-dot summation and is bounded-error.
    ///
    /// # Panics
    ///
    /// Panics if `qs.len() != dim`.
    pub fn score_keys_into(&self, qs: &[f32], out: &mut Vec<f64>) {
        assert_eq!(qs.len(), self.dim, "KvCache::score_keys_into: dim mismatch");
        let n = self.len();
        meter(n * self.dim * self.precision.bytes_per_element());
        match self.precision {
            KvPrecision::F32 => {
                let start = out.len();
                out.resize(start + n, 0.0);
                simd::dot_rows_f32(qs, &self.keys, &mut out[start..]);
            }
            KvPrecision::F16 => {
                out.extend(
                    self.keys16
                        .chunks_exact(self.dim)
                        .map(|bits| f64::from(simd::dot_f16(qs, bits))),
                );
            }
        }
    }

    /// One sparse value read: `acc[j] += w · v_position[j]`, decoding fp16
    /// values exactly on the fly — the per-position form of
    /// [`KvCache::values_weighted_into`] for callers that weight a subset of
    /// positions one at a time (top-k, H2O); LAD lists its subset for
    /// [`KvCache::values_weighted_at`].
    ///
    /// # Panics
    ///
    /// Panics if out of bounds or `acc.len() != dim`.
    pub fn value_axpy(&self, position: usize, w: f64, acc: &mut [f64]) {
        assert_eq!(acc.len(), self.dim, "KvCache::value_axpy: dim mismatch");
        meter(self.dim * self.precision.bytes_per_element());
        let range = position * self.dim..(position + 1) * self.dim;
        match self.precision {
            KvPrecision::F32 => {
                for (slot, &vc) in acc.iter_mut().zip(&self.values[range]) {
                    *slot += w * f64::from(vc);
                }
            }
            KvPrecision::F16 => {
                for (slot, &b) in acc.iter_mut().zip(&self.values16[range]) {
                    *slot += w * f64::from(F16::from_bits(b).to_f32());
                }
            }
        }
    }

    /// The dense attention value read: `acc[j] += ws[i] · v_i[j]` over every
    /// cached position `i`, oldest first — exactly [`KvCache::value_axpy`]
    /// called once per position in ascending order, and metered the same
    /// (`n · d` elements).
    ///
    /// In `f32` mode this runs the dispatched [`simd::weighted_rows_f64`],
    /// whose lanes are value columns held in registers across all positions;
    /// each column still adds its products in ascending position order, so
    /// the sum is bit-identical to the per-position loop. fp16 values are
    /// decoded exactly, position by position.
    ///
    /// # Panics
    ///
    /// Panics if `ws.len() != len()` or `acc.len() != dim`.
    pub fn values_weighted_into(&self, ws: &[f64], acc: &mut [f64]) {
        assert_eq!(
            acc.len(),
            self.dim,
            "KvCache::values_weighted_into: dim mismatch"
        );
        assert_eq!(
            ws.len(),
            self.len(),
            "KvCache::values_weighted_into: one weight per cached position"
        );
        meter(ws.len() * self.dim * self.precision.bytes_per_element());
        match self.precision {
            KvPrecision::F32 => simd::weighted_rows_f64(ws, &self.values, acc),
            KvPrecision::F16 => {
                for (&w, row) in ws.iter().zip(self.values16.chunks_exact(self.dim)) {
                    for (slot, &b) in acc.iter_mut().zip(row) {
                        *slot += w * f64::from(F16::from_bits(b).to_f32());
                    }
                }
            }
        }
    }

    /// The sparse score read: appends `qs · k_p` (as `f64`) to `out` for
    /// every listed position `p`, in listed order, and meters one key per
    /// listed position, exactly as that many [`KvCache::key`] reads would.
    ///
    /// In `f32` mode this runs the dispatched [`simd::dot_gather_f32`]:
    /// eight listed keys per register, each lane accumulating in the same
    /// element order as a sequential [`lad_math::vector::dot`], so every
    /// score is bit-identical to `vector::dot(qs, self.key(p))`. fp16 keys
    /// run [`simd::dot_f16`] per position.
    ///
    /// # Panics
    ///
    /// Panics if `qs.len() != dim` or any position is out of bounds.
    pub fn score_positions_into(&self, qs: &[f32], positions: &[usize], out: &mut Vec<f64>) {
        assert_eq!(
            qs.len(),
            self.dim,
            "KvCache::score_positions_into: dim mismatch"
        );
        meter(positions.len() * self.dim * self.precision.bytes_per_element());
        let start = out.len();
        match self.precision {
            KvPrecision::F32 => {
                out.resize(start + positions.len(), 0.0);
                simd::dot_gather_f32(qs, &self.keys, positions, &mut out[start..]);
            }
            KvPrecision::F16 => out.extend(positions.iter().map(|&p| {
                let bits = &self.keys16[p * self.dim..(p + 1) * self.dim];
                f64::from(simd::dot_f16(qs, bits))
            })),
        }
    }

    /// The sparse value read: `acc[j] += ws[k] · v_{positions[k]}[j]` for
    /// every listed `k` in order — exactly [`KvCache::value_axpy`] called
    /// once per listed position, and metered the same.
    ///
    /// In `f32` mode this runs the dispatched [`simd::weighted_gather_f64`],
    /// whose lanes are value columns; each column still adds its products in
    /// listed order, so the sum is bit-identical to the per-position loop.
    ///
    /// # Panics
    ///
    /// Panics if `acc.len() != dim`, `ws.len() != positions.len()`, or any
    /// position is out of bounds.
    pub fn values_weighted_at(&self, positions: &[usize], ws: &[f64], acc: &mut [f64]) {
        assert_eq!(
            acc.len(),
            self.dim,
            "KvCache::values_weighted_at: dim mismatch"
        );
        assert_eq!(
            ws.len(),
            positions.len(),
            "KvCache::values_weighted_at: one weight per listed position"
        );
        match self.precision {
            KvPrecision::F32 => {
                meter(positions.len() * self.dim * 4);
                simd::weighted_gather_f64(positions, ws, &self.values, acc);
            }
            KvPrecision::F16 => {
                for (&p, &w) in positions.iter().zip(ws) {
                    self.value_axpy(p, w, acc);
                }
            }
        }
    }

    /// Discards every position at index `len` and beyond, keeping the first
    /// `len`. Speculative decoding uses this to roll rejected draft rows back
    /// out of the arena; capacity is retained so re-growing never reallocates.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the current length.
    pub fn truncate(&mut self, len: usize) {
        assert!(len <= self.len(), "KvCache::truncate: len beyond cache");
        match self.precision {
            KvPrecision::F32 => {
                self.keys.truncate(len * self.dim);
                self.values.truncate(len * self.dim);
            }
            KvPrecision::F16 => {
                self.keys16.truncate(len * self.dim);
                self.values16.truncate(len * self.dim);
            }
        }
    }

    /// Size in bytes of the cache under fp16 storage (`2 · n · d · 2` bytes —
    /// the quantity the paper's memory-access analysis is about).
    pub fn fp16_bytes(&self) -> usize {
        2 * self.len() * self.dim * 2
    }

    /// Actual bytes this cache's arenas occupy at its storage precision.
    pub fn stored_bytes(&self) -> usize {
        2 * self.len() * self.dim * self.precision.bytes_per_element()
    }

    fn assert_f32(&self, accessor: &str) {
        assert_eq!(
            self.precision,
            KvPrecision::F32,
            "KvCache::{accessor}: fp16 cache must be read through the \
             precision-aware kernels (score_keys_into / value_axpy / key_into)"
        );
    }
}

/// Borrowed, contiguous view over a cache's keys.
#[derive(Debug, Clone, Copy)]
pub struct KeysView<'a> {
    dim: usize,
    flat: &'a [f32],
}

impl<'a> KeysView<'a> {
    /// Number of keys in the view.
    pub fn len(&self) -> usize {
        self.flat.len() / self.dim
    }

    /// `true` when the view holds no keys.
    pub fn is_empty(&self) -> bool {
        self.flat.is_empty()
    }

    /// Key at `position`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn key(&self, position: usize) -> &'a [f32] {
        &self.flat[position * self.dim..(position + 1) * self.dim]
    }

    /// Iterator over the keys, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &'a [f32]> {
        self.flat.chunks_exact(self.dim)
    }
}

/// Random access to a growing sequence of keys — the shape
/// [`crate::centers::CenterBook`] needs for Alg. 1. Implemented by the
/// arena-backed [`KeysView`] and by plain `[Vec<f32>]` slices (tests,
/// callers without a cache).
pub trait KeyLookup {
    /// Number of keys available.
    fn num_keys(&self) -> usize;

    /// Key at `position`.
    fn key_at(&self, position: usize) -> &[f32];

    /// Writes `q · k_p` (as `f64`) for every listed position `p` into `out`
    /// (cleared first), each bit-identical to a sequential
    /// [`lad_math::vector::dot`] of `q` and [`KeyLookup::key_at`]`(p)` —
    /// which is what this default runs.
    ///
    /// # Panics
    ///
    /// Panics if a position is out of bounds.
    fn dot_positions(&self, q: &[f32], positions: &[usize], out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            positions
                .iter()
                .map(|&p| f64::from(lad_math::vector::dot(q, self.key_at(p)))),
        );
    }
}

impl KeyLookup for KeysView<'_> {
    fn num_keys(&self) -> usize {
        self.len()
    }

    fn key_at(&self, position: usize) -> &[f32] {
        self.key(position)
    }

    /// The arena is contiguous, so this runs the dispatched
    /// [`simd::dot_gather_f32`] (unmetered, like every [`KeysView`] read).
    ///
    /// # Panics
    ///
    /// Panics if `q.len()` differs from the key width or a position is out
    /// of bounds.
    fn dot_positions(&self, q: &[f32], positions: &[usize], out: &mut Vec<f64>) {
        assert_eq!(q.len(), self.dim, "KeysView::dot_positions: dim mismatch");
        out.clear();
        out.resize(positions.len(), 0.0);
        simd::dot_gather_f32(q, self.flat, positions, out);
    }
}

impl KeyLookup for [Vec<f32>] {
    fn num_keys(&self) -> usize {
        self.len()
    }

    fn key_at(&self, position: usize) -> &[f32] {
        &self[position]
    }
}

impl KeyLookup for Vec<Vec<f32>> {
    fn num_keys(&self) -> usize {
        self.len()
    }

    fn key_at(&self, position: usize) -> &[f32] {
        &self[position]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_access() {
        let mut kv = KvCache::new(2);
        assert!(kv.is_empty());
        kv.push(&[1.0, 2.0], &[3.0, 4.0]);
        kv.push(&[5.0, 6.0], &[7.0, 8.0]);
        assert_eq!(kv.len(), 2);
        assert_eq!(kv.key(1), &[5.0, 6.0]);
        assert_eq!(kv.value(0), &[3.0, 4.0]);
        assert_eq!(kv.keys().len(), 2);
    }

    #[test]
    fn keys_view_iterates_in_order() {
        let mut kv = KvCache::new(2);
        kv.push(&[1.0, 2.0], &[0.0; 2]);
        kv.push(&[3.0, 4.0], &[0.0; 2]);
        let collected: Vec<&[f32]> = kv.keys().iter().collect();
        assert_eq!(collected, vec![&[1.0, 2.0][..], &[3.0, 4.0][..]]);
        let values: Vec<&[f32]> = kv.values().collect();
        assert_eq!(values.len(), 2);
    }

    #[test]
    fn key_lookup_over_slices_and_views() {
        let owned = vec![vec![1.0f32, 0.0], vec![0.0, 1.0]];
        let slice: &[Vec<f32>] = &owned;
        assert_eq!(KeyLookup::num_keys(slice), 2);
        assert_eq!(KeyLookup::key_at(slice, 1), &[0.0, 1.0]);

        let mut kv = KvCache::new(2);
        kv.push(&[1.0, 0.0], &[0.0; 2]);
        let view = kv.keys();
        assert_eq!(view.num_keys(), 1);
        assert_eq!(view.key_at(0), &[1.0, 0.0]);
    }

    #[test]
    fn fp16_bytes_formula() {
        let mut kv = KvCache::new(128);
        for _ in 0..10 {
            kv.push(&[0.0; 128], &[0.0; 128]);
        }
        // 2 tensors * 10 positions * 128 dims * 2 bytes
        assert_eq!(kv.fp16_bytes(), 2 * 10 * 128 * 2);
    }

    #[test]
    fn truncate_discards_the_tail() {
        let mut kv = KvCache::new(2);
        for i in 0..4 {
            kv.push(&[i as f32, 0.0], &[0.0, i as f32]);
        }
        kv.truncate(2);
        assert_eq!(kv.len(), 2);
        assert_eq!(kv.key(1), &[1.0, 0.0]);
        // Pushing after a truncate continues from the kept prefix.
        kv.push(&[9.0, 9.0], &[9.0, 9.0]);
        assert_eq!(kv.len(), 3);
        assert_eq!(kv.key(2), &[9.0, 9.0]);
        kv.truncate(0);
        assert!(kv.is_empty());
    }

    #[test]
    #[should_panic(expected = "len beyond cache")]
    fn truncate_past_end_panics() {
        let mut kv = KvCache::new(2);
        kv.push(&[0.0; 2], &[0.0; 2]);
        kv.truncate(2);
    }

    #[test]
    #[should_panic(expected = "dim mismatch")]
    fn wrong_dim_panics() {
        KvCache::new(3).push(&[1.0], &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "dim must be positive")]
    fn zero_dim_panics() {
        KvCache::new(0);
    }

    #[test]
    fn f32_read_kernels_match_dense_accessors_bitwise() {
        use lad_math::vector;
        let mut kv = KvCache::new(3);
        for i in 0..5 {
            let base = i as f32;
            kv.push(
                &[base + 0.1, base - 0.2, base * 0.3],
                &[base * 1.1, -base, base + 7.0],
            );
        }
        let qs = [0.25f32, -1.5, 0.75];
        let mut scored = Vec::new();
        kv.score_keys_into(&qs, &mut scored);
        assert_eq!(scored.len(), kv.len());
        for (i, &s) in scored.iter().enumerate() {
            assert_eq!(s, f64::from(vector::dot(&qs, kv.key(i))));
        }
        let mut via_axpy = vec![0.0f64; 3];
        let mut dense = vec![0.0f64; 3];
        for i in 0..kv.len() {
            let w = 0.5 + i as f64;
            kv.value_axpy(i, w, &mut via_axpy);
            for (slot, &vc) in dense.iter_mut().zip(kv.value(i)) {
                *slot += w * f64::from(vc);
            }
        }
        assert_eq!(via_axpy, dense);
        let ws: Vec<f64> = (0..kv.len()).map(|i| 0.5 + i as f64).collect();
        for kernel in [lad_math::Kernel::Scalar, lad_math::Kernel::Simd] {
            let mut via_rows = vec![0.0f64; 3];
            lad_math::with_kernel(kernel, || kv.values_weighted_into(&ws, &mut via_rows));
            assert_eq!(via_rows, dense, "{}", kernel.name());
        }
        let mut key_buf = vec![0.0f32; 3];
        kv.key_into(2, &mut key_buf);
        assert_eq!(&key_buf[..], kv.key(2));

        // The gathered reads on a scattered, unsorted list with a repeat.
        let listed = [3usize, 0, 4, 3];
        let lw = [0.25f64, -2.0, 1.5, 3.0];
        let mut listed_dense = vec![0.0f64; 3];
        for (&p, &w) in listed.iter().zip(&lw) {
            kv.value_axpy(p, w, &mut listed_dense);
        }
        for kernel in [lad_math::Kernel::Scalar, lad_math::Kernel::Simd] {
            let mut got = vec![7.0];
            lad_math::with_kernel(kernel, || kv.score_positions_into(&qs, &listed, &mut got));
            let want: Vec<f64> = std::iter::once(7.0)
                .chain(listed.iter().map(|&p| scored[p]))
                .collect();
            assert_eq!(got, want, "{}", kernel.name());
            let mut acc = vec![0.0f64; 3];
            lad_math::with_kernel(kernel, || kv.values_weighted_at(&listed, &lw, &mut acc));
            assert_eq!(acc, listed_dense, "{}", kernel.name());
        }
    }

    #[test]
    fn traffic_meter_counts_read_bytes() {
        let mut kv = KvCache::new(4);
        for i in 0..3 {
            kv.push(&[i as f32; 4], &[1.0; 4]);
        }
        reset_traffic_bytes();
        assert_eq!(traffic_bytes(), 0);
        let _ = kv.key(0); // 16 B
        let _ = kv.value(1); // 16 B
        let mut scores = Vec::new();
        kv.score_keys_into(&[1.0; 4], &mut scores); // 3 keys = 48 B
        let mut acc = vec![0.0f64; 4];
        kv.value_axpy(2, 1.0, &mut acc); // 16 B
        let mut buf = vec![0.0f32; 4];
        kv.key_into(0, &mut buf); // 16 B
        kv.values_weighted_into(&[1.0; 3], &mut acc); // 3 values = 48 B
        assert_eq!(traffic_bytes(), 16 + 16 + 48 + 16 + 16 + 48);
        reset_traffic_bytes();
        kv.score_positions_into(&[1.0; 4], &[2, 0], &mut scores); // 2 keys = 32 B
        kv.values_weighted_at(&[1, 1, 2], &[1.0; 3], &mut acc); // 3 values = 48 B
        assert_eq!(traffic_bytes(), 32 + 48);

        // fp16 arenas meter at two bytes per element.
        let mut kv16 = KvCache::with_precision(4, KvPrecision::F16);
        kv16.push(&[1.0; 4], &[2.0; 4]);
        reset_traffic_bytes();
        kv16.key_into(0, &mut buf); // 8 B
        kv16.value_axpy(0, 1.0, &mut acc); // 8 B
        let _ = kv16.key_bits(0); // 8 B
        kv16.values_weighted_into(&[1.0], &mut acc); // 8 B
        kv16.score_positions_into(&[1.0; 4], &[0, 0], &mut scores); // 16 B
        kv16.values_weighted_at(&[0], &[1.0], &mut acc); // 8 B
        assert_eq!(traffic_bytes(), 56);
        reset_traffic_bytes();
    }

    #[test]
    fn f16_cache_quantizes_on_push_and_decodes_exactly() {
        use lad_math::F16;
        let mut kv = KvCache::with_precision(2, KvPrecision::F16);
        assert_eq!(kv.precision(), KvPrecision::F16);
        kv.push(&[1.0 / 3.0, -2.5], &[0.1, 4.0]);
        assert_eq!(kv.len(), 1);
        let mut key = vec![0.0f32; 2];
        kv.key_into(0, &mut key);
        // Decode returns exactly the fp16-rounded values: -2.5 is exact,
        // 1/3 is rounded once at push time.
        assert_eq!(key[0], F16::from_f32(1.0 / 3.0).to_f32());
        assert_eq!(key[1], -2.5);
        assert_eq!(kv.key_bits(0).len(), 2);

        // Scores and value reads go through the quantised data.
        let qs = [1.0f32, 1.0];
        let mut scored = Vec::new();
        kv.score_keys_into(&qs, &mut scored);
        let expect = f64::from(lad_math::simd::dot_f16_scalar(&qs, kv.key_bits(0)));
        assert!((scored[0] - expect).abs() <= 1e-6 * (1.0 + expect.abs()));
        let mut acc = vec![0.0f64; 2];
        kv.value_axpy(0, 2.0, &mut acc);
        assert_eq!(acc[0], 2.0 * f64::from(F16::from_f32(0.1).to_f32()));
        assert_eq!(acc[1], 8.0);
        let mut dense = vec![0.0f64; 2];
        kv.values_weighted_into(&[2.0], &mut dense);
        assert_eq!(dense, acc);
    }

    #[test]
    fn f16_truncate_and_byte_accounting() {
        let mut kv = KvCache::with_precision(4, KvPrecision::F16);
        for i in 0..6 {
            kv.push(&[i as f32; 4], &[1.0; 4]);
        }
        assert_eq!(kv.stored_bytes(), 2 * 6 * 4 * 2);
        assert_eq!(kv.fp16_bytes(), kv.stored_bytes());
        kv.truncate(2);
        assert_eq!(kv.len(), 2);
        let mut key = vec![0.0f32; 4];
        kv.key_into(1, &mut key);
        assert_eq!(key, vec![1.0; 4]);

        let f32_kv = KvCache::new(4);
        assert_eq!(f32_kv.precision().bytes_per_element(), 4);
        assert_eq!(KvPrecision::F16.bytes_per_element(), 2);
        assert_eq!(KvPrecision::F16.name(), "f16");
    }

    #[test]
    #[should_panic(expected = "precision-aware kernels")]
    fn f16_dense_key_accessor_panics() {
        let mut kv = KvCache::with_precision(2, KvPrecision::F16);
        kv.push(&[1.0, 2.0], &[3.0, 4.0]);
        let _ = kv.key(0);
    }

    #[test]
    #[should_panic(expected = "precision-aware kernels")]
    fn f16_keys_view_panics() {
        let kv = KvCache::with_precision(2, KvPrecision::F16);
        let _ = kv.keys();
    }

    #[test]
    #[should_panic(expected = "f32 cache has no fp16 encoding")]
    fn key_bits_on_f32_cache_panics() {
        let mut kv = KvCache::new(2);
        kv.push(&[1.0, 2.0], &[3.0, 4.0]);
        let _ = kv.key_bits(0);
    }
}
