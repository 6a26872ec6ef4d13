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
//! Both arenas are `f32`. The paper's fp16 is the accelerator's on-chip
//! format; [`KvCache::fp16_bytes`] gives the cache's size in it.
//!
//! The dense reads — every score, and the weighted sum over every
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
//!
//! Two reads score their keys against two queries at once, each key read
//! and metered once, every score bit-identical to the one-query read's:
//! [`KvCache::score_keys2_into`] (all keys, through [`simd::dot_rows2_f32`])
//! and [`KvCache::score_positions2_into`] (listed keys, through
//! [`simd::dot_gather2_f32`]). LAD scores its query and its new key with
//! them, so Alg. 1 rides the row's own key read.

use lad_math::simd;
use std::cell::Cell;

thread_local! {
    /// Bytes fetched from KV arenas on this thread through the read
    /// accessors below. A diagnostic shadow meter: the `bytes_moved`
    /// invariant tests reset it, run a (single-threaded) decode and compare
    /// the delta against the backend-reported [`crate::stats::StepStats`]
    /// traffic counters. Reads through a detached [`KeysView`] are not
    /// metered.
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

/// Bytes one stored key or value element occupies: the arenas are `f32`.
pub const ELEMENT_BYTES: usize = std::mem::size_of::<f32>();

#[inline]
fn meter(bytes: usize) {
    TRAFFIC_BYTES.with(|c| c.set(c.get() + bytes as u64));
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
    keys: Vec<f32>,
    values: Vec<f32>,
}

impl KvCache {
    /// Creates an empty cache for head dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> KvCache {
        assert!(dim > 0, "KvCache: dim must be positive");
        KvCache {
            dim,
            keys: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Head dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of cached positions `n`.
    pub fn len(&self) -> usize {
        self.keys.len() / self.dim
    }

    /// `true` when no positions are cached.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Appends a new key/value pair (paper Eq. 1). The vectors are copied
    /// into the arena; callers keep ownership of their buffers.
    ///
    /// # Panics
    ///
    /// Panics if either slice's length differs from `dim`.
    pub fn push(&mut self, key: &[f32], value: &[f32]) {
        assert_eq!(key.len(), self.dim, "KvCache::push: key dim mismatch");
        assert_eq!(value.len(), self.dim, "KvCache::push: value dim mismatch");
        self.keys.extend_from_slice(key);
        self.values.extend_from_slice(value);
    }

    /// Key at `position`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn key(&self, position: usize) -> &[f32] {
        meter(self.dim * ELEMENT_BYTES);
        &self.keys[position * self.dim..(position + 1) * self.dim]
    }

    /// Value at `position`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn value(&self, position: usize) -> &[f32] {
        meter(self.dim * ELEMENT_BYTES);
        &self.values[position * self.dim..(position + 1) * self.dim]
    }

    /// View over all keys, oldest first.
    pub fn keys(&self) -> KeysView<'_> {
        KeysView {
            dim: self.dim,
            flat: &self.keys,
        }
    }

    /// Iterator over all values, oldest first.
    pub fn values(&self) -> impl Iterator<Item = &[f32]> {
        self.values.chunks_exact(self.dim)
    }

    /// The hot attention score read: appends `qs · kᵢ` (as `f64`) to `out`
    /// for every cached position, oldest first. `qs` is the already-scaled
    /// query.
    ///
    /// Every score is bit-identical to a sequential
    /// [`lad_math::vector::dot`] of the query and the key: the dispatched
    /// [`simd::dot_rows_f32`] scores eight keys per register (lanes are
    /// keys), each accumulated in the same element order as the scalar dot.
    ///
    /// # Panics
    ///
    /// Panics if `qs.len() != dim`.
    pub fn score_keys_into(&self, qs: &[f32], out: &mut Vec<f64>) {
        assert_eq!(qs.len(), self.dim, "KvCache::score_keys_into: dim mismatch");
        let n = self.len();
        meter(n * self.dim * ELEMENT_BYTES);
        let start = out.len();
        out.resize(start + n, 0.0);
        simd::dot_rows_f32(qs, &self.keys, &mut out[start..]);
    }

    /// [`KvCache::score_keys_into`] for two already-scaled queries at once:
    /// appends `q0 · kᵢ` for every cached position, oldest first, then
    /// `q1 · kᵢ` for every one. Every key is read — and metered — once, and
    /// every score is bit-identical to `score_keys_into`'s with its query.
    ///
    /// # Panics
    ///
    /// Panics if a query's length differs from `dim`.
    pub fn score_keys2_into(&self, q0: &[f32], q1: &[f32], out: &mut Vec<f64>) {
        assert_eq!(
            q0.len(),
            self.dim,
            "KvCache::score_keys2_into: dim mismatch"
        );
        let n = self.len();
        meter(n * self.dim * ELEMENT_BYTES);
        let start = out.len();
        out.resize(start + 2 * n, 0.0);
        let (out0, out1) = out[start..].split_at_mut(n);
        simd::dot_rows2_f32(q0, q1, &self.keys, out0, out1);
    }

    /// [`KvCache::score_positions_into`] for two already-scaled queries at
    /// once: appends `q0 · k_p` for every listed position `p`, in listed
    /// order, then `q1 · k_p` for every one. Each listed key is read — and
    /// metered — once, and every score is bit-identical to
    /// `score_positions_into`'s with its query. Positions are `u32`, as the
    /// center book stores them.
    ///
    /// # Panics
    ///
    /// Panics if a query's length differs from `dim`, or if any position is
    /// out of bounds.
    pub fn score_positions2_into(
        &self,
        q0: &[f32],
        q1: &[f32],
        positions: &[u32],
        out: &mut Vec<f64>,
    ) {
        assert_eq!(
            q0.len(),
            self.dim,
            "KvCache::score_positions2_into: dim mismatch"
        );
        meter(positions.len() * self.dim * ELEMENT_BYTES);
        let start = out.len();
        out.resize(start + 2 * positions.len(), 0.0);
        let (out0, out1) = out[start..].split_at_mut(positions.len());
        simd::dot_gather2_f32(q0, q1, &self.keys, positions, out0, out1);
    }

    /// One sparse value read: `acc[j] += w · v_position[j]` — the
    /// per-position form of
    /// [`KvCache::values_weighted_into`] for callers that weight a subset of
    /// positions one at a time (top-k, H2O); LAD lists its subset for
    /// [`KvCache::values_weighted_at`].
    ///
    /// # Panics
    ///
    /// Panics if out of bounds or `acc.len() != dim`.
    pub fn value_axpy(&self, position: usize, w: f64, acc: &mut [f64]) {
        assert_eq!(acc.len(), self.dim, "KvCache::value_axpy: dim mismatch");
        meter(self.dim * ELEMENT_BYTES);
        let range = position * self.dim..(position + 1) * self.dim;
        for (slot, &vc) in acc.iter_mut().zip(&self.values[range]) {
            *slot += w * f64::from(vc);
        }
    }

    /// The dense attention value read: `acc[j] += ws[i] · v_i[j]` over every
    /// cached position `i`, oldest first — exactly [`KvCache::value_axpy`]
    /// called once per position in ascending order, and metered the same
    /// (`n · d` elements).
    ///
    /// This runs the dispatched [`simd::weighted_rows_f64`], whose lanes are
    /// value columns held in registers across all positions; each column
    /// still adds its products in ascending position order, so the sum is
    /// bit-identical to the per-position loop.
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
        meter(ws.len() * self.dim * ELEMENT_BYTES);
        simd::weighted_rows_f64(ws, &self.values, acc);
    }

    /// The sparse score read: appends `qs · k_p` (as `f64`) to `out` for
    /// every listed position `p`, in listed order, and meters one key per
    /// listed position, exactly as that many [`KvCache::key`] reads would.
    ///
    /// This runs the dispatched [`simd::dot_gather_f32`]: eight listed keys
    /// per register, each lane accumulating in the same element order as a
    /// sequential [`lad_math::vector::dot`], so every score is bit-identical
    /// to `vector::dot(qs, self.key(p))`.
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
        meter(positions.len() * self.dim * ELEMENT_BYTES);
        let start = out.len();
        out.resize(start + positions.len(), 0.0);
        simd::dot_gather_f32(qs, &self.keys, positions, &mut out[start..]);
    }

    /// The sparse value read: `acc[j] += ws[k] · v_{positions[k]}[j]` for
    /// every listed `k` in order — exactly [`KvCache::value_axpy`] called
    /// once per listed position, and metered the same.
    ///
    /// This runs the dispatched [`simd::weighted_gather_f64`], whose lanes
    /// are value columns; each column still adds its products in listed
    /// order, so the sum is bit-identical to the per-position loop.
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
        meter(positions.len() * self.dim * ELEMENT_BYTES);
        simd::weighted_gather_f64(positions, ws, &self.values, acc);
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
        self.keys.truncate(len * self.dim);
        self.values.truncate(len * self.dim);
    }

    /// Size in bytes of the cache under fp16 storage (`2 · n · d · 2` bytes —
    /// the quantity the paper's memory-access analysis is about).
    pub fn fp16_bytes(&self) -> usize {
        2 * self.len() * self.dim * 2
    }

    /// Bytes this cache's `f32` arenas occupy.
    pub fn stored_bytes(&self) -> usize {
        2 * self.len() * self.dim * ELEMENT_BYTES
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
/// [`crate::centers::CenterBook::add_key`] needs for Alg. 1. Implemented by
/// the arena-backed [`KeysView`] and by plain `[Vec<f32>]` slices (tests,
/// callers without a cache).
pub trait KeyLookup {
    /// Number of keys available.
    fn num_keys(&self) -> usize;

    /// Key at `position`.
    fn key_at(&self, position: usize) -> &[f32];
}

impl KeyLookup for KeysView<'_> {
    fn num_keys(&self) -> usize {
        self.len()
    }

    fn key_at(&self, position: usize) -> &[f32] {
        self.key(position)
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
    fn two_query_scores_equal_single_query_reads_metered_once() {
        // 21 keys: two blocks of eight and a ragged tail; the listed
        // positions are unsorted and repeat.
        let mut rng = lad_math::Rng::new(5);
        let d = 16;
        let mut kv = KvCache::new(d);
        for _ in 0..21 {
            kv.push(&rng.normal_vec(d, 1.0), &rng.normal_vec(d, 1.0));
        }
        let (q0, q1) = (rng.normal_vec(d, 1.0), rng.normal_vec(d, 1.0));
        let listed: Vec<u32> = vec![20, 3, 3, 0, 17, 9, 9, 12, 1, 4];
        let wide: Vec<usize> = listed.iter().map(|&p| p as usize).collect();
        let (mut one0, mut one1, mut at0, mut at1) = (vec![], vec![], vec![], vec![]);
        kv.score_keys_into(&q0, &mut one0);
        kv.score_keys_into(&q1, &mut one1);
        kv.score_positions_into(&q0, &wide, &mut at0);
        kv.score_positions_into(&q1, &wide, &mut at1);
        reset_traffic_bytes();
        let mut all = vec![7.0];
        kv.score_keys2_into(&q0, &q1, &mut all);
        assert_eq!(traffic_bytes(), (21 * d * 4) as u64);
        let mut two = vec![7.0];
        kv.score_positions2_into(&q0, &q1, &listed, &mut two);
        assert_eq!(traffic_bytes(), ((21 + 10) * d * 4) as u64);
        // Both reads append, query-major.
        assert_eq!((all[0], two[0]), (7.0, 7.0));
        assert_eq!((&all[1..22], &all[22..]), (&one0[..], &one1[..]));
        assert_eq!((&two[1..11], &two[11..]), (&at0[..], &at1[..]));
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
        kv.values_weighted_into(&[1.0; 3], &mut acc); // 3 values = 48 B
        assert_eq!(traffic_bytes(), 16 + 16 + 48 + 16 + 48);
        reset_traffic_bytes();
        kv.score_positions_into(&[1.0; 4], &[2, 0], &mut scores); // 2 keys = 32 B
        kv.values_weighted_at(&[1, 1, 2], &[1.0; 3], &mut acc); // 3 values = 48 B
        assert_eq!(traffic_bytes(), 32 + 48);
        reset_traffic_bytes();
    }
}
