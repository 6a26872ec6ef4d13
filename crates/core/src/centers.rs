//! Dynamic key directional center extraction (paper Alg. 1, Sec. III-D).
//!
//! Keys whose directions are (anti-)collinear — `|cos| > threshold` — share a
//! **directional center**: the earlier key they align with. A position's
//! attention score can then be approximated as
//! `q·kᵢᵀ ≈ (q·k_cid[i]ᵀ) · dnorm[i]` where
//! `dnorm[i] = ±‖kᵢ‖ / ‖k_cid[i]‖`, so active-position identification only
//! touches the (few) center keys instead of the whole key cache.
//!
//! Centers are selected *from* the keys, so no extra vector storage is needed
//! — only the scalar arrays `cid`, `norm`, `dnorm` (part of the hardware's
//! `G` tensor).

use crate::kv::KeyLookup;
use lad_math::vector;

/// The paper's empirical collinearity threshold.
pub const DEFAULT_COLLINEARITY_THRESHOLD: f64 = 0.98;

/// Centers per chunk of [`CenterBook::admit`]'s selection scan; a power of
/// two, for the chunk's max tree.
const COS_LANES: usize = 8;

/// Book-keeping for directional centers over a growing key sequence.
///
/// # Example
///
/// ```
/// use lad_core::centers::CenterBook;
///
/// let mut book = CenterBook::new(0.98);
/// let keys = vec![vec![1.0, 0.0], vec![2.0, 0.0], vec![0.0, 1.0]];
/// book.add_key(&keys[..1]); // key 0 becomes a center
/// book.add_key(&keys[..2]); // key 1 is collinear with key 0
/// book.add_key(&keys[..3]); // key 2 is orthogonal -> a new center
/// assert!(book.centers().eq([0, 2]));
/// assert_eq!(book.cid(1), 0);
/// assert!((book.dnorm(1) - 2.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CenterBook {
    threshold: f64,
    /// Positions are stored as `u32` (at most 2³² keys); the accessors
    /// widen them to `usize`.
    cid: Vec<u32>,
    norm: Vec<f64>,
    dnorm: Vec<f64>,
    centers: Vec<u32>,
}

impl CenterBook {
    /// Creates an empty book with the given collinearity threshold.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < threshold <= 1`.
    pub fn new(threshold: f64) -> CenterBook {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "CenterBook: threshold must be in (0, 1]"
        );
        CenterBook {
            threshold,
            cid: Vec::new(),
            norm: Vec::new(),
            dnorm: Vec::new(),
            centers: Vec::new(),
        }
    }

    /// Number of keys registered.
    pub fn len(&self) -> usize {
        self.cid.len()
    }

    /// `true` when no keys are registered.
    pub fn is_empty(&self) -> bool {
        self.cid.is_empty()
    }

    /// Positions currently serving as directional centers, ascending.
    pub fn centers(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.centers.iter().map(|&c| c as usize)
    }

    /// [`CenterBook::centers`] as stored, the list a gathered key read
    /// takes.
    pub fn center_positions(&self) -> &[u32] {
        &self.centers
    }

    /// Center id of `position` (`cid[i] == i` when the key is its own center).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn cid(&self, position: usize) -> usize {
        self.cid[position] as usize
    }

    /// L2 norm recorded for `position`'s key.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn norm(&self, position: usize) -> f64 {
        self.norm[position]
    }

    /// Signed norm ratio `±‖kᵢ‖/‖k_cid[i]‖` (negative when anti-collinear).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn dnorm(&self, position: usize) -> f64 {
        self.dnorm[position]
    }

    /// Registers the newest key (paper Alg. 1). `keys` is the full key cache
    /// with the new key last; only keys at center positions are read,
    /// mirroring the EAS.5 sub-task's memory traffic, one sequential
    /// [`vector::dot`] each.
    ///
    /// # Panics
    ///
    /// Panics if `keys.num_keys() != self.len() + 1`.
    pub fn add_key(&mut self, keys: &(impl KeyLookup + ?Sized)) {
        assert_eq!(
            keys.num_keys(),
            self.len() + 1,
            "add_key: keys must contain exactly one unregistered key"
        );
        let key = keys.key_at(self.len());
        self.admit(key, |_, c| f64::from(vector::dot(key, keys.key_at(c))));
    }

    /// Registers the newest key, `key`, from dot products a caller already
    /// has (paper Alg. 1): `dot(k, c)` returns `key · k_c` for the `k`-th
    /// center, at position `c`, and is bit-identical to [`vector::dot`].
    /// It is called for every center of non-zero norm, and not at all for a
    /// zero key. A LAD decoder takes these dots from the key read its row
    /// already makes, so the center keys are read once per row.
    ///
    /// # Panics
    ///
    /// Panics if the book already holds 2³² keys.
    pub fn admit(&mut self, key: &[f32], dot: impl Fn(usize, usize) -> f64) {
        let n = u32::try_from(self.len()).expect("CenterBook: at most 2^32 keys");
        let new_norm = f64::from(vector::norm(key));
        self.norm.push(new_norm);

        // The first center of largest |cos| wins; a NaN cosine never does.
        // The scan runs COS_LANES centers at a time: each chunk's largest
        // |cos| comes from a max tree (`f64::max` drops NaN), and only a
        // chunk that beats the running maximum is searched, for its first
        // lane that reaches it. A one-center-at-a-time scan carries the
        // running maximum through a compare-and-select on every center,
        // which bounds it, not the division. A zero-norm center gets dot 0
        // and norm 1: its cosine is 0, which never beats the running
        // maximum, exactly as skipping it did.
        let (mut max_abs, mut max_cos, mut max_pos) = (0.0f64, 0.0f64, 0u32);
        if new_norm > 0.0 {
            for (chunk_idx, chunk) in self.centers.chunks(COS_LANES).enumerate() {
                let mut cos = [0.0f64; COS_LANES];
                for (i, (&c, out)) in chunk.iter().zip(&mut cos).enumerate() {
                    let center_norm = self.norm[c as usize];
                    let (d, norm) = if center_norm != 0.0 {
                        (dot(chunk_idx * COS_LANES + i, c as usize), center_norm)
                    } else {
                        (0.0, 1.0)
                    };
                    *out = d / (new_norm * norm);
                }
                let mut abs = cos.map(f64::abs);
                let mut width = COS_LANES;
                while width > 1 {
                    width /= 2;
                    for i in 0..width {
                        abs[i] = abs[i].max(abs[i + width]);
                    }
                }
                if abs[0] > max_abs {
                    if let Some(i) = cos.iter().position(|x| x.abs() == abs[0]) {
                        (max_abs, max_cos, max_pos) = (abs[0], cos[i], chunk[i]);
                    }
                }
            }
        }

        if max_cos > self.threshold {
            self.cid.push(max_pos);
            self.dnorm.push(new_norm / self.norm[max_pos as usize]);
        } else if max_cos < -self.threshold {
            self.cid.push(max_pos);
            self.dnorm.push(-new_norm / self.norm[max_pos as usize]);
        } else {
            self.cid.push(n);
            self.dnorm.push(1.0);
            self.centers.push(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(book: &mut CenterBook, keys: &[Vec<f32>]) {
        for i in 0..keys.len() {
            if i >= book.len() {
                book.add_key(&keys[..=i]);
            }
        }
    }

    fn centers(book: &CenterBook) -> Vec<usize> {
        book.centers().collect()
    }

    #[test]
    fn first_key_is_its_own_center() {
        let mut book = CenterBook::new(0.98);
        book.add_key(&[vec![3.0, 4.0]][..]);
        assert_eq!(centers(&book), [0]);
        assert_eq!(book.cid(0), 0);
        assert_eq!(book.dnorm(0), 1.0);
        assert!((book.norm(0) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn collinear_key_maps_to_center() {
        let mut book = CenterBook::new(0.98);
        feed(&mut book, &[vec![1.0, 0.0], vec![4.0, 0.0]]);
        assert_eq!(centers(&book), [0]);
        assert_eq!(book.cid(1), 0);
        assert!((book.dnorm(1) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn anti_collinear_key_gets_negative_dnorm() {
        let mut book = CenterBook::new(0.98);
        feed(&mut book, &[vec![1.0, 0.0], vec![-2.0, 0.0]]);
        assert_eq!(book.cid(1), 0);
        assert!((book.dnorm(1) + 2.0).abs() < 1e-9);
    }

    #[test]
    fn orthogonal_key_becomes_new_center() {
        let mut book = CenterBook::new(0.98);
        feed(&mut book, &[vec![1.0, 0.0], vec![0.0, 1.0], vec![0.7, 0.7]]);
        // 45-degree key (cos ~0.707 to both) is below threshold -> center.
        assert_eq!(centers(&book), [0, 1, 2]);
    }

    #[test]
    fn threshold_controls_grouping() {
        // cos between (1,0) and (1, 0.1) is ~0.995: grouped at 0.98 but
        // separate at 0.999.
        let keys = vec![vec![1.0, 0.0], vec![1.0, 0.1]];
        let mut loose = CenterBook::new(0.98);
        feed(&mut loose, &keys);
        assert_eq!(loose.centers().len(), 1);
        let mut tight = CenterBook::new(0.999);
        feed(&mut tight, &keys);
        assert_eq!(tight.centers().len(), 2);
    }

    #[test]
    fn zero_key_becomes_center_not_member() {
        let mut book = CenterBook::new(0.98);
        feed(&mut book, &[vec![1.0, 0.0], vec![0.0, 0.0]]);
        // A zero key has no direction; it must not alias another center.
        assert_eq!(book.cid(1), 1);
        assert_eq!(centers(&book), [0, 1]);
    }

    #[test]
    fn center_rescale_reconstructs_collinear_exactly() {
        // EAS.2's estimate `s[i] ≈ s[cid[i]] · dnorm[i]` from the center
        // scores alone: perfectly (anti-)collinear keys reconstruct exactly.
        let mut book = CenterBook::new(0.98);
        let keys = vec![vec![2.0, 0.0], vec![6.0, 0.0], vec![-1.0, 0.0]];
        feed(&mut book, &keys);
        assert_eq!(centers(&book), [0]);
        let q = [1.5f32, 0.0];
        let center_scores: Vec<f64> = book
            .centers()
            .map(|c| f64::from(vector::dot(&q, &keys[c])))
            .collect();
        let approx: Vec<f64> = (0..book.len())
            .map(|i| {
                let slot = book.centers().position(|c| c == book.cid(i));
                center_scores[slot.expect("cid is a center")] * book.dnorm(i)
            })
            .collect();
        assert!((approx[0] - 3.0).abs() < 1e-6);
        assert!((approx[1] - 9.0).abs() < 1e-6);
        assert!((approx[2] + 1.5).abs() < 1e-6);
    }

    #[test]
    fn admit_from_a_full_key_pass_equals_add_key() {
        // Clustered keys (so some join centers) plus a zero key: admitting
        // each key from the dots of one pass over all earlier keys builds
        // the book `add_key` builds.
        let mut rng = lad_math::Rng::new(7);
        let dirs: Vec<Vec<f32>> = (0..3).map(|_| rng.normal_vec(8, 1.0)).collect();
        let mut keys: Vec<Vec<f32>> = (0..40)
            .map(|i| {
                let noise = rng.normal_vec(8, 0.05);
                dirs[i % 3].iter().zip(noise).map(|(x, e)| x + e).collect()
            })
            .collect();
        keys[17] = vec![0.0; 8];
        let mut by_add = CenterBook::new(0.98);
        feed(&mut by_add, &keys);
        let mut by_admit = CenterBook::new(0.98);
        for (i, key) in keys.iter().enumerate() {
            let dots: Vec<f64> = keys[..i]
                .iter()
                .map(|k| f64::from(vector::dot(key, k)))
                .collect();
            by_admit.admit(key, |_, c| dots[c]);
        }
        assert_eq!(by_admit, by_add);
        assert!(by_add.centers().len() < 40 && by_add.cid(17) == 17);
    }

    #[test]
    #[should_panic(expected = "exactly one unregistered key")]
    fn add_key_requires_incremental_feed() {
        let mut book = CenterBook::new(0.98);
        book.add_key(&[vec![1.0], vec![2.0]][..]);
    }
}
