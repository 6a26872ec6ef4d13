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

/// Book-keeping for directional centers over a growing key sequence.
///
/// # Example
///
/// ```
/// use lad_core::centers::CenterBook;
///
/// let mut book = CenterBook::new(0.98);
/// let keys = vec![vec![1.0, 0.0], vec![2.0, 0.0], vec![0.0, 1.0]];
/// let mut dots = Vec::new(); // reusable center-score buffer
/// book.add_key(&keys[..1], &mut dots); // key 0 becomes a center
/// book.add_key(&keys[..2], &mut dots); // key 1 is collinear with key 0
/// book.add_key(&keys[..3], &mut dots); // key 2 is orthogonal -> a new center
/// assert_eq!(book.centers(), &[0, 2]);
/// assert_eq!(book.cid(1), 0);
/// assert!((book.dnorm(1) - 2.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CenterBook {
    threshold: f64,
    cid: Vec<usize>,
    norm: Vec<f64>,
    dnorm: Vec<f64>,
    centers: Vec<usize>,
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
    pub fn centers(&self) -> &[usize] {
        &self.centers
    }

    /// Center id of `position` (`cid[i] == i` when the key is its own center).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn cid(&self, position: usize) -> usize {
        self.cid[position]
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
    /// mirroring the EAS.5 sub-task's memory traffic. They are scored
    /// against the new key in one [`KeyLookup::dot_positions`] call, into
    /// `dots` — caller-owned working memory, so a decode step that reuses it
    /// allocates nothing here.
    ///
    /// # Panics
    ///
    /// Panics if `keys.num_keys() != self.len() + 1`.
    pub fn add_key(&mut self, keys: &(impl KeyLookup + ?Sized), dots: &mut Vec<f64>) {
        assert_eq!(
            keys.num_keys(),
            self.len() + 1,
            "add_key: keys must contain exactly one unregistered key"
        );
        let n = self.len();
        let new_key = keys.key_at(n);
        let new_norm = f64::from(vector::norm(new_key));
        self.norm.push(new_norm);

        let mut max_cos = 0.0f64;
        let mut max_pos = 0usize;
        if new_norm > 0.0 {
            keys.dot_positions(new_key, &self.centers, dots);
            for (&c, &dot) in self.centers.iter().zip(dots.iter()) {
                let center_norm = self.norm[c];
                if center_norm == 0.0 {
                    continue;
                }
                let cos = dot / (new_norm * center_norm);
                if cos.abs() > max_cos.abs() {
                    max_cos = cos;
                    max_pos = c;
                }
            }
        }

        if max_cos > self.threshold {
            self.cid.push(max_pos);
            self.dnorm.push(new_norm / self.norm[max_pos]);
        } else if max_cos < -self.threshold {
            self.cid.push(max_pos);
            self.dnorm.push(-new_norm / self.norm[max_pos]);
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
        let mut dots = Vec::new();
        for i in 0..keys.len() {
            if i >= book.len() {
                book.add_key(&keys[..=i], &mut dots);
            }
        }
    }

    #[test]
    fn first_key_is_its_own_center() {
        let mut book = CenterBook::new(0.98);
        book.add_key(&[vec![3.0, 4.0]][..], &mut Vec::new());
        assert_eq!(book.centers(), &[0]);
        assert_eq!(book.cid(0), 0);
        assert_eq!(book.dnorm(0), 1.0);
        assert!((book.norm(0) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn collinear_key_maps_to_center() {
        let mut book = CenterBook::new(0.98);
        feed(&mut book, &[vec![1.0, 0.0], vec![4.0, 0.0]]);
        assert_eq!(book.centers(), &[0]);
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
        assert_eq!(book.centers(), &[0, 1, 2]);
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
        assert_eq!(book.centers(), &[0, 1]);
    }

    #[test]
    fn center_rescale_reconstructs_collinear_exactly() {
        // EAS.2's estimate `s[i] ≈ s[cid[i]] · dnorm[i]` from the center
        // scores alone: perfectly (anti-)collinear keys reconstruct exactly.
        let mut book = CenterBook::new(0.98);
        let keys = vec![vec![2.0, 0.0], vec![6.0, 0.0], vec![-1.0, 0.0]];
        feed(&mut book, &keys);
        assert_eq!(book.centers(), &[0]);
        let q = [1.5f32, 0.0];
        let mut center_scores = Vec::new();
        keys.dot_positions(&q, book.centers(), &mut center_scores);
        let approx: Vec<f64> = (0..book.len())
            .map(|i| {
                let slot = book.centers().iter().position(|&c| c == book.cid(i));
                center_scores[slot.expect("cid is a center")] * book.dnorm(i)
            })
            .collect();
        assert!((approx[0] - 3.0).abs() < 1e-6);
        assert!((approx[1] - 9.0).abs() < 1e-6);
        assert!((approx[2] + 1.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "exactly one unregistered key")]
    fn add_key_requires_incremental_feed() {
        let mut book = CenterBook::new(0.98);
        book.add_key(&[vec![1.0], vec![2.0]][..], &mut Vec::new());
    }
}
