//! Per-position interval counters and mode tracking (paper Sec. III-E,
//! "Maintenance of Intermediate Cache").
//!
//! For every position the tracker counts how many decoding steps its attention
//! score fell into each interval. The **mode interval** is the argmax of the
//! counters — the stable positional property LAD builds its intermediate
//! caches around. Counters are bounded by the hardware's `uint12` capacity
//! (paper Sec. IV-C: `cnt` occupies 12 bits of the `G` tensor); when one
//! counter reaches the bound, all of the position's counters are halved
//! (standard hardware aging) so relative ordering is preserved but the mode
//! can still change on long streams.

/// Saturation limit of a hardware counter (`uint12`).
pub const COUNTER_MAX: u16 = 4095;

/// Tracks interval-occurrence counters and the mode interval per position.
///
/// # Example
///
/// ```
/// use lad_core::modes::ModeTracker;
///
/// let mut tracker = ModeTracker::new(4);
/// tracker.push_position();
/// tracker.record(0, 2);
/// tracker.record(0, 2);
/// tracker.record(0, 1);
/// assert_eq!(tracker.mode(0), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModeTracker {
    intervals: usize,
    /// Position-major `len() × intervals` counters: position `p` owns
    /// `counts[p·intervals..(p + 1)·intervals]`. One flat arena, so a new
    /// position never allocates beyond amortised growth and a clone is one
    /// allocation.
    counts: Vec<u16>,
    modes: Vec<usize>,
}

impl ModeTracker {
    /// Creates a tracker for a partition with `intervals` intervals.
    ///
    /// # Panics
    ///
    /// Panics if `intervals == 0`.
    pub fn new(intervals: usize) -> ModeTracker {
        assert!(intervals > 0, "ModeTracker: need at least one interval");
        ModeTracker {
            intervals,
            counts: Vec::new(),
            modes: Vec::new(),
        }
    }

    /// Number of intervals in the partition.
    pub fn intervals(&self) -> usize {
        self.intervals
    }

    /// Number of tracked positions.
    pub fn len(&self) -> usize {
        self.modes.len()
    }

    /// `true` when no positions are tracked.
    pub fn is_empty(&self) -> bool {
        self.modes.is_empty()
    }

    /// Registers a new position with zeroed counters and default mode 0
    /// (the hardware default for positions inside the latest-16 window,
    /// paper Sec. IV-B(3)).
    pub fn push_position(&mut self) {
        self.counts.resize(self.counts.len() + self.intervals, 0);
        self.modes.push(0);
    }

    /// Current mode interval of `position`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn mode(&self, position: usize) -> usize {
        self.modes[position]
    }

    /// Counter vector of `position`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn counts(&self, position: usize) -> &[u16] {
        &self.counts[self.span(position)]
    }

    /// Where `position`'s counters sit in the flat arena.
    fn span(&self, position: usize) -> std::ops::Range<usize> {
        position * self.intervals..(position + 1) * self.intervals
    }

    /// Records that `position`'s score fell into `interval` this step and
    /// returns `true` if the mode changed as a result (the position joins the
    /// update set `U`, paper Sec. III-C).
    ///
    /// Mirrors the MD module: the incremented counter is compared against the
    /// mode's counter and the mode moves only when strictly greater.
    ///
    /// # Panics
    ///
    /// Panics if `position` or `interval` is out of bounds.
    pub fn record(&mut self, position: usize, interval: usize) -> bool {
        assert!(interval < self.intervals, "record: interval out of bounds");
        let span = self.span(position);
        let counters = &mut self.counts[span];
        age_if_saturated(counters, interval);
        counters[interval] += 1;
        let mode = self.modes[position];
        if interval != mode && counters[interval] > counters[mode] {
            self.modes[position] = interval;
            true
        } else {
            false
        }
    }

    /// Records the *mode* interval for a non-active position (the APID module
    /// increments `cnt[i, mode[i]]` without knowing the true interval,
    /// paper Sec. IV-B(3)). Never changes the mode.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn record_mode_hit(&mut self, position: usize) {
        let mode = self.modes[position];
        let span = self.span(position);
        let counters = &mut self.counts[span];
        age_if_saturated(counters, mode);
        counters[mode] += 1;
    }

    /// Iterator over all current modes, position order.
    pub fn iter_modes(&self) -> impl Iterator<Item = usize> + '_ {
        self.modes.iter().copied()
    }
}

/// Ages a position's counters when the counter about to be incremented sits
/// at [`COUNTER_MAX`]: every counter is halved, so the increment always has
/// headroom and counter *ordering* (hence the mode invariant `cnt[mode] >=
/// cnt[i]` for non-challengers) is preserved. Without aging, a saturated
/// mode counter could never be strictly exceeded and the position's mode
/// would be frozen forever (~4k steps in).
fn age_if_saturated(counters: &mut [u16], interval: usize) {
    if counters[interval] >= COUNTER_MAX {
        for c in counters.iter_mut() {
            *c >>= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_follows_majority() {
        let mut t = ModeTracker::new(3);
        t.push_position();
        // Default mode is 0 with count 0; first record of interval 1 makes
        // cnt[1]=1 > cnt[0]=0, so the mode moves immediately.
        assert!(t.record(0, 1));
        assert_eq!(t.mode(0), 1);
    }

    #[test]
    fn mode_change_requires_strict_majority() {
        let mut t = ModeTracker::new(3);
        t.push_position();
        t.record(0, 1);
        t.record(0, 1); // cnt[1] = 2, mode 1
        assert!(!t.record(0, 2)); // cnt[2]=1 < 2
        assert!(!t.record(0, 2)); // cnt[2]=2 == 2, tie keeps old mode
        assert!(t.record(0, 2)); // cnt[2]=3 > 2 -> mode change
        assert_eq!(t.mode(0), 2);
    }

    #[test]
    fn first_record_changes_mode_and_reports_update() {
        let mut t = ModeTracker::new(4);
        t.push_position();
        // record() returns whether the mode changed.
        let changed = t.record(0, 3);
        assert!(changed);
        assert_eq!(t.mode(0), 3);
    }

    #[test]
    fn record_mode_hit_never_moves_mode() {
        let mut t = ModeTracker::new(3);
        t.push_position();
        t.record(0, 2);
        for _ in 0..10 {
            t.record_mode_hit(0);
        }
        assert_eq!(t.mode(0), 2);
        assert_eq!(t.counts(0)[2], 11);
    }

    #[test]
    fn counters_never_exceed_u12() {
        let mut t = ModeTracker::new(2);
        t.push_position();
        for _ in 0..20_000 {
            t.record(0, 1);
            assert!(t.counts(0)[1] <= COUNTER_MAX);
        }
        // Aging keeps the counter in the upper half of its range.
        assert!(t.counts(0)[1] > COUNTER_MAX / 2);
    }

    #[test]
    fn mode_can_change_after_saturation() {
        // Regression: without aging, a counter saturated at COUNTER_MAX can
        // never be strictly exceeded, freezing the mode permanently after
        // ~4k steps. Drive one interval past saturation, then switch the
        // stream to another interval and require the mode to follow.
        let mut t = ModeTracker::new(3);
        t.push_position();
        for _ in 0..5000 {
            t.record(0, 1);
        }
        assert_eq!(t.mode(0), 1);
        let mut changed = false;
        for _ in 0..5000 {
            changed |= t.record(0, 2);
        }
        assert!(changed, "mode frozen after counter saturation");
        assert_eq!(t.mode(0), 2);
    }

    #[test]
    fn mode_hits_age_too() {
        // record_mode_hit must also age: an APID-incremented mode counter
        // saturating would freeze the mode just the same.
        let mut t = ModeTracker::new(2);
        t.push_position();
        t.record(0, 0);
        for _ in 0..COUNTER_MAX as usize + 10 {
            t.record_mode_hit(0);
        }
        assert!(t.counts(0)[0] <= COUNTER_MAX);
        for _ in 0..3000 {
            t.record(0, 1);
        }
        assert_eq!(t.mode(0), 1, "mode frozen after mode-hit saturation");
    }

    #[test]
    fn positions_are_independent() {
        let mut t = ModeTracker::new(3);
        t.push_position();
        t.push_position();
        t.record(0, 1);
        t.record(1, 2);
        assert_eq!(t.mode(0), 1);
        assert_eq!(t.mode(1), 2);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "interval out of bounds")]
    fn interval_bounds_checked() {
        let mut t = ModeTracker::new(2);
        t.push_position();
        t.record(0, 2);
    }
}
