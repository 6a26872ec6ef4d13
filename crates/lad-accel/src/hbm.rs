//! HBM2 model (substitute for Ramulator — see `DESIGN.md`).
//!
//! The paper configures 5 HBM2 cubes × 16 channels × 19.2 GB/s = 1.5 TB/s,
//! intentionally matching the A100's 1555 GB/s for a fair comparison, and
//! simulates accesses with Ramulator plus 3.9 pJ/bit energy. The paper only
//! consumes Ramulator's achieved bandwidth and energy, so this model captures
//! channel-level parallelism and burst-granularity efficiency: many small
//! scattered reads (active positions) achieve less than peak bandwidth, large
//! streaming reads approach it.

use serde::{Deserialize, Serialize};

/// HBM stack parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HbmConfig {
    /// Number of HBM cubes.
    pub cubes: usize,
    /// Channels per cube.
    pub channels_per_cube: usize,
    /// Per-channel bandwidth (bytes/s).
    pub channel_bandwidth: f64,
    /// Access (burst) granularity in bytes — transfers are rounded up to it.
    pub burst_bytes: usize,
    /// Access energy (pJ per bit), paper: 3.9 pJ/bit.
    pub pj_per_bit: f64,
}

impl HbmConfig {
    /// The paper's configuration: 5 cubes × 16 channels × 19.2 GB/s,
    /// 3.9 pJ/bit, 64 B bursts.
    pub fn paper() -> HbmConfig {
        HbmConfig {
            cubes: 5,
            channels_per_cube: 16,
            channel_bandwidth: 19.2e9,
            burst_bytes: 64,
            pj_per_bit: 3.9,
        }
    }

    /// Total channel count.
    pub fn channels(&self) -> usize {
        self.cubes * self.channels_per_cube
    }

    /// Aggregate peak bandwidth (bytes/s). Paper: 1.536 TB/s.
    pub fn total_bandwidth(&self) -> f64 {
        self.channels() as f64 * self.channel_bandwidth
    }

    /// Bandwidth efficiency of accesses of a given size: the fraction of a
    /// burst actually carrying useful data.
    pub fn efficiency(&self, access_bytes: usize) -> f64 {
        if access_bytes == 0 {
            return 1.0;
        }
        let bursts = access_bytes.div_ceil(self.burst_bytes);
        access_bytes as f64 / (bursts * self.burst_bytes) as f64
    }

    /// Seconds to transfer a stream of `count` accesses of `access_bytes`
    /// each at full-stack bandwidth, accounting for burst padding.
    pub fn transfer_seconds(&self, access_bytes: usize, count: usize) -> f64 {
        let bursts = access_bytes.div_ceil(self.burst_bytes).max(1);
        (bursts * self.burst_bytes * count) as f64 / self.total_bandwidth()
    }

    /// Energy in joules to move `bytes` (useful bytes; burst padding also
    /// burns energy, so pass padded counts for scattered accesses).
    pub fn energy_joules(&self, bytes: f64) -> f64 {
        bytes * 8.0 * self.pj_per_bit * 1e-12
    }

    /// Padded byte count for `count` scattered accesses of `access_bytes`.
    pub fn padded_bytes(&self, access_bytes: usize, count: usize) -> f64 {
        (access_bytes.div_ceil(self.burst_bytes).max(1) * self.burst_bytes * count) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_bandwidth_matches_a100() {
        let hbm = HbmConfig::paper();
        assert_eq!(hbm.channels(), 80);
        let tb = hbm.total_bandwidth() / 1e12;
        // 1.536 TB/s ~ A100's 1555 GB/s.
        assert!((tb - 1.536).abs() < 1e-6, "got {tb}");
    }

    #[test]
    fn efficiency_penalises_small_accesses() {
        let hbm = HbmConfig::paper();
        assert_eq!(hbm.efficiency(64), 1.0);
        assert_eq!(hbm.efficiency(128), 1.0);
        assert_eq!(hbm.efficiency(32), 0.5);
        assert!((hbm.efficiency(96) - 0.75).abs() < 1e-12);
        assert_eq!(hbm.efficiency(0), 1.0);
    }

    #[test]
    fn transfer_time_scales_with_padding() {
        let hbm = HbmConfig::paper();
        let aligned = hbm.transfer_seconds(64, 1000);
        let padded = hbm.transfer_seconds(65, 1000);
        assert!((padded / aligned - 2.0).abs() < 1e-9);
    }

    #[test]
    fn energy_matches_pj_per_bit() {
        let hbm = HbmConfig::paper();
        // 1 GB at 3.9 pJ/bit = 1e9 * 8 * 3.9e-12 J = 31.2 mJ.
        let e = hbm.energy_joules(1e9);
        assert!((e - 0.0312).abs() < 1e-6, "got {e}");
    }

    #[test]
    fn padded_bytes_rounds_up() {
        let hbm = HbmConfig::paper();
        assert_eq!(hbm.padded_bytes(100, 2), 256.0);
        assert_eq!(hbm.padded_bytes(64, 3), 192.0);
    }
}
