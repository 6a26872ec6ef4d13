//! Shared helpers for the experiment harness.
//!
//! Every paper table and figure has a bench target (`harness = false`) in
//! `benches/` that prints the corresponding rows/series. This library holds
//! the common pieces: the KV-length sweep grid, the model list, plain-text
//! table rendering and geometric-mean summaries. [`gates`] holds the
//! workloads, the timing estimator and the bound table behind every
//! committed `BENCH_*.json` baseline.

use lad_accel::workload::workload_stats;
use lad_core::stats::StatsSummary;
use lad_math::stats;
use lad_model::config::ModelConfig;

pub mod gates;

/// KV-cache lengths of "group 1" (512–2048, paper Sec. V-C).
pub const GROUP1: [usize; 3] = [512, 1024, 2048];

/// KV-cache lengths of "group 2" (2560–4096).
pub const GROUP2: [usize; 3] = [2560, 3072, 4096];

/// The full sweep grid.
pub fn kv_lengths() -> Vec<usize> {
    GROUP1.iter().chain(GROUP2.iter()).copied().collect()
}

/// The paper's four evaluation models.
pub fn paper_models() -> Vec<ModelConfig> {
    ModelConfig::paper_models()
}

/// One point of the performance sweep: a model at a KV length, with the
/// calibrated workload statistics.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Model preset.
    pub model: ModelConfig,
    /// KV-cache length.
    pub n: usize,
    /// Calibrated LAD execution statistics at `n`.
    pub stats: StatsSummary,
}

impl SweepPoint {
    /// `true` if this point belongs to group 2 (KV length ≥ 2560).
    pub fn is_group2(&self) -> bool {
        self.n >= 2560
    }
}

/// The full model × KV-length grid (points beyond a model's maximum
/// sequence length are skipped, as in the paper).
pub fn sweep_points() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for model in paper_models() {
        for n in kv_lengths() {
            if n <= model.max_seq {
                points.push(SweepPoint {
                    stats: workload_stats(n, 0x1ad),
                    model: model.clone(),
                    n,
                });
            }
        }
    }
    points
}

/// Prints a titled separator.
pub fn section(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Renders a plain-text table with right-aligned numeric columns.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "table row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |sep: &str, cells: Vec<String>| {
        let body: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("{}", body.join(sep));
    };
    line(" | ", headers.iter().map(|s| s.to_string()).collect());
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("-+-")
    );
    for row in rows {
        line(" | ", row.clone());
    }
}

/// Geometric mean of a ratio series, skipping non-finite entries.
pub fn geomean(values: &[f64]) -> f64 {
    let clean: Vec<f64> = values
        .iter()
        .copied()
        .filter(|v| v.is_finite() && *v > 0.0)
        .collect();
    if clean.is_empty() {
        return f64::NAN;
    }
    stats::geomean(&clean)
}

/// Formats a ratio like "10.7x".
pub fn ratio(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}x")
    } else {
        "NA".to_string()
    }
}

/// Formats a fraction as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_grid_covers_both_groups() {
        let grid = kv_lengths();
        assert_eq!(grid.len(), 6);
        assert_eq!(grid[0], 512);
        assert_eq!(*grid.last().unwrap(), 4096);
    }

    #[test]
    fn geomean_skips_bad_values() {
        assert!((geomean(&[2.0, 8.0, f64::NAN]) - 4.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn formatting() {
        assert_eq!(ratio(10.66), "10.7x");
        assert_eq!(ratio(f64::NAN), "NA");
        assert_eq!(pct(0.425), "42.5%");
    }
}
