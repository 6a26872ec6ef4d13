//! Backend zoo: quality per byte of KV traffic across attention policies.
//!
//! Exact attention, LAD, top-k selection (three k budgets) and H2O eviction
//! (three retention budgets) decode the same seeded prompt sets at two
//! generation lengths, and each cell scores greedy-decode agreement with the
//! exact reference against the KV bytes the backend's [`StepStats`] traffic
//! counters say it streamed (the counters `tests/differential.rs` pins to a
//! thread-local byte meter). The figure of merit is
//!
//! ```text
//! quality_per_mbyte = agreement / (KV megabytes moved)
//! qpb_ratio_vs_exact = quality_per_mbyte / exact's quality_per_mbyte
//! ```
//!
//! so a sparsity knob only wins where it sheds traffic faster than it sheds
//! agreement. The gated quantities are structural, not timed (the counters
//! are deterministic), with bounds from `lad_bench::gates::GATES`: on every
//! (dataset, length) cell the best non-exact backend must hold exact's
//! quality-per-megabyte-moved within a small margin, somewhere in the sweep
//! a sparse backend must **beat** exact outright, and the H2O rows must
//! actually evict. Greedy exact-match agreement is a
//! brutal metric — one flipped argmax diverges the rest of the stream — so
//! the long-prompt cells mostly show where each budget stops being free,
//! while the short-prompt cells show H2O winning per byte outright.
//!
//! The run is written to `BENCH_backends.json` at the repo root as the
//! committed baseline (validated and re-measured by `bench_check`).
//!
//! ```sh
//! cargo bench --bench backend_quality
//! ```

use lad_bench::gates::{self, bench_model, BACKENDS_FILE};
use lad_bench::{print_table, section};
use lad_eval::backends::{backend_quality_report, backend_zoo, BackendQualityRow};
use lad_eval::datasets::{alpaca_shaped, gsm8k_shaped};
use lad_eval::PromptSet;

const PROMPTS_PER_SET: usize = 2;
const GEN_LENS: [usize; 2] = [32, 64];

/// Two dataset presets x two generation lengths: the dataset and
/// sequence-length axes of the sweep.
fn benches(vocab: u32) -> Vec<PromptSet> {
    let mut out = Vec::new();
    for gen_len in GEN_LENS {
        for mut set in [
            alpaca_shaped(vocab, PROMPTS_PER_SET, 23),
            gsm8k_shaped(vocab, PROMPTS_PER_SET, 24),
        ] {
            set.gen_len = gen_len;
            out.push(set);
        }
    }
    out
}

/// The exact-attention row of `rows` with the same (dataset, gen_len) cell
/// as `row`.
fn exact_peer<'a>(rows: &'a [BackendQualityRow], row: &BackendQualityRow) -> &'a BackendQualityRow {
    rows.iter()
        .find(|r| r.backend == "exact" && r.dataset == row.dataset && r.gen_len == row.gen_len)
        .expect("every cell has an exact row")
}

fn qpb_ratio(rows: &[BackendQualityRow], row: &BackendQualityRow) -> f64 {
    row.quality_per_mbyte_moved() / exact_peer(rows, row).quality_per_mbyte_moved()
}

fn write_baseline(rows: &[BackendQualityRow]) {
    let json_rows: Vec<String> = rows
        .iter()
        .map(|row| {
            format!(
                "{{\"kind\": \"{}\", \"dataset\": \"{}\", \"gen_len\": {}, \
                 \"agreement\": {:.4}, \"mbytes_moved\": {:.4}, \"evictions\": {}, \
                 \"quality_per_mbyte\": {:.4}, \"qpb_ratio_vs_exact\": {:.4}}}",
                row.backend,
                row.dataset,
                row.gen_len,
                row.agreement,
                row.bytes_moved as f64 / 1e6,
                row.evictions,
                row.quality_per_mbyte_moved(),
                qpb_ratio(rows, row),
            )
        })
        .collect();
    gates::write_baseline(
        BACKENDS_FILE,
        "backend_quality/quality_per_byte_moved",
        "tiny backend preset (2 layers, 256 hidden, 4 heads)",
        &[("prompts_per_set", PROMPTS_PER_SET.to_string())],
        &json_rows,
    );
}

fn main() {
    let model = bench_model();
    let benches = benches(model.config().vocab as u32);
    let zoo = backend_zoo();

    section("backend_quality: agreement per KV megabyte moved (vs exact)");
    let rows = backend_quality_report(&model, &benches, &zoo);

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            vec![
                row.backend.clone(),
                row.dataset.clone(),
                format!("{}", row.gen_len),
                format!("{:.0}%", row.agreement * 100.0),
                format!("{:.2}", row.bytes_moved as f64 / 1e6),
                format!("{}", row.evictions),
                format!("{:.3}", row.quality_per_mbyte_moved()),
                format!("{:.2}", qpb_ratio(&rows, row)),
            ]
        })
        .collect();
    print_table(
        &[
            "backend",
            "dataset",
            "gen",
            "agreement",
            "MB moved",
            "evictions",
            "qual/MB",
            "vs exact",
        ],
        &table,
    );

    // Exact is its own reference on every cell, and every backend scored
    // every cell; writing the baseline checks the gates.
    for bench in &benches {
        let cell: Vec<&BackendQualityRow> = rows
            .iter()
            .filter(|r| r.dataset == bench.name && r.gen_len == bench.gen_len)
            .collect();
        assert_eq!(cell.len(), zoo.len(), "every backend scored the cell");
        assert_eq!(cell[0].backend, "exact");
        assert_eq!(cell[0].agreement, 1.0, "exact is its own reference");
    }
    write_baseline(&rows);
}
