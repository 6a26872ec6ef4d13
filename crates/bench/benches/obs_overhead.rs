//! Observability overhead: the serving engine with every recorder on
//! (spans + metrics registry + request timeline) vs all of them off.
//!
//! The recorders promise near-zero cost: a disabled record path is one
//! relaxed atomic load, and an enabled one is a handful of relaxed atomic
//! ops plus a `Copy` ring write — invisible next to the GEMMs a serving
//! step actually spends its time in. This bench pins that promise as a
//! gated number: decode **steps per second** of an identical continuous-
//! batching workload (`lad_bench::gates::OBS_WORKLOAD`), recorders off vs
//! on, as the median of interleaved off/on pairs in one process
//! (`lad_bench::gates::obs_point`), against the ceiling in
//! `lad_bench::gates::GATES`.
//!
//! The run is written to `BENCH_obs.json` at the repo root as the
//! committed baseline (validated and re-measured by `bench_check`).
//!
//! ```sh
//! cargo bench -p lad-bench --bench obs_overhead
//! ```

use lad_bench::gates::{self, bench_model, obs_point, GATES, OBS_FILE, OBS_PAIRS, OBS_WORKLOAD};
use lad_bench::{print_table, section};

fn main() {
    let gate = GATES.iter().find(|g| g.file == OBS_FILE).expect("gated");
    let ceiling = gate.bound.value();

    section("obs_overhead: recorders off vs on (same workload, same process)");
    let p = obs_point(&bench_model());
    print_table(
        &["config", "steps/s", "overhead %"],
        &[
            vec![
                "recorder_off".to_string(),
                format!("{:.0}", p.off_steps_per_s),
                "0.00".to_string(),
            ],
            vec![
                "recorder_on".to_string(),
                format!("{:.0}", p.on_steps_per_s),
                format!("{:.2}", p.overhead_pct),
            ],
        ],
    );
    println!(
        "\nenabled-recorder overhead: {:.2}% ({})",
        p.overhead_pct, gate.bound
    );

    gates::write_baseline(
        OBS_FILE,
        "obs_overhead/recorder_on_vs_off",
        "tiny serve preset (2 layers, 256 hidden, 4 heads)",
        &[
            ("requests", OBS_WORKLOAD.len().to_string()),
            ("pairs", OBS_PAIRS.to_string()),
        ],
        &[
            format!(
                "{{\"kind\": \"recorder_off\", \"steps_per_s\": {:.1}, \"overhead_pct\": 0.0, \
                 \"max_overhead_pct\": {ceiling}}}",
                p.off_steps_per_s
            ),
            format!(
                "{{\"kind\": \"recorder_on\", \"steps_per_s\": {:.1}, \"overhead_pct\": {:.2}, \
                 \"max_overhead_pct\": {ceiling}}}",
                p.on_steps_per_s, p.overhead_pct
            ),
        ],
    );
}
