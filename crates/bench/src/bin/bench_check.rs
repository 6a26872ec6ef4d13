//! Bench regression gate: `cargo run -p lad-bench --bin bench_check`.
//!
//! A loop over the gate table [`lad_bench::gates::GATES`]. For every
//! committed `BENCH_*.json` baseline at the repo root it validates the
//! schema; for every gate it checks the committed row against the gate's
//! bound (and `bit_exact: 1` where the measurement asserts bit-identity),
//! then re-measures the quantity in-process at quick size with the same
//! workload and estimator the recorder used, and compares it with the bound.
//! It prints the table once and exits nonzero if any row fails. The gates
//! cover:
//!
//! * `BENCH_gemm.json`: the batch-8 per-token speedup of one batched
//!   `Engine` serve over per-sample `Session` decodes;
//! * `BENCH_spec.json`: the best draft/verify speedup over plain decoding,
//!   and that run's mean accepted length (the verifier must accept real
//!   draft tokens, not just the bonus token);
//! * `BENCH_kernels.json`: the scalar-vs-SIMD microkernel ratios and the
//!   16-row GEMM panel's staircase ceiling. Re-measurement is skipped on
//!   hosts without AVX2 (the staircase without AVX-512F), where only
//!   the committed rows are checked;
//! * `BENCH_obs.json`: the enabled-recorder serving overhead;
//! * `BENCH_backends.json`: quality per KV byte moved of the sparse backend
//!   zoo. These are traffic counters, not timers, so the hero-cell
//!   re-measurement is deterministic.
//!
//! A `BENCH_*.json` at the repo root that no gate names fails the run.
//!
//! Every timed gate is a **ratio**, the median of interleaved pairs of both
//! sides in one process ([`lad_bench::gates::interleaved_ratio`]): noise
//! that slows the host slows both sides of a pair and cancels, and one slow
//! pair cannot move the median.

use lad_bench::gates::{
    repo_root, BACKENDS_FILE, GATES, GEMM_FILE, KERNELS_FILE, OBS_FILE, SPEC_FILE,
};
use lad_bench::{print_table, section};
use lad_obs::json::{self, Value};

/// Numeric fields every result row of each committed baseline carries.
#[rustfmt::skip]
const SCHEMAS: [(&str, &[&str]); 5] = [
    (GEMM_FILE, &["batch", "per_sample_ms_per_token", "batched_ms_per_token", "speedup", "ticks"]),
    (SPEC_FILE, &["ms_per_token", "speedup_vs_plain", "acceptance_rate", "mean_accepted_len",
                  "rounds", "forward_steps", "drafted", "accepted"]),
    (KERNELS_FILE, &["baseline_us", "variant_us", "bit_exact"]),
    (OBS_FILE, &["steps_per_s", "overhead_pct", "max_overhead_pct"]),
    (BACKENDS_FILE, &["gen_len", "agreement", "mbytes_moved", "evictions", "quality_per_mbyte",
                      "qpb_ratio_vs_exact"]),
];

fn fail(msg: &str) -> ! {
    eprintln!("bench_check: FAIL: {msg}");
    std::process::exit(1);
}

fn num(row: &Value, field: &str) -> Option<f64> {
    row.get(field).and_then(Value::as_f64)
}

/// Loads `name` and validates the baseline envelope plus, per result row, a
/// string `kind` and every `required` field as a finite number. Returns the
/// result rows.
fn load(name: &str, required: &[&str]) -> Vec<Value> {
    let path = repo_root().join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
    let doc = json::parse(&text).unwrap_or_else(|e| fail(&format!("{name}: {e}")));
    for field in ["bench", "model"] {
        if doc.get(field).and_then(Value::as_str).is_none() {
            fail(&format!("{name}: missing string field '{field}'"));
        }
    }
    if doc.get("host_cores").and_then(Value::as_u64).is_none() {
        fail(&format!("{name}: missing numeric field 'host_cores'"));
    }
    let results = match doc.get("results").and_then(Value::as_array) {
        Some(rows) if !rows.is_empty() => rows.to_vec(),
        _ => fail(&format!("{name}: missing or empty results array")),
    };
    for (i, row) in results.iter().enumerate() {
        if row.get("kind").and_then(Value::as_str).is_none() {
            fail(&format!("{name}: results[{i}]: missing string 'kind'"));
        }
        for field in required {
            if !num(row, field).is_some_and(f64::is_finite) {
                fail(&format!(
                    "{name}: results[{i}]: missing/invalid numeric '{field}'"
                ));
            }
        }
    }
    results
}

/// Structural invariants of the backend sweep that are not bounds:
/// agreements are fractions and every exact row is its own reference.
fn check_backend_rows(rows: &[Value]) {
    for row in rows {
        let agreement = num(row, "agreement").expect("validated");
        if !(0.0..=1.0).contains(&agreement) {
            fail("BENCH_backends.json: agreement outside [0, 1]");
        }
        if row.get("kind").and_then(Value::as_str) == Some("exact")
            && (agreement != 1.0
                || (num(row, "qpb_ratio_vs_exact").expect("validated") - 1.0).abs() > 1e-6)
        {
            fail("BENCH_backends.json: an exact row is not its own reference");
        }
    }
}

fn main() {
    section("bench_check: committed baselines");
    let files: Vec<(&str, Vec<Value>)> = SCHEMAS
        .iter()
        .map(|&(name, required)| (name, load(name, required)))
        .collect();
    for entry in std::fs::read_dir(repo_root())
        .unwrap_or_else(|e| fail(&format!("cannot list repo root: {e}")))
    {
        let name = entry
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .unwrap_or_default();
        if name.starts_with("BENCH_")
            && name.ends_with(".json")
            && !GATES.iter().any(|g| g.file == name)
        {
            fail(&format!(
                "{name} is committed but no gate in lad_bench::gates::GATES names it"
            ));
        }
    }
    let rows_of = |file: &str| {
        &files
            .iter()
            .find(|(name, _)| *name == file)
            .expect("every gated file has a schema")
            .1
    };
    check_backend_rows(rows_of(BACKENDS_FILE));
    println!("{} baselines: schemas ok, none ungated", files.len());

    section("bench_check: gate table (committed row, then quick re-measurement)");
    println!("gemm panels: {}", lad_math::simd::gemm_panels());
    let mut table = Vec::new();
    let mut failures = Vec::new();
    for gate in &GATES {
        let what = format!("{} {} {}", gate.file, gate.row, gate.metric);
        let recorded = gate.recorded(rows_of(gate.file));
        let measured = gate.measure.map(|measure| measure());
        let mut problems = Vec::new();
        match &recorded {
            Err(e) => problems.push(e.clone()),
            Ok(v) if !gate.bound.holds(*v) => problems.push(format!(
                "committed {v:.3} misses {}, so the baseline itself regressed",
                gate.bound
            )),
            Ok(_) => {}
        }
        match measured {
            Some(Some(m)) if !gate.bound.holds(m) => {
                problems.push(format!("measured {m:.3} misses {}", gate.bound))
            }
            _ => {}
        }
        table.push(vec![
            gate.file.to_string(),
            gate.row.to_string(),
            format!("{} {}", gate.metric, gate.bound),
            recorded.map_or("invalid".to_string(), |v| format!("{v:.3}")),
            match measured {
                None => "recorder only".to_string(),
                Some(None) => "skipped: no ISA".to_string(),
                Some(Some(m)) => format!("{m:.3}"),
            },
            if problems.is_empty() { "pass" } else { "FAIL" }.to_string(),
        ]);
        failures.extend(problems.into_iter().map(|p| format!("{what}: {p}")));
    }
    print_table(
        &["file", "row", "bound", "recorded", "measured", "pass"],
        &table,
    );
    if !failures.is_empty() {
        fail(&failures.join("\n  "));
    }
    println!("\nbench_check: OK");
}
