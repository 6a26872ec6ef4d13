//! The one-command ledger: every workload untraced (repeats interleaved
//! across workloads, median reported) for the end-to-end metrics, then once
//! traced for the per-layer table. Each run is a child process of this same
//! binary in driver mode — the ledger reads exactly what the driver reads,
//! and `peak_rss_mb` is per workload.

use crate::contract::Contract;
use crate::stats::median;
use lad_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

#[derive(Debug, Clone)]
pub struct LedgerArgs {
    pub workloads: Vec<String>,
    pub seed: u64,
    pub seconds: u64,
    pub repeats: usize,
    pub trace_only: bool,
    pub json: Option<PathBuf>,
    /// Smoke mode: short runs, nothing held to a bound.
    pub quick: bool,
    pub selfcheck: bool,
}

/// The parsed last line of one child run.
#[derive(Debug, Clone, PartialEq)]
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn parse_result(line: &str) -> Result<ChildResult, String> {
    let doc = json::parse(line).map_err(|e| e.to_string())?;
    let whole = |key: &str| {
        doc.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("result lacks whole number `{key}`"))
    };
    let Some(Value::Object(entries)) = doc.get("metrics") else {
        return Err("result lacks `metrics`".to_owned());
    };
    let mut metrics = BTreeMap::new();
    for (name, entry) in entries {
        let value = entry
            .get("value")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("metric `{name}` lacks a value"))?;
        metrics.insert(name.clone(), value);
    }
    Ok(ChildResult {
        correct: doc.get("correct") == Some(&Value::Bool(true)),
        attempted: whole("attempted")?,
        failed: whole("failed")?,
        metrics,
    })
}

fn run_child(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{workload}: run exited with {}", output.status));
    }
    let last = stdout.lines().last().unwrap_or_default();
    parse_result(last).map_err(|e| format!("{workload}: {e}"))
}

/// Per workload, per metric: the values of every repeat.
type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Sent / failed / all-correct per workload over a set of runs.
type Tally = BTreeMap<String, (u64, u64, bool)>;

fn tally(tallies: &mut Tally, workload: &str, r: &ChildResult) {
    let t = tallies.entry(workload.to_owned()).or_insert((0, 0, true));
    t.0 += r.attempted;
    t.1 += r.failed;
    t.2 &= r.correct;
}

/// One end-to-end set: `repeats` untraced runs of every workload,
/// interleaved so a noisy minute on the host is spread over all of them.
fn end_to_end_set(args: &LedgerArgs, tallies: &mut Tally) -> Result<Samples, String> {
    let mut samples = Samples::new();
    for rep in 0..args.repeats {
        for w in &args.workloads {
            eprintln!("[ledger] {w}: untraced run {}/{}", rep + 1, args.repeats);
            let r = run_child(w, args.seed, args.seconds, false)?;
            tally(tallies, w, &r);
            for (name, value) in &r.metrics {
                samples
                    .entry(w.clone())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(*value);
            }
        }
    }
    Ok(samples)
}

fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

fn print_end_to_end(contract: &Contract, samples: &Samples, repeats: usize) {
    println!("\n== end to end (recorders off; median [min .. max] of {repeats} runs)");
    for (w, metrics) in samples {
        println!("{w}");
        for m in &contract.end_to_end {
            let values = &metrics[&m.name];
            let (lo, hi) = min_max(values);
            println!(
                "  {:<14} {:>12.4} {:<6} [{:.4} .. {:.4}]  {} is better, bound {:.0}%",
                m.name,
                median(values),
                m.unit,
                lo,
                hi,
                if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                },
                100.0 * m.bound.unwrap_or(0.0),
            );
        }
    }
}

fn print_per_layer(contract: &Contract, names: &[String], traced: &BTreeMap<String, ChildResult>) {
    println!("\n== per layer (one traced run per workload; shares are of serve.tick time)");
    print!("{:<30} {:<8}", "metric", "unit");
    for w in names {
        print!(" {w:>17}");
    }
    println!();
    for m in &contract.per_layer {
        print!("{:<30} {:<8}", m.name, m.unit);
        for w in names {
            print!(" {:>17.4}", traced[w].metrics[&m.name]);
        }
        println!();
    }
    println!("paper (Fig. 7, group 2): accel.attn_speedup_g2 10.7x, accel.e2e_speedup_g2 2.3x");
}

/// Relative difference between two sets' medians, against the first.
fn drift(first: &[f64], second: &[f64]) -> f64 {
    let base = median(first);
    if base == 0.0 {
        return 0.0;
    }
    ((median(second) - base) / base).abs()
}

fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn results_json(
    contract: &Contract,
    args: &LedgerArgs,
    tallies: &Tally,
    samples: &Samples,
    traced: &BTreeMap<String, ChildResult>,
) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut workloads = Vec::new();
    for w in &args.workloads {
        let (sent, failed, correct) = tallies.get(w).copied().unwrap_or((0, 0, false));
        let e2e: Vec<String> = samples.get(w).map_or_else(Vec::new, |metrics| {
            contract
                .end_to_end
                .iter()
                .map(|m| {
                    let (lo, hi) = min_max(&metrics[&m.name]);
                    format!(
                        "\"{}\":{{\"median\":{},\"min\":{lo},\"max\":{hi},\"unit\":\"{}\"}}",
                        m.name,
                        median(&metrics[&m.name]),
                        m.unit
                    )
                })
                .collect()
        });
        let layers: Vec<String> = traced.get(w).map_or_else(Vec::new, |r| {
            contract
                .per_layer
                .iter()
                .map(|m| {
                    format!(
                        "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                        m.name, r.metrics[&m.name], m.unit
                    )
                })
                .collect()
        });
        workloads.push(format!(
            "\"{w}\":{{\"sent\":{sent},\"succeeded\":{},\"failed\":{failed},\"correct\":{correct},\
             \"end_to_end\":{{{}}},\"per_layer\":{{{}}}}}",
            sent - failed,
            e2e.join(","),
            layers.join(",")
        ));
    }
    format!(
        "{{\"git_sha\":\"{}\",\"seed\":{},\"seconds\":{},\"repeats\":{},\"host.cores\":{cores},\
         \"claim\":null,\"workloads\":{{{}}}}}\n",
        json::escape(&git_sha()),
        args.seed,
        args.seconds,
        args.repeats,
        workloads.join(",")
    )
}

/// Runs the ledger; `Ok(false)` means a check failed (outputs wrong, or
/// `--selfcheck` found two sets of the same build disagreeing).
pub fn run(args: &LedgerArgs) -> Result<bool, String> {
    let contract = Contract::load();
    let mut ok = true;
    let mut tallies = Tally::new();
    let mut samples = Samples::new();
    if !args.trace_only {
        samples = end_to_end_set(args, &mut tallies)?;
        print_end_to_end(&contract, &samples, args.repeats);
    }

    if args.selfcheck {
        let second = end_to_end_set(args, &mut tallies)?;
        println!("\n== selfcheck: a second set of the same build (A/A)");
        print_end_to_end(&contract, &second, args.repeats);
        println!("\n== selfcheck: drift of the second set's median against the first");
        for (w, metrics) in &samples {
            for m in &contract.end_to_end {
                let bound = m.bound.unwrap_or(0.0);
                let d = drift(&metrics[&m.name], &second[w][&m.name]);
                let verdict = if d <= bound { "ok" } else { "EXCEEDS BOUND" };
                println!(
                    "  {w:<18} {:<14} {:>6.2}% of {:>4.0}%  {verdict}",
                    m.name,
                    100.0 * d,
                    100.0 * bound
                );
                ok &= d <= bound;
            }
        }
    }

    let mut traced = BTreeMap::new();
    if !args.selfcheck {
        for w in &args.workloads {
            eprintln!("[ledger] {w}: traced run");
            let r = run_child(w, args.seed, args.seconds, true)?;
            tally(&mut tallies, w, &r);
            traced.insert(w.clone(), r);
        }
        print_per_layer(&contract, &args.workloads, &traced);
    }

    println!("\n== requests (all runs of this invocation)");
    for (w, (sent, failed, correct)) in &tallies {
        println!(
            "  {w:<18} sent {sent:>5}  succeeded {:>5}  failed {failed:>3}  outputs {}",
            sent - failed,
            if *correct { "correct" } else { "WRONG" }
        );
        ok &= *correct;
    }
    if args.quick {
        println!("(--quick: smoke sizes; the numbers above are not comparable to a full run)");
    }
    if let Some(path) = &args.json {
        let text = results_json(&contract, args, &tallies, &samples, &traced);
        json::parse(&text).map_err(|e| format!("results JSON is malformed: {e}"))?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("results: {}", path.display());
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_driver_result_line() {
        let r = parse_result(
            r#"{"correct":true,"attempted":104,"failed":0,"metrics":{"setup_s":{"value":0.81,"unit":"s"}}}"#,
        )
        .unwrap();
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (104, 0));
        assert_eq!(r.metrics["setup_s"], 0.81);
        assert!(parse_result("served 104 requests").is_err());
        assert!(parse_result(r#"{"correct":true,"attempted":1,"failed":0}"#).is_err());
    }

    #[test]
    fn drift_is_relative_to_the_first_set() {
        assert!((drift(&[100.0, 102.0, 98.0], &[95.0, 97.0, 93.0]) - 0.05).abs() < 1e-12);
        assert_eq!(drift(&[0.0], &[3.0]), 0.0);
    }
}
