//! `lad-ledger` — the repo's serving benchmark (see `benchmark/README.md`).
//!
//! Two modes share one binary:
//!
//! * **driver mode** (`--trace 0|1` given): one run of one workload; the
//!   last stdout line is the JSON result `BENCHMARK.json`'s contract asks
//!   for;
//! * **ledger mode** (no `--trace`): every workload, repeats interleaved,
//!   then one traced run each — every metric printed by name with its unit.

mod contract;
mod ledger;
mod probes;
mod run;
mod serve;
mod stats;
mod trace;
mod verify;
mod workload;

use contract::Contract;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: run.sh [--workload <name>] [--seed <n>] [--seconds <n>]
  driver mode:  --trace <0|1>      one run; last stdout line is the JSON result
  ledger mode:  [--repeats <n>] [--trace-only] [--json <path>] [--quick] [--selfcheck]";

#[derive(Debug, Default)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<bool>,
    repeats: Option<usize>,
    trace_only: bool,
    json: Option<PathBuf>,
    quick: bool,
    selfcheck: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: `{text}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = Some(number(value()?)?),
            "--seconds" => cli.seconds = Some(number(value()?)?.clamp(1, 600)),
            "--repeats" => cli.repeats = Some(number(value()?)?.clamp(1, 100) as usize),
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--json" => cli.json = Some(PathBuf::from(value()?)),
            "--trace-only" => cli.trace_only = true,
            "--quick" => cli.quick = true,
            "--selfcheck" => cli.selfcheck = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(name) = &cli.workload {
        if workload::by_name(name).is_none() {
            return Err(format!("unknown workload `{name}`"));
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}\nworkloads: {}", workload::NAMES.join(" "));
            return ExitCode::from(2);
        }
    };
    let contract = Contract::load();
    let seed = cli.seed.unwrap_or(1);

    if let Some(traced) = cli.trace {
        let Some(w) = cli.workload.as_deref().and_then(workload::by_name) else {
            eprintln!("--trace needs --workload\n{USAGE}");
            return ExitCode::from(2);
        };
        let run_args = run::RunArgs {
            workload: w,
            seed,
            seconds: cli.seconds.unwrap_or(contract.run_seconds),
            traced,
            out_dir: PathBuf::from("benchmark/out"),
        };
        let result = run::run(&run_args);
        println!(
            "{} seed {} seconds {} trace {}",
            run_args.workload.name, seed, run_args.seconds, traced as u8
        );
        for note in &result.notes {
            println!("  {note}");
        }
        println!(
            "  requests sent {}  succeeded {}  failed {}",
            result.attempted,
            result.attempted - result.failed,
            result.failed
        );
        for m in contract.metrics(traced) {
            println!(
                "  {:<30} {:>14.4} {}",
                m.name, result.metrics[&m.name], m.unit
            );
        }
        println!("{}", result.to_json(&contract, traced));
        return ExitCode::SUCCESS;
    }

    let seconds = match (cli.seconds, cli.quick) {
        (Some(s), _) => s,
        (None, true) => (contract.run_seconds / 8).max(1),
        (None, false) => contract.run_seconds,
    };
    let ledger_args = ledger::LedgerArgs {
        workloads: match cli.workload {
            Some(w) => vec![w],
            None => contract.workloads.clone(),
        },
        seed,
        seconds,
        repeats: cli.repeats.unwrap_or(if cli.quick { 1 } else { 3 }),
        trace_only: cli.trace_only,
        json: cli.json,
        quick: cli.quick,
        selfcheck: cli.selfcheck && !cli.quick,
    };
    match ledger::run(&ledger_args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let cli = parse_cli(&strings(&[
            "--workload",
            "chat_short",
            "--seed",
            "7",
            "--seconds",
            "16",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("chat_short"));
        assert_eq!(
            (cli.seed, cli.seconds, cli.trace),
            (Some(7), Some(16), Some(true))
        );
        assert!(parse_cli(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_cli(&strings(&["--trace", "2"])).is_err());
        assert!(parse_cli(&strings(&["--seed"])).is_err());
        assert!(parse_cli(&strings(&["--frobnicate"])).is_err());
    }

    /// Every metric a run prints is declared in `BENCHMARK.json` with a
    /// legal name, and every declared metric is printed — in both modes.
    #[test]
    fn runner_output_and_contract_list_the_same_metrics() {
        let contract = Contract::load();
        for (traced, workload) in [(false, "chat_short"), (true, "mixed_pressure")] {
            let result = run::run(&run::RunArgs {
                workload: workload::by_name(workload).unwrap(),
                seed: 1,
                seconds: 1,
                traced,
                out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out/test")),
            });
            let printed: BTreeSet<&str> = result.metrics.keys().map(String::as_str).collect();
            let declared: BTreeSet<&str> = contract
                .metrics(traced)
                .iter()
                .map(|m| m.name.as_str())
                .collect();
            assert_eq!(printed, declared, "trace {traced}");
            for name in &printed {
                assert!(
                    name.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{name}"
                );
            }
            assert!(result.correct, "{:?}", result.notes);
            assert_eq!(result.failed, 0);
            let line = result.to_json(&contract, traced);
            assert!(lad_obs::json::parse(&line).is_ok(), "{line}");
            if traced {
                let m = &result.metrics;
                let covered =
                    m["serve.prefill_share"] + m["serve.decode_share"] + m["serve.idle_share"];
                assert!(covered >= 0.95, "share table sums to {covered}");
                assert!(m["obs.tick_coverage_frac"] >= 0.95);
            }
        }
    }
}
