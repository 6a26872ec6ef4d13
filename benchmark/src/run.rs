//! One run of one workload — what the driver invokes.
//!
//! `--trace 0` measures the end-to-end metrics with every recorder off;
//! `--trace 1` serves the same list once untraced and once with spans,
//! metrics registry and timeline on, and reports the per-layer metrics.
//! Both verify outputs afterwards and count failures against requests sent.

use crate::contract::Contract;
use crate::probes::Probes;
use crate::serve::{serve, warm_up, Pass};
use crate::stats::{median, quantile, ratio, tail};
use crate::trace::Tracer;
use crate::verify::{verify, Verdict};
use crate::workload::{digest, model_config, Backend, Workload, MODEL_SEED};
use lad_model::backend::AttentionKind;
use lad_model::transformer::Model;
use lad_obs::metrics;
use lad_serve::Request;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Where the Chrome trace goes.
    pub out_dir: PathBuf,
}

/// The driver-facing result: the last stdout line is its JSON rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// Metric name → value; exactly the contract's list for this mode.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable findings (what failed, where the trace went).
    pub notes: Vec<String>,
}

impl RunResult {
    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`
    /// with metrics in the contract's order.
    pub fn to_json(&self, contract: &Contract, traced: bool) -> String {
        let metrics: Vec<String> = contract
            .metrics(traced)
            .iter()
            .map(|m| {
                let value = self.metrics[&m.name];
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    if value.is_finite() { value } else { 0.0 },
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Model build + request generation + the fixed warm-up serve (which
/// constructs a throwaway engine); returns the seconds it took.
fn set_up(w: &Workload, seed: u64, seconds: u64) -> (Model, Vec<Request>, f64) {
    let started = Instant::now();
    let model = Model::random(model_config(), MODEL_SEED);
    let requests = w.generate(seed, seconds);
    warm_up(&model, w, &w.kind());
    (model, requests, started.elapsed().as_secs_f64())
}

/// `VmHWM` of this process, MB (0 where `/proc` is unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1e3)
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-request TTFT and time-per-output-token samples, ms.
fn latency_samples(pass: &Pass) -> (Vec<f64>, Vec<f64>) {
    let ttft = pass.report.outcomes.iter().map(|o| ms(o.ttft)).collect();
    let tpot = pass
        .report
        .outcomes
        .iter()
        .filter(|o| o.tokens.len() > 1)
        .map(|o| ms(o.e2e - o.ttft) / (o.tokens.len() - 1) as f64)
        .collect();
    (ttft, tpot)
}

/// Requests sent minus requests that retired and (where sampled) matched
/// their solo decode.
fn count_failed(requests: &[Request], pass: Option<&Pass>, verdict: &Verdict) -> usize {
    let retired = pass.map_or(0, |p| p.report.outcomes.len());
    requests.len() - retired + verdict.mismatched.len()
}

pub fn run(args: &RunArgs) -> RunResult {
    if args.traced {
        run_traced(args)
    } else {
        run_untraced(args)
    }
}

fn run_untraced(args: &RunArgs) -> RunResult {
    let w = &args.workload;
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take()); // one model resident at a time: peak RSS stays honest
        let (model, requests, secs) = set_up(w, args.seed, args.seconds);
        setups.push(secs);
        built = Some((model, requests));
    }
    let (model, requests) = built.expect("SETUP_REPEATS > 0");

    // The engine still panics on bad input: a crash is a counted failure.
    let pass = catch_unwind(AssertUnwindSafe(|| {
        serve(&model, w, &w.kind(), &requests, None)
    }))
    .ok();
    let rss = peak_rss_mb();

    let mut notes = Vec::new();
    let (tokens_per_s, (ttft, tpot), verdict) = match &pass {
        Some(pass) => {
            notes.push(format!(
                "request list digest {:016x}; served {} requests, {} tokens, {} ticks in {:.2} s; \
                 generator late by {} ticks",
                digest(&requests),
                pass.report.outcomes.len(),
                pass.generated_tokens(),
                pass.tick_ns.len(),
                pass.wall_s,
                pass.late_ticks,
            ));
            (
                ratio(pass.generated_tokens() as f64, pass.wall_s),
                latency_samples(pass),
                verify(&model, w, args.seed, &requests, &pass.report.outcomes, None),
            )
        }
        None => {
            notes.push("engine panicked: every request counted as failed".to_owned());
            (0.0, (Vec::new(), Vec::new()), Verdict::default())
        }
    };
    notes.push(format!(
        "{}; {} TTFT and {} TPOT samples",
        verdict.note(),
        ttft.len(),
        tpot.len()
    ));
    let metrics = BTreeMap::from([
        ("setup_s".to_owned(), median(&setups)),
        ("tokens_per_s".to_owned(), tokens_per_s),
        ("ttft_p50_ms".to_owned(), median(&ttft)),
        ("ttft_p90_ms".to_owned(), tail(&ttft)),
        ("tpot_p50_ms".to_owned(), median(&tpot)),
        ("tpot_p90_ms".to_owned(), tail(&tpot)),
        ("peak_rss_mb".to_owned(), rss),
    ]);

    let failed = count_failed(&requests, pass.as_ref(), &verdict);
    let late = pass.as_ref().map_or(0, |p| p.late_ticks);
    RunResult {
        correct: failed == 0 && late == 0,
        attempted: requests.len(),
        failed,
        metrics,
        notes,
    }
}

/// Everything the traced run measured, before it is turned into metrics.
struct Traced {
    untraced: Pass,
    traced: Pass,
    tracer: Tracer,
    /// `Exact` serve of the same list (LAD workloads), with the KV bytes
    /// its requests moved.
    exact: Option<(Pass, u64)>,
}

fn run_traced(args: &RunArgs) -> RunResult {
    let w = &args.workload;
    let (model, requests, _) = set_up(w, args.seed, args.seconds);

    let served = catch_unwind(AssertUnwindSafe(|| {
        let untraced = serve(&model, w, &w.kind(), &requests, None);
        let mut tracer = Tracer::start();
        let traced = serve(&model, w, &w.kind(), &requests, Some(&mut tracer));
        tracer.finish();
        let exact = (w.backend == Backend::Lad).then(|| {
            // Only the registry is on: it is what counts bytes moved.
            metrics::set_metrics_enabled(true);
            let before = metrics::snapshot().counter("serve.bytes_moved.exact");
            let pass = serve(&model, w, &AttentionKind::Exact, &requests, None);
            let bytes = metrics::snapshot().counter("serve.bytes_moved.exact") - before;
            metrics::set_metrics_enabled(false);
            (pass, bytes)
        });
        Traced {
            untraced,
            traced,
            tracer,
            exact,
        }
    }));
    // A panic may have left the recorders on.
    lad_obs::set_enabled(false);
    lad_obs::timeline::set_timeline_enabled(false);
    metrics::set_metrics_enabled(false);

    let contract = Contract::load();
    let mut notes = Vec::new();
    let Ok(t) = served else {
        notes.push("engine panicked: every request counted as failed".to_owned());
        return RunResult {
            correct: false,
            attempted: requests.len(),
            failed: requests.len(),
            metrics: contract
                .per_layer
                .iter()
                .map(|m| (m.name.clone(), 0.0))
                .collect(),
            notes,
        };
    };

    let reference: BTreeMap<u64, Vec<u32>> = t
        .exact
        .iter()
        .flat_map(|(pass, _)| &pass.report.outcomes)
        .map(|o| (o.id, o.tokens.clone()))
        .collect();
    let verdict = verify(
        &model,
        w,
        args.seed,
        &requests,
        &t.traced.report.outcomes,
        Some(&reference),
    );
    // The recorders must never change results.
    let streams = |p: &Pass| -> BTreeMap<u64, Vec<u32>> {
        p.report
            .outcomes
            .iter()
            .map(|o| (o.id, o.tokens.clone()))
            .collect()
    };
    let recorder_changed_output = streams(&t.untraced) != streams(&t.traced);
    if recorder_changed_output {
        notes.push("traced and untraced serves produced different streams".to_owned());
    }
    notes.push(verdict.note());

    let trace_path = args
        .out_dir
        .join(format!("trace_{}_seed{}.json", w.name, args.seed));
    let trace_written = match t.tracer.write_chrome_trace(&trace_path) {
        Ok(()) => {
            notes.push(format!("Chrome trace: {}", trace_path.display()));
            true
        }
        Err(e) => {
            notes.push(format!("Chrome trace not written: {e}"));
            false
        }
    };

    let metrics = layer_metrics(w, &model, &requests, &t, &verdict, &Probes::measure());
    let failed = count_failed(&requests, Some(&t.traced), &verdict);
    let coverage = metrics["obs.tick_coverage_frac"];
    if coverage < 0.95 {
        notes.push(format!("serve.tick coverage {coverage:.3} is below 0.95"));
    }
    RunResult {
        correct: failed == 0
            && t.traced.late_ticks == 0
            && !recorder_changed_output
            && trace_written
            && coverage >= 0.95
            && t.tracer.dropped == 0,
        attempted: requests.len(),
        failed,
        metrics,
        notes,
    }
}

/// Turns one traced run into the per-layer table. Shares are span time ÷
/// `serve.tick` time; bytes are computed by the program from tensor sizes.
fn layer_metrics(
    w: &Workload,
    model: &Model,
    requests: &[Request],
    t: &Traced,
    verdict: &Verdict,
    probes: &Probes,
) -> BTreeMap<String, f64> {
    let stream_gb_per_s = probes.stream_gb_per_s;
    let tr = &t.tracer;
    let pass = &t.traced;
    let report = &pass.report;
    let tick_ns = tr.span("serve.tick").ns as f64;
    let share = |name: &str| ratio(tr.span(name).ns as f64, tick_ns);
    let secs = |name: &str| tr.span(name).ns as f64 / 1e9;
    let ticks = pass.tick_ns.len() as f64;
    let rows = tr.rows() as f64;
    let steps = tr.span("batch.step").count as f64;
    let tick_ms: Vec<f64> = pass.tick_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    let step_ms: Vec<f64> = tr.step_ns.iter().map(|&ns| ns as f64 / 1e6).collect();

    let mut m = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_owned(), value);
    };

    // lad-serve
    let substeps = tr.span("serve.decode_step").count + tr.span("serve.prefill_chunk").count;
    let queue_waits: Vec<f64> = requests
        .iter()
        .filter_map(|r| Some((tr.first_admit.get(&r.id)? - r.arrival_step as u64) as f64))
        .collect();
    // Rows a solo decode of each request needs: the last token is never fed.
    let useful_rows: usize = report
        .outcomes
        .iter()
        .map(|o| requests[o.id as usize].prompt.len() + o.tokens.len() - 1)
        .sum();
    let (ttft, tpot) = latency_samples(pass);
    let within_slo = report
        .outcomes
        .iter()
        .filter(|o| {
            let tpot = ms(o.e2e - o.ttft) / (o.tokens.len().max(2) - 1) as f64;
            ms(o.ttft) <= w.slo_ttft_ms && tpot <= w.slo_tpot_ms
        })
        .count();
    put("serve.ticks", ticks);
    put("serve.substeps", substeps as f64);
    put("serve.tick_ms_p50", median(&tick_ms));
    put("serve.tick_ms_p99", quantile(&tick_ms, 0.99));
    put(
        "serve.batch_occupancy_mean",
        ratio(pass.active_sum as f64, ticks * w.max_active as f64),
    );
    put(
        "serve.queue_depth_mean",
        ratio(pass.queue_sum as f64, ticks),
    );
    put("serve.queue_wait_ticks_p50", median(&queue_waits));
    put("serve.admissions", report.admissions as f64);
    put("serve.preemptions", report.preemptions as f64);
    put("serve.idle_ticks", report.idle_steps as f64);
    put("serve.useful_row_frac", ratio(useful_rows as f64, rows));
    put("serve.prefill_share", share("serve.prefill_chunk"));
    put("serve.decode_share", share("serve.decode_step"));
    put("serve.idle_share", share("serve.idle"));
    put(
        "serve.sched_self_share",
        ratio(tick_ns - tr.span("batch.step").ns as f64, tick_ns),
    );
    put("serve.spec_accept_rate", report.spec_acceptance_rate());
    put("serve.spec_accepted_len_mean", report.mean_accepted_len());
    put("serve.spec_verify_share", share("spec.verify"));
    put(
        "serve.slo_attain_frac",
        ratio(within_slo as f64, requests.len() as f64),
    );
    put("serve.generator_late_ticks", pass.late_ticks as f64);
    put("serve.ttft_samples", ttft.len() as f64);
    put("serve.tpot_samples", tpot.len() as f64);

    // lad-model
    let gemm_secs = secs("batch.qkv_gemm")
        + secs("batch.out_gemm")
        + secs("batch.mlp_gemm")
        + secs("batch.logits_gemm");
    let weight_gb_per_s = ratio(
        model.projection_weight_bytes() as f64 * steps / 1e9,
        gemm_secs,
    );
    put("model.step_ms_p50", median(&step_ms));
    put("model.rows_per_step_mean", ratio(rows, steps));
    put("model.qkv_gemm_share", share("batch.qkv_gemm"));
    put("model.attn_share", share("batch.attn_fanout"));
    put("model.out_gemm_share", share("batch.out_gemm"));
    put("model.mlp_gemm_share", share("batch.mlp_gemm"));
    put("model.logits_gemm_share", share("batch.logits_gemm"));
    put(
        "model.prefill_rows_per_s",
        ratio(tr.prefill_substep_rows as f64, secs("serve.prefill_chunk")),
    );
    put(
        "model.decode_rows_per_s",
        ratio(tr.decode_substep_rows as f64, secs("serve.decode_step")),
    );
    put("model.weight_gb_per_s", weight_gb_per_s);
    put(
        "model.weight_roofline_frac",
        ratio(weight_gb_per_s, stream_gb_per_s),
    );

    // lad-core
    let kv_bytes = tr.counters_with_prefix("serve.bytes_moved.") as f64;
    let kv_gb_per_s = ratio(kv_bytes / 1e9, secs("batch.attn_fanout"));
    put(
        "core.kv_read_share",
        ratio(tr.spans_with_prefix("kernel.kv_read_").ns as f64, tick_ns),
    );
    put("core.kv_bytes_per_row", ratio(kv_bytes, rows));
    put("core.kv_gb_per_s", kv_gb_per_s);
    put("core.kv_roofline_frac", ratio(kv_gb_per_s, stream_gb_per_s));
    put("lad.identify_share", share("lad.identify"));
    put("lad.mode_eval_share", share("lad.mode_eval"));
    put("lad.correct_share", share("lad.correct"));
    put("lad.window_share", share("lad.window"));
    put("lad.mode_update_share", share("lad.mode_update"));
    // Both 0 where no paired exact serve ran (non-LAD workloads).
    let (bytes_ratio, speedup) = t.exact.as_ref().map_or((0.0, 0.0), |(exact, bytes)| {
        (
            ratio(kv_bytes, *bytes as f64),
            ratio(
                ratio(t.untraced.generated_tokens() as f64, t.untraced.wall_s),
                ratio(exact.generated_tokens() as f64, exact.wall_s),
            ),
        )
    });
    put("lad.bytes_ratio_vs_exact", bytes_ratio);
    put("lad.speedup_vs_exact", speedup);
    put(
        "pool.tasks_executed",
        tr.counter("pool.tasks_executed") as f64,
    );
    put("pool.tasks_stolen", tr.counter("pool.tasks_stolen") as f64);
    put("pool.park_ms", tr.counter("pool.park_nanos") as f64 / 1e6);

    // lad-math
    let gemm = tr.spans_with_prefix("kernel.gemm_");
    let block_params =
        (model.projection_weight_bytes() / 4 - model.config().vocab * model.config().hidden) as f64;
    put("math.gemm_share", ratio(gemm.ns as f64, tick_ns));
    put("math.gemm_calls", gemm.count as f64);
    put(
        "math.gemm_gflops",
        ratio(2.0 * rows * block_params, gemm.ns as f64),
    );

    // lad-accel
    let accel = probes.accel;
    put(
        "kv.blocks_used_peak_frac",
        ratio(tr.blocks_used_peak as f64, tr.blocks_total as f64),
    );
    put(
        "kv.blocks_reclaimed",
        tr.counter("kv.blocks_reclaimed") as f64,
    );
    put("kv.fragmentation_mb_mean", tr.fragmentation_mb_mean());
    put("kv.dead_tokens_peak", tr.dead_tokens_peak as f64);
    put("accel.attn_speedup_g2", accel.attn_speedup_g2);
    put("accel.e2e_speedup_g2", accel.e2e_speedup_g2);
    put("accel.sim_host_ms", accel.host_ms);

    // lad-obs
    let untraced_secs = t.untraced.tick_seconds();
    put(
        "obs.overhead_pct",
        100.0 * ratio(pass.tick_seconds() - untraced_secs, untraced_secs),
    );
    put("obs.dropped_events", tr.dropped as f64);
    put(
        "obs.tick_coverage_frac",
        ratio(tr.tick_children_ns as f64, tick_ns),
    );

    // host and fixed-shape probes
    let lad = probes.lad;
    put("host.cores", probes.cores as f64);
    put("host.stream_gb_per_s", stream_gb_per_s);
    put("probe.gemm_m1_gflops", probes.gemm_m1_gflops);
    put("probe.gemm_m8_gflops", probes.gemm_m8_gflops);
    put("probe.step_ms_n1024_exact", lad.step_ms_exact);
    put("probe.step_ms_n1024_lad", lad.step_ms_lad);
    put("probe.lad_active_frac_n1024", lad.active_frac);
    put("probe.lad_hit_ratio_n1024", lad.hit_ratio);
    put("probe.lad_bytes_ratio_n1024", lad.bytes_ratio);
    put("probe.blockpool_mops", probes.blockpool_mops);
    put("probe.fanout_speedup_p2", probes.fanout_speedup_p2);

    put(
        "quality.token_match_frac",
        verdict.token_match_frac.unwrap_or(0.0),
    );
    m
}
