//! Cross-crate integration: real transformer QKV streams drive the error
//! audit (paper Sec. III-F) and the tile's Eq. 7 pricing (Sec. IV-C) — the
//! closest offline analogue of running LAD against real model traffic.

use lad::accel::config::AccelConfig;
use lad::accel::pipeline::{stage_cycles, StageCycles};
use lad::core::audit::audit_stream;
use lad::core::decoder::{LadAttention, LadConfig};
use lad::core::kv::KvCache;
use lad::core::reference;
use lad::core::stats::StatsSummary;
use lad::math::pwl::PwlExp;
use lad::math::vector;
use lad::model::backend::AttentionKind;
use lad::model::config::ModelConfig;
use lad::model::transformer::{Model, Session};

/// Prompt rows at the head of every recorded stream.
const PROMPT_ROWS: usize = 32;

/// Decodes a prompt with QKV recording on, returning every head's stream.
fn real_streams(steps: usize) -> Vec<lad::core::QkvStream> {
    let model = Model::random(ModelConfig::tiny("streams", 2, 64, 4), 4242);
    let mut session = Session::new(&model, &AttentionKind::Exact);
    session.record_qkv();
    let prompt: Vec<u32> = (0..PROMPT_ROWS as u32)
        .map(|i| (i * 17 + 11) % 256)
        .collect();
    session.generate_greedy(&prompt, steps.saturating_sub(PROMPT_ROWS));
    session.qkv_streams().expect("recording enabled").to_vec()
}

#[test]
fn audit_on_real_transformer_streams() {
    let streams = real_streams(96);
    let cfg = LadConfig::new(PwlExp::accurate_default());
    let mut worst_output_error = 0.0f64;
    for stream in streams.iter().take(3) {
        let report = audit_stream(&cfg, stream);
        assert_eq!(report.steps, stream.len());
        // The PWL floor stays tiny on real streams.
        assert!(
            report.mean_pwl_error < 0.02,
            "pwl floor {}",
            report.mean_pwl_error
        );
        worst_output_error = worst_output_error.max(report.mean_output_error);
        // False positives are harmless and false negatives bounded.
        assert!(
            report.false_negative_rate() < 0.25,
            "fn rate {} on real stream",
            report.false_negative_rate()
        );
    }
    assert!(
        worst_output_error < 0.2,
        "worst mean output error {worst_output_error}"
    );
}

#[test]
fn stage_cycles_on_real_transformer_streams() {
    // A real head served by LAD (exact prompt rows, then decode rows), each
    // decode row priced through Eq. 7 from its own `StepStats`.
    let streams = real_streams(80);
    let stream = &streams[0];
    let d = stream[0].0.len();
    let cfg = AccelConfig::lad_2_5();
    let mut head = LadAttention::new(d, LadConfig::default());
    let mut shadow = KvCache::new(d);
    let mut rows = Vec::new();
    let mut worst = 0.0f32;
    for (i, (q, k, v)) in stream.iter().enumerate() {
        shadow.push(k, v);
        let out = if i < PROMPT_ROWS {
            head.prompt_row(q, k, v)
        } else {
            head.step(q, k, v)
        };
        let exact = reference::exact_attention(q, &shadow);
        worst = worst.max(vector::relative_l2(&out.output, &exact));
        if i >= PROMPT_ROWS {
            rows.push(out.stats);
        }
    }
    assert!(worst < 0.25, "LAD worst error {worst} on real stream");

    // An odd run of consecutive rows, so the mean n is an integer.
    let rows = &rows[..(rows.len() - 1) | 1];
    assert!(rows.len() >= 15, "only {} decode rows", rows.len());
    let terms = |c: StageCycles| [c.eas, c.apid, c.md, c.ac];
    let mut mean = [0.0f64; 4];
    for s in rows {
        let c = stage_cycles(&cfg, s.n, d, &StatsSummary::from_steps([s]));
        assert_eq!(c.apid, s.n as f64 / 12.0);
        // The active FIFO: corrections plus 16 window positions and the one
        // ageing in.
        assert_eq!(c.md, (s.active + 17) as f64 / 2.0);
        for (sum, term) in mean.iter_mut().zip(terms(c)) {
            *sum += term / rows.len() as f64;
        }
    }
    let mean_n = rows.iter().map(|s| s.n).sum::<usize>() / rows.len();
    assert_eq!(mean_n, (rows[0].n + rows[rows.len() - 1].n) / 2);
    // Every term is linear in the counts: the mean of the per-row terms is
    // the summary's term at the mean n.
    let summary = stage_cycles(&cfg, mean_n, d, &StatsSummary::from_steps(rows));
    for (name, (got, want)) in ["eas", "apid", "md", "ac"]
        .into_iter()
        .zip(mean.into_iter().zip(terms(summary)))
    {
        assert!(
            (got - want).abs() <= 1e-9 * want.abs(),
            "{name}: mean of rows {got} vs summary {want}"
        );
    }
}

#[test]
fn streaming_window_baseline_degrades_on_long_contexts() {
    // Sanity for the window baseline: an H2O budget with no heavy hitters is
    // a rolling window, which loses information it has scrolled past,
    // unlike LAD.
    let model = Model::random(ModelConfig::tiny("window", 2, 48, 4), 77);
    let prompt: Vec<u32> = (0..64).map(|i| (i * 13 + 7) % 256).collect();
    let mut exact = Session::new(&model, &AttentionKind::Exact);
    let reference_tokens = exact.generate_greedy(&prompt, 48);

    let mut tight = Session::new(&model, &AttentionKind::h2o_budget(0, 16));
    let tight_tokens = tight.generate_greedy(&prompt, 48);
    let tight_agree = reference_tokens
        .iter()
        .zip(&tight_tokens)
        .filter(|(a, b)| a == b)
        .count();

    let mut lad = Session::new(&model, &AttentionKind::Lad(LadConfig::default()));
    let lad_tokens = lad.generate_greedy(&prompt, 48);
    let lad_agree = reference_tokens
        .iter()
        .zip(&lad_tokens)
        .filter(|(a, b)| a == b)
        .count();

    assert!(
        lad_agree >= tight_agree,
        "LAD ({lad_agree}/48) should track the original at least as well as \
         a 16-token window ({tight_agree}/48)"
    );
    assert!(lad_agree >= 40, "LAD agreement {lad_agree}/48");
}
