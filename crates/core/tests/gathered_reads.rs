//! The LAD step's gathered KV reads on scattered position lists.
//!
//! On random-weight transformers every key is its own directional center,
//! so each list the decoder gathers (centers, window) is a contiguous run.
//! These streams draw keys from a few directions, so there are few centers,
//! most scores are center estimates, and the large-mode (EAS.3) and
//! correction lists are scattered over the history. Each stream is decoded
//! under the scalar and the SIMD kernels; outputs, `StepStats` and the KV
//! traffic meter must agree exactly, and a checkpoint/restore replay must
//! repeat the SIMD run bit for bit.

use lad_core::decoder::{LadAttention, LadConfig, StepOutput};
use lad_core::kv;
use lad_math::pwl::PwlExp;
use lad_math::{with_kernel, Kernel, Rng};

/// Head dimension: `d % 8 == 2` and `d % 4 == 2`, so both kernels' element
/// and column tails run.
const D: usize = 18;
const STEPS: usize = 640;

type Qkv = (Vec<f32>, Vec<f32>, Vec<f32>);

/// Keys from six directions with ±5 % norm jitter and a little off-axis
/// noise (collinear well past the 0.98 threshold); queries lean on
/// direction 0 with per-step noise, so intervals drift and positions go
/// active.
fn clustered_stream(seed: u64) -> Vec<Qkv> {
    let mut rng = Rng::new(seed);
    let dirs: Vec<Vec<f32>> = (0..6).map(|_| rng.normal_vec(D, 1.0)).collect();
    (0..STEPS)
        .map(|_| {
            let dir = &dirs[rng.next_below(6) as usize];
            let gain = 1.0 + 0.1 * (rng.next_f32() - 0.5);
            let k: Vec<f32> = dir
                .iter()
                .map(|&x| x * gain + 0.002 * rng.normal() as f32)
                .collect();
            let q: Vec<f32> = dirs[0]
                .iter()
                .map(|&x| 2.0 * x + rng.normal() as f32)
                .collect();
            (q, k, rng.normal_vec(D, 1.0))
        })
        .collect()
}

/// One high key, then keys anti-aligned with the query on a coarse
/// two-interval partition whose fit goes negative far from the max: the
/// PWL denominator degenerates after positions have aged into the caches.
fn den_fallback_stream(seed: u64) -> Vec<Qkv> {
    let mut rng = Rng::new(seed);
    let mut axis = [0.0f32; D];
    axis[0] = 1.0;
    (0..STEPS)
        .map(|i| {
            let along = if i == 0 {
                30.0
            } else {
                -6.0 * (1.0 + 0.01 * rng.next_f32())
            };
            let k: Vec<f32> = axis
                .iter()
                .map(|&x| along * x + 0.01 * rng.normal() as f32)
                .collect();
            let q: Vec<f32> = axis.iter().map(|&x| 10.0 * x).collect();
            (q, k, rng.normal_vec(D, 1.0))
        })
        .collect()
}

/// Decodes `inputs` under `kernel`: the step outputs and the KV bytes the
/// thread's traffic meter saw.
fn decode(cfg: &LadConfig, inputs: &[Qkv], kernel: Kernel) -> (Vec<StepOutput>, u64) {
    with_kernel(kernel, || {
        let mut head = LadAttention::new(D, cfg.clone());
        kv::reset_traffic_bytes();
        let outs = inputs.iter().map(|(q, k, v)| head.step(q, k, v)).collect();
        (outs, kv::traffic_bytes())
    })
}

/// Scalar and SIMD decodes agree exactly, the meter matches the stats, and
/// a restore to mid-stream replays the SIMD tail bit for bit.
fn assert_kernels_agree(cfg: &LadConfig, inputs: &[Qkv]) -> Vec<StepOutput> {
    let (scalar, scalar_bytes) = decode(cfg, inputs, Kernel::Scalar);
    let (simd, simd_bytes) = decode(cfg, inputs, Kernel::Simd);
    for (step, (a, b)) in scalar.iter().zip(&simd).enumerate() {
        assert_eq!(a, b, "step {step}: scalar and SIMD decodes diverged");
    }
    assert_eq!(scalar_bytes, simd_bytes, "traffic meter differs by kernel");
    let stats_bytes: usize = simd.iter().map(|o| o.stats.bytes_moved).sum();
    assert_eq!(simd_bytes, stats_bytes as u64, "meter != StepStats bytes");

    let split = STEPS / 2;
    let replay = with_kernel(Kernel::Simd, || {
        let mut head = LadAttention::new(D, cfg.clone());
        for (q, k, v) in &inputs[..split] {
            head.step(q, k, v);
        }
        let ck = head.checkpoint();
        for (q, k, v) in &inputs[split..split + 40] {
            head.step(q, k, v);
        }
        head.restore(&ck);
        inputs[split..]
            .iter()
            .map(|(q, k, v)| head.step(q, k, v))
            .collect::<Vec<_>>()
    });
    assert!(replay == simd[split..], "restore + replay diverged");
    simd
}

#[test]
fn scattered_gathers_match_scalar_on_clustered_keys() {
    let outs = assert_kernels_agree(&LadConfig::default(), &clustered_stream(0x6a7e));
    let last = &outs.last().expect("non-empty stream").stats;
    assert!(
        last.centers <= 12,
        "{} centers: keys not clustered",
        last.centers
    );
    let sum = |f: fn(&StepOutput) -> usize| outs.iter().map(f).sum::<usize>();
    assert!(sum(|o| o.stats.large_mode_exact) > 0, "EAS.3 never ran");
    assert!(sum(|o| o.stats.active) > 0, "no position went active");
    assert!(sum(|o| o.stats.mode_updates) > 0, "no mode changed");
}

#[test]
fn den_fallback_matches_scalar_with_cached_positions() {
    let cfg = LadConfig {
        window: 3,
        ..LadConfig::new(PwlExp::with_boundaries(&[-100.0, 0.0]).expect("valid partition"))
    };
    let outs = assert_kernels_agree(&cfg, &den_fallback_stream(0xfa11));
    let late_fallbacks: usize = outs[8..].iter().map(|o| o.stats.den_fallbacks).sum();
    assert!(late_fallbacks > 0, "denominator never degenerated");
}
