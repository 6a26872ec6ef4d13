//! Hardware pipeline: serve one attention head with the LAD decoder and
//! price each decode row through the tile's compute stages (EAS → APID →
//! MD → AC, paper Sec. IV-B, Eq. 7), then show the Fig. 6 end-to-end
//! schedule of a full decode step.
//!
//! ```sh
//! cargo run --release --example hardware_pipeline
//! ```

use lad::accel::config::AccelConfig;
use lad::accel::pipeline::stage_cycles;
use lad::accel::schedule::{simulate_step, PeriodKind};
use lad::accel::workload::workload_stats;
use lad::core::decoder::{LadAttention, LadConfig};
use lad::core::kv::KvCache;
use lad::core::reference;
use lad::core::stats::StatsSummary;
use lad::math::{vector, Rng};
use lad::model::config::ModelConfig;

fn main() {
    // -- Part 1: Eq. 7 stage latencies of each decode row.
    println!("== Eq. 7 stage latencies of a LAD head (EAS -> APID -> MD -> AC) ==\n");
    let d = 32;
    let prompt_rows = 32;
    let cfg = AccelConfig::lad_2_5();
    let mut head = LadAttention::new(d, LadConfig::default());
    let mut shadow = KvCache::new(d);
    let mut rng = Rng::new(0xacce1);
    let dirs: Vec<Vec<f32>> = (0..6).map(|_| rng.normal_vec(d, 1.0)).collect();
    let mut q = rng.normal_vec(d, 1.0);
    let mut worst = 0.0f32;
    for row in 0..160 {
        for slot in q.iter_mut() {
            *slot = 0.99 * *slot + 0.1 * rng.normal() as f32;
        }
        let mut k: Vec<f32> = dirs[row % 6]
            .iter()
            .map(|&x| x * (0.8 + 0.4 * rng.next_f32()))
            .collect();
        for slot in k.iter_mut() {
            *slot += 0.03 * rng.normal() as f32;
        }
        let v = rng.normal_vec(d, 1.0);
        shadow.push(&k, &v);
        // Prompt rows are exact; LAD runs from the first generated token.
        let out = if row < prompt_rows {
            head.prompt_row(&q, &k, &v)
        } else {
            head.step(&q, &k, &v)
        };
        let exact = reference::exact_attention(&q, &shadow);
        let err = vector::relative_l2(&out.output, &exact);
        worst = worst.max(err);
        if row >= prompt_rows && (row + 1) % 32 == 0 {
            let s = out.stats;
            let c = stage_cycles(&cfg, s.n, d, &StatsSummary::from_steps([&s]));
            println!(
                "row {:>3}: n={:<3} |C|={:<2} |J|={:<3} |U|={} cycles EAS {:.1} / APID {:.1} / \
                 MD {:.1} / AC {:.1} (bottleneck {:.1}), error {err:.4}",
                row + 1,
                s.n,
                s.centers,
                s.active,
                s.mode_updates,
                c.eas,
                c.apid,
                c.md,
                c.ac,
                c.bottleneck()
            );
        }
    }
    println!("\nworst relative error vs exact attention: {worst:.4}");
    assert!(worst < 0.05, "LAD drifted from exact attention: {worst}");

    // -- Part 2: the Fig. 6 schedule of one decode step.
    println!("\n== end-to-end schedule of one decode step (LLaMA2-7B, n=2048, batch 8) ==\n");
    let model = ModelConfig::llama2_7b();
    let stats = workload_stats(2048, 1);
    let timeline = simulate_step(&AccelConfig::lad_2_5(), &model, 2048, &stats, 8);
    for p in timeline.periods.iter().take(6) {
        println!(
            "layer {:>2} {:<9} {:>8.2} us -> {:>8.2} us  ({:>6.1} KB HBM)",
            p.layer,
            match p.kind {
                PeriodKind::Qkv => "QKV",
                PeriodKind::Attention => "attention",
                PeriodKind::Rest => "rest",
            },
            p.start * 1e6,
            p.end * 1e6,
            p.hbm_bytes / 1024.0
        );
    }
    println!("... ({} periods total)", timeline.periods.len());
    println!(
        "\nstep latency {:.2} ms, attention share {:.1}%, prefetched {:.1} MB under QKV periods",
        timeline.total_seconds * 1e3,
        timeline.attention_share() * 100.0,
        timeline.prefetch_bytes / 1e6
    );
}
