//! Serving differential harness: continuous batching vs solo decoding.
//!
//! The serving engine's tentpole invariant extends the repo's scheduling
//! contract to dynamic membership: whatever the admission pattern —
//! staggered joins, mid-flight retirement through ragged `max_tokens`,
//! recompute preemption under pool pressure, EOS truncation — every
//! request's generated token stream must be **bit-identical** to decoding
//! that request alone in a solo [`lad::model::transformer::Session`] with
//! the same attention backend.
//!
//! The grid sweeps {attention kind × batch budget × prefill chunk × pool
//! size × arrival pattern}; at least one grid point uses a pool small
//! enough that preemption *must* occur, and the harness asserts it did.
//!
//! Interpreting a mismatch: see `tests/README.md`.

use lad::core::decoder::LadConfig;
use lad::math::pwl::PwlExp;
use lad::model::backend::AttentionKind;
use lad::model::config::ModelConfig;
use lad::model::spec::{Drafter, SpecConfig};
use lad::model::transformer::{Model, Session};
use lad::serve::{Engine, Request, ServeConfig, ServeReport};
use lad_accel::paged::{BlockPool, BLOCK_TOKENS};

/// One request of a grid point: (id, prompt length, max_tokens, arrival).
type Spec = (u64, usize, usize, usize);

/// Which attention backend a grid point serves with.
#[derive(Clone, Copy)]
enum GridBackend {
    Exact,
    Lad,
    TopK,
    H2o,
}

/// One grid point of the serving sweep.
struct ServeGrid {
    label: &'static str,
    backend: GridBackend,
    model_seed: u64,
    /// KV pool capacity in blocks.
    pool_blocks: usize,
    max_active: usize,
    prefill_chunk: usize,
    specs: &'static [Spec],
    /// Request ids that opt into speculative decoding (recency drafter,
    /// K = 4); everything else decodes plainly in the same ticks.
    spec_ids: &'static [u64],
    /// This grid point must preempt at least once.
    expect_preemption: bool,
}

impl ServeGrid {
    fn model(&self) -> Model {
        Model::random(ModelConfig::tiny("serve-diff", 2, 32, 2), self.model_seed)
    }

    fn kind(&self) -> AttentionKind {
        match self.backend {
            GridBackend::Exact => AttentionKind::Exact,
            GridBackend::Lad => AttentionKind::Lad(LadConfig {
                window: 8,
                ..LadConfig::new(PwlExp::accurate_default())
            }),
            GridBackend::TopK => AttentionKind::topk(6),
            GridBackend::H2o => AttentionKind::h2o_budget(10, 4),
        }
    }

    fn pool(&self) -> BlockPool {
        let cfg = ModelConfig::tiny("serve-diff", 2, 32, 2);
        let block_bytes = cfg.layers * 2 * cfg.hidden * 2 * BLOCK_TOKENS;
        BlockPool::new(&cfg, self.pool_blocks * block_bytes)
    }

    fn cfg(&self) -> ServeConfig {
        ServeConfig {
            max_active: self.max_active,
            prefill_chunk: self.prefill_chunk,
            eos: None,
            parallelism: 1,
            ..ServeConfig::default()
        }
    }

    fn prompt(&self, id: u64, len: usize) -> Vec<u32> {
        (0..len)
            .map(|i| ((i as u64 * 37 + self.model_seed + id * 13) % 256) as u32)
            .collect()
    }
}

/// Solo greedy reference for one request, truncated after the first EOS
/// (inclusive) the way the engine retires.
fn solo(
    model: &Model,
    kind: &AttentionKind,
    prompt: &[u32],
    max: usize,
    eos: Option<u32>,
) -> Vec<u32> {
    let mut session = Session::new(model, kind);
    let full = session.generate_greedy(prompt, max);
    match eos.and_then(|e| full.iter().position(|&t| t == e)) {
        Some(at) => full[..=at].to_vec(),
        None => full,
    }
}

fn assert_streams_match(g: &ServeGrid, model: &Model, report: &ServeReport) {
    assert_eq!(
        report.outcomes.len(),
        g.specs.len(),
        "{}: not every request retired",
        g.label
    );
    let kind = g.kind();
    for &(id, plen, max, _) in g.specs {
        let got = &report
            .outcomes
            .iter()
            .find(|o| o.id == id)
            .unwrap_or_else(|| panic!("{}: request {id} missing", g.label))
            .tokens;
        let want = solo(model, &kind, &g.prompt(id, plen), max, None);
        assert_eq!(
            got, &want,
            "{}: request {id} token stream diverged from solo decode",
            g.label
        );
    }
}

fn build_request(g: &ServeGrid, id: u64, plen: usize, max: usize, at: usize) -> Request {
    let req = Request::new(id, g.prompt(id, plen), max).arriving_at(at);
    if g.spec_ids.contains(&id) {
        req.with_speculation(SpecConfig::recency(4))
    } else {
        req
    }
}

/// Serves the grid point on the continuous engine, checks every stream
/// against its solo decode, and returns the report.
fn run_grid_point(g: &ServeGrid) -> ServeReport {
    let model = g.model();
    let kind = g.kind();

    let mut engine = Engine::new(&model, &kind, g.pool(), g.cfg());
    for &(id, plen, max, at) in g.specs {
        engine.submit(build_request(g, id, plen, max, at));
    }
    let report = engine.run();
    assert_streams_match(g, &model, &report);
    if g.expect_preemption {
        assert!(
            report.preemptions >= 1,
            "{}: grid point engineered for preemption never preempted",
            g.label
        );
    } else {
        assert_eq!(report.preemptions, 0, "{}: unexpected preemption", g.label);
    }
    if g.spec_ids.is_empty() {
        assert_eq!(
            report.accepted_len.count(),
            0,
            "{}: verify rounds recorded without speculative requests",
            g.label
        );
    } else {
        assert!(
            report.accepted_len.count() > 0,
            "{}: speculative requests never ran a verify round",
            g.label
        );
        assert!(
            report.spec_accepted <= report.spec_drafted,
            "{}: accepted more than was drafted",
            g.label
        );
    }

    report
}

/// Ragged max_tokens at a shared arrival: members retire mid-flight and the
/// engine back-fills the freed slots from the queue.
static RAGGED: &[Spec] = &[(0, 9, 14, 0), (1, 5, 6, 0), (2, 12, 10, 0), (3, 7, 18, 0)];

/// Staggered arrivals with gaps: admission happens mid-flight and the
/// engine idles between waves.
static STAGGERED: &[Spec] = &[(0, 8, 10, 0), (1, 6, 8, 3), (2, 10, 6, 3), (3, 5, 12, 9)];

/// Two long decodes against a three-block pool: the pool must run dry and
/// evict the youngest (recompute preemption), then still finish bit-exact.
static PRESSURE: &[Spec] = &[(0, 8, 24, 0), (1, 8, 24, 0)];

/// Speculative pressure: 12-token prompts leave only 4 tokens of slack in
/// the first block, so both speculating requests must claim a second block
/// a few verify rounds into decode — one of them finds the pool dry there.
static SPEC_PRESSURE: &[Spec] = &[(0, 12, 24, 0), (1, 12, 24, 0)];

#[test]
fn serving_differential_exact_ragged_retirement() {
    run_grid_point(&ServeGrid {
        label: "exact-ragged",
        backend: GridBackend::Exact,
        model_seed: 71,
        pool_blocks: 64,
        max_active: 2,
        prefill_chunk: 1,
        specs: RAGGED,
        spec_ids: &[],
        expect_preemption: false,
    });
}

#[test]
fn serving_differential_exact_staggered_chunked_prefill() {
    run_grid_point(&ServeGrid {
        label: "exact-staggered",
        backend: GridBackend::Exact,
        model_seed: 11,
        pool_blocks: 64,
        max_active: 3,
        prefill_chunk: 4,
        specs: STAGGERED,
        spec_ids: &[],
        expect_preemption: false,
    });
}

#[test]
fn serving_differential_exact_forced_preemption() {
    run_grid_point(&ServeGrid {
        label: "exact-preempt",
        backend: GridBackend::Exact,
        model_seed: 71,
        pool_blocks: 3,
        max_active: 2,
        prefill_chunk: 1,
        specs: PRESSURE,
        spec_ids: &[],
        expect_preemption: true,
    });
}

#[test]
fn serving_differential_lad_staggered() {
    run_grid_point(&ServeGrid {
        label: "lad-staggered",
        backend: GridBackend::Lad,
        model_seed: 29,
        pool_blocks: 64,
        max_active: 3,
        prefill_chunk: 2,
        specs: STAGGERED,
        spec_ids: &[],
        expect_preemption: false,
    });
}

#[test]
fn serving_differential_lad_forced_preemption() {
    run_grid_point(&ServeGrid {
        label: "lad-preempt",
        backend: GridBackend::Lad,
        model_seed: 71,
        pool_blocks: 3,
        max_active: 2,
        prefill_chunk: 1,
        specs: PRESSURE,
        spec_ids: &[],
        expect_preemption: true,
    });
}

/// Mixed-mode leg: speculative and plain requests share every tick — the
/// speculative ones contribute multi-row verify runs to the same GEMM
/// steps the plain ones ride — and each stream must still match its solo
/// decode exactly.
#[test]
fn serving_differential_mixed_speculative_and_plain() {
    run_grid_point(&ServeGrid {
        label: "exact-mixed-spec",
        backend: GridBackend::Exact,
        model_seed: 71,
        pool_blocks: 64,
        max_active: 3,
        prefill_chunk: 2,
        specs: RAGGED,
        spec_ids: &[0, 2],
        expect_preemption: false,
    });
}

/// Mixed-mode leg under the LAD backend: verify rounds roll LAD's mode
/// tracker, center book and intermediate caches back through checkpoints,
/// which must be invisible in the streams.
#[test]
fn serving_differential_lad_mixed_speculative() {
    run_grid_point(&ServeGrid {
        label: "lad-mixed-spec",
        backend: GridBackend::Lad,
        model_seed: 29,
        pool_blocks: 64,
        max_active: 3,
        prefill_chunk: 2,
        specs: STAGGERED,
        spec_ids: &[1, 3],
        expect_preemption: false,
    });
}

/// Speculative pressure leg: two speculating requests against a three-block
/// pool. Both must cross the 16-token block boundary a few tokens into
/// decode, so whichever crosses second is preempted *mid-speculation* —
/// draft rows reserved, drafter table populated — and recomputed. The
/// recovered streams must still be bit-identical to solo decode.
#[test]
fn serving_differential_speculative_forced_preemption() {
    run_grid_point(&ServeGrid {
        label: "exact-spec-preempt",
        backend: GridBackend::Exact,
        model_seed: 71,
        pool_blocks: 3,
        max_active: 2,
        prefill_chunk: 1,
        specs: SPEC_PRESSURE,
        spec_ids: &[0, 1],
        expect_preemption: true,
    });
}

/// Top-k sparse attention under staggered arrivals and chunked prefill:
/// the per-step top-k selection must be oblivious to scheduling.
#[test]
fn serving_differential_topk_staggered() {
    run_grid_point(&ServeGrid {
        label: "topk-staggered",
        backend: GridBackend::TopK,
        model_seed: 29,
        pool_blocks: 64,
        max_active: 3,
        prefill_chunk: 2,
        specs: STAGGERED,
        spec_ids: &[],
        expect_preemption: false,
    });
}

/// Top-k never evicts KV, so it hits pool pressure exactly like exact
/// attention: the youngest request is recomputed and its per-step
/// selections must replay identically from the folded prompt.
#[test]
fn serving_differential_topk_forced_preemption() {
    run_grid_point(&ServeGrid {
        label: "topk-preempt",
        backend: GridBackend::TopK,
        model_seed: 71,
        pool_blocks: 3,
        max_active: 2,
        prefill_chunk: 1,
        specs: PRESSURE,
        spec_ids: &[],
        expect_preemption: true,
    });
}

/// H2O heavy-hitter eviction under staggered arrivals: accumulated
/// attention scores (and therefore eviction picks) depend only on the
/// request's own stream, never on batch membership.
#[test]
fn serving_differential_h2o_staggered() {
    run_grid_point(&ServeGrid {
        label: "h2o-staggered",
        backend: GridBackend::H2o,
        model_seed: 11,
        pool_blocks: 64,
        max_active: 3,
        prefill_chunk: 4,
        specs: STAGGERED,
        spec_ids: &[],
        expect_preemption: false,
    });
}

/// Forced preemption of H2O sequences: the victim's eviction state
/// (cumulative scores, alive mask) is dropped with its KV and must be
/// reproduced exactly by replaying the folded prompt through H2O again.
#[test]
fn serving_differential_h2o_forced_preemption() {
    run_grid_point(&ServeGrid {
        label: "h2o-preempt",
        backend: GridBackend::H2o,
        model_seed: 71,
        pool_blocks: 3,
        max_active: 2,
        prefill_chunk: 1,
        specs: PRESSURE,
        spec_ids: &[],
        expect_preemption: true,
    });
}

/// Speculative decoding over H2O: verify rounds evict based on draft rows
/// and the rollback must restore the cumulative-score book and alive mask
/// bit-exactly, invisible in the committed streams.
#[test]
fn serving_differential_h2o_mixed_speculative() {
    run_grid_point(&ServeGrid {
        label: "h2o-mixed-spec",
        backend: GridBackend::H2o,
        model_seed: 29,
        pool_blocks: 64,
        max_active: 3,
        prefill_chunk: 2,
        specs: STAGGERED,
        spec_ids: &[1, 3],
        expect_preemption: false,
    });
}

/// Whole-prompt legs: a chunk as long as the longest prompt feeds each
/// prompt as a single multi-row run in its admission tick, and the first
/// token comes from that run's last row.
fn whole_prompt_leg(label: &'static str, backend: GridBackend) {
    run_grid_point(&ServeGrid {
        label,
        backend,
        model_seed: 29,
        pool_blocks: 64,
        max_active: 3,
        prefill_chunk: STAGGERED.iter().map(|&(_, plen, _, _)| plen).max().unwrap(),
        specs: STAGGERED,
        spec_ids: &[],
        expect_preemption: false,
    });
}

#[test]
fn serving_differential_exact_whole_prompt_run() {
    whole_prompt_leg("exact-whole-prompt", GridBackend::Exact);
}

#[test]
fn serving_differential_lad_whole_prompt_run() {
    whole_prompt_leg("lad-whole-prompt", GridBackend::Lad);
}

#[test]
fn serving_differential_h2o_whole_prompt_run() {
    whole_prompt_leg("h2o-whole-prompt", GridBackend::H2o);
}

/// Forced preemption with multi-row prefill: the three-block squeeze at
/// `prefill_chunk: 4`, so both the first prompt and the victim's folded
/// prompt (prompt plus everything it generated) replay as 4-row runs.
fn chunked_preemption_leg(label: &'static str, backend: GridBackend) {
    run_grid_point(&ServeGrid {
        label,
        backend,
        model_seed: 71,
        pool_blocks: 3,
        max_active: 2,
        prefill_chunk: 4,
        specs: PRESSURE,
        spec_ids: &[],
        expect_preemption: true,
    });
}

#[test]
fn serving_differential_exact_chunked_forced_preemption() {
    chunked_preemption_leg("exact-preempt-chunk4", GridBackend::Exact);
}

#[test]
fn serving_differential_lad_chunked_forced_preemption() {
    chunked_preemption_leg("lad-preempt-chunk4", GridBackend::Lad);
}

#[test]
fn serving_differential_h2o_chunked_forced_preemption() {
    chunked_preemption_leg("h2o-preempt-chunk4", GridBackend::H2o);
}

/// A speculative request whose prompt ends mid-run: its 10-token prompt at
/// `prefill_chunk: 4` is fed as runs of 4, 4 and 2, and the first token comes
/// from the last row of the 2-row run. Prompt rows are never drafts, so the
/// engine's draft and acceptance counts must equal a replay of the same
/// drafter over the solo stream, in which the token sampled where the
/// prompt ends opens no verify round.
#[test]
fn serving_differential_speculative_prompt_ends_mid_run() {
    let g = ServeGrid {
        label: "exact-spec-mid-run",
        backend: GridBackend::Exact,
        model_seed: 71,
        pool_blocks: 64,
        max_active: 2,
        prefill_chunk: 4,
        specs: &[(0, 10, 24, 0), (1, 7, 12, 0)],
        spec_ids: &[0],
        expect_preemption: false,
    };
    let report = run_grid_point(&g);

    // Replay: the pool never refuses a draft row, so every round asks the
    // drafter for `min(k, tokens left - 1)` drafts.
    let spec = SpecConfig::recency(4);
    let (plen, max) = (10, 24);
    let prompt = g.prompt(0, plen);
    let stream = solo(&g.model(), &g.kind(), &prompt, max, None);
    let mut drafter = Drafter::new(spec.policy.clone());
    drafter.observe_all(&prompt);
    drafter.observe(stream[0]);
    let (mut done, mut rounds, mut drafted, mut accepted) = (1, 0, 0, 0);
    while done < max {
        let drafts = drafter.draft(spec.k.min(max - done - 1));
        drafted += drafts.len();
        let mut matched = 0;
        loop {
            let next = stream[done];
            drafter.observe(next);
            done += 1;
            if done == max || matched == drafts.len() || drafts[matched] != next {
                break;
            }
            matched += 1;
        }
        accepted += matched;
        rounds += 1;
    }
    assert!(
        drafted > 0,
        "the replay never drafted; the leg tests nothing"
    );
    assert_eq!(
        report.spec_drafted, drafted,
        "prompt rows counted as drafts"
    );
    assert_eq!(report.spec_accepted, accepted);
    assert_eq!(report.accepted_len.count(), rounds as u64);
    assert_eq!(report.accepted_len.sum(), (max - 1) as u64);
}

/// Mixed-backend leg: one engine tick carries exact, LAD, top-k and H2O
/// requests simultaneously (per-request [`Request::with_backend`]
/// overrides); every stream must match its own backend's solo decode.
#[test]
fn serving_differential_mixed_backends_share_ticks() {
    let g = ServeGrid {
        label: "mixed-backends",
        backend: GridBackend::Exact,
        model_seed: 71,
        pool_blocks: 64,
        max_active: 4,
        prefill_chunk: 2,
        specs: &[],
        spec_ids: &[],
        expect_preemption: false,
    };
    let model = g.model();
    let kinds: Vec<AttentionKind> = vec![
        AttentionKind::Exact,
        AttentionKind::Lad(LadConfig {
            window: 8,
            ..LadConfig::new(PwlExp::accurate_default())
        }),
        AttentionKind::topk(6),
        AttentionKind::h2o_budget(10, 4),
    ];
    let mut engine = Engine::new(&model, &AttentionKind::Exact, g.pool(), g.cfg());
    for (id, kind) in kinds.iter().enumerate() {
        let id = id as u64;
        engine.submit(
            Request::new(id, g.prompt(id, 8 + id as usize), 16)
                .arriving_at(id as usize)
                .with_backend(kind.clone()),
        );
    }
    let report = engine.run();
    assert_eq!(report.outcomes.len(), kinds.len());
    assert_eq!(report.preemptions, 0);
    for (id, kind) in kinds.iter().enumerate() {
        let id = id as u64;
        let got = &report
            .outcomes
            .iter()
            .find(|o| o.id == id)
            .unwrap_or_else(|| panic!("mixed-backends: request {id} missing"))
            .tokens;
        let want = solo(&model, kind, &g.prompt(id, 8 + id as usize), 16, None);
        assert_eq!(
            got, &want,
            "mixed-backends: request {id} diverged under {kind:?}"
        );
    }
}

/// EOS truncation leg: the engine must stop exactly where the solo decode
/// first emits the EOS token, include it, and report `FinishReason::Eos`.
#[test]
fn serving_differential_eos_truncation() {
    let g = ServeGrid {
        label: "exact-eos",
        backend: GridBackend::Exact,
        model_seed: 71,
        pool_blocks: 64,
        max_active: 2,
        prefill_chunk: 2,
        specs: &[],
        spec_ids: &[],
        expect_preemption: false,
    };
    let model = g.model();
    let kind = g.kind();
    let p = g.prompt(0, 10);
    let reference = solo(&model, &kind, &p, 14, None);
    let eos = reference[3];
    let want = solo(&model, &kind, &p, 14, Some(eos));
    assert!(want.len() < 14, "chosen EOS token must truncate the stream");

    let cfg = ServeConfig {
        eos: Some(eos),
        ..g.cfg()
    };
    let mut engine = Engine::new(&model, &kind, g.pool(), cfg);
    engine.submit(Request::new(0, p, 14));
    let report = engine.run();
    assert_eq!(report.outcomes[0].tokens, want);
    assert_eq!(
        report.outcomes[0].finish,
        lad::serve::FinishReason::Eos,
        "EOS retirement must be reported as such"
    );
}
