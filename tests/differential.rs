//! Differential decoding harness: the batched engine vs the sequential
//! reference.
//!
//! LAD's claim (and this repo's tentpole invariant) is that neither
//! *batching* nor *scheduling* ever changes *results*: the step-synchronous
//! batched engine (`decode_batch_gemm` over `BatchSession`) — cross-sample
//! blocked GEMMs under a bit-exact ascending-`k` accumulation contract,
//! attention fanned out as sample-chunk tasks on the shared worker pool —
//! must be token-exact against one solo sequential `Session` decode per
//! prompt, for the LAD backend and the exact-softmax reference alike, and
//! must report identical `StepStats` (including `den_fallbacks`) up to the
//! scheduling metadata that `StepStats::algorithmic()` strips.
//!
//! The harness decodes seeded random models under a grid of
//! {parallelism × batch size × window size × stream length} and asserts the
//! equalities, inline and fanned, per configuration. At least one grid point
//! is engineered (coarse PWL partition, seed found by search) to exercise
//! the degenerate-denominator fallback path, so the fallback's cached
//! window-score slice is covered differentially too.
//!
//! Interpreting a mismatch: see `tests/README.md`.

use lad::accel::paged::{BlockPool, BLOCK_TOKENS};
use lad::core::decoder::LadConfig;
use lad::core::stats::StepStats;
use lad::math::pwl::PwlExp;
use lad::model::backend::AttentionKind;
use lad::model::batch::{decode_batch_gemm, BatchSession, StepOutcome};
use lad::model::config::ModelConfig;
use lad::model::spec::SpecConfig;
use lad::model::transformer::{argmax, Model, Session};
use lad::serve::{Engine, Request, ServeConfig, ServeReport};

/// One grid point of the differential sweep.
struct DiffConfig {
    label: &'static str,
    /// OPT-style (LayerNorm + learned positions) instead of LLaMA-style.
    opt_style: bool,
    layers: usize,
    hidden: usize,
    heads: usize,
    model_seed: u64,
    batch: usize,
    prompt_len: usize,
    /// Greedy decode steps after the prompt.
    steps: usize,
    /// Pool fan-out width of the batched engine's sample-chunk tasks.
    parallelism: usize,
    /// LAD latest-window size.
    window: usize,
    /// PWL partition boundaries (`None` = the accurate default).
    boundaries: Option<&'static [f64]>,
    /// This grid point must hit the den-degeneration fallback at least once.
    expect_den_fallback: bool,
}

impl DiffConfig {
    fn model(&self) -> Model {
        let cfg = if self.opt_style {
            ModelConfig::tiny_opt("diff", self.layers, self.hidden, self.heads)
        } else {
            ModelConfig::tiny("diff", self.layers, self.hidden, self.heads)
        };
        Model::random(cfg, self.model_seed)
    }

    fn lad_config(&self) -> LadConfig {
        let pwl = match self.boundaries {
            Some(bounds) => PwlExp::with_boundaries(bounds).expect("valid grid boundaries"),
            None => PwlExp::accurate_default(),
        };
        LadConfig {
            window: self.window,
            ..LadConfig::new(pwl)
        }
    }

    /// Deterministic prompt of sample `s` (sample 0 reproduces the seed
    /// search that located the den-fallback grid point).
    fn prompt(&self, s: usize) -> Vec<u32> {
        (0..self.prompt_len)
            .map(|i| ((i as u64 * 37 + self.model_seed + s as u64 * 13) % 256) as u32)
            .collect()
    }

    fn prompts(&self) -> Vec<Vec<u32>> {
        (0..self.batch).map(|s| self.prompt(s)).collect()
    }
}

/// Tokens and the *full* per-step stats stream of one greedy decode.
struct DecodeOutcome {
    tokens: Vec<u32>,
    stats: Vec<StepStats>,
}

fn decode_all(session: &mut Session, prompt: &[u32], steps: usize) -> DecodeOutcome {
    let mut stats = Vec::new();
    let mut logits = Vec::new();
    for &t in prompt {
        logits = session.step(t);
        stats.extend(session.last_stats().iter().copied());
    }
    let mut tokens = Vec::with_capacity(steps);
    for _ in 0..steps {
        let next = argmax(&logits);
        tokens.push(next);
        logits = session.step(next);
        stats.extend(session.last_stats().iter().copied());
    }
    DecodeOutcome { tokens, stats }
}

fn assert_stats_match(label: &str, kind: &str, seq: &[StepStats], pooled: &[StepStats]) {
    assert_eq!(
        seq.len(),
        pooled.len(),
        "{label}/{kind}: stats stream length diverged"
    );
    for (i, (a, b)) in seq.iter().zip(pooled).enumerate() {
        assert_eq!(
            a.algorithmic(),
            b.algorithmic(),
            "{label}/{kind}: StepStats diverged at stream index {i}"
        );
    }
}

/// Runs the differential leg for one grid point over the given attention
/// backends; returns the total LAD `den_fallbacks` observed on the
/// sequential reference path (0 when no LAD backend is in `kinds`).
fn run_config_kinds(cfg: &DiffConfig, kinds: &[(&str, AttentionKind)]) -> usize {
    let model = cfg.model();
    let prompts = cfg.prompts();
    let per_step = cfg.layers * cfg.heads;
    let mut lad_fallbacks = 0usize;

    for (kind_name, kind) in kinds {
        // The reference: every prompt decoded alone through a sequential
        // `Session`, keeping its full per-step stats stream.
        let mut expected: Vec<Vec<u32>> = Vec::new();
        let mut expected_final: Vec<StepStats> = Vec::new();
        for prompt in &prompts {
            let seq = decode_all(&mut Session::new(&model, kind), prompt, cfg.steps);
            if *kind_name == "lad" {
                lad_fallbacks += seq.stats.iter().map(|s| s.den_fallbacks).sum::<usize>();
            }
            expected_final.extend_from_slice(&seq.stats[seq.stats.len() - per_step..]);
            expected.push(seq.tokens);
        }

        // Step-synchronous batched GEMM engine: cross-sample matrix-matrix
        // projections (inline and pool-fanned) vs the per-sample reference,
        // token- and stats-exact.
        let gemm_inline = decode_batch_gemm(&model, kind, &prompts, cfg.steps, 1);
        let gemm_fanned = decode_batch_gemm(&model, kind, &prompts, cfg.steps, cfg.parallelism);
        assert_eq!(
            gemm_inline.sequences, expected,
            "{}/{kind_name}: inline batched-GEMM decode diverged from single sessions",
            cfg.label
        );
        assert_eq!(
            gemm_fanned.sequences, expected,
            "{}/{kind_name}: fanned batched-GEMM decode diverged from single sessions",
            cfg.label
        );
        assert_stats_match(
            cfg.label,
            kind_name,
            &expected_final,
            &gemm_inline.final_stats,
        );
        assert_stats_match(
            cfg.label,
            kind_name,
            &expected_final,
            &gemm_fanned.final_stats,
        );
        // Every prompt in this harness has the same length, so the batched
        // engine crosses exactly one barrier per consumed token.
        assert_eq!(
            gemm_inline.gemm.sync_barriers,
            cfg.prompt_len + cfg.steps,
            "{}/{kind_name}: barrier count off",
            cfg.label
        );
        assert!(
            gemm_inline.gemm.gemm_calls >= gemm_inline.gemm.sync_barriers,
            "{}/{kind_name}: batched decode reported no GEMM calls",
            cfg.label
        );
    }

    lad_fallbacks
}

/// The exact + LAD legs of one grid point, with the den-fallback
/// expectation enforced.
fn run_config(cfg: &DiffConfig) -> usize {
    let kinds: [(&str, AttentionKind); 2] = [
        ("exact", AttentionKind::Exact),
        ("lad", AttentionKind::Lad(cfg.lad_config())),
    ];
    let lad_fallbacks = run_config_kinds(cfg, &kinds);
    if cfg.expect_den_fallback {
        assert!(
            lad_fallbacks > 0,
            "{}: grid point was engineered to hit the den fallback but never did",
            cfg.label
        );
    }
    lad_fallbacks
}

/// The default grid: small models, every {parallelism × batch × window ×
/// stream length} axis exercised, 16 configurations. One point (seed found
/// by search over coarse PWL partitions) drives `den_fallbacks >= 1`.
fn default_grid() -> Vec<DiffConfig> {
    let base = DiffConfig {
        label: "",
        opt_style: false,
        layers: 2,
        hidden: 32,
        heads: 2,
        model_seed: 0,
        batch: 1,
        prompt_len: 4,
        steps: 8,
        parallelism: 2,
        window: 16,
        boundaries: None,
        expect_den_fallback: false,
    };
    vec![
        // parallelism axis
        DiffConfig {
            label: "p2-b1-w16-s8",
            model_seed: 10,
            ..base
        },
        DiffConfig {
            label: "p4-b1-w16-s8",
            model_seed: 11,
            parallelism: 4,
            ..base
        },
        DiffConfig {
            label: "p8-b2-w16-s8",
            model_seed: 12,
            parallelism: 8,
            batch: 2,
            ..base
        },
        DiffConfig {
            label: "p3-b1-w16-s12",
            model_seed: 13,
            parallelism: 3,
            steps: 12,
            ..base
        },
        // batch axis
        DiffConfig {
            label: "p2-b2-w16-s8",
            model_seed: 14,
            batch: 2,
            ..base
        },
        DiffConfig {
            label: "p2-b3-w16-s6",
            model_seed: 15,
            batch: 3,
            steps: 6,
            ..base
        },
        DiffConfig {
            label: "p4-b4-w16-s6",
            model_seed: 16,
            parallelism: 4,
            batch: 4,
            steps: 6,
            ..base
        },
        // window axis
        DiffConfig {
            label: "p2-b1-w2-s10",
            model_seed: 17,
            window: 2,
            steps: 10,
            ..base
        },
        DiffConfig {
            label: "p4-b2-w4-s8",
            model_seed: 18,
            parallelism: 4,
            batch: 2,
            window: 4,
            ..base
        },
        DiffConfig {
            label: "p2-b2-w8-s8",
            model_seed: 19,
            batch: 2,
            window: 8,
            ..base
        },
        // stream-length axis
        DiffConfig {
            label: "p2-b1-w4-s24",
            model_seed: 20,
            window: 4,
            steps: 24,
            ..base
        },
        DiffConfig {
            label: "p4-b1-w16-s20",
            model_seed: 21,
            parallelism: 4,
            steps: 20,
            prompt_len: 6,
            ..base
        },
        // model-shape variations
        DiffConfig {
            label: "opt-p2-b2-w16-s8",
            model_seed: 22,
            opt_style: true,
            batch: 2,
            ..base
        },
        DiffConfig {
            label: "opt-p4-b1-w4-s10",
            model_seed: 23,
            opt_style: true,
            parallelism: 4,
            window: 4,
            steps: 10,
            ..base
        },
        DiffConfig {
            label: "h4-p4-b2-w16-s8",
            model_seed: 24,
            hidden: 64,
            heads: 4,
            parallelism: 4,
            batch: 2,
            ..base
        },
        // den-fallback point: coarse 2-interval partition, seed 7, found by
        // search — the sequential LAD path hits den_fallbacks >= 1 here.
        DiffConfig {
            label: "denfb-p4-b1-w2-s48",
            model_seed: 7,
            parallelism: 4,
            window: 2,
            prompt_len: 8,
            steps: 48,
            boundaries: Some(&[-4.0, 0.0]),
            expect_den_fallback: true,
            ..base
        },
    ]
}

#[test]
fn differential_grid() {
    let grid = default_grid();
    assert!(grid.len() >= 16, "grid shrank below the acceptance floor");
    let mut fallbacks = 0usize;
    for cfg in &grid {
        fallbacks += run_config(cfg);
    }
    assert!(fallbacks > 0, "no grid point exercised the den fallback");
}

/// Backend-zoo leg: the scheduling contract extends verbatim to the sparse
/// backends — top-k score selection and budget-based H2O eviction must be
/// oblivious to batch membership, the batched-GEMM engine and its pool
/// fan-out on the same 16-point grid the exact/LAD sweep runs (den-fallback
/// partition point included; its coarse PWL only parameterises LAD, but the
/// long 48-step stream exercises many evictions). Stats equality covers the
/// new traffic counters: `keys_scored`, `keys_read`, `bytes_moved` and
/// `evictions` all survive `StepStats::algorithmic()`.
#[test]
fn backend_zoo_differential_grid() {
    let grid = default_grid();
    assert!(grid.len() >= 16, "grid shrank below the acceptance floor");
    let kinds: [(&str, AttentionKind); 2] = [
        ("topk", AttentionKind::topk(6)),
        ("h2o", AttentionKind::h2o_budget(12, 4)),
    ];
    for cfg in &grid {
        run_config_kinds(cfg, &kinds);
    }
}

/// Greedy-decodes `steps` tokens from `prompt` as the only request of a
/// serving engine: the first tick prefills the whole prompt and samples the
/// first token, every later tick is one speculative verify round under
/// `spec`, and the pool holds the whole request, so nothing is preempted.
fn serve_speculative(
    model: &Model,
    kind: &AttentionKind,
    prompt: &[u32],
    steps: usize,
    spec: &SpecConfig,
) -> ServeReport {
    let model_cfg = model.config();
    let block_bytes = model_cfg.layers * 2 * model_cfg.hidden * 2 * BLOCK_TOKENS;
    let pool = BlockPool::new(
        model_cfg,
        BlockPool::blocks_for(prompt.len() + steps) * block_bytes,
    );
    let cfg = ServeConfig {
        prefill_chunk: prompt.len(),
        parallelism: 1,
        ..ServeConfig::default()
    };
    let mut engine = Engine::new(model, kind, pool, cfg);
    engine.submit(Request::new(0, prompt.to_vec(), steps).with_speculation(spec.clone()));
    let report = engine.run();
    assert_eq!(
        report.preemptions, 0,
        "a pool sized for the request preempted"
    );
    report
}

/// Speculative leg — acceptance equivalence: draft/verify decoding with a
/// training-free drafter must produce *exactly* the greedy sequential
/// stream, whatever the draft depth K or drafter policy, on every grid
/// point (exact + LAD backends, den-fallback partition included). The
/// verifier only ever commits a token that is the argmax of logits
/// conditioned on committed rows, so acceptance can change the *cost* of a
/// decode but never a token; K = 0 must degenerate to one plain one-row
/// step per token.
#[test]
fn speculative_decode_matches_greedy_grid() {
    let grid = default_grid();
    assert!(grid.len() >= 16, "grid shrank below the acceptance floor");
    for cfg in &grid {
        let model = cfg.model();
        let prompt = cfg.prompt(0);
        let kinds: [(&str, AttentionKind); 2] = [
            ("exact", AttentionKind::Exact),
            ("lad", AttentionKind::Lad(cfg.lad_config())),
        ];
        for (kind_name, kind) in &kinds {
            let mut session = Session::new(&model, kind);
            let expected = session.generate_greedy(&prompt, cfg.steps);
            for k in [0usize, 1, 2, 4, 8] {
                // Alternate drafter policies across the K axis so both the
                // recency table and the n-gram pool face every grid point.
                let spec = if k % 2 == 0 {
                    SpecConfig::recency(k)
                } else {
                    SpecConfig::ngram(k)
                };
                let report = serve_speculative(&model, kind, &prompt, cfg.steps, &spec);
                assert_eq!(
                    report.outcomes[0].tokens, expected,
                    "{}/{kind_name}/k{k}: speculative decode diverged from greedy",
                    cfg.label
                );
                assert!(
                    report.spec_accepted <= report.spec_drafted,
                    "{}/{kind_name}/k{k}: accepted more than was drafted",
                    cfg.label
                );
                if k == 0 {
                    // Degenerate case: no drafts, one tick (one forward
                    // step) per generated token — the plain decode loop.
                    assert_eq!(
                        report.spec_drafted, 0,
                        "{}/{kind_name}: k=0 drafted",
                        cfg.label
                    );
                    assert_eq!(
                        report.steps, cfg.steps,
                        "{}/{kind_name}: k=0 must run one forward per token",
                        cfg.label
                    );
                } else {
                    // Every tick commits at least one token, so ticks never
                    // exceed generated tokens.
                    assert!(
                        report.steps <= cfg.steps,
                        "{}/{kind_name}/k{k}: more ticks than tokens",
                        cfg.label
                    );
                }
            }
        }
    }
}

/// SIMD microkernel leg — the tentpole invariant of the kernel dispatch
/// layer. Forcing either kernel must produce bit-identical tokens and stats
/// on every grid point, for every backend. Three SIMD kernels run here:
///
/// * the f32 GEMM, whose lanes are packed *rows*, each output element
///   accumulated in the scalar reference's ascending-`k` order;
/// * the exact read's key scores (`Exact`, `TopK`), whose lanes are keys,
///   each dot accumulated in ascending element order;
/// * the exact read's weighted value sum (`Exact`), whose lanes are value
///   columns, each accumulated in ascending position order.
///
/// On hosts without AVX2+F16C `Kernel::Simd` degrades to scalar and the leg
/// passes vacuously (the bit-exactness claim is about the SIMD box CI runs
/// on). Kernel overrides are thread-local: the engine runs its GEMMs on the
/// stepping thread, and pool tasks run under their spawner's kernel, so the
/// SIMD side runs entirely on SIMD kernels both inline (`parallelism` 1) and
/// with attention fanned out over the pool (`parallelism` 2).
#[test]
fn simd_kernel_matches_scalar_on_grid() {
    use lad::math::{with_kernel, Kernel};
    if !Kernel::Simd.available() {
        eprintln!("simd_kernel_matches_scalar_on_grid: no AVX2+F16C; leg is vacuous");
    }
    let grid = default_grid();
    assert!(grid.len() >= 16, "grid shrank below the acceptance floor");
    for cfg in &grid {
        let model = cfg.model();
        let prompts = cfg.prompts();
        let kinds: [(&str, AttentionKind); 4] = [
            ("exact", AttentionKind::Exact),
            ("lad", AttentionKind::Lad(cfg.lad_config())),
            ("topk", AttentionKind::topk(6)),
            ("h2o", AttentionKind::h2o_budget(12, 4)),
        ];
        for (kind_name, kind) in &kinds {
            let scalar = with_kernel(Kernel::Scalar, || {
                decode_batch_gemm(&model, kind, &prompts, cfg.steps, 1)
            });
            for parallelism in [1, 2] {
                let simd = with_kernel(Kernel::Simd, || {
                    decode_batch_gemm(&model, kind, &prompts, cfg.steps, parallelism)
                });
                assert_eq!(
                    scalar.sequences, simd.sequences,
                    "{}/{kind_name}/p{parallelism}: SIMD kernel changed decoded tokens",
                    cfg.label
                );
                assert_stats_match(cfg.label, kind_name, &scalar.final_stats, &simd.final_stats);
            }
        }
    }
}

/// Speculative × SIMD leg: draft/verify decoding (K = 0 degenerate and K = 4
/// with both drafter policies) under the forced SIMD kernel must emit the
/// token stream of the scalar-kernel greedy decode — the verify batches go
/// through the batched GEMM path, so this pins speculation's exact-rollback
/// contract on top of the kernel-dispatch contract.
#[test]
fn speculative_decode_is_token_identical_under_simd_kernel() {
    use lad::math::{with_kernel, Kernel};
    let grid = default_grid();
    assert!(grid.len() >= 16, "grid shrank below the acceptance floor");
    for cfg in &grid {
        let model = cfg.model();
        let prompt = cfg.prompt(0);
        let kinds: [(&str, AttentionKind); 4] = [
            ("exact", AttentionKind::Exact),
            ("lad", AttentionKind::Lad(cfg.lad_config())),
            ("topk", AttentionKind::topk(6)),
            ("h2o", AttentionKind::h2o_budget(12, 4)),
        ];
        for (kind_name, kind) in &kinds {
            let expected = with_kernel(Kernel::Scalar, || {
                Session::new(&model, kind).generate_greedy(&prompt, cfg.steps)
            });
            for k in [0usize, 4] {
                for spec in [SpecConfig::recency(k), SpecConfig::ngram(k)] {
                    let report = with_kernel(Kernel::Simd, || {
                        serve_speculative(&model, kind, &prompt, cfg.steps, &spec)
                    });
                    assert_eq!(
                        report.outcomes[0].tokens, expected,
                        "{}/{kind_name}/k{k}: speculative decode under the SIMD \
                         kernel diverged from the scalar greedy stream",
                        cfg.label
                    );
                }
            }
        }
    }
}

/// Traffic-counter invariant leg: each backend's analytic `bytes_moved`
/// (reported in `StepStats` from per-step arithmetic) must equal what a
/// shadow byte meter at the KV-arena read sites actually observes. The
/// meter is thread-local and a solo `Session` runs every head on the calling
/// thread; every backend — exact, LAD (approximate identification, correction
/// cache, den fallback included), top-k and H2O — is swept over a slice of
/// the grid covering the LLaMA point, the wider-head point and the
/// den-fallback point.
#[test]
fn stats_bytes_moved_matches_traffic_meter() {
    use lad::core::kv::{reset_traffic_bytes, traffic_bytes};
    let grid = default_grid();
    let legs: Vec<&DiffConfig> = grid
        .iter()
        .filter(|cfg| {
            matches!(
                cfg.label,
                "p2-b1-w16-s8" | "h4-p4-b2-w16-s8" | "denfb-p4-b1-w2-s48"
            )
        })
        .collect();
    assert_eq!(legs.len(), 3, "traffic leg lost a grid point");

    for cfg in legs {
        let model = cfg.model();
        let prompt = cfg.prompt(0);
        let kinds: [(&str, AttentionKind); 4] = [
            ("exact", AttentionKind::Exact),
            ("lad", AttentionKind::Lad(cfg.lad_config())),
            ("topk", AttentionKind::topk(6)),
            ("h2o", AttentionKind::h2o_budget(12, 4)),
        ];
        for (kind_name, kind) in &kinds {
            let mut session = Session::new(&model, kind);
            let mut logits = Vec::new();
            let mut feed: Vec<u32> = prompt.clone();
            for step in 0..prompt.len() + cfg.steps {
                let t = if step < feed.len() {
                    feed[step]
                } else {
                    let next = argmax(&logits);
                    feed.push(next);
                    next
                };
                reset_traffic_bytes();
                logits = session.step(t);
                let metered = traffic_bytes();
                let reported: u64 = session
                    .last_stats()
                    .iter()
                    .map(|s| s.bytes_moved as u64)
                    .sum();
                assert_eq!(
                    metered, reported,
                    "{}/{kind_name}: step {step} analytic bytes_moved diverged \
                     from the shadow traffic meter",
                    cfg.label
                );
            }
        }
    }
}

/// Empty-step leg: `BatchSession::step(&[])` is the documented idle no-op
/// (the serving engine leans on it for arrival gaps). Idle steps sprinkled
/// through a decode must return `StepOutcome::Idle`, advance nothing, and
/// leave every subsequent token and logit bit-identical to a run without
/// them.
#[test]
fn empty_steps_are_idle_and_invisible() {
    let cfg = &default_grid()[0];
    let model = cfg.model();
    let kind = AttentionKind::Lad(cfg.lad_config());
    let prompts = cfg.prompts();

    let run = |idle_every: Option<usize>| {
        let mut session = BatchSession::new(&model, &kind, cfg.batch, cfg.parallelism);
        let mut fed: Vec<Vec<u32>> = prompts.clone();
        let mut streams: Vec<Vec<u32>> = vec![Vec::new(); cfg.batch];
        let max_len = fed.iter().map(Vec::len).max().unwrap();
        for t in 0..max_len + cfg.steps {
            if let Some(every) = idle_every {
                if t % every == 0 {
                    assert_eq!(
                        session.step(&[]),
                        StepOutcome::Idle,
                        "empty step must report Idle"
                    );
                }
            }
            let tokens: Vec<(usize, u32)> = (0..cfg.batch)
                .filter(|&s| t < fed[s].len())
                .map(|s| (s, fed[s][t]))
                .collect();
            if tokens.is_empty() {
                break;
            }
            let active = tokens.len();
            assert_eq!(
                session.step(&tokens),
                StepOutcome::Advanced { active },
                "non-empty step must report its active count"
            );
            for (row, &(s, _)) in tokens.iter().enumerate() {
                if t + 1 >= fed[s].len() && streams[s].len() < cfg.steps {
                    let next = argmax(session.logits(row));
                    streams[s].push(next);
                    fed[s].push(next);
                }
            }
        }
        streams
    };

    let without_idle = run(None);
    let with_idle = run(Some(3));
    assert_eq!(
        without_idle, with_idle,
        "idle no-op steps perturbed decoded streams"
    );
}

/// Recorder leg: the observability layer must never perturb decoding. The
/// same stream is decoded with the recorder in its default (disabled) state,
/// with it enabled (spans actually recorded), and again after it has been
/// enabled and disabled — all three must agree token-for-token and on every
/// `algorithmic()` stat. Runs a slice of the default grid covering the
/// LLaMA-style, OPT-style and den-fallback points, plus the batched-GEMM
/// engine (so the `batch.*` spans are exercised under the toggle too).
#[test]
fn recorder_toggle_never_changes_results() {
    let grid = default_grid();
    let legs: Vec<&DiffConfig> = grid
        .iter()
        .filter(|cfg| {
            matches!(
                cfg.label,
                "p2-b2-w16-s8" | "opt-p2-b2-w16-s8" | "denfb-p4-b1-w2-s48"
            )
        })
        .collect();
    assert_eq!(legs.len(), 3, "recorder leg lost a grid point");

    for cfg in legs {
        let model = cfg.model();
        let kind = AttentionKind::Lad(cfg.lad_config());
        let prompts = cfg.prompts();
        let run = || {
            let single = decode_all(&mut Session::new(&model, &kind), &prompts[0], cfg.steps);
            let batched = decode_batch_gemm(&model, &kind, &prompts, cfg.steps, cfg.parallelism);
            (single, batched)
        };

        lad::obs::set_enabled(false);
        let (base, base_batch) = run();

        lad::obs::set_enabled(true);
        let (on, on_batch) = run();
        lad::obs::set_enabled(false);
        let recorded = lad::obs::drain();
        assert!(
            recorded.iter().any(|t| !t.events.is_empty()),
            "{}: enabled recorder captured nothing",
            cfg.label
        );

        let (off_again, off_again_batch) = run();

        for (state, (single, batched)) in [
            ("enabled", (&on, &on_batch)),
            ("re-disabled", (&off_again, &off_again_batch)),
        ] {
            assert_eq!(
                base.tokens, single.tokens,
                "{}: recorder {state} changed decoded tokens",
                cfg.label
            );
            assert_stats_match(cfg.label, state, &base.stats, &single.stats);
            assert_eq!(
                base_batch.sequences, batched.sequences,
                "{}: recorder {state} changed batched-GEMM tokens",
                cfg.label
            );
            assert_stats_match(
                cfg.label,
                state,
                &base_batch.final_stats,
                &batched.final_stats,
            );
        }
    }
}

/// The long grid: longer streams (past the window by a large margin), wider
/// batches, and the den-fallback partition under batch + pool pressure.
/// Heavy — run with `cargo test --release -- --ignored` (the CI slow job).
#[test]
#[ignore = "long-stream differential grid; run with --ignored in release"]
fn differential_grid_long_streams() {
    let base = DiffConfig {
        label: "",
        opt_style: false,
        layers: 2,
        hidden: 32,
        heads: 2,
        model_seed: 0,
        batch: 1,
        prompt_len: 8,
        steps: 150,
        parallelism: 4,
        window: 16,
        boundaries: None,
        expect_den_fallback: false,
    };
    let grid = vec![
        DiffConfig {
            label: "long-p4-b1-w16-s150",
            model_seed: 30,
            ..base
        },
        DiffConfig {
            label: "long-p8-b2-w16-s120",
            model_seed: 31,
            parallelism: 8,
            batch: 2,
            steps: 120,
            ..base
        },
        DiffConfig {
            label: "long-p2-b4-w4-s100",
            model_seed: 32,
            parallelism: 2,
            batch: 4,
            window: 4,
            steps: 100,
            ..base
        },
        DiffConfig {
            label: "long-p4-b6-w8-s80",
            model_seed: 33,
            batch: 6,
            window: 8,
            steps: 80,
            ..base
        },
        DiffConfig {
            label: "long-h4-p4-b2-w16-s100",
            model_seed: 34,
            hidden: 64,
            heads: 4,
            batch: 2,
            steps: 100,
            ..base
        },
        DiffConfig {
            label: "long-opt-p4-b2-w16-s100",
            model_seed: 35,
            opt_style: true,
            batch: 2,
            steps: 100,
            ..base
        },
        DiffConfig {
            label: "long-denfb-p4-b2-w2-s120",
            model_seed: 7,
            batch: 2,
            window: 2,
            steps: 120,
            boundaries: Some(&[-4.0, 0.0]),
            expect_den_fallback: true,
            ..base
        },
    ];
    for cfg in &grid {
        run_config(cfg);
    }
}
