//! The four named workloads and their seeded request generator.
//!
//! The model is the program and stays fixed; `--seed` drives only what a
//! client controls — prompt tokens, which request gets which length, arrival
//! ticks, and which requests the verifier re-decodes. Lengths and arrival
//! gaps are a **stratified** sample of their uniform range (evenly spaced
//! values), laid out in an order fixed per workload and then shuffled by the
//! seed only within blocks of `shuffle_block` neighbours. Every seed serves
//! the same total work with the same bursts and lulls, so a metric's spread
//! across seeds measures the system, not the dice.

use lad_accel::paged::{BlockPool, BLOCK_TOKENS};
use lad_core::decoder::LadConfig;
use lad_math::Rng;
use lad_model::backend::AttentionKind;
use lad_model::config::ModelConfig;
use lad_model::spec::SpecConfig;
use lad_serve::{Request, ServeConfig};

/// `run_seconds` of `BENCHMARK.json`: the measuring time the request counts
/// below were sized for on the seed commit. `--seconds` scales the counts.
pub const BASE_SECONDS: u64 = 16;

/// Seed of the fixed model weights.
pub const MODEL_SEED: u64 = 7;

/// The served model: 4 layers, 512 hidden, 8 heads (head_dim 64).
pub fn model_config() -> ModelConfig {
    ModelConfig::tiny("ledger", 4, 512, 8)
}

/// Which attention backend the engine defaults to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Exact,
    Lad,
}

/// One named workload: request shape, engine settings and latency limits.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// Name that seeds the request list; `long_context_lad` reuses
    /// `long_context`'s so both serve the identical list.
    pub list: &'static str,
    /// Requests at [`BASE_SECONDS`].
    pub base_requests: usize,
    /// Inclusive prompt-length range.
    pub prompt: (usize, usize),
    /// Inclusive generation-length range.
    pub gen: (usize, usize),
    /// Arrival gaps are drawn from `0..=max_gap` ticks.
    pub max_gap: usize,
    /// The seed reorders lengths and gaps only within blocks of this many
    /// consecutive requests (1 = the order is fixed; a four-request list has
    /// no averaging to absorb a different schedule per seed).
    pub shuffle_block: usize,
    pub backend: Backend,
    pub max_active: usize,
    pub prefill_chunk: usize,
    pub pool_blocks: usize,
    /// `id % 4` picks n-gram speculation, H2O, recency speculation or plain.
    pub mixed: bool,
    /// Requests the verifier re-decodes solo.
    pub verify_sample: usize,
    /// Latency limits for `serve.slo_attain_frac` (≈ 2× the seed-commit
    /// medians on the 2-core reference host).
    pub slo_ttft_ms: f64,
    pub slo_tpot_ms: f64,
}

/// Workload names, in the order the ledger runs them.
pub const NAMES: [&str; 4] = [
    "chat_short",
    "long_context",
    "long_context_lad",
    "mixed_pressure",
];

pub fn by_name(name: &str) -> Option<Workload> {
    let long = Workload {
        name: "long_context",
        list: "long_context",
        base_requests: 4,
        prompt: (512, 1024),
        gen: (96, 160),
        max_gap: 63,
        shuffle_block: 1,
        backend: Backend::Exact,
        max_active: 4,
        prefill_chunk: 8,
        pool_blocks: 4096,
        mixed: false,
        verify_sample: 1,
        slo_ttft_ms: 9_200.0,
        slo_tpot_ms: 52.0,
    };
    match name {
        "chat_short" => Some(Workload {
            name: "chat_short",
            list: "chat_short",
            base_requests: 104,
            prompt: (8, 63),
            gen: (16, 63),
            max_gap: 14,
            shuffle_block: 8,
            backend: Backend::Exact,
            max_active: 8,
            prefill_chunk: 4,
            pool_blocks: 4096,
            mixed: false,
            verify_sample: 8,
            slo_ttft_ms: 350.0,
            slo_tpot_ms: 29.0,
        }),
        "long_context" => Some(long),
        "long_context_lad" => Some(Workload {
            name: "long_context_lad",
            backend: Backend::Lad,
            slo_ttft_ms: 16_000.0,
            slo_tpot_ms: 104.0,
            ..long
        }),
        "mixed_pressure" => Some(Workload {
            name: "mixed_pressure",
            list: "mixed_pressure",
            base_requests: 100,
            prompt: (16, 128),
            gen: (24, 96),
            max_gap: 12,
            shuffle_block: 8,
            backend: Backend::Exact,
            max_active: 8,
            prefill_chunk: 4,
            pool_blocks: 56,
            mixed: true,
            verify_sample: 8,
            slo_ttft_ms: 5_000.0,
            slo_tpot_ms: 35.0,
        }),
        _ => None,
    }
}

impl Workload {
    pub fn kind(&self) -> AttentionKind {
        match self.backend {
            Backend::Exact => AttentionKind::Exact,
            Backend::Lad => AttentionKind::Lad(LadConfig::default()),
        }
    }

    /// One process, one load-generating thread: `parallelism` stays 1.
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            max_active: self.max_active,
            prefill_chunk: self.prefill_chunk,
            eos: None,
            parallelism: 1,
            ..ServeConfig::default()
        }
    }

    pub fn pool(&self, cfg: &ModelConfig) -> BlockPool {
        // BlockPool sizes a token at 2 tensors × hidden × 2 bytes per layer.
        let block_bytes = cfg.layers * 2 * cfg.hidden * 2 * BLOCK_TOKENS;
        BlockPool::new(cfg, block_bytes * self.pool_blocks)
    }

    /// Requests served when measuring for `seconds` (never fewer than 2).
    pub fn requests_for(&self, seconds: u64) -> usize {
        let scaled = (self.base_requests as u64 * seconds + BASE_SECONDS / 2) / BASE_SECONDS;
        (scaled as usize).max(2)
    }

    /// The request list for `seed`, in arrival order. Same seed, same list.
    pub fn generate(&self, seed: u64, seconds: u64) -> Vec<Request> {
        let n = self.requests_for(seconds);
        let list = fnv1a(self.list.as_bytes());
        let mut fixed = Rng::new(list);
        let mut rng = Rng::new(seed ^ list);
        let mut draw = |range| stratified(range, n, self.shuffle_block, &mut fixed, &mut rng);
        let prompts = draw(self.prompt);
        let gens = draw(self.gen);
        let gaps = draw((0, self.max_gap));
        let vocab = model_config().vocab;
        let mut tick = 0usize;
        let mut out = Vec::with_capacity(n);
        for id in 0..n {
            let prompt: Vec<u32> = (0..prompts[id]).map(|_| rng.index(vocab) as u32).collect();
            let mut req = Request::new(id as u64, prompt, gens[id]).arriving_at(tick);
            if self.mixed {
                req = match id % 4 {
                    0 => req.with_speculation(SpecConfig::ngram(4)),
                    1 => req.with_backend(AttentionKind::h2o_budget(32, 16)),
                    2 => req.with_speculation(SpecConfig::recency(4)),
                    _ => req,
                };
            }
            out.push(req);
            tick += gaps[id];
        }
        out
    }
}

/// Fisher–Yates.
pub fn shuffle(vals: &mut [usize], rng: &mut Rng) {
    for i in (1..vals.len()).rev() {
        vals.swap(i, rng.index(i + 1));
    }
}

/// `n` evenly spaced values covering `lo..=hi`: shuffled once by `fixed`
/// (the same for every seed), then by `rng` within blocks of `block`.
fn stratified(
    (lo, hi): (usize, usize),
    n: usize,
    block: usize,
    fixed: &mut Rng,
    rng: &mut Rng,
) -> Vec<usize> {
    let span = (hi - lo) as f64;
    let mut vals: Vec<usize> = (0..n)
        .map(|i| lo + ((i as f64 + 0.5) / n as f64 * (span + 1.0)) as usize)
        .collect();
    shuffle(&mut vals, fixed);
    for chunk in vals.chunks_mut(block) {
        shuffle(chunk, rng);
    }
    vals
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of everything the engine receives in a request list.
pub fn digest(requests: &[Request]) -> u64 {
    let mut bytes = Vec::new();
    for r in requests {
        bytes.extend_from_slice(&r.id.to_le_bytes());
        bytes.extend_from_slice(&(r.arrival_step as u64).to_le_bytes());
        bytes.extend_from_slice(&(r.max_tokens as u64).to_le_bytes());
        bytes.extend_from_slice(format!("{:?}{:?}", r.spec, r.backend).as_bytes());
        for t in &r.prompt {
            bytes.extend_from_slice(&t.to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_list_and_other_seed_differs() {
        for name in NAMES {
            let w = by_name(name).unwrap();
            let a = w.generate(3, BASE_SECONDS);
            assert_eq!(digest(&a), digest(&w.generate(3, BASE_SECONDS)), "{name}");
            assert_ne!(digest(&a), digest(&w.generate(4, BASE_SECONDS)), "{name}");
            assert_eq!(a.len(), w.base_requests);
        }
    }

    #[test]
    fn lad_and_exact_long_context_serve_the_identical_list() {
        let exact = by_name("long_context").unwrap();
        let lad = by_name("long_context_lad").unwrap();
        for seed in [1, 2, 99] {
            assert_eq!(
                exact.generate(seed, BASE_SECONDS),
                lad.generate(seed, BASE_SECONDS)
            );
        }
        assert_ne!(exact.kind(), lad.kind());
    }

    #[test]
    fn lengths_are_a_stratified_sample_with_fixed_totals() {
        let w = by_name("chat_short").unwrap();
        let total = |seed| -> (usize, usize) {
            let reqs = w.generate(seed, BASE_SECONDS);
            for r in &reqs {
                assert!((w.prompt.0..=w.prompt.1).contains(&r.prompt.len()));
                assert!((w.gen.0..=w.gen.1).contains(&r.max_tokens));
            }
            assert!(reqs
                .windows(2)
                .all(|p| p[0].arrival_step <= p[1].arrival_step));
            (
                reqs.iter().map(|r| r.prompt.len()).sum(),
                reqs.iter().map(|r| r.max_tokens).sum(),
            )
        };
        assert_eq!(total(1), total(2));
        let reqs = w.generate(1, BASE_SECONDS);
        let lens: Vec<usize> = reqs.iter().map(|r| r.prompt.len()).collect();
        assert_eq!(*lens.iter().min().unwrap(), w.prompt.0);
        assert_eq!(*lens.iter().max().unwrap(), w.prompt.1);
    }

    #[test]
    fn the_seed_reorders_lengths_only_within_blocks() {
        let sorted_blocks = |name: &str, seed| -> Vec<Vec<usize>> {
            let w = by_name(name).unwrap();
            let lens: Vec<usize> = w
                .generate(seed, BASE_SECONDS)
                .iter()
                .map(|r| r.prompt.len())
                .collect();
            lens.chunks(w.shuffle_block)
                .map(|c| {
                    let mut c = c.to_vec();
                    c.sort_unstable();
                    c
                })
                .collect()
        };
        for name in NAMES {
            assert_eq!(sorted_blocks(name, 1), sorted_blocks(name, 2), "{name}");
        }
        let lens = |seed| -> Vec<usize> {
            let w = by_name("chat_short").unwrap();
            w.generate(seed, BASE_SECONDS)
                .iter()
                .map(|r| r.prompt.len())
                .collect()
        };
        assert_ne!(
            lens(1),
            lens(2),
            "the order inside a block follows the seed"
        );
    }

    #[test]
    fn mixed_pressure_cycles_the_four_request_variants() {
        let reqs = by_name("mixed_pressure").unwrap().generate(1, BASE_SECONDS);
        assert!(reqs[0].spec.is_some() && reqs[0].backend.is_none());
        assert!(reqs[1].backend.is_some() && reqs[1].spec.is_none());
        assert!(reqs[2].spec.is_some());
        assert!(reqs[3].spec.is_none() && reqs[3].backend.is_none());
        assert_ne!(reqs[0].spec, reqs[2].spec);
    }

    #[test]
    fn request_count_scales_with_seconds() {
        let w = by_name("chat_short").unwrap();
        assert_eq!(w.requests_for(BASE_SECONDS), 104);
        assert_eq!(w.requests_for(2), 13);
        assert_eq!(by_name("long_context").unwrap().requests_for(1), 2);
    }
}
