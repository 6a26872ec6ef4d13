//! Drives `lad_serve::Engine` from outside: a step-clock open loop.
//!
//! Every request is due at a fixed engine tick. The generator submits it at
//! the start of exactly that tick, whether or not a batch slot is free, and
//! the engine starts its latency clock there — so queue wait is inside TTFT
//! and a slow engine cannot slow the arrivals down. The benchmark calls
//! `Engine::tick` itself, times every tick, samples the batch and the queue
//! after it, and drains `Engine::run` at the end for the report.

use crate::trace::Tracer;
use crate::workload::Workload;
use lad_model::backend::AttentionKind;
use lad_model::transformer::Model;
use lad_serve::{Engine, Request, ServeReport};
use std::time::Instant;

/// What one serve of a request list produced.
#[derive(Debug)]
pub struct Pass {
    pub report: ServeReport,
    /// Wall time of each `Engine::tick`, nanoseconds.
    pub tick_ns: Vec<u64>,
    /// Wall time of the whole timed loop, seconds.
    pub wall_s: f64,
    /// Σ over ticks of active requests / queued (arrived, not admitted)
    /// requests, sampled after each tick.
    pub active_sum: u64,
    pub queue_sum: u64,
    /// Σ over requests of ticks between due and submitted (0 by
    /// construction; reported so a broken generator shows).
    pub late_ticks: u64,
}

impl Pass {
    pub fn generated_tokens(&self) -> usize {
        self.report.total_tokens()
    }

    /// Σ tick time, seconds (the loop minus the benchmark's own bookkeeping).
    pub fn tick_seconds(&self) -> f64 {
        self.tick_ns.iter().sum::<u64>() as f64 / 1e9
    }
}

/// Serves `requests` on a fresh engine with `kind` as the default backend.
/// With a tracer, spans, timeline and registry are folded between ticks.
pub fn serve(
    model: &Model,
    w: &Workload,
    kind: &AttentionKind,
    requests: &[Request],
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let mut engine = Engine::new(model, kind, w.pool(model.config()), w.serve_config());
    let mut pending = requests.iter().cloned().peekable();
    let mut tick_ns = Vec::new();
    let (mut active_sum, mut queue_sum, mut late_ticks) = (0u64, 0u64, 0u64);

    let started = Instant::now();
    while pending.peek().is_some() || engine.active() + engine.queued() > 0 {
        {
            let _span = lad_obs::span("bench.submit");
            while let Some(req) = pending.next_if(|r| r.arrival_step <= engine.step_count()) {
                late_ticks += (engine.step_count() - req.arrival_step) as u64;
                engine.submit(req);
            }
        }
        let tick_started = Instant::now();
        {
            let _span = lad_obs::span("bench.tick");
            engine.tick();
        }
        tick_ns.push(tick_started.elapsed().as_nanos() as u64);
        active_sum += engine.active() as u64;
        queue_sum += engine.queued() as u64;
        if let Some(t) = tracer.as_deref_mut() {
            t.after_tick();
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    Pass {
        report: engine.run(),
        tick_ns,
        wall_s,
        active_sum,
        queue_sum,
        late_ticks,
    }
}

/// The fixed warm-up: 16 short requests on a throwaway engine, so lazy
/// initialisation and cold caches are paid before anything is timed.
pub fn warm_up(model: &Model, w: &Workload, kind: &AttentionKind) {
    let requests: Vec<Request> = (0..16u64)
        .map(|id| {
            let prompt = (0..8).map(|i| ((id * 31 + i * 7) % 256) as u32).collect();
            Request::new(id, prompt, 8).arriving_at(id as usize)
        })
        .collect();
    let pass = serve(model, w, kind, &requests, None);
    assert_eq!(pass.report.outcomes.len(), requests.len(), "warm-up served");
}
