//! Shared decode worker pool.
//!
//! One long-lived set of threads behind one FIFO task queue. The only decode
//! path that spawns on it is the step-synchronous batch engine
//! (`lad_model::batch::BatchSession`), which fans the attention of one layer
//! out as one task per chunk of samples and waits for the layer to drain
//! before the next cross-sample GEMM.
//!
//! Scheduling is work-helping: a thread that waits on a [`WorkerPool::scope`]
//! does not block — it keeps executing queued tasks (its own scope's or any
//! other's) until its scope drains. That makes the pool deadlock-free by
//! construction at any worker count, including zero (everything help-runs
//! inline), and keeps nested scopes (a task that opens a scope of its own)
//! safe.
//!
//! **Determinism.** The pool never influences results: every task writes to
//! its own pre-assigned output slot and a scope only returns once all of its
//! tasks completed, so outputs are collected in program order regardless of
//! which thread ran what. The top-level differential harness
//! (`tests/differential.rs`) pins this down against the sequential reference.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::{self, JoinHandle, ThreadId};
use std::time::Instant;

/// Snapshot of the pool's monotonic scheduling counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolMetrics {
    /// Tasks executed (by workers and by helping scope owners).
    pub tasks_executed: usize,
    /// Tasks executed by a thread other than the one that spawned them.
    pub tasks_stolen: usize,
    /// Times a worker woke from the condvar and found the queue empty.
    pub idle_wakeups: usize,
    /// Scopes fully drained ([`WorkerPool::scope`] returns). A step-synchronous
    /// batch engine contributes one per per-layer fan-out, so this counts its
    /// intra-step synchronisation points.
    pub scopes_completed: usize,
    /// Cumulative nanoseconds workers (and helping scope owners) spent parked
    /// on the work condvar. Distinguishes "no contention" from "workers
    /// starved" even when `tasks_stolen == 0` (e.g. single-core runs).
    pub park_nanos: u64,
}

impl PoolMetrics {
    /// Counter increments since an `earlier` snapshot (saturating, so a
    /// mismatched pair degrades to zeros instead of nonsense).
    pub fn delta(self, earlier: PoolMetrics) -> PoolMetrics {
        PoolMetrics {
            tasks_executed: self.tasks_executed.saturating_sub(earlier.tasks_executed),
            tasks_stolen: self.tasks_stolen.saturating_sub(earlier.tasks_stolen),
            idle_wakeups: self.idle_wakeups.saturating_sub(earlier.idle_wakeups),
            scopes_completed: self
                .scopes_completed
                .saturating_sub(earlier.scopes_completed),
            park_nanos: self.park_nanos.saturating_sub(earlier.park_nanos),
        }
    }
}

/// A task whose borrowed environment has been erased to `'static`; sound
/// because the owning scope cannot return before the task completed.
type TaskFn = Box<dyn FnOnce() + Send + 'static>;

struct Task {
    run: TaskFn,
    scope: Arc<ScopeState>,
    submitter: ThreadId,
}

/// Live registry handles mirroring the pool's counters into the process
/// metrics exposition (`lad_obs::metrics`). All no-ops while metrics are
/// disabled; the handles are resolved once at pool construction.
struct PoolObs {
    queue_depth: lad_obs::metrics::Gauge,
    tasks_executed: lad_obs::metrics::Counter,
    tasks_stolen: lad_obs::metrics::Counter,
    park_nanos: lad_obs::metrics::Counter,
    idle_wakeups: lad_obs::metrics::Counter,
}

impl PoolObs {
    fn new() -> PoolObs {
        PoolObs {
            queue_depth: lad_obs::metrics::gauge("pool.queue_depth"),
            tasks_executed: lad_obs::metrics::counter("pool.tasks_executed"),
            tasks_stolen: lad_obs::metrics::counter("pool.tasks_stolen"),
            park_nanos: lad_obs::metrics::counter("pool.park_nanos"),
            idle_wakeups: lad_obs::metrics::counter("pool.idle_wakeups"),
        }
    }
}

struct Shared {
    queue: Mutex<VecDeque<Task>>,
    /// Notified on new work, task completion and shutdown; workers and
    /// helping scope owners both wait on it.
    work_cv: Condvar,
    shutdown: AtomicBool,
    tasks_executed: AtomicUsize,
    tasks_stolen: AtomicUsize,
    idle_wakeups: AtomicUsize,
    scopes_completed: AtomicUsize,
    park_nanos: AtomicU64,
    obs: PoolObs,
}

struct ScopeState {
    /// Tasks spawned but not yet completed. Mutated under the queue lock so
    /// the owner's check-then-wait cannot miss the final decrement.
    pending: AtomicUsize,
    /// First panic payload raised by any task of this scope.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Default for ScopeState {
    fn default() -> ScopeState {
        ScopeState {
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
        }
    }
}

/// A long-lived work-helping thread pool (see the module docs).
///
/// # Example
///
/// ```
/// use lad_core::pool::WorkerPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = WorkerPool::new(2);
/// let hits = AtomicUsize::new(0);
/// pool.scope(|scope| {
///     for _ in 0..8 {
///         scope.spawn(|| {
///             hits.fetch_add(1, Ordering::Relaxed);
///         });
///     }
/// });
/// assert_eq!(hits.load(Ordering::Relaxed), 8);
/// ```
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .field("metrics", &self.metrics())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool with `workers` long-lived background threads. `0` is
    /// valid: scopes then execute every task inline while "waiting".
    pub fn new(workers: usize) -> WorkerPool {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            tasks_executed: AtomicUsize::new(0),
            tasks_stolen: AtomicUsize::new(0),
            idle_wakeups: AtomicUsize::new(0),
            scopes_completed: AtomicUsize::new(0),
            park_nanos: AtomicU64::new(0),
            obs: PoolObs::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("lad-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            workers: handles,
        }
    }

    /// The process-global pool shared by every decode session and batch:
    /// `available_parallelism - 1` background workers (the scope-owning
    /// thread always helps, so the machine is exactly saturated).
    pub fn global() -> &'static Arc<WorkerPool> {
        static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cores = thread::available_parallelism().map_or(1, |n| n.get());
            Arc::new(WorkerPool::new(cores.saturating_sub(1)))
        })
    }

    /// Number of background worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Snapshot of the scheduling counters (monotonic; diff two snapshots
    /// with [`PoolMetrics::delta`] to meter a region).
    pub fn metrics(&self) -> PoolMetrics {
        PoolMetrics {
            tasks_executed: self.shared.tasks_executed.load(Ordering::Relaxed),
            tasks_stolen: self.shared.tasks_stolen.load(Ordering::Relaxed),
            idle_wakeups: self.shared.idle_wakeups.load(Ordering::Relaxed),
            scopes_completed: self.shared.scopes_completed.load(Ordering::Relaxed),
            park_nanos: self.shared.park_nanos.load(Ordering::Relaxed),
        }
    }

    /// Runs `f`, which may spawn borrowing tasks on the scope, then
    /// help-executes queued tasks until every task spawned in the scope has
    /// completed. Panics from tasks are resumed on the caller.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&PoolScope<'_, 'env>) -> R) -> R {
        let state = Arc::new(ScopeState::default());
        let scope = PoolScope {
            pool: self,
            state: Arc::clone(&state),
            _env: PhantomData,
        };
        let result = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Wait (helping) even if `f` panicked: spawned tasks still borrow the
        // environment and must finish before unwinding frees it.
        self.help_until_done(&state);
        self.shared.scopes_completed.fetch_add(1, Ordering::Relaxed);
        if let Some(payload) = state.panic.lock().unwrap().take() {
            panic::resume_unwind(payload);
        }
        match result {
            Ok(r) => r,
            Err(payload) => panic::resume_unwind(payload),
        }
    }

    /// Executes queued tasks (any scope's — that is the stealing) until
    /// `state` has no pending tasks left.
    fn help_until_done(&self, state: &Arc<ScopeState>) {
        loop {
            let task = {
                let mut queue = self.shared.queue.lock().unwrap();
                loop {
                    if state.pending.load(Ordering::Acquire) == 0 {
                        return;
                    }
                    if let Some(task) = queue.pop_front() {
                        self.shared.obs.queue_depth.set(queue.len() as i64);
                        break task;
                    }
                    queue = parked_wait(&self.shared, queue, "pool.help_wait");
                }
            };
            execute(&self.shared, task);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            // Flag under the lock so no worker can check-then-sleep around it.
            let _guard = self.shared.queue.lock().unwrap();
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Spawn handle passed to the closure of [`WorkerPool::scope`].
pub struct PoolScope<'pool, 'env> {
    pool: &'pool WorkerPool,
    state: Arc<ScopeState>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> PoolScope<'pool, 'env> {
    /// Queues `task`. The task may borrow from the environment; the owning
    /// [`WorkerPool::scope`] call completes it before returning.
    ///
    /// The task runs under the kernel the spawning thread has active
    /// ([`lad_math::simd::active_kernel`]), whichever thread executes it, so
    /// a [`lad_math::with_kernel`] override around a fanned-out step reaches
    /// the attention its tasks compute.
    pub fn spawn<F>(&self, task: F)
    where
        F: FnOnce() + Send + 'env,
    {
        let kernel = lad_math::simd::active_kernel();
        let boxed: Box<dyn FnOnce() + Send + 'env> =
            Box::new(move || lad_math::with_kernel(kernel, task));
        // SAFETY: the erased borrows live for 'env, and `scope` does not
        // return (completing 'env's borrow region) until `pending` hits zero,
        // i.e. until this task has run to completion or panicked — exactly
        // the guarantee std::thread::scope encodes in types.
        let run: TaskFn = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(boxed)
        };
        let task = Task {
            run,
            scope: Arc::clone(&self.state),
            submitter: thread::current().id(),
        };
        {
            let mut queue = self.pool.shared.queue.lock().unwrap();
            self.state.pending.fetch_add(1, Ordering::AcqRel);
            queue.push_back(task);
            self.pool.shared.obs.queue_depth.set(queue.len() as i64);
        }
        self.pool.shared.work_cv.notify_one();
    }
}

fn execute(shared: &Shared, task: Task) {
    let _task_span = lad_obs::span("pool.task");
    shared.tasks_executed.fetch_add(1, Ordering::Relaxed);
    shared.obs.tasks_executed.inc(1);
    if thread::current().id() != task.submitter {
        shared.tasks_stolen.fetch_add(1, Ordering::Relaxed);
        shared.obs.tasks_stolen.inc(1);
        lad_obs::instant("pool.steal");
    }
    let outcome = panic::catch_unwind(AssertUnwindSafe(task.run));
    if let Err(payload) = outcome {
        let mut slot = task.scope.panic.lock().unwrap();
        slot.get_or_insert(payload);
    }
    {
        // Decrement under the queue lock: scope owners check-then-wait under
        // the same lock, so the final decrement can never slip between their
        // check and their sleep.
        let _guard = shared.queue.lock().unwrap();
        task.scope.pending.fetch_sub(1, Ordering::AcqRel);
    }
    shared.work_cv.notify_all();
}

/// One condvar wait with park accounting: the blocked interval is added to
/// the pool's cumulative `park_nanos` and recorded as a span (`pool.park`
/// for idle workers, `pool.help_wait` for scope owners waiting on remote
/// tasks). The clock reads happen only on the about-to-sleep path, never
/// per task.
fn parked_wait<'q>(
    shared: &Shared,
    queue: std::sync::MutexGuard<'q, VecDeque<Task>>,
    span_name: &'static str,
) -> std::sync::MutexGuard<'q, VecDeque<Task>> {
    let _span = lad_obs::span(span_name);
    let parked_at = Instant::now();
    let queue = shared.work_cv.wait(queue).unwrap();
    let parked_ns = parked_at.elapsed().as_nanos() as u64;
    shared.park_nanos.fetch_add(parked_ns, Ordering::Relaxed);
    shared.obs.park_nanos.inc(parked_ns);
    queue
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let task = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(task) = queue.pop_front() {
                    shared.obs.queue_depth.set(queue.len() as i64);
                    break Some(task);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                queue = parked_wait(shared, queue, "pool.park");
                if queue.is_empty() && !shared.shutdown.load(Ordering::Acquire) {
                    shared.idle_wakeups.fetch_add(1, Ordering::Relaxed);
                    shared.obs.idle_wakeups.inc(1);
                }
            }
        };
        match task {
            Some(task) => execute(shared, task),
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scope_runs_every_task() {
        let pool = WorkerPool::new(2);
        let hits = AtomicUsize::new(0);
        pool.scope(|scope| {
            for _ in 0..32 {
                scope.spawn(|| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 32);
        assert!(pool.metrics().tasks_executed >= 32);
    }

    #[test]
    fn zero_worker_pool_helps_inline() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 0);
        let sum = AtomicUsize::new(0);
        pool.scope(|scope| {
            for i in 0..10usize {
                let sum = &sum;
                scope.spawn(move || {
                    sum.fetch_add(i, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
        // Nobody else could have run them: no steals on an owner-only pool.
        assert_eq!(pool.metrics().tasks_stolen, 0);
    }

    #[test]
    fn nested_scopes_complete_at_any_worker_count() {
        // A task that itself opens a scope and fans out must drain even on a
        // worker-less pool.
        for workers in [0usize, 1, 3] {
            let pool = WorkerPool::new(workers);
            let hits = AtomicUsize::new(0);
            pool.scope(|outer| {
                for _ in 0..4 {
                    outer.spawn(|| {
                        pool.scope(|inner| {
                            for _ in 0..4 {
                                inner.spawn(|| {
                                    hits.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        });
                    });
                }
            });
            assert_eq!(hits.load(Ordering::Relaxed), 16, "workers = {workers}");
        }
    }

    #[test]
    fn scope_returns_closure_value_and_borrows_work() {
        let pool = WorkerPool::new(1);
        let mut out = vec![0usize; 4];
        let total = pool.scope(|scope| {
            for (i, slot) in out.iter_mut().enumerate() {
                scope.spawn(move || {
                    *slot = i + 1;
                });
            }
            "done"
        });
        assert_eq!(total, "done");
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn task_panic_propagates_to_scope_owner() {
        let pool = WorkerPool::new(1);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                scope.spawn(|| panic!("boom in task"));
            });
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("boom in task"), "payload: {msg}");
        // The pool must stay usable after a task panic.
        let ran = AtomicUsize::new(0);
        pool.scope(|scope| {
            scope.spawn(|| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn metrics_delta_is_saturating() {
        let a = PoolMetrics {
            tasks_executed: 5,
            tasks_stolen: 1,
            idle_wakeups: 0,
            scopes_completed: 2,
            park_nanos: 100,
        };
        let b = PoolMetrics {
            tasks_executed: 9,
            tasks_stolen: 1,
            idle_wakeups: 2,
            scopes_completed: 5,
            park_nanos: 350,
        };
        let d = b.delta(a);
        assert_eq!(d.tasks_executed, 4);
        assert_eq!(d.tasks_stolen, 0);
        assert_eq!(d.idle_wakeups, 2);
        assert_eq!(d.scopes_completed, 3);
        assert_eq!(d.park_nanos, 250);
        assert_eq!(a.delta(b), PoolMetrics::default());
    }

    #[test]
    fn scope_counter_advances_per_drained_scope() {
        let pool = WorkerPool::new(1);
        let before = pool.metrics();
        for _ in 0..3 {
            pool.scope(|scope| {
                scope.spawn(|| {});
            });
        }
        assert_eq!(pool.metrics().delta(before).scopes_completed, 3);
    }

    #[test]
    fn idle_workers_accumulate_park_time() {
        let pool = WorkerPool::new(1);
        // Run one task so the worker is definitely up, then leave it idle.
        pool.scope(|scope| {
            scope.spawn(|| {});
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Poke the worker so its current park interval gets accounted; the
        // accounting lands when the worker wakes, so poll briefly.
        pool.scope(|scope| {
            scope.spawn(|| {});
        });
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while pool.metrics().park_nanos < 10_000_000 {
            assert!(
                Instant::now() < deadline,
                "idle worker accumulated only {}ns of park time",
                pool.metrics().park_nanos
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
            pool.shared.work_cv.notify_all();
        }
    }

    #[test]
    fn registry_counters_mirror_pool_metrics() {
        let c = lad_obs::metrics::counter("pool.tasks_executed");
        let before = c.value();
        let pool = WorkerPool::new(1);
        lad_obs::metrics::set_metrics_enabled(true);
        pool.scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {});
            }
        });
        lad_obs::metrics::set_metrics_enabled(false);
        // Other tests may run concurrently and add more, never less.
        assert!(c.value() - before >= 8);
    }

    #[test]
    fn tasks_run_under_the_spawning_threads_kernel() {
        use lad_math::{simd::active_kernel, with_kernel, Kernel};
        // Three tasks meet at one barrier, so at most one of them can run on
        // the helping caller: at least two run on the two workers.
        let pool = WorkerPool::new(2);
        let barrier = std::sync::Barrier::new(3);
        let seen = Mutex::new(Vec::new());
        with_kernel(Kernel::Scalar, || {
            pool.scope(|s| {
                for _ in 0..3 {
                    s.spawn(|| {
                        barrier.wait();
                        seen.lock()
                            .unwrap()
                            .push((thread::current().id(), active_kernel()));
                    });
                }
            });
        });
        let seen = seen.into_inner().unwrap();
        let me = thread::current().id();
        assert!(seen.iter().filter(|(id, _)| *id != me).count() >= 2);
        assert!(seen.iter().all(|&(_, k)| k == Kernel::Scalar), "{seen:?}");
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = Arc::as_ptr(WorkerPool::global());
        let b = Arc::as_ptr(WorkerPool::global());
        assert_eq!(a, b);
    }

    #[test]
    fn workers_steal_tasks_from_the_submitter() {
        let pool = WorkerPool::new(2);
        let before = pool.metrics();
        pool.scope(|scope| {
            for _ in 0..64 {
                scope.spawn(|| {
                    // Enough work that background workers get a chance to
                    // grab some tasks even on a loaded machine.
                    std::hint::black_box((0..500).sum::<usize>());
                });
            }
        });
        let delta = pool.metrics().delta(before);
        assert_eq!(delta.tasks_executed, 64);
        // Steals are scheduling-dependent; just check the counter is sane.
        assert!(delta.tasks_stolen <= 64);
    }
}
