//! A persistent worker pool: parked OS threads reused across launches.
//!
//! The GPU keeps its execution resources initialised between kernel
//! launches; spawning fresh OS threads per launch would be the CPU
//! equivalent of re-creating the CUDA context for every kernel. The pool
//! is the only way a [`crate::grid::Grid`] runs a launch wider than one
//! worker; the executor's retries run on a second pool of the same width
//! (see [`crate::executor`]). The pool parks `width - 1` workers on a
//! condition variable and wakes them per launch; the calling thread always
//! participates as worker 0, so a launch of `parts == 1` never touches
//! the pool at all.
//!
//! Dispatch is epoch-based: the caller publishes a lifetime-erased
//! pointer to the job closure together with a bumped epoch counter, and
//! each worker runs the job for its own fixed worker id. Because the id →
//! work mapping is decided entirely by the caller (contiguous chunk
//! ranges, see [`crate::grid::partition`]), results are bit-identical for
//! any pool width — the pool only changes *who* executes a range, never
//! *which* ranges exist.
//!
//! The epoch protocol assumes one dispatcher at a time, so concurrent
//! `dispatch` calls (the pool is shared by every clone of a
//! [`crate::grid::Grid`], and grids may be used from several threads) are
//! serialized on an internal mutex: the second dispatcher blocks until
//! the first launch has fully completed.
//!
//! Nested launches (a grid call made from inside a running job) execute
//! inline on the calling worker rather than re-entering the pool, which
//! both avoids deadlock and matches the GPU model where a thread block
//! cannot launch a sub-grid on its own resources.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Sentinel for "no worker panicked since the last query".
pub(crate) const NO_PANIC: usize = usize::MAX;

/// The shape every pooled job takes: a function of the worker id.
type Job = dyn Fn(usize) + Sync;

/// A published job: a lifetime-erased pointer plus how many worker ids
/// participate. The caller keeps the closure alive until every
/// participant has checked in, which is what makes the erasure sound.
struct JobSlot {
    job: *const Job,
    parts: usize,
}

// SAFETY: the pointer is only dereferenced while the dispatching caller
// blocks in `dispatch`, keeping the referent alive; the closure itself is
// `Sync` so shared calls from several workers are fine.
unsafe impl Send for JobSlot {}

struct Control {
    epoch: u64,
    slot: Option<JobSlot>,
    /// Pool workers that still have to finish the current epoch's job.
    remaining: usize,
    /// First pool worker that panicked this epoch, with its original
    /// panic payload (preserved so the caller sees the real message,
    /// not a generic "worker panicked").
    panic: Option<(usize, Box<dyn Any + Send>)>,
    shutdown: bool,
}

struct Shared {
    control: Mutex<Control>,
    /// Workers park here waiting for a new epoch (or shutdown).
    work_cv: Condvar,
    /// The dispatching caller parks here waiting for `remaining == 0`.
    done_cv: Condvar,
}

thread_local! {
    /// True while this thread is executing a pooled job — used to run
    /// nested launches inline instead of deadlocking on the pool.
    static IN_LAUNCH: Cell<bool> = const { Cell::new(false) };
}

/// Parked OS threads reused across launches. See the module docs.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    width: usize,
    /// Serializes dispatchers: the epoch/slot/remaining protocol supports
    /// exactly one in-flight launch, but the pool is shared (`&self`,
    /// `Sync`) so concurrent `dispatch` calls must queue here. Held for
    /// the whole publish → run → wait sequence.
    dispatch_lock: Mutex<()>,
    /// Worker id of the most recent panicking launch participant
    /// (`NO_PANIC` when none) — a best-effort diagnostic consumed by the
    /// executor to build `LaunchError`s.
    last_panic: AtomicUsize,
}

impl WorkerPool {
    /// Create a pool that can run jobs `width` wide (the caller counts as
    /// worker 0, so `width - 1` threads are spawned and parked).
    pub fn new(width: usize) -> Self {
        let width = width.max(1);
        let shared = Arc::new(Shared {
            control: Mutex::new(Control {
                epoch: 0,
                slot: None,
                remaining: 0,
                panic: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (1..width)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("parparaw-pool-{id}"))
                    .spawn(move || worker_loop(id, &shared))
                    // Thread spawn only fails on resource exhaustion at
                    // pool construction; there is no partially-built pool
                    // to recover, so aborting here is deliberate.
                    .expect("failed to spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            width,
            dispatch_lock: Mutex::new(()),
            last_panic: AtomicUsize::new(NO_PANIC),
        }
    }

    /// Worker id of the most recent panicking participant, clearing the
    /// slot. Best effort: concurrent launches can overwrite each other,
    /// which only degrades a diagnostic, never correctness.
    pub fn take_last_panic_worker(&self) -> Option<usize> {
        let w = self.last_panic.swap(NO_PANIC, Ordering::Relaxed);
        (w != NO_PANIC).then_some(w)
    }

    /// Number of worker ids this pool can run concurrently (including the
    /// calling thread).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Run `job(w)` once for every worker id `w in 0..parts`.
    ///
    /// The calling thread runs `job(0)` itself; pool workers `1..parts`
    /// run the rest concurrently. Blocks until every participant is done.
    /// Panics propagate to the caller *with the original payload* — a
    /// worker panic is re-raised as-is on the dispatching thread, and the
    /// panicking worker's id is retained for
    /// [`Self::take_last_panic_worker`] (the caller's own payload wins if
    /// both it and a pool worker panicked). `parts` must not exceed
    /// [`Self::width`]. Nested calls from inside a job run all parts
    /// inline, sequentially, on the calling worker. Concurrent calls from
    /// different threads are safe: they serialize, one launch at a time.
    pub fn dispatch<'a>(&self, parts: usize, job: &'a (dyn Fn(usize) + Sync + 'a)) {
        assert!(parts <= self.width, "dispatch wider than the pool");
        if parts == 0 {
            return;
        }
        if parts == 1 || IN_LAUNCH.with(Cell::get) {
            for w in 0..parts {
                job(w);
            }
            return;
        }

        // One launch at a time: a second dispatcher publishing while this
        // one is in flight would clobber slot/remaining and either free
        // the job while workers still hold the erased pointer or drop a
        // chunk range on the floor. Poisoning is survivable — the state
        // below is re-initialised per launch.
        let guard = self
            .dispatch_lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);

        // Erase the job's borrow lifetime; `dispatch` outlives every use
        // of the pointer because it blocks below until all workers report
        // completion.
        let erased: *const Job =
            unsafe { std::mem::transmute(job as *const (dyn Fn(usize) + Sync + 'a)) };
        {
            let mut c = lock_control(&self.shared);
            c.epoch += 1;
            c.slot = Some(JobSlot { job: erased, parts });
            c.remaining = parts - 1;
            c.panic = None;
        }
        self.shared.work_cv.notify_all();

        IN_LAUNCH.with(|f| f.set(true));
        let caller = catch_unwind(AssertUnwindSafe(|| job(0)));
        IN_LAUNCH.with(|f| f.set(false));

        let mut c = lock_control(&self.shared);
        while c.remaining > 0 {
            c = self
                .shared
                .done_cv
                .wait(c)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        c.slot = None;
        let worker_panic = c.panic.take();
        drop(c);
        drop(guard);

        match (caller, worker_panic) {
            (Err(payload), _) => {
                self.last_panic.store(0, Ordering::Relaxed);
                resume_unwind(payload)
            }
            (Ok(()), Some((id, payload))) => {
                self.last_panic.store(id, Ordering::Relaxed);
                resume_unwind(payload)
            }
            (Ok(()), None) => {}
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut c = lock_control(&self.shared);
            c.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("width", &self.width)
            .finish()
    }
}

/// Lock the pool's control state, surviving poisoning. Job panics are
/// caught *before* any control lock is taken, so a poisoned mutex can
/// only mean an infrastructure panic — and the state it guards is
/// re-initialised at every dispatch, so recovery is always safe.
fn lock_control(shared: &Shared) -> std::sync::MutexGuard<'_, Control> {
    shared
        .control
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn worker_loop(id: usize, shared: &Shared) {
    let mut last_epoch = 0u64;
    loop {
        let task = {
            let mut c = lock_control(shared);
            loop {
                if c.shutdown {
                    return;
                }
                if c.epoch != last_epoch {
                    last_epoch = c.epoch;
                    break c
                        .slot
                        .as_ref()
                        .and_then(|s| (id < s.parts).then_some(s.job));
                }
                c = shared
                    .work_cv
                    .wait(c)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let Some(job) = task else { continue };
        IN_LAUNCH.with(|f| f.set(true));
        // SAFETY: the dispatching caller keeps the closure alive until
        // `remaining` hits zero, which only happens after this call
        // returns (or unwinds) below.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job)(id) }));
        IN_LAUNCH.with(|f| f.set(false));
        let mut c = lock_control(shared);
        if let Err(payload) = result {
            // Keep the first panic's payload; later ones are dropped
            // (only one can be re-raised on the dispatcher anyway).
            if c.panic.is_none() {
                c.panic = Some((id, payload));
            }
        }
        c.remaining -= 1;
        if c.remaining == 0 {
            shared.done_cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_worker_id_runs_exactly_once() {
        let pool = WorkerPool::new(4);
        for parts in [1usize, 2, 3, 4] {
            let hits: Vec<AtomicUsize> = (0..parts).map(|_| AtomicUsize::new(0)).collect();
            pool.dispatch(parts, &|w| {
                hits[w].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn reused_across_many_launches() {
        let pool = WorkerPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..500 {
            pool.dispatch(3, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 1500);
    }

    #[test]
    fn jobs_can_borrow_the_callers_stack() {
        let pool = WorkerPool::new(4);
        let data = [1u64, 2, 3, 4];
        let out: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        pool.dispatch(4, &|w| {
            out[w].store(data[w] as usize * 10, Ordering::Relaxed);
        });
        let got: Vec<usize> = out.iter().map(|a| a.load(Ordering::Relaxed)).collect();
        assert_eq!(got, vec![10, 20, 30, 40]);
    }

    #[test]
    fn nested_dispatch_runs_inline() {
        let pool = Arc::new(WorkerPool::new(2));
        let inner_hits = AtomicUsize::new(0);
        let p2 = Arc::clone(&pool);
        pool.dispatch(2, &|_| {
            p2.dispatch(2, &|_| {
                inner_hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(inner_hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn concurrent_dispatchers_serialize() {
        // Two threads share one pool (as two clones of a Grid would) and
        // dispatch concurrently; every launch must run each worker id
        // exactly once, with no launch lost or job freed early.
        let pool = WorkerPool::new(3);
        let rounds = 200usize;
        let per_thread: Vec<AtomicUsize> = (0..2).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|s| {
            for counter in &per_thread {
                let pool = &pool;
                s.spawn(move || {
                    for _ in 0..rounds {
                        // Each dispatcher borrows its own stack data, so a
                        // clobbered launch that let `dispatch` return early
                        // would show up as a lost count (or a crash).
                        let local = AtomicUsize::new(0);
                        pool.dispatch(3, &|_| {
                            local.fetch_add(1, Ordering::Relaxed);
                        });
                        counter.fetch_add(local.load(Ordering::Relaxed), Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(per_thread[0].load(Ordering::Relaxed), rounds * 3);
        assert_eq!(per_thread[1].load(Ordering::Relaxed), rounds * 3);
    }

    #[test]
    fn worker_panic_propagates() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.dispatch(2, &|w| {
                if w == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool survives a panicked launch.
        let ok = AtomicUsize::new(0);
        pool.dispatch(2, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn worker_panic_payload_is_preserved() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.dispatch(2, &|w| {
                if w == 1 {
                    panic!("original message {w}");
                }
            });
        }));
        let payload = result.unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload should be a string");
        assert_eq!(msg, "original message 1");
        assert_eq!(pool.take_last_panic_worker(), Some(1));
        assert_eq!(pool.take_last_panic_worker(), None, "slot is cleared");
    }

    #[test]
    fn caller_panic_propagates() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.dispatch(2, &|w| {
                if w == 0 {
                    panic!("caller boom");
                }
            });
        }));
        assert!(result.is_err());
    }
}
