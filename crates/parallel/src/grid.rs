//! Chunk-grid execution: the CPU analogue of a GPU kernel launch.
//!
//! ParPaRaw assigns one lightweight GPU thread to every fixed-size chunk of
//! the input. On the CPU we model the same shape with a [`Grid`]: a job is a
//! function of a chunk index, and the grid partitions the index space across
//! a configurable number of OS worker threads. Every parallel primitive in
//! this crate is built on top of the grid, so the entire pipeline can be run
//! with any degree of parallelism (including one worker, which executes
//! fully inline and is what the deterministic tests use).
//!
//! Workers live in a persistent [`WorkerPool`] created lazily on the first
//! parallel launch and shared by every clone of the grid — the CPU
//! equivalent of keeping the CUDA context alive between kernels. This is
//! the one dispatch path: a one-worker grid runs inline, every wider
//! launch goes through the pool.

use crate::cancel::LaunchSignal;
use crate::pool::{WorkerPool, NO_PANIC};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A fixed-width pool descriptor for running chunk-indexed jobs.
///
/// `Grid` is cheap to clone; clones share one lazily-created
/// [`WorkerPool`], so a pipeline of many launches pays thread start-up
/// once. Jobs borrow from the caller's stack without `'static` bounds —
/// the same ergonomics a GPU kernel gets by capturing device pointers.
/// The worker → chunk-range assignment is a pure function of `(n,
/// workers)` (see [`partition`]), so results are bit-identical for any
/// worker count.
#[derive(Clone)]
pub struct Grid {
    workers: usize,
    pool: Arc<OnceLock<WorkerPool>>,
    /// Worker id of the most recent panicking launch participant on the
    /// inline path (`NO_PANIC` when none); the pool records into its own
    /// slot. Shared across clones,
    /// best-effort under concurrency — a diagnostic, not a correctness
    /// channel.
    last_panic: Arc<AtomicUsize>,
    /// Abort signal for the launch this grid clone was handed to, set by
    /// the executor only when a cancel token or deadline is configured —
    /// `None` (the default) keeps the hot path free of any polling.
    signal: Option<Arc<LaunchSignal>>,
}

impl std::fmt::Debug for Grid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Grid")
            .field("workers", &self.workers)
            .finish()
    }
}

impl Grid {
    /// Create a grid with `workers` OS threads (clamped to at least 1).
    /// Its pool is built on the first parallel launch.
    pub fn new(workers: usize) -> Self {
        Grid {
            workers: workers.max(1),
            pool: Arc::new(OnceLock::new()),
            last_panic: Arc::new(AtomicUsize::new(NO_PANIC)),
            signal: None,
        }
    }

    /// A clone of this grid carrying `signal`: kernels launched on it
    /// observe cancellation/deadline aborts through
    /// [`Grid::check_abort`]. Shares the clone's pool, so no threads are
    /// re-created.
    pub fn with_signal(&self, signal: Arc<LaunchSignal>) -> Self {
        Grid {
            signal: Some(signal),
            ..self.clone()
        }
    }

    /// Poll the launch's abort signal at chunk granularity.
    ///
    /// Kernels call this with their loop index; every 256th index (plus
    /// index 0) checks the signal and unwinds the attempt with the
    /// [`LaunchAborted`](crate::cancel::LaunchAborted) sentinel when the
    /// token fired or the deadline expired. With no signal configured
    /// (the default) this is a single predictable branch. The grid's own
    /// loops ([`Grid::map_indexed`], [`Grid::run_dynamic`]) poll
    /// automatically; kernels with hand-rolled `run_partitioned` loops
    /// call it explicitly.
    #[inline]
    pub fn check_abort(&self, i: usize) {
        if let Some(signal) = &self.signal {
            if i & 0xFF == 0 {
                signal.poll();
            }
        }
    }

    /// A grid sized to the machine's available parallelism.
    pub fn auto() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Grid::new(n)
    }

    /// Number of worker threads this grid uses.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Worker id of the most recent panicking launch participant,
    /// clearing the slot. Best-effort diagnostic: concurrent launches on
    /// clones of this grid can overwrite each other's entry.
    pub fn take_last_panic_worker(&self) -> Option<usize> {
        let own = self.last_panic.swap(NO_PANIC, Ordering::Relaxed);
        if own != NO_PANIC {
            return Some(own);
        }
        self.pool.get().and_then(WorkerPool::take_last_panic_worker)
    }

    /// Forget any recorded panicking-worker id (called by the executor
    /// before each launch attempt so stale entries don't leak into a
    /// later failure's diagnostics).
    pub fn clear_last_panic(&self) {
        self.last_panic.store(NO_PANIC, Ordering::Relaxed);
        if let Some(pool) = self.pool.get() {
            let _ = pool.take_last_panic_worker();
        }
    }

    /// Record `worker` as the most recent panicking participant.
    fn note_panic(&self, worker: usize) {
        self.last_panic.store(worker, Ordering::Relaxed);
    }

    /// The shared persistent pool, created on first use.
    fn pool(&self) -> &WorkerPool {
        self.pool.get_or_init(|| WorkerPool::new(self.workers))
    }

    /// Split `n` items into one contiguous range per worker.
    ///
    /// All ranges are non-overlapping and cover `0..n`; the first
    /// `n % workers` ranges are one longer so sizes differ by at most one.
    pub fn partition(&self, n: usize) -> Vec<Range<usize>> {
        partition(n, self.workers)
    }

    /// Run `f(worker_id, range)` once per worker, with statically
    /// partitioned contiguous ranges. This is the workhorse used by the
    /// scans and sorts, where each worker owns a contiguous tile.
    pub fn run_partitioned<F>(&self, n: usize, f: F)
    where
        F: Fn(usize, Range<usize>) + Sync,
    {
        let parts = self.partition(n);
        if self.workers == 1 || parts.len() <= 1 {
            for (w, r) in parts.into_iter().enumerate() {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(w, r))) {
                    self.note_panic(w);
                    resume_unwind(payload);
                }
            }
            return;
        }
        let parts = &parts;
        self.pool()
            .dispatch(parts.len(), &|w| f(w, parts[w].clone()));
    }

    /// Run `f(i)` for every `i in 0..n`, dynamically load balanced.
    ///
    /// Items are claimed in blocks of `block` from a shared atomic counter,
    /// which is the right shape when per-item cost is skewed or items must
    /// be claimed in order (e.g. the decoupled look-back scan's tiles).
    pub fn run_dynamic<F>(&self, n: usize, block: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let block = block.max(1);
        if self.workers == 1 {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
                for i in 0..n {
                    self.check_abort(i);
                    f(i);
                }
            })) {
                self.note_panic(0);
                resume_unwind(payload);
            }
            return;
        }
        let next = AtomicUsize::new(0);
        let drain = |_w: usize| loop {
            let start = next.fetch_add(block, Ordering::Relaxed);
            if start >= n {
                break;
            }
            self.check_abort(0);
            let end = (start + block).min(n);
            for i in start..end {
                f(i);
            }
        };
        self.pool().dispatch(self.workers, &drain);
    }

    /// Map every index `0..n` to a value, returning the results in index
    /// order. Each slot is written by exactly one worker, so the output is
    /// deterministic for any worker count.
    pub fn map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send + Default + Clone,
        F: Fn(usize) -> T + Sync,
    {
        let mut out = vec![T::default(); n];
        {
            let slots = SlotWriter::new(&mut out);
            self.run_partitioned(n, |_, range| {
                for i in range {
                    self.check_abort(i);
                    // SAFETY: disjoint ranges per worker; each index is
                    // written exactly once.
                    unsafe { slots.write(i, f(i)) };
                }
            });
        }
        out
    }
}

impl Default for Grid {
    fn default() -> Self {
        Grid::auto()
    }
}

/// Split `n` items into `k` contiguous ranges of near-equal size.
pub fn partition(n: usize, k: usize) -> Vec<Range<usize>> {
    let k = k.max(1);
    let k = k.min(n.max(1));
    let base = n / k;
    let rem = n % k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for w in 0..k {
        let len = base + usize::from(w < rem);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// A shared mutable view of a slice for disjoint-index writes from several
/// workers.
///
/// The grid guarantees each index is handed to exactly one worker, which is
/// what makes the unsafe write sound. This mirrors how GPU kernels write to
/// global memory: the launch geometry, not the type system, guarantees
/// disjointness.
pub struct SlotWriter<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

unsafe impl<T: Send> Sync for SlotWriter<'_, T> {}
unsafe impl<T: Send> Send for SlotWriter<'_, T> {}

impl<'a, T> SlotWriter<'a, T> {
    /// Wrap a slice whose slots will each be written by at most one worker.
    pub fn new(slice: &'a mut [T]) -> Self {
        SlotWriter {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Write `value` into slot `i`, dropping the previous value (slots are
    /// always created initialised — see the buffer-construction sites).
    ///
    /// # Safety
    /// Callers must ensure `i < len`, that the slot holds a valid `T`,
    /// that no two workers write the same slot, and that nobody reads the
    /// slot concurrently.
    pub unsafe fn write(&self, i: usize, value: T) {
        debug_assert!(i < self.len);
        *self.ptr.add(i) = value;
    }

    /// Copy `src` into slots `dst..dst + src.len()` with one memcpy —
    /// the field-granular write the run-scatter partition kernel relies
    /// on instead of per-symbol stores.
    ///
    /// # Safety
    /// Same contract as [`SlotWriter::write`], extended to the whole
    /// destination range: it must lie within the slice and be written by
    /// exactly one worker.
    pub unsafe fn write_slice(&self, dst: usize, src: &[T])
    where
        T: Copy,
    {
        debug_assert!(dst + src.len() <= self.len);
        std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr.add(dst), src.len());
    }

    /// Fill slots `dst..dst + count` with `value` (the run-scatter
    /// kernel's record-tag materialisation: one tag per symbol of a run).
    ///
    /// # Safety
    /// Same contract as [`SlotWriter::write_slice`].
    pub unsafe fn write_fill(&self, dst: usize, count: usize, value: T)
    where
        T: Copy,
    {
        debug_assert!(dst + count <= self.len);
        for i in 0..count {
            *self.ptr.add(dst + i) = value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_everything() {
        for n in [0usize, 1, 2, 7, 64, 1000] {
            for k in [1usize, 2, 3, 8, 13] {
                let parts = partition(n, k);
                let mut next = 0;
                for r in &parts {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, n);
                // Sizes differ by at most one.
                let sizes: Vec<_> = parts.iter().map(|r| r.len()).collect();
                if let (Some(&mx), Some(&mn)) = (sizes.iter().max(), sizes.iter().min()) {
                    assert!(mx - mn <= 1, "n={n} k={k} sizes={sizes:?}");
                }
            }
        }
    }

    #[test]
    fn partition_never_returns_more_ranges_than_items() {
        assert_eq!(partition(2, 8).len(), 2);
        assert_eq!(partition(0, 8).len(), 1);
        assert!(partition(0, 8)[0].is_empty());
    }

    #[test]
    fn map_indexed_is_identity_on_index() {
        for workers in [1, 2, 5] {
            let grid = Grid::new(workers);
            let got = grid.map_indexed(100, |i| i * 3);
            let want: Vec<_> = (0..100).map(|i| i * 3).collect();
            assert_eq!(got, want);
        }
        let got = Grid::new(4).map_indexed(1000, |i| i as u64 * 7);
        let want: Vec<u64> = (0..1000).map(|i| i * 7).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn run_dynamic_visits_each_index_once() {
        use std::sync::atomic::AtomicU32;
        for workers in [1, 3] {
            let grid = Grid::new(workers);
            let hits: Vec<AtomicU32> = (0..257).map(|_| AtomicU32::new(0)).collect();
            grid.run_dynamic(hits.len(), 16, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn run_partitioned_sees_disjoint_ranges() {
        let grid = Grid::new(4);
        let mut seen = vec![false; 1003];
        {
            let slots = SlotWriter::new(&mut seen);
            grid.run_partitioned(1003, |_, range| {
                for i in range {
                    unsafe { slots.write(i, true) };
                }
            });
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn nested_launches_run_inline() {
        // A grid primitive used from inside a grid job must not deadlock
        // the pool.
        let grid = Grid::new(4);
        let sums: Vec<u64> = grid.map_indexed(8, |i| {
            grid.map_indexed(10, |j| (i * 10 + j) as u64).iter().sum()
        });
        let want: Vec<u64> = (0..8u64)
            .map(|i| (0..10u64).map(|j| i * 10 + j).sum())
            .collect();
        assert_eq!(sums, want);
    }

    #[test]
    fn clones_share_one_pool() {
        let grid = Grid::new(3);
        let clone = grid.clone();
        grid.run_partitioned(10, |_, _| {});
        clone.run_partitioned(10, |_, _| {});
        assert!(Arc::ptr_eq(&grid.pool, &clone.pool));
    }

    #[test]
    fn persistent_mode_reports_panicking_worker() {
        let grid = Grid::new(3);
        let result = catch_unwind(AssertUnwindSafe(|| {
            grid.run_partitioned(99, |w, _| {
                if w == 1 {
                    panic!("pool worker {w} down");
                }
            });
        }));
        let payload = result.unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .expect("payload is the original formatted message");
        assert_eq!(msg, "pool worker 1 down");
        assert_eq!(grid.take_last_panic_worker(), Some(1));
        assert_eq!(grid.take_last_panic_worker(), None);
    }

    #[test]
    fn zero_items_is_fine() {
        let grid = Grid::new(4);
        grid.run_partitioned(0, |_, r| assert!(r.is_empty()));
        let v: Vec<u8> = grid.map_indexed(0, |_| 0u8);
        assert!(v.is_empty());
    }
}
