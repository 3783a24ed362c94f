//! The kernel executor: one entry point for every pipeline launch.
//!
//! On the GPU, every kernel launch goes through one driver call that the
//! profiler can observe; the pipeline gets timing, occupancy and byte
//! counts for free. This module gives the CPU pipeline the same property:
//! [`KernelExecutor::launch`] wraps a job with wall-clock timing and a
//! [`LaunchRecord`] carrying the job's self-reported work counters, and
//! appends it to a launch log. Phase timings and the simulated-device
//! cost model are both derived from that log instead of hand-threaded
//! `Instant::now()` bookkeeping.
//!
//! The executor also owns a [`BufferArena`] of reusable scratch buffers
//! keyed by launch label, so steady-state streaming (paper §4.4, one
//! pipeline run per partition) does near-zero allocation.
//!
//! # Fault tolerance
//!
//! A launch is also the executor's fault boundary. Worker panics are
//! caught and converted into a structured [`LaunchError`] carrying the
//! panicking worker id, its chunk range, and the original panic payload
//! text — they never abort the process. A [`RetryPolicy`] re-runs failed
//! launches up to a configurable attempt count. The first attempt runs on
//! the executor's grid; every retry runs on a second, lazily built grid
//! of the same width, whose pool threads are not the ones that failed. A
//! deterministic, SplitMix64-seeded [`FaultInjector`] can fail a
//! configurable fraction of launches *before* the job body runs, so
//! retried launches are byte-identical to clean ones — that is what the
//! fault-injection tests lean on. Attempts, retries on the fallback pool
//! and injected faults are recorded on each [`LaunchRecord`] so phase
//! timings can expose them.

use crate::cancel::{CancelToken, LaunchAborted, LaunchSignal, Watchdog};
use crate::grid::{partition, Grid};
use crate::rng::SplitMix64;
use std::any::Any;
use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Why a launch attempt (and ultimately a [`LaunchError`]) failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// A worker job panicked (the payload text is in
    /// [`LaunchError::message`]).
    Panic,
    /// The [`FaultInjector`] failed the attempt before the job ran.
    Injected,
    /// The watchdog expired the attempt's deadline and the kernel
    /// unwound at its next chunk-granularity poll. Timeouts are retried
    /// like panics, on the executor's fresh fallback pool.
    Timeout {
        /// Wall milliseconds the attempt had run when it unwound (kept as
        /// millis, not `Duration`, so `LaunchError` stays a small `Err`
        /// variant).
        elapsed_ms: u64,
        /// The configured per-launch deadline in milliseconds.
        deadline_ms: u64,
    },
    /// The caller's [`CancelToken`] fired. Never retried: the caller
    /// asked for the abort, so the error surfaces immediately.
    Cancelled,
}

/// A launch that failed all its attempts, as a value instead of a panic.
///
/// Produced by [`KernelExecutor::launch`] when a worker panicked (the
/// original payload text is preserved in `message`) or the
/// [`FaultInjector`] fired, on every attempt the [`RetryPolicy`] allowed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchError {
    /// Label of the failed launch, e.g. `"parse/pass1"`.
    pub label: String,
    /// Total attempts made (including the failing ones).
    pub attempts: u32,
    /// Worker id whose job panicked, when known. `None` for injected
    /// faults and panics on paths that don't track the worker.
    pub worker: Option<usize>,
    /// The chunk range assigned to the panicking worker, when known.
    pub chunk_range: Option<Range<usize>>,
    /// The panic payload rendered as text (the original `panic!` message
    /// when it was a string), or a description of the injected fault.
    pub message: String,
    /// Why the final attempt failed (earlier attempts may have failed
    /// differently — e.g. two timeouts before a cancellation).
    pub kind: FailureKind,
}

impl LaunchError {
    /// Whether this error reports a fired [`CancelToken`].
    pub fn is_cancelled(&self) -> bool {
        self.kind == FailureKind::Cancelled
    }

    /// Whether this error reports an expired launch deadline.
    pub fn is_timeout(&self) -> bool {
        matches!(self.kind, FailureKind::Timeout { .. })
    }
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "launch {:?} failed after {} attempt(s)",
            self.label, self.attempts
        )?;
        if let Some(w) = self.worker {
            write!(f, " (worker {w}")?;
            if let Some(r) = &self.chunk_range {
                write!(f, ", chunks {}..{}", r.start, r.end)?;
            }
            write!(f, ")")?;
        }
        if let FailureKind::Timeout {
            elapsed_ms,
            deadline_ms,
        } = self.kind
        {
            write!(
                f,
                " [timeout: ran {elapsed_ms} ms against a {deadline_ms} ms deadline]"
            )?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for LaunchError {}

/// Render a caught panic payload as text, keeping the original message
/// when it was a `&str` or `String` (the overwhelmingly common case).
fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// How many times [`KernelExecutor::launch`] runs a failed launch.
/// Attempts 2 and later run on the executor's fallback pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per launch (clamped to at least 1). The default
    /// is 1: fail fast, surface the `LaunchError` to the caller.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 1 }
    }
}

impl RetryPolicy {
    /// A policy that runs a launch up to `max_attempts` times in total.
    pub fn attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
        }
    }
}

/// What a firing [`FaultInjector`] does to the launch attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Fail the attempt before the job body runs: exercises the retry
    /// ladder.
    Panic,
    /// Sleep for the given duration *inside* the launch window, after
    /// the watchdog is armed but before the job body runs: exercises the
    /// deadline/timeout ladder deterministically.
    Stall(Duration),
}

/// Deterministically fails (or stalls) a fraction of launches for
/// fault-tolerance testing.
///
/// Each launch *attempt* draws one Bernoulli sample from a seeded
/// [`SplitMix64`]; a firing injector acts before the job body runs, so
/// no partial side effects occur and a later retry produces output
/// byte-identical to a clean run. In [`FaultMode::Panic`] the attempt
/// fails outright; in [`FaultMode::Stall`] it sleeps inside the launch
/// window, so with a deadline configured the watchdog sees a hung
/// kernel. The draw sequence depends only on the seed and the order of
/// launches, which the pipeline keeps deterministic.
#[derive(Debug)]
pub struct FaultInjector {
    rate: f64,
    mode: FaultMode,
    rng: Mutex<SplitMix64>,
    injected: AtomicU64,
}

impl FaultInjector {
    /// An injector failing `rate` (0.0–1.0) of launch attempts, seeded.
    pub fn new(seed: u64, rate: f64) -> Self {
        FaultInjector::with_mode(seed, rate, FaultMode::Panic)
    }

    /// An injector stalling `rate` of launch attempts by `stall`, seeded.
    pub fn stalls(seed: u64, rate: f64, stall: Duration) -> Self {
        FaultInjector::with_mode(seed, rate, FaultMode::Stall(stall))
    }

    fn with_mode(seed: u64, rate: f64, mode: FaultMode) -> Self {
        FaultInjector {
            rate: rate.clamp(0.0, 1.0),
            mode,
            rng: Mutex::new(SplitMix64::new(seed)),
            injected: AtomicU64::new(0),
        }
    }

    /// The configured failure rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// What a firing roll does to the attempt.
    pub fn mode(&self) -> FaultMode {
        self.mode
    }

    /// Total faults injected so far (panics and stalls).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Draw the next sample; `true` means "fault this attempt".
    fn roll(&self) -> bool {
        // The rng mutex is only held for one draw, but survive poisoning
        // anyway: the generator state is valid at every point.
        let fail = self
            .rng
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .chance(self.rate);
        if fail {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        fail
    }
}

/// Work counters a launch job fills in for the cost model; the executor
/// turns them into a [`LaunchRecord`].
///
/// `kernel_launches` starts at 1 (one launch per `launch()` call); jobs
/// that model multi-kernel phases (e.g. count → scan → scatter) bump it.
#[derive(Debug, Clone)]
pub struct LaunchCounters {
    /// Number of simulated GPU kernel launches this job stands for.
    pub kernel_launches: u32,
    /// Bytes read from memory by the launch.
    pub bytes_read: u64,
    /// Bytes written to memory by the launch.
    pub bytes_written: u64,
    /// Data-parallel operations (split across the whole grid).
    pub parallel_ops: u64,
    /// Inherently serial operations (single-thread critical path).
    pub serial_ops: u64,
}

impl Default for LaunchCounters {
    fn default() -> Self {
        LaunchCounters {
            kernel_launches: 1,
            bytes_read: 0,
            bytes_written: 0,
            parallel_ops: 0,
            serial_ops: 0,
        }
    }
}

/// One entry of the executor's launch log.
#[derive(Debug, Clone)]
pub struct LaunchRecord {
    /// Label identifying the kernel, e.g. `"parse/pass1"`. The text
    /// before the first `/` names the pipeline phase.
    pub label: String,
    /// Number of chunks (virtual threads) the launch covered.
    pub n_chunks: usize,
    /// Measured wall time of the launch (total across all attempts).
    pub wall: Duration,
    /// Number of simulated GPU kernel launches.
    pub kernel_launches: u32,
    /// Bytes read from memory.
    pub bytes_read: u64,
    /// Bytes written to memory.
    pub bytes_written: u64,
    /// Data-parallel operations.
    pub parallel_ops: u64,
    /// Inherently serial operations.
    pub serial_ops: u64,
    /// Attempts this launch took (1 = succeeded first try).
    pub attempts: u32,
    /// Whether any attempt ran on the fallback pool (a retry).
    pub degraded: bool,
    /// Faults the [`FaultInjector`] fired against this launch.
    pub injected_faults: u32,
    /// Attempts the watchdog expired (each unwound cooperatively and,
    /// policy permitting, was retried).
    pub timed_out_attempts: u32,
    /// Whether the launch was aborted by a fired [`CancelToken`].
    pub cancelled: bool,
    /// Whether the launch ultimately failed (a [`LaunchError`] was
    /// returned); failed launches still get a log entry so retries and
    /// faults stay observable.
    pub failed: bool,
}

impl LaunchRecord {
    /// The pipeline phase this launch belongs to: the label text before
    /// the first `/` (the whole label if there is none).
    pub fn phase(&self) -> &str {
        self.label.split('/').next().unwrap_or(&self.label)
    }
}

/// Executes pipeline launches on a [`Grid`], recording a [`LaunchRecord`]
/// per launch and pooling scratch buffers in a [`BufferArena`].
///
/// Launches return `Result<R, LaunchError>`: worker panics and injected
/// faults are caught at this boundary and retried per the configured
/// [`RetryPolicy`] before being surfaced as values (see the module docs).
#[derive(Debug)]
pub struct KernelExecutor {
    grid: Grid,
    /// Grid that retries run on, created on first use: same width as
    /// `grid`, with its own pool, so a retry runs on threads other than
    /// the ones that failed. Dropped with the executor.
    fallback: OnceLock<Grid>,
    retry: RetryPolicy,
    fault: Option<FaultInjector>,
    cancel: Option<CancelToken>,
    deadline: Option<Duration>,
    /// Deadline-enforcement thread, spawned on the first launch that
    /// actually has a deadline; dropped (shut down and joined) with the
    /// executor.
    watchdog: OnceLock<Watchdog>,
    log: Mutex<Vec<LaunchRecord>>,
    arena: BufferArena,
}

impl KernelExecutor {
    /// Create an executor that launches on `grid` with the default
    /// (fail-fast) retry policy and no fault injection.
    pub fn new(grid: Grid) -> Self {
        KernelExecutor {
            grid,
            fallback: OnceLock::new(),
            retry: RetryPolicy::default(),
            fault: None,
            cancel: None,
            deadline: None,
            watchdog: OnceLock::new(),
            log: Mutex::new(Vec::new()),
            arena: BufferArena::default(),
        }
    }

    /// Set the retry policy (builder style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enable deterministic fault injection (builder style).
    pub fn with_fault_injection(mut self, seed: u64, rate: f64) -> Self {
        self.fault = Some(FaultInjector::new(seed, rate));
        self
    }

    /// Enable deterministic stall injection (builder style): `rate` of
    /// launch attempts sleep for `stall` inside the launch window, which
    /// with [`Self::with_deadline`] makes the watchdog path testable.
    pub fn with_stall_injection(mut self, seed: u64, rate: f64, stall: Duration) -> Self {
        self.fault = Some(FaultInjector::stalls(seed, rate, stall));
        self
    }

    /// Attach a cancellation token (builder style): when it fires, the
    /// current launch unwinds at its next chunk-granularity poll and
    /// every subsequent launch fails immediately with
    /// [`FailureKind::Cancelled`].
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Enforce a per-launch deadline (builder style): an attempt running
    /// past it is expired by the watchdog thread, unwinds cooperatively,
    /// and is retried per the [`RetryPolicy`] as
    /// [`FailureKind::Timeout`].
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Cap the scratch arena's pooled bytes (builder style); see
    /// [`BufferArena::set_budget`].
    pub fn with_arena_budget(self, bytes: u64) -> Self {
        self.arena.set_budget(Some(bytes));
        self
    }

    /// The cancellation token, when one is attached.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// The per-launch deadline, when one is configured.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The grid launches run on.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The retry policy applied to every launch.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// The fault injector, when one is configured.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.fault.as_ref()
    }

    /// The scratch-buffer arena shared by all launches.
    pub fn arena(&self) -> &BufferArena {
        &self.arena
    }

    /// The grid that attempts 2 and later run on.
    fn fallback_grid(&self) -> &Grid {
        self.fallback.get_or_init(|| Grid::new(self.grid.workers()))
    }

    /// Run `job` as one instrumented, fault-isolated launch.
    ///
    /// The job receives the grid plus a [`LaunchCounters`] to fill in;
    /// the executor measures wall time and appends a [`LaunchRecord`]
    /// labelled `label` covering `n_chunks` chunks to the log. A worker
    /// panic or injected fault fails the attempt; failed attempts are
    /// re-run per the [`RetryPolicy`] (the job must therefore be
    /// idempotent — every pipeline kernel is: each writes its output
    /// slots from scratch). After exhausting attempts the launch returns
    /// a [`LaunchError`] instead of panicking.
    pub fn launch<R>(
        &self,
        label: &str,
        n_chunks: usize,
        job: impl Fn(&Grid, &mut LaunchCounters) -> R,
    ) -> Result<R, LaunchError> {
        let max_attempts = self.retry.max_attempts.max(1);
        if let Some(token) = &self.cancel {
            token.note_launch();
        }
        let start = Instant::now();
        let mut attempts = 0u32;
        let mut injected = 0u32;
        let mut timed_out = 0u32;
        let mut cancelled = false;
        let mut degraded = false;
        let mut last_error: Option<LaunchError> = None;
        let make_error = |attempts: u32, kind: FailureKind, message: String| LaunchError {
            label: label.to_string(),
            attempts,
            worker: None,
            chunk_range: None,
            message,
            kind,
        };
        let outcome = loop {
            attempts += 1;
            // A fired token fails the launch before (and between) any
            // attempts: the caller asked out, so no retry.
            if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                cancelled = true;
                last_error = Some(make_error(
                    attempts,
                    FailureKind::Cancelled,
                    "launch cancelled".to_string(),
                ));
                break None;
            }
            let grid = if attempts > 1 {
                degraded = true;
                self.fallback_grid()
            } else {
                &self.grid
            };
            let mut stall = None;
            if let Some(injector) = &self.fault {
                if injector.roll() {
                    injected += 1;
                    match injector.mode() {
                        FaultMode::Panic => {
                            last_error = Some(make_error(
                                attempts,
                                FailureKind::Injected,
                                "injected fault".to_string(),
                            ));
                            if attempts >= max_attempts {
                                break None;
                            }
                            continue;
                        }
                        FaultMode::Stall(d) => stall = Some(d),
                    }
                }
            }
            // Signals are per-attempt: the watchdog's expired flag must
            // reset between retries. None when neither a token nor a
            // deadline is configured, so the common path stays free of
            // polling (the launched grid is the executor's own).
            let signal = (self.cancel.is_some() || self.deadline.is_some())
                .then(|| Arc::new(LaunchSignal::new(self.cancel.clone())));
            let signal_grid;
            let grid = match &signal {
                Some(s) => {
                    signal_grid = grid.with_signal(Arc::clone(s));
                    &signal_grid
                }
                None => grid,
            };
            let attempt_start = Instant::now();
            if let (Some(deadline), Some(signal)) = (self.deadline, &signal) {
                self.watchdog
                    .get_or_init(Watchdog::new)
                    .arm(Arc::clone(signal), attempt_start + deadline);
            }
            // An injected stall sleeps *inside* the armed window, so a
            // configured deadline sees it as a hung kernel.
            if let Some(d) = stall {
                std::thread::sleep(d);
            }
            let mut counters = LaunchCounters::default();
            grid.clear_last_panic();
            let attempt = catch_unwind(AssertUnwindSafe(|| job(grid, &mut counters)));
            if let Some(dog) = self.watchdog.get() {
                dog.disarm();
            }
            match attempt {
                Ok(out) => break Some((out, counters)),
                Err(payload) => {
                    let aborted = payload.is::<LaunchAborted>();
                    let signal_cancelled = signal.as_ref().is_some_and(|s| s.cancelled());
                    let signal_expired = signal.as_ref().is_some_and(|s| s.expired());
                    if aborted && signal_cancelled {
                        cancelled = true;
                        last_error = Some(make_error(
                            attempts,
                            FailureKind::Cancelled,
                            "launch cancelled".to_string(),
                        ));
                        break None;
                    }
                    if aborted && signal_expired {
                        timed_out += 1;
                        last_error = Some(make_error(
                            attempts,
                            FailureKind::Timeout {
                                elapsed_ms: attempt_start.elapsed().as_millis() as u64,
                                deadline_ms: self.deadline.unwrap_or_default().as_millis() as u64,
                            },
                            "launch deadline exceeded".to_string(),
                        ));
                        if attempts >= max_attempts {
                            break None;
                        }
                        continue;
                    }
                    let worker = grid.take_last_panic_worker();
                    let chunk_range =
                        worker.and_then(|w| partition(n_chunks, grid.workers()).get(w).cloned());
                    last_error = Some(LaunchError {
                        label: label.to_string(),
                        attempts,
                        worker,
                        chunk_range,
                        message: payload_message(payload.as_ref()),
                        kind: FailureKind::Panic,
                    });
                    if attempts >= max_attempts {
                        break None;
                    }
                }
            }
        };
        let wall = start.elapsed();
        let (result, counters) = match outcome {
            Some((out, counters)) => (Ok(out), counters),
            None => {
                let mut err = last_error.unwrap_or_else(|| {
                    make_error(attempts, FailureKind::Panic, "launch failed".to_string())
                });
                err.attempts = attempts;
                (Err(err), LaunchCounters::default())
            }
        };
        // Poison-tolerant: kernel panics are caught before this lock is
        // taken, and a log of complete records is valid at every point.
        self.lock_log().push(LaunchRecord {
            label: label.to_string(),
            n_chunks,
            wall,
            kernel_launches: counters.kernel_launches,
            bytes_read: counters.bytes_read,
            bytes_written: counters.bytes_written,
            parallel_ops: counters.parallel_ops,
            serial_ops: counters.serial_ops,
            attempts,
            degraded,
            injected_faults: injected,
            timed_out_attempts: timed_out,
            cancelled,
            failed: result.is_err(),
        });
        result
    }

    /// Take the accumulated launch log, leaving it empty.
    ///
    /// Callers that reuse one executor across several pipeline runs (the
    /// streaming path) drain the log per run; the arena keeps its buffers.
    pub fn drain_log(&self) -> Vec<LaunchRecord> {
        std::mem::take(&mut *self.lock_log())
    }

    /// Number of records currently in the log.
    pub fn log_len(&self) -> usize {
        self.lock_log().len()
    }

    fn lock_log(&self) -> std::sync::MutexGuard<'_, Vec<LaunchRecord>> {
        self.log
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// One label's type-erased buffers, keyed by the concrete `Vec<T>` type.
type ErasedPool = HashMap<std::any::TypeId, Vec<Box<dyn Any + Send>>>;

/// Reusable scratch buffers keyed by launch label.
///
/// A buffer "taken" from the arena is owned by the caller — the arena
/// keeps no reference to it, so two outstanding takes can never alias.
/// "Putting" it back makes its allocation available to the next take
/// under the same label. Buffers come back cleared but with capacity
/// retained, which is the entire point.
///
/// An optional **budget** ([`BufferArena::set_budget`]) caps the bytes
/// the arena will retain: a put that would push the pooled total past
/// the cap is dropped (freeing the allocation) and counted as a
/// *pressure event*, which the streaming path reads to shrink its
/// partition size instead of allocating past the cap.
pub struct BufferArena {
    /// Pooled buffers keyed by label and then by the concrete `Vec<T>`
    /// type, so one arena serves every element type.
    pools: Mutex<HashMap<String, ErasedPool>>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
    /// Pooled-byte cap; `u64::MAX` means unlimited (the default).
    budget: AtomicU64,
    /// Bytes currently resident in the pools (capacity, not length).
    pooled_bytes: AtomicU64,
    /// Times a put was dropped because pooling it would exceed the
    /// budget. Cumulative — callers watching for pressure (the streaming
    /// degradation path) diff successive reads.
    pressure_events: AtomicU64,
}

impl Default for BufferArena {
    fn default() -> Self {
        BufferArena {
            pools: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            budget: AtomicU64::new(u64::MAX),
            pooled_bytes: AtomicU64::new(0),
            pressure_events: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for BufferArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (hits, misses) = self.stats();
        f.debug_struct("BufferArena")
            .field("hits", &hits)
            .field("misses", &misses)
            .finish_non_exhaustive()
    }
}

impl BufferArena {
    /// [`BufferArena::take_vec`] for byte buffers.
    pub fn take_u8(&self, label: &str) -> Vec<u8> {
        self.take_vec(label)
    }

    /// [`BufferArena::put_vec`] for byte buffers.
    pub fn put_u8(&self, label: &str, buf: Vec<u8>) {
        self.put_vec(label, buf)
    }

    /// [`BufferArena::take_vec`] for `u32` buffers.
    pub fn take_u32(&self, label: &str) -> Vec<u32> {
        self.take_vec(label)
    }

    /// [`BufferArena::put_vec`] for `u32` buffers.
    pub fn put_u32(&self, label: &str, buf: Vec<u32>) {
        self.put_vec(label, buf)
    }

    /// Take a cleared scratch `Vec<T>` for `label`, reusing a previously
    /// returned one (and its capacity) when available.
    pub fn take_vec<T: Send + 'static>(&self, label: &str) -> Vec<T> {
        // Arena locks are never held across user code; tolerate
        // poisoning so one infrastructure panic cannot wedge reuse.
        let mut pool = self
            .pools
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match pool
            .get_mut(label)
            .and_then(|by_ty| by_ty.get_mut(&std::any::TypeId::of::<Vec<T>>()))
            .and_then(Vec::pop)
        {
            Some(boxed) => {
                // Invariant: this slot only ever holds `Vec<T>` (TypeId key).
                let mut buf = *boxed.downcast::<Vec<T>>().expect("pool keyed by TypeId");
                buf.clear();
                self.note_take(buf.capacity() as u64 * std::mem::size_of::<T>() as u64);
                buf
            }
            None => {
                self.misses
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Vec::new()
            }
        }
    }

    /// Return a scratch `Vec<T>` to the pool for `label` so a later take
    /// can reuse its allocation. Over-budget returns are dropped instead
    /// of pooled (see [`BufferArena::set_budget`]).
    pub fn put_vec<T: Send + 'static>(&self, label: &str, buf: Vec<T>) {
        if buf.capacity() == 0 {
            return;
        }
        if !self.note_put(buf.capacity() as u64 * std::mem::size_of::<T>() as u64) {
            return;
        }
        self.pools
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .entry(label.to_string())
            .or_default()
            .entry(std::any::TypeId::of::<Vec<T>>())
            .or_default()
            .push(Box::new(buf));
    }

    /// Record a pool hit handing out `bytes` of pooled capacity.
    fn note_take(&self, bytes: u64) {
        self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // Saturating: budgets can be installed while buffers are out.
        let _ = self
            .pooled_bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                Some(b.saturating_sub(bytes))
            });
    }

    /// Account a put of `bytes`; returns whether the buffer may be
    /// pooled (`false` = over budget: drop it and count the pressure).
    fn note_put(&self, bytes: u64) -> bool {
        let budget = self.budget.load(Ordering::Relaxed);
        let pooled = self.pooled_bytes.load(Ordering::Relaxed);
        if pooled.saturating_add(bytes) > budget {
            self.pressure_events.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        self.pooled_bytes.fetch_add(bytes, Ordering::Relaxed);
        true
    }

    /// Budget-capped arena (builder style); see
    /// [`BufferArena::set_budget`].
    pub fn with_budget(self, bytes: u64) -> Self {
        self.set_budget(Some(bytes));
        self
    }

    /// Cap (or uncap, with `None`) the bytes of buffer capacity the
    /// arena retains. Takes and the budget check count *capacity*, the
    /// allocation actually held. Already-pooled buffers are not evicted;
    /// the cap bites as buffers come back.
    pub fn set_budget(&self, bytes: Option<u64>) {
        self.budget
            .store(bytes.unwrap_or(u64::MAX), Ordering::Relaxed);
    }

    /// The configured budget, when one is set.
    pub fn budget(&self) -> Option<u64> {
        match self.budget.load(Ordering::Relaxed) {
            u64::MAX => None,
            b => Some(b),
        }
    }

    /// Bytes of buffer capacity currently pooled.
    pub fn pooled_bytes(&self) -> u64 {
        self.pooled_bytes.load(Ordering::Relaxed)
    }

    /// Cumulative count of puts dropped for exceeding the budget.
    pub fn pressure_events(&self) -> u64 {
        self.pressure_events.load(Ordering::Relaxed)
    }

    /// `(hits, misses)`: how many takes reused a pooled buffer vs had to
    /// allocate fresh. Used by tests and the steady-state-streaming bench.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(std::sync::atomic::Ordering::Relaxed),
            self.misses.load(std::sync::atomic::Ordering::Relaxed),
        )
    }

    /// Zero the hit/miss counters so per-run reports start from a known
    /// state. Called by the pipeline wherever the launch log is drained;
    /// pooled buffers, the budget, and the cumulative pressure counter
    /// are untouched.
    pub fn reset_stats(&self) {
        self.hits.store(0, std::sync::atomic::Ordering::Relaxed);
        self.misses.store(0, std::sync::atomic::Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_returns_job_result_and_logs() {
        let exec = KernelExecutor::new(Grid::new(2));
        let sum = exec
            .launch("test/sum", 4, |grid, c| {
                c.bytes_read = 16;
                grid.map_indexed(4, |i| i as u64).iter().sum::<u64>()
            })
            .unwrap();
        assert_eq!(sum, 6);
        let log = exec.drain_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].label, "test/sum");
        assert_eq!(log[0].n_chunks, 4);
        assert_eq!(log[0].kernel_launches, 1);
        assert_eq!(log[0].bytes_read, 16);
        assert_eq!(log[0].phase(), "test");
        assert_eq!(log[0].attempts, 1);
        assert!(!log[0].degraded);
        assert!(!log[0].failed);
        assert_eq!(exec.log_len(), 0);
    }

    #[test]
    fn launch_log_order_is_deterministic_across_worker_counts() {
        let labels = ["parse/pass1", "scan/context", "tag", "partition"];
        let mut logs = Vec::new();
        for workers in [1usize, 2, 8] {
            let exec = KernelExecutor::new(Grid::new(workers));
            for label in labels {
                exec.launch(label, 10, |grid, _| grid.map_indexed(10, |i| i).len())
                    .unwrap();
            }
            logs.push(
                exec.drain_log()
                    .into_iter()
                    .map(|r| (r.label, r.n_chunks))
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(logs[0], logs[1]);
        assert_eq!(logs[0], logs[2]);
    }

    #[test]
    fn worker_panic_becomes_launch_error_with_payload() {
        let exec = KernelExecutor::new(Grid::new(3));
        let err = exec
            .launch("test/panic", 9, |grid, _| {
                grid.run_partitioned(9, |w, _| {
                    if w == 1 {
                        panic!("chunk exploded: w={w}");
                    }
                });
            })
            .unwrap_err();
        assert_eq!(err.label, "test/panic");
        assert_eq!(err.attempts, 1);
        assert_eq!(err.worker, Some(1));
        assert_eq!(err.chunk_range, Some(3..6));
        assert_eq!(err.message, "chunk exploded: w=1");
        let log = exec.drain_log();
        assert!(log[0].failed);
        // The process survives: the executor keeps launching.
        assert_eq!(exec.launch("test/ok", 1, |_, _| 7).unwrap(), 7);
    }

    #[test]
    fn retry_recovers_from_transient_panic() {
        use std::sync::atomic::AtomicU32;
        let exec = KernelExecutor::new(Grid::new(2)).with_retry(RetryPolicy::attempts(3));
        let tries = AtomicU32::new(0);
        let out = exec
            .launch("test/flaky", 4, |_, _| {
                if tries.fetch_add(1, Ordering::Relaxed) < 2 {
                    panic!("transient");
                }
                42u32
            })
            .unwrap();
        assert_eq!(out, 42);
        let log = exec.drain_log();
        assert_eq!(log.len(), 1, "one record per launch, not per attempt");
        assert_eq!(log[0].attempts, 3);
        assert!(!log[0].failed);
    }

    #[test]
    fn retry_runs_on_a_fresh_pool() {
        use std::thread::ThreadId;
        let exec = KernelExecutor::new(Grid::new(2)).with_retry(RetryPolicy::attempts(2));
        // Worker 1 panics on its first run; the retry must hand worker 1
        // to a thread other than the one that failed.
        let seen: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
        let out = exec
            .launch("test/retry", 2, |grid, _| {
                grid.run_partitioned(2, |w, _| {
                    if w != 1 {
                        return;
                    }
                    let first = {
                        let mut seen = seen.lock().unwrap();
                        seen.push(std::thread::current().id());
                        seen.len() == 1
                    };
                    // The lock is released above, so the retry does not
                    // trip over a poisoned mutex.
                    if first {
                        panic!("pool worker is wedged");
                    }
                });
                "recovered"
            })
            .unwrap();
        assert_eq!(out, "recovered");
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 2);
        assert_ne!(seen[0], seen[1], "the retry reused the failed thread");
        let log = exec.drain_log();
        assert!(log[0].degraded);
        assert_eq!(log[0].attempts, 2);
    }

    #[test]
    fn fault_injection_is_deterministic_and_retried() {
        let run = |seed: u64| {
            let exec = KernelExecutor::new(Grid::new(2))
                .with_retry(RetryPolicy::attempts(8))
                .with_fault_injection(seed, 0.5);
            let mut outs = Vec::new();
            for i in 0..20u64 {
                outs.push(exec.launch("test/fi", 1, |_, _| i * 3).unwrap());
            }
            let faults: u32 = exec.drain_log().iter().map(|r| r.injected_faults).sum();
            (outs, faults)
        };
        let (a, fa) = run(99);
        let (b, fb) = run(99);
        assert_eq!(a, b, "same seed, same outcomes");
        assert_eq!(fa, fb, "same seed, same fault positions");
        assert!(fa > 0, "a 50% injector over 20 launches must fire");
        let want: Vec<u64> = (0..20).map(|i| i * 3).collect();
        assert_eq!(a, want, "retries make faults invisible in the output");
    }

    #[test]
    fn injector_rate_one_exhausts_attempts() {
        let exec = KernelExecutor::new(Grid::new(2))
            .with_retry(RetryPolicy::attempts(3))
            .with_fault_injection(1, 1.0);
        let err = exec.launch("test/doomed", 4, |_, _| ()).unwrap_err();
        assert_eq!(err.attempts, 3);
        assert_eq!(err.message, "injected fault");
        assert_eq!(err.worker, None);
        let log = exec.drain_log();
        assert!(log[0].failed);
        assert_eq!(log[0].injected_faults, 3);
    }

    #[test]
    fn arena_reuses_capacity_across_launches() {
        let arena = BufferArena::default();
        let mut buf = arena.take_u8("tag");
        buf.extend_from_slice(&[1, 2, 3, 4]);
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        arena.put_u8("tag", buf);

        let again = arena.take_u8("tag");
        assert!(again.is_empty(), "reused buffers come back cleared");
        assert_eq!(again.capacity(), cap);
        assert_eq!(again.as_ptr(), ptr, "same allocation handed back");
        assert_eq!(arena.stats(), (1, 1));
    }

    #[test]
    fn arena_never_aliases_live_buffers() {
        let arena = BufferArena::default();
        let mut a = arena.take_u32("scan");
        let mut b = arena.take_u32("scan");
        a.resize(100, 7);
        b.resize(100, 9);
        assert_ne!(a.as_ptr(), b.as_ptr());
        assert!(a.iter().all(|&x| x == 7));
        assert!(b.iter().all(|&x| x == 9));

        // Different labels are distinct pools.
        a.clear();
        a.shrink_to(0);
        arena.put_u32("scan", a);
        let c = arena.take_u32("other-label");
        assert_eq!(c.capacity(), 0, "label 'other-label' has no pooled buffer");
    }

    #[test]
    fn arena_ignores_zero_capacity_returns() {
        let arena = BufferArena::default();
        arena.put_vec::<u64>("x", Vec::new());
        assert_eq!(arena.take_vec::<u64>("x").capacity(), 0);
        let (hits, _) = arena.stats();
        assert_eq!(hits, 0);
    }

    #[test]
    fn arena_reset_stats_zeroes_counters_only() {
        let arena = BufferArena::default();
        let buf = arena.take_u8("a"); // miss
        arena.put_u8("a", {
            let mut b = buf;
            b.push(1);
            b
        });
        let _ = arena.take_u8("a"); // hit
        assert_ne!(arena.stats(), (0, 0));
        arena.reset_stats();
        assert_eq!(arena.stats(), (0, 0));
        // The pooled allocation survived the reset... nothing pooled now
        // (the hit take still holds it), but a put still pools fine.
        arena.put_u8("a", vec![1, 2, 3]);
        assert_eq!(arena.stats(), (0, 0), "puts don't count");
        assert_eq!(arena.take_u8("a").capacity(), 3);
    }

    #[test]
    fn arena_budget_drops_oversized_puts_and_counts_pressure() {
        let arena = BufferArena::default().with_budget(64);
        arena.put_u8("big", Vec::with_capacity(100));
        assert_eq!(arena.pressure_events(), 1, "over-budget put is dropped");
        assert_eq!(arena.pooled_bytes(), 0);
        assert_eq!(arena.take_u8("big").capacity(), 0, "nothing was pooled");

        arena.put_u8("small", Vec::with_capacity(40));
        assert_eq!(arena.pooled_bytes(), 40);
        // A second buffer that would exceed the cap is dropped; u32 puts
        // count 4 bytes per element against the same budget.
        arena.put_u32("small32", Vec::with_capacity(10));
        assert_eq!(arena.pressure_events(), 2);
        // Taking the pooled buffer releases its bytes again.
        assert_eq!(arena.take_u8("small").capacity(), 40);
        assert_eq!(arena.pooled_bytes(), 0);
        arena.put_u32("small32", Vec::with_capacity(10));
        assert_eq!(arena.pooled_bytes(), 40);
    }

    #[test]
    fn cancelled_token_fails_launch_without_running_job() {
        let token = CancelToken::new();
        token.cancel();
        let exec = KernelExecutor::new(Grid::new(2))
            .with_retry(RetryPolicy::attempts(5))
            .with_cancel(token);
        let err = exec.launch("test/cancel", 4, |_, _| 1).unwrap_err();
        assert!(err.is_cancelled());
        assert_eq!(err.attempts, 1, "cancellation is never retried");
        let log = exec.drain_log();
        assert!(log[0].cancelled);
        assert!(log[0].failed);
    }

    #[test]
    fn token_fired_mid_kernel_unwinds_cooperatively() {
        let token = CancelToken::new();
        let exec = KernelExecutor::new(Grid::new(2)).with_cancel(token.clone());
        let err = exec
            .launch("test/mid", 10_000, |grid, _| {
                grid.map_indexed(10_000, |i| {
                    if i == 300 {
                        token.cancel();
                    }
                    i as u64
                })
            })
            .unwrap_err();
        assert!(err.is_cancelled());
        // The executor (and its pool) survives; later launches on a
        // fresh executor sharing nothing still run.
        let exec2 = KernelExecutor::new(Grid::new(2));
        assert_eq!(exec2.launch("test/ok", 1, |_, _| 5).unwrap(), 5);
    }

    #[test]
    fn countdown_token_fires_at_exact_launch() {
        let token = CancelToken::after_launches(3);
        let exec = KernelExecutor::new(Grid::new(1)).with_cancel(token);
        assert!(exec.launch("test/1", 1, |_, _| ()).is_ok());
        assert!(exec.launch("test/2", 1, |_, _| ()).is_ok());
        let err = exec.launch("test/3", 1, |_, _| ()).unwrap_err();
        assert!(err.is_cancelled());
    }

    #[test]
    fn deadline_times_out_hung_kernel_and_retry_recovers() {
        use std::sync::atomic::AtomicU32;
        let exec = KernelExecutor::new(Grid::new(1))
            .with_retry(RetryPolicy::attempts(3))
            .with_deadline(Duration::from_millis(10));
        let tries = AtomicU32::new(0);
        let out = exec
            .launch("test/hung", 1024, |grid, _| {
                let first = tries.fetch_add(1, Ordering::Relaxed) == 0;
                grid.map_indexed(1024, |i| {
                    if first && i == 100 {
                        // Hang only the first attempt, between polls; the
                        // poll at the next 256-chunk boundary unwinds it.
                        std::thread::sleep(Duration::from_millis(60));
                    }
                    i as u32
                })
                .len()
            })
            .unwrap();
        assert_eq!(out, 1024);
        let log = exec.drain_log();
        assert!(log[0].timed_out_attempts >= 1, "first attempt timed out");
        assert!(log[0].attempts >= 2);
        assert!(!log[0].failed);
    }

    #[test]
    fn deadline_exhausts_attempts_into_timeout_error() {
        let exec = KernelExecutor::new(Grid::new(1))
            .with_retry(RetryPolicy::attempts(2))
            .with_deadline(Duration::from_millis(5));
        let err = exec
            .launch("test/always-hung", 512, |grid, _| {
                grid.map_indexed(512, |i| {
                    if i == 0 {
                        std::thread::sleep(Duration::from_millis(40));
                    }
                    i
                })
                .len()
            })
            .unwrap_err();
        assert!(err.is_timeout());
        assert_eq!(err.attempts, 2);
        match err.kind {
            FailureKind::Timeout {
                elapsed_ms,
                deadline_ms,
            } => {
                assert_eq!(deadline_ms, 5);
                assert!(elapsed_ms >= deadline_ms);
            }
            k => panic!("wrong kind {k:?}"),
        }
        assert!(err.to_string().contains("timeout"), "{err}");
        let log = exec.drain_log();
        assert_eq!(log[0].timed_out_attempts, 2);
    }

    #[test]
    fn stall_injection_is_deterministic_and_watchdog_recovers_it() {
        // The deadline sits far above an unstalled 512-item launch, even
        // on a loaded host, and far below the
        // stall: only the injected stalls may time out, so the count is a
        // function of the seed alone.
        let run = |seed: u64| {
            let exec = KernelExecutor::new(Grid::new(2))
                .with_retry(RetryPolicy::attempts(8))
                .with_deadline(Duration::from_millis(50))
                .with_stall_injection(seed, 0.4, Duration::from_millis(200));
            let mut outs = Vec::new();
            for i in 0..10u64 {
                outs.push(
                    exec.launch("test/stall", 512, |grid, _| {
                        grid.map_indexed(512, |j| j as u64).len() as u64 + i
                    })
                    .unwrap(),
                );
            }
            let log = exec.drain_log();
            let timeouts: u32 = log.iter().map(|r| r.timed_out_attempts).sum();
            (outs, timeouts)
        };
        let (a, ta) = run(1234);
        let (b, tb) = run(1234);
        assert_eq!(a, b, "same seed, same outcomes");
        assert_eq!(ta, tb, "same seed, same timeout positions");
        assert!(ta > 0, "a 40% stall injector over 10 launches must fire");
        let want: Vec<u64> = (0..10).map(|i| 512 + i).collect();
        assert_eq!(a, want, "timeouts + retries are invisible in the output");
    }

    #[test]
    fn no_token_no_deadline_means_no_signal_grid() {
        // The hot path must hand kernels the executor's own grid (no
        // per-attempt clone) when no recovery feature is configured.
        let exec = KernelExecutor::new(Grid::new(1));
        exec.launch("test/plain", 1, |grid, _| {
            grid.check_abort(0); // must be a no-op
        })
        .unwrap();
    }
}
