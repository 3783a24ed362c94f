//! End-to-end streaming (paper §4.4, Fig. 7).
//!
//! Inputs that do not fit device memory (or arrive from the host) are
//! split into partitions that are *transferred*, *parsed*, and *returned*
//! in a double-buffered pipeline so the three stages of different
//! partitions overlap. The incomplete record at the end of each partition
//! is carried over and prepended to the next one.
//!
//! On this host the input is already in memory, so there is nothing to
//! transfer: one crate-private `StreamCursor` parses windows of the
//! caller's input in place, each window being the carry (bytes already in
//! the input) plus the next partition. The cursor owns all that carries
//! between partitions (the carry's offset, header, frozen schema,
//! stream-global diagnostics and `skip_records`, the arena-budget ladder,
//! the [`Checkpoint`]). [`Parser::parse_stream_resumable`] and
//! [`Parser::partitions`] run the same cursor step; they differ only in
//! whether the partitions are collected or yielded.
//!
//! As the paper overlaps whole partitions rather than splitting each one,
//! a step parses a batch of windows side by side on the stream's worker
//! pool, each window a 1-worker parse on its worker's own executor (its
//! own arena, the caller's retry policy, deadline, fault injection, cancel
//! token and memory budget). A window needs only where its carry starts,
//! which its predecessor knows once its pass 2 is done, so each window's
//! pass 2 overlaps its predecessor's tagging, partition and convert. A
//! batch commits in window order and all or nothing, so a fired cancel
//! token stops every entry point at one [`Checkpoint`].
//!
//! Each window is one [`Parser::parse`]-style run, so a stream recovers
//! from launch faults exactly as `parse` does: through the executor's
//! retries (each on a fresh pool), under the caller's deadline, budget
//! and fault injector. A launch error that outlives the retries ends the
//! stream like a fired cancel token, at the last [`Checkpoint`].
//!
//! [`Parser::model_stream`] runs the same cursor, with the same batches,
//! on the paper's per-chunk grid (see [`crate::model`]), so the simulated
//! device can replay the Fig. 7 transfer/parse/return overlap over the
//! PCIe link model
//! ([`StreamModel::streaming_plan`](crate::StreamModel::streaming_plan)).

use crate::diag::RecordDiagnostic;
use crate::error::ParseError;
use crate::options::{ErrorPolicy, ParserOptions};
use crate::pipeline::{split_header, Advance, Parsed, Parser};
use crate::timings::PhaseTimings;
use parparaw_columnar::{Schema, Table};
use parparaw_device::WorkProfile;
use parparaw_parallel::{Grid, KernelExecutor};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The partition-size degradation floor: under arena budget pressure the
/// stream halves its effective partition size, but never below
/// `min(initial_partition_size, PARTITION_FLOOR_BYTES)`.
const PARTITION_FLOOR_BYTES: usize = 4096;

/// Measurements for one streamed partition.
#[derive(Debug, Clone)]
pub struct PartitionReport {
    /// New input bytes in this partition's window: the modelled
    /// host-to-device transfer (the carry is already on the device).
    pub input_bytes: u64,
    /// Bytes of the carry prepended from the previous partition.
    pub carry_bytes: u64,
    /// Columnar output bytes returned.
    pub output_bytes: u64,
    /// Wall-clock parse time on this host. Windows parse side by side, so
    /// the partitions' `parse_wall`s overlap and their sum can exceed the
    /// stream's [`StreamedOutput::wall`].
    pub parse_wall: Duration,
    /// Records produced by this partition.
    pub records: u64,
    /// This partition's phase wall times and its launches' retries,
    /// degradations, injected faults and timeouts.
    pub timings: PhaseTimings,
    /// Whether arena budget pressure observed after this partition caused
    /// the stream to halve its effective partition size.
    pub budget_degraded: bool,
    /// The effective partition size in force after this partition (equal
    /// to the requested size until budget pressure degrades it).
    pub partition_size: usize,
}

/// The result of a streamed parse.
#[derive(Debug)]
pub struct StreamedOutput {
    /// The concatenated table across all partitions.
    pub table: Table,
    /// Per-partition measurements, in order.
    pub partitions: Vec<PartitionReport>,
    /// Total rejected records.
    pub rejected_records: u64,
    /// Per-record diagnostics across the stream, with record indices and
    /// byte offsets remapped to the whole input (each partition's cap is
    /// set by the error policy; overflow lands in
    /// [`StreamedOutput::dropped_diagnostics`]).
    pub diagnostics: Vec<RecordDiagnostic>,
    /// Diagnostics dropped at the per-partition cap.
    pub dropped_diagnostics: u64,
    /// End-to-end wall-clock time of the stream on this host. The
    /// partitions parse side by side, so the sum of their
    /// [`PartitionReport::parse_wall`]s can exceed it.
    pub wall: Duration,
}

impl StreamedOutput {
    /// Total launch retries across all partitions.
    pub fn total_retries(&self) -> u64 {
        self.partitions.iter().map(|p| p.timings.retries).sum()
    }

    /// Total injected faults across all partitions.
    pub fn total_injected_faults(&self) -> u64 {
        self.partitions
            .iter()
            .map(|p| p.timings.injected_faults)
            .sum()
    }

    /// Total launch attempts unwound by the deadline watchdog.
    pub fn total_timeouts(&self) -> u64 {
        self.partitions.iter().map(|p| p.timings.timeouts).sum()
    }

    /// Number of partitions after which arena budget pressure halved the
    /// effective partition size.
    pub fn budget_degradations(&self) -> u64 {
        self.partitions.iter().filter(|p| p.budget_degraded).count() as u64
    }
}

/// The resume point of an interrupted stream: the last fully-emitted
/// partition boundary plus the stream-global offsets needed to keep row
/// indices and diagnostic byte offsets identical to an uninterrupted run.
///
/// A checkpoint only advances once the stream's schema is *fixed* — either
/// configured explicitly or frozen from the first partition that produced
/// rows. Before that point it stays at the stream start (replaying
/// zero-row, fully-carried partitions is free and guarantees the resumed
/// run infers the same schema an uninterrupted run would have).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Byte offset into the original input where the resumed run starts
    /// reading (the first byte not yet covered by an emitted partition —
    /// carry-over bytes are re-read from the input itself).
    pub resume_offset: u64,
    /// Rows emitted before this checkpoint; seeds the resumed run's
    /// stream-global record indices for diagnostics.
    pub rows_emitted: u64,
    /// Records consumed before this checkpoint, skipped ones included;
    /// seeds the resumed run's stream-global `skip_records` indices.
    pub records_consumed: u64,
    /// Partitions emitted before this checkpoint (informational).
    pub partitions_emitted: u64,
    /// The effective partition size in force at the checkpoint, so budget
    /// degradations survive the restart.
    pub partition_size: usize,
    /// Whether the stream header was already consumed.
    pub header_done: bool,
    /// Column names captured from the header (when `header_done`).
    pub header_names: Option<Vec<String>>,
    /// The raw-width schema frozen from the first row-producing partition
    /// (`None` when the parser was configured with an explicit schema,
    /// which the resumed run re-reads from its own options).
    pub schema: Option<Schema>,
}

/// A stream that stopped early — cancellation, a launch failure its
/// retries did not recover (an exhausted deadline, say), or a
/// strict-policy memory-budget failure — carrying both the work already
/// completed and the [`Checkpoint`] to resume from.
///
/// Boxed in results (`Result<_, Box<StreamInterrupted>>`) because it owns
/// the completed partitions' table.
#[derive(Debug)]
pub struct StreamInterrupted {
    /// Why the stream stopped.
    pub error: ParseError,
    /// Everything emitted before the interruption (tables, reports,
    /// diagnostics — all stream-global, all final).
    pub completed: StreamedOutput,
    /// Where [`Parser::parse_stream_resumable`] should pick up.
    pub checkpoint: Checkpoint,
}

impl std::fmt::Display for StreamInterrupted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stream interrupted after {} partition(s) ({} rows emitted): {}",
            self.completed.partitions.len(),
            self.checkpoint.rows_emitted,
            self.error
        )
    }
}

impl std::error::Error for StreamInterrupted {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// One partition's output from the cursor, diagnostics stream-global.
pub(crate) struct Partition {
    table: Table,
    pub(crate) report: PartitionReport,
    /// The work profile of every launch that parsed the partition.
    pub(crate) profiles: Vec<WorkProfile>,
    diagnostics: Vec<RecordDiagnostic>,
    rejected: u64,
    dropped_diagnostics: u64,
    /// Where a resumed stream restarts once this partition is emitted.
    checkpoint: Checkpoint,
    /// This is the stream's last partition.
    is_last: bool,
}

/// Windows per worker in one batch. A batch drains its pipeline before it
/// commits, so workers idle at each batch's start and end; more windows
/// per batch spread that over more work, but hold more parsed output
/// before it is emitted and coarsen the checkpoint after a cancel. On 16
/// MiB of yelp in 256 KiB windows on 2 workers (a 2-vCPU host), 4 windows
/// per worker took 90 ms, 8 took 77–84 ms and 16 no less (EXPERIMENTS.md).
const WINDOWS_PER_WORKER: usize = 8;

/// One window's new bytes `pos..end`. Its carry starts where its
/// predecessor's run left the stream, which the window learns only once
/// that run's pass 2 is done.
struct Cut {
    pos: usize,
    end: usize,
    /// Bytes of the stream header split off the window's front; they
    /// count as carry.
    header: usize,
}

/// Where the stream stands before a window.
#[derive(Debug, Clone, Copy)]
struct Position {
    resume_offset: u64,
    records_consumed: u64,
    rows_emitted: u64,
}

impl Position {
    fn of(c: &Checkpoint) -> Self {
        Position {
            resume_offset: c.resume_offset,
            records_consumed: c.records_consumed,
            rows_emitted: c.rows_emitted,
        }
    }

    /// Where the stream stands after a window of `work_len` bytes starting
    /// here.
    fn after(self, work_len: usize, a: Advance) -> Self {
        Position {
            resume_offset: self.resume_offset + (work_len - a.carry_len) as u64,
            records_consumed: self.records_consumed + a.records,
            rows_emitted: self.rows_emitted + a.rows,
        }
    }

    fn apply(self, c: &mut Checkpoint) {
        c.resume_offset = self.resume_offset;
        c.records_consumed = self.records_consumed;
        c.rows_emitted = self.rows_emitted;
    }
}

/// Hands each window of a batch its start position: slot `i` is where
/// window `i` starts, published by window `i - 1` as soon as its pass 2
/// is done. Windows are claimed in order, so a worker only ever waits on
/// a window a running worker already holds.
struct Relay {
    next: AtomicUsize,
    /// Set by the first failure: no further window is claimed. Only a
    /// hint: a window claimed after it parses for nothing, and one whose
    /// predecessor failed learns so from its slot.
    stopped: AtomicBool,
    /// `None` until published; `Some(None)` when the predecessor failed.
    slots: Mutex<Vec<Option<Option<Position>>>>,
    ready: Condvar,
}

impl Relay {
    fn new(windows: usize, start: Position) -> Self {
        let mut slots = vec![None; windows + 1];
        slots[0] = Some(Some(start));
        Relay {
            next: AtomicUsize::new(0),
            stopped: AtomicBool::new(false),
            slots: Mutex::new(slots),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Option<Option<Position>>>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claim no further window: the batch has failed.
    fn stop(&self) {
        self.stopped.store(true, Ordering::Relaxed);
    }

    /// The next window in order, unless the batch has stopped.
    fn claim(&self, windows: usize) -> Option<usize> {
        if self.stopped.load(Ordering::Relaxed) {
            return None;
        }
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < windows).then_some(i)
    }

    /// Window `i`'s start, once published; `None` when its predecessor
    /// failed.
    fn wait(&self, i: usize) -> Option<Position> {
        let mut slots = self.lock();
        loop {
            if let Some(at) = slots[i] {
                return at;
            }
            slots = self
                .ready
                .wait(slots)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Publish slot `i` (first write wins: a failure after the position
    /// is out changes nothing for the successor).
    fn publish(&self, i: usize, at: Option<Position>) {
        let mut slots = self.lock();
        if slots[i].is_none() {
            slots[i] = Some(at);
            self.ready.notify_all();
        }
    }
}

/// Fails window `i`'s successor unless `i` published first, also when
/// the window unwinds, so no worker waits forever.
struct Handoff<'a> {
    relay: &'a Relay,
    i: usize,
}

impl Drop for Handoff<'_> {
    fn drop(&mut self) {
        self.relay.publish(self.i + 1, None);
    }
}

/// One window's run, before the cursor commits it.
struct Run {
    parsed: Result<Parsed, ParseError>,
    /// The window's bytes, carry included.
    work_len: usize,
    parse_wall: Duration,
    /// When a failed run failed, counted across the batch.
    failed_at: usize,
}

/// The streaming engine behind every streaming entry point: it cuts
/// windows of the caller's input, in order, and turns them into
/// [`Partition`]s.
///
/// Each window is `input[resume_offset..min(pos + partition_size, len)]`:
/// the carry (the unfinished record after the previous window, still in
/// the input) plus the next partition's new bytes. The cursor copies no
/// input bytes.
///
/// A step parses a batch of windows side by side, one 1-worker parse per
/// stream worker, and commits the batch in window order, all or nothing.
/// A window starts once its predecessor's pass 2 has fixed where the
/// carry begins, so a window's pass 2 overlaps its predecessor's tagging,
/// partition and convert. A batch is one window until the schema is
/// fixed and the header split, under a memory budget (so a budget
/// step-down applies from the next window), and on one worker.
///
/// Without a configured schema, the first partition with rows is parsed
/// with type inference and its *raw-width* schema is frozen for the rest
/// of the stream (a stream cannot retroactively re-type data it has
/// already returned): selected columns keep their inferred field, the
/// others get a placeholder that is never converted, so later partitions
/// still validate `selected_columns` against the raw column count.
pub(crate) struct StreamCursor {
    /// Header-free parser; its schema is the configured one or, once
    /// frozen, the inferred one.
    parser: Parser,
    /// One 1-worker executor per stream worker, each with its own arena
    /// and the caller's retry policy, deadline, fault injection, cancel
    /// token and memory budget.
    execs: Vec<KernelExecutor>,
    /// Where the stream stands after the last partition; its
    /// `resume_offset` is where the carry starts.
    state: Checkpoint,
    /// `state` as of the last partition emitted with a fixed schema.
    checkpoint: Checkpoint,
    /// The end of the last window: the carry is
    /// `input[state.resume_offset..pos]`.
    pos: usize,
    /// The last window was cut, or a step failed.
    done: bool,
    /// The budget ladder's lowest partition size.
    floor: usize,
    /// Arena pressure events seen so far.
    last_pressure: u64,
    /// Whether partitions run on the paper's per-chunk grid (see
    /// [`crate::model`]).
    model: bool,
}

impl StreamCursor {
    /// A cursor at the start of the stream, or at `resume`.
    pub(crate) fn new(parser: &Parser, partition_size: usize, resume: Option<Checkpoint>) -> Self {
        let partition_size = partition_size.max(1);
        let state = resume.unwrap_or(Checkpoint {
            resume_offset: 0,
            rows_emitted: 0,
            records_consumed: 0,
            partitions_emitted: 0,
            partition_size,
            header_done: !parser.options().header,
            header_names: None,
            schema: None,
        });
        let mut opts = parser.options().clone();
        opts.header = false;
        if state.schema.is_some() {
            opts.schema = state.schema.clone();
        }
        let one = ParserOptions {
            grid: Grid::new(1),
            ..opts.clone()
        };
        StreamCursor {
            execs: (0..opts.grid.workers())
                .map(|_| one.build_executor())
                .collect(),
            parser: Parser::new(parser.dfa().clone(), opts),
            pos: state.resume_offset as usize,
            done: false,
            checkpoint: state.clone(),
            state,
            floor: partition_size.min(PARTITION_FLOOR_BYTES),
            last_pressure: 0,
            model: false,
        }
    }

    /// The same cursor, on the paper's per-chunk grid.
    pub(crate) fn modelled(mut self) -> Self {
        self.model = true;
        self
    }

    /// The point a resumed stream restarts from.
    pub(crate) fn checkpoint(&self) -> &Checkpoint {
        &self.checkpoint
    }

    /// Parse the next batch of windows of `input` (the same input on
    /// every call). `None` once the last window is parsed or a step has
    /// failed.
    pub(crate) fn step(&mut self, input: &[u8]) -> Option<Result<Vec<Partition>, ParseError>> {
        if self.done {
            return None;
        }
        let parts = self.parse_next(input);
        self.done |= parts.is_err();
        Some(parts)
    }

    /// How many windows the next batch holds at most.
    fn batch_width(&self) -> usize {
        let o = self.parser.options();
        let single = self.execs.len() == 1
            || o.schema.is_none()
            || !self.state.header_done
            || o.memory_budget.is_some();
        if single {
            1
        } else {
            WINDOWS_PER_WORKER * self.execs.len()
        }
    }

    /// The next window's new bytes `pos..end` of an input of `len` bytes.
    fn next_cut(&mut self, len: usize) -> (usize, usize) {
        let pos = self.pos.min(len);
        // `partition_size` may come from a caller-built `Checkpoint`.
        let end = pos
            .saturating_add(self.state.partition_size.max(1))
            .min(len);
        self.pos = end;
        self.done = end == len;
        (pos, end)
    }

    fn parse_next(&mut self, input: &[u8]) -> Result<Vec<Partition>, ParseError> {
        // Row pruning is whole-input: its indexes don't translate to
        // partition-local rows, and the carry is sliced from unpruned
        // bytes.
        if !self.parser.options().skip_rows.is_empty() {
            return Err(ParseError::SkipRowsInStreaming);
        }
        // A caller-built checkpoint may start anywhere.
        if self.state.resume_offset > input.len() as u64 {
            return Err(ParseError::ResumePastInput {
                resume_offset: self.state.resume_offset,
                input_len: input.len() as u64,
            });
        }
        let width = self.batch_width();
        // Cut windows until one has a complete stream header: until then
        // every window is carried whole.
        let mut cuts = vec![loop {
            let (pos, end) = self.next_cut(input.len());
            let from = (self.state.resume_offset as usize).min(pos);
            if self.state.header_done {
                break Cut {
                    pos,
                    end,
                    header: 0,
                };
            }
            if let Some((names, at)) = split_header(self.parser.dfa(), &input[from..end], self.done)
            {
                self.state.header_names = Some(names);
                self.state.header_done = true;
                self.state.resume_offset += at as u64;
                break Cut {
                    pos,
                    end,
                    header: at,
                };
            }
        }];
        while cuts.len() < width && !self.done {
            let (pos, end) = self.next_cut(input.len());
            cuts.push(Cut {
                pos,
                end,
                header: 0,
            });
        }

        let runs = self.run_batch(input, &cuts);
        if let Some(error) = first_error(&runs) {
            return Err(error);
        }
        let last = cuts.len() - 1;
        runs.into_iter()
            .zip(&cuts)
            .enumerate()
            .map(|(i, (run, cut))| self.commit(run, cut, self.done && i == last))
            .collect()
    }

    /// Parse `cuts` side by side, one window per worker at a time, on the
    /// caller's pool (inline for a single window). A window that was never
    /// claimed, or whose predecessor failed, has no run.
    fn run_batch(&self, input: &[u8], cuts: &[Cut]) -> Vec<Option<Run>> {
        let n = cuts.len();
        let relay = Relay::new(n, Position::of(&self.state));
        let failures = AtomicUsize::new(0);
        let runs: Vec<Mutex<Option<Run>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let workers = n.min(self.execs.len());
        self.parser.options().grid.run_partitioned(workers, |w, _| {
            let exec = &self.execs[w];
            while let Some(i) = relay.claim(n) {
                let handoff = Handoff { relay: &relay, i };
                let Some(at) = relay.wait(i) else {
                    relay.stop();
                    continue;
                };
                let cut = &cuts[i];
                let is_last = self.done && i == n - 1;
                let work = &input[at.resume_offset as usize..cut.end];
                let mut stream = self.state.clone();
                at.apply(&mut stream);
                let started = Instant::now();
                let parsed =
                    self.parser
                        .parse_with(exec, work, !is_last, Some(&stream), self.model, &|a| {
                            relay.publish(i + 1, Some(at.after(work.len(), a)))
                        });
                let parse_wall = started.elapsed();
                drop(handoff);
                let failed_at = if parsed.is_err() {
                    relay.stop();
                    failures.fetch_add(1, Ordering::Relaxed)
                } else {
                    0
                };
                *runs[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(Run {
                    parsed,
                    work_len: work.len(),
                    parse_wall,
                    failed_at,
                });
            }
        });
        runs.into_iter()
            .map(|r| r.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect()
    }

    /// Advance the stream past one parsed window and turn it into a
    /// [`Partition`].
    fn commit(
        &mut self,
        run: Option<Run>,
        cut: &Cut,
        is_last: bool,
    ) -> Result<Partition, ParseError> {
        let Run {
            parsed,
            work_len,
            parse_wall,
            ..
        } = run.expect("a committed batch ran every window");
        let Parsed {
            out,
            advance,
            schema,
        } = parsed?;
        let carry_bytes = (cut.pos + cut.header - self.state.resume_offset as usize) as u64;
        let input_bytes = (cut.end - cut.pos) as u64;

        if let (Some(schema), true) = (schema, out.stats.num_records > 0) {
            let mut opts = self.parser.options().clone();
            opts.schema = Some(schema.clone());
            self.parser = Parser::new(self.parser.dfa().clone(), opts);
            self.state.schema = Some(schema);
        }
        Position::of(&self.state)
            .after(work_len, advance)
            .apply(&mut self.state);
        self.state.partitions_emitted += 1;

        // Arena budget pressure since the last partition means the pool
        // refused to hold this partition's buffers: halve the partition
        // size for partitions not yet cut instead of allocating past the
        // cap. At the floor the budget is advisory under the permissive
        // policy and fatal under Strict.
        let pressure = self.execs.iter().map(|e| e.arena().pressure_events()).sum();
        let mut budget_degraded = false;
        if pressure > self.last_pressure {
            self.last_pressure = pressure;
            let cur = self.state.partition_size;
            if cur > self.floor {
                self.state.partition_size = (cur / 2).max(self.floor);
                budget_degraded = true;
            } else if matches!(self.parser.options().error_policy, ErrorPolicy::Strict) {
                return Err(ParseError::MemoryBudgetExceeded {
                    budget_bytes: self.parser.options().memory_budget.unwrap_or(0),
                    partition_size: cur,
                });
            }
        }

        // Advance the checkpoint only once the schema is fixed: resuming
        // before that replays from the stream start, so the resumed run
        // infers the same schema an uninterrupted run would.
        if self.parser.options().schema.is_some() {
            self.checkpoint = self.state.clone();
        }

        Ok(Partition {
            report: PartitionReport {
                input_bytes,
                carry_bytes,
                output_bytes: out.stats.output_bytes,
                parse_wall,
                records: out.stats.num_records,
                timings: out.timings,
                budget_degraded,
                partition_size: self.state.partition_size,
            },
            table: out.table,
            profiles: out.profiles,
            diagnostics: out.diagnostics,
            rejected: out.stats.rejected_records,
            dropped_diagnostics: out.stats.dropped_diagnostics,
            checkpoint: self.checkpoint.clone(),
            is_last,
        })
    }
}

/// The error a failed batch reports: the earliest window's, as a stream
/// of one window at a time would. A fired cancel token fails every window
/// still running, though, so when every failure is a cancel the batch
/// reports the one that came first.
fn first_error(runs: &[Option<Run>]) -> Option<ParseError> {
    let failed = runs.iter().enumerate().filter_map(|(i, r)| {
        let r = r.as_ref()?;
        let e = r.parsed.as_ref().err()?;
        Some((
            e.is_cancelled(),
            if e.is_cancelled() { r.failed_at } else { i },
            e,
        ))
    });
    failed
        .min_by_key(|&(cancelled, order, _)| (cancelled, order))
        .map(|(_, _, e)| e.clone())
}

/// A stream's table so far. Zero-row partitions (fully carried over) may
/// predate the schema freeze; they contribute nothing, so they are
/// dropped, and a stream without rows returns its last partition, as the
/// iterator does.
#[derive(Default)]
struct Concat {
    rows: Option<Table>,
    last: Option<Table>,
}

impl Concat {
    fn push(&mut self, table: Table) {
        if table.num_rows() == 0 {
            self.last = Some(table);
            return;
        }
        match &mut self.rows {
            Some(rows) => rows
                .append(&table)
                .expect("partitions share the fixed schema"),
            // A copy, so the output grows in the calling thread's memory
            // and every window's table is freed as its batch commits.
            None => self.rows = Some(table.clone()),
        }
    }

    fn finish(self) -> Table {
        self.rows.or(self.last).unwrap_or_else(Table::empty)
    }
}

impl Parser {
    /// Parse `input` as a stream of `partition_size`-byte partitions with
    /// carry-over, each parsed in place as a window of `input`, side by
    /// side on the configured workers.
    ///
    /// When no schema is configured, the first partition with rows is
    /// parsed with type inference and its inferred schema is fixed for the
    /// rest of the stream (a stream cannot retroactively re-type data it
    /// has already returned).
    pub fn parse_stream(
        &self,
        input: &[u8],
        partition_size: usize,
    ) -> Result<StreamedOutput, ParseError> {
        self.parse_stream_resumable(input, partition_size, None)
            .map_err(|i| i.error)
    }

    /// [`Parser::parse_stream`] with interruption and resume support.
    ///
    /// A stream stopped by a fired [`CancelToken`](parparaw_parallel::CancelToken),
    /// an exhausted launch deadline, a strict-policy memory-budget
    /// failure, or any other mid-stream error returns a boxed
    /// [`StreamInterrupted`] holding the partitions already emitted plus a
    /// [`Checkpoint`]. Calling this again with the *same input* and that
    /// checkpoint (or one from [`PartitionIter::checkpoint`]) parses
    /// exactly the remainder: concatenating the completed and resumed
    /// tables (and diagnostics) is byte-identical to an uninterrupted run.
    ///
    /// When a [`memory_budget`](crate::options::ParserOptions::memory_budget)
    /// is configured, arena budget pressure halves the effective partition
    /// size (down to a floor of `min(partition_size, 4096)` bytes) instead
    /// of pooling past the cap; under [`ErrorPolicy::Strict`], pressure
    /// *at* the floor interrupts the stream with
    /// [`ParseError::MemoryBudgetExceeded`].
    pub fn parse_stream_resumable(
        &self,
        input: &[u8],
        partition_size: usize,
        resume: Option<Checkpoint>,
    ) -> Result<StreamedOutput, Box<StreamInterrupted>> {
        let t0 = Instant::now();
        let mut cursor = StreamCursor::new(self, partition_size, resume);
        let mut table = Concat::default();
        let mut completed = StreamedOutput {
            table: Table::empty(),
            partitions: Vec::new(),
            rejected_records: 0,
            diagnostics: Vec::new(),
            dropped_diagnostics: 0,
            wall: Duration::ZERO,
        };
        let error = loop {
            match cursor.step(input) {
                None => break None,
                Some(Err(e)) => break Some(e),
                Some(Ok(parts)) => {
                    for p in parts {
                        table.push(p.table);
                        completed.partitions.push(p.report);
                        completed.rejected_records += p.rejected;
                        completed.diagnostics.extend(p.diagnostics);
                        completed.dropped_diagnostics += p.dropped_diagnostics;
                    }
                }
            }
        };
        // The full stream on success, the completed prefix on
        // interruption.
        completed.table = table.finish();
        completed.wall = t0.elapsed();
        match error {
            None => Ok(completed),
            Some(error) => Err(Box::new(StreamInterrupted {
                error,
                completed,
                checkpoint: cursor.checkpoint().clone(),
            })),
        }
    }

    /// Iterate the input partition by partition (paper §4.4's pipeline as
    /// a consumer-driven iterator): the same cursor as
    /// [`Parser::parse_stream`]. Each committed batch of windows is
    /// yielded one partition per `next()`, and the checkpoint advances
    /// with every partition yielded.
    pub fn partitions<'a>(&self, input: &'a [u8], partition_size: usize) -> PartitionIter<'a> {
        let cursor = StreamCursor::new(self, partition_size, None);
        PartitionIter {
            checkpoint: cursor.checkpoint().clone(),
            cursor,
            input,
            queue: VecDeque::new(),
            diagnostics: Vec::new(),
        }
    }
}

/// A pull-based streaming parse: yields one [`Table`] per partition,
/// carrying incomplete records across `next()` calls. This is the
/// integration-friendly shape for pipelines that process batches as they
/// arrive instead of materialising the whole output
/// ([`Parser::parse_stream`] does the latter). Batches equal
/// [`Parser::parse_stream`]'s, and the budget ladder and checkpoints apply
/// here too: after an error the iterator ends, and
/// [`PartitionIter::checkpoint`] says where to resume.
pub struct PartitionIter<'a> {
    cursor: StreamCursor,
    input: &'a [u8],
    /// The committed batch's partitions not yet yielded.
    queue: VecDeque<Partition>,
    /// The checkpoint after the last partition taken from the queue.
    checkpoint: Checkpoint,
    diagnostics: Vec<RecordDiagnostic>,
}

impl PartitionIter<'_> {
    /// The column names captured from the stream header (populated after
    /// the first yielded batch when the parser was configured with
    /// `header = true`).
    pub fn header_names(&self) -> Option<&[String]> {
        self.cursor.state.header_names.as_deref()
    }

    /// The last batch's per-record diagnostics, with record indices and
    /// byte offsets in stream-global coordinates.
    pub fn diagnostics(&self) -> &[RecordDiagnostic] {
        &self.diagnostics
    }

    /// Where [`Parser::parse_stream_resumable`] would pick this stream up:
    /// the last batch boundary at which the schema was fixed.
    pub fn checkpoint(&self) -> &Checkpoint {
        &self.checkpoint
    }
}

impl Iterator for PartitionIter<'_> {
    type Item = Result<Table, ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.diagnostics.clear();
        loop {
            let Some(part) = self.queue.pop_front() else {
                match self.cursor.step(self.input)? {
                    Ok(parts) => self.queue.extend(parts),
                    Err(e) => return Some(Err(e)),
                }
                continue;
            };
            self.checkpoint = part.checkpoint;
            self.diagnostics.extend(part.diagnostics);
            // A fully carried-over partition yields nothing: pull more
            // input.
            if part.table.num_rows() > 0 || part.is_last {
                return Some(Ok(part.table));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::ParserOptions;
    use parparaw_columnar::{DataType, Field, Value};
    use parparaw_device::{CostModel, DeviceConfig, PcieLink};
    use parparaw_dfa::csv::{rfc4180, CsvDialect};
    use parparaw_parallel::Grid;

    fn parser(schema: Option<Schema>) -> Parser {
        Parser::new(
            rfc4180(&CsvDialect::default()),
            ParserOptions {
                grid: Grid::new(2),
                schema,
                ..ParserOptions::default()
            },
        )
    }

    fn make_input(rows: usize) -> Vec<u8> {
        let mut s = String::new();
        for i in 0..rows {
            s.push_str(&format!(
                "{},\"text {i}, with comma\",{}.5\n",
                i % 7,
                i % 100
            ));
        }
        s.into_bytes()
    }

    #[test]
    fn streamed_equals_monolithic() {
        let input = make_input(200);
        let p = parser(None);
        let mono = p.parse(&input).unwrap();
        for psize in [37usize, 100, 1000, 100_000] {
            let streamed = p.parse_stream(&input, psize).unwrap();
            assert_eq!(
                streamed.table.num_rows(),
                mono.table.num_rows(),
                "partition size {psize}"
            );
            assert_eq!(streamed.table, mono.table, "partition size {psize}");
        }
    }

    #[test]
    fn carry_over_spans_partitions() {
        // A quoted field crossing many partition boundaries.
        let input = b"a,\"long quoted value with, commas\nand newlines\",z\nb,c,d\n";
        let p = parser(None);
        let streamed = p.parse_stream(input, 8).unwrap();
        assert_eq!(streamed.table.num_rows(), 2);
        assert_eq!(
            streamed.table.value(0, 1),
            Value::Utf8("long quoted value with, commas\nand newlines".into())
        );
        // Early partitions contribute zero records; their bytes carried.
        assert!(streamed.partitions.iter().any(|r| r.records == 0));
        assert!(streamed.partitions.iter().any(|r| r.carry_bytes > 0));
    }

    #[test]
    fn schema_fixed_after_first_partition() {
        // First partition sees only integers; a later one has a float. The
        // stream's schema freezes on the first partition, so the float
        // row becomes a conversion reject (null), not a re-typed column.
        let input = b"1\n2\n3\n4\n5\n6\n7\n8\n2.5\n";
        let p = parser(None);
        let streamed = p.parse_stream(input, 8).unwrap();
        assert_eq!(streamed.table.schema().fields[0].data_type, DataType::Int8);
        let last = streamed.table.num_rows() - 1;
        assert_eq!(streamed.table.value(last, 0), Value::Null);
    }

    #[test]
    fn explicit_schema_streams_without_inference() {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("text", DataType::Utf8),
            Field::new("v", DataType::Float64),
        ]);
        let input = make_input(50);
        let p = parser(Some(schema));
        let streamed = p.parse_stream(&input, 64).unwrap();
        assert_eq!(streamed.table.num_rows(), 50);
        assert_eq!(streamed.table.value(49, 0), Value::Int64(49 % 7));
    }

    #[test]
    fn empty_input_streams() {
        let p = parser(None);
        let s = p.parse_stream(b"", 64).unwrap();
        assert_eq!(s.table.num_rows(), 0);
    }

    #[test]
    fn cancelled_stream_resumes_byte_identical() {
        use parparaw_parallel::CancelToken;
        let input = make_input(200);
        let p = parser(None);
        let mono = p.parse(&input).unwrap();
        // Fire the token a few partitions into the stream (each partition
        // costs several launches), then resume without it.
        for nth in [12u64, 30, 55] {
            let mut o = p.options().clone();
            o.cancel = Some(CancelToken::after_launches(nth));
            let interrupted = Parser::new(p.dfa().clone(), o)
                .parse_stream_resumable(&input, 256, None)
                .unwrap_err();
            assert!(interrupted.error.is_cancelled(), "nth={nth}");
            let resumed = p
                .parse_stream_resumable(&input, 256, Some(interrupted.checkpoint.clone()))
                .unwrap();
            let parts: Vec<&Table> = [&interrupted.completed.table, &resumed.table]
                .into_iter()
                .filter(|t| t.num_rows() > 0)
                .collect();
            let combined = Table::concat(&parts).unwrap();
            assert_eq!(combined, mono.table, "nth={nth}");
        }
    }

    #[test]
    fn checkpoint_stays_at_start_until_schema_freezes() {
        use parparaw_parallel::CancelToken;
        // A quoted field spanning every early partition: partitions carry
        // fully over, no rows, no schema — the checkpoint must not move.
        let input = b"a,\"long quoted value with, commas\nand newlines\",z\nb,c,d\n";
        let p = parser(None);
        let mut o = p.options().clone();
        o.cancel = Some(CancelToken::after_launches(1));
        let interrupted = Parser::new(p.dfa().clone(), o)
            .parse_stream_resumable(input, 8, None)
            .unwrap_err();
        assert_eq!(interrupted.checkpoint.resume_offset, 0);
        assert_eq!(interrupted.checkpoint.rows_emitted, 0);
        assert!(interrupted.checkpoint.schema.is_none());
        assert_eq!(interrupted.completed.table.num_rows(), 0);
        let resumed = p
            .parse_stream_resumable(input, 8, Some(interrupted.checkpoint))
            .unwrap();
        assert_eq!(resumed.table, p.parse_stream(input, 8).unwrap().table);
    }

    #[test]
    fn resumed_diagnostics_stay_stream_global() {
        use parparaw_parallel::CancelToken;
        // A short record deep in the stream; interrupt before it, resume,
        // and the diagnostic must carry the stream-global record index.
        let mut s = String::new();
        for i in 0..60 {
            s.push_str(&format!("{i},{i},{i}\n"));
        }
        s.push_str("61,61\n");
        for i in 62..70 {
            s.push_str(&format!("{i},{i},{i}\n"));
        }
        let mut o = ParserOptions {
            grid: Grid::new(2),
            ..ParserOptions::default()
        };
        o.validate_column_count = true;
        let p = Parser::new(rfc4180(&CsvDialect::default()), o);
        let mut cancelled = p.options().clone();
        cancelled.cancel = Some(CancelToken::after_launches(20));
        let interrupted = Parser::new(p.dfa().clone(), cancelled)
            .parse_stream_resumable(s.as_bytes(), 128, None)
            .unwrap_err();
        let resumed = p
            .parse_stream_resumable(s.as_bytes(), 128, Some(interrupted.checkpoint))
            .unwrap();
        let mut diags = interrupted.completed.diagnostics;
        diags.extend(resumed.diagnostics);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].record, 60, "record index must stay stream-global");
    }

    #[test]
    fn budget_pressure_degrades_partition_size_to_floor() {
        use parparaw_parallel::CancelToken;
        let input = make_input(4000);
        let mut o = ParserOptions {
            grid: Grid::new(2),
            ..ParserOptions::default()
        };
        // A budget far too small for 16 KiB partitions: the stream must
        // halve its way down to the 4 KiB floor instead of pooling past
        // the cap.
        o.memory_budget = Some(256);
        let p = Parser::new(rfc4180(&CsvDialect::default()), o);
        let streamed = p.parse_stream(&input, 16 * 1024).unwrap();
        assert_eq!(
            streamed.table,
            parser(None).parse(&input).unwrap().table,
            "degradation must not change output"
        );
        assert!(streamed.budget_degradations() >= 2);
        let last = streamed.partitions.last().unwrap();
        assert_eq!(last.partition_size, PARTITION_FLOOR_BYTES);
        // Every partition is cut at the size its predecessor left in force,
        // not at a size from before the ladder stepped down.
        for (i, w) in streamed.partitions.windows(2).enumerate() {
            assert!(
                w[1].input_bytes <= w[0].partition_size as u64,
                "partition {} cut at {} B after the ladder went to {} B",
                i + 1,
                w[1].input_bytes,
                w[0].partition_size
            );
        }
        // So a cancel at the same launch stops both drivers at one
        // checkpoint (each run gets its own token: clones share state).
        let cancelled = || {
            let mut o = p.options().clone();
            o.cancel = Some(CancelToken::after_launches(30));
            Parser::new(p.dfa().clone(), o)
        };
        let interrupted = cancelled()
            .parse_stream_resumable(&input, 16 * 1024, None)
            .unwrap_err();
        assert!(interrupted.error.is_cancelled());
        let cancelled = cancelled();
        let mut it = cancelled.partitions(&input, 16 * 1024);
        let error = it.by_ref().find_map(Result::err).expect("the token fires");
        assert!(error.is_cancelled());
        assert_eq!(it.checkpoint(), &interrupted.checkpoint);
    }

    #[test]
    fn strict_budget_at_floor_interrupts_with_typed_error() {
        use crate::options::ErrorPolicy;
        let input = make_input(200);
        let mut o = ParserOptions {
            grid: Grid::new(2),
            ..ParserOptions::default()
        }
        .error_policy(ErrorPolicy::Strict);
        o.memory_budget = Some(64);
        let p = Parser::new(rfc4180(&CsvDialect::default()), o);
        // partition_size == floor, so the first pressure event is fatal.
        let interrupted = p.parse_stream_resumable(&input, 512, None).unwrap_err();
        match interrupted.error {
            ParseError::MemoryBudgetExceeded {
                budget_bytes,
                partition_size,
            } => {
                assert_eq!(budget_bytes, 64);
                assert_eq!(partition_size, 512);
            }
            ref other => panic!("expected MemoryBudgetExceeded, got {other}"),
        }
        // The same stream under the default permissive policy completes.
        let mut o = ParserOptions {
            grid: Grid::new(2),
            ..ParserOptions::default()
        };
        o.memory_budget = Some(64);
        let p = Parser::new(rfc4180(&CsvDialect::default()), o);
        assert!(p.parse_stream(&input, 512).is_ok());
    }

    #[test]
    fn plan_feeds_device_simulation() {
        let input = make_input(300);
        let p = parser(None);
        let streamed = p.model_stream(&input, 1024).unwrap();
        let model = CostModel::new(DeviceConfig::titan_x_pascal());
        let report = streamed
            .streaming_plan(PcieLink::pcie3_x16())
            .simulate(&model);
        assert!(report.total_seconds > 0.0);
        // Streaming must beat "transfer everything, then parse, then
        // return" for multi-partition inputs.
        let sum_stages: f64 = {
            let link = PcieLink::pcie3_x16();
            let transfer = link.h2d_seconds(input.len() as u64);
            let parse: f64 = streamed
                .partitions
                .iter()
                .map(|r| r.parse_seconds_simulated)
                .sum();
            let ret = link.d2h_seconds(streamed.partitions.iter().map(|r| r.output_bytes).sum());
            transfer + parse + ret
        };
        assert!(report.total_seconds <= sum_stages + 1e-9);
    }
}

#[cfg(test)]
mod iter_tests {
    use super::*;
    use crate::options::ParserOptions;
    use parparaw_columnar::Value;
    use parparaw_dfa::csv::{rfc4180, CsvDialect};
    use parparaw_parallel::Grid;

    fn parser(header: bool) -> Parser {
        Parser::new(
            rfc4180(&CsvDialect::default()),
            ParserOptions {
                grid: Grid::new(2),
                header,
                ..ParserOptions::default()
            },
        )
    }

    #[test]
    fn batches_cover_all_records() {
        let input: Vec<u8> = (0..100)
            .map(|i| format!("{i},\"v,{i}\"\n"))
            .collect::<String>()
            .into_bytes();
        let p = parser(false);
        let mono = p.parse(&input).unwrap();
        let batches: Vec<Table> = p.partitions(&input, 64).collect::<Result<_, _>>().unwrap();
        assert!(batches.len() > 1);
        let total: usize = batches.iter().map(|b| b.num_rows()).sum();
        assert_eq!(total, mono.table.num_rows());
        // Concatenating the batches gives the monolithic table.
        let refs: Vec<&Table> = batches.iter().collect();
        assert_eq!(Table::concat(&refs).unwrap(), mono.table);
    }

    #[test]
    fn header_applies_to_every_batch() {
        let input = b"id,v\n1,10\n2,20\n3,30\n4,40\n";
        let p = parser(true);
        let batches: Vec<Table> = p.partitions(input, 8).collect::<Result<_, _>>().unwrap();
        for b in &batches {
            assert_eq!(b.schema().fields[0].name, "id");
        }
        let total: usize = batches.iter().map(|b| b.num_rows()).sum();
        assert_eq!(total, 4);
        assert!(!batches.last().unwrap().value(0, 1).is_null());
    }

    #[test]
    fn empty_input_yields_one_empty_batch() {
        let p = parser(false);
        let batches: Vec<Table> = p.partitions(b"", 8).collect::<Result<_, _>>().unwrap();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].num_rows(), 0);
    }

    #[test]
    fn errors_stop_the_iterator() {
        let p = Parser::new(
            rfc4180(&CsvDialect::default()),
            ParserOptions {
                grid: Grid::new(1),
                tagging: crate::options::TaggingMode::inline_default(),
                ..ParserOptions::default()
            },
        );
        // Inconsistent columns error under inline mode.
        let mut it = p.partitions(b"1,2\n3\n4,5\n", 1024);
        assert!(matches!(it.next(), Some(Err(_))));
        assert!(it.next().is_none());
    }

    #[test]
    fn quoted_field_across_many_batches() {
        let mut input = Vec::new();
        input.extend_from_slice(b"a,\"");
        input.extend(std::iter::repeat_n(b'x', 500));
        input.extend_from_slice(b"\",z\nb,c,d\n");
        let p = parser(false);
        let batches: Vec<Table> = p.partitions(&input, 32).collect::<Result<_, _>>().unwrap();
        let total: usize = batches.iter().map(|b| b.num_rows()).sum();
        assert_eq!(total, 2);
        let first_batch_with_rows = batches.iter().find(|b| b.num_rows() > 0).unwrap();
        assert!(matches!(
            first_batch_with_rows.value(0, 1),
            Value::Utf8(ref s) if s.len() == 500
        ));
    }

    #[test]
    fn budget_ladder_and_checkpoint_apply_to_the_iterator() {
        let input: Vec<u8> = (0..4000)
            .map(|i| format!("{i},\"v,{i}\"\n"))
            .collect::<String>()
            .into_bytes();
        let mut o = parser(false).options().clone();
        o.memory_budget = Some(256);
        let p = Parser::new(rfc4180(&CsvDialect::default()), o);
        let mut it = p.partitions(&input, 16 * 1024);
        let mut rows = 0;
        for batch in it.by_ref() {
            rows += batch.unwrap().num_rows();
        }
        assert_eq!(rows, 4000);
        let end = it.checkpoint();
        assert_eq!(end.partition_size, PARTITION_FLOOR_BYTES);
        assert_eq!(end.resume_offset, input.len() as u64);
        assert_eq!(end.rows_emitted, 4000);
    }

    #[test]
    fn cancelled_iterator_stops_at_its_checkpoint() {
        use parparaw_parallel::CancelToken;
        let input: Vec<u8> = (0..200)
            .map(|i| format!("{i},{i}\n"))
            .collect::<String>()
            .into_bytes();
        let mut o = parser(false).options().clone();
        o.cancel = Some(CancelToken::after_launches(30));
        let mut it = Parser::new(rfc4180(&CsvDialect::default()), o).partitions(&input, 128);
        let mut done = Vec::new();
        let error = loop {
            match it.next() {
                Some(Ok(t)) => done.push(t),
                Some(Err(e)) => break e,
                None => panic!("the token fires mid-stream"),
            }
        };
        assert!(error.is_cancelled());
        assert!(it.next().is_none());
        // The checkpoint resumes the rest through parse_stream_resumable.
        let p = parser(false);
        let rest = p
            .parse_stream_resumable(&input, 128, Some(it.checkpoint().clone()))
            .unwrap();
        done.push(rest.table);
        let refs: Vec<&Table> = done.iter().filter(|t| t.num_rows() > 0).collect();
        assert_eq!(
            Table::concat(&refs).unwrap(),
            p.parse_stream(&input, 128).unwrap().table
        );
    }
}
