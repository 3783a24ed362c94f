//! End-to-end and per-layer benchmark of the ParPaRaw parser, set beside
//! the `SequentialParser` floor.
//!
//! ```text
//! perfbench --workload <yelp-parse|taxi-parse|yelp-stream> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! The input (about 16 MiB) is generated from the seed. Every op parses it
//! through the public API on a grid of `available_parallelism` workers,
//! driven by this one thread, and ends in `ipc::write_table` into memory.
//! Each op's IPC bytes are checked against a digest of the sequential
//! reference. The last line of standard output is one JSON object with
//! the run's metrics: the end-to-end ones with `--trace 0`, the per-layer
//! ones with `--trace 1`. A human summary goes to standard error. See
//! `README.md` for what each metric means.

mod procfs;
mod report;
mod stats;
mod traced;
mod workload;

use parparaw_columnar::Table;
use parparaw_parallel::{Grid, KernelExecutor};
use stats::{median, mib, relative_iqr, steal_free};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use traced::{TracedParser, LAYERS};
use workload::{run_op, Digest, Workload, STREAM_PARTITION_BYTES};

/// Set-up samples per run, each in a fresh process.
const SETUP_SAMPLES: usize = 3;
/// Timed ops per run at the least, however short `--seconds` is.
const MIN_OPS: u64 = 5;
/// Rounds of the traced run at the least.
const MIN_ROUNDS: usize = 3;

/// Command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a set-up child process: the digest its cold op must match.
    setup_child: Option<Digest>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut child, mut expect) =
        (None, None, None, None, false, None);
    while let Some(flag) = args.next() {
        if flag == "--setup-child" {
            child = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--expect" => expect = Some(Digest::decode(&value).ok_or_else(bad)?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let setup_child = match (child, expect) {
        (true, Some(d)) => Some(d),
        (true, None) => return Err("--setup-child needs --expect".into()),
        (false, _) => None,
    };
    Ok(Args {
        workload,
        seed,
        seconds: if setup_child.is_some() {
            1.0
        } else {
            seconds.ok_or("--seconds is required")?
        },
        trace: trace.unwrap_or(false),
        setup_child,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let result = match args.setup_child {
        Some(want) => setup_child(args.workload, args.seed, want),
        None => run(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Ops checked against the reference, passed or not.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Count one op; `true` if it produced the reference bytes.
    fn check(&mut self, w: Workload, op: &Result<Vec<u8>, String>, want: Digest) -> bool {
        self.attempted += 1;
        let ok = match op {
            Ok(ipc) => Digest::of(ipc) == want,
            Err(e) => {
                eprintln!("perfbench: {} op failed: {e}", w.name());
                false
            }
        };
        if !ok {
            self.failed += 1;
        }
        ok
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let input = w.dataset().generate(args.seed);
    let (want, _) = workload::reference(w, &input)?;
    let line = if args.trace {
        run_traced(w, &input, want, args.seconds)?
    } else {
        run_end_to_end(w, args.seed, &input, want, args.seconds)?
    };
    println!("{line}");
    Ok(())
}

/// One set-up sample, run in a fresh process: build the format and the
/// parser, then run the first, cold op. Prints `setup_s <seconds> <ok>`,
/// the seconds free of steal (see [`steal_free`]).
fn setup_child(w: Workload, seed: u64, want: Digest) -> Result<(), String> {
    let input = w.dataset().generate(seed);
    let steal0 = procfs::steal_seconds().map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let parser = w.parser(Grid::auto());
    let op = run_op(w, &parser, &input);
    let wall = t0.elapsed().as_secs_f64();
    let steal = procfs::steal_seconds().map_err(|e| e.to_string())? - steal0;
    let ok = matches!(&op, Ok(op) if Digest::of(&op.ipc) == want);
    println!("setup_s {} {}", steal_free(wall, steal), u8::from(ok));
    Ok(())
}

/// Run [`setup_child`] in a child process and wait for it.
fn spawn_setup(w: Workload, seed: u64, want: Digest) -> Result<(f64, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--setup-child", "--workload", w.name(), "--seed"])
        .arg(seed.to_string())
        .args(["--expect", &want.encode()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run set-up process: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let parsed = text.trim().strip_prefix("setup_s ").and_then(|rest| {
        let (secs, ok) = rest.split_once(' ')?;
        Some((secs.parse().ok()?, ok == "1"))
    });
    match parsed {
        Some(p) if out.status.success() => Ok(p),
        _ => Err(format!("set-up process failed ({}): {text}", out.status)),
    }
}

/// The end-to-end run: set-up samples, then timed ops for `seconds`.
fn run_end_to_end(
    w: Workload,
    seed: u64,
    input: &[u8],
    want: Digest,
    seconds: f64,
) -> Result<String, String> {
    let mut checks = Checks::default();
    let mut setups = Vec::with_capacity(SETUP_SAMPLES);
    for _ in 0..SETUP_SAMPLES {
        let (secs, ok) = spawn_setup(w, seed, want)?;
        checks.attempted += 1;
        checks.failed += u64::from(!ok);
        setups.push(secs);
    }

    // This process's own set-up; its cold op stays out of the timed ops.
    let parser = w.parser(Grid::auto());
    checks.check(w, &run_op(w, &parser, input).map(|op| op.ipc), want);
    if let Err(e) = procfs::reset_peak_rss() {
        eprintln!("perfbench: warning: cannot reset the peak RSS, it includes set-up: {e}");
    }

    let host = procfs::HostWindow::start().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let (mut walls, mut free, mut user, mut system) = (Vec::new(), Vec::new(), 0.0, 0.0);
    let mut timed = 0u64;
    while timed < MIN_OPS || start.elapsed().as_secs_f64() < seconds {
        timed += 1;
        let (u0, s0) = procfs::cpu_seconds().map_err(|e| e.to_string())?;
        let steal0 = procfs::steal_seconds().map_err(|e| e.to_string())?;
        let op = run_op(w, &parser, input);
        let steal = procfs::steal_seconds().map_err(|e| e.to_string())? - steal0;
        let (u1, s1) = procfs::cpu_seconds().map_err(|e| e.to_string())?;
        let wall = op.as_ref().map(|op| op.wall).unwrap_or_default();
        if checks.check(w, &op.map(|op| op.ipc), want) {
            walls.push(wall.as_secs_f64());
            free.push(steal_free(wall.as_secs_f64(), steal));
            user += u1 - u0;
            system += s1 - s0;
        }
    }
    let cpu = user + system;
    let (runq_ms, steal_ms) = host.finish().map_err(|e| e.to_string())?;
    let peak = procfs::peak_rss_bytes().map_err(|e| e.to_string())?;
    let op_s = median(&free).ok_or("no op produced the reference output")?;
    if op_s <= 0.0 {
        return Err("the hypervisor stole more CPU time than most ops took".into());
    }
    let mib_in = mib(input.len() as u64);

    eprintln!(
        "perfbench: {} seed {seed}: {} ops on {} workers, op median {:.1} ms free of steal \
         (IQR {:.1}% of it), {:.1} ms of wall time, system CPU {:.0}%, set-up {:?} s, \
         host.runq_wait_ms {runq_ms:.1}, host.steal_ms {steal_ms:.0}",
        w.name(),
        walls.len(),
        Grid::auto().workers(),
        op_s * 1e3,
        relative_iqr(&free).unwrap_or(0.0) * 100.0,
        median(&walls).expect("ops") * 1e3,
        system / cpu * 100.0,
        setups
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
    );

    let values = BTreeMap::from([
        ("throughput_mb_s", mib_in / op_s),
        ("cpu_ms_per_mb", cpu * 1e3 / (walls.len() as f64 * mib_in)),
        ("peak_rss_mb", mib(peak)),
        ("setup_s", median(&setups).expect("SETUP_SAMPLES > 0")),
    ]);
    report::result_json(
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        report::END_TO_END,
        &values,
    )
}

/// The traced run: rounds of one end-to-end op, the layer-by-layer
/// rebuild on `nproc` workers and on 1 worker, and the sequential floor
/// op, until `seconds` have passed. The streaming workload also times
/// each `next()` of the `partitions()` iterator.
fn run_traced(w: Workload, input: &[u8], want: Digest, seconds: f64) -> Result<String, String> {
    let parser = w.parser(Grid::auto());
    let traced_n = TracedParser::new(&parser)?;
    let traced_1 = TracedParser::new(&w.parser(Grid::new(1)))?;
    let traced_op = |t: &TracedParser| {
        let (table, trace) = if w.streams() {
            t.parse_stream(input, STREAM_PARTITION_BYTES)?
        } else {
            t.parse(input)?
        };
        // A traced run that does not reproduce the reference would
        // describe some other program: stop.
        if Digest::of(&workload::write(&table)) != want {
            return Err(format!(
                "the traced {} run does not reproduce the reference output",
                w.name()
            ));
        }
        Ok::<_, String>(trace)
    };

    let mut checks = Checks::default();
    // Warm-up: a cold op and a cold traced op of each width, untimed.
    checks.check(w, &run_op(w, &parser, input).map(|op| op.ipc), want);
    traced_op(&traced_n)?;
    traced_op(&traced_1)?;

    let host = procfs::HostWindow::start().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut ops = Vec::new();
    let (mut traces_n, mut traces_1) = (Vec::new(), Vec::new());
    let (mut seq_ms, mut next_ms) = (Vec::new(), Vec::new());
    while traces_n.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let op = run_op(w, &parser, input);
        let (ipc, op) = match op {
            Ok(mut op) => (Ok(std::mem::take(&mut op.ipc)), Some(op)),
            Err(e) => (Err(e), None),
        };
        if checks.check(w, &ipc, want) {
            ops.extend(op);
        }
        traces_n.push(traced_op(&traced_n)?);
        traces_1.push(traced_op(&traced_1)?);
        let (seq_want, seq_wall) = workload::reference(w, input)?;
        if seq_want != want {
            return Err("the sequential reference is not deterministic".into());
        }
        seq_ms.push(ms(seq_wall));
        if w.streams() {
            let tables = time_partitions(&parser, input, &mut next_ms);
            checks.check(w, &tables.map(|t| workload::write(&t)), want);
        }
    }
    let (runq_ms, steal_ms) = host.finish().map_err(|e| e.to_string())?;
    let launch_us = empty_launch_us(parser.options().grid.clone())?;
    if ops.is_empty() {
        return Err("no op produced the reference output".into());
    }

    let med = |f: &dyn Fn(&workload::Op) -> f64| {
        median(&ops.iter().map(f).collect::<Vec<_>>()).expect("ops")
    };
    let op_ms = med(&|o| ms(o.wall));
    let parse_ms = med(&|o| ms(o.parse));
    let layer_ms = |traces: &[traced::Trace], l: usize| {
        median(&traces.iter().map(|t| ms(t.layer[l])).collect::<Vec<_>>()).expect("rounds")
    };
    let last = traces_n.last().expect("rounds");
    let seq = median(&seq_ms).expect("rounds");

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let mut layers_total = 0.0;
    for (l, name) in LAYERS.iter().enumerate() {
        let (n, one) = (layer_ms(&traces_n, l), layer_ms(&traces_1, l));
        layers_total += n;
        values.insert(layer_key(name, "ms"), n);
        values.insert(layer_key(name, "share"), n / op_ms);
        values.insert(layer_key(name, "scaling"), one / n);
    }
    let stream = |f: fn(&workload::StreamFacts) -> f64| {
        median(
            &ops.iter()
                .filter_map(|o| o.stream.as_ref().map(f))
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0)
    };
    let launches = match ops[0].launches {
        Some(n) => n,
        None => last.launches,
    };
    values.extend([
        (
            "context.lane_ops_per_byte",
            last.lane_ops as f64 / last.parsed_bytes as f64,
        ),
        ("tagging.runs", last.runs as f64),
        ("partition.bytes_moved", last.bytes_moved as f64),
        ("convert.fields", last.fields as f64),
        ("columnar.ipc_ms", med(&|o| ms(o.write))),
        ("columnar.ipc_bytes", want.len() as f64),
        ("parallel.launches", launches as f64),
        ("parallel.launch_us", launch_us),
        (
            "parallel.retries",
            ops.iter().map(|o| o.retries).sum::<u64>() as f64,
        ),
        ("streaming.partitions", stream(|s| s.partitions as f64)),
        (
            "streaming.partition_ms_p50",
            median(&next_ms).unwrap_or(0.0),
        ),
        ("streaming.parse_busy_share", stream(|s| s.parse_busy_share)),
        ("streaming.carry_bytes", stream(|s| s.carry_bytes as f64)),
        ("pipeline.glue_ms", parse_ms - layers_total),
        ("baselines.sequential_ms", seq),
        ("baselines.floor_ratio", op_ms / seq),
        ("host.runq_wait_ms", runq_ms),
        ("host.steal_ms", steal_ms),
    ]);

    eprintln!(
        "perfbench: {} traced: {} rounds on {} workers, op median {op_ms:.1} ms, \
         sequential {seq:.1} ms, host.runq_wait_ms {runq_ms:.1}, host.steal_ms {steal_ms:.0}",
        w.name(),
        traces_n.len(),
        parser.options().grid.workers(),
    );
    report::result_json(
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        report::PER_LAYER,
        &values,
    )
}

/// `"<layer>.<what>"` as a static metric name.
fn layer_key(layer: &str, what: &str) -> &'static str {
    report::PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| n.split_once('.') == Some((layer, what)))
        .expect("every layer metric is declared")
}

/// Drain `Parser::partitions` over `input`, recording each `next()` in
/// ms, and return the concatenated batches.
fn time_partitions(
    parser: &parparaw_core::Parser,
    input: &[u8],
    next_ms: &mut Vec<f64>,
) -> Result<Table, String> {
    let mut it = parser.partitions(input, STREAM_PARTITION_BYTES);
    let mut tables = Vec::new();
    loop {
        let t = Instant::now();
        let Some(batch) = it.next() else { break };
        next_ms.push(ms(t.elapsed()));
        tables.push(batch.map_err(|e| format!("partitions() failed: {e}"))?);
    }
    let refs: Vec<&Table> = tables.iter().filter(|t| t.num_rows() > 0).collect();
    Table::concat(&refs)
}

/// Median wall time in µs of an empty launch on `grid`: each worker
/// runs one no-op chunk.
fn empty_launch_us(grid: Grid) -> Result<f64, String> {
    const LAUNCHES: u32 = 200;
    let exec = KernelExecutor::new(grid);
    let workers = exec.grid().workers();
    let mut per_launch = Vec::new();
    for _ in 0..7 {
        let t = Instant::now();
        for _ in 0..LAUNCHES {
            exec.launch("bench/empty", workers, |g, _| {
                g.map_indexed(workers, |i| i).len()
            })
            .map_err(|e| e.to_string())?;
        }
        per_launch.push(t.elapsed().as_secs_f64() * 1e6 / f64::from(LAUNCHES));
        let _ = exec.drain_log();
    }
    Ok(median(&per_launch).expect("seven batches"))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload taxi-parse --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::TaxiParse);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(a.setup_child.is_none());
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload yelp-parse --seconds 1 --trace 0",
            "--workload yelp-parse --seed -1 --seconds 1 --trace 0",
            "--workload yelp-parse --seed 1 --seconds 0 --trace 0",
            "--workload yelp-parse --seed 1 --seconds 1 --trace 2",
            "--workload yelp-parse --seed 1 --seconds 1 --bogus 1",
            "--workload yelp-parse --seed 1 --seconds",
            "--setup-child --workload yelp-parse --seed 1",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn layer_keys_resolve() {
        for l in LAYERS {
            for what in ["ms", "share", "scaling"] {
                assert_eq!(layer_key(l, what), format!("{l}.{what}"));
            }
        }
    }
}
