//! `parparaw` — parse delimiter-separated files from the command line.
//!
//! ```text
//! parparaw data.csv                        # parse, infer, show summary
//! parparaw data.csv --head 20              # preview rows
//! parparaw data.csv --select 0,2 --out csv # project + normalised CSV
//! parparaw data.csv --out ipc -O out.pprw  # binary columnar output
//! parparaw logs.txt --format log           # W3C-extended-log-style input
//! cat data.csv | parparaw -                # stdin
//! ```
//!
//! Options:
//!
//! ```text
//! --format csv|tsv|psv|scsv|log   input format (default csv)
//! --dfa <file>                 load a custom automaton from a DFA spec
//! --comment <char>             enable line comments (csv formats)
//! --mode tagged|inline|delimited   tagging mode (paper §4.1)
//! --chunk-size <n>             bytes per chunk (default 31)
//! --workers <n>                worker threads (default: all cores)
//! --stream <size>              streamed parse with this partition size (≥ 1 byte)
//! --header                     first record provides the column names
//! --skip-rows a,b,c            prune rows before parsing
//! --select i,j,k               parse only these columns
//! --validate                   reject records with a wrong column count
//! --head <n>                   print the first n rows (default 10)
//! --stats                      print phase timings and simulated-device time
//! --out summary|csv|ipc        output form (default summary)
//! -O <path>                    write --out csv/ipc to a file instead of stdout
//! --utf16le / --utf16be        transcode UTF-16 input first (paper §4.2)
//! ```

use parparaw::columnar::csv_out::{write_csv, CsvWriteOptions};
use parparaw::columnar::ipc;
use parparaw::core::encoding::{utf16_to_utf8, Endianness};
use parparaw::prelude::*;
use std::io::Read;
use std::process::ExitCode;

/// The output form.
enum Out {
    Summary,
    Csv,
    Ipc,
}

struct Args {
    input: Option<String>,
    /// The `--format` automaton; `None` when `--dfa` names a spec file.
    format: Option<Dfa>,
    dfa_spec: Option<String>,
    mode: TaggingMode,
    chunk_size: usize,
    workers: Option<usize>,
    stream: Option<usize>,
    skip_rows: Vec<u64>,
    select: Option<Vec<usize>>,
    validate: bool,
    header: bool,
    head: usize,
    stats: bool,
    out: Out,
    out_path: Option<String>,
    utf16: Option<Endianness>,
}

fn parse_args() -> Result<Args, String> {
    let mut format = "csv".to_string();
    let mut comment = None;
    let mut args = Args {
        input: None,
        format: None,
        dfa_spec: None,
        mode: TaggingMode::RecordTagged,
        chunk_size: 31,
        workers: None,
        stream: None,
        skip_rows: Vec::new(),
        select: None,
        validate: false,
        header: false,
        head: 10,
        stats: false,
        out: Out::Summary,
        out_path: None,
        utf16: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match a.as_str() {
            "--format" => format = value("--format")?,
            "--dfa" => args.dfa_spec = Some(value("--dfa")?),
            "--comment" => {
                let v = value("--comment")?;
                comment = Some(*v.as_bytes().first().ok_or("--comment needs a char")?);
            }
            "--mode" => {
                args.mode = match value("--mode")?.as_str() {
                    "tagged" => TaggingMode::RecordTagged,
                    "inline" => TaggingMode::inline_default(),
                    "delimited" => TaggingMode::VectorDelimited,
                    m => return Err(format!("unknown mode {m}")),
                }
            }
            "--chunk-size" => {
                args.chunk_size = value("--chunk-size")?
                    .parse()
                    .map_err(|e| format!("--chunk-size: {e}"))?
            }
            "--workers" => {
                args.workers = Some(
                    value("--workers")?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))?,
                )
            }
            "--stream" => {
                args.stream = Some(parse_size(&value("--stream")?).ok_or("bad --stream size")?)
            }
            "--skip-rows" => {
                args.skip_rows = value("--skip-rows")?
                    .split(',')
                    .map(|s| s.trim().parse::<u64>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("--skip-rows: {e}"))?
            }
            "--select" => {
                args.select = Some(
                    value("--select")?
                        .split(',')
                        .map(|s| s.trim().parse::<usize>())
                        .collect::<Result<_, _>>()
                        .map_err(|e| format!("--select: {e}"))?,
                )
            }
            "--validate" => args.validate = true,
            "--header" => args.header = true,
            "--head" => {
                args.head = value("--head")?
                    .parse()
                    .map_err(|e| format!("--head: {e}"))?
            }
            "--stats" => args.stats = true,
            "--out" => {
                args.out = match value("--out")?.as_str() {
                    "summary" => Out::Summary,
                    "csv" => Out::Csv,
                    "ipc" => Out::Ipc,
                    o => return Err(format!("unknown output {o}")),
                }
            }
            "-O" => args.out_path = Some(value("-O")?),
            "--utf16le" => args.utf16 = Some(Endianness::Little),
            "--utf16be" => args.utf16 = Some(Endianness::Big),
            "--help" | "-h" => return Err("help".into()),
            other if args.input.is_none() => args.input = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    if args.input.is_none() {
        return Err("no input file (use - for stdin)".into());
    }
    if args.dfa_spec.is_none() {
        let csv = |d: CsvDialect| Some(rfc4180(&CsvDialect { comment, ..d }));
        args.format = match format.as_str() {
            "csv" => csv(CsvDialect::default()),
            "tsv" => csv(CsvDialect::tsv()),
            "psv" => csv(CsvDialect::psv()),
            "scsv" => csv(CsvDialect::semicolon()),
            "log" => Some(parparaw::dfa::log::extended_log()),
            f => return Err(format!("unknown format {f}")),
        };
    }
    Ok(args)
}

/// A byte count with an optional `K`/`M`/`G` suffix; `None` unless it is
/// a finite size of at least one byte.
fn parse_size(s: &str) -> Option<usize> {
    let (num, mult) = match s.chars().last()? {
        'k' | 'K' => (&s[..s.len() - 1], 1usize << 10),
        'm' | 'M' => (&s[..s.len() - 1], 1usize << 20),
        'g' | 'G' => (&s[..s.len() - 1], 1usize << 30),
        _ => (s, 1),
    };
    let bytes = num.parse::<f64>().ok()? * mult as f64;
    (bytes.is_finite() && bytes >= 1.0).then_some(bytes as usize)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if e != "help" {
                eprintln!("error: {e}\n");
            }
            eprintln!("usage: parparaw <file|-> [options]  (see --help header in source)");
            return if e == "help" {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            };
        }
    };

    let raw = match args.input.as_deref() {
        Some("-") => {
            let mut buf = Vec::new();
            if std::io::stdin().read_to_end(&mut buf).is_err() {
                eprintln!("error: failed to read stdin");
                return ExitCode::from(1);
            }
            buf
        }
        Some(path) => match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return ExitCode::from(1);
            }
        },
        None => unreachable!(),
    };

    let grid = args.workers.map(Grid::new).unwrap_or_else(Grid::auto);

    // Optional UTF-16 transcode (paper §4.2); a BOM also triggers it.
    let detected = parparaw::core::encoding::detect_utf16_bom(&raw);
    let utf16 = args.utf16.or(detected.map(|(e, _)| e));
    let bom_skip = detected.map(|(_, n)| n).unwrap_or(0);
    let data: Vec<u8>;
    let bytes: &[u8] = match utf16 {
        Some(endian) => {
            let t = utf16_to_utf8(&grid, &raw[bom_skip..], endian, 1024);
            if t.had_replacements {
                eprintln!("warning: invalid UTF-16 sequences replaced with U+FFFD");
            }
            data = t.bytes;
            &data
        }
        None => &raw,
    };

    let dfa = match (args.format, &args.dfa_spec) {
        (Some(dfa), _) => dfa,
        (None, Some(path)) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    return ExitCode::from(1);
                }
            };
            match parparaw::dfa::spec::parse_spec(&text) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        (None, None) => unreachable!("parse_args sets one of them"),
    };

    let options = ParserOptions {
        grid,
        tagging: args.mode,
        selected_columns: args.select.clone(),
        skip_rows: args.skip_rows.clone(),
        header: args.header,
        validate_column_count: args.validate,
        ..ParserOptions::default()
    }
    .chunk_size(args.chunk_size);
    let parser = Parser::new(dfa, options);

    let t0 = std::time::Instant::now();
    let (table, stats_line) = if let Some(psize) = args.stream {
        match parser.parse_stream(bytes, psize) {
            Ok(s) => {
                let line = format!(
                    "{} records in {} partitions ({} rejected)",
                    s.table.num_rows(),
                    s.partitions.len(),
                    s.rejected_records
                );
                (s.table, line)
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(1);
            }
        }
    } else {
        match parser.parse(bytes) {
            Ok(o) => {
                let line = format!(
                    "{} records × {} columns ({} rejected, {} bad fields{})",
                    o.table.num_rows(),
                    o.table.num_columns(),
                    o.stats.rejected_records,
                    o.stats.conversion_rejects,
                    if o.stats.input_valid {
                        ""
                    } else {
                        ", input INVALID for format"
                    }
                );
                (o.table, line)
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(1);
            }
        }
    };
    let wall = t0.elapsed();
    // The simulated-device figures come from the model, which re-runs the
    // pipeline with the modelled counters; only `--stats` pays for it,
    // after the wall time is taken.
    let sim_line = match (args.stats, args.stream) {
        (true, None) => match parser.model(bytes) {
            Ok(m) => {
                let model = parparaw::device::CostModel::new(
                    parparaw::device::DeviceConfig::titan_x_pascal(),
                );
                format!(
                    "simulated Titan X: {:.3} ms ({:.2} GB/s)\n{}",
                    m.simulated.total_seconds * 1e3,
                    m.simulated.rate_gbps,
                    m.explain(&model)
                )
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(1);
            }
        },
        _ => String::new(),
    };

    match args.out {
        Out::Summary => {
            println!("{stats_line}");
            println!("{}", table.pretty(args.head));
            if args.stats {
                println!("wall: {:.3} ms", wall.as_secs_f64() * 1e3);
                if !sim_line.is_empty() {
                    println!("{sim_line}");
                }
            }
        }
        Out::Csv | Out::Ipc => {
            let out = match args.out {
                Out::Csv => write_csv(&table, &CsvWriteOptions::default()),
                _ => ipc::write_table(&table),
            };
            if let Err(e) = emit(&out, args.out_path.as_deref()) {
                let to = args.out_path.as_deref().unwrap_or("stdout");
                eprintln!("error: write {to}: {e}");
                return ExitCode::from(1);
            }
        }
    }
    ExitCode::SUCCESS
}

fn emit(bytes: &[u8], path: Option<&str>) -> std::io::Result<()> {
    use std::io::Write;
    match path {
        Some(p) => std::fs::write(p, bytes),
        None => std::io::stdout().write_all(bytes),
    }
}
