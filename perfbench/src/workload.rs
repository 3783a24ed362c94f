//! The workloads: how each input is generated from a seed, what one
//! timed op is, and the sequential reference every op is checked against.

use parparaw_baselines::SequentialParser;
use parparaw_columnar::{ipc, Schema, Table};
use parparaw_core::{Parser, ParserOptions, StreamedOutput};
use parparaw_dfa::csv::{rfc4180, CsvDialect};
use parparaw_dfa::Dfa;
use parparaw_parallel::Grid;
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Size of every generated input (whole records, so a few hundred bytes
/// more).
pub const INPUT_BYTES: usize = 16 << 20;

/// Partition size of the streaming workload.
pub const STREAM_PARTITION_BYTES: usize = 256 << 10;

/// A dataset generator of `parparaw-workloads`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// Yelp-review stand-in: 9 columns, long quoted text.
    Yelp,
    /// NYC-taxi stand-in: 17 short numeric and temporal columns.
    Taxi,
}

impl Dataset {
    /// The input for `seed`: the same seed always gives the same bytes.
    pub fn generate(self, seed: u64) -> Vec<u8> {
        match self {
            Dataset::Yelp => parparaw_workloads::yelp::generate(INPUT_BYTES, seed),
            Dataset::Taxi => parparaw_workloads::taxi::generate(INPUT_BYTES, seed),
        }
    }

    /// The dataset's column schema.
    pub fn schema(self) -> Schema {
        match self {
            Dataset::Yelp => parparaw_workloads::yelp::schema(),
            Dataset::Taxi => parparaw_workloads::taxi::schema(),
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Parser::parse` on yelp.
    YelpParse,
    /// `Parser::parse` on taxi.
    TaxiParse,
    /// `Parser::parse_stream` on yelp with 256 KiB partitions.
    YelpStream,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::YelpParse,
        Workload::TaxiParse,
        Workload::YelpStream,
    ];

    /// The name given on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::YelpParse => "yelp-parse",
            Workload::TaxiParse => "taxi-parse",
            Workload::YelpStream => "yelp-stream",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The dataset it parses.
    pub fn dataset(self) -> Dataset {
        match self {
            Workload::YelpParse | Workload::YelpStream => Dataset::Yelp,
            Workload::TaxiParse => Dataset::Taxi,
        }
    }

    /// Whether an op streams the input in partitions.
    pub fn streams(self) -> bool {
        self == Workload::YelpStream
    }

    /// The options every parser of this workload uses: the dataset's
    /// schema on `grid`, everything else default.
    pub fn options(self, grid: Grid) -> ParserOptions {
        ParserOptions {
            grid,
            schema: Some(self.dataset().schema()),
            ..ParserOptions::default()
        }
    }

    /// A parser on `grid`. Building it is the first step of set-up.
    pub fn parser(self, grid: Grid) -> Parser {
        Parser::new(format(), self.options(grid))
    }
}

/// The format every workload parses: RFC 4180 CSV, default dialect.
pub fn format() -> Dfa {
    rfc4180(&CsvDialect::default())
}

/// A fingerprint of IPC bytes: their length and a SipHash of them. The
/// benchmark keeps only this of the reference output, so the reference
/// adds nothing to the resident set of the timed ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    len: u64,
    hash: u64,
}

impl Digest {
    /// The digest of `bytes`.
    pub fn of(bytes: &[u8]) -> Digest {
        let mut h = DefaultHasher::new();
        h.write(bytes);
        Digest {
            len: bytes.len() as u64,
            hash: h.finish(),
        }
    }

    /// Length in bytes of the digested output.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Text form, as passed to a set-up child process.
    pub fn encode(&self) -> String {
        format!("{}:{:016x}", self.len, self.hash)
    }

    /// Inverse of [`Digest::encode`].
    pub fn decode(s: &str) -> Option<Digest> {
        let (len, hash) = s.split_once(':')?;
        Some(Digest {
            len: len.parse().ok()?,
            hash: u64::from_str_radix(hash, 16).ok()?,
        })
    }
}

/// The sequential reference on the same bytes and options: the IPC
/// digest every op must reproduce, and the wall time of the floor op
/// (`SequentialParser::parse` plus `ipc::write_table`).
pub fn reference(w: Workload, input: &[u8]) -> Result<(Digest, Duration), String> {
    let seq = SequentialParser::new(format(), w.options(Grid::new(1)));
    let t0 = Instant::now();
    let out = seq
        .parse(black_box(input))
        .map_err(|e| format!("sequential reference failed: {e}"))?;
    let bytes = ipc::write_table(&out.table);
    let wall = t0.elapsed();
    Ok((Digest::of(&bytes), wall))
}

/// What the streaming op reports about its partitions.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamFacts {
    /// Partitions parsed.
    pub partitions: u64,
    /// Σ of each partition's parse wall time over the stream's wall time.
    pub parse_busy_share: f64,
    /// Bytes carried from one partition into the next, summed.
    pub carry_bytes: u64,
}

/// One op's output and timing.
#[derive(Debug)]
pub struct Op {
    /// The IPC bytes.
    pub ipc: Vec<u8>,
    /// Wall time of the whole op.
    pub wall: Duration,
    /// Wall time of the parse (everything before `ipc::write_table`).
    pub parse: Duration,
    /// Wall time of `ipc::write_table`.
    pub write: Duration,
    /// Kernel launches, from the parse's launch log (monolithic ops only;
    /// a stream does not expose its per-partition logs).
    pub launches: Option<u64>,
    /// Launch retries the op reported.
    pub retries: u64,
    /// Partition facts of a streaming op.
    pub stream: Option<StreamFacts>,
}

/// Run one op: parse `input` through the public API, then serialise the
/// table to IPC in memory.
pub fn run_op(w: Workload, parser: &Parser, input: &[u8]) -> Result<Op, String> {
    let t0 = Instant::now();
    let (table, launches, retries, stream) = if w.streams() {
        let out: StreamedOutput = parser
            .parse_stream(black_box(input), STREAM_PARTITION_BYTES)
            .map_err(|e| format!("parse_stream failed: {e}"))?;
        let busy: Duration = out.partitions.iter().map(|p| p.parse_wall).sum();
        let facts = StreamFacts {
            partitions: out.partitions.len() as u64,
            parse_busy_share: busy.as_secs_f64() / out.wall.as_secs_f64(),
            carry_bytes: out.partitions.iter().map(|p| p.carry_bytes).sum(),
        };
        let retries = out.total_retries();
        (out.table, None, retries, Some(facts))
    } else {
        let out = parser
            .parse(black_box(input))
            .map_err(|e| format!("parse failed: {e}"))?;
        let launches = out.profiles.len() as u64;
        (out.table, Some(launches), out.timings.retries, None)
    };
    let t1 = Instant::now();
    let ipc = write(&table);
    let t2 = Instant::now();
    Ok(Op {
        ipc,
        wall: t2 - t0,
        parse: t1 - t0,
        write: t2 - t1,
        launches,
        retries,
        stream,
    })
}

/// Serialise `table` to IPC bytes in memory.
pub fn write(table: &Table) -> Vec<u8> {
    black_box(ipc::write_table(black_box(table)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(crate::stats::valid_name(w.name()));
        }
        assert_eq!(Workload::from_name("yelp"), None);
    }

    #[test]
    fn digest_round_trips_and_separates() {
        let d = Digest::of(b"abc");
        assert_eq!(Digest::decode(&d.encode()), Some(d));
        assert_ne!(Digest::of(b"abd"), d);
        assert_ne!(Digest::of(b"abc\0"), d);
        assert_eq!(Digest::decode("12"), None);
    }

    #[test]
    fn every_op_shape_matches_the_reference_on_a_small_input() {
        for w in Workload::ALL {
            let input = match w.dataset() {
                Dataset::Yelp => parparaw_workloads::yelp::generate(300 << 10, 7),
                Dataset::Taxi => parparaw_workloads::taxi::generate(300 << 10, 7),
            };
            let (want, _) = reference(w, &input).unwrap();
            let op = run_op(w, &w.parser(Grid::new(2)), &input).unwrap();
            assert_eq!(Digest::of(&op.ipc), want, "{}", w.name());
            assert_eq!(op.stream.is_some(), w.streams());
        }
    }
}
