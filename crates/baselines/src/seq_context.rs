//! A GPU-style parser with *sequential* context determination.
//!
//! The design ParPaRaw argues against (paper §1/§2): the data-parallel
//! machinery of the pipeline is kept — bitmaps, offset scans, tagging,
//! partitioning, conversion all run in parallel — but each chunk's
//! starting state is determined by a **single sequential DFA pass** over
//! the whole input instead of the multi-DFA + scan trick. The output is
//! bit-identical to ParPaRaw's; only the work distribution differs: the
//! context pass contributes `input_len` *serial* operations, which the
//! device cost model turns into the Amdahl ceiling that dominates Fig. 13's
//! cuDF-style entry.

use parparaw_core::options::ParserOptions;
use parparaw_core::pipeline::Parser;
use parparaw_core::timings::{ParseOutput, SimulatedTimings};
use parparaw_core::ParseError;
use parparaw_device::{CostModel, WorkProfile};
use parparaw_dfa::Dfa;
use std::time::{Duration, Instant};

/// Output of the sequential-context parser.
#[derive(Debug)]
pub struct SeqContextOutput {
    /// The full parse output (identical table to ParPaRaw's).
    pub output: ParseOutput,
    /// Wall time of the sequential context pass alone.
    pub context_wall: Duration,
    /// The modelled work profiles ([`Parser::model`]'s, on the paper's
    /// per-chunk grid) with context determination replaced by serial work
    /// (feed these to the cost model instead of `output.profiles`).
    pub profiles: Vec<WorkProfile>,
}

/// A parser that is ParPaRaw from the bitmaps onward but determines
/// chunk contexts with one serial pass.
#[derive(Debug, Clone)]
pub struct SeqContextGpuParser {
    inner: Parser,
}

impl SeqContextGpuParser {
    /// Build from a format automaton and options.
    pub fn new(dfa: Dfa, options: ParserOptions) -> Self {
        SeqContextGpuParser {
            inner: Parser::new(dfa, options),
        }
    }

    /// Parse; the table is produced by the regular pipeline (results are
    /// identical), while the *context pass is actually executed serially
    /// here* so its wall time is real, and the reported work profiles
    /// carry it as serial work.
    pub fn parse(&self, input: &[u8]) -> Result<SeqContextOutput, ParseError> {
        // The real sequential context pass (also validates the chunk start
        // states against what the parallel trick finds).
        let dfa = self.inner.dfa();
        let chunk_size = self.inner.options().chunk_size;
        let t0 = Instant::now();
        let mut start_states = Vec::with_capacity(input.len().div_ceil(chunk_size.max(1)));
        let mut state = dfa.start_state();
        for (i, &b) in input.iter().enumerate() {
            if i % chunk_size == 0 {
                start_states.push(state);
            }
            state = dfa.step(state, b).next;
        }
        let context_wall = t0.elapsed();

        let output = self.inner.parse(input)?;

        // Exercise the serially-derived states: they must agree with the
        // parallel recovery (this is the correctness bridge between the
        // two designs and doubles as a self-check).
        debug_assert_eq!(
            {
                let grid = &self.inner.options().grid;
                let ctx = parparaw_core::context::determine_contexts(grid, dfa, input, chunk_size);
                ctx.start_states
            },
            start_states,
            "sequential and parallel context determination disagree"
        );

        // Swap the context-determination profiles for the serial pass.
        // The other profiles are `Parser::model`'s, as in ParPaRaw's own
        // row: the paper's per-chunk grid, not the host's worker ranges.
        let modelled = self.inner.model(input)?;
        let mut profiles: Vec<WorkProfile> = Vec::new();
        let mut ctx_profile = WorkProfile::new("parse/seq-context");
        ctx_profile.kernel_launches = 1;
        ctx_profile.bytes_read = input.len() as u64;
        ctx_profile.bytes_written = start_states.len() as u64;
        // Row fetch + state update per byte on one device thread.
        ctx_profile.serial_ops = input.len() as u64 * 2;
        profiles.push(ctx_profile);
        profiles.extend(
            modelled
                .profiles
                .into_iter()
                .filter(|p| p.label != "parse/pass1" && p.label != "scan/context"),
        );

        Ok(SeqContextOutput {
            output,
            context_wall,
            profiles,
        })
    }

    /// Simulated on-device seconds for this design.
    pub fn simulated(&self, out: &SeqContextOutput, model: &CostModel) -> SimulatedTimings {
        SimulatedTimings::from_profiles(model, &out.profiles, out.output.stats.input_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parparaw_core::parse_csv;
    use parparaw_device::DeviceConfig;
    use parparaw_dfa::csv::{rfc4180, CsvDialect};
    use parparaw_parallel::Grid;

    fn opts() -> ParserOptions {
        ParserOptions {
            grid: Grid::new(2),
            ..ParserOptions::default()
        }
    }

    #[test]
    fn output_identical_to_parparaw() {
        let input = b"1,\"a\nb\",2.5\n3,\"c\",4.5\n";
        let p = SeqContextGpuParser::new(rfc4180(&CsvDialect::default()), opts());
        let out = p.parse(input).unwrap();
        let reference = parse_csv(input, opts()).unwrap();
        assert_eq!(out.output.table, reference.table);
    }

    #[test]
    fn profile_has_serial_context() {
        let input = vec![b'x'; 10_000];
        let p = SeqContextGpuParser::new(rfc4180(&CsvDialect::default()), opts());
        let out = p.parse(&input).unwrap();
        let ctx = out
            .profiles
            .iter()
            .find(|p| p.label == "parse/seq-context")
            .unwrap();
        assert_eq!(ctx.serial_ops, 20_000);
        assert!(out.profiles.iter().all(|p| p.label != "parse/pass1"));
    }

    #[test]
    fn profiles_are_the_model_on_any_worker_count() {
        let input: Vec<u8> = (0..2000)
            .flat_map(|i| format!("{i},\"q {i},\nx\",{}.5\n", i % 9).into_bytes())
            .collect();
        let dfa = rfc4180(&CsvDialect::default());
        let mut one_worker: Option<Vec<WorkProfile>> = None;
        for workers in [1usize, 2, 3] {
            let opts = ParserOptions {
                grid: Grid::new(workers),
                ..ParserOptions::default()
            };
            let out = SeqContextGpuParser::new(dfa.clone(), opts.clone())
                .parse(&input)
                .unwrap();
            let model = Parser::new(dfa.clone(), opts).model(&input).unwrap();
            let want: Vec<&WorkProfile> = model.profiles[2..].iter().collect();
            let got: Vec<&WorkProfile> = out.profiles[1..].iter().collect();
            assert_eq!(model.profiles[0].label, "parse/pass1");
            assert_eq!(model.profiles[1].label, "scan/context");
            assert_eq!(got, want, "workers {workers}");
            let first = one_worker.get_or_insert_with(|| out.profiles.clone());
            assert_eq!(&out.profiles, first, "workers {workers}");
        }
    }

    #[test]
    fn amdahl_dominates_on_the_simulated_device() {
        // At a realistic size, the serial context pass must make the
        // simulated time far worse than ParPaRaw's fully parallel variant.
        let mut input = Vec::new();
        for i in 0..100_000 {
            input.extend_from_slice(format!("{i},text value {i},{}.25\n", i % 50).as_bytes());
        }
        let model = CostModel::new(DeviceConfig::titan_x_pascal());
        let p = SeqContextGpuParser::new(rfc4180(&CsvDialect::default()), opts());
        let out = p.parse(&input).unwrap();
        let seq_sim = p.simulated(&out, &model);
        let par_sim = Parser::new(rfc4180(&CsvDialect::default()), opts())
            .model(&input)
            .unwrap()
            .simulated;
        assert!(
            seq_sim.total_seconds > par_sim.total_seconds * 3.0,
            "serial context {} vs parallel {}",
            seq_sim.total_seconds,
            par_sim.total_seconds
        );
    }
}
