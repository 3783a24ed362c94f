//! The device cost model's view of a parse, computed on request.
//!
//! A parse records one work profile per host launch, but it walks the
//! host's grid: pass 1 walks the input once per worker piece (see
//! [`crate::context`]), and pass 2 and tagging walk one range of chunks per
//! worker. [`Parser::model`] and [`Parser::model_stream`] run the same
//! pipeline as [`Parser::parse`] and [`Parser::parse_stream`] on the
//! paper's grid instead, where every 31 B chunk is one thread (§3.1–3.2):
//! one pass-1 and pass-2 range per chunk. The kernels are the parse's, and
//! they charge what that grid does. Pass 1 walks one
//! [`LaneWalk`](parparaw_dfa::LaneWalk) per chunk, the same kernel the
//! host walks over its worker pieces, and charges
//! [`LaneWalk::chunk_lane_ops`](parparaw_dfa::LaneWalk::chunk_lane_ops)
//! summed over the chunks; tagging emits the per-chunk field runs, and the
//! `tag`, `partition` and `convert/index` counters charge them. The choice
//! of ranges is the only switch. Replayed through the configured device
//! ([`ParserOptions::device`](crate::ParserOptions::device)), these
//! profiles give the paper-reproduction series of Figs 9–13; they are not
//! a measurement of this host.

use crate::error::ParseError;
use crate::pipeline::Parser;
use crate::streaming::StreamCursor;
use crate::timings::{explain_profiles, SimulatedTimings};
use parparaw_device::streaming::PartitionCost;
use parparaw_device::{CostModel, PcieLink, StreamingPlan, WorkProfile};

/// The modelled work of one parse.
#[derive(Debug, Clone)]
pub struct ParseModel {
    /// The modelled work profile of every kernel launch, in launch order.
    pub profiles: Vec<WorkProfile>,
    /// The profiles replayed through the configured device's cost model.
    pub simulated: SimulatedTimings,
}

impl ParseModel {
    /// Per-kernel explain report on `model`.
    pub fn explain(&self, model: &CostModel) -> String {
        explain_profiles(model, &self.profiles)
    }
}

/// The modelled work of one streamed partition.
#[derive(Debug, Clone)]
pub struct PartitionModel {
    /// New input bytes in this partition's window (the modelled
    /// host-to-device transfer).
    pub input_bytes: u64,
    /// Bytes of the carry prepended from the previous partition.
    pub carry_bytes: u64,
    /// Columnar output bytes returned.
    pub output_bytes: u64,
    /// Simulated on-device parse seconds of the partition.
    pub parse_seconds_simulated: f64,
}

/// The modelled work of a streamed parse, partition by partition.
#[derive(Debug, Clone)]
pub struct StreamModel {
    /// One entry per partition, in order; the cut points are those of
    /// [`Parser::parse_stream`].
    pub partitions: Vec<PartitionModel>,
}

impl StreamModel {
    /// Build the Fig. 7 schedule inputs for the device simulator.
    pub fn streaming_plan(&self, link: PcieLink) -> StreamingPlan {
        StreamingPlan {
            link,
            partitions: self
                .partitions
                .iter()
                .map(|p| PartitionCost {
                    input_bytes: p.input_bytes,
                    output_bytes: p.output_bytes,
                    carry_bytes: p.carry_bytes,
                    parse_seconds: p.parse_seconds_simulated,
                })
                .collect(),
        }
    }
}

impl Parser {
    /// Run [`Parser::parse`]'s pipeline on `input` on the paper's
    /// per-chunk grid, and return the modelled work instead of the table.
    pub fn model(&self, input: &[u8]) -> Result<ParseModel, ParseError> {
        let exec = self.options().build_executor();
        let out = self
            .parse_with(&exec, input, false, None, true, &|_| {})?
            .out;
        let cost = CostModel::new(self.options().device.clone());
        let simulated =
            SimulatedTimings::from_profiles(&cost, &out.profiles, out.stats.input_bytes);
        Ok(ParseModel {
            profiles: out.profiles,
            simulated,
        })
    }

    /// Run [`Parser::parse_stream`]'s cursor on `input` on the paper's
    /// per-chunk grid, and return each partition's modelled work.
    pub fn model_stream(
        &self,
        input: &[u8],
        partition_size: usize,
    ) -> Result<StreamModel, ParseError> {
        let mut cursor = StreamCursor::new(self, partition_size, None).modelled();
        let cost = CostModel::new(self.options().device.clone());
        let mut partitions = Vec::new();
        while let Some(parts) = cursor.step(input) {
            for part in parts? {
                let r = &part.report;
                partitions.push(PartitionModel {
                    input_bytes: r.input_bytes,
                    carry_bytes: r.carry_bytes,
                    output_bytes: r.output_bytes,
                    parse_seconds_simulated: SimulatedTimings::from_profiles(
                        &cost,
                        &part.profiles,
                        r.input_bytes + r.carry_bytes,
                    )
                    .total_seconds,
                });
            }
        }
        Ok(StreamModel { partitions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::identify_ranges;
    use crate::options::{ParserOptions, TaggingMode};
    use crate::partition::partition_by_column_with;
    use crate::tagging::{tag_symbols, TagConfig, RUN_BYTES};
    use parparaw_dfa::csv::{rfc4180, CsvDialect};
    use parparaw_dfa::{Dfa, LaneWalk};
    use parparaw_parallel::{grid, Grid, KernelExecutor};

    fn input() -> Vec<u8> {
        (0..400)
            .flat_map(|i| format!("{i},\"q {i},\nx\",{}.5\n", i % 9).into_bytes())
            .collect()
    }

    /// The paper's pass 1, chunk by chunk: every chunk's start state from
    /// the step-wise vector, and the lane count of one [`LaneWalk`] per
    /// chunk summed over the chunks.
    fn per_chunk_pass1(dfa: &Dfa, input: &[u8], cs: usize) -> (Vec<u8>, u64) {
        let mut state = dfa.start_state();
        let (mut starts, mut ops) = (Vec::new(), 0);
        for chunk in input.chunks(cs) {
            starts.push(state);
            state = dfa.transition_vector(chunk).get(state);
            ops += LaneWalk::chunk_lane_ops(dfa, None, chunk);
        }
        (starts, ops)
    }

    #[test]
    fn model_charges_the_per_chunk_reference_counters() {
        // The model's pass 1 charges the per-chunk lane count, and its
        // pass-2 profiles are the per-chunk reference kernels' launch
        // records, counter for counter. Its `tag`, `partition` and
        // `convert/index` profiles charge the runs tagging emits over
        // one-chunk pass-2 ranges; every other profile is the parse's. All
        // of them are independent of the host's worker count.
        let dfa = rfc4180(&CsvDialect::default());
        let input = input();
        let modes = [
            TaggingMode::RecordTagged,
            TaggingMode::inline_default(),
            TaggingMode::VectorDelimited,
        ];
        for (tagging, cs) in modes.into_iter().flat_map(|t| [(t, 7usize), (t, 31)]) {
            let mut one_worker: Option<Vec<WorkProfile>> = None;
            for workers in [1usize, 2, 3] {
                let opts = ParserOptions {
                    grid: Grid::new(workers),
                    tagging,
                    ..ParserOptions::default()
                }
                .chunk_size(cs);
                let parser = Parser::new(dfa.clone(), opts.clone());
                let model = parser.model(&input).unwrap();
                let parsed = parser.parse(&input).unwrap();

                // The reference: the per-chunk pass 1 run chunk by chunk,
                // pass 2 over one-chunk ranges, and tagging and partition
                // over those.
                let (starts, pass1_ops) = per_chunk_pass1(&dfa, &input, cs);
                let exec = KernelExecutor::new(Grid::new(workers));
                let ranges = grid::partition(starts.len(), starts.len());
                let meta = identify_ranges(&exec, &dfa, &input, cs, &ranges, &starts).unwrap();
                let col_map = [Some(0), Some(1), Some(2)];
                let cfg = TagConfig {
                    mode: opts.tagging,
                    col_map: &col_map,
                    skip_records: &[],
                    expected_columns: None,
                    num_out_rows: meta.num_records,
                    diags: None,
                };
                let tagged = tag_symbols(&exec, &input, cs, &meta, &cfg).unwrap();
                let part =
                    partition_by_column_with(&exec, tagged, 3, opts.partition_kernel).unwrap();
                let reference: Vec<WorkProfile> = exec
                    .drain_log()
                    .iter()
                    .map(WorkProfile::from_launch)
                    .collect();

                let at = format!("{tagging:?} workers {workers} cs {cs}");
                assert_eq!(model.profiles.len(), parsed.profiles.len(), "{at}");
                for want in &reference {
                    let got = model.profiles.iter().find(|p| p.label == want.label);
                    assert_eq!(got, Some(want), "{at}");
                }
                let index: Vec<&WorkProfile> = model
                    .profiles
                    .iter()
                    .filter(|p| p.label == "convert/index")
                    .collect();
                assert_eq!(index.len(), 3, "{at}");
                for (c, p) in index.iter().enumerate() {
                    let runs = part.col_runs(c).unwrap().len() as u64;
                    assert_eq!(p.parallel_ops, runs, "{at} column {c}");
                    assert_eq!(p.bytes_read, runs * RUN_BYTES, "{at} column {c}");
                }
                for (m, p) in model.profiles.iter().zip(&parsed.profiles) {
                    assert_eq!(m.label, p.label, "{at}");
                    match m.label.as_str() {
                        "parse/pass1" => {
                            assert_eq!(p.parallel_ops, 0, "{at}");
                            assert_eq!(m.parallel_ops, pass1_ops, "{at}");
                            assert_eq!(
                                (m.bytes_read, m.bytes_written),
                                (p.bytes_read, p.bytes_written),
                                "{at}"
                            );
                        }
                        // Chunk cuts split fields into more runs than the
                        // parse's worker ranges do.
                        "tag" => assert!(m.bytes_written > p.bytes_written, "{at}"),
                        "partition" | "convert/index" => {}
                        _ => assert_eq!(m, p, "{at}"),
                    }
                }
                let cost = CostModel::new(opts.device.clone());
                let sim = SimulatedTimings::from_profiles(&cost, &model.profiles, 0);
                assert_eq!(sim.total_seconds, model.simulated.total_seconds, "{at}");
                // The model charges the paper's grid, not the host's: its
                // profiles do not depend on the worker count.
                let first = one_worker.get_or_insert_with(|| model.profiles.clone());
                assert_eq!(&model.profiles, first, "{at}");
            }
        }
    }

    #[test]
    fn model_of_fewer_chunks_than_workers_is_the_paper_grid() {
        // No chunk, one chunk, and fewer chunks than workers: the model's
        // profiles do not depend on the worker count, its pass 1 charges
        // the per-chunk lane count, and where every worker range is one
        // chunk the parse charges exactly what the model does.
        let dfa = rfc4180(&CsvDialect::default());
        let cs = 31;
        let inputs = [
            &b""[..],
            b"1,\"a\"\n2,b\n",
            b"1,\"a\nb\",2.5\n3,\"c\",4.5\n44,d,5\n55,\"e,f\",6.25\n",
        ];
        for (input, n_chunks) in inputs.into_iter().zip([0usize, 1, 2]) {
            assert_eq!(input.len().div_ceil(cs), n_chunks);
            let (_, pass1_ops) = per_chunk_pass1(&dfa, input, cs);
            let mut one_worker: Option<Vec<WorkProfile>> = None;
            for workers in [1usize, 2, 3] {
                let opts = ParserOptions {
                    grid: Grid::new(workers),
                    ..ParserOptions::default()
                }
                .chunk_size(cs);
                let parser = Parser::new(dfa.clone(), opts);
                let model = parser.model(input).unwrap();
                let at = format!("{n_chunks} chunks, workers {workers}");
                let pass1 = model.profiles.iter().find(|p| p.label == "parse/pass1");
                assert_eq!(pass1.map(|p| p.parallel_ops), Some(pass1_ops), "{at}");
                if n_chunks <= workers {
                    let parsed = parser.parse(input).unwrap();
                    assert_eq!(parsed.profiles, model.profiles, "{at}");
                }
                let first = one_worker.get_or_insert_with(|| model.profiles.clone());
                assert_eq!(&model.profiles, first, "{at}");
            }
        }
    }

    #[test]
    fn stream_model_follows_the_stream_cut_points() {
        let input = input();
        let mut one_worker = None;
        for workers in [1usize, 2, 3] {
            let parser = Parser::new(
                rfc4180(&CsvDialect::default()),
                ParserOptions {
                    grid: Grid::new(workers),
                    ..ParserOptions::default()
                },
            );
            let streamed = parser.parse_stream(&input, 1024).unwrap();
            let model = parser.model_stream(&input, 1024).unwrap();
            assert_eq!(model.partitions.len(), streamed.partitions.len());
            for (m, r) in model.partitions.iter().zip(&streamed.partitions) {
                assert_eq!(
                    (m.input_bytes, m.carry_bytes, m.output_bytes),
                    (r.input_bytes, r.carry_bytes, r.output_bytes)
                );
                assert!(m.parse_seconds_simulated > 0.0);
            }
            let plan = model.streaming_plan(PcieLink::pcie3_x16());
            let report = plan.simulate(&CostModel::new(parser.options().device.clone()));
            assert!(report.total_seconds > 0.0);
            // Every partition's modelled work is the same on any host
            // worker count.
            let first = one_worker.get_or_insert_with(|| plan.partitions.clone());
            assert_eq!(&plan.partitions, first, "workers {workers}");
        }
    }
}
