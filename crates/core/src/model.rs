//! The device cost model's view of a parse, computed on request.
//!
//! A parse records one work profile per host launch, but it no longer
//! computes what only the cost model reads: pass 1 walks the input once
//! per worker piece (see [`crate::context`]) and does not count the lane
//! operations of the paper's per-chunk kernel. [`Parser::model`] and
//! [`Parser::model_stream`] run the same pipeline as [`Parser::parse`] and
//! [`Parser::parse_stream`] with one switch set: `parse/pass1` also
//! charges [`Dfa::fast_lane_ops`](parparaw_dfa::Dfa::fast_lane_ops) summed
//! over every chunk. Every other counter is the one a parse records.
//! Replayed through the configured device
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
    /// Run [`Parser::parse`]'s pipeline on `input` with the modelled
    /// counters on, and return the modelled work instead of the table.
    pub fn model(&self, input: &[u8]) -> Result<ParseModel, ParseError> {
        let exec = self.options().build_executor();
        let out = self.parse_with(&exec, input, false, None, true)?.out;
        let cost = CostModel::new(self.options().device.clone());
        let simulated =
            SimulatedTimings::from_profiles(&cost, &out.profiles, out.stats.input_bytes);
        Ok(ParseModel {
            profiles: out.profiles,
            simulated,
        })
    }

    /// Run [`Parser::parse_stream`]'s cursor on `input` with the modelled
    /// counters on, and return each partition's modelled work.
    pub fn model_stream(
        &self,
        input: &[u8],
        partition_size: usize,
    ) -> Result<StreamModel, ParseError> {
        let exec = self.options().build_executor();
        let mut cursor = StreamCursor::new(self, partition_size, None).modelled();
        let cost = CostModel::new(self.options().device.clone());
        let mut partitions = Vec::new();
        while let Some(batch) = cursor.step(&exec, input) {
            let batch = batch?;
            let r = &batch.report;
            partitions.push(PartitionModel {
                input_bytes: r.input_bytes,
                carry_bytes: r.carry_bytes,
                output_bytes: r.output_bytes,
                parse_seconds_simulated: SimulatedTimings::from_profiles(
                    &cost,
                    &batch.profiles,
                    r.input_bytes + r.carry_bytes,
                )
                .total_seconds,
            });
        }
        Ok(StreamModel { partitions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::determine_contexts_fast;
    use crate::meta::identify_columns_and_records;
    use crate::options::ParserOptions;
    use parparaw_dfa::csv::{rfc4180, CsvDialect};
    use parparaw_parallel::{Grid, KernelExecutor};

    fn input() -> Vec<u8> {
        (0..400)
            .flat_map(|i| format!("{i},\"q {i},\nx\",{}.5\n", i % 9).into_bytes())
            .collect()
    }

    #[test]
    fn model_charges_the_per_chunk_reference_counters() {
        // The model's pass-1 and pass-2 profiles are the per-chunk
        // reference kernels' launch records, counter for counter; the
        // parse's differ only in pass 1's lane count.
        let dfa = rfc4180(&CsvDialect::default());
        let input = input();
        for workers in [1usize, 2, 3] {
            for cs in [7usize, 31] {
                let opts = ParserOptions {
                    grid: Grid::new(workers),
                    ..ParserOptions::default()
                }
                .chunk_size(cs);
                let parser = Parser::new(dfa.clone(), opts.clone());
                let model = parser.model(&input).unwrap();
                let parsed = parser.parse(&input).unwrap();

                let exec = KernelExecutor::new(Grid::new(workers));
                let ctx =
                    determine_contexts_fast(&exec, &dfa, &input, cs, opts.scan_algorithm, None)
                        .unwrap();
                identify_columns_and_records(&exec, &dfa, &input, cs, &ctx.start_states).unwrap();
                let reference: Vec<WorkProfile> = exec
                    .drain_log()
                    .iter()
                    .map(WorkProfile::from_launch)
                    .collect();

                let at = format!("workers {workers} cs {cs}");
                assert_eq!(model.profiles.len(), parsed.profiles.len(), "{at}");
                for want in &reference {
                    let got = model.profiles.iter().find(|p| p.label == want.label);
                    assert_eq!(got, Some(want), "{at}");
                }
                for (m, p) in model.profiles.iter().zip(&parsed.profiles) {
                    assert_eq!(m.label, p.label, "{at}");
                    if m.label == "parse/pass1" {
                        assert_eq!(p.parallel_ops, 0, "{at}");
                        assert!(m.parallel_ops > 0, "{at}");
                    } else {
                        assert_eq!(m, p, "{at}");
                    }
                }
                let cost = CostModel::new(opts.device.clone());
                let sim = SimulatedTimings::from_profiles(&cost, &model.profiles, 0);
                assert_eq!(sim.total_seconds, model.simulated.total_seconds, "{at}");
            }
        }
    }

    #[test]
    fn stream_model_follows_the_stream_cut_points() {
        let parser = Parser::new(
            rfc4180(&CsvDialect::default()),
            ParserOptions {
                grid: Grid::new(2),
                ..ParserOptions::default()
            },
        );
        let input = input();
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
        let report = model
            .streaming_plan(PcieLink::pcie3_x16())
            .simulate(&CostModel::new(parser.options().device.clone()));
        assert!(report.total_seconds > 0.0);
    }
}
