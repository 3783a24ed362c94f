//! Ablation benchmarks for the design choices called out in DESIGN.md:
//! scan variants, SWAR vs naive symbol matching, MFIRA vs plain arrays,
//! radix digit count, pass-1 chunk-size sensitivity, the pass-1 fast
//! lane (table-driven + collapse, ± byte-pair table), and arena-backed
//! radix scratch.
//!
//! Plain `main()` with `std` timing — run with
//! `cargo bench -p parparaw-bench --bench ablations`. Pass `--json` to
//! also write `BENCH_ablations.json` to the working directory.

use parparaw_bench::{arg_flag, bench_ms, report};
use parparaw_dfa::csv::rfc4180_paper;
use parparaw_dfa::{LaneWalk, Mfira, PairTable, SwarMatcher};
use parparaw_parallel::executor::BufferArena;
use parparaw_parallel::lookback::exclusive_scan_lookback;
use parparaw_parallel::scan::{exclusive_scan, exclusive_scan_seq, AddOp};
use parparaw_parallel::Grid;
use std::hint::black_box;

fn main() {
    let mut rows: Vec<(String, String, f64)> = Vec::new();
    let mut push = |group: &str, name: &str, ms: f64| {
        rows.push((group.to_string(), name.to_string(), ms));
    };

    // Scan variants.
    let xs: Vec<u64> = (0..1_000_000u64).map(|i| i % 97).collect();
    let grid = Grid::new(4);
    push(
        "scan",
        "sequential",
        bench_ms(10, || exclusive_scan_seq(&xs, &AddOp)),
    );
    push(
        "scan",
        "blocked",
        bench_ms(10, || exclusive_scan(&grid, &xs, &AddOp)),
    );
    push(
        "scan",
        "decoupled_lookback",
        bench_ms(10, || exclusive_scan_lookback(&grid, &xs, &AddOp, 4096)),
    );

    // Symbol matching: table lookup vs SWAR.
    let dfa = rfc4180_paper();
    let symbols: Vec<(u8, u8)> = dfa.symbol_groups().symbols().to_vec();
    let swar = SwarMatcher::new(&symbols, dfa.symbol_groups().catch_all());
    let data: Vec<u8> = (0..65_536u32).map(|i| (i * 131 % 251) as u8).collect();
    push(
        "matcher",
        "lut",
        bench_ms(10, || {
            let mut acc = 0u32;
            for &byte in &data {
                acc = acc.wrapping_add(dfa.group_of(black_box(byte)) as u32);
            }
            acc
        }),
    );
    push(
        "matcher",
        "swar",
        bench_ms(10, || {
            let mut acc = 0u32;
            for &byte in &data {
                acc = acc.wrapping_add(swar.group_of(black_box(byte)) as u32);
            }
            acc
        }),
    );

    // MFIRA vs a plain array.
    push(
        "mfira",
        "mfira_6x4bit",
        bench_ms(10, || {
            let mut arr = Mfira::new(6, 4);
            for i in 0..6u32 {
                arr.set(i, (i * 3) % 16);
            }
            let mut acc = 0u32;
            for _ in 0..64 {
                for i in 0..6u32 {
                    acc = acc.wrapping_add(arr.get(black_box(i)));
                }
            }
            acc
        }),
    );
    push(
        "mfira",
        "vec_6xu8",
        bench_ms(10, || {
            let mut arr = [0u8; 6];
            for (i, slot) in arr.iter_mut().enumerate() {
                *slot = ((i * 3) % 16) as u8;
            }
            let mut acc = 0u32;
            for _ in 0..64 {
                for i in 0..6usize {
                    acc = acc.wrapping_add(arr[black_box(i)] as u32);
                }
            }
            acc
        }),
    );

    // Pass-1 chunk-size sensitivity.
    let input = parparaw_workloads::taxi::generate(1 << 20, 3);
    let grid2 = Grid::new(2);
    for cs in [4usize, 31, 256] {
        push(
            "pass1_chunk",
            &cs.to_string(),
            bench_ms(5, || {
                parparaw_core::context::determine_contexts(&grid2, &dfa, &input, cs).final_state
            }),
        );
    }

    // Pass-1 fast lane: step-wise reference vs per-byte table + collapse,
    // with and without the byte-pair table (the `pass1_pair_table` knob).
    let yelp = parparaw_workloads::yelp::generate(4 << 20, 0xE11A5);
    let pt = PairTable::build(&dfa);
    let cs = 31usize;
    push(
        "pass1_kernel",
        "stepwise",
        bench_ms(5, || {
            yelp.chunks(cs)
                .map(|c| dfa.transition_vector(c).packed())
                .fold(0u64, u64::wrapping_add)
        }),
    );
    for (variant, pair) in [("fast_lane", None), ("fast_lane_pair_table", Some(&pt))] {
        push(
            "pass1_kernel",
            variant,
            bench_ms(5, || {
                yelp.chunks(cs)
                    .map(|c| {
                        let mut walk = LaneWalk::new(&dfa, pair);
                        walk.step(c, 0, c.len());
                        walk.vector().packed()
                    })
                    .fold(0u64, u64::wrapping_add)
            }),
        );
    }

    // Radix digit count: one pass vs four.
    let grid3 = Grid::new(2);
    let n = 1_000_000usize;
    let keys: Vec<u32> = (0..n as u32).map(|i| i * 2654435761 % 17).collect();
    let vals: Vec<(u8, u32)> = (0..n).map(|i| ((i % 251) as u8, i as u32)).collect();
    push(
        "radix",
        "one_digit_pass",
        bench_ms(5, || {
            let mut k = keys.clone();
            let mut v = vals.clone();
            parparaw_parallel::radix::sort_pairs_by_key(&grid3, &mut k, &mut v, 16, 8);
            k[0]
        }),
    );
    push(
        "radix",
        "four_digit_passes",
        bench_ms(5, || {
            let mut k = keys.clone();
            let mut v = vals.clone();
            parparaw_parallel::radix::sort_pairs_by_key(&grid3, &mut k, &mut v, u32::MAX, 8);
            k[0]
        }),
    );

    // Radix scratch: fresh allocations per sort vs arena-pooled buffers
    // (what the pipeline's partition launch uses).
    let arena = BufferArena::default();
    push(
        "radix_scratch",
        "fresh_alloc",
        bench_ms(5, || {
            let mut k = keys.clone();
            let mut v = vals.clone();
            parparaw_parallel::radix::sort_pairs_by_key(&grid3, &mut k, &mut v, 16, 4);
            k[0]
        }),
    );
    push(
        "radix_scratch",
        "arena_pooled",
        bench_ms(5, || {
            let mut k = keys.clone();
            let mut v = vals.clone();
            parparaw_parallel::radix::sort_pairs_by_key_in(&grid3, &arena, &mut k, &mut v, 16, 4);
            k[0]
        }),
    );

    // Partition kernel: the paper's per-symbol radix sort vs the
    // field-run scatter, on the full tag output of a 4 MB yelp input.
    // Runs last: its multi-megabyte buffers would otherwise warm the
    // allocator under the radix_scratch comparison above.
    {
        use parparaw_bench::bench_ms_consuming;
        use parparaw_core::options::{PartitionKernel, ScanAlgorithm};
        use parparaw_core::partition::partition_by_column_with;
        use parparaw_core::tagging::{tag_symbols, TagConfig};
        use parparaw_parallel::KernelExecutor;

        let exec = KernelExecutor::new(Grid::new(2));
        let cols = 9usize; // the yelp dataset's column count
        let ctx = parparaw_core::context::determine_contexts_fast(
            &exec,
            &dfa,
            &yelp,
            cs,
            ScanAlgorithm::Blocked,
            None,
        )
        .expect("pass 1 runs");
        let meta = parparaw_core::meta::identify_columns_and_records(
            &exec,
            &dfa,
            &yelp,
            cs,
            &ctx.start_states,
        )
        .expect("pass 2 runs");
        let col_map: Vec<Option<u32>> = (0..cols as u32).map(Some).collect();
        let cfg = TagConfig {
            mode: Default::default(),
            col_map: &col_map,
            skip_records: &[],
            expected_columns: None,
            num_out_rows: meta.num_records,
            diags: None,
        };
        let tagged = tag_symbols(&exec, &yelp, cs, &meta, &cfg).expect("tag runs");
        for kernel in [PartitionKernel::RadixSort, PartitionKernel::RunScatter] {
            push(
                "partition_kernel",
                kernel.name(),
                bench_ms_consuming(
                    5,
                    || tagged.clone(),
                    |t| {
                        partition_by_column_with(&exec, t, cols, kernel)
                            .expect("partition runs")
                            .symbols
                            .len()
                    },
                ),
            );
        }
        let _ = exec.drain_log();
    }

    println!("ablations");
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(g, n, ms)| vec![g.clone(), n.clone(), report::ms(*ms)])
        .collect();
    println!(
        "{}",
        report::table(&["group", "variant", "ms"], &table_rows)
    );

    if arg_flag("--json") {
        let mut json = String::from("{\n  \"harness\": \"ablations\",\n  \"rows\": [\n");
        for (i, (g, n, ms)) in rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"group\": {}, \"variant\": {}, \"ms\": {}}}{}\n",
                report::json_str(g),
                report::json_str(n),
                report::json_num(*ms),
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]\n}\n");
        std::fs::write("BENCH_ablations.json", json).expect("write BENCH_ablations.json");
        println!("wrote BENCH_ablations.json");
    }
}
