//! Regenerate paper Figure 11: tagging-mode breakdown and skew robustness.
//!
//! Usage: `cargo run --release -p parparaw-bench --bin fig11 [--bytes 16M] [--giant 4M]
//! [--workers N] [--json]`
//!
//! With `--json`, also writes the tagging-mode series to
//! `BENCH_fig11.json` in the working directory (CI pins its simulated
//! values with `results/fig09_sim.py`).

use parparaw_bench::{arg_flag, arg_size, fig11};

fn main() {
    let bytes = arg_size("--bytes", 8 << 20);
    let giant = arg_size("--giant", 2 << 20);
    let workers = arg_size("--workers", 1);
    let modes = fig11::run_modes(bytes, workers);
    let skew = fig11::run_skew(bytes, giant, workers);
    println!("{}", fig11::print(&modes, &skew));
    if arg_flag("--json") {
        let path = "BENCH_fig11.json";
        std::fs::write(path, fig11::to_json(bytes, workers, &modes))
            .expect("write BENCH_fig11.json");
        println!("wrote {path}");
    }
}
