//! Regenerates the paper's Table I: full-scan test point insertion on
//! the 11-circuit suite, `K_bound = 10`, `gain_bound = 0.5`.
//!
//! Usage: `cargo run --release -p tpi-bench --bin table1 [--threads N] [circuit ...]`
//! (no circuit arguments = the whole suite; `--threads 0` = all hardware
//! threads, default 1. The selections are identical for every thread
//! count — only the CPU column changes.)

use std::time::Instant;
use tpi_bench::render_table1_comparison;
use tpi_core::flow::FullScanFlow;
use tpi_core::FlowOptions;
use tpi_net::cli::Cli;
use tpi_workloads::{generate, suite};

fn main() {
    let cli = Cli::parse();
    println!("Table I — full-scan test point insertion (paper vs. this reproduction)");
    println!("circuit  |  A=#FF  B=#insertions  C=#free  D=#scan-paths  red=overhead reduction");
    println!("{}", "-".repeat(110));
    let flow = FullScanFlow::default();
    let opts = FlowOptions::new().with_threads(cli.threads);
    for spec in suite() {
        if !cli.selects(&spec.name) {
            continue;
        }
        let n = generate(&spec);
        let t0 = Instant::now();
        let mut result = match flow.run_with(&n, &opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{}: {e}", spec.name);
                std::process::exit(1);
            }
        };
        result.row.cpu_seconds = t0.elapsed().as_secs_f64();
        println!("{}", render_table1_comparison(&result.row));
    }
    println!();
    println!("notes: the workloads are synthetic stand-ins calibrated to the paper's");
    println!("interface statistics and structural classes (see DESIGN.md §3); compare");
    println!("shapes (which circuits reduce a lot vs. a little), not absolute numbers.");
    println!("Every produced chain passed the §V flush test.");
}
