//! Regenerates the paper's Table III: timing-driven partial scan with
//! the three methods CB / TD-CB / TPTIME.
//!
//! Usage: `cargo run --release -p tpi-bench --bin table3 [--threads N] [circuit ...]`
//! (`--threads 0` = all hardware threads, default 1; selections are
//! identical for every thread count.)

use std::time::Instant;
use tpi_bench::PAPER_TABLE3;
use tpi_core::flow::{PartialScanFlow, PartialScanMethod};
use tpi_core::FlowOptions;
use tpi_net::cli::Cli;
use tpi_workloads::{generate, suite};

fn main() {
    let cli = Cli::parse();
    println!("Table III — timing-driven partial scan (percent columns; paper | ours)");
    println!(
        "{:<9} {:<7} | paper: {:>5} {:>6} {:>6} | ours: {:>5} {:>6} {:>6} {:>8}",
        "circuit", "method", "#FF", "area%", "delay%", "#FF", "area%", "delay%", "cpu"
    );
    println!("{}", "-".repeat(92));
    for spec in suite() {
        if !cli.selects(&spec.name) {
            continue;
        }
        let n = generate(&spec);
        let paper = PAPER_TABLE3
            .iter()
            .find(|r| r.circuit == spec.name)
            .expect("suite mirrors the paper's circuit list");
        for (method, (pff, parea, pdelay)) in [
            (PartialScanMethod::Cb, paper.cb),
            (PartialScanMethod::TdCb, paper.td_cb),
            (PartialScanMethod::TpTime, paper.tptime),
        ] {
            let t0 = Instant::now();
            let mut r = match PartialScanFlow::new(method)
                .run_with(&n, &FlowOptions::new().with_threads(cli.threads))
            {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{} {}: {e}", spec.name, method.label());
                    std::process::exit(1);
                }
            };
            r.row.cpu_seconds = t0.elapsed().as_secs_f64();
            assert!(r.acyclic, "{}: {:?} left s-graph cycles", spec.name, method);
            println!(
                "{:<9} {:<7} | paper: {:>5} {:>5.1}% {:>5.1}% | ours: {:>5} {:>5.1}% {:>5.1}% {:>7.1}s",
                spec.name,
                method.label(),
                pff,
                parea,
                pdelay,
                r.row.selected_ffs,
                r.row.area_pct,
                r.row.delay_pct,
                r.row.cpu_seconds,
            );
        }
        println!("{}", "-".repeat(92));
    }
    println!("notes: compare shapes — CB degrades the clock, TD-CB selects more FFs to");
    println!("avoid degradation where it can, TPTIME keeps the clock with a few AND/OR");
    println!("test points. Every non-empty chain passed the §V flush test.");
}
