//! Regenerates the paper's Table II: circuit statistics (interface, area,
//! longest-path delay) for the benchmark suite.
//!
//! Usage: `cargo run --release -p tpi-bench --bin table2 [--threads N]`
//! (`--threads 0` = all hardware threads, default 1; rows are computed
//! concurrently but always print in suite order.)

use tpi_bench::PAPER_TABLE2;
use tpi_net::cli::Cli;
use tpi_netlist::{NetlistStats, TechLibrary};
use tpi_par::Threads;
use tpi_sta::{ClockConstraint, Sta};
use tpi_workloads::{generate, suite};

fn main() {
    let cli = Cli::parse();
    println!("Table II — circuit statistics (paper's SIS-mapped suite vs. synthetic stand-ins)");
    println!(
        "{:<9} | {:>4} {:>4} {:>5} {:>9} {:>7} | {:>4} {:>4} {:>5} {:>9} {:>7}",
        "circuit", "#I", "#O", "#FF", "area", "delay", "#I", "#O", "#FF", "area", "delay"
    );
    println!("{:<9} | {:^33} | {:^33}", "", "paper", "this reproduction");
    println!("{}", "-".repeat(90));
    let lib = TechLibrary::paper();
    let specs: Vec<_> = suite().into_iter().filter(|s| cli.selects(&s.name)).collect();
    // Generation + STA per circuit are independent; fan out, print in order.
    // (`Option` only to satisfy the slot type's `Default`; every job fills
    // its slot.)
    let rows: Vec<Option<(NetlistStats, f64)>> =
        tpi_par::map_jobs(Threads::from_knob(cli.threads), &specs, &lib, |lib, spec| {
            let n = generate(spec);
            let stats = NetlistStats::compute(&n, lib);
            let delay = Sta::analyze(&n, lib, ClockConstraint::LongestPath).circuit_delay();
            Some((stats, delay))
        });
    for (spec, row) in specs.iter().zip(&rows) {
        let (stats, delay) = row.as_ref().expect("every job fills its slot");
        let paper = PAPER_TABLE2
            .iter()
            .find(|r| r.circuit == spec.name)
            .expect("suite mirrors the paper's circuit list");
        println!(
            "{:<9} | {:>4} {:>4} {:>5} {:>9.1} {:>7.1} | {:>4} {:>4} {:>5} {:>9.1} {:>7.1}",
            spec.name,
            paper.inputs,
            paper.outputs,
            paper.ffs,
            paper.area,
            paper.delay,
            stats.inputs,
            stats.outputs,
            stats.ffs,
            stats.area,
            delay,
        );
    }
    println!();
    println!("notes: #I/#O/#FF are calibrated to the paper (Table I FF counts where the");
    println!("two tables disagree); area and delay are in this library's units and are");
    println!("not commensurable with SIS's — only relative ordering is meaningful.");
}
