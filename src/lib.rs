//! # scanpath — scan paths through combinational logic
//!
//! A reproduction of *"Test Point Insertion: Scan Paths through
//! Combinational Logic"* (Lin, Marek-Sadowska, Cheng, Lee — DAC 1996).
//!
//! This facade crate re-exports the workspace crates under one roof:
//!
//! * [`netlist`] — gate-level circuit model, `.bench` I/O, tech library;
//! * [`sim`] — 3-valued constant implication and sequential simulation;
//! * [`sta`] — static timing analysis with the paper's linear delay model;
//! * [`scan`] — s-graph, cycle breaking, scan conversion, flush test;
//! * [`tpi`] — the paper's contribution: path enumeration, TPGREED,
//!   input assignment, non-reconvergent regions, TPTIME, end-to-end flows;
//! * [`atpg`] — the payoff: stuck-at faults, PODEM, fault simulation and
//!   scan-based test application through the produced chains;
//! * [`serve`] — a long-lived job service around the flows: worker pool,
//!   content-addressed result cache, deadlines and run metrics;
//! * [`net`] — the service over TCP: the `tpi-net/v2` length-prefixed
//!   frame protocol, the `tpi-netd` server (one poll loop, per-request
//!   Busy backpressure, graceful drain) and the session client behind
//!   `tpi-cli`;
//! * [`gateway`] — cache-affinity sharding across `tpi-netd` backends:
//!   consistent-hash routing on the content-addressed job key,
//!   peer-fetch cache seeding, health-checked failover, `tpi-gatewayd`;
//! * [`lint`] — static analysis: structural netlist lints, an
//!   independent re-verification of every DFT claim the flows make, and
//!   the `tpi-dfa` testability findings;
//! * [`dfa`] — netlist dataflow analyses: SCOAP testability, structural
//!   observation dominators, X-propagation reach;
//! * [`obs`] — deterministic tracing and metrics: span trees, counters,
//!   histograms, and the byte-stable JSON writer every crate shares;
//! * [`workloads`] — the figure circuits, `s27`, and the synthetic
//!   ISCAS89/MCNC91-calibrated benchmark suite.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use tpi_atpg as atpg;
pub use tpi_core as tpi;
pub use tpi_dfa as dfa;
pub use tpi_gateway as gateway;
pub use tpi_lint as lint;
pub use tpi_net as net;
pub use tpi_netlist as netlist;
pub use tpi_obs as obs;
pub use tpi_scan as scan;
pub use tpi_serve as serve;
pub use tpi_sim as sim;
pub use tpi_sta as sta;
pub use tpi_workloads as workloads;
