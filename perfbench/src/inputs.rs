//! Seeded inputs. Seed 0 reproduces the calibrated circuits and
//! presets in their calibrated order. Any other seed keeps the paper
//! suites' circuits and submits them in a seeded order, and re-draws the
//! generator seeds of the industrial, pool and fresh designs while
//! keeping each design's interface and structure. The program under
//! test only ever receives the BLIF text rendered here.

use tpi_netlist::{write_blif, Netlist};
use tpi_obs::JsonObject;
use tpi_serve::{netlist_fingerprint, Fnv64};
use tpi_workloads::industrial::{generate_industrial, IndustrialSpec};
use tpi_workloads::{generate, CircuitSpec, StructureClass};

/// One generated design, as the program receives it.
#[derive(Debug, Clone)]
pub struct Design {
    pub name: String,
    pub blif: String,
    pub gates: usize,
    pub ffs: usize,
    /// `tpi_serve::netlist_fingerprint` of the generated netlist.
    pub fingerprint: u64,
}

impl Design {
    pub fn new(netlist: &Netlist) -> Design {
        Design {
            name: netlist.name().to_string(),
            blif: write_blif(netlist),
            gates: netlist.gate_count(),
            ffs: netlist.dffs().len(),
            fingerprint: netlist_fingerprint(netlist),
        }
    }
}

/// SplitMix64: decorrelates neighbouring seeds.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generator seed of input `index`: the calibrated `base` at seed
/// 0, a fresh draw otherwise.
pub fn redraw(base: u64, seed: u64, index: u64) -> u64 {
    if seed == 0 {
        base
    } else {
        mix(mix(seed) ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ base)
    }
}

/// `specs` in the submission order of `seed`: the calibrated order at
/// seed 0, a seeded shuffle otherwise. The circuits themselves stay the
/// calibrated ones, so every seed carries the same work and the quality
/// figures repeat exactly. Re-drawing their generator seeds instead
/// exposes a program defect (see `redrawn_s15850_passes_full_scan`).
pub fn ordered(mut specs: Vec<CircuitSpec>, seed: u64) -> Vec<CircuitSpec> {
    if seed != 0 {
        for i in (1..specs.len()).rev() {
            let j = (mix(mix(seed) ^ i as u64) % (i as u64 + 1)) as usize;
            specs.swap(i, j);
        }
    }
    specs
}

/// The paper's 11 Table I circuits.
pub fn paper_suite(seed: u64) -> Vec<CircuitSpec> {
    ordered(tpi_workloads::suite(), seed)
}

/// The Table I circuits plus `gen50k`.
pub fn fullscan_suite(seed: u64) -> Vec<CircuitSpec> {
    let mut specs = tpi_workloads::suite();
    specs.extend(tpi_workloads::large_suite());
    ordered(specs, seed)
}

/// Two small circuits standing in for a suite in the benchmark's own
/// tests.
pub fn tiny_suite(seed: u64) -> Vec<CircuitSpec> {
    ordered(tpi_workloads::smoke_suite(), seed)
}

/// Datapath width of the industrial designs.
pub const INDUSTRIAL_WIDTH: usize = 128;
/// Pipeline ranks of the full-size (~250k-gate) industrial design.
pub const INDUSTRIAL_STAGES: usize = 310;

/// The pinned industrial spec: every field set, none left to the
/// generator's automatic sizing, so a change of the generator's
/// defaults cannot change this workload. `stages` picks the size
/// (310 ranks of 128 bits ≈ 250k gates); `target_gates` is the
/// matching budget.
pub fn industrial_spec(name: String, stages: usize, seed: u64) -> IndustrialSpec {
    IndustrialSpec {
        name,
        target_gates: 250_000 * stages / INDUSTRIAL_STAGES,
        width: INDUSTRIAL_WIDTH,
        stages,
        control_ffs: 16,
        hold_per_mille: 300,
        seed,
    }
}

/// Industrial design `index` of the run: a distinct generator seed per
/// design, so every submit is cold.
pub fn industrial_design(stages: usize, seed: u64, index: u64) -> Design {
    let spec = industrial_spec(
        format!("ind{stages}s_{index}"),
        stages,
        redraw(0xDAC96 + 1 + index, seed, index),
    );
    Design::new(&generate_industrial(&spec))
}

/// The warm pool: small paper-like designs, from s27 up to ~2k gates.
/// Entry 0 is s27. Entry `i` has a fixed interface and structure
/// (a size ladder cycling through four Table I structure classes); the
/// seed only re-draws its generator seed, so every seed serves the same
/// size and popularity profile.
pub fn warm_pool(seed: u64, size: usize) -> Vec<Design> {
    let mut pool = vec![Design::new(&tpi_workloads::iscas::s27())];
    for i in 1..size {
        let spec =
            small_spec(format!("pool{i}"), i, size, redraw(0x5EED_0000 + i as u64, seed, i as u64));
        pool.push(Design::new(&generate(&spec)));
    }
    pool
}

/// Never-seen design `index` for the warm workload's cold requests: the
/// pool's shapes, from a generator-seed stream disjoint from the pool's.
pub fn fresh_design(seed: u64, index: u64, pool: usize) -> Design {
    let draw = mix(redraw(0xF7E5_0000 ^ index, seed, index) ^ 0xF7E5);
    let slot = 1 + (index as usize % (pool - 1).max(1));
    Design::new(&generate(&small_spec(format!("fresh{index}"), slot, pool, draw)))
}

/// Pool slot `i` of `n`: sizes spread evenly over ~150..2000 gates.
fn small_spec(name: String, i: usize, n: usize, seed: u64) -> CircuitSpec {
    let gates = 150 + 1_850 * i / n.max(1);
    let ffs = (gates / 12).max(8);
    let structure = match i % 4 {
        0 => StructureClass::mixed(0.55, 4, (ffs / 5).max(2), 2),
        1 => StructureClass::datapath(4, (ffs / 16).max(1), 1),
        2 => StructureClass::multiplier((ffs * 3 / 4).max(2)),
        _ => StructureClass::mixed(0.5, 3, (ffs / 4).max(2), 1),
    };
    CircuitSpec {
        name,
        inputs: 8 + i % 24,
        outputs: 4 + i % 16,
        ffs,
        target_gates: gates,
        structure,
        seed,
    }
}

/// The input record printed beside a workload's metrics.
pub fn record(workload: &str, seed: u64, designs: &[&Design]) -> String {
    let mut digest = Fnv64::new();
    for d in designs {
        digest.write_u64(d.fingerprint);
    }
    let mut o = JsonObject::new();
    o.field_str("perfbench", "inputs")
        .field_str("workload", workload)
        .field_u64("seed", seed)
        .field_u64("designs", designs.len() as u64)
        .field_u64("gates", designs.iter().map(|d| d.gates as u64).sum())
        .field_u64("ffs", designs.iter().map(|d| d.ffs as u64).sum())
        .field_str("fingerprint_digest", &format!("{:016x}", digest.finish()));
    o.finish()
}
