//! Explicit replays of the shrunk failure cases recorded in
//! `tests/properties.proptest-regressions`.
//!
//! The recorded `cc` hashes seed upstream proptest's generation
//! pipeline and cannot be decoded independently, but the file's
//! comments contain the fully shrunk inputs; each test below re-runs
//! the property bodies from `tests/properties.rs` against one of them.
//! A spec with extra recorded arguments (`pick`, `k`) replays the
//! properties taking that argument; spec-only entries replay every
//! spec-only property.
//!
//! The file ends with TPGREED gain-update regressions found outside
//! proptest, on re-drawn and calibrated paper circuits.

use scanpath::netlist::{parse_blif, write_blif, GateKind, Netlist, TechLibrary};
use scanpath::scan::SGraph;
use scanpath::sim::{Implication, Trit};
use scanpath::sta::{ClockConstraint, Sta};
use scanpath::tpi::tpgreed::{verify_outcome, TpGreed, TpGreedConfig};
use scanpath::tpi::{enumerate_paths, Region};
use scanpath::workloads::{generate, suite, CircuitSpec, StructureClass};

/// `mixed(0.3, 4, 2, 0).with_hard_rings(1, 3)` — strategy class 2.
fn hard_ring_class() -> StructureClass {
    StructureClass::mixed(0.3, 4, 2, 0).with_hard_rings(1, 3)
}

fn spec(
    name: &str,
    inputs: usize,
    ffs: usize,
    gates: usize,
    structure: StructureClass,
    seed: u64,
) -> CircuitSpec {
    CircuitSpec { name: name.into(), inputs, outputs: 1, ffs, target_gates: gates, structure, seed }
}

fn replay_implication_preview_roundtrip(spec: &CircuitSpec, pick: usize) {
    let n = generate(spec);
    let mut imp = Implication::new(&n);
    let nets: Vec<_> = n.gate_ids().collect();
    let target = nets[pick % nets.len()];
    if matches!(n.kind(target), GateKind::Output) {
        return;
    }
    let before: Vec<Trit> = nets.iter().map(|&g| imp.value(g)).collect();
    let p = imp.preview_force(target, Trit::One);
    imp.undo_preview(p);
    let after: Vec<Trit> = nets.iter().map(|&g| imp.value(g)).collect();
    assert_eq!(before, after, "preview/undo must be exact");
    imp.force(target, Trit::One);
    let v1: Vec<Trit> = nets.iter().map(|&g| imp.value(g)).collect();
    let delta = imp.force(target, Trit::One);
    assert!(delta.is_empty());
    let v2: Vec<Trit> = nets.iter().map(|&g| imp.value(g)).collect();
    assert_eq!(v1, v2);
}

fn replay_incremental_sta_matches_full(spec: &CircuitSpec, pick: usize) {
    let mut n = generate(spec);
    let lib = TechLibrary::paper();
    let mut sta = Sta::analyze(&n, &lib, ClockConstraint::LongestPath);
    sta.freeze_clock();
    let combs = n.comb_gates();
    let victim = combs[pick % combs.len()];
    let tp = n.insert_and_test_point(victim).unwrap();
    let mut seeds = vec![tp, victim];
    seeds.extend(n.fanin(tp).iter().copied());
    seeds.push(n.test_input().unwrap());
    sta.update_after_edit(&n, &seeds);
    let full = Sta::analyze(&n, &lib, ClockConstraint::Period(sta.clock_period()));
    for g in n.gate_ids() {
        assert!(
            (sta.arrival(g) - full.arrival(g)).abs() < 1e-9,
            "arrival differs at {}",
            n.gate_name(g)
        );
        let (a, b) = (sta.required(g), full.required(g));
        assert!(
            (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()),
            "required differs at {}",
            n.gate_name(g)
        );
    }
}

fn replay_regions_are_trees(spec: &CircuitSpec, pick: usize) {
    let n = generate(spec);
    let combs = n.comb_gates();
    if combs.is_empty() {
        return;
    }
    let target = combs[pick % combs.len()];
    let region = Region::build(&n, target);
    assert_eq!(region.path_count(target), 1);
    let mut seen = std::collections::HashSet::new();
    let mut stack = vec![target];
    while let Some(g) = stack.pop() {
        assert!(seen.insert(g), "tree property violated");
        if n.kind(g).is_source() {
            continue;
        }
        for &f in n.fanin(g) {
            if region.single_path(f) {
                stack.push(f);
            }
        }
    }
}

fn replay_path_enumeration_respects_kbound(spec: &CircuitSpec, k: usize) {
    let n = generate(spec);
    let ps = enumerate_paths(&n, k, usize::MAX);
    for id in ps.ids() {
        let p = ps.path(id);
        assert!(p.side_input_count() <= k);
        for c in &p.side_inputs {
            assert!(!p.gates.contains(&c.source));
            assert!(p.gates.contains(&c.sink));
        }
    }
}

fn replay_spec_only_properties(spec: &CircuitSpec) {
    // generated_netlists_validate
    let n = generate(spec);
    n.validate().unwrap();
    assert_eq!(n.dffs().len(), spec.ffs);

    // tpgreed_outcome_verifies
    let cfg = TpGreedConfig::default();
    let (outcome, paths) = TpGreed::new(&n, cfg.clone()).run_with_paths();
    verify_outcome(&n, &paths, &outcome).unwrap();
    let (full, _) = TpGreed::new(&n, cfg).run_reference();
    assert_eq!(&full.test_points, &outcome.test_points);
    assert_eq!(&full.scan_paths, &outcome.scan_paths);

    // scan_paths_form_disjoint_chains
    let mut out_deg = std::collections::HashMap::new();
    let mut in_deg = std::collections::HashMap::new();
    for (f, t) in outcome.scan_path_endpoints(&paths) {
        *out_deg.entry(f).or_insert(0u32) += 1;
        *in_deg.entry(t).or_insert(0u32) += 1;
    }
    assert!(out_deg.values().all(|&d| d <= 1));
    assert!(in_deg.values().all(|&d| d <= 1));

    // cycle_breaking_yields_fvs
    let g = SGraph::build(&n);
    let r = scanpath::scan::break_cycles(&g, &scanpath::scan::CycleBreakOptions::classic());
    assert!(r.complete());
    assert!(!g.has_cycle(&r.selected));
}

/// Regression 1: ffs-only circuit (zero combinational targets) with a
/// hard ring, recorded with `pick = 30`.
#[test]
fn regression_prop202351_pick_30() {
    let s = spec("prop202351", 8, 29, 0, hard_ring_class(), 202351);
    replay_implication_preview_roundtrip(&s, 30);
    replay_regions_are_trees(&s, 30);
    if !generate(&s).comb_gates().is_empty() {
        replay_incremental_sta_matches_full(&s, 30);
    }
}

/// Regression 2: pure datapath class with free enables, spec-only.
#[test]
fn regression_prop752028() {
    let s = spec("prop752028", 9, 22, 53, StructureClass::datapath(4, 2, 1), 752028);
    replay_spec_only_properties(&s);
}

/// Regression 3: recorded with `k = 4` against path enumeration.
#[test]
fn regression_prop484454_k_4() {
    let s = spec("prop484454", 4, 20, 65, hard_ring_class(), 484454);
    replay_path_enumeration_respects_kbound(&s, 4);
}

/// Regression 4: narrow-PI hard-ring circuit, spec-only.
#[test]
fn regression_prop390521() {
    let s = spec("prop390521", 2, 28, 80, hard_ring_class(), 390521);
    replay_spec_only_properties(&s);
}

/// Generates `spec` the way the job service sees it: as BLIF text.
fn via_blif(spec: &CircuitSpec) -> Netlist {
    parse_blif(&write_blif(&generate(spec))).expect("generated BLIF parses")
}

/// Runs TPGREED's production path and the full-recompute reference and
/// asserts the incremental selection verifies and equals the full
/// recomputation's.
fn assert_incremental_matches_full(n: &Netlist) {
    let (incremental, paths) = TpGreed::new(n, TpGreedConfig::default()).run_with_paths();
    let (full, _) = TpGreed::new(n, TpGreedConfig::default()).run_reference();
    verify_outcome(n, &paths, &incremental)
        .unwrap_or_else(|e| panic!("{}: incremental outcome does not verify: {e}", n.name()));
    assert_eq!(incremental.test_points, full.test_points, "{}: test points", n.name());
    assert_eq!(incremental.scan_paths, full.scan_paths, "{}: scan paths", n.name());
}

/// s15850 re-drawn with seed `0xb82f84c9597a286e`: at round 157 the
/// incremental update committed `cone100087_3 = 0` over its implied 1
/// on a stale cached gain, which sent protected side input
/// `cone464_1` of established path `f348 -> f464` back to X (166 test
/// points that fail verification; full recomputation gives 168 that
/// verify).
#[test]
fn redrawn_s15850_incremental_matches_full() {
    let mut spec = suite().swap_remove(3);
    assert_eq!(spec.name, "s15850");
    spec.seed = 0xb82f_84c9_597a_286e;
    assert_incremental_matches_full(&via_blif(&spec));
}

/// §III.C promises that incremental gain updates select exactly what
/// full recomputation selects. Not yet true: on calibrated s38417 the
/// cached gains go stale from round 7 (`cone100266_2 = 1` is cached at
/// 0, a fresh evaluation gives 2.58), and selections first differ at
/// test point 200 — both runs still give 269 test points and 510
/// verified paths.
#[test]
#[ignore = "known divergence: incremental gains go stale on calibrated s38417"]
fn incremental_matches_full_on_calibrated_suite() {
    for spec in suite() {
        assert_incremental_matches_full(&via_blif(&spec));
    }
}
