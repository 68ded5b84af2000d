//! Cross-crate validation of the `tpi-dfa` analyses.
//!
//! Three angles, per DESIGN.md §13:
//!
//! * **Oracles** — the one-pass CHK dominator tree is checked against a
//!   naive `O(V·E)`-per-node remove-and-recheck reachability oracle on
//!   every smoke-suite circuit. SCOAP's dirty-set rounds are checked
//!   against whole-netlist round-robin sweeps (values *and* pass
//!   counts), and X-reach's cone walks against a per-flip-flop DFS, on
//!   the smoke and paper suites, `gen50k`, random circuits and (release
//!   only) an industrial size ladder that also pins flat work per gate.
//! * **Structural invariance (properties)** — SCOAP numbers and the
//!   dominator tree are functions of the circuit *structure*: permuting
//!   gate creation order must not move a single number, and threading a
//!   transparent `Buf` into every edge must leave every original gate's
//!   SCOAP triple unchanged.
//! * **Flow contracts** — `GainModel::Scoap` selections are byte-stable
//!   across worker counts and match the full-recompute reference.

use proptest::prelude::*;
use rand::prelude::*;
use scanpath::dfa::{cc_of, co_of, DomTree, Scoap, XReach, SAT};
use scanpath::netlist::{GateId, GateKind, Netlist};
use scanpath::sim::NetView;
use scanpath::tpi::{FlowOptions, FullScanFlow, GainModel, TpGreed, TpGreedConfig};
use scanpath::workloads::industrial::{generate_industrial, IndustrialSpec};
use scanpath::workloads::{generate, large_suite, smoke_suite, suite, CircuitSpec, StructureClass};
use std::collections::{HashMap, HashSet};

// ---------------------------------------------------------------------
// Dominator oracle
// ---------------------------------------------------------------------

/// Mirror of the observation-graph capture rule: `v` reaches the
/// virtual sink directly when it is an output port or drives one (or a
/// flip-flop D pin).
fn captured(view: &NetView, v: usize) -> bool {
    view.kind(v) == GateKind::Output
        || view
            .fanouts(v)
            .iter()
            .any(|&s| matches!(view.kind(s as usize), GateKind::Output | GateKind::Dff))
}

/// Whether `v` can reach the virtual sink with gate `avoid` deleted
/// from the observation graph (`avoid == usize::MAX` deletes nothing).
fn reaches_sink_avoiding(view: &NetView, v: usize, avoid: usize) -> bool {
    if v == avoid {
        return false;
    }
    let mut seen = vec![false; view.gate_count()];
    let mut stack = vec![v];
    seen[v] = true;
    while let Some(g) = stack.pop() {
        if captured(view, g) {
            return true;
        }
        for &w in view.comb_fanouts(g) {
            let w = w as usize;
            if w != avoid && !seen[w] {
                seen[w] = true;
                stack.push(w);
            }
        }
    }
    false
}

/// `Some(set of real-gate dominators of v)` (v and the sink excluded),
/// or `None` when `v` cannot be observed at all.
fn naive_dominators(view: &NetView, v: usize) -> Option<HashSet<usize>> {
    if !reaches_sink_avoiding(view, v, usize::MAX) {
        return None;
    }
    Some((0..view.gate_count()).filter(|&d| d != v && !reaches_sink_avoiding(view, v, d)).collect())
}

/// The CHK tree's claim for the same set: every node on the idom chain
/// from `v` (exclusive) up to the sink (exclusive).
fn idom_chain(tree: &DomTree, v: usize) -> HashSet<usize> {
    let mut chain = HashSet::new();
    let mut cur = v;
    loop {
        let d = tree.idom(cur).expect("chain is only walked for observable nets");
        if d == tree.sink() {
            return chain;
        }
        chain.insert(d as usize);
        cur = d as usize;
    }
}

#[test]
fn dominator_tree_matches_the_naive_reachability_oracle() {
    for spec in smoke_suite() {
        let n = generate(&spec);
        let view = NetView::new(&n);
        let tree = DomTree::observation(&view);
        for v in 0..view.gate_count() {
            match naive_dominators(&view, v) {
                None => {
                    assert_eq!(tree.idom(v), None, "{}: gate {v} is a dead cone", spec.name);
                }
                Some(naive) => {
                    assert_eq!(
                        idom_chain(&tree, v),
                        naive,
                        "{}: dominators of gate {v} ({})",
                        spec.name,
                        n.gate_name(GateId::from_index(v))
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// SCOAP and X-reach oracles
// ---------------------------------------------------------------------

/// SCOAP by whole-netlist round-robin sweeps: every gate in topo order
/// (reversed for observability), repeated until a sweep changes
/// nothing. Returns `(cc0, cc1, co, passes)` with the passes counted
/// the way [`Scoap::passes`] reports them, confirmation sweep included.
fn scoap_reference(view: &NetView) -> (Vec<u32>, Vec<u32>, Vec<u32>, (u32, u32)) {
    let n = view.gate_count();
    let (mut cc0, mut cc1) = (vec![SAT; n], vec![SAT; n]);
    let mut fwd = 0;
    loop {
        fwd += 1;
        let mut changed = false;
        for &g in view.topo() {
            let g = g as usize;
            let (n0, n1) = cc_of(view, g, &cc0, &cc1);
            let (n0, n1) = (n0.min(cc0[g]), n1.min(cc1[g]));
            changed |= (n0, n1) != (cc0[g], cc1[g]);
            (cc0[g], cc1[g]) = (n0, n1);
        }
        if !changed {
            break;
        }
    }
    let mut co = vec![SAT; n];
    let mut bwd = 0;
    loop {
        bwd += 1;
        let mut changed = false;
        for &g in view.topo().iter().rev() {
            let g = g as usize;
            let best = co_of(view, g, &cc0, &cc1, &co).min(co[g]);
            changed |= best != co[g];
            co[g] = best;
        }
        if !changed {
            break;
        }
    }
    (cc0, cc1, co, (fwd, bwd))
}

/// X reach by one DFS per flip-flop over its fanouts, stopping at
/// flip-flop sinks: the number of distinct flip-flops reaching each net.
fn xreach_reference(view: &NetView) -> Vec<u32> {
    let n = view.gate_count();
    let mut counts = vec![0u32; n];
    let mut seen = vec![usize::MAX; n];
    for ff in (0..n).filter(|&g| view.kind(g) == GateKind::Dff) {
        seen[ff] = ff;
        let mut stack = vec![ff];
        while let Some(g) = stack.pop() {
            counts[g] += 1;
            for &s in view.fanouts(g) {
                let s = s as usize;
                if view.kind(s) != GateKind::Dff && seen[s] != ff {
                    seen[s] = ff;
                    stack.push(s);
                }
            }
        }
    }
    counts
}

/// Asserts both analyses equal their oracles on `n`; returns SCOAP
/// evaluations and X-reach visits per gate.
fn assert_matches_oracles(n: &Netlist) -> (f64, f64) {
    let view = NetView::new(n);
    let s = Scoap::analyze(&view);
    let (cc0, cc1, co, passes) = scoap_reference(&view);
    assert_eq!(s.cc0, cc0, "{}: cc0", n.name());
    assert_eq!(s.cc1, cc1, "{}: cc1", n.name());
    assert_eq!(s.co, co, "{}: co", n.name());
    assert_eq!(s.passes, passes, "{}: passes", n.name());
    let x = XReach::analyze(&view);
    assert_eq!(x.source_counts, xreach_reference(&view), "{}: X reach", n.name());
    let gates = view.gate_count() as f64;
    (s.evaluations as f64 / gates, x.visits as f64 / gates)
}

#[test]
fn scoap_and_xreach_match_their_oracles_on_the_suites() {
    for spec in smoke_suite().into_iter().chain(suite()).chain(large_suite()) {
        assert_matches_oracles(&generate(&spec));
    }
    // Small cones: X reach walks them instead of sweeping the design.
    assert_matches_oracles(&industrial(8));
}

/// The industrial design of `stages` register ranks, pinned like the
/// benchmark's (128-bit datapath, ~806 gates per rank).
fn industrial(stages: usize) -> Netlist {
    generate_industrial(&IndustrialSpec {
        name: format!("ind{stages}"),
        target_gates: 250_000 * stages / 310,
        width: 128,
        stages,
        control_ffs: 16,
        hold_per_mille: 300,
        seed: 0xDAC97,
    })
}

/// Release only (~31k to ~125k gates; the oracle repeats 157 sweeps on
/// the largest). Beyond oracle equality, the work per gate must not grow
/// with the design: the old whole-netlist sweeps did one pass per
/// flip-flop rank and one per 64-flip-flop chunk.
#[test]
#[ignore = "release only: run by ci.sh with --release --include-ignored"]
fn industrial_ladder_matches_the_oracles_with_flat_work_per_gate() {
    let work: Vec<(f64, f64)> =
        [39, 78, 155].map(|stages| assert_matches_oracles(&industrial(stages))).into();
    let spread = |f: fn(&(f64, f64)) -> f64| {
        let v: Vec<f64> = work.iter().map(f).collect();
        v.iter().copied().fold(0.0, f64::max) / v.iter().copied().fold(f64::MAX, f64::min)
    };
    assert!(spread(|w| w.0) <= 1.25, "SCOAP evaluations per gate grow: {work:?}");
    assert!(spread(|w| w.1) <= 1.5, "X-reach visits per gate grow: {work:?}");
}

// ---------------------------------------------------------------------
// Structural-invariance properties
// ---------------------------------------------------------------------

/// Strategy: a small random circuit spec.
fn spec_strategy() -> impl Strategy<Value = CircuitSpec> {
    (2usize..8, 1usize..4, 1usize..10, 8usize..80, 0u64..1_000_000, 0usize..2).prop_map(
        |(inputs, outputs, ffs, gates, seed, class)| {
            let structure = match class {
                0 => StructureClass::datapath(4, 2, 1),
                _ => StructureClass::mixed(0.5, 3, 3, 1),
            };
            CircuitSpec {
                name: format!("dfa{seed}"),
                inputs,
                outputs,
                ffs,
                target_gates: gates,
                structure,
                seed,
            }
        },
    )
}

/// Rebuilds `n` with non-port gates created in a seeded random order
/// (pin order preserved). With `with_bufs`, additionally threads a
/// fresh transparent `Buf` into every fanin edge of every gate whose
/// fanins are pairwise distinct (multi-pin sink occurrences change
/// SCOAP side-cost semantics, so those edges stay direct).
fn rebuild(n: &Netlist, seed: u64, with_bufs: bool) -> Netlist {
    let mut ids: Vec<GateId> = n.gate_ids().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..ids.len()).rev() {
        let j = rng.gen_range(0..=i);
        ids.swap(i, j);
    }
    let mut out = Netlist::new(n.name());
    let mut map: HashMap<GateId, GateId> = HashMap::new();
    for &g in &ids {
        let new = match n.kind(g) {
            GateKind::Input => out.add_input(n.gate_name(g)),
            GateKind::Output => continue,
            kind => out.add_gate(kind, n.gate_name(g)),
        };
        map.insert(g, new);
    }
    let mut bufs = 0usize;
    for &g in &ids {
        if n.kind(g) == GateKind::Output {
            continue;
        }
        let fanin = n.fanin(g);
        let distinct = fanin.iter().collect::<HashSet<_>>().len() == fanin.len();
        for &f in fanin {
            let mut src = map[&f];
            if with_bufs && distinct {
                let b = out.add_gate(GateKind::Buf, format!("__buf{bufs}"));
                bufs += 1;
                out.connect(src, b).unwrap();
                src = b;
            }
            out.connect(src, map[&g]).unwrap();
        }
    }
    for g in n.gate_ids() {
        if n.kind(g) == GateKind::Output {
            let f = n.fanin(g)[0];
            out.add_output(n.gate_name(g), map[&f]).unwrap();
        }
    }
    out.validate().expect("rebuild preserves well-formedness");
    out
}

/// `(cc0, cc1, co)` per original gate name (ports and inserted buffers
/// excluded — outputs have no SCOAP identity of their own).
fn scoap_by_name(n: &Netlist) -> HashMap<String, (u32, u32, u32)> {
    let s = Scoap::analyze(&NetView::new(n));
    n.gate_ids()
        .filter(|&g| n.kind(g) != GateKind::Output && !n.gate_name(g).starts_with("__buf"))
        .map(|g| {
            let i = g.index();
            (n.gate_name(g).to_string(), (s.cc0[i], s.cc1[i], s.co[i]))
        })
        .collect()
}

/// `idom` per gate name: `Some("<name>")` for a real bottleneck,
/// `Some("S")` for independent routes, `None` for dead cones.
fn idoms_by_name(n: &Netlist) -> HashMap<String, Option<String>> {
    let tree = DomTree::observation(&NetView::new(n));
    n.gate_ids()
        .filter(|&g| n.kind(g) != GateKind::Output)
        .map(|g| {
            let d = tree.idom(g.index()).map(|d| {
                if d == tree.sink() {
                    "S".to_string()
                } else {
                    n.gate_name(GateId::from_index(d as usize)).to_string()
                }
            });
            (n.gate_name(g).to_string(), d)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// SCOAP rounds and X-reach cone walks equal their oracles.
    #[test]
    fn scoap_and_xreach_match_their_oracles(spec in spec_strategy()) {
        assert_matches_oracles(&generate(&spec));
    }

    /// SCOAP and the dominator tree are pure functions of the circuit
    /// structure, not of gate creation (and hence topo traversal) order.
    #[test]
    fn analyses_are_invariant_under_gate_creation_order(
        spec in spec_strategy(),
        seed in 0u64..1000,
    ) {
        let n = generate(&spec);
        let permuted = rebuild(&n, seed, false);
        prop_assert_eq!(scoap_by_name(&n), scoap_by_name(&permuted));
        prop_assert_eq!(idoms_by_name(&n), idoms_by_name(&permuted));
    }

    /// Transparent buffers are invisible to SCOAP: threading a `Buf`
    /// into every (distinct-fanin) edge leaves every original gate's
    /// triple unchanged — the same hash-through rule the cache-key
    /// fingerprint applies.
    #[test]
    fn scoap_is_invariant_under_buf_insertion(
        spec in spec_strategy(),
        seed in 0u64..1000,
    ) {
        let n = generate(&spec);
        let buffered = rebuild(&n, seed, true);
        prop_assert_eq!(scoap_by_name(&n), scoap_by_name(&buffered));
    }
}

// ---------------------------------------------------------------------
// Flow contracts
// ---------------------------------------------------------------------

#[test]
fn scoap_selections_are_thread_and_engine_independent() {
    let spec = &smoke_suite()[0];
    let n = generate(spec);
    let config = TpGreedConfig { gain_model: GainModel::Scoap, ..TpGreedConfig::default() };
    let flow = FullScanFlow { config: config.clone(), ..FullScanFlow::default() };
    let mut dets = Vec::new();
    for threads in [1usize, 2, 0] {
        let r = flow
            .run_with(&n, &FlowOptions::new().with_threads(threads))
            .expect("scoap full-scan runs");
        dets.push((threads, r.metrics.deterministic_json()));
    }
    for (threads, det) in &dets[1..] {
        assert_eq!(det, &dets[0].1, "--threads {threads} diverged from --threads 1");
    }
    // The production path selects what the full-recompute scalar
    // reference selects under the SCOAP weights too.
    let (prod, paths) = TpGreed::new(&n, config.clone()).run_with_paths();
    let (reference, _) = TpGreed::new(&n, config).run_reference();
    assert_eq!(prod.test_points, reference.test_points);
    assert_eq!(prod.scan_path_endpoints(&paths), reference.scan_path_endpoints(&paths));
    assert_eq!(prod.iterations, reference.iterations);
}
