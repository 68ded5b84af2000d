//! X-propagation reach: which nets can carry an unknown value from an
//! uninitialized flip-flop.
//!
//! The netlist model has no reset values, so at power-up every
//! flip-flop holds X. During a scan flush those Xs ride the established
//! paths through the combinational logic; a capture from an X-reachable
//! net is unpredictable until the sources are flushed out. This
//! analysis computes the *structural* (conservative) reach: a net is
//! flagged if any fanin cone path connects it to a flip-flop Q,
//! ignoring controlling-value masking — the same over-approximation the
//! ternary simulator would confirm case by case.
//!
//! The propagation is word-parallel, like the 64-lane simulation
//! engine: flip-flops are assigned bits of 64-wide planes, chunk by
//! chunk, and each chunk ORs every reached gate's plane into its sinks
//! in topo order. A chunk walks only its flip-flops' fanout cone — a
//! dirty-set round over topo positions seeded with the chunk's
//! flip-flops — and clears only the nets it touched, so the cost is the
//! sum of the cone sizes rather than `chunks × gates`. Where
//! 64-flip-flop cones cover most of the design (the paper-suite
//! circuits, `gen50k`), a plain sweep of the whole topo order is
//! cheaper than the walk's bookkeeping; the previous chunk's cone size
//! picks the sweep (see `DENSE_SHARE`). Both give the same planes.
//! Sequential boundaries stop the wave (a D pin's reach is its driver
//! net's reach); `Output` ports are transparent. The per-net source
//! count is exact for distinct flip-flops because each source owns one
//! bit, so chunk membership does not affect the result.

use crate::worklist::Worklist;
use tpi_netlist::GateKind;
use tpi_sim::NetView;

/// A chunk sweeps the whole topo order instead of walking its cone when
/// the previous chunk's cone covered more than `1 / DENSE_SHARE` of the
/// design. Past that share, the walk's per-net bookkeeping (dirty marks,
/// the touched list) costs more than skipping clean nets: the
/// paper-suite circuits and `gen50k` have 64-flip-flop cones covering
/// 50–77% of the design, the industrial designs well under 1%.
const DENSE_SHARE: usize = 3;

/// ORs gate `g`'s plane into its sinks, calling `reached` for each. The
/// flush wave stops at the next register; the D driver net itself
/// already carries the flag.
#[inline]
fn spread(view: &NetView, plane: &mut [u64], g: usize, mut reached: impl FnMut(usize)) {
    let p = plane[g];
    if p == 0 {
        return;
    }
    for &s in view.fanouts(g) {
        let s = s as usize;
        if view.kind(s) != GateKind::Dff {
            plane[s] |= p;
            reached(s);
        }
    }
}

/// Per-net X reach from uninitialized flip-flops.
#[derive(Debug, Clone)]
pub struct XReach {
    /// Number of distinct flip-flops whose X can reach each net.
    pub source_counts: Vec<u32>,
    /// Total flip-flops in the snapshot.
    pub ff_count: usize,
    /// Nets visited over all chunks — a chunk's cone, or every net for a
    /// chunk that sweeps: the work counter.
    pub visits: u64,
}

impl XReach {
    /// Runs the bit-plane propagation over the snapshot.
    pub fn analyze(view: &NetView) -> XReach {
        let n = view.gate_count();
        let topo = view.topo();
        let ffs: Vec<u32> =
            (0..n as u32).filter(|&g| view.kind(g as usize) == GateKind::Dff).collect();
        let mut source_counts = vec![0u32; n];
        let mut plane = vec![0u64; n];
        let mut work = Worklist::new(n);
        let mut cone = Vec::new();
        let mut dense_visits = 0u64;
        // Cone size of the previous chunk; the first chunk sweeps densely.
        let mut last_cone = n;
        for chunk in ffs.chunks(64) {
            for (bit, &ff) in chunk.iter().enumerate() {
                plane[ff as usize] |= 1u64 << bit;
            }
            if last_cone * DENSE_SHARE > n {
                for &g in topo {
                    spread(view, &mut plane, g as usize, |_| {});
                }
                last_cone = 0;
                for (count, p) in source_counts.iter_mut().zip(&mut plane) {
                    last_cone += usize::from(*p != 0);
                    *count += p.count_ones();
                    *p = 0;
                }
                dense_visits += n as u64;
                continue;
            }
            for &ff in chunk {
                work.push(view.topo_pos(ff as usize) as usize);
            }
            while let Some(pos) = work.pop() {
                let g = topo[pos] as usize;
                cone.push(g);
                spread(view, &mut plane, g, |s| {
                    work.push_dependent(pos, view.topo_pos(s) as usize);
                });
            }
            work.advance();
            last_cone = cone.len();
            for g in cone.drain(..) {
                source_counts[g] += plane[g].count_ones();
                plane[g] = 0;
            }
        }
        XReach { source_counts, ff_count: ffs.len(), visits: work.visits + dense_visits }
    }

    /// Whether any flip-flop X can reach net `g`.
    #[inline]
    pub fn reachable(&self, g: usize) -> bool {
        self.source_counts[g] > 0
    }

    /// Number of X-reachable nets in the snapshot.
    pub fn reachable_nets(&self) -> usize {
        self.source_counts.iter().filter(|&&c| c > 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_netlist::Netlist;

    #[test]
    fn reach_counts_distinct_sources() {
        // Two FFs converge on one AND; a pure-PI net stays clean.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let f1 = n.add_gate(GateKind::Dff, "f1");
        n.connect(a, f1).unwrap();
        let f2 = n.add_gate(GateKind::Dff, "f2");
        n.connect(a, f2).unwrap();
        let g = n.add_gate(GateKind::And, "g");
        n.connect(f1, g).unwrap();
        n.connect(f2, g).unwrap();
        let clean = n.add_gate(GateKind::Inv, "clean");
        n.connect(a, clean).unwrap();
        n.add_output("y", g).unwrap();
        n.add_output("z", clean).unwrap();
        let x = XReach::analyze(&NetView::new(&n));
        assert_eq!(x.ff_count, 2);
        assert_eq!(x.source_counts[g.index()], 2);
        assert_eq!(x.source_counts[f1.index()], 1);
        assert_eq!(x.source_counts[clean.index()], 0);
        assert!(!x.reachable(a.index()));
        assert!(x.reachable(g.index()));
        // The Output port is transparent: y carries g's reach.
        assert_eq!(x.source_counts[n.outputs()[0].index()], 2);
        assert_eq!(x.reachable_nets(), 4); // f1, f2, g, y
    }

    #[test]
    fn wave_stops_at_the_next_register() {
        let mut n = Netlist::new("t");
        let f1 = n.add_gate(GateKind::Dff, "f1");
        let inv = n.add_gate(GateKind::Inv, "inv");
        n.connect(f1, inv).unwrap();
        let f2 = n.add_gate(GateKind::Dff, "f2");
        n.connect(inv, f2).unwrap();
        n.connect(f2, f1).unwrap();
        n.add_output("y", f2).unwrap();
        let x = XReach::analyze(&NetView::new(&n));
        // inv sees f1's X only; f2's own plane is just itself (the
        // boundary stops f1's wave at f2's D pin).
        assert_eq!(x.source_counts[inv.index()], 1);
        assert_eq!(x.source_counts[f2.index()], 1);
    }
}
