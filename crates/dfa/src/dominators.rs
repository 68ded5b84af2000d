//! Structural observation dominators: which single net every
//! observation path out of a cone must pass through.
//!
//! The *observation graph* has one node per gate plus a virtual sink
//! `S`. Edges are the combinational fanout edges `v -> w`, plus a
//! capture edge `v -> S` whenever `v` drives an output port or a
//! flip-flop D pin (and from every `Output` node itself). Capture
//! edges go **directly** to `S`, not through the flip-flop node — a
//! pair of registers feeding each other would otherwise put a cycle in
//! the graph. With captures short-circuited, the graph is a DAG: its
//! remaining edges are combinational fanout edges, which the topo order
//! already proves acyclic.
//!
//! A net `v`'s *immediate dominator* in this graph (post-dominator of
//! the original direction) is the unique last node every `v -> S` path
//! shares. `idom(v) == S` means `v` has independent observation routes;
//! `idom(v) == u` for a real gate `u` means `u` is a single-point
//! observation bottleneck — observing anything in `v`'s cone requires
//! propagating through `u`, so a test point at `u` covers the whole
//! dominated subtree (the TPI201 lint and the coverage-proof story both
//! build on this).
//!
//! The computation is one Cooper–Harvey–Kennedy intersection pass over
//! the reversed graph in the order `[S, topo reversed]`. On a DAG every
//! reversed-graph predecessor of `v` (its combinational sinks, and `S`)
//! appears strictly earlier in that order, so a single pass reaches the
//! fixpoint — no iteration. `tests/dfa.rs` checks the result against a
//! naive remove-`v`-and-recheck-reachability oracle on the smoke suite.

use tpi_netlist::GateKind;
use tpi_sim::NetView;

/// Marker for nodes with no path to the virtual sink (dead cones).
pub const UNREACHABLE: u32 = u32::MAX;

/// Immediate-dominator tree of the observation graph.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// `idom[v]` for gates `0..n`: a gate index, [`DomTree::sink`], or
    /// [`UNREACHABLE`].
    idom: Vec<u32>,
    /// Processing-order index per node (sink = 0), kept for the
    /// subtree-size accumulation and the intersection walk.
    ord: Vec<u32>,
    gates: usize,
}

impl DomTree {
    /// Computes the observation dominator tree over the snapshot.
    pub fn observation(view: &NetView) -> DomTree {
        let n = view.gate_count();
        let sink = n as u32;
        // ord[sink] = 0; a gate at topo position p gets ord n - p, so
        // the processing order [S, topo reversed] is ord 0, 1, 2, ...
        let mut ord = vec![0u32; n + 1];
        for (g, o) in ord.iter_mut().enumerate().take(n) {
            *o = n as u32 - view.topo_pos(g);
        }
        let mut idom = vec![UNREACHABLE; n + 1];
        idom[n] = sink;
        for &gi in view.topo().iter().rev() {
            let v = gi as usize;
            let mut new_idom = if is_captured(view, v) { sink } else { UNREACHABLE };
            for &w in view.comb_fanouts(v) {
                if idom[w as usize] == UNREACHABLE {
                    continue; // sink gate itself unobservable
                }
                new_idom =
                    if new_idom == UNREACHABLE { w } else { intersect(&idom, &ord, new_idom, w) };
            }
            idom[v] = new_idom;
        }
        DomTree { idom, ord, gates: n }
    }

    /// The virtual sink's node id.
    #[inline]
    pub fn sink(&self) -> u32 {
        self.gates as u32
    }

    /// Immediate dominator of gate `v`: `Some(sink())` for nets with
    /// independent observation routes, `Some(u)` when gate `u` is the
    /// single observation bottleneck, `None` for dead cones.
    #[inline]
    pub fn idom(&self, v: usize) -> Option<u32> {
        match self.idom[v] {
            UNREACHABLE => None,
            d => Some(d),
        }
    }

    /// Whether gate `v`'s every observation path runs through one
    /// specific real gate.
    #[inline]
    pub fn has_bottleneck(&self, v: usize) -> bool {
        matches!(self.idom(v), Some(d) if d != self.sink())
    }

    /// Size of each node's dominated subtree (itself included): the
    /// number of nets whose observation is fully gated by that node.
    /// Index `sink()` counts every observable net plus the sink.
    pub fn dominated_sizes(&self) -> Vec<u32> {
        let n = self.gates;
        let mut size = vec![1u32; n + 1];
        // Children have strictly larger ord than their idom, so one
        // sweep in decreasing-ord order accumulates bottom-up. `ord` is
        // a permutation of 0..=n, so inverting it is one pass. The
        // processing order was [S, topo reversed]; its reverse is topo
        // order followed by the sink (which has no idom edge to push).
        let mut by_ord = vec![0u32; n + 1];
        for (v, &o) in self.ord.iter().enumerate() {
            by_ord[o as usize] = v as u32;
        }
        for &v in by_ord.iter().rev() {
            let d = self.idom[v as usize];
            if d != UNREACHABLE && v != self.sink() {
                size[d as usize] += size[v as usize];
            }
        }
        size
    }
}

/// Whether gate `v`'s value is captured directly: it drives a port or a
/// flip-flop, or is itself an output port.
fn is_captured(view: &NetView, v: usize) -> bool {
    view.kind(v) == GateKind::Output
        || view
            .fanouts(v)
            .iter()
            .any(|&s| matches!(view.kind(s as usize), GateKind::Output | GateKind::Dff))
}

/// Classic CHK two-finger walk toward the common dominator.
fn intersect(idom: &[u32], ord: &[u32], mut a: u32, mut b: u32) -> u32 {
    while a != b {
        while ord[a as usize] > ord[b as usize] {
            a = idom[a as usize];
        }
        while ord[b as usize] > ord[a as usize] {
            b = idom[b as usize];
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_netlist::Netlist;

    #[test]
    fn funnel_dominates_its_cone() {
        // a, b feed g1, g2; both route through funnel f to the port.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g1 = n.add_gate(GateKind::And, "g1");
        n.connect(a, g1).unwrap();
        n.connect(b, g1).unwrap();
        let g2 = n.add_gate(GateKind::Or, "g2");
        n.connect(a, g2).unwrap();
        n.connect(b, g2).unwrap();
        let f = n.add_gate(GateKind::Xor, "f");
        n.connect(g1, f).unwrap();
        n.connect(g2, f).unwrap();
        n.add_output("y", f).unwrap();
        let t = DomTree::observation(&NetView::new(&n));
        assert_eq!(t.idom(g1.index()), Some(f.index() as u32));
        assert_eq!(t.idom(g2.index()), Some(f.index() as u32));
        assert_eq!(t.idom(a.index()), Some(f.index() as u32));
        assert_eq!(t.idom(f.index()), Some(t.sink()));
        assert!(t.has_bottleneck(a.index()));
        assert!(!t.has_bottleneck(f.index()));
        // f gates itself, g1, g2, a and b.
        assert_eq!(t.dominated_sizes()[f.index()], 5);
    }

    #[test]
    fn independent_routes_reach_the_sink() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let i1 = n.add_gate(GateKind::Inv, "i1");
        n.connect(a, i1).unwrap();
        n.add_output("y1", i1).unwrap();
        n.add_output("y2", a).unwrap();
        let t = DomTree::observation(&NetView::new(&n));
        // a is observed directly AND through i1: no bottleneck.
        assert_eq!(t.idom(a.index()), Some(t.sink()));
        assert_eq!(t.idom(i1.index()), Some(t.sink()));
    }

    #[test]
    fn swap_registers_stay_acyclic() {
        // Two FFs feeding each other must not cycle the graph.
        let mut n = Netlist::new("t");
        let f1 = n.add_gate(GateKind::Dff, "f1");
        let f2 = n.add_gate(GateKind::Dff, "f2");
        n.connect(f1, f2).unwrap();
        n.connect(f2, f1).unwrap();
        n.add_output("y", f1).unwrap();
        let t = DomTree::observation(&NetView::new(&n));
        assert_eq!(t.idom(f1.index()), Some(t.sink()));
        assert_eq!(t.idom(f2.index()), Some(t.sink()));
    }

    #[test]
    fn dead_cone_is_unreachable() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let dead = n.add_gate(GateKind::Inv, "dead");
        n.connect(a, dead).unwrap();
        n.add_output("y", a).unwrap();
        let t = DomTree::observation(&NetView::new(&n));
        assert_eq!(t.idom(dead.index()), None);
        assert_eq!(t.idom(a.index()), Some(t.sink()));
    }
}
