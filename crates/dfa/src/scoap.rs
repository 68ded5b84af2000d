//! SCOAP-style testability: CC0/CC1 controllability and CO
//! observability per net.
//!
//! The measures follow Goldstein's SCOAP with this workspace's netlist
//! conventions (one net per gate, `Mux` fanin `[sel, d0, d1]`):
//!
//! - `CC0(n)` / `CC1(n)`: minimum number of *costed* gates that must be
//!   set to drive net `n` to 0 / 1. Inputs cost 1; every costed gate on
//!   the way adds 1; a constant's impossible polarity is [`SAT`].
//! - `CO(n)`: minimum cost of side conditions + costed gates needed to
//!   propagate net `n`'s value to an output port or a flip-flop capture.
//!
//! **`Buf` and `Output` are transparent** — they add no cost and copy
//! their fanin's measures. This mirrors the structural-fingerprint
//! contract in `tpi-serve` (a `Buf` hashes through to its driver): both
//! promise that inserting a buffer changes neither identity nor
//! testability, and the proptests in `tests/dfa.rs` pin both.
//!
//! Flip-flops participate through a fixpoint: `CC(q) = CC(d) + 1` and
//! `CO(d) = CO(q) + 1`. Values start at [`SAT`]; [`cc_of`] and
//! [`co_of`] are the monotone per-gate transfer functions. The
//! fixpoints run as dirty-set rounds (the crate's `worklist`): round 1
//! evaluates every gate in topo order (reversed for `CO`); each later
//! round re-evaluates, in the same order, only the gates whose inputs
//! changed. A changed input at a later position is picked up in the
//! current round; one at the same or an earlier position — only a
//! flip-flop edge can point backward — waits for the next. The state
//! after round *k* therefore equals the state after the *k*-th
//! whole-netlist round-robin sweep, so [`Scoap::passes`] counts the
//! rounds plus one confirmation round, exactly as the sweeps counted
//! passes, and the work is the number of changes rather than
//! `passes × gates` (`tests/dfa.rs` checks both against the sweeps).
//!
//! The pass bound comes from counting distinct lattice points on one
//! root-to-leaf path of the optimal derivation: every flip-flop
//! crossing adds +1, so the same *point* can never repeat on a path
//! (its cost would have to be strictly less than itself). Forward has
//! **two** points per flip-flop — `Xor`/`Mux` legs mix polarities, so
//! deriving `CC1(q)` may route through `CC0(q)` of the same flip-flop —
//! giving `2·#FFs + 1` working rounds; backward has one point per
//! flip-flop (`CO` only), giving `#FFs + 1`. One extra round detects
//! the fixpoint — [`Scoap::analyze`] asserts both bounds.
//!
//! All arithmetic saturates at [`SAT`]; the visit order is the view's
//! deterministic topo order, so results are a pure function of the
//! snapshot — byte-identical across thread counts by construction.

use crate::worklist::Worklist;
use tpi_netlist::GateKind;
use tpi_sim::NetView;

/// Saturation value: "cannot be controlled / observed".
pub const SAT: u32 = u32::MAX;

#[inline]
fn add(a: u32, b: u32) -> u32 {
    a.saturating_add(b)
}

/// Three-vector SCOAP result over a [`NetView`] snapshot.
#[derive(Debug, Clone)]
pub struct Scoap {
    /// Controllability-to-0 per gate (net) index.
    pub cc0: Vec<u32>,
    /// Controllability-to-1 per gate (net) index.
    pub cc1: Vec<u32>,
    /// Observability per gate (net) index.
    pub co: Vec<u32>,
    /// `(forward, backward)` rounds until the fixpoint stabilized, the
    /// confirmation round included: the number of whole-netlist sweeps a
    /// round-robin fixpoint takes.
    pub passes: (u32, u32),
    /// Gate evaluations over both fixpoints: the work counter whose
    /// per-gate ratio stays flat as designs grow.
    pub evaluations: u64,
}

impl Scoap {
    /// Runs both fixpoints over the snapshot.
    ///
    /// # Panics
    /// Panics if a fixpoint exceeds its pass bound (`2·#FFs + 2`
    /// forward, `#FFs + 2` backward — see the module docs), which would
    /// indicate a non-monotone transfer function (a bug).
    pub fn analyze(view: &NetView) -> Scoap {
        let n = view.gate_count();
        let topo = view.topo();
        let ffs = (0..n).filter(|&g| view.kind(g) == GateKind::Dff).count() as u32;
        // Forward: positions are topo positions; a gate's readers are
        // its fanouts.
        let mut cc0 = vec![SAT; n];
        let mut cc1 = vec![SAT; n];
        let mut work = Worklist::dense(n);
        let fwd = crate::fixpoint("SCOAP forward", 2 * ffs + 2, || {
            let mut changed = false;
            while let Some(pos) = work.pop() {
                let g = topo[pos] as usize;
                let (n0, n1) = cc_of(view, g, &cc0, &cc1);
                // Monotone non-increasing from SAT; clamping keeps that
                // invariant explicit.
                let (n0, n1) = (n0.min(cc0[g]), n1.min(cc1[g]));
                if (n0, n1) != (cc0[g], cc1[g]) {
                    cc0[g] = n0;
                    cc1[g] = n1;
                    changed = true;
                    for &s in view.fanouts(g) {
                        work.push_dependent(pos, view.topo_pos(s as usize) as usize);
                    }
                }
            }
            work.advance();
            changed
        });
        // Backward: positions run the topo order in reverse; a gate's
        // readers are its fanins.
        let rev = |g: u32| n - 1 - view.topo_pos(g as usize) as usize;
        let mut co = vec![SAT; n];
        let mut back = Worklist::dense(n);
        let bwd = crate::fixpoint("SCOAP backward", ffs + 2, || {
            let mut changed = false;
            while let Some(pos) = back.pop() {
                let g = topo[n - 1 - pos] as usize;
                let best = co_of(view, g, &cc0, &cc1, &co).min(co[g]);
                if best != co[g] {
                    co[g] = best;
                    changed = true;
                    for &f in view.fanin(g) {
                        back.push_dependent(pos, rev(f));
                    }
                }
            }
            back.advance();
            changed
        });
        Scoap { cc0, cc1, co, passes: (fwd, bwd), evaluations: work.visits + back.visits }
    }

    /// Combined testability burden of net `g`: `cc0 + cc1 + co`,
    /// saturating. The TPGREED `GainModel::Scoap` weight and the
    /// TPI200 lint both rank by this.
    #[inline]
    pub fn burden(&self, g: usize) -> u32 {
        add(add(self.cc0[g], self.cc1[g]), self.co[g])
    }
}

/// Forward transfer function: `(CC0, CC1)` of gate `g` from its fanins'
/// current values. The fixpoints take the minimum of this and the
/// gate's current value.
pub fn cc_of(view: &NetView, g: usize, cc0: &[u32], cc1: &[u32]) -> (u32, u32) {
    let fanin = view.fanin(g);
    match view.kind(g) {
        GateKind::Input => (1, 1),
        GateKind::Const0 => (1, SAT),
        GateKind::Const1 => (SAT, 1),
        GateKind::Buf | GateKind::Output => match fanin.first() {
            Some(&f) => (cc0[f as usize], cc1[f as usize]),
            None => (SAT, SAT),
        },
        GateKind::Dff => match fanin.first() {
            Some(&f) => (add(cc0[f as usize], 1), add(cc1[f as usize], 1)),
            None => (SAT, SAT),
        },
        GateKind::Inv => match fanin.first() {
            Some(&f) => (add(cc1[f as usize], 1), add(cc0[f as usize], 1)),
            None => (SAT, SAT),
        },
        GateKind::And => and_cc(fanin, cc0, cc1),
        GateKind::Nand => swap(and_cc(fanin, cc0, cc1)),
        GateKind::Or => swap(and_cc_dual(fanin, cc0, cc1)),
        GateKind::Nor => and_cc_dual(fanin, cc0, cc1),
        GateKind::Xor => xor_cc(fanin, cc0, cc1),
        GateKind::Xnor => swap(xor_cc(fanin, cc0, cc1)),
        GateKind::Mux => mux_cc(fanin, cc0, cc1),
    }
}

#[inline]
fn swap((a, b): (u32, u32)) -> (u32, u32) {
    (b, a)
}

/// And: all inputs at 1 for a 1, any input at 0 for a 0.
fn and_cc(fanin: &[u32], cc0: &[u32], cc1: &[u32]) -> (u32, u32) {
    let to1 = fanin.iter().fold(0u32, |a, &f| add(a, cc1[f as usize]));
    let to0 = fanin.iter().map(|&f| cc0[f as usize]).min().unwrap_or(SAT);
    (add(to0, 1), add(to1, 1))
}

/// Nor body (Or is its swap): all inputs at 0 for a 1, any at 1 for a 0.
fn and_cc_dual(fanin: &[u32], cc0: &[u32], cc1: &[u32]) -> (u32, u32) {
    let to1 = fanin.iter().fold(0u32, |a, &f| add(a, cc0[f as usize]));
    let to0 = fanin.iter().map(|&f| cc1[f as usize]).min().unwrap_or(SAT);
    (add(to1, 1), add(to0, 1))
}

/// Two-input Xor: cheapest equal / unequal input pair.
fn xor_cc(fanin: &[u32], cc0: &[u32], cc1: &[u32]) -> (u32, u32) {
    let (Some(&a), Some(&b)) = (fanin.first(), fanin.get(1)) else {
        return (SAT, SAT);
    };
    let (a, b) = (a as usize, b as usize);
    let to0 = add(cc0[a], cc0[b]).min(add(cc1[a], cc1[b]));
    let to1 = add(cc0[a], cc1[b]).min(add(cc1[a], cc0[b]));
    (add(to0, 1), add(to1, 1))
}

/// Mux `[sel, d0, d1]`: route the cheaper data leg.
fn mux_cc(fanin: &[u32], cc0: &[u32], cc1: &[u32]) -> (u32, u32) {
    let [s, d0, d1] = *fanin else { return (SAT, SAT) };
    let (s, d0, d1) = (s as usize, d0 as usize, d1 as usize);
    let to0 = add(cc0[s], cc0[d0]).min(add(cc1[s], cc0[d1]));
    let to1 = add(cc0[s], cc1[d0]).min(add(cc1[s], cc1[d1]));
    (add(to0, 1), add(to1, 1))
}

/// Backward transfer function: `CO` of gate `g` from its sinks' current
/// values (0 for an output port). The fixpoints take the minimum of
/// this and the gate's current value.
pub fn co_of(view: &NetView, g: usize, cc0: &[u32], cc1: &[u32], co: &[u32]) -> u32 {
    let own = if view.kind(g) == GateKind::Output { 0 } else { SAT };
    view.fanouts(g)
        .iter()
        .fold(own, |best, &s| best.min(sink_cost(view, g as u32, s as usize, cc0, cc1, co)))
}

/// Cost of observing net `g` through sink gate `s`: `CO(s)` plus the
/// side conditions that make `s` transparent on `g`'s pin(s).
fn sink_cost(view: &NetView, g: u32, s: usize, cc0: &[u32], cc1: &[u32], co: &[u32]) -> u32 {
    let fanin = view.fanin(s);
    match view.kind(s) {
        GateKind::Output => 0,
        GateKind::Buf => co[s],
        GateKind::Dff | GateKind::Inv => add(co[s], 1),
        GateKind::And | GateKind::Nand => {
            let side =
                fanin.iter().filter(|&&f| f != g).fold(0u32, |a, &f| add(a, cc1[f as usize]));
            add(add(co[s], side), 1)
        }
        GateKind::Or | GateKind::Nor => {
            let side =
                fanin.iter().filter(|&&f| f != g).fold(0u32, |a, &f| add(a, cc0[f as usize]));
            add(add(co[s], side), 1)
        }
        GateKind::Xor | GateKind::Xnor => {
            // Any fixed other input propagates; if `g` drives both pins
            // the output is constant and `s` observes nothing.
            let side = fanin
                .iter()
                .filter(|&&f| f != g)
                .map(|&f| cc0[f as usize].min(cc1[f as usize]))
                .min()
                .unwrap_or(SAT);
            add(add(co[s], side), 1)
        }
        GateKind::Mux => {
            let [sel, d0, d1] = *fanin else { return SAT };
            let mut best = SAT;
            if sel == g {
                // Observing the select needs the data legs to differ.
                let differ = add(cc0[d0 as usize], cc1[d1 as usize])
                    .min(add(cc1[d0 as usize], cc0[d1 as usize]));
                best = best.min(differ);
            }
            if d0 == g {
                best = best.min(cc0[sel as usize]);
            }
            if d1 == g {
                best = best.min(cc1[sel as usize]);
            }
            add(add(co[s], best), 1)
        }
        // Sources have no fanin and never appear as sinks.
        GateKind::Input | GateKind::Const0 | GateKind::Const1 => SAT,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_netlist::Netlist;

    #[test]
    fn and_chain_hand_computed() {
        // a, b -> AND g -> OUT y
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::And, "g");
        n.connect(a, g).unwrap();
        n.connect(b, g).unwrap();
        n.add_output("y", g).unwrap();
        let s = Scoap::analyze(&NetView::new(&n));
        assert_eq!((s.cc0[a.index()], s.cc1[a.index()]), (1, 1));
        // AND: cc1 = 1+1+1 = 3, cc0 = min(1,1)+1 = 2.
        assert_eq!((s.cc0[g.index()], s.cc1[g.index()]), (2, 3));
        // g feeds the port directly: CO = 0. Observing a needs b=1.
        assert_eq!(s.co[g.index()], 0);
        assert_eq!(s.co[a.index()], 2); // co[g]=0 + cc1[b]=1 + 1
        assert_eq!(s.passes, (2, 2)); // 1 working pass + 1 stable check
    }

    #[test]
    fn constants_saturate_the_impossible_polarity() {
        let mut n = Netlist::new("t");
        let c = n.add_gate(GateKind::Const1, "c");
        n.add_output("y", c).unwrap();
        let s = Scoap::analyze(&NetView::new(&n));
        assert_eq!(s.cc0[c.index()], SAT);
        assert_eq!(s.cc1[c.index()], 1);
    }

    #[test]
    fn ff_loop_converges_through_the_fixpoint() {
        // in -> AND g <- ff;  g -> ff (self loop through the FF); g -> OUT
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let g = n.add_gate(GateKind::And, "g");
        let ff = n.add_gate(GateKind::Dff, "ff");
        n.connect(a, g).unwrap();
        n.connect(ff, g).unwrap();
        n.connect(g, ff).unwrap();
        n.add_output("y", g).unwrap();
        let s = Scoap::analyze(&NetView::new(&n));
        // cc0(g) = min(cc0(a), cc0(ff)) + 1; cc0(ff) = cc0(g)+1, so the
        // fixpoint picks the input route: cc0(g) = 2, cc0(ff) = 3.
        assert_eq!(s.cc0[g.index()], 2);
        assert_eq!(s.cc0[ff.index()], 3);
        // cc1(g) = cc1(a) + cc1(ff) + 1 = 1 + (cc1(g)+1) + 1 — only
        // satisfied at saturation: the AND can never make a 1 (the FF
        // leg needs a 1 that only the AND itself could have produced).
        assert_eq!(s.cc1[g.index()], SAT);
        assert_eq!(s.co[g.index()], 0);
    }

    #[test]
    fn unobservable_dead_cone_saturates() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let g = n.add_gate(GateKind::Inv, "dead");
        n.connect(a, g).unwrap();
        n.add_output("y", a).unwrap();
        let s = Scoap::analyze(&NetView::new(&n));
        assert_eq!(s.co[g.index()], SAT);
        assert_eq!(s.co[a.index()], 0);
    }
}
