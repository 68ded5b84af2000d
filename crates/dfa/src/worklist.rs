//! Dirty-set rounds over a sweep order: the scheduler behind the SCOAP
//! fixpoints and the X-reach cone walks.
//!
//! Positions `0..n` index a sweep order (the view's topo order, or its
//! reverse). A *round* visits every dirty position once, in ascending
//! order. While a position is being visited, a dependent at a *later*
//! position joins the current round (it has not been visited yet); a
//! dependent at the same or an earlier position waits for the next
//! round. So a round visits exactly the gates a full Gauss–Seidel sweep
//! in the same order would find changed inputs at, in the same order,
//! and reads the same values: the state after round *k* equals the
//! state after full sweep *k*, at the cost of the dirty gates only.
//!
//! Both rounds are two-level bitsets over positions, so visit order is
//! a pure function of the marks — no hashing, no heap order. A summary
//! bit per 64-position word lets a round skip clean words 64 at a time:
//! a round costs its marks plus `n / 4096` summary words, so the many
//! short rounds of a deep pipeline never rescan the whole design.

/// Dirty positions of the current and the next round.
#[derive(Debug)]
pub(crate) struct Worklist {
    now: Bits,
    next: Bits,
    /// Word of `now` the current round has reached.
    cursor: usize,
    /// Positions visited so far, over all rounds.
    pub(crate) visits: u64,
}

/// A bitset over positions plus a summary bitset over its words.
#[derive(Debug)]
struct Bits {
    words: Vec<u64>,
    /// Bit `w` is set while `words[w]` may hold marks.
    summary: Vec<u64>,
}

impl Bits {
    fn empty(n: usize) -> Bits {
        let words = n.div_ceil(64);
        Bits { words: vec![0; words], summary: vec![0; words.div_ceil(64)] }
    }

    #[inline]
    fn mark(&mut self, pos: usize) {
        let w = pos / 64;
        self.words[w] |= 1u64 << (pos % 64);
        self.summary[w / 64] |= 1u64 << (w % 64);
    }

    /// The first word at or after `from` whose summary bit is set.
    #[inline]
    fn next_word(&self, from: usize) -> Option<usize> {
        let mut s = from / 64;
        let mut bits = self.summary.get(s)? & (!0u64 << (from % 64));
        while bits == 0 {
            s += 1;
            bits = *self.summary.get(s)?;
        }
        Some(s * 64 + bits.trailing_zeros() as usize)
    }
}

impl Worklist {
    /// An empty worklist over positions `0..n`.
    pub(crate) fn new(n: usize) -> Worklist {
        Worklist { now: Bits::empty(n), next: Bits::empty(n), cursor: 0, visits: 0 }
    }

    /// A worklist whose first round visits every position `0..n`: the
    /// dense sweep.
    pub(crate) fn dense(n: usize) -> Worklist {
        let mut w = Worklist::new(n);
        for pos in 0..n {
            w.now.mark(pos);
        }
        w
    }

    /// Marks `pos` dirty in the current round. The caller guarantees
    /// `pos` lies after every position visited so far in this round.
    #[inline]
    pub(crate) fn push(&mut self, pos: usize) {
        self.now.mark(pos);
        self.cursor = self.cursor.min(pos / 64);
    }

    /// Marks `to`, a dependent of the position `from` being visited:
    /// in this round if it lies later, otherwise in the next round.
    #[inline]
    pub(crate) fn push_dependent(&mut self, from: usize, to: usize) {
        if to > from {
            self.now.mark(to);
        } else {
            self.next.mark(to);
        }
    }

    /// The lowest dirty position of the current round, or `None` once
    /// the round is done.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<usize> {
        loop {
            let word = self.now.words.get_mut(self.cursor)?;
            if *word != 0 {
                let pos = self.cursor * 64 + word.trailing_zeros() as usize;
                *word &= *word - 1;
                self.visits += 1;
                return Some(pos);
            }
            self.now.summary[self.cursor / 64] &= !(1u64 << (self.cursor % 64));
            self.cursor = self.now.next_word(self.cursor + 1)?;
        }
    }

    /// Ends the current round (which [`Worklist::pop`] has drained) and
    /// makes the next round current.
    pub(crate) fn advance(&mut self) {
        debug_assert!(self.pop().is_none(), "advance before the round is drained");
        std::mem::swap(&mut self.now, &mut self.next);
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_visit_in_order_and_defer_backward_marks() {
        let mut w = Worklist::new(9000);
        w.push(8500);
        w.push(130);
        w.push(5);
        let mut seen = Vec::new();
        while let Some(p) = w.pop() {
            seen.push(p);
            if p == 5 {
                w.push_dependent(5, 70); // later: this round
                w.push_dependent(5, 3); // earlier: next round
                w.push_dependent(5, 5); // itself: next round
            }
            if p == 130 {
                w.push_dependent(130, 4200); // past a clean summary word
            }
        }
        assert_eq!(seen, [5, 70, 130, 4200, 8500]);
        w.advance();
        assert_eq!((w.pop(), w.pop(), w.pop()), (Some(3), Some(5), None));
        w.advance();
        assert_eq!(w.pop(), None);
        assert_eq!(w.visits, 7);
    }

    #[test]
    fn dense_round_visits_every_position_once() {
        let mut w = Worklist::dense(130);
        let seen: Vec<usize> = std::iter::from_fn(|| w.pop()).collect();
        assert_eq!(seen, (0..130).collect::<Vec<_>>());
        w.advance();
        assert_eq!(w.pop(), None);
    }
}
