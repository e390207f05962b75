//! The busy schedule of one serializing resource.
//!
//! A [`Calendar`] holds disjoint half-open `[start, end)` occupancies in
//! nanoseconds, sorted by start — so their ends are sorted too — in one
//! flat vector. Two users share it: every live [`crate::pipe::Pipe`] keeps
//! one as its reservation schedule, and the pipeline fast path replays a
//! whole traversal against per-stage scratch calendars. Both therefore
//! place a reservation with the same first-fit code, which is what makes
//! the closed-form replay land exactly where the per-segment walk would.

/// Disjoint busy intervals, sorted, with a dead prefix cursor.
///
/// Only `iv[head..]` is live. Pruning the past advances `head` instead of
/// shifting the vector; the dead prefix is compacted away once it makes up
/// at least half of the vector (amortized O(1) per pruned interval) and the
/// vector is cleared outright once nothing is live. Touching intervals are
/// merged on insert, so a FIFO queue-behind chain occupies one entry.
#[derive(Clone, Debug, Default)]
pub(crate) struct Calendar {
    iv: Vec<(u64, u64)>,
    head: usize,
}

impl Calendar {
    fn live(&self) -> &[(u64, u64)] {
        &self.iv[self.head..]
    }

    /// Number of live intervals (pruned ones are not counted).
    pub(crate) fn len(&self) -> usize {
        self.iv.len() - self.head
    }

    /// End of the last live interval, if any.
    pub(crate) fn last_end(&self) -> Option<u64> {
        self.live().last().map(|&(_, en)| en)
    }

    /// Drop every interval that ends at or before `now`. Ends are sorted,
    /// so those form a prefix of the live slice.
    pub(crate) fn prune(&mut self, now: u64) {
        self.head += self.live().partition_point(|&(_, en)| en <= now);
        if self.head == self.iv.len() {
            self.iv.clear();
            self.head = 0;
        } else if self.head * 2 >= self.iv.len() {
            self.iv.drain(..self.head);
            self.head = 0;
        }
    }

    /// First fit: the earliest `t >= earliest` such that `[t, t + dur)`
    /// overlaps no live interval, and the index (into `iv`) the new
    /// interval would occupy. `dur` must be nonzero.
    fn fit(&self, earliest: u64, dur: u64) -> (u64, usize) {
        let mut t = earliest;
        // Intervals ending at or before `t` can never constrain placement.
        let mut j = self.head + self.live().partition_point(|&(_, en)| en <= t);
        while let Some(&(st, en)) = self.iv.get(j) {
            if t + dur <= st {
                break;
            }
            t = t.max(en);
            j += 1;
        }
        (t, j)
    }

    /// Reserve the first gap of `dur` nanoseconds at or after `earliest`
    /// and return the occupied `(start, end)`.
    pub(crate) fn reserve(&mut self, earliest: u64, dur: u64) -> (u64, u64) {
        debug_assert!(dur > 0, "calendar reservations must be nonzero");
        let (t, j) = self.fit(earliest, dur);
        self.place(j, t, t + dur);
        (t, t + dur)
    }

    /// Insert `[st, en)`, which must overlap no live interval, merging it
    /// with exactly-touching neighbours. Unlike [`Calendar::reserve`] it may
    /// land anywhere, including before every live interval.
    pub(crate) fn insert_merged(&mut self, st: u64, en: u64) {
        let j = self.head + self.live().partition_point(|&(s, _)| s <= st);
        self.place(j, st, en);
    }

    /// Put `[st, en)` at index `j` of `iv` (the first live interval
    /// starting after `st`), merging with touching live neighbours. An
    /// interval sorting before every live one reuses the last dead slot
    /// when there is one, so no shift is needed.
    fn place(&mut self, j: usize, st: u64, en: u64) {
        debug_assert!(j >= self.head && j <= self.iv.len());
        debug_assert!(
            j == self.head || self.iv[j - 1].1 <= st,
            "overlaps previous"
        );
        debug_assert!(j == self.iv.len() || en <= self.iv[j].0, "overlaps next");
        let merge_prev = j > self.head && self.iv[j - 1].1 == st;
        let merge_next = j < self.iv.len() && self.iv[j].0 == en;
        match (merge_prev, merge_next) {
            (true, true) => {
                self.iv[j - 1].1 = self.iv[j].1;
                self.iv.remove(j);
            }
            (true, false) => self.iv[j - 1].1 = en,
            (false, true) => self.iv[j].0 = st,
            (false, false) if j == self.head && self.head > 0 => {
                self.head -= 1;
                self.iv[self.head] = (st, en);
            }
            (false, false) => self.iv.insert(j, (st, en)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force model: an unordered list of maximal busy blocks (touching
    /// intervals merged), pruned by filtering, fitted by trying every
    /// candidate start.
    #[derive(Default)]
    struct Model {
        iv: Vec<(u64, u64)>,
    }

    impl Model {
        fn overlaps(&self, st: u64, en: u64) -> bool {
            self.iv.iter().any(|&(s, e)| st < e && s < en)
        }

        fn insert(&mut self, mut st: u64, mut en: u64) {
            assert!(!self.overlaps(st, en));
            while let Some(k) = self.iv.iter().position(|&(s, e)| e == st || s == en) {
                let (s, e) = self.iv.swap_remove(k);
                st = st.min(s);
                en = en.max(e);
            }
            self.iv.push((st, en));
        }

        fn reserve(&mut self, earliest: u64, dur: u64) -> (u64, u64) {
            let t = std::iter::once(earliest)
                .chain(self.iv.iter().map(|&(_, e)| e).filter(|&e| e >= earliest))
                .filter(|&t| !self.overlaps(t, t + dur))
                .min()
                .expect("the end of the last interval always fits");
            self.insert(t, t + dur);
            (t, t + dur)
        }

        fn prune(&mut self, now: u64) {
            self.iv.retain(|&(_, e)| e > now);
        }

        fn sorted(&self) -> Vec<(u64, u64)> {
            let mut v = self.iv.clone();
            v.sort_unstable();
            v
        }
    }

    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    #[test]
    fn matches_brute_force_model() {
        let mut compactions = 0u32;
        let mut inserts_before_head = 0u32;
        for seed in 0..400u64 {
            let mut rng = Rng(seed);
            let mut cal = Calendar::default();
            let mut model = Model::default();
            let mut now = 0u64;
            // Short gaps and durations make touching neighbours common;
            // long sequences let the dead prefix cross the compaction point.
            let span = 1 + rng.below(400);
            for _ in 0..300 {
                match rng.below(10) {
                    0..=4 => {
                        let earliest = now + rng.below(span);
                        let dur = 1 + rng.below(span / 4 + 1);
                        assert_eq!(cal.reserve(earliest, dur), model.reserve(earliest, dur));
                    }
                    5..=7 => {
                        now += rng.below(span / 2 + 1);
                        let len_before = cal.iv.len();
                        cal.prune(now);
                        model.prune(now);
                        // The vector only shrinks by compaction or clear.
                        compactions += u32::from(cal.len() > 0 && cal.iv.len() < len_before);
                    }
                    _ => {
                        // Out-of-order insert anywhere that is free,
                        // including before every live interval.
                        let st = now.saturating_sub(span) + rng.below(3 * span);
                        let en = st + 1 + rng.below(span / 4 + 1);
                        if model.overlaps(st, en) {
                            continue;
                        }
                        let before_head =
                            cal.head > 0 && cal.live().first().is_none_or(|&(s, _)| en < s);
                        inserts_before_head += u32::from(before_head);
                        cal.insert_merged(st, en);
                        model.insert(st, en);
                    }
                }
                assert_eq!(cal.live(), model.sorted().as_slice(), "seed {seed}");
                assert_eq!(cal.len(), model.iv.len());
                assert_eq!(cal.last_end(), model.iv.iter().map(|&(_, e)| e).max());
            }
        }
        assert!(
            compactions > 100,
            "compaction exercised {compactions} times"
        );
        assert!(
            inserts_before_head > 100,
            "inserts before head exercised {inserts_before_head} times"
        );
    }

    #[test]
    fn prune_compacts_only_past_half() {
        let mut cal = Calendar::default();
        for k in 0..8 {
            cal.insert_merged(10 * k, 10 * k + 5);
        }
        cal.prune(15); // 2 of 8 dead: cursor only
        assert_eq!((cal.head, cal.iv.len(), cal.len()), (2, 8, 6));
        cal.prune(35); // 4 of 8 dead: compact
        assert_eq!((cal.head, cal.iv.len(), cal.len()), (0, 4, 4));
        cal.prune(1_000); // nothing live: clear
        assert_eq!((cal.head, cal.iv.len(), cal.last_end()), (0, 0, None));
    }

    #[test]
    fn insert_before_head_reuses_a_dead_slot() {
        let mut cal = Calendar::default();
        for k in 0..4 {
            cal.insert_merged(10 * k, 10 * k + 5);
        }
        cal.prune(7);
        assert_eq!(cal.head, 1);
        cal.insert_merged(6, 8);
        assert_eq!((cal.head, cal.iv.len()), (0, 4));
        assert_eq!(cal.live(), [(6, 8), (10, 15), (20, 25), (30, 35)]);
        // Touching the first live interval merges instead.
        cal.prune(9);
        cal.insert_merged(8, 10);
        assert_eq!(cal.live(), [(8, 15), (20, 25), (30, 35)]);
    }
}
