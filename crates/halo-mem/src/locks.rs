//! The HALO hardware-lock table: line address -> lock release cycle.
//!
//! A small open-addressed hash table with linear probing and
//! backward-shift deletion, replacing the general-purpose
//! `HashMap<LineAddr, Cycle>` the memory system used to carry
//! (DESIGN.md §9). It holds one entry per line an accelerator query
//! locked that no sweep, store or eviction has released yet. That is
//! small when callers run `hw_unlock_expired`, but the datapaths never
//! do, so it can reach ~10^5 entries. The probe runs on the store hot
//! path, so the table optimizes for short probes over dense `(u64, u64)`
//! pairs in contiguous memory and for allocation-free expiry sweeps.

use crate::addr::LineAddr;
use halo_sim::Cycle;

/// Key value marking an empty slot. Line addresses are byte addresses
/// shifted right by 6, so no reachable line collides with it.
const EMPTY: u64 = u64::MAX;

/// Initial capacity (slots). Power of two; grows by doubling.
const INITIAL_CAPACITY: usize = 64;

/// Grow when `len * 4 > capacity * 3` (75% load), keeping probes short.
const LOAD_NUM: usize = 3;
const LOAD_DEN: usize = 4;

/// Fibonacci-hash a line address into a slot index.
#[inline]
fn slot_of(line: u64, mask: usize) -> usize {
    (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask
}

/// Open-addressed `LineAddr -> Cycle` lock table.
#[derive(Debug, Clone)]
pub struct LockTable {
    /// Slot keys; [`EMPTY`] marks a free slot.
    keys: Vec<u64>,
    /// Release cycles, parallel to `keys`.
    rels: Vec<Cycle>,
    len: usize,
}

impl Default for LockTable {
    fn default() -> Self {
        LockTable::new()
    }
}

impl LockTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        LockTable {
            keys: vec![EMPTY; INITIAL_CAPACITY],
            rels: vec![Cycle(0); INITIAL_CAPACITY],
            len: 0,
        }
    }

    /// Number of held locks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no locks are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn mask(&self) -> usize {
        self.keys.len() - 1
    }

    /// Finds the slot holding `line`, if present.
    #[inline]
    fn find(&self, line: u64) -> Option<usize> {
        let mask = self.mask();
        let mut i = slot_of(line, mask);
        loop {
            let k = self.keys[i];
            if k == line {
                return Some(i);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Release cycle of the lock on `line`, if held.
    #[must_use]
    pub fn get(&self, line: LineAddr) -> Option<Cycle> {
        self.find(line.0).map(|i| self.rels[i])
    }

    /// Sets the lock on `line` to release at `until`; if already held,
    /// the release time only ever extends (`max`).
    pub fn insert_max(&mut self, line: LineAddr, until: Cycle) {
        debug_assert!(line.0 != EMPTY, "line collides with the empty sentinel");
        if self.len + 1 > self.keys.len() * LOAD_NUM / LOAD_DEN {
            self.grow();
        }
        let mask = self.mask();
        let mut i = slot_of(line.0, mask);
        loop {
            let k = self.keys[i];
            if k == line.0 {
                self.rels[i] = self.rels[i].max(until);
                return;
            }
            if k == EMPTY {
                self.keys[i] = line.0;
                self.rels[i] = until;
                self.len += 1;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// Removes the lock on `line`, returning its release cycle.
    pub fn remove(&mut self, line: LineAddr) -> Option<Cycle> {
        let i = self.find(line.0)?;
        let rel = self.rels[i];
        self.delete_slot(i);
        Some(rel)
    }

    /// Deletes slot `i`, backward-shifting the following probe run so
    /// every surviving entry stays reachable (no tombstones).
    fn delete_slot(&mut self, mut i: usize) {
        let mask = self.mask();
        self.len -= 1;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let k = self.keys[j];
            if k == EMPTY {
                break;
            }
            // `k`'s home slot; shift it back iff the vacated slot `i`
            // lies cyclically within [home, j).
            let home = slot_of(k, mask);
            let dist_home_j = j.wrapping_sub(home) & mask;
            let dist_home_i = i.wrapping_sub(home) & mask;
            if dist_home_i <= dist_home_j {
                self.keys[i] = k;
                self.rels[i] = self.rels[j];
                i = j;
            }
        }
        self.keys[i] = EMPTY;
    }

    /// Removes every lock whose release time has passed by `now`,
    /// invoking `released` for each. Allocation-free: the sweep works
    /// directly on the slot array.
    pub fn sweep_expired(&mut self, now: Cycle, mut released: impl FnMut(LineAddr)) {
        let mut i = 0;
        while i < self.keys.len() {
            if self.keys[i] != EMPTY && self.rels[i] <= now {
                released(LineAddr(self.keys[i]));
                self.delete_slot(i);
                // The backward shift may have pulled a later (not yet
                // visited) entry into slot `i`; re-examine it.
            } else {
                i += 1;
            }
        }
    }

    /// Iterates over `(line, release)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, Cycle)> + '_ {
        self.keys
            .iter()
            .zip(&self.rels)
            .filter(|(&k, _)| k != EMPTY)
            .map(|(&k, &r)| (LineAddr(k), r))
    }

    /// Releases every lock.
    pub fn clear(&mut self) {
        self.keys.fill(EMPTY);
        self.len = 0;
    }

    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        let old_rels = std::mem::replace(&mut self.rels, vec![Cycle(0); new_cap]);
        self.len = 0;
        for (k, r) in old_keys.into_iter().zip(old_rels) {
            if k != EMPTY {
                self.insert_max(LineAddr(k), r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_sim::SplitMix64;
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = LockTable::new();
        assert!(t.is_empty());
        t.insert_max(LineAddr(10), Cycle(100));
        assert_eq!(t.get(LineAddr(10)), Some(Cycle(100)));
        assert_eq!(t.get(LineAddr(11)), None);
        assert_eq!(t.remove(LineAddr(10)), Some(Cycle(100)));
        assert_eq!(t.remove(LineAddr(10)), None);
        assert!(t.is_empty());
    }

    #[test]
    fn overlapping_locks_extend() {
        let mut t = LockTable::new();
        t.insert_max(LineAddr(5), Cycle(100));
        t.insert_max(LineAddr(5), Cycle(50));
        assert_eq!(t.get(LineAddr(5)), Some(Cycle(100)), "never shortens");
        t.insert_max(LineAddr(5), Cycle(300));
        assert_eq!(t.get(LineAddr(5)), Some(Cycle(300)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn sweep_releases_exactly_the_expired() {
        let mut t = LockTable::new();
        for i in 0..50u64 {
            t.insert_max(LineAddr(i), Cycle(i * 10));
        }
        let mut released = Vec::new();
        t.sweep_expired(Cycle(245), |l| released.push(l.0));
        released.sort_unstable();
        assert_eq!(released, (0..25).collect::<Vec<u64>>());
        assert_eq!(t.len(), 25);
        for i in 0..50u64 {
            assert_eq!(t.get(LineAddr(i)).is_some(), i * 10 > 245, "line {i}");
        }
    }

    #[test]
    fn growth_preserves_entries() {
        let mut t = LockTable::new();
        for i in 0..1000u64 {
            t.insert_max(LineAddr(i * 7919), Cycle(i));
        }
        assert_eq!(t.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(t.get(LineAddr(i * 7919)), Some(Cycle(i)));
        }
    }

    /// Differential check against a model map under a seeded op mix,
    /// including the backward-shift deletion paths that open addressing
    /// gets wrong most easily.
    #[test]
    fn agrees_with_hashmap_model_under_churn() {
        let mut t = LockTable::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut rng = SplitMix64::new(0x10C5);
        for step in 0..20_000u64 {
            let line = rng.next_u64() % 512; // small domain => collisions
            match rng.next_u64() % 4 {
                0 | 1 => {
                    let until = rng.next_u64() % 10_000;
                    t.insert_max(LineAddr(line), Cycle(until));
                    let e = model.entry(line).or_insert(0);
                    *e = (*e).max(until);
                }
                2 => {
                    let got = t.remove(LineAddr(line)).map(|c| c.0);
                    assert_eq!(got, model.remove(&line), "remove({line}) at {step}");
                }
                _ => {
                    let now = rng.next_u64() % 10_000;
                    let mut released = Vec::new();
                    t.sweep_expired(Cycle(now), |l| released.push(l.0));
                    let mut expected: Vec<u64> = model
                        .iter()
                        .filter(|(_, &r)| r <= now)
                        .map(|(&l, _)| l)
                        .collect();
                    model.retain(|_, &mut r| r > now);
                    released.sort_unstable();
                    expected.sort_unstable();
                    assert_eq!(released, expected, "sweep({now}) at {step}");
                }
            }
            assert_eq!(t.len(), model.len(), "len at {step}");
        }
        // Final full agreement.
        let mut got: Vec<(u64, u64)> = t.iter().map(|(l, c)| (l.0, c.0)).collect();
        let mut expected: Vec<(u64, u64)> = model.into_iter().collect();
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    /// First `n` line addresses whose home slot is `slot` in a table of
    /// `cap` slots (for building deliberate probe runs).
    fn lines_homing_at(slot: usize, cap: usize, n: usize) -> Vec<u64> {
        (0u64..)
            .filter(|&l| l != EMPTY && slot_of(l, cap - 1) == slot)
            .take(n)
            .collect()
    }

    /// `sweep_expired` deletes in place and re-examines the slot a
    /// backward shift refills — including when the probe run wraps from
    /// the last slot to slot 0. Three keys homing at the last slot
    /// occupy slots `cap-1`, `0`, `1`; expiring the run's first and
    /// third entries forces a shift *across* the wraparound boundary,
    /// and the survivor must stay reachable.
    #[test]
    fn sweep_backward_shift_across_wraparound_keeps_survivor_reachable() {
        let cap = INITIAL_CAPACITY;
        let last = cap - 1;
        let lines = lines_homing_at(last, cap, 3);
        let mut t = LockTable::new();
        t.insert_max(LineAddr(lines[0]), Cycle(10)); // slot cap-1 (expires)
        t.insert_max(LineAddr(lines[1]), Cycle(100)); // wraps to slot 0
        t.insert_max(LineAddr(lines[2]), Cycle(10)); // slot 1 (expires)

        let mut released = Vec::new();
        t.sweep_expired(Cycle(50), |l| released.push(l.0));
        released.sort_unstable();
        let mut expected = vec![lines[0], lines[2]];
        expected.sort_unstable();
        assert_eq!(released, expected);
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.get(LineAddr(lines[1])),
            Some(Cycle(100)),
            "survivor shifted across the boundary must stay reachable"
        );
        assert_eq!(t.iter().count(), 1);
    }

    /// The wraparound case where the entry pulled backward into a
    /// just-vacated slot of the wrapped run is *itself* expired: the
    /// in-place re-examination must release it too (a plain `i += 1`
    /// sweep would skip it).
    #[test]
    fn sweep_re_examines_entry_shifted_across_wraparound() {
        let cap = INITIAL_CAPACITY;
        let last = cap - 1;
        let lines = lines_homing_at(last, cap, 3);
        let mut t = LockTable::new();
        for &l in &lines {
            t.insert_max(LineAddr(l), Cycle(10)); // all expire
        }
        let mut released = Vec::new();
        t.sweep_expired(Cycle(50), |l| released.push(l.0));
        released.sort_unstable();
        let mut expected = lines.clone();
        expected.sort_unstable();
        assert_eq!(released, expected, "every expired entry must release");
        assert!(t.is_empty());
    }

    /// Differential churn constrained to lines homing at the last few
    /// slots, so probe runs constantly straddle the wraparound boundary
    /// — the regime the uniform-domain churn test rarely exercises.
    #[test]
    fn wraparound_boundary_churn_agrees_with_model() {
        let cap = INITIAL_CAPACITY;
        // Enough keys per boundary slot that runs overflow past slot 0,
        // but few enough that the table never grows past `cap`.
        let keys: Vec<u64> = (0..4)
            .flat_map(|d| lines_homing_at(cap - 1 - d, cap, 6))
            .collect();
        let mut t = LockTable::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut rng = SplitMix64::new(0xB0_0517);
        for step in 0..10_000u64 {
            let line = keys[(rng.next_u64() % keys.len() as u64) as usize];
            match rng.next_u64() % 4 {
                0 | 1 => {
                    let until = rng.next_u64() % 10_000;
                    t.insert_max(LineAddr(line), Cycle(until));
                    let e = model.entry(line).or_insert(0);
                    *e = (*e).max(until);
                }
                2 => {
                    let got = t.remove(LineAddr(line)).map(|c| c.0);
                    assert_eq!(got, model.remove(&line), "remove({line}) at {step}");
                }
                _ => {
                    let now = rng.next_u64() % 10_000;
                    let mut released = Vec::new();
                    t.sweep_expired(Cycle(now), |l| released.push(l.0));
                    let mut expected: Vec<u64> = model
                        .iter()
                        .filter(|(_, &r)| r <= now)
                        .map(|(&l, _)| l)
                        .collect();
                    model.retain(|_, &mut r| r > now);
                    released.sort_unstable();
                    expected.sort_unstable();
                    assert_eq!(released, expected, "sweep({now}) at {step}");
                }
            }
            assert_eq!(t.len(), model.len(), "len at {step}");
            assert_eq!(t.keys.len(), cap, "domain sized to avoid growth");
        }
        for &k in &keys {
            assert_eq!(
                t.get(LineAddr(k)).map(|c| c.0),
                model.get(&k).copied(),
                "final lookup of {k}"
            );
        }
    }

    #[test]
    fn clear_empties() {
        let mut t = LockTable::new();
        for i in 0..10u64 {
            t.insert_max(LineAddr(i), Cycle(1));
        }
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.iter().count(), 0);
        assert_eq!(t.get(LineAddr(3)), None);
    }
}
