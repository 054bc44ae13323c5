//! A DPDK-`rte_hash`-style cuckoo hash table over simulated memory.
//!
//! Two hash functions map each key to two candidate buckets; inserts may
//! displace residents along a breadth-first cuckoo path (so a failed
//! insert never loses resident keys); lookups probe at most two bucket
//! lines plus the matching key-value slot — the access pattern whose
//! LLC-friendliness motivates HALO (§3.3).

use crate::hash::bucket_pair_and_signature;
use crate::key::FlowKey;
use crate::layout::{allocate_table, TableMeta, ENTRIES_PER_BUCKET};
use crate::path::find_displacement_path;
use crate::trace::{LookupTrace, TraceStep};
use halo_mem::{Addr, SimMemory};
use std::fmt;

/// Maximum breadth-first nodes explored when hunting a cuckoo path.
const BFS_LIMIT: usize = 4096;

/// Error returned when an insert cannot find a cuckoo path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableFullError;

impl fmt::Display for TableFullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no cuckoo path to a free slot")
    }
}

impl std::error::Error for TableFullError {}

/// A cuckoo relocation caught between its two bucket writes: the entry
/// has been *copied* into the alternative bucket but not yet cleared
/// from the source (the duplicate-then-delete ordering of Fig. 7, which
/// keeps the key findable at every instant). Obtained from
/// [`CuckooTable::cuckoo_move_begin`]; finish with
/// [`CuckooTable::cuckoo_move_commit`] or roll back with
/// [`CuckooTable::cuckoo_move_abort`].
///
/// While a move is pending only lookups may run against the table —
/// writers must be held off, exactly the exclusion the HALO hardware
/// lock bit provides (§4.4).
#[derive(Debug, Clone, Copy)]
#[must_use = "a pending move must be committed or aborted"]
pub struct PendingMove {
    src: (u64, usize),
    dst: (u64, usize),
}

/// A cuckoo hash table handle.
///
/// The table's bytes live in a [`SimMemory`]; this handle holds the
/// layout plus control-plane state (the free-slot list), mirroring how
/// DPDK keeps its slot ring outside the lookup-critical structures.
///
/// # Examples
///
/// ```
/// use halo_mem::SimMemory;
/// use halo_tables::{CuckooTable, FlowKey};
///
/// let mut mem = SimMemory::new();
/// let mut t = CuckooTable::create(&mut mem, 1024, 13);
/// let k = FlowKey::synthetic(1, 13);
/// t.insert(&mut mem, &k, 0xAB).unwrap();
/// assert_eq!(t.lookup(&mut mem, &k), Some(0xAB));
/// ```
#[derive(Debug)]
pub struct CuckooTable {
    meta_addr: Addr,
    meta: TableMeta,
    /// Optimistic-lock version counter line (software locking model).
    version_addr: Addr,
    free: Vec<u32>,
    len: usize,
    moves_in_flight: usize,
}

impl CuckooTable {
    /// Creates a table with `buckets` buckets (power of two) for
    /// `key_len`-byte keys. Capacity is `buckets * 8` entries.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is not a power of two or `key_len` is out of
    /// range.
    pub fn create(mem: &mut SimMemory, buckets: u64, key_len: usize) -> Self {
        let (meta_addr, meta) = allocate_table(mem, buckets, key_len);
        let version_addr = mem.alloc_lines(64);
        let slots = (buckets as usize) * ENTRIES_PER_BUCKET;
        // Hand out low indices first: keeps the hot end of the kv array
        // compact, as DPDK's ring does in practice.
        let free = (0..slots as u32).rev().collect();
        CuckooTable {
            meta_addr,
            meta,
            version_addr,
            free,
            len: 0,
            moves_in_flight: 0,
        }
    }

    /// Sizes a table for `flows` entries at `occupancy` (e.g. 0.9) and
    /// creates it.
    ///
    /// # Panics
    ///
    /// Panics if `occupancy` is not in `(0, 1]`.
    pub fn with_capacity_for(
        mem: &mut SimMemory,
        flows: usize,
        occupancy: f64,
        key_len: usize,
    ) -> Self {
        assert!(occupancy > 0.0 && occupancy <= 1.0);
        let slots_needed = (flows as f64 / occupancy).ceil() as u64;
        let buckets = (slots_needed / ENTRIES_PER_BUCKET as u64)
            .max(1)
            .next_power_of_two();
        CuckooTable::create(mem, buckets, key_len)
    }

    /// The table's metadata-line address (what the `RAX` implicit operand
    /// holds when issuing HALO lookup instructions).
    #[must_use]
    pub fn meta_addr(&self) -> Addr {
        self.meta_addr
    }

    /// The table layout.
    #[must_use]
    pub fn meta(&self) -> &TableMeta {
        &self.meta
    }

    /// Address of the optimistic-lock version counter.
    #[must_use]
    pub fn version_addr(&self) -> Addr {
        self.version_addr
    }

    /// Number of installed entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total entry capacity (`buckets * 8`).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.meta.buckets as usize * ENTRIES_PER_BUCKET
    }

    /// Current occupancy in `[0, 1]`.
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        self.len as f64 / self.capacity() as f64
    }

    /// Bytes the table occupies in simulated memory.
    #[must_use]
    pub fn footprint(&self) -> u64 {
        self.meta.footprint()
    }

    /// Number of unclaimed key-value slots (`len + free_slots ==
    /// capacity` is an audited invariant).
    #[must_use]
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Two-phase cuckoo moves currently between `begin` and
    /// `commit`/`abort`; each one leaves a sanctioned duplicate bucket
    /// entry that the auditor accounts for.
    #[must_use]
    pub fn moves_in_flight(&self) -> usize {
        self.moves_in_flight
    }

    fn check_key(&self, key: &FlowKey) {
        assert_eq!(key.len(), self.meta.key_len as usize, "key length mismatch");
    }

    /// Inserts or updates `key -> value`.
    ///
    /// # Errors
    ///
    /// Returns [`TableFullError`] if no cuckoo path to a free slot exists
    /// within the search limit; the table is unchanged in that case.
    pub fn insert(
        &mut self,
        mem: &mut SimMemory,
        key: &FlowKey,
        value: u64,
    ) -> Result<(), TableFullError> {
        self.check_key(key);
        let (b1, b2, sig) = bucket_pair_and_signature(key, self.meta.buckets);

        // Update in place if present.
        for b in [b1, b2] {
            let (sigs, idxs) = self.meta.read_bucket(mem, b);
            for (&s, &idx) in sigs.iter().zip(&idxs) {
                if s == sig && self.meta.read_kv_key(mem, idx) == *key {
                    self.meta.write_kv_value(mem, idx, value);
                    return Ok(());
                }
            }
        }

        // Claim a kv slot and write the key/value.
        let Some(kv_idx) = self.free.pop() else {
            return Err(TableFullError);
        };

        // Direct placement into a free entry of either bucket.
        for b in [b1, b2] {
            for e in 0..ENTRIES_PER_BUCKET {
                let (s, _) = self.meta.read_entry(mem, b, e);
                if s == 0 {
                    self.meta.write_kv(mem, kv_idx, key, value);
                    self.meta.write_entry(mem, b, e, sig, kv_idx);
                    self.bump_version(mem);
                    self.len += 1;
                    return Ok(());
                }
            }
        }

        // Both buckets full: breadth-first search for a displacement path
        // starting from b1's entries (DPDK's approach), so that a failed
        // search leaves the table untouched.
        match self.find_cuckoo_path(mem, b1) {
            Some(path) => {
                self.shift_along_path(mem, &path);
                // The first entry of the path is now free.
                let (b, e) = path[0];
                self.meta.write_kv(mem, kv_idx, key, value);
                self.meta.write_entry(mem, b, e, sig, kv_idx);
                self.bump_version(mem);
                self.len += 1;
                Ok(())
            }
            None => {
                self.free.push(kv_idx);
                Err(TableFullError)
            }
        }
    }

    /// BFS over bucket entries (see [`find_displacement_path`]); first
    /// element of the returned chain is the slot that will be freed for
    /// the new key.
    fn find_cuckoo_path(&self, mem: &mut SimMemory, start: u64) -> Option<Vec<(u64, usize)>> {
        find_displacement_path(&self.meta, mem, start, BFS_LIMIT)
    }

    /// Shifts residents backward along `path`, leaving `path[0]` empty.
    /// `path` is `[(b0,e0), ..., (bk,ek)]` where `(bk,ek)` is free.
    fn shift_along_path(&self, mem: &mut SimMemory, path: &[(u64, usize)]) {
        for w in (1..path.len()).rev() {
            let (dst_b, dst_e) = path[w];
            let (src_b, src_e) = path[w - 1];
            let (s, idx) = self.meta.read_entry(mem, src_b, src_e);
            debug_assert_ne!(s, 0, "shifting an empty entry");
            self.meta.write_entry(mem, dst_b, dst_e, s, idx);
            self.meta.clear_entry(mem, src_b, src_e);
        }
    }

    fn bump_version(&self, mem: &mut SimMemory) {
        // Wrapping: optimistic-lock readers compare for *change*, not
        // order, so rolling over from u64::MAX to 0 is correct (and must
        // not panic in debug builds).
        let v = mem.read_u64(self.version_addr);
        mem.write_u64(self.version_addr, v.wrapping_add(1));
    }

    /// Functional lookup.
    #[must_use]
    pub fn lookup(&self, mem: &SimMemory, key: &FlowKey) -> Option<u64> {
        self.lookup_traced(mem, key, false).result
    }

    /// Lookup that also records the memory/compute steps taken.
    ///
    /// With `software_locking`, the trace includes the optimistic-lock
    /// version reads a software implementation performs (§3.4); the
    /// HALO accelerator path omits them (the lock bit replaces them).
    #[must_use]
    pub fn lookup_traced(
        &self,
        mem: &SimMemory,
        key: &FlowKey,
        software_locking: bool,
    ) -> LookupTrace {
        self.check_key(key);
        let mut steps = Vec::with_capacity(12);
        steps.push(TraceStep::LoadMeta(self.meta_addr));
        if software_locking {
            steps.push(TraceStep::SoftLock(self.version_addr));
        }
        steps.push(TraceStep::Hash);
        let (b1, b2, sig) = bucket_pair_and_signature(key, self.meta.buckets);

        let mut result = None;
        'outer: for b in [b1, b2] {
            steps.push(TraceStep::LoadBucket(self.meta.bucket_addr(b)));
            steps.push(TraceStep::CompareSigs);
            let (sigs, idxs) = self.meta.read_bucket(mem, b);
            for (&s, &idx) in sigs.iter().zip(&idxs) {
                if s == sig {
                    let kv = self.meta.kv_addr(idx);
                    steps.push(TraceStep::LoadKv(kv));
                    if self.meta.kv_slot > 64 {
                        steps.push(TraceStep::LoadKv(kv + 64));
                    }
                    steps.push(TraceStep::CompareKey);
                    if self.meta.read_kv_key(mem, idx) == *key {
                        result = Some(self.meta.read_kv_value(mem, idx));
                        break 'outer;
                    }
                }
            }
        }
        if software_locking {
            // Re-validate the version counter after the read.
            steps.push(TraceStep::SoftLock(self.version_addr));
        }
        LookupTrace { result, steps }
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, mem: &mut SimMemory, key: &FlowKey) -> Option<u64> {
        self.check_key(key);
        let (b1, b2, sig) = bucket_pair_and_signature(key, self.meta.buckets);
        for b in [b1, b2] {
            let (sigs, idxs) = self.meta.read_bucket(mem, b);
            for (e, (&s, &idx)) in sigs.iter().zip(&idxs).enumerate() {
                if s == sig && self.meta.read_kv_key(mem, idx) == *key {
                    let v = self.meta.read_kv_value(mem, idx);
                    self.meta.clear_entry(mem, b, e);
                    self.meta.clear_kv(mem, idx);
                    self.free.push(idx);
                    self.len -= 1;
                    self.bump_version(mem);
                    return Some(v);
                }
            }
        }
        None
    }

    /// Performs one "cuckoo move": relocates `key`'s bucket entry to its
    /// alternative bucket if that bucket has a free entry. Models the
    /// concurrent-writer behaviour of Fig. 7. Returns `true` on success.
    pub fn cuckoo_move(&mut self, mem: &mut SimMemory, key: &FlowKey) -> bool {
        self.check_key(key);
        let (b1, b2, sig) = bucket_pair_and_signature(key, self.meta.buckets);
        for (b, alt) in [(b1, b2), (b2, b1)] {
            for e in 0..ENTRIES_PER_BUCKET {
                let (s, idx) = self.meta.read_entry(mem, b, e);
                if s == sig && self.meta.read_kv_key(mem, idx) == *key {
                    for ae in 0..ENTRIES_PER_BUCKET {
                        let (as_, _) = self.meta.read_entry(mem, alt, ae);
                        if as_ == 0 {
                            self.meta.write_entry(mem, alt, ae, s, idx);
                            self.meta.clear_entry(mem, b, e);
                            self.bump_version(mem);
                            return true;
                        }
                    }
                    return false;
                }
            }
        }
        false
    }

    /// Starts a two-phase cuckoo move: *copies* `key`'s bucket entry to a
    /// free slot of its alternative bucket without clearing the source,
    /// so a preempted mover leaves the key findable through either entry
    /// (both reference the same key-value slot). Returns `None` if the
    /// key is absent or the alternative bucket is full.
    ///
    /// The returned [`PendingMove`] must be passed to
    /// [`cuckoo_move_commit`](Self::cuckoo_move_commit) or
    /// [`cuckoo_move_abort`](Self::cuckoo_move_abort); until then only
    /// lookups may run against the table (the hardware lock bit is what
    /// enforces this exclusion on real HALO).
    pub fn cuckoo_move_begin(&mut self, mem: &mut SimMemory, key: &FlowKey) -> Option<PendingMove> {
        self.check_key(key);
        let (b1, b2, sig) = bucket_pair_and_signature(key, self.meta.buckets);
        for (b, alt) in [(b1, b2), (b2, b1)] {
            for e in 0..ENTRIES_PER_BUCKET {
                let (s, idx) = self.meta.read_entry(mem, b, e);
                if s == sig && self.meta.read_kv_key(mem, idx) == *key {
                    for ae in 0..ENTRIES_PER_BUCKET {
                        let (as_, _) = self.meta.read_entry(mem, alt, ae);
                        if as_ == 0 {
                            self.meta.write_entry(mem, alt, ae, s, idx);
                            self.moves_in_flight += 1;
                            return Some(PendingMove {
                                src: (b, e),
                                dst: (alt, ae),
                            });
                        }
                    }
                    return None;
                }
            }
        }
        None
    }

    /// Completes a two-phase move: clears the source entry, leaving only
    /// the relocated copy.
    pub fn cuckoo_move_commit(&mut self, mem: &mut SimMemory, mv: PendingMove) {
        self.meta.clear_entry(mem, mv.src.0, mv.src.1);
        self.bump_version(mem);
        self.moves_in_flight -= 1;
    }

    /// Rolls a two-phase move back: clears the destination copy, leaving
    /// the entry where it started.
    pub fn cuckoo_move_abort(&mut self, mem: &mut SimMemory, mv: PendingMove) {
        self.meta.clear_entry(mem, mv.dst.0, mv.dst.1);
        self.moves_in_flight -= 1;
    }

    /// All addresses of lines an ideal prefetcher would warm for this
    /// table: metadata, every bucket line, every kv line.
    pub fn all_lines(&self) -> impl Iterator<Item = Addr> + '_ {
        let meta = self.meta_addr;
        let version = self.version_addr;
        let buckets = (0..self.meta.buckets).map(move |b| self.meta.bucket_addr(b));
        let kv_lines = self.meta.buckets * ENTRIES_PER_BUCKET as u64 * u64::from(self.meta.kv_slot)
            / halo_mem::CACHE_LINE;
        let kv = (0..kv_lines).map(move |i| self.meta.kv_base + i * halo_mem::CACHE_LINE);
        [meta, version].into_iter().chain(buckets).chain(kv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(buckets: u64) -> (SimMemory, CuckooTable) {
        let mut mem = SimMemory::new();
        let t = CuckooTable::create(&mut mem, buckets, 13);
        (mem, t)
    }

    #[test]
    fn insert_lookup_remove() {
        let (mut mem, mut t) = setup(64);
        let k = FlowKey::synthetic(5, 13);
        assert_eq!(t.lookup(&mem, &k), None);
        t.insert(&mut mem, &k, 99).unwrap();
        assert_eq!(t.lookup(&mem, &k), Some(99));
        assert_eq!(t.remove(&mut mem, &k), Some(99));
        assert_eq!(t.lookup(&mem, &k), None);
        assert!(t.is_empty());
    }

    #[test]
    fn update_in_place() {
        let (mut mem, mut t) = setup(64);
        let k = FlowKey::synthetic(5, 13);
        t.insert(&mut mem, &k, 1).unwrap();
        t.insert(&mut mem, &k, 2).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(&mem, &k), Some(2));
    }

    #[test]
    fn fills_to_high_occupancy() {
        let (mut mem, mut t) = setup(128); // 1024 slots
        let mut inserted = 0;
        for id in 0..1024u64 {
            if t.insert(&mut mem, &FlowKey::synthetic(id, 13), id).is_ok() {
                inserted += 1;
            } else {
                break;
            }
        }
        // Cuckoo hashing reaches ~95%+ utilization (§3.3 of the paper).
        assert!(
            inserted >= 960,
            "cuckoo should achieve >=93.75% fill, got {inserted}/1024"
        );
        // Everything inserted must still be findable.
        for id in 0..inserted as u64 {
            assert_eq!(
                t.lookup(&mem, &FlowKey::synthetic(id, 13)),
                Some(id),
                "lost key {id}"
            );
        }
    }

    #[test]
    fn failed_insert_preserves_table() {
        let (mut mem, mut t) = setup(2); // 16 slots
        let mut stored = Vec::new();
        for id in 0..64u64 {
            let k = FlowKey::synthetic(id, 13);
            if t.insert(&mut mem, &k, id).is_ok() {
                stored.push((k, id));
            }
        }
        for (k, v) in &stored {
            assert_eq!(t.lookup(&mem, k), Some(*v));
        }
        assert_eq!(t.len(), stored.len());
    }

    #[test]
    fn trace_shape_matches_algorithm() {
        let (mut mem, mut t) = setup(64);
        let k = FlowKey::synthetic(5, 13);
        t.insert(&mut mem, &k, 7).unwrap();
        let tr = t.lookup_traced(&mem, &k, false);
        assert_eq!(tr.result, Some(7));
        assert!(matches!(tr.steps[0], TraceStep::LoadMeta(_)));
        assert!(tr.steps.contains(&TraceStep::Hash));
        let buckets = tr
            .steps
            .iter()
            .filter(|s| matches!(s, TraceStep::LoadBucket(_)))
            .count();
        assert!((1..=2).contains(&buckets));
        assert!(tr.steps.iter().any(|s| matches!(s, TraceStep::LoadKv(_))));
    }

    #[test]
    fn software_locking_adds_version_reads() {
        let (mut mem, mut t) = setup(64);
        let k = FlowKey::synthetic(5, 13);
        t.insert(&mut mem, &k, 7).unwrap();
        let tr = t.lookup_traced(&mem, &k, true);
        let locks = tr
            .steps
            .iter()
            .filter(|s| matches!(s, TraceStep::SoftLock(_)))
            .count();
        assert_eq!(locks, 2);
    }

    #[test]
    fn miss_trace_probes_both_buckets() {
        let (mem, t) = setup(64);
        let tr = t.lookup_traced(&mem, &FlowKey::synthetic(1, 13), false);
        assert_eq!(tr.result, None);
        let buckets = tr
            .steps
            .iter()
            .filter(|s| matches!(s, TraceStep::LoadBucket(_)))
            .count();
        assert_eq!(buckets, 2);
    }

    #[test]
    fn cuckoo_move_relocates_entry() {
        let (mut mem, mut t) = setup(64);
        let k = FlowKey::synthetic(5, 13);
        t.insert(&mut mem, &k, 7).unwrap();
        assert!(t.cuckoo_move(&mut mem, &k));
        // Still findable after relocation.
        assert_eq!(t.lookup(&mem, &k), Some(7));
        // And can be moved back.
        assert!(t.cuckoo_move(&mut mem, &k));
        assert_eq!(t.lookup(&mem, &k), Some(7));
    }

    /// Regression: remove followed by re-insert of the same key must
    /// round-trip `len()`/`occupancy()` exactly — no slot leak through
    /// the free list or the length bookkeeping.
    #[test]
    fn remove_reinsert_round_trips_len_and_occupancy() {
        let (mut mem, mut t) = setup(64);
        for id in 0..100u64 {
            t.insert(&mut mem, &FlowKey::synthetic(id, 13), id).unwrap();
        }
        let (len0, occ0, free0) = (t.len(), t.occupancy(), t.free_slots());
        for _ in 0..3 {
            for id in 0..100u64 {
                let k = FlowKey::synthetic(id, 13);
                assert_eq!(t.remove(&mut mem, &k), Some(id));
                t.insert(&mut mem, &k, id).unwrap();
            }
        }
        assert_eq!(t.len(), len0, "len leaked across remove/re-insert");
        assert_eq!(t.occupancy(), occ0, "occupancy leaked");
        assert_eq!(t.free_slots(), free0, "free list leaked");
        assert_eq!(t.len() + t.free_slots(), t.capacity());
        for id in 0..100u64 {
            assert_eq!(t.lookup(&mem, &FlowKey::synthetic(id, 13)), Some(id));
        }
    }

    /// The optimistic-lock version counter wraps at u64::MAX instead of
    /// panicking (readers compare for change, not order).
    #[test]
    fn version_counter_wraps_at_max() {
        let (mut mem, mut t) = setup(64);
        mem.write_u64(t.version_addr(), u64::MAX);
        t.insert(&mut mem, &FlowKey::synthetic(1, 13), 1).unwrap();
        assert_eq!(mem.read_u64(t.version_addr()), 0, "version must wrap");
        // Writes keep bumping past the wrap.
        t.remove(&mut mem, &FlowKey::synthetic(1, 13)).unwrap();
        assert_eq!(mem.read_u64(t.version_addr()), 1);
    }

    #[test]
    fn two_phase_move_keeps_key_findable_throughout() {
        let (mut mem, mut t) = setup(64);
        let k = FlowKey::synthetic(5, 13);
        t.insert(&mut mem, &k, 7).unwrap();
        let mv = t.cuckoo_move_begin(&mut mem, &k).expect("alt bucket free");
        // Mid-move: duplicate entry pending, key still resolves.
        assert_eq!(t.moves_in_flight(), 1);
        assert_eq!(t.lookup(&mem, &k), Some(7));
        t.cuckoo_move_commit(&mut mem, mv);
        assert_eq!(t.moves_in_flight(), 0);
        assert_eq!(t.lookup(&mem, &k), Some(7));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn two_phase_move_abort_restores_original_placement() {
        let (mut mem, mut t) = setup(64);
        let k = FlowKey::synthetic(5, 13);
        t.insert(&mut mem, &k, 7).unwrap();
        let mv = t.cuckoo_move_begin(&mut mem, &k).expect("alt bucket free");
        t.cuckoo_move_abort(&mut mem, mv);
        assert_eq!(t.moves_in_flight(), 0);
        assert_eq!(t.lookup(&mem, &k), Some(7));
        assert_eq!(t.len(), 1);
        // A full one-shot move still works afterwards.
        assert!(t.cuckoo_move(&mut mem, &k));
        assert_eq!(t.lookup(&mem, &k), Some(7));
    }

    #[test]
    fn with_capacity_sizes_table() {
        let mut mem = SimMemory::new();
        let t = CuckooTable::with_capacity_for(&mut mem, 1000, 0.9, 13);
        assert!(t.capacity() >= 1112);
        assert!(t.capacity() <= 4096, "not absurdly oversized");
    }

    #[test]
    fn version_bumps_on_writes() {
        let (mut mem, mut t) = setup(64);
        let v0 = mem.read_u64(t.version_addr());
        t.insert(&mut mem, &FlowKey::synthetic(1, 13), 1).unwrap();
        let v1 = mem.read_u64(t.version_addr());
        assert!(v1 > v0);
    }

    #[test]
    fn long_keys_supported() {
        let mut mem = SimMemory::new();
        let mut t = CuckooTable::create(&mut mem, 64, 64);
        let k = FlowKey::synthetic(9, 64);
        t.insert(&mut mem, &k, 123).unwrap();
        let tr = t.lookup_traced(&mem, &k, false);
        assert_eq!(tr.result, Some(123));
        // 128-byte kv slots need two kv line loads.
        let kv_loads = tr
            .steps
            .iter()
            .filter(|s| matches!(s, TraceStep::LoadKv(_)))
            .count();
        assert!(kv_loads >= 2);
    }
}
