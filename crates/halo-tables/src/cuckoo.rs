//! A DPDK-`rte_hash`-style cuckoo hash table over simulated memory,
//! optionally with Cuckoo++ presence filters.
//!
//! Two hash functions map each key to two candidate buckets; inserts may
//! displace residents along a breadth-first cuckoo path (so a failed
//! insert never loses resident keys); lookups probe at most two bucket
//! lines plus the matching key-value slot — the access pattern whose
//! LLC-friendliness motivates HALO (§3.3).
//!
//! A table built with [`CuckooTable::with_presence_filter`] is Cuckoo++
//! (Le Scouarnec): a key is only stored in its secondary bucket when its
//! primary overflowed, so each primary bucket keeps a 16-slot counting
//! filter of the keys it has *displaced*, in the 16 bytes of its line
//! the DPDK layout leaves unused. A lookup that misses in the primary
//! bucket consults the filter — same cache line, so a compute step and
//! no memory step — and probes the secondary bucket only when the
//! key's slot is nonzero, so most negative lookups load one bucket line.
//! The filter counts (rather than sets bits) so removals and
//! displacements stay exact: every transition of a key between its
//! primary and secondary bucket adjusts the counter under its primary
//! bucket, including mid-path BFS shifts and the two-phase move
//! protocol (adjust at `begin`, reverse on `abort`, nothing at `commit`
//! — safe because a pending move keeps a copy in the bucket the lookup
//! probes first). A table without the filter takes none of these steps.

use crate::hash::{bucket_pair, bucket_pair_and_signature, hash_key, SEED_PRIMARY};
use crate::key::FlowKey;
use crate::layout::buckets_for;
use crate::path::find_displacement_path;
use crate::skeleton::{skeleton_accessors, PendingMove, Skeleton};
use crate::trace::{LookupTrace, TraceStep};
use halo_mem::SimMemory;
use std::fmt;

/// Maximum breadth-first nodes explored when hunting a cuckoo path.
const BFS_LIMIT: usize = 4096;

/// Byte offset of the presence filter inside a bucket line: the DPDK
/// layout uses bytes `0..16` for signatures and `16..48` for kv
/// indices, leaving `48..64` free.
pub const FILTER_OFF: u64 = 48;

/// Counting slots per bucket filter (one byte each).
pub const FILTER_SLOTS: usize = 16;

/// Error returned when an insert cannot find a cuckoo path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableFullError;

impl fmt::Display for TableFullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no cuckoo path to a free slot")
    }
}

impl std::error::Error for TableFullError {}

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
/// use halo_tables::{CuckooTable, FlowKey, TraceStep};
///
/// let mut mem = SimMemory::new();
/// let mut t = CuckooTable::create(&mut mem, 1024, 13);
/// let k = FlowKey::synthetic(1, 13);
/// t.insert(&mut mem, &k, 0xAB).unwrap();
/// assert_eq!(t.lookup(&mut mem, &k), Some(0xAB));
///
/// // With Cuckoo++ presence filters, a negative lookup in an
/// // empty-filter bucket loads ONE bucket line.
/// let mut pp = CuckooTable::with_presence_filter(&mut mem, 1024, 13);
/// pp.insert(&mut mem, &k, 0xAB).unwrap();
/// let miss = pp.lookup_traced(&mut mem, &FlowKey::synthetic(2, 13), false);
/// let loads = miss.steps.iter().filter(|s| matches!(s, TraceStep::LoadBucket(_))).count();
/// assert_eq!(loads, 1);
/// ```
#[derive(Debug)]
pub struct CuckooTable {
    store: Skeleton,
    /// Whether each bucket line carries a Cuckoo++ presence filter.
    presence_filter: bool,
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
        CuckooTable {
            store: Skeleton::create(mem, buckets, key_len),
            presence_filter: false,
        }
    }

    /// Creates a Cuckoo++ table: the same layout and allocations as
    /// [`create`](Self::create), plus a presence filter in each bucket
    /// line.
    ///
    /// # Panics
    ///
    /// As for [`create`](Self::create).
    pub fn with_presence_filter(mem: &mut SimMemory, buckets: u64, key_len: usize) -> Self {
        CuckooTable {
            store: Skeleton::create(mem, buckets, key_len),
            presence_filter: true,
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
        CuckooTable::create(mem, buckets_for(flows, occupancy), key_len)
    }

    skeleton_accessors!();

    /// Whether bucket lines carry Cuckoo++ presence filters.
    #[must_use]
    pub fn has_presence_filter(&self) -> bool {
        self.presence_filter
    }

    /// Filter slot a key hashes to within its primary bucket's filter
    /// (bits 32..36 of the primary hash: independent of the bucket
    /// index bits and of the signature bits).
    #[must_use]
    pub fn filter_index(key: &FlowKey) -> usize {
        ((hash_key(key, SEED_PRIMARY) >> 32) & 0xF) as usize
    }

    /// Reads filter slot `fi` of bucket `b` — the number of keys with
    /// primary bucket `b` and filter index `fi` currently stored in
    /// their secondary bucket (exposed for the invariant auditor).
    #[must_use]
    pub fn filter_count(&self, mem: &SimMemory, b: u64, fi: usize) -> u8 {
        debug_assert!(fi < FILTER_SLOTS);
        mem.read_u8(self.store.meta.bucket_addr(b) + FILTER_OFF + fi as u64)
    }

    /// Counts (`delta` 1) or uncounts (`-1`) `key`, whose primary
    /// bucket is `b1`, as stored in its secondary bucket.
    fn filter_adjust(&self, mem: &mut SimMemory, key: &FlowKey, b1: u64, delta: i8) {
        let a = self.store.meta.bucket_addr(b1) + FILTER_OFF + Self::filter_index(key) as u64;
        let c = mem.read_u8(a);
        let next = if delta > 0 {
            assert!(c < u8::MAX, "presence filter counter overflow");
            c + 1
        } else {
            assert!(c > 0, "presence filter counter underflow");
            c - 1
        };
        mem.write_u8(a, next);
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
        self.store.check_key(key);
        let (b1, b2, sig) = bucket_pair_and_signature(key, self.store.meta.buckets);

        // Update in place if present.
        for b in [b1, b2] {
            if let Some((_, idx)) = self.store.find(mem, b, sig, key) {
                self.store.meta.write_kv_value(mem, idx, value);
                return Ok(());
            }
        }

        // Claim a kv slot and write the key/value.
        let Some(kv_idx) = self.store.free.pop() else {
            return Err(TableFullError);
        };

        // Direct placement into a free entry of either bucket: primary
        // first (keeps a presence filter cold), secondary second
        // (registers the displacement in the filter). Otherwise a
        // breadth-first search for a displacement path starting from
        // b1's entries (DPDK's approach), so that a failed search leaves
        // the table untouched and the new key lands in its primary bucket.
        let direct = [b1, b2]
            .into_iter()
            .find_map(|b| self.store.free_entry(mem, b).map(|e| (b, e)));
        let (b, e) = if let Some((b, e)) = direct {
            if b == b2 && self.presence_filter {
                self.filter_adjust(mem, key, b1, 1);
            }
            (b, e)
        } else if let Some(path) = find_displacement_path(&self.store.meta, mem, b1, BFS_LIMIT) {
            self.shift_along_path(mem, &path);
            // The first entry of the path is now free; the new key needs
            // no filter adjustment because it lands in its primary.
            let (b, e) = path[0];
            debug_assert_eq!(b, b1, "BFS roots at the primary bucket");
            (b, e)
        } else {
            self.store.free.push(kv_idx);
            return Err(TableFullError);
        };
        self.store.meta.write_kv(mem, kv_idx, key, value);
        self.store.meta.write_entry(mem, b, e, sig, kv_idx);
        self.store.bump_version(mem);
        self.store.len += 1;
        Ok(())
    }

    /// Shifts residents backward along `path`, leaving `path[0]` empty.
    /// `path` is `[(b0,e0), ..., (bk,ek)]` where `(bk,ek)` is free. With
    /// a presence filter, a shift into a resident's secondary bucket
    /// registers the displacement and a shift back home clears it.
    fn shift_along_path(&self, mem: &mut SimMemory, path: &[(u64, usize)]) {
        let meta = &self.store.meta;
        for w in (1..path.len()).rev() {
            let (dst_b, dst_e) = path[w];
            let (src_b, src_e) = path[w - 1];
            let (s, idx) = meta.read_entry(mem, src_b, src_e);
            debug_assert_ne!(s, 0, "shifting an empty entry");
            meta.write_entry(mem, dst_b, dst_e, s, idx);
            meta.clear_entry(mem, src_b, src_e);
            if self.presence_filter {
                let resident = meta.read_kv_key(mem, idx);
                let (r1, _) = bucket_pair(&resident, meta.buckets);
                let delta = if dst_b == r1 { -1 } else { 1 };
                self.filter_adjust(mem, &resident, r1, delta);
            }
        }
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
        let store = &self.store;
        store.check_key(key);
        let mut steps = Vec::with_capacity(12);
        steps.push(TraceStep::LoadMeta(store.meta_addr));
        if software_locking {
            steps.push(TraceStep::SoftLock(store.version_addr));
        }
        steps.push(TraceStep::Hash);
        let (b1, b2, sig) = bucket_pair_and_signature(key, store.meta.buckets);

        // One scan in a loop keeps the unfiltered lookup as tight as the
        // plain table's: a Cuckoo++ table adds one predictable branch.
        // The filter is consulted after the first probe only, by loop
        // position, so a one-bucket table (b1 == b2) checks it once.
        let mut result = None;
        for (i, b) in [b1, b2].into_iter().enumerate() {
            result = store.scan_traced(mem, b, sig, key, &mut steps);
            if result.is_some()
                || (self.presence_filter
                    && i == 0
                    && !self.filter_admits_secondary(mem, key, b1, &mut steps))
            {
                break;
            }
        }
        if software_locking {
            // Re-validate the version counter after the read.
            steps.push(TraceStep::SoftLock(store.version_addr));
        }
        LookupTrace { result, steps }
    }

    /// Cuckoo++'s check after a miss in primary bucket `b1`: one
    /// compute step (the filter shares `b1`'s line, so no memory step),
    /// then whether the key's filter slot counts a displaced key. Cold
    /// and out of line, so it adds no code to the unfiltered lookup.
    #[cold]
    #[inline(never)]
    fn filter_admits_secondary(
        &self,
        mem: &SimMemory,
        key: &FlowKey,
        b1: u64,
        steps: &mut Vec<TraceStep>,
    ) -> bool {
        steps.push(TraceStep::CompareSigs);
        self.filter_count(mem, b1, Self::filter_index(key)) > 0
    }

    /// Removes `key`, returning its value if present. With a presence
    /// filter, a removal from the secondary bucket decrements the
    /// primary bucket's filter slot so later negative lookups return to
    /// a single probe.
    pub fn remove(&mut self, mem: &mut SimMemory, key: &FlowKey) -> Option<u64> {
        self.store.check_key(key);
        let (b1, b2, sig) = bucket_pair_and_signature(key, self.store.meta.buckets);
        for b in [b1, b2] {
            if let Some((e, idx)) = self.store.find(mem, b, sig, key) {
                if b == b2 && self.presence_filter {
                    self.filter_adjust(mem, key, b1, -1);
                }
                return Some(self.store.release(mem, b, e, idx));
            }
        }
        None
    }

    /// Performs one "cuckoo move": relocates `key`'s bucket entry to its
    /// alternative bucket if that bucket has a free entry (a two-phase
    /// move begun and committed at once). Models the concurrent-writer
    /// behaviour of Fig. 7. Returns `true` on success.
    pub fn cuckoo_move(&mut self, mem: &mut SimMemory, key: &FlowKey) -> bool {
        match self.cuckoo_move_begin(mem, key) {
            Some(mv) => {
                self.cuckoo_move_commit(mem, mv);
                true
            }
            None => false,
        }
    }

    /// Starts a two-phase cuckoo move: *copies* `key`'s bucket entry to a
    /// free slot of its alternative bucket without clearing the source,
    /// so a preempted mover leaves the key findable through either entry
    /// (both reference the same key-value slot). Returns `None` if the
    /// key is absent or the alternative bucket is full.
    ///
    /// A presence filter is adjusted here, at `begin` — safe in both
    /// directions because a lookup always probes the primary bucket
    /// before consulting the filter, and each window keeps a copy in
    /// the primary bucket (the source of a primary→secondary move, the
    /// destination of a secondary→primary one).
    ///
    /// The returned [`PendingMove`] must be passed to
    /// [`cuckoo_move_commit`](Self::cuckoo_move_commit) or
    /// [`cuckoo_move_abort`](Self::cuckoo_move_abort); until then only
    /// lookups may run against the table (the hardware lock bit is what
    /// enforces this exclusion on real HALO).
    pub fn cuckoo_move_begin(&mut self, mem: &mut SimMemory, key: &FlowKey) -> Option<PendingMove> {
        self.store.check_key(key);
        let (b1, b2, sig) = bucket_pair_and_signature(key, self.store.meta.buckets);
        for (b, alt) in [(b1, b2), (b2, b1)] {
            if let Some((e, idx)) = self.store.find(mem, b, sig, key) {
                let ae = self.store.free_entry(mem, alt)?;
                self.store.meta.write_entry(mem, alt, ae, sig, idx);
                let to_secondary = b == b1;
                if self.presence_filter {
                    self.filter_adjust(mem, key, b1, if to_secondary { 1 } else { -1 });
                }
                self.store.moves_in_flight += 1;
                return Some(PendingMove {
                    src: (b, e),
                    dst: (alt, ae),
                    slot: idx,
                    to_secondary,
                });
            }
        }
        None
    }

    /// Completes a two-phase move: clears the source entry, leaving only
    /// the relocated copy. A presence filter already reflects it.
    pub fn cuckoo_move_commit(&mut self, mem: &mut SimMemory, mv: PendingMove) {
        self.store.commit_move(mem, mv);
    }

    /// Rolls a two-phase move back: clears the destination copy, leaving
    /// the entry where it started, and reverses a presence filter's
    /// adjustment from `begin`.
    pub fn cuckoo_move_abort(&mut self, mem: &mut SimMemory, mv: PendingMove) {
        self.store.meta.clear_entry(mem, mv.dst.0, mv.dst.1);
        if self.presence_filter {
            let key = self.store.meta.read_kv_key(mem, mv.slot);
            let (b1, delta) = if mv.to_secondary {
                (mv.src.0, -1)
            } else {
                (mv.dst.0, 1)
            };
            self.filter_adjust(mem, &key, b1, delta);
        }
        self.store.moves_in_flight -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::layout::ENTRIES_PER_BUCKET;

    fn setup(buckets: u64) -> (SimMemory, CuckooTable) {
        let mut mem = SimMemory::new();
        let t = CuckooTable::create(&mut mem, buckets, 13);
        (mem, t)
    }

    fn setup_pp(buckets: u64) -> (SimMemory, CuckooTable) {
        let mut mem = SimMemory::new();
        let t = CuckooTable::with_presence_filter(&mut mem, buckets, 13);
        (mem, t)
    }

    /// Runs on both the plain and the filtered table: the filtered one
    /// also takes the filter check on the misses.
    #[test]
    fn insert_lookup_remove() {
        for (mut mem, mut t) in [setup(64), setup_pp(64)] {
            let k = FlowKey::synthetic(5, 13);
            assert_eq!(t.lookup(&mem, &k), None);
            t.insert(&mut mem, &k, 99).unwrap();
            assert_eq!(t.lookup(&mem, &k), Some(99));
            assert_eq!(t.remove(&mut mem, &k), Some(99));
            assert_eq!(t.lookup(&mem, &k), None);
            assert!(t.is_empty());
        }
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
        for (mut mem, mut t) in [setup(64), setup_pp(64)] {
            let k = FlowKey::synthetic(5, 13);
            t.insert(&mut mem, &k, 7).unwrap();
            for probe in [k, FlowKey::synthetic(6, 13)] {
                let tr = t.lookup_traced(&mem, &probe, true);
                let locks = tr
                    .steps
                    .iter()
                    .filter(|s| matches!(s, TraceStep::SoftLock(_)))
                    .count();
                assert_eq!(locks, 2);
            }
        }
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

    fn bucket_loads(tr: &LookupTrace) -> usize {
        tr.steps
            .iter()
            .filter(|s| matches!(s, TraceStep::LoadBucket(_)))
            .count()
    }

    /// Synthetic keys whose primary bucket equals `b` under `buckets`.
    fn keys_with_primary(b: u64, buckets: u64, n: usize) -> Vec<FlowKey> {
        let mut out = Vec::new();
        let mut id = 0u64;
        while out.len() < n {
            let k = FlowKey::synthetic(id, 13);
            if bucket_pair(&k, buckets).0 == b {
                out.push(k);
            }
            id += 1;
            assert!(id < 1_000_000, "key search diverged");
        }
        out
    }

    /// The headline property: a negative lookup against an untouched
    /// filter slot loads exactly one bucket line (the baseline always
    /// loads two on a miss).
    #[test]
    fn negative_lookup_is_single_probe() {
        let (mut mem, mut t) = setup_pp(64);
        for id in 0..100u64 {
            t.insert(&mut mem, &FlowKey::synthetic(id, 13), id).unwrap();
        }
        // At 100/512 fill no bucket overflows, so every filter is empty
        // and every miss is a single probe.
        for id in 1000..1100u64 {
            let tr = t.lookup_traced(&mem, &FlowKey::synthetic(id, 13), false);
            assert_eq!(tr.result, None);
            assert_eq!(bucket_loads(&tr), 1, "miss probed the secondary bucket");
        }
    }

    /// A key stored in its secondary bucket stays findable (the filter
    /// steers the lookup to the second probe).
    #[test]
    fn secondary_resident_key_found_through_filter() {
        let buckets = 64;
        let (mut mem, mut t) = setup_pp(buckets);
        let keys = keys_with_primary(7, buckets, ENTRIES_PER_BUCKET + 1);
        for (i, k) in keys.iter().enumerate() {
            t.insert(&mut mem, k, i as u64).unwrap();
        }
        // Bucket 7 overflowed: at least one of the keys took a second
        // probe, and all remain findable.
        let mut second_probes = 0;
        for (i, k) in keys.iter().enumerate() {
            let tr = t.lookup_traced(&mem, k, false);
            assert_eq!(tr.result, Some(i as u64), "lost key {i}");
            if bucket_loads(&tr) == 2 {
                second_probes += 1;
            }
        }
        assert!(second_probes >= 1, "no key was displaced to secondary");
    }

    /// Satellite regression: removing a displaced key must clear its
    /// presence-filter slot, so negative lookups hashing to that slot
    /// return to a single probe.
    #[test]
    fn remove_clears_filter_for_negative_lookups() {
        let buckets = 64;
        let (mut mem, mut t) = setup_pp(buckets);
        let keys = keys_with_primary(7, buckets, ENTRIES_PER_BUCKET + 4);
        let (fillers, displaced) = keys.split_at(ENTRIES_PER_BUCKET);
        for k in fillers {
            t.insert(&mut mem, k, 1).unwrap();
        }
        for k in displaced {
            t.insert(&mut mem, k, 2).unwrap();
        }
        // Each displaced key's own (absent-twin) filter slot is hot:
        // removing the key must cool it again.
        for k in displaced {
            let fi = CuckooTable::filter_index(k);
            assert!(t.filter_count(&mem, 7, fi) > 0, "filter never set");
            assert_eq!(t.remove(&mut mem, k), Some(2));
        }
        for fi in 0..FILTER_SLOTS {
            assert_eq!(
                t.filter_count(&mem, 7, fi),
                0,
                "filter slot {fi} left hot after removes"
            );
        }
        // And a re-insert round trip keeps the filter exact.
        for k in displaced {
            t.insert(&mut mem, k, 3).unwrap();
            assert_eq!(t.remove(&mut mem, k), Some(3));
        }
        for k in displaced {
            let tr = t.lookup_traced(&mem, k, false);
            assert_eq!(tr.result, None);
            assert_eq!(bucket_loads(&tr), 1, "negative lookup stayed double-probe");
        }
    }

    /// BFS displacement paths (inserts into full bucket pairs) keep the
    /// filter exact: everything stays findable and fully removing the
    /// table empties every filter slot.
    #[test]
    fn filtered_fills_to_high_occupancy_with_exact_filters() {
        let (mut mem, mut t) = setup_pp(128); // 1024 slots
        let mut stored = Vec::new();
        for id in 0..1024u64 {
            if t.insert(&mut mem, &FlowKey::synthetic(id, 13), id).is_ok() {
                stored.push(id);
            } else {
                break;
            }
        }
        assert!(stored.len() >= 960, "fill degraded: {}/1024", stored.len());
        for &id in &stored {
            assert_eq!(
                t.lookup(&mem, &FlowKey::synthetic(id, 13)),
                Some(id),
                "lost key {id}"
            );
        }
        for &id in &stored {
            assert_eq!(t.remove(&mut mem, &FlowKey::synthetic(id, 13)), Some(id));
        }
        for b in 0..128u64 {
            for fi in 0..FILTER_SLOTS {
                assert_eq!(
                    t.filter_count(&mem, b, fi),
                    0,
                    "bucket {b} slot {fi} hot after draining the table"
                );
            }
        }
    }

    #[test]
    fn filtered_two_phase_move_keeps_key_findable_throughout() {
        let (mut mem, mut t) = setup_pp(64);
        let k = FlowKey::synthetic(5, 13);
        t.insert(&mut mem, &k, 7).unwrap();
        let mv = t.cuckoo_move_begin(&mut mem, &k).expect("alt bucket free");
        assert_eq!(t.moves_in_flight(), 1);
        assert_eq!(t.lookup(&mem, &k), Some(7));
        t.cuckoo_move_commit(&mut mem, mv);
        assert_eq!(t.moves_in_flight(), 0);
        assert_eq!(t.lookup(&mem, &k), Some(7));
        // The key now sits in its secondary bucket; the filter steers.
        let tr = t.lookup_traced(&mem, &k, false);
        assert_eq!(bucket_loads(&tr), 2);
        // Move back home: the filter must cool again.
        assert!(t.cuckoo_move(&mut mem, &k));
        let (b1, _) = bucket_pair(&k, 64);
        assert_eq!(t.filter_count(&mem, b1, CuckooTable::filter_index(&k)), 0);
    }

    #[test]
    fn filtered_two_phase_move_abort_restores_filter() {
        let (mut mem, mut t) = setup_pp(64);
        let k = FlowKey::synthetic(5, 13);
        let (b1, _) = bucket_pair(&k, 64);
        let fi = CuckooTable::filter_index(&k);
        t.insert(&mut mem, &k, 7).unwrap();
        // Abort a primary->secondary move: filter returns to 0.
        let mv = t.cuckoo_move_begin(&mut mem, &k).expect("alt bucket free");
        assert_eq!(t.filter_count(&mem, b1, fi), 1, "begin must register");
        assert_eq!(t.lookup(&mem, &k), Some(7), "findable mid-move");
        t.cuckoo_move_abort(&mut mem, mv);
        assert_eq!(t.filter_count(&mem, b1, fi), 0, "abort must reverse");
        assert_eq!(t.lookup(&mem, &k), Some(7));
        // Abort a secondary->primary move: filter returns to 1.
        assert!(t.cuckoo_move(&mut mem, &k)); // now in secondary
        let mv = t.cuckoo_move_begin(&mut mem, &k).expect("home bucket free");
        assert_eq!(t.filter_count(&mem, b1, fi), 0, "begin must deregister");
        assert_eq!(t.lookup(&mem, &k), Some(7), "findable mid-move");
        t.cuckoo_move_abort(&mut mem, mv);
        assert_eq!(t.filter_count(&mem, b1, fi), 1, "abort must re-register");
        assert_eq!(t.lookup(&mem, &k), Some(7));
        assert_eq!(t.moves_in_flight(), 0);
    }

    /// A filtered miss consults the filter once, after the first probe,
    /// also on a one-bucket table where both probes load the same line.
    #[test]
    fn filtered_miss_checks_filter_once_on_one_bucket_table() {
        let (mut mem, mut t) = setup_pp(1);
        let k = FlowKey::synthetic(5, 13);
        t.insert(&mut mem, &k, 7).unwrap();
        let fi = CuckooTable::filter_index(&k);
        let miss = (6..)
            .map(|id| FlowKey::synthetic(id, 13))
            .find(|m| CuckooTable::filter_index(m) == fi)
            .unwrap();
        assert!(t.filter_count(&mem, 0, fi) > 0, "b1 == b2 counts the key");
        let tr = t.lookup_traced(&mem, &miss, false);
        assert_eq!(tr.result, None);
        assert_eq!(bucket_loads(&tr), 2);
        let compares = tr
            .steps
            .iter()
            .filter(|s| matches!(s, TraceStep::CompareSigs))
            .count();
        assert_eq!(compares, 3, "one compare per probe plus one filter check");
    }

    #[test]
    fn filtered_update_in_place_leaves_filter_untouched() {
        let (mut mem, mut t) = setup_pp(64);
        let k = FlowKey::synthetic(5, 13);
        t.insert(&mut mem, &k, 1).unwrap();
        t.insert(&mut mem, &k, 2).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(&mem, &k), Some(2));
        let (b1, _) = bucket_pair(&k, 64);
        assert_eq!(t.filter_count(&mem, b1, CuckooTable::filter_index(&k)), 0);
    }
}
