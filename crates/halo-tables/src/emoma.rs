//! EMOMA (Pontarelli, Reviriego, Mitzenmacher: "EMOMA: Exact Match in
//! One Memory Access"): a cuckoo hash table steered by an **on-chip
//! counting Bloom filter** so that every lookup — hit or miss — reads
//! exactly one bucket line from memory.
//!
//! The trick: maintain the invariant that a key stored in its
//! *secondary* bucket is always CBF-positive and a key stored in its
//! *primary* bucket is always CBF-negative. A lookup then queries the
//! filter (small enough to live in SRAM next to the core, so it costs
//! compute but **no** memory access) and probes only the bucket the
//! filter selects. False positives never produce wrong results — they
//! only steer an absent key's probe to its secondary bucket, which
//! misses there just the same.
//!
//! Keeping the invariant is the hard part, and is where the
//! *displacement bookkeeping* lives:
//!
//! * storing a key in its secondary bucket increments its filter
//!   counters; any counter crossing 0→1 can flip other primary-resident
//!   keys to CBF-positive, and those must be **cascade-relocated** to
//!   their secondary buckets (the table tracks primary residents per
//!   counter to find them);
//! * removing a secondary-resident key decrements its counters — never
//!   below zero, because counting (not bit-setting) makes each
//!   resident's contribution explicit;
//! * a failed insert rolls the whole cascade back through an undo log,
//!   so the table is never left mid-displacement.
//!
//! The table embeds the same storage skeleton as
//! [`CuckooTable`](crate::CuckooTable) (same DPDK bucket/kv layout, so
//! HALO's accelerator dispatch works unchanged); only the steering
//! filter and its control-plane shadow state are its own.

use crate::cuckoo::TableFullError;
use crate::hash::{bucket_pair, bucket_pair_and_signature, hash_key};
use crate::key::FlowKey;
use crate::layout::ENTRIES_PER_BUCKET;
use crate::skeleton::{skeleton_accessors, PendingMove, Skeleton};
use crate::trace::{LookupTrace, TraceStep};
use halo_mem::SimMemory;

/// Seeds of the two counting-Bloom-filter hash functions.
const CBF_SEED_A: u64 = 0x5EED_00CB;
const CBF_SEED_B: u64 = 0x5EED_00CC;

/// On-chip filter counters per bucket (the paper sizes the CBF at a few
/// bits per table entry; 32 u16 counters per 8-entry bucket keeps the
/// false-positive — and therefore cascade — rate low).
const CBF_PER_BUCKET: usize = 32;

/// Relocation budget per mutating operation: every cascade step (one
/// key displaced to its secondary bucket) consumes one unit; exhausting
/// the budget fails the insert, which then rolls back cleanly.
const MAX_CASCADE_STEPS: usize = 128;

/// Slot residency values tracked in the control-plane shadow array.
const RES_FREE: u8 = 0;
const RES_PRIMARY: u8 = 1;
const RES_SECONDARY: u8 = 2;

/// One reversible effect of an in-progress insert/displacement, kept in
/// an undo log so a failed cascade restores the exact prior state.
#[derive(Debug, Clone, Copy)]
enum Undo {
    /// A bucket entry was overwritten; holds the previous contents.
    Entry {
        b: u64,
        e: usize,
        sig: u16,
        idx: u32,
    },
    /// A CBF counter was incremented.
    CbfInc { i: usize },
    /// `slot` was appended to `tracked[i]`.
    TrackAdd { i: usize, slot: u32 },
    /// One occurrence of `slot` was removed from `tracked[i]`.
    TrackRemove { i: usize, slot: u32 },
    /// A slot's residency changed; holds the previous value.
    Residency { slot: u32, prev: u8 },
    /// A kv slot was claimed from the free list.
    Claim { slot: u32 },
}

/// A counting-Bloom-filter-steered cuckoo hash table (EMOMA).
///
/// # Examples
///
/// ```
/// use halo_mem::SimMemory;
/// use halo_tables::{EmomaTable, FlowKey, TraceStep};
///
/// let mut mem = SimMemory::new();
/// let mut t = EmomaTable::create(&mut mem, 1024, 13);
/// let k = FlowKey::synthetic(1, 13);
/// t.insert(&mut mem, &k, 0xAB).unwrap();
/// let tr = t.lookup_traced(&mut mem, &k, false);
/// assert_eq!(tr.result, Some(0xAB));
/// // Exactly ONE bucket line is read — the EMOMA property.
/// let loads = tr.steps.iter().filter(|s| matches!(s, TraceStep::LoadBucket(_))).count();
/// assert_eq!(loads, 1);
/// ```
#[derive(Debug)]
pub struct EmomaTable {
    store: Skeleton,
    /// The on-chip counting Bloom filter. Deliberately **not** placed
    /// in simulated memory: the paper's point is that the filter is
    /// small enough for SRAM, so querying it costs no memory access.
    cbf: Vec<u16>,
    /// Control plane: kv slots of *primary*-resident keys, per CBF
    /// counter they hash to — the candidates that must be re-checked
    /// (and possibly cascade-relocated) when that counter crosses 0→1.
    tracked: Vec<Vec<u32>>,
    /// Control plane: residency of each kv slot (free/primary/secondary).
    residency: Vec<u8>,
}

impl EmomaTable {
    /// Creates a table with `buckets` buckets (power of two) for
    /// `key_len`-byte keys. Capacity is `buckets * 8` entries.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is not a power of two or `key_len` is out of
    /// range.
    pub fn create(mem: &mut SimMemory, buckets: u64, key_len: usize) -> Self {
        let store = Skeleton::create(mem, buckets, key_len);
        let slots = (buckets as usize) * ENTRIES_PER_BUCKET;
        let cbf_len = (buckets as usize) * CBF_PER_BUCKET;
        EmomaTable {
            store,
            cbf: vec![0; cbf_len],
            tracked: vec![Vec::new(); cbf_len],
            residency: vec![RES_FREE; slots],
        }
    }

    skeleton_accessors!();

    /// The key's two counting-Bloom-filter counter indices (equal
    /// indices are possible and handled consistently on both the
    /// increment and decrement side).
    #[must_use]
    pub fn cbf_indices(&self, key: &FlowKey) -> [usize; 2] {
        let mask = self.cbf.len() - 1;
        [
            (hash_key(key, CBF_SEED_A) as usize) & mask,
            (hash_key(key, CBF_SEED_B) as usize) & mask,
        ]
    }

    /// Whether the filter steers this key to its secondary bucket
    /// (all of its counters nonzero).
    #[must_use]
    pub fn cbf_positive(&self, key: &FlowKey) -> bool {
        self.cbf_indices(key).iter().all(|&i| self.cbf[i] > 0)
    }

    /// Read-only view of the filter counters (for the invariant
    /// auditor and the displacement-storm tests).
    #[must_use]
    pub fn cbf_counters(&self) -> &[u16] {
        &self.cbf
    }

    /// Residency of kv slot `slot`: 0 free, 1 primary bucket, 2
    /// secondary bucket (audit hook; mirrors what a bucket scan would
    /// derive).
    #[must_use]
    pub fn slot_residency(&self, slot: u32) -> u8 {
        self.residency[slot as usize]
    }

    /// Primary-resident kv slots tracked under CBF counter `i` (audit
    /// hook; each slot appears once per index that maps to `i`).
    #[must_use]
    pub fn tracked_slots(&self, i: usize) -> &[u32] {
        &self.tracked[i]
    }

    /// Bucket the filter steers this key's single probe to, and the
    /// key's signature.
    fn steer(&self, key: &FlowKey) -> (u64, u16) {
        let (b1, b2, sig) = bucket_pair_and_signature(key, self.store.meta.buckets);
        (if self.cbf_positive(key) { b2 } else { b1 }, sig)
    }

    // ---- logged primitive mutations -------------------------------

    fn set_entry(
        &mut self,
        mem: &mut SimMemory,
        b: u64,
        e: usize,
        sig: u16,
        idx: u32,
        ops: &mut Vec<Undo>,
    ) {
        let (ps, pi) = self.store.meta.read_entry(mem, b, e);
        ops.push(Undo::Entry {
            b,
            e,
            sig: ps,
            idx: pi,
        });
        self.store.meta.write_entry(mem, b, e, sig, idx);
    }

    fn clear_entry_logged(&mut self, mem: &mut SimMemory, b: u64, e: usize, ops: &mut Vec<Undo>) {
        let (ps, pi) = self.store.meta.read_entry(mem, b, e);
        ops.push(Undo::Entry {
            b,
            e,
            sig: ps,
            idx: pi,
        });
        self.store.meta.clear_entry(mem, b, e);
    }

    fn set_residency(&mut self, slot: u32, r: u8, ops: &mut Vec<Undo>) {
        ops.push(Undo::Residency {
            slot,
            prev: self.residency[slot as usize],
        });
        self.residency[slot as usize] = r;
    }

    fn track_add(&mut self, key: &FlowKey, slot: u32, ops: &mut Vec<Undo>) {
        for i in self.cbf_indices(key) {
            self.tracked[i].push(slot);
            ops.push(Undo::TrackAdd { i, slot });
        }
    }

    fn track_remove(&mut self, key: &FlowKey, slot: u32, ops: &mut Vec<Undo>) {
        for i in self.cbf_indices(key) {
            let pos = self.tracked[i]
                .iter()
                .rposition(|&s| s == slot)
                .expect("tracked entry present for primary-resident key");
            self.tracked[i].remove(pos);
            ops.push(Undo::TrackRemove { i, slot });
        }
    }

    /// Undoes every op past `mark`, newest first.
    fn rollback_to(&mut self, mem: &mut SimMemory, ops: &mut Vec<Undo>, mark: usize) {
        while ops.len() > mark {
            match ops.pop().expect("ops non-empty above mark") {
                Undo::Entry { b, e, sig, idx } => self.store.meta.write_entry(mem, b, e, sig, idx),
                Undo::CbfInc { i } => {
                    debug_assert!(self.cbf[i] > 0);
                    self.cbf[i] -= 1;
                }
                Undo::TrackAdd { i, slot } => {
                    let pos = self.tracked[i]
                        .iter()
                        .rposition(|&s| s == slot)
                        .expect("undoing a recorded track add");
                    self.tracked[i].remove(pos);
                }
                Undo::TrackRemove { i, slot } => self.tracked[i].push(slot),
                Undo::Residency { slot, prev } => self.residency[slot as usize] = prev,
                Undo::Claim { slot } => {
                    self.store.meta.clear_kv(mem, slot);
                    self.store.free.push(slot);
                }
            }
        }
    }

    // ---- displacement machinery -----------------------------------

    /// Raises the filter for `key` (its displacement into the secondary
    /// bucket), then cascade-relocates every primary-resident key a
    /// 0→1 counter transition flipped to CBF-positive.
    fn cbf_raise(
        &mut self,
        mem: &mut SimMemory,
        key: &FlowKey,
        ops: &mut Vec<Undo>,
        budget: &mut usize,
    ) -> Result<(), TableFullError> {
        let mut newly_hot = Vec::new();
        for i in self.cbf_indices(key) {
            if self.cbf[i] == 0 {
                newly_hot.push(i);
            }
            assert!(self.cbf[i] < u16::MAX, "CBF counter overflow");
            self.cbf[i] += 1;
            ops.push(Undo::CbfInc { i });
        }
        for i in newly_hot {
            // Snapshot: relocations mutate tracked[i] while we scan.
            let candidates: Vec<u32> = self.tracked[i].clone();
            for slot in candidates {
                if self.residency[slot as usize] != RES_PRIMARY {
                    continue; // already cascaded away (or removed twin)
                }
                let k = self.store.meta.read_kv_key(mem, slot);
                if self.cbf_positive(&k) {
                    self.relocate_to_secondary(mem, slot, ops, budget)?;
                }
            }
        }
        Ok(())
    }

    /// Lowers the filter for `key` (it no longer lives in its secondary
    /// bucket). Decrements never need fixups: a counter dropping to
    /// zero can only flip *primary*-resident keys to negative — the
    /// steering they already need — while every secondary-resident
    /// key's counters stay positive through its own contribution.
    fn cbf_lower(&mut self, key: &FlowKey) {
        for i in self.cbf_indices(key) {
            assert!(self.cbf[i] > 0, "CBF counter underflow");
            self.cbf[i] -= 1;
        }
    }

    /// Raw re-increment used when rolling back a tentative
    /// [`cbf_lower`] — restores the exact prior counters, so no 0→1
    /// fixups can be needed.
    fn cbf_raise_raw(&mut self, key: &FlowKey) {
        for i in self.cbf_indices(key) {
            assert!(self.cbf[i] < u16::MAX, "CBF counter overflow");
            self.cbf[i] += 1;
        }
    }

    /// Relocates the primary-resident key in kv `slot` to its secondary
    /// bucket (duplicate-then-delete), raising the filter and cascading
    /// further relocations as needed.
    fn relocate_to_secondary(
        &mut self,
        mem: &mut SimMemory,
        slot: u32,
        ops: &mut Vec<Undo>,
        budget: &mut usize,
    ) -> Result<(), TableFullError> {
        if *budget == 0 {
            return Err(TableFullError);
        }
        *budget -= 1;
        let key = self.store.meta.read_kv_key(mem, slot);
        let (k1, k2) = bucket_pair(&key, self.store.meta.buckets);
        let e1 = (0..ENTRIES_PER_BUCKET)
            .find(|&e| {
                self.store.meta.read_entry(mem, k1, e).1 == slot && {
                    self.store.meta.read_entry(mem, k1, e).0 != 0
                }
            })
            .expect("primary-resident slot has a primary bucket entry");
        self.make_room(mem, k2, ops, budget)?;
        let e2 = self
            .store
            .free_entry(mem, k2)
            .expect("make_room produced a free entry");
        let (sig, _) = self.store.meta.read_entry(mem, k1, e1);
        self.set_entry(mem, k2, e2, sig, slot, ops);
        self.clear_entry_logged(mem, k1, e1, ops);
        self.set_residency(slot, RES_SECONDARY, ops);
        self.track_remove(&key, slot, ops);
        self.cbf_raise(mem, &key, ops, budget)
    }

    /// Ensures bucket `b` has a free entry, relocating one of its
    /// primary-resident keys to its secondary bucket if necessary.
    /// Each candidate attempt is scoped: a failed cascade is rolled
    /// back before the next candidate is tried.
    fn make_room(
        &mut self,
        mem: &mut SimMemory,
        b: u64,
        ops: &mut Vec<Undo>,
        budget: &mut usize,
    ) -> Result<(), TableFullError> {
        if self.store.free_entry(mem, b).is_some() {
            return Ok(());
        }
        for e in 0..ENTRIES_PER_BUCKET {
            let (s, idx) = self.store.meta.read_entry(mem, b, e);
            if s == 0 || self.residency[idx as usize] != RES_PRIMARY {
                continue;
            }
            let mark = ops.len();
            match self.relocate_to_secondary(mem, idx, ops, budget) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    self.rollback_to(mem, ops, mark);
                    if *budget == 0 {
                        return Err(e);
                    }
                }
            }
        }
        Err(TableFullError)
    }

    // ---- public operations ----------------------------------------

    /// Inserts or updates `key -> value`.
    ///
    /// # Errors
    ///
    /// Returns [`TableFullError`] when no placement satisfying the
    /// steering invariant exists within the cascade budget. The insert
    /// itself is rolled back completely; relocations attempted by
    /// nested scopes may persist, but every one of them leaves the
    /// table fully consistent (keys findable, filter exact).
    pub fn insert(
        &mut self,
        mem: &mut SimMemory,
        key: &FlowKey,
        value: u64,
    ) -> Result<(), TableFullError> {
        self.store.check_key(key);
        // Update in place if present: the steering invariant makes the
        // steered bucket the only place the key can live.
        let (b, sig) = self.steer(key);
        if let Some((_, idx)) = self.store.find(mem, b, sig, key) {
            self.store.meta.write_kv_value(mem, idx, value);
            return Ok(());
        }

        let mut ops = Vec::new();
        let mut budget = MAX_CASCADE_STEPS;
        match self.insert_new(mem, key, value, sig, &mut ops, &mut budget) {
            Ok(()) => {
                self.store.len += 1;
                self.store.bump_version(mem);
                Ok(())
            }
            Err(e) => {
                self.rollback_to(mem, &mut ops, 0);
                Err(e)
            }
        }
    }

    fn insert_new(
        &mut self,
        mem: &mut SimMemory,
        key: &FlowKey,
        value: u64,
        sig: u16,
        ops: &mut Vec<Undo>,
        budget: &mut usize,
    ) -> Result<(), TableFullError> {
        let (b1, b2) = bucket_pair(key, self.store.meta.buckets);
        let Some(slot) = self.store.free.pop() else {
            return Err(TableFullError);
        };
        ops.push(Undo::Claim { slot });
        self.store.meta.write_kv(mem, slot, key, value);

        // Preferred placement: the primary bucket, iff the key is
        // CBF-negative (keeping the filter cold keeps future cascades
        // rare). Try to open a primary slot by relocating one of its
        // residents; that can flip our key positive, in which case we
        // fall through to the secondary path.
        if !self.cbf_positive(key) {
            let mark = ops.len();
            let roomed = self.store.free_entry(mem, b1).is_some()
                || self.make_room(mem, b1, ops, budget).is_ok();
            if roomed && !self.cbf_positive(key) {
                let e = self
                    .store
                    .free_entry(mem, b1)
                    .expect("primary bucket has a free entry");
                self.set_entry(mem, b1, e, sig, slot, ops);
                self.set_residency(slot, RES_PRIMARY, ops);
                self.track_add(key, slot, ops);
                return Ok(());
            }
            if !roomed {
                self.rollback_to(mem, ops, mark);
            }
        }

        // Secondary placement: room in b2, then raise the filter (with
        // its cascade of fixups) so the steering finds the key there.
        self.make_room(mem, b2, ops, budget)?;
        let e = self
            .store
            .free_entry(mem, b2)
            .expect("make_room produced a free entry");
        self.set_entry(mem, b2, e, sig, slot, ops);
        self.set_residency(slot, RES_SECONDARY, ops);
        self.cbf_raise(mem, key, ops, budget)
    }

    /// Lookup recording the ordered memory/compute steps taken: one
    /// extra `Hash` compute step for the on-chip filter query, then
    /// exactly **one** bucket scan — the bucket the filter steers to.
    #[must_use]
    pub fn lookup_traced(
        &self,
        mem: &SimMemory,
        key: &FlowKey,
        software_locking: bool,
    ) -> LookupTrace {
        let store = &self.store;
        store.check_key(key);
        let mut steps = Vec::with_capacity(10);
        steps.push(TraceStep::LoadMeta(store.meta_addr));
        if software_locking {
            steps.push(TraceStep::SoftLock(store.version_addr));
        }
        steps.push(TraceStep::Hash);
        // The CBF query: two more hash computations against SRAM-held
        // counters — compute cost, no memory step.
        steps.push(TraceStep::Hash);
        let (b, sig) = self.steer(key);
        let result = store.scan_traced(mem, b, sig, key, &mut steps);
        if software_locking {
            steps.push(TraceStep::SoftLock(store.version_addr));
        }
        LookupTrace { result, steps }
    }

    /// Removes `key`, returning its value if present. A removal from
    /// the secondary bucket decrements the key's filter counters
    /// (asserting they never underflow); a removal from the primary
    /// bucket drops the slot from the cascade-tracking lists.
    pub fn remove(&mut self, mem: &mut SimMemory, key: &FlowKey) -> Option<u64> {
        self.store.check_key(key);
        let (b, sig) = self.steer(key);
        let (e, idx) = self.store.find(mem, b, sig, key)?;
        match self.residency[idx as usize] {
            RES_SECONDARY => self.cbf_lower(key),
            RES_PRIMARY => {
                let mut scratch = Vec::new();
                self.track_remove(key, idx, &mut scratch);
            }
            r => panic!("removing a slot with residency {r}"),
        }
        self.residency[idx as usize] = RES_FREE;
        Some(self.store.release(mem, b, e, idx))
    }

    /// One-shot move of `key` to its other bucket (two-phase `begin` +
    /// `commit`). Returns `true` on success; `false` when the key is
    /// absent, the target bucket is full, or — for a secondary→primary
    /// move — other keys keep its filter counters positive, which would
    /// strand it if it moved home.
    pub fn cuckoo_move(&mut self, mem: &mut SimMemory, key: &FlowKey) -> bool {
        match self.cuckoo_move_begin(mem, key) {
            Some(mv) => {
                self.cuckoo_move_commit(mem, mv);
                true
            }
            None => false,
        }
    }

    /// Starts a two-phase move of `key` to its other bucket, adjusting
    /// the steering filter at `begin` so the steered probe finds the
    /// destination copy throughout the window. Returns `None` when the
    /// move is impossible (absent key, full target bucket, steering
    /// would strand the key, or the fixup cascade failed).
    pub fn cuckoo_move_begin(&mut self, mem: &mut SimMemory, key: &FlowKey) -> Option<PendingMove> {
        self.store.check_key(key);
        let (b1, b2) = bucket_pair(key, self.store.meta.buckets);
        let (b, sig) = self.steer(key);
        let (found, slot) = self.store.find(mem, b, sig, key)?;

        if self.residency[slot as usize] == RES_PRIMARY {
            // primary→secondary: copy out, raise the filter (cascading
            // fixups run inside the begin, scoped so failure undoes
            // everything and refuses the move).
            let ae = self.store.free_entry(mem, b2)?;
            let mut ops = Vec::new();
            let mut budget = MAX_CASCADE_STEPS;
            self.set_entry(mem, b2, ae, sig, slot, &mut ops);
            self.set_residency(slot, RES_SECONDARY, &mut ops);
            self.track_remove(key, slot, &mut ops);
            if self.cbf_raise(mem, key, &mut ops, &mut budget).is_err() {
                self.rollback_to(mem, &mut ops, 0);
                return None;
            }
            self.store.moves_in_flight += 1;
            Some(PendingMove {
                src: (b1, found),
                dst: (b2, ae),
                slot,
                to_secondary: true,
            })
        } else {
            // secondary→primary: only possible if lowering our own
            // contribution turns the filter negative (otherwise the
            // steering would keep reading b2 after the move — the key
            // would be stranded).
            self.cbf_lower(key);
            if self.cbf_positive(key) {
                self.cbf_raise_raw(key);
                return None;
            }
            let Some(ae) = self.store.free_entry(mem, b1) else {
                self.cbf_raise_raw(key);
                return None;
            };
            self.store.meta.write_entry(mem, b1, ae, sig, slot);
            self.residency[slot as usize] = RES_PRIMARY;
            let mut scratch = Vec::new();
            self.track_add(key, slot, &mut scratch);
            self.store.moves_in_flight += 1;
            Some(PendingMove {
                src: (b2, found),
                dst: (b1, ae),
                slot,
                to_secondary: false,
            })
        }
    }

    /// Completes a two-phase move: clears the source entry (the filter
    /// and control-plane state already reflect the destination).
    pub fn cuckoo_move_commit(&mut self, mem: &mut SimMemory, mv: PendingMove) {
        self.store.commit_move(mem, mv);
    }

    /// Rolls a two-phase move back: clears the destination copy and
    /// reverses the steering adjustments. If fixup relocations during a
    /// primary→secondary `begin` left the key's counters positive,
    /// restoring it to the primary bucket would strand it — the abort
    /// then *completes* the move instead (the key stays findable in its
    /// secondary bucket; the table remains fully consistent either
    /// way). Valid only if no inserts/removes ran during the window,
    /// the same exclusion the hardware lock bit provides.
    pub fn cuckoo_move_abort(&mut self, mem: &mut SimMemory, mv: PendingMove) {
        let key = self.store.meta.read_kv_key(mem, mv.slot);
        if mv.to_secondary {
            self.cbf_lower(&key);
            if self.cbf_positive(&key) {
                // Other contributions keep the steering on b2: finish
                // the move rather than strand the key in b1.
                self.cbf_raise_raw(&key);
                self.store.commit_move(mem, mv);
                return;
            }
            self.store.meta.clear_entry(mem, mv.dst.0, mv.dst.1);
            self.residency[mv.slot as usize] = RES_PRIMARY;
            let mut scratch = Vec::new();
            self.track_add(&key, mv.slot, &mut scratch);
        } else {
            self.store.meta.clear_entry(mem, mv.dst.0, mv.dst.1);
            self.residency[mv.slot as usize] = RES_SECONDARY;
            let mut scratch = Vec::new();
            self.track_remove(&key, mv.slot, &mut scratch);
            self.cbf_raise_raw(&key);
        }
        self.store.moves_in_flight -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(buckets: u64) -> (SimMemory, EmomaTable) {
        let mut mem = SimMemory::new();
        let t = EmomaTable::create(&mut mem, buckets, 13);
        (mem, t)
    }

    fn bucket_loads(tr: &LookupTrace) -> usize {
        tr.steps
            .iter()
            .filter(|s| matches!(s, TraceStep::LoadBucket(_)))
            .count()
    }

    /// Recomputes the expected CBF from the table's residency state and
    /// cross-checks every counter (the control-plane ground truth the
    /// halo-check auditor also verifies).
    fn check_filter_exact(t: &EmomaTable, mem: &mut SimMemory) {
        let mut expect = vec![0u16; t.cbf_counters().len()];
        for b in 0..t.meta().buckets {
            for e in 0..ENTRIES_PER_BUCKET {
                let (s, idx) = t.meta().read_entry(mem, b, e);
                if s != 0 && t.slot_residency(idx) == RES_SECONDARY {
                    let k = t.meta().read_kv_key(mem, idx);
                    for i in t.cbf_indices(&k) {
                        expect[i] += 1;
                    }
                }
            }
        }
        assert_eq!(t.cbf_counters(), &expect[..], "CBF diverged from contents");
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
        check_filter_exact(&t, &mut mem);
    }

    /// The headline property: EVERY lookup — hit, miss, displaced key —
    /// loads exactly one bucket line.
    #[test]
    fn every_lookup_is_one_bucket_access() {
        let (mut mem, mut t) = setup(64); // 512 slots
        for id in 0..400u64 {
            t.insert(&mut mem, &FlowKey::synthetic(id, 13), id).unwrap();
        }
        for id in 0..400u64 {
            let tr = t.lookup_traced(&mem, &FlowKey::synthetic(id, 13), false);
            assert_eq!(tr.result, Some(id), "lost key {id}");
            assert_eq!(
                bucket_loads(&tr),
                1,
                "hit took {} probes",
                bucket_loads(&tr)
            );
        }
        for id in 1000..1200u64 {
            let tr = t.lookup_traced(&mem, &FlowKey::synthetic(id, 13), false);
            assert_eq!(tr.result, None);
            assert_eq!(
                bucket_loads(&tr),
                1,
                "miss took {} probes",
                bucket_loads(&tr)
            );
        }
        check_filter_exact(&t, &mut mem);
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
    fn fills_to_reasonable_occupancy() {
        let (mut mem, mut t) = setup(128); // 1024 slots
        let mut stored = Vec::new();
        for id in 0..1024u64 {
            if t.insert(&mut mem, &FlowKey::synthetic(id, 13), id).is_ok() {
                stored.push(id);
            }
        }
        // EMOMA trades some fill capability for single-access lookups
        // (the steering invariant constrains placement); the paper still
        // reaches high occupancy and so must we.
        assert!(stored.len() >= 768, "fill degraded: {}/1024", stored.len());
        for &id in &stored {
            let tr = t.lookup_traced(&mem, &FlowKey::synthetic(id, 13), false);
            assert_eq!(tr.result, Some(id), "lost key {id}");
            assert_eq!(bucket_loads(&tr), 1);
        }
        check_filter_exact(&t, &mut mem);
        assert_eq!(t.len() + t.free_slots(), t.capacity());
    }

    #[test]
    fn failed_insert_rolls_back_cleanly() {
        let (mut mem, mut t) = setup(2); // 16 slots
        let mut stored = Vec::new();
        let mut failures = 0;
        for id in 0..64u64 {
            let k = FlowKey::synthetic(id, 13);
            if t.insert(&mut mem, &k, id).is_ok() {
                stored.push((k, id));
            } else {
                failures += 1;
                assert_eq!(t.lookup(&mem, &k), None, "failed insert left the key");
            }
        }
        assert!(failures > 0, "tiny table never filled");
        for (k, v) in &stored {
            assert_eq!(t.lookup(&mem, k), Some(*v));
        }
        assert_eq!(t.len(), stored.len());
        assert_eq!(t.len() + t.free_slots(), t.capacity());
        check_filter_exact(&t, &mut mem);
    }

    /// Satellite regression: a forced displacement storm — keys shoved
    /// to their secondary buckets and back, interleaved with
    /// remove/re-insert churn — must never underflow a CBF counter
    /// (the decrements assert) nor strand a key unreachable, and the
    /// filter must equal its recomputation from scratch at every step.
    #[test]
    fn move_storm_never_underflows_or_strands() {
        use crate::hash::bucket_pair as bp;
        let buckets = 32;
        let (mut mem, mut t) = setup(buckets); // 256 slots
        let n = 160u64;
        for id in 0..n {
            t.insert(&mut mem, &FlowKey::synthetic(id, 13), id).unwrap();
        }
        let mut displaced = 0u32;
        let mut returned = 0u32;
        for round in 0..6u64 {
            for id in 0..n {
                let k = FlowKey::synthetic(id, 13);
                // Force a displacement in whichever direction is open.
                let (b1, _) = bp(&k, buckets);
                let was_primary = {
                    let tr = t.lookup_traced(&mem, &k, false);
                    match tr
                        .steps
                        .iter()
                        .find(|s| matches!(s, TraceStep::LoadBucket(_)))
                    {
                        Some(TraceStep::LoadBucket(a)) => *a == t.meta().bucket_addr(b1),
                        _ => unreachable!(),
                    }
                };
                if t.cuckoo_move(&mut mem, &k) {
                    if was_primary {
                        displaced += 1;
                    } else {
                        returned += 1;
                    }
                }
                // Churn: every third key also remove/re-inserts.
                if (id + round) % 3 == 0 {
                    assert_eq!(t.remove(&mut mem, &k), Some(id), "strand at {id}");
                    t.insert(&mut mem, &k, id).unwrap();
                }
            }
            // Every key findable in one access, filter exact.
            for id in 0..n {
                let tr = t.lookup_traced(&mem, &FlowKey::synthetic(id, 13), false);
                assert_eq!(tr.result, Some(id), "stranded key {id} round {round}");
                assert_eq!(bucket_loads(&tr), 1);
            }
            check_filter_exact(&t, &mut mem);
        }
        assert!(displaced > 0, "storm never displaced a key");
        assert!(returned > 0, "storm never returned a key home");
        // Drain: decrements all the way down, no underflow.
        for id in 0..n {
            assert_eq!(t.remove(&mut mem, &FlowKey::synthetic(id, 13)), Some(id));
        }
        assert!(
            t.cbf_counters().iter().all(|&c| c == 0),
            "filter not drained"
        );
        assert_eq!(t.len(), 0);
        assert_eq!(t.free_slots(), t.capacity());
    }

    #[test]
    fn two_phase_move_keeps_key_findable_throughout() {
        let (mut mem, mut t) = setup(64);
        let k = FlowKey::synthetic(5, 13);
        t.insert(&mut mem, &k, 7).unwrap();
        let mv = t.cuckoo_move_begin(&mut mem, &k).expect("move possible");
        assert_eq!(t.moves_in_flight(), 1);
        let tr = t.lookup_traced(&mem, &k, false);
        assert_eq!(tr.result, Some(7), "mid-move lookup failed");
        assert_eq!(bucket_loads(&tr), 1, "mid-move lookup not single-access");
        t.cuckoo_move_commit(&mut mem, mv);
        assert_eq!(t.moves_in_flight(), 0);
        assert_eq!(t.lookup(&mem, &k), Some(7));
        check_filter_exact(&t, &mut mem);
    }

    #[test]
    fn two_phase_move_abort_restores_state() {
        let (mut mem, mut t) = setup(64);
        let k = FlowKey::synthetic(5, 13);
        t.insert(&mut mem, &k, 7).unwrap();
        let before: Vec<u16> = t.cbf_counters().to_vec();
        let mv = t.cuckoo_move_begin(&mut mem, &k).expect("move possible");
        assert_eq!(t.lookup(&mem, &k), Some(7));
        t.cuckoo_move_abort(&mut mem, mv);
        assert_eq!(t.moves_in_flight(), 0);
        assert_eq!(t.lookup(&mem, &k), Some(7));
        assert_eq!(t.cbf_counters(), &before[..], "abort did not restore CBF");
        check_filter_exact(&t, &mut mem);
        // Round trip: displace then move home then abort that too.
        assert!(t.cuckoo_move(&mut mem, &k));
        let mv = t
            .cuckoo_move_begin(&mut mem, &k)
            .expect("move home possible");
        t.cuckoo_move_abort(&mut mem, mv);
        assert_eq!(t.lookup(&mem, &k), Some(7));
        check_filter_exact(&t, &mut mem);
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
}
