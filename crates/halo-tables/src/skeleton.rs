//! The storage skeleton every cuckoo-family table shares: the DPDK
//! bucket/kv layout in simulated memory, the optimistic-lock version
//! line, the free-slot list, the entry counters, and the bucket scans
//! the tables build their operations from.
//!
//! [`CuckooTable`](crate::CuckooTable) (with or without its Cuckoo++
//! presence filter) and [`EmomaTable`](crate::EmomaTable) each embed one
//! [`Skeleton`] and add only their filter on top, so both papers' "the
//! cuckoo table plus one filter" is what the code says too.

use crate::key::FlowKey;
use crate::layout::{allocate_table, TableMeta, ENTRIES_PER_BUCKET};
use crate::trace::TraceStep;
use halo_mem::{Addr, SimMemory};

/// A cuckoo relocation caught between its two bucket writes: the entry
/// has been *copied* into the key's other bucket but not yet cleared
/// from the source (the duplicate-then-delete ordering of Fig. 7, which
/// keeps the key findable at every instant). Obtained from a table's
/// `cuckoo_move_begin`; finish with `cuckoo_move_commit` or roll back
/// with `cuckoo_move_abort`.
///
/// While a move is pending only lookups may run against the table —
/// writers must be held off, exactly the exclusion the HALO hardware
/// lock bit provides (§4.4).
#[derive(Debug, Clone, Copy)]
#[must_use = "a pending move must be committed or aborted"]
pub struct PendingMove {
    pub(crate) src: (u64, usize),
    pub(crate) dst: (u64, usize),
    /// The moving key's kv slot.
    pub(crate) slot: u32,
    /// Direction: `true` for primary→secondary.
    pub(crate) to_secondary: bool,
}

/// Layout handle plus control-plane state of one cuckoo-family table.
#[derive(Debug)]
pub(crate) struct Skeleton {
    pub(crate) meta_addr: Addr,
    pub(crate) meta: TableMeta,
    /// Optimistic-lock version counter line (software locking model).
    pub(crate) version_addr: Addr,
    pub(crate) free: Vec<u32>,
    pub(crate) len: usize,
    /// Two-phase moves between `begin` and `commit`/`abort`.
    pub(crate) moves_in_flight: usize,
}

impl Skeleton {
    /// Allocates the layout, then the version line.
    pub(crate) fn create(mem: &mut SimMemory, buckets: u64, key_len: usize) -> Self {
        let (meta_addr, meta) = allocate_table(mem, buckets, key_len);
        let version_addr = mem.alloc_lines(64);
        let slots = (buckets as usize) * ENTRIES_PER_BUCKET;
        // Hand out low indices first: keeps the hot end of the kv array
        // compact, as DPDK's ring does in practice.
        let free = (0..slots as u32).rev().collect();
        Skeleton {
            meta_addr,
            meta,
            version_addr,
            free,
            len: 0,
            moves_in_flight: 0,
        }
    }

    pub(crate) fn check_key(&self, key: &FlowKey) {
        assert_eq!(key.len(), self.meta.key_len as usize, "key length mismatch");
    }

    pub(crate) fn bump_version(&self, mem: &mut SimMemory) {
        // Wrapping: optimistic-lock readers compare for *change*, not
        // order, so rolling over from u64::MAX to 0 is correct (and must
        // not panic in debug builds).
        let v = mem.read_u64(self.version_addr);
        mem.write_u64(self.version_addr, v.wrapping_add(1));
    }

    /// The first empty entry of bucket `b`.
    pub(crate) fn free_entry(&self, mem: &SimMemory, b: u64) -> Option<usize> {
        (0..ENTRIES_PER_BUCKET).find(|&e| self.meta.read_entry(mem, b, e).0 == 0)
    }

    /// The entry of bucket `b` holding `key` (signature `sig`), as
    /// `(entry, kv slot)`.
    pub(crate) fn find(
        &self,
        mem: &SimMemory,
        b: u64,
        sig: u16,
        key: &FlowKey,
    ) -> Option<(usize, u32)> {
        let (sigs, idxs) = self.meta.read_bucket(mem, b);
        (0..ENTRIES_PER_BUCKET)
            .find(|&e| sigs[e] == sig && self.meta.read_kv_key(mem, idxs[e]) == *key)
            .map(|e| (e, idxs[e]))
    }

    /// Probes bucket `b` for `key`, recording the bucket load, the
    /// signature compare, and each candidate's kv load and key compare.
    #[inline]
    pub(crate) fn scan_traced(
        &self,
        mem: &SimMemory,
        b: u64,
        sig: u16,
        key: &FlowKey,
        steps: &mut Vec<TraceStep>,
    ) -> Option<u64> {
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
                    return Some(self.meta.read_kv_value(mem, idx));
                }
            }
        }
        None
    }

    /// Deletes entry `e` of bucket `b` and frees its kv slot `idx`,
    /// returning the value it held.
    pub(crate) fn release(&mut self, mem: &mut SimMemory, b: u64, e: usize, idx: u32) -> u64 {
        let v = self.meta.read_kv_value(mem, idx);
        self.meta.clear_entry(mem, b, e);
        self.meta.clear_kv(mem, idx);
        self.free.push(idx);
        self.len -= 1;
        self.bump_version(mem);
        v
    }

    /// Completes a two-phase move: clears the source entry, leaving only
    /// the relocated copy (the filters already reflect it).
    pub(crate) fn commit_move(&mut self, mem: &mut SimMemory, mv: PendingMove) {
        self.meta.clear_entry(mem, mv.src.0, mv.src.1);
        self.bump_version(mem);
        self.moves_in_flight -= 1;
    }

    /// Metadata, version, every bucket line, every kv line.
    pub(crate) fn all_lines(&self) -> impl Iterator<Item = Addr> + '_ {
        let buckets = (0..self.meta.buckets).map(move |b| self.meta.bucket_addr(b));
        let kv_lines = self.meta.buckets * ENTRIES_PER_BUCKET as u64 * u64::from(self.meta.kv_slot)
            / halo_mem::CACHE_LINE;
        let kv = (0..kv_lines).map(move |i| self.meta.kv_base + i * halo_mem::CACHE_LINE);
        [self.meta_addr, self.version_addr]
            .into_iter()
            .chain(buckets)
            .chain(kv)
    }
}

/// The public accessors of a table that embeds a [`Skeleton`] in a
/// field named `store`, written once for both cuckoo-family tables.
macro_rules! skeleton_accessors {
    () => {
        /// The table's metadata-line address (what the `RAX` implicit
        /// operand holds when issuing HALO lookup instructions).
        #[must_use]
        pub fn meta_addr(&self) -> halo_mem::Addr {
            self.store.meta_addr
        }

        /// The table layout.
        #[must_use]
        pub fn meta(&self) -> &crate::layout::TableMeta {
            &self.store.meta
        }

        /// Address of the optimistic-lock version counter.
        #[must_use]
        pub fn version_addr(&self) -> halo_mem::Addr {
            self.store.version_addr
        }

        /// Number of installed entries.
        #[must_use]
        pub fn len(&self) -> usize {
            self.store.len
        }

        /// Whether the table is empty.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.store.len == 0
        }

        /// Total entry capacity (`buckets * 8`).
        #[must_use]
        pub fn capacity(&self) -> usize {
            self.store.meta.buckets as usize * crate::layout::ENTRIES_PER_BUCKET
        }

        /// Current occupancy in `[0, 1]`.
        #[must_use]
        pub fn occupancy(&self) -> f64 {
            self.store.len as f64 / self.capacity() as f64
        }

        /// Bytes the table occupies in simulated memory.
        #[must_use]
        pub fn footprint(&self) -> u64 {
            self.store.meta.footprint()
        }

        /// Number of unclaimed key-value slots (`len + free_slots ==
        /// capacity` is an audited invariant).
        #[must_use]
        pub fn free_slots(&self) -> usize {
            self.store.free.len()
        }

        /// Two-phase cuckoo moves currently between `begin` and
        /// `commit`/`abort`; each one leaves a sanctioned duplicate
        /// bucket entry that the auditor accounts for.
        #[must_use]
        pub fn moves_in_flight(&self) -> usize {
            self.store.moves_in_flight
        }

        /// All addresses of lines an ideal prefetcher would warm for
        /// this table: metadata, version, every bucket line (filters
        /// included, same lines), every kv line.
        pub fn all_lines(&self) -> impl Iterator<Item = halo_mem::Addr> + '_ {
            self.store.all_lines()
        }

        /// Functional lookup.
        #[must_use]
        pub fn lookup(&self, mem: &halo_mem::SimMemory, key: &crate::key::FlowKey) -> Option<u64> {
            self.lookup_traced(mem, key, false).result
        }
    };
}

pub(crate) use skeleton_accessors;
