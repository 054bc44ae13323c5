//! The [`FlowTable`] trait: the common interface every lookup structure
//! in the datapath implements.
//!
//! The classification pipeline (EMC probe, MegaFlow tuple space, the
//! kv-store index) only needs a handful of operations from a table:
//! insert, remove, and a *traced* lookup whose ordered memory/compute
//! steps ([`LookupTrace`]) drive both the software core model and the
//! HALO accelerator. Abstracting those behind one object-safe trait lets
//! `TupleSpace`, `KvStore`, the halo-check oracle, and the benches swap
//! table backends without duplicating dispatch code. There is one impl
//! per table type: [`CuckooTable`] covers both the baseline and
//! Cuckoo++ (Le Scouarnec), whose presence filter is a construction-time
//! property of the same type; [`EmomaTable`] (Pontarelli et al.) and the
//! [`SfhTable`] baseline have their own.

use crate::cuckoo::{CuckooTable, TableFullError};
use crate::emoma::EmomaTable;
use crate::hash::bucket_pair;
use crate::key::FlowKey;
use crate::sfh::SfhTable;
use crate::trace::LookupTrace;
use halo_mem::{Addr, SimMemory};

/// An exact-match flow table living (usually) in simulated memory.
///
/// Object safe: the engine dispatches over `&dyn FlowTable`, and the
/// tuple space / kv-store are generic over `T: FlowTable`.
///
/// Inherent methods of the concrete tables keep their exact historical
/// signatures (e.g. [`SfhTable`]'s two-argument `lookup_traced`); the
/// trait methods below only bind when a caller goes through the
/// abstraction, so adopting the trait is behavior-preserving.
pub trait FlowTable: std::fmt::Debug {
    /// The table's metadata-line address — what the `RAX` implicit
    /// operand holds when issuing HALO lookup instructions. `None` for
    /// tables that do not live in simulated memory (e.g. a TCAM port),
    /// which therefore cannot be targeted by accelerator dispatch.
    fn meta_addr(&self) -> Option<Addr>;

    /// Number of installed entries.
    fn len(&self) -> usize;

    /// Total entry capacity.
    fn capacity(&self) -> usize;

    /// Whether the table holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts or updates `key -> value`.
    ///
    /// # Errors
    ///
    /// Returns [`TableFullError`] when the backend cannot place the key
    /// (no cuckoo path, single-hash bucket full, TCAM at capacity); the
    /// table is unchanged in that case.
    fn insert(
        &mut self,
        mem: &mut SimMemory,
        key: &FlowKey,
        value: u64,
    ) -> Result<(), TableFullError>;

    /// Removes `key`, returning its value if present. Backends without
    /// remove support (see [`supports_remove`](Self::supports_remove))
    /// return `None` and leave the table unchanged.
    fn remove(&mut self, mem: &mut SimMemory, key: &FlowKey) -> Option<u64>;

    /// Whether [`remove`](Self::remove) actually deletes entries. The
    /// SFH baseline models a lookup-only fast path and reports `false`;
    /// generic drivers degrade removes to lookups for such backends.
    fn supports_remove(&self) -> bool {
        true
    }

    /// Functional lookup (no timing side effects beyond the traced
    /// probe's reads of simulated memory).
    fn lookup(&self, mem: &SimMemory, key: &FlowKey) -> Option<u64> {
        self.lookup_traced(mem, key, false).result
    }

    /// Lookup that records the ordered memory/compute steps taken. With
    /// `software_locking`, backends that model optimistic locking add
    /// the version-counter reads a software implementation performs
    /// (§3.4); backends without a software lock ignore the flag.
    fn lookup_traced(&self, mem: &SimMemory, key: &FlowKey, software_locking: bool) -> LookupTrace;

    /// Hints the host bytes a lookup of `key` will read first, so a
    /// caller that knows its next lookups can overlap their host cache
    /// misses. Changes no table or simulated state; backends without a
    /// cheap way to name those bytes keep the no-op default.
    fn prefetch(&self, _mem: &SimMemory, _key: &FlowKey) {}

    /// Addresses an ideal prefetcher would warm for this table. Empty
    /// for tables outside simulated memory.
    fn warm_lines(&self) -> Vec<Addr>;

    /// Address of the optimistic-lock version counter, when the backend
    /// models one (writers bump it; software readers validate it).
    fn version_addr(&self) -> Option<Addr> {
        None
    }
}

impl FlowTable for CuckooTable {
    fn meta_addr(&self) -> Option<Addr> {
        Some(CuckooTable::meta_addr(self))
    }

    fn len(&self) -> usize {
        CuckooTable::len(self)
    }

    fn capacity(&self) -> usize {
        CuckooTable::capacity(self)
    }

    fn insert(
        &mut self,
        mem: &mut SimMemory,
        key: &FlowKey,
        value: u64,
    ) -> Result<(), TableFullError> {
        CuckooTable::insert(self, mem, key, value)
    }

    fn remove(&mut self, mem: &mut SimMemory, key: &FlowKey) -> Option<u64> {
        CuckooTable::remove(self, mem, key)
    }

    fn lookup_traced(&self, mem: &SimMemory, key: &FlowKey, software_locking: bool) -> LookupTrace {
        CuckooTable::lookup_traced(self, mem, key, software_locking)
    }

    /// Hints both candidate buckets of `key`, or only the primary on a
    /// Cuckoo++ table, whose filtered misses read no other line.
    fn prefetch(&self, mem: &SimMemory, key: &FlowKey) {
        let meta = self.meta();
        let (b1, b2) = bucket_pair(key, meta.buckets);
        mem.prefetch(meta.bucket_addr(b1));
        if !self.has_presence_filter() {
            mem.prefetch(meta.bucket_addr(b2));
        }
    }

    fn warm_lines(&self) -> Vec<Addr> {
        self.all_lines().collect()
    }

    fn version_addr(&self) -> Option<Addr> {
        Some(CuckooTable::version_addr(self))
    }
}

impl FlowTable for EmomaTable {
    fn meta_addr(&self) -> Option<Addr> {
        Some(EmomaTable::meta_addr(self))
    }

    fn len(&self) -> usize {
        EmomaTable::len(self)
    }

    fn capacity(&self) -> usize {
        EmomaTable::capacity(self)
    }

    fn insert(
        &mut self,
        mem: &mut SimMemory,
        key: &FlowKey,
        value: u64,
    ) -> Result<(), TableFullError> {
        EmomaTable::insert(self, mem, key, value)
    }

    fn remove(&mut self, mem: &mut SimMemory, key: &FlowKey) -> Option<u64> {
        EmomaTable::remove(self, mem, key)
    }

    fn lookup_traced(&self, mem: &SimMemory, key: &FlowKey, software_locking: bool) -> LookupTrace {
        EmomaTable::lookup_traced(self, mem, key, software_locking)
    }

    fn warm_lines(&self) -> Vec<Addr> {
        self.all_lines().collect()
    }

    fn version_addr(&self) -> Option<Addr> {
        Some(EmomaTable::version_addr(self))
    }
}

impl FlowTable for SfhTable {
    fn meta_addr(&self) -> Option<Addr> {
        Some(SfhTable::meta_addr(self))
    }

    fn len(&self) -> usize {
        SfhTable::len(self)
    }

    fn capacity(&self) -> usize {
        SfhTable::capacity(self)
    }

    fn insert(
        &mut self,
        mem: &mut SimMemory,
        key: &FlowKey,
        value: u64,
    ) -> Result<(), TableFullError> {
        SfhTable::insert(self, mem, key, value).map_err(|_| TableFullError)
    }

    /// The SFH baseline has no remove path; this is a no-op.
    fn remove(&mut self, _mem: &mut SimMemory, _key: &FlowKey) -> Option<u64> {
        None
    }

    fn supports_remove(&self) -> bool {
        false
    }

    /// SFH models no optimistic lock, so `software_locking` is ignored.
    fn lookup_traced(
        &self,
        mem: &SimMemory,
        key: &FlowKey,
        _software_locking: bool,
    ) -> LookupTrace {
        SfhTable::lookup_traced(self, mem, key)
    }

    fn warm_lines(&self) -> Vec<Addr> {
        self.all_lines().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(table: &mut dyn FlowTable, mem: &mut SimMemory) {
        let k = FlowKey::synthetic(3, 13);
        assert_eq!(table.lookup(mem, &k), None);
        table.insert(mem, &k, 42).unwrap();
        assert_eq!(table.lookup(mem, &k), Some(42));
        assert_eq!(table.len(), 1);
        let tr = table.lookup_traced(mem, &k, false);
        assert_eq!(tr.result, Some(42));
        if table.supports_remove() {
            assert_eq!(table.remove(mem, &k), Some(42));
            assert!(table.is_empty());
        } else {
            assert_eq!(table.remove(mem, &k), None);
            assert_eq!(table.lookup(mem, &k), Some(42), "no-op remove");
        }
    }

    #[test]
    fn cuckoo_is_a_flow_table() {
        let mut mem = SimMemory::new();
        let mut t = CuckooTable::create(&mut mem, 64, 13);
        drive(&mut t, &mut mem);
        assert!(FlowTable::meta_addr(&t).is_some());
        assert!(FlowTable::version_addr(&t).is_some());
        assert!(!t.warm_lines().is_empty());
    }

    #[test]
    fn cuckoo_pp_is_a_flow_table() {
        let mut mem = SimMemory::new();
        let mut t = CuckooTable::with_presence_filter(&mut mem, 64, 13);
        drive(&mut t, &mut mem);
        assert!(FlowTable::meta_addr(&t).is_some());
        assert!(FlowTable::version_addr(&t).is_some());
        assert!(!t.warm_lines().is_empty());
    }

    #[test]
    fn emoma_is_a_flow_table() {
        let mut mem = SimMemory::new();
        let mut t = EmomaTable::create(&mut mem, 64, 13);
        drive(&mut t, &mut mem);
        assert!(FlowTable::meta_addr(&t).is_some());
        assert!(FlowTable::version_addr(&t).is_some());
        assert!(!t.warm_lines().is_empty());
    }

    #[test]
    fn sfh_is_a_flow_table() {
        let mut mem = SimMemory::new();
        let mut t = SfhTable::create(&mut mem, 64, 13);
        drive(&mut t, &mut mem);
        assert!(FlowTable::meta_addr(&t).is_some());
        assert!(FlowTable::version_addr(&t).is_none());
    }

    /// The trait's locking flag adds the same version reads the
    /// inherent cuckoo path records.
    #[test]
    fn trait_lookup_traced_preserves_locking_steps() {
        let mut mem = SimMemory::new();
        let mut t = CuckooTable::create(&mut mem, 64, 13);
        let k = FlowKey::synthetic(9, 13);
        t.insert(&mut mem, &k, 1).unwrap();
        let dt: &dyn FlowTable = &t;
        let with = dt.lookup_traced(&mem, &k, true);
        let without = dt.lookup_traced(&mem, &k, false);
        assert_eq!(with.steps.len(), without.steps.len() + 2);
    }
}
