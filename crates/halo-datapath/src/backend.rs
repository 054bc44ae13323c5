//! Exact-match table backend selection: one enum to name the available
//! implementations and one dispatch table ([`ExactTable`]) so datapaths
//! can be configured with a backend at runtime without becoming generic
//! over it.
//!
//! The three backends model three points in the lookup
//! memory-access-pattern design space:
//!
//! * [`TableBackend::Cuckoo`] — the DPDK `rte_hash` baseline: negative
//!   lookups probe both candidate buckets.
//! * [`TableBackend::CuckooPlusPlus`] — per-bucket presence filters
//!   (Le Scouarnec's Cuckoo++) kill the secondary probe on negatives.
//! * [`TableBackend::Emoma`] — an on-chip counting Bloom filter
//!   (EMOMA) steers every lookup, hit or miss, to a single bucket.

use halo_mem::{Addr, SimMemory};
use halo_tables::{
    CuckooPlusPlusTable, CuckooTable, EmomaTable, FlowKey, FlowTable, LookupTrace, TableFullError,
};

/// Which exact-match table implementation backs a flow table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TableBackend {
    /// DPDK-style cuckoo hashing (the baseline everywhere).
    #[default]
    Cuckoo,
    /// Cuckoo++ per-bucket presence filters.
    CuckooPlusPlus,
    /// EMOMA counting-Bloom-filter steering.
    Emoma,
}

impl TableBackend {
    /// Every selectable backend, in ablation order.
    #[must_use]
    pub fn all() -> [TableBackend; 3] {
        [
            TableBackend::Cuckoo,
            TableBackend::CuckooPlusPlus,
            TableBackend::Emoma,
        ]
    }

    /// Stable display name (used in figure rows and JSON).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TableBackend::Cuckoo => "cuckoo",
            TableBackend::CuckooPlusPlus => "cuckoo++",
            TableBackend::Emoma => "emoma",
        }
    }

    /// Builds a table of this backend sized for `flows` entries at
    /// `occupancy`, with the same sizing arithmetic for every variant
    /// (so ablations compare equal-capacity tables).
    ///
    /// # Panics
    ///
    /// Panics if `occupancy` is not in `(0, 1]` or `key_len` is out of
    /// range.
    #[must_use]
    pub fn build(
        self,
        mem: &mut SimMemory,
        flows: usize,
        occupancy: f64,
        key_len: usize,
    ) -> ExactTable {
        match self {
            TableBackend::Cuckoo => ExactTable::Cuckoo(CuckooTable::with_capacity_for(
                mem, flows, occupancy, key_len,
            )),
            TableBackend::CuckooPlusPlus => ExactTable::CuckooPlusPlus(
                CuckooPlusPlusTable::with_capacity_for(mem, flows, occupancy, key_len),
            ),
            TableBackend::Emoma => ExactTable::Emoma(EmomaTable::with_capacity_for(
                mem, flows, occupancy, key_len,
            )),
        }
    }
}

/// A runtime-selected exact-match table: the concrete backend behind
/// one enum so configs can carry a [`TableBackend`] instead of a type
/// parameter. Implements [`FlowTable`] by delegation; the inherent
/// [`version_addr`](ExactTable::version_addr) /
/// [`all_lines`](ExactTable::all_lines) accessors keep the non-optional
/// signatures the cuckoo-specific call sites rely on.
#[derive(Debug)]
pub enum ExactTable {
    /// Baseline cuckoo table.
    Cuckoo(CuckooTable),
    /// Cuckoo++ with presence filters.
    CuckooPlusPlus(CuckooPlusPlusTable),
    /// EMOMA with CBF steering.
    Emoma(EmomaTable),
}

impl ExactTable {
    /// Which backend this table is.
    #[must_use]
    pub fn backend(&self) -> TableBackend {
        match self {
            ExactTable::Cuckoo(_) => TableBackend::Cuckoo,
            ExactTable::CuckooPlusPlus(_) => TableBackend::CuckooPlusPlus,
            ExactTable::Emoma(_) => TableBackend::Emoma,
        }
    }

    /// Address of the optimistic-lock version counter (every exact
    /// backend models one).
    #[must_use]
    pub fn version_addr(&self) -> Addr {
        match self {
            ExactTable::Cuckoo(t) => t.version_addr(),
            ExactTable::CuckooPlusPlus(t) => t.version_addr(),
            ExactTable::Emoma(t) => t.version_addr(),
        }
    }

    /// All memory lines of the table (for LLC warming).
    #[must_use]
    pub fn all_lines(&self) -> Vec<Addr> {
        match self {
            ExactTable::Cuckoo(t) => t.all_lines().collect(),
            ExactTable::CuckooPlusPlus(t) => t.all_lines().collect(),
            ExactTable::Emoma(t) => t.all_lines().collect(),
        }
    }
}

impl FlowTable for ExactTable {
    fn meta_addr(&self) -> Option<Addr> {
        match self {
            ExactTable::Cuckoo(t) => FlowTable::meta_addr(t),
            ExactTable::CuckooPlusPlus(t) => FlowTable::meta_addr(t),
            ExactTable::Emoma(t) => FlowTable::meta_addr(t),
        }
    }

    fn len(&self) -> usize {
        match self {
            ExactTable::Cuckoo(t) => FlowTable::len(t),
            ExactTable::CuckooPlusPlus(t) => FlowTable::len(t),
            ExactTable::Emoma(t) => FlowTable::len(t),
        }
    }

    fn capacity(&self) -> usize {
        match self {
            ExactTable::Cuckoo(t) => FlowTable::capacity(t),
            ExactTable::CuckooPlusPlus(t) => FlowTable::capacity(t),
            ExactTable::Emoma(t) => FlowTable::capacity(t),
        }
    }

    fn insert(
        &mut self,
        mem: &mut SimMemory,
        key: &FlowKey,
        value: u64,
    ) -> Result<(), TableFullError> {
        match self {
            ExactTable::Cuckoo(t) => t.insert(mem, key, value),
            ExactTable::CuckooPlusPlus(t) => t.insert(mem, key, value),
            ExactTable::Emoma(t) => t.insert(mem, key, value),
        }
    }

    fn remove(&mut self, mem: &mut SimMemory, key: &FlowKey) -> Option<u64> {
        match self {
            ExactTable::Cuckoo(t) => t.remove(mem, key),
            ExactTable::CuckooPlusPlus(t) => t.remove(mem, key),
            ExactTable::Emoma(t) => t.remove(mem, key),
        }
    }

    fn lookup_traced(&self, mem: &SimMemory, key: &FlowKey, software_locking: bool) -> LookupTrace {
        match self {
            ExactTable::Cuckoo(t) => t.lookup_traced(mem, key, software_locking),
            ExactTable::CuckooPlusPlus(t) => t.lookup_traced(mem, key, software_locking),
            ExactTable::Emoma(t) => t.lookup_traced(mem, key, software_locking),
        }
    }

    fn prefetch(&self, mem: &SimMemory, key: &FlowKey) {
        match self {
            ExactTable::Cuckoo(t) => FlowTable::prefetch(t, mem, key),
            ExactTable::CuckooPlusPlus(t) => FlowTable::prefetch(t, mem, key),
            ExactTable::Emoma(t) => FlowTable::prefetch(t, mem, key),
        }
    }

    fn warm_lines(&self) -> Vec<Addr> {
        self.all_lines()
    }

    fn version_addr(&self) -> Option<Addr> {
        Some(ExactTable::version_addr(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_tables::TraceStep;

    /// Every backend builds through the selector, round-trips the same
    /// key set, and exposes the inherent accessors the datapaths use.
    #[test]
    fn every_backend_builds_and_serves() {
        let mut mem = SimMemory::new();
        for backend in TableBackend::all() {
            let mut t = backend.build(&mut mem, 500, 0.85, 13);
            assert_eq!(t.backend(), backend);
            for id in 0..500u64 {
                t.insert(&mut mem, &FlowKey::synthetic(id, 13), id)
                    .unwrap_or_else(|e| panic!("{}: insert {id}: {e:?}", backend.name()));
            }
            for id in 0..500u64 {
                assert_eq!(
                    t.lookup(&mem, &FlowKey::synthetic(id, 13)),
                    Some(id),
                    "{} lost key {id}",
                    backend.name()
                );
            }
            assert!(!t.all_lines().is_empty());
            assert_eq!(FlowTable::version_addr(&t), Some(t.version_addr()));
        }
    }

    /// The dispatch enum is transparent: the trace an [`ExactTable`]
    /// produces is byte-identical to the wrapped table's own.
    #[test]
    fn dispatch_is_trace_transparent() {
        let mut mem = SimMemory::new();
        let mut raw = CuckooTable::with_capacity_for(&mut mem, 100, 0.85, 13);
        let k = FlowKey::synthetic(7, 13);
        raw.insert(&mut mem, &k, 7).unwrap();
        let direct = raw.lookup_traced(&mem, &k, true);
        let wrapped = ExactTable::Cuckoo(raw);
        let via = wrapped.lookup_traced(&mem, &k, true);
        assert_eq!(direct.result, via.result);
        assert_eq!(direct.steps, via.steps);
    }

    /// The backends differ exactly where the papers say they do: on a
    /// miss, baseline cuckoo loads two buckets, Cuckoo++ and EMOMA one.
    #[test]
    fn miss_cost_ranks_backends() {
        let mut mem = SimMemory::new();
        let miss = FlowKey::synthetic(99_999, 13);
        let loads = |t: &ExactTable, mem: &mut SimMemory| {
            t.lookup_traced(mem, &miss, false)
                .steps
                .iter()
                .filter(|s| matches!(s, TraceStep::LoadBucket(_)))
                .count()
        };
        let mut tables: Vec<ExactTable> = TableBackend::all()
            .into_iter()
            .map(|b| b.build(&mut mem, 500, 0.85, 13))
            .collect();
        for t in &mut tables {
            for id in 0..200u64 {
                t.insert(&mut mem, &FlowKey::synthetic(id, 13), id).unwrap();
            }
        }
        assert_eq!(loads(&tables[0], &mut mem), 2, "cuckoo probes both");
        assert_eq!(loads(&tables[1], &mut mem), 1, "cuckoo++ filtered");
        assert_eq!(loads(&tables[2], &mut mem), 1, "emoma steered");
    }
}
