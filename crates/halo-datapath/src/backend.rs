//! Exact-match table backend selection: one enum to name the available
//! implementations and one dispatch table ([`ExactTable`]) so datapaths
//! can be configured with a backend at runtime without becoming generic
//! over it.
//!
//! The three backends model three points in the lookup
//! memory-access-pattern design space, built from two table types:
//!
//! * [`TableBackend::Cuckoo`] — the DPDK `rte_hash` baseline
//!   ([`CuckooTable::create`]): negative lookups probe both candidate
//!   buckets.
//! * [`TableBackend::CuckooPlusPlus`] — the same [`CuckooTable`] built
//!   with per-bucket presence filters
//!   ([`CuckooTable::with_presence_filter`], Le Scouarnec's Cuckoo++),
//!   which kill the secondary probe on negatives.
//! * [`TableBackend::Emoma`] — [`EmomaTable`], an on-chip counting Bloom
//!   filter (EMOMA) that steers every lookup, hit or miss, to a single
//!   bucket.

use halo_mem::{Addr, SimMemory};
use halo_tables::{
    buckets_for, CuckooTable, EmomaTable, FlowKey, FlowTable, LookupTrace, PendingMove,
    TableFullError,
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

    /// Creates a table of this backend with `buckets` buckets (power of
    /// two) for `key_len`-byte keys.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is not a power of two or `key_len` is out of
    /// range.
    #[must_use]
    pub fn create(self, mem: &mut SimMemory, buckets: u64, key_len: usize) -> ExactTable {
        match self {
            TableBackend::Cuckoo => ExactTable::Cuckoo(CuckooTable::create(mem, buckets, key_len)),
            TableBackend::CuckooPlusPlus => {
                ExactTable::Cuckoo(CuckooTable::with_presence_filter(mem, buckets, key_len))
            }
            TableBackend::Emoma => ExactTable::Emoma(EmomaTable::create(mem, buckets, key_len)),
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
        self.create(mem, buckets_for(flows, occupancy), key_len)
    }
}

/// A runtime-selected exact-match table: one of the two cuckoo-family
/// table types behind one enum, so configs can carry a [`TableBackend`]
/// instead of a type parameter. Implements [`FlowTable`] by delegation;
/// the inherent accessors keep the non-optional signatures the
/// cuckoo-specific call sites rely on, and the two-phase move protocol
/// is exposed for the fault injector.
#[derive(Debug)]
pub enum ExactTable {
    /// Cuckoo table, with or without Cuckoo++ presence filters.
    Cuckoo(CuckooTable),
    /// EMOMA with CBF steering.
    Emoma(EmomaTable),
}

/// Evaluates `$body` with `$t` bound to whichever table `$table` holds.
macro_rules! on_table {
    ($table:expr, $t:ident => $body:expr) => {
        match $table {
            ExactTable::Cuckoo($t) => $body,
            ExactTable::Emoma($t) => $body,
        }
    };
}

impl ExactTable {
    /// Which backend this table is.
    #[must_use]
    pub fn backend(&self) -> TableBackend {
        match self {
            ExactTable::Cuckoo(t) if t.has_presence_filter() => TableBackend::CuckooPlusPlus,
            ExactTable::Cuckoo(_) => TableBackend::Cuckoo,
            ExactTable::Emoma(_) => TableBackend::Emoma,
        }
    }

    /// Address of the optimistic-lock version counter (every exact
    /// backend models one).
    #[must_use]
    pub fn version_addr(&self) -> Addr {
        on_table!(self, t => t.version_addr())
    }

    /// All memory lines of the table (for LLC warming).
    #[must_use]
    pub fn all_lines(&self) -> Vec<Addr> {
        on_table!(self, t => t.all_lines().collect())
    }

    /// Number of unclaimed key-value slots.
    #[must_use]
    pub fn free_slots(&self) -> usize {
        on_table!(self, t => t.free_slots())
    }

    /// Two-phase moves currently between `begin` and `commit`/`abort`.
    #[must_use]
    pub fn moves_in_flight(&self) -> usize {
        on_table!(self, t => t.moves_in_flight())
    }

    /// Starts a two-phase move of `key` to its other bucket; `None`
    /// when the backend refuses (see each table's `cuckoo_move_begin`).
    pub fn cuckoo_move_begin(&mut self, mem: &mut SimMemory, key: &FlowKey) -> Option<PendingMove> {
        on_table!(self, t => t.cuckoo_move_begin(mem, key))
    }

    /// Completes a move started by
    /// [`cuckoo_move_begin`](Self::cuckoo_move_begin).
    pub fn cuckoo_move_commit(&mut self, mem: &mut SimMemory, mv: PendingMove) {
        on_table!(self, t => t.cuckoo_move_commit(mem, mv));
    }

    /// Rolls back a move started by
    /// [`cuckoo_move_begin`](Self::cuckoo_move_begin).
    pub fn cuckoo_move_abort(&mut self, mem: &mut SimMemory, mv: PendingMove) {
        on_table!(self, t => t.cuckoo_move_abort(mem, mv));
    }
}

impl FlowTable for ExactTable {
    fn meta_addr(&self) -> Option<Addr> {
        on_table!(self, t => FlowTable::meta_addr(t))
    }

    fn len(&self) -> usize {
        on_table!(self, t => t.len())
    }

    fn capacity(&self) -> usize {
        on_table!(self, t => t.capacity())
    }

    fn insert(
        &mut self,
        mem: &mut SimMemory,
        key: &FlowKey,
        value: u64,
    ) -> Result<(), TableFullError> {
        on_table!(self, t => t.insert(mem, key, value))
    }

    fn remove(&mut self, mem: &mut SimMemory, key: &FlowKey) -> Option<u64> {
        on_table!(self, t => t.remove(mem, key))
    }

    fn lookup_traced(&self, mem: &SimMemory, key: &FlowKey, software_locking: bool) -> LookupTrace {
        on_table!(self, t => t.lookup_traced(mem, key, software_locking))
    }

    fn prefetch(&self, mem: &SimMemory, key: &FlowKey) {
        on_table!(self, t => FlowTable::prefetch(t, mem, key));
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
