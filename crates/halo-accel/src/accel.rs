//! One HALO accelerator: the per-CHA lookup engine of Fig. 6.
//!
//! Each accelerator owns a scoreboard bounding its in-flight queries, a
//! fully pipelined hash unit, comparators, and a small metadata cache.
//! It executes lookup traces against the memory system *from its CHA*:
//! local-slice lines are reached over the short CHA-internal path,
//! remote lines over the interconnect — never through any core's
//! private caches, which is what eliminates the private-cache pollution
//! of Fig. 12.

use crate::metadata::{MetadataCache, METADATA_CACHE_TABLES};
use halo_mem::{AccessKind, Addr, HitLevel, LineAddr, MemorySystem, SliceId};
use halo_sim::{Cycle, Cycles, OutstandingWindow, Resource};
use halo_tables::{LookupTrace, TraceStep};

/// Tunable parameters of one accelerator (defaults follow §4.7).
#[derive(Debug, Clone)]
pub struct AcceleratorConfig {
    /// Maximum in-flight queries tracked by the scoreboard.
    pub scoreboard_depth: usize,
    /// Latency of the pipelined hash unit.
    pub hash_latency: Cycles,
    /// Latency of a signature/key comparator pass.
    pub compare_latency: Cycles,
    /// Number of tables the metadata cache holds.
    pub metadata_tables: usize,
    /// Whether the metadata cache is enabled (ablation knob).
    pub metadata_cache: bool,
    /// Whether the hardware lock bits are set during queries (§4.4).
    pub hardware_locking: bool,
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        AcceleratorConfig {
            scoreboard_depth: 10,
            hash_latency: Cycles(3),
            compare_latency: Cycles(1),
            metadata_tables: METADATA_CACHE_TABLES,
            metadata_cache: true,
            hardware_locking: true,
        }
    }
}

/// Completion record of one accelerator query.
#[derive(Debug, Clone, Copy)]
pub struct QueryOutcome {
    /// Functional lookup result.
    pub result: Option<u64>,
    /// Cycle at which the accelerator finished (result in its result
    /// queue / written to the destination line).
    pub complete: Cycle,
    /// Memory steps that reached DRAM (for energy accounting).
    pub dram_steps: u64,
    /// Memory steps the accelerator performed in total.
    pub mem_steps: u64,
    /// Cycles spent waiting on memory (sum of access latencies on the
    /// query's serial chain) — the "data access" bar of Fig. 10.
    pub data_cycles: Cycles,
}

/// One per-CHA HALO accelerator.
#[derive(Debug)]
pub struct HaloAccelerator {
    slice: SliceId,
    cfg: AcceleratorConfig,
    scoreboard: OutstandingWindow,
    hash_unit: Resource,
    metadata: MetadataCache,
    queries: u64,
    busy_cycles: Cycles,
    /// Bucket/kv lines the current query pinned; empty between queries
    /// and kept so a query allocates nothing.
    locked: Vec<LineAddr>,
}

impl HaloAccelerator {
    /// Creates the accelerator attached to `slice`'s CHA.
    #[must_use]
    pub fn new(slice: SliceId, cfg: AcceleratorConfig) -> Self {
        let scoreboard = OutstandingWindow::new(cfg.scoreboard_depth);
        let hash_unit = Resource::pipelined("hash-unit", cfg.hash_latency);
        let metadata = MetadataCache::new(cfg.metadata_tables);
        HaloAccelerator {
            slice,
            cfg,
            scoreboard,
            hash_unit,
            metadata,
            queries: 0,
            busy_cycles: Cycles::ZERO,
            locked: Vec::new(),
        }
    }

    /// The LLC slice this accelerator sits next to.
    #[must_use]
    pub fn slice(&self) -> SliceId {
        self.slice
    }

    /// Queries executed so far.
    #[must_use]
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Accumulated busy time (for utilization / energy reporting).
    #[must_use]
    pub fn busy_cycles(&self) -> Cycles {
        self.busy_cycles
    }

    /// Metadata-cache statistics `(hits, misses, invalidations)`.
    #[must_use]
    pub fn metadata_stats(&self) -> (u64, u64, u64) {
        self.metadata.stats()
    }

    /// Scoreboard stalls (queries that waited for a free slot).
    #[must_use]
    pub fn scoreboard_stalls(&self) -> u64 {
        self.scoreboard.stalls()
    }

    /// Handles a snoop invalidation of a metadata line (CV-bit protocol).
    pub fn snoop_metadata(&mut self, addr: Addr) -> bool {
        self.metadata.snoop_invalidate(addr)
    }

    /// Executes one lookup query arriving at this accelerator at
    /// `arrive`.
    ///
    /// * `trace` — the functional lookup steps (already computed against
    ///   the table).
    /// * `key_addr` — where the key bytes live; the accelerator fetches
    ///   them first (§4.3 step 1). `None` models a key embedded in the
    ///   query message.
    /// * `dest` — destination line for non-blocking queries; the result
    ///   is stored there (timed) instead of returned over the ring.
    pub fn execute(
        &mut self,
        sys: &mut MemorySystem,
        trace: &LookupTrace,
        key_addr: Option<Addr>,
        arrive: Cycle,
        dest: Option<Addr>,
    ) -> QueryOutcome {
        self.queries += 1;
        let start = self.scoreboard.acquire(arrive);
        let mut t = start;
        let mut dram_steps = 0u64;
        let mut mem_steps = 0u64;
        let mut data_cycles = Cycles::ZERO;

        let mut access = |sys: &mut MemorySystem,
                          slice: SliceId,
                          addr: Addr,
                          kind: AccessKind,
                          at: Cycle|
         -> Cycle {
            let out = sys.accel_access(slice, addr, kind, at);
            if out.level == HitLevel::Dram {
                dram_steps += 1;
            }
            mem_steps += 1;
            data_cycles += out.complete - at;
            out.complete
        };

        // Step 1: fetch the key.
        if let Some(ka) = key_addr {
            t = access(sys, self.slice, ka, AccessKind::Load, t);
        }

        for step in &trace.steps {
            match *step {
                TraceStep::LoadMeta(a) => {
                    if self.cfg.metadata_cache && self.metadata.access(a) {
                        t += Cycles(1); // metadata-cache hit
                    } else {
                        // A metadata-cache miss has already inserted the entry.
                        t = access(sys, self.slice, a, AccessKind::Load, t);
                    }
                }
                TraceStep::Hash => {
                    t = self.hash_unit.serve(t);
                }
                TraceStep::LoadBucket(a) | TraceStep::LoadKv(a) => {
                    t = access(sys, self.slice, a, AccessKind::Load, t);
                    if self.cfg.hardware_locking {
                        self.locked.push(a.line());
                    }
                }
                TraceStep::CompareSigs | TraceStep::CompareKey => {
                    t += self.cfg.compare_latency;
                }
                TraceStep::LoadKey(a) => {
                    t = access(sys, self.slice, a, AccessKind::Load, t);
                }
                TraceStep::SoftLock(_) => {
                    // Software locking is replaced by the hardware lock
                    // bit: no work on the accelerator path.
                }
                TraceStep::StoreResult(a) => {
                    t = access(sys, self.slice, a, AccessKind::Store, t);
                }
            }
        }

        // Result store for non-blocking queries not already in the trace.
        if let Some(d) = dest {
            t = access(sys, self.slice, d, AccessKind::Store, t);
        }

        // Hardware locking: the touched bucket/kv lines were pinned for
        // the duration of the query (release at completion).
        for line in self.locked.drain(..) {
            sys.hw_lock(line, t);
        }

        self.scoreboard.commit(t);
        self.busy_cycles += t - start;
        QueryOutcome {
            result: trace.result,
            complete: t,
            dram_steps,
            mem_steps,
            data_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_mem::{CoreId, MachineConfig};
    use halo_tables::{CuckooTable, FlowKey};

    fn setup() -> (MemorySystem, CuckooTable) {
        let mut sys = MemorySystem::new(MachineConfig::small());
        let mut table = CuckooTable::create(sys.data_mut(), 256, 13);
        for id in 0..500u64 {
            table
                .insert(sys.data_mut(), &FlowKey::synthetic(id, 13), id)
                .unwrap();
        }
        for a in table.all_lines().collect::<Vec<_>>() {
            sys.warm_llc(a);
        }
        (sys, table)
    }

    #[test]
    fn query_returns_functional_result() {
        let (mut sys, table) = setup();
        let mut acc = HaloAccelerator::new(SliceId(0), AcceleratorConfig::default());
        let key = FlowKey::synthetic(7, 13);
        let tr = table.lookup_traced(sys.data_mut(), &key, false);
        let out = acc.execute(&mut sys, &tr, None, Cycle(0), None);
        assert_eq!(out.result, Some(7));
        assert!(out.complete > Cycle(0));
        assert!(out.mem_steps >= 2);
    }

    #[test]
    fn metadata_cache_hits_after_first_query() {
        let (mut sys, table) = setup();
        let mut acc = HaloAccelerator::new(SliceId(0), AcceleratorConfig::default());
        for id in 0..5u64 {
            let key = FlowKey::synthetic(id, 13);
            let tr = table.lookup_traced(sys.data_mut(), &key, false);
            acc.execute(&mut sys, &tr, None, Cycle(id * 1000), None);
        }
        let (hits, misses, _) = acc.metadata_stats();
        assert_eq!(misses, 1, "only the first query misses");
        assert_eq!(hits, 4);
    }

    #[test]
    fn llc_resident_query_is_fast() {
        let (mut sys, table) = setup();
        let mut acc = HaloAccelerator::new(SliceId(0), AcceleratorConfig::default());
        // Warm the metadata cache first.
        let k0 = FlowKey::synthetic(0, 13);
        let tr0 = table.lookup_traced(sys.data_mut(), &k0, false);
        acc.execute(&mut sys, &tr0, None, Cycle(0), None);

        let key = FlowKey::synthetic(7, 13);
        let tr = table.lookup_traced(sys.data_mut(), &key, false);
        let out = acc.execute(&mut sys, &tr, None, Cycle(10_000), None);
        let latency = (out.complete - Cycle(10_000)).0;
        // 2-4 near-cache accesses plus hash/compare: well under 150 cy.
        assert!(latency < 150, "accelerator latency {latency}");
    }

    #[test]
    fn scoreboard_limits_inflight() {
        let (mut sys, table) = setup();
        let cfg = AcceleratorConfig {
            scoreboard_depth: 2,
            ..AcceleratorConfig::default()
        };
        let mut acc = HaloAccelerator::new(SliceId(0), cfg);
        // Fire 10 queries at the same instant.
        for id in 0..10u64 {
            let key = FlowKey::synthetic(id, 13);
            let tr = table.lookup_traced(sys.data_mut(), &key, false);
            acc.execute(&mut sys, &tr, None, Cycle(0), None);
        }
        assert!(acc.scoreboard_stalls() > 0, "depth-2 scoreboard must stall");
    }

    #[test]
    fn hardware_locking_pins_lines() {
        let (mut sys, table) = setup();
        let mut acc = HaloAccelerator::new(SliceId(0), AcceleratorConfig::default());
        let key = FlowKey::synthetic(7, 13);
        let tr = table.lookup_traced(sys.data_mut(), &key, false);
        let out = acc.execute(&mut sys, &tr, None, Cycle(0), None);
        // A store to a touched bucket line issued mid-query must wait.
        let bucket = tr
            .steps
            .iter()
            .find_map(|s| match s {
                TraceStep::LoadBucket(a) => Some(*a),
                _ => None,
            })
            .unwrap();
        let w = sys.access(CoreId(0), bucket, AccessKind::Store, Cycle(0));
        assert!(
            w.complete >= out.complete,
            "store {:?} must wait for query completion {:?}",
            w.complete,
            out.complete
        );
    }

    #[test]
    fn locking_disabled_skips_lock_bits() {
        let (mut sys, table) = setup();
        let cfg = AcceleratorConfig {
            hardware_locking: false,
            ..AcceleratorConfig::default()
        };
        let mut acc = HaloAccelerator::new(SliceId(0), cfg);
        let key = FlowKey::synthetic(7, 13);
        let tr = table.lookup_traced(sys.data_mut(), &key, false);
        acc.execute(&mut sys, &tr, None, Cycle(0), None);
        assert_eq!(sys.stats().counter("hw_lock.set"), 0);
    }

    #[test]
    fn nonblocking_dest_store_is_timed() {
        let (mut sys, table) = setup();
        let mut acc = HaloAccelerator::new(SliceId(0), AcceleratorConfig::default());
        let dest = sys.data_mut().alloc_lines(64);
        let key = FlowKey::synthetic(7, 13);
        let tr = table.lookup_traced(sys.data_mut(), &key, false);
        let with_dest = acc.execute(&mut sys, &tr, None, Cycle(0), Some(dest));
        assert!(with_dest.mem_steps >= 3);
    }
}
