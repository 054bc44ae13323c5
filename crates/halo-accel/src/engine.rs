//! The HALO engine: all per-CHA accelerators plus the query distributor
//! in the on-chip interconnect, exposed through the three instruction
//! primitives of §4.5 (`LOOKUP_B`, `LOOKUP_NB`, `SNAPSHOT_READ`).

use crate::accel::{AcceleratorConfig, HaloAccelerator, QueryOutcome};
use crate::flowreg::FlowRegister;
use halo_mem::{Addr, CoreId, MemorySystem, SliceId};
use halo_sim::{Cycle, Cycles, StatId, Stats};
use halo_tables::{hash_key, LookupTrace, SEED_PRIMARY};

/// How the query distributor picks an accelerator (§4.3 "query
/// dispatch"). The paper hashes the table address; the alternatives are
/// ablation knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Hash the table (metadata) address — the paper's design: queries
    /// against different tables spread across accelerators.
    TableHash,
    /// Round-robin across accelerators regardless of table.
    RoundRobin,
    /// Hash the *key* so even single-table workloads spread.
    KeyHash,
}

/// Sentinel value stored to a non-blocking destination on a lookup miss
/// (distinct from 0, which means "pending").
pub const NB_MISS: u64 = u64::MAX;

/// Pipeline cost of issuing a blocking `LOOKUP_B` (decode + LSQ entry +
/// ring injection; the instruction serializes like an uncached load).
const ISSUE_OVERHEAD: Cycles = Cycles(8);

/// Cost of delivering a blocking result back into the core's register
/// file and waking the dependent instructions.
const RETURN_OVERHEAD: Cycles = Cycles(2);

/// Static per-slice op names so dispatch spans intern without
/// allocating (trace op names must be `&'static str`).
const SLICE_OPS: [&str; 16] = [
    "slice0", "slice1", "slice2", "slice3", "slice4", "slice5", "slice6", "slice7", "slice8",
    "slice9", "slice10", "slice11", "slice12", "slice13", "slice14", "slice15",
];

/// Trace op name for `slice` (slices past the static table collapse
/// into one overflow class; no modeled machine has that many).
#[inline]
fn slice_op(slice: usize) -> &'static str {
    SLICE_OPS.get(slice).copied().unwrap_or("slice_other")
}

/// A pending non-blocking lookup: where the result will appear and when.
#[derive(Debug, Clone, Copy)]
pub struct NbHandle {
    /// Destination address the accelerator will write.
    pub dest: Addr,
    /// When the issuing core's pipeline is free again (a store-like
    /// instruction: immediately after issue).
    pub issued: Cycle,
    /// When the result lands at `dest`.
    pub result_at: Cycle,
    /// The functional result (also encoded into `dest`'s memory).
    pub result: Option<u64>,
}

/// The full HALO engine: one accelerator per LLC slice plus the query
/// distributor.
///
/// # Examples
///
/// ```
/// use halo_accel::{AcceleratorConfig, DispatchPolicy, HaloEngine};
/// use halo_mem::{CoreId, MachineConfig, MemorySystem};
/// use halo_sim::Cycle;
/// use halo_tables::{CuckooTable, FlowKey};
///
/// let mut sys = MemorySystem::new(MachineConfig::small());
/// let mut engine = HaloEngine::new(&sys, AcceleratorConfig::default());
/// let mut table = CuckooTable::create(sys.data_mut(), 64, 13);
/// let key = FlowKey::synthetic(3, 13);
/// table.insert(sys.data_mut(), &key, 30).unwrap();
///
/// let (value, done) = engine.lookup_b(&mut sys, CoreId(0), &table, &key, None, Cycle(0));
/// assert_eq!(value, Some(30));
/// assert!(done > Cycle(0));
/// ```
#[derive(Debug)]
pub struct HaloEngine {
    accels: Vec<HaloAccelerator>,
    flowregs: Vec<FlowRegister>,
    policy: DispatchPolicy,
    rr_next: usize,
    hop_latency: Cycles,
    stats: Stats,
    ids: EngineStatIds,
}

/// Pre-registered [`StatId`] handles for the engine's counters. The
/// per-slice dispatch counters live in a dense vector indexed by slice,
/// so the dispatch hot path neither formats a key string nor walks the
/// name registry.
#[derive(Debug)]
struct EngineStatIds {
    queries: StatId,
    snapshot_read: StatId,
    dispatch_slice: Vec<StatId>,
}

impl EngineStatIds {
    fn register(stats: &mut Stats, slices: usize) -> Self {
        EngineStatIds {
            queries: stats.counter_id("engine.queries"),
            snapshot_read: stats.counter_id("engine.snapshot_read"),
            dispatch_slice: (0..slices)
                .map(|s| stats.counter_id(&format!("engine.dispatch.slice{s}")))
                .collect(),
        }
    }
}

impl HaloEngine {
    /// Builds one accelerator per LLC slice of `sys`.
    #[must_use]
    pub fn new(sys: &MemorySystem, cfg: AcceleratorConfig) -> Self {
        let slices = sys.config().slices;
        let mut stats = Stats::new();
        let ids = EngineStatIds::register(&mut stats, slices);
        HaloEngine {
            accels: (0..slices)
                .map(|i| HaloAccelerator::new(SliceId(i), cfg.clone()))
                .collect(),
            flowregs: (0..slices).map(|_| FlowRegister::new(32)).collect(),
            policy: DispatchPolicy::TableHash,
            rr_next: 0,
            hop_latency: sys.config().hop_latency,
            stats,
            ids,
        }
    }

    /// Overrides the dispatch policy (ablation).
    pub fn set_policy(&mut self, policy: DispatchPolicy) {
        self.policy = policy;
    }

    /// The dispatch policy in effect.
    #[must_use]
    pub fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    /// Engine statistics (queries, dispatch counts, per-level behaviour).
    #[must_use]
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The accelerators (read-only; for reporting).
    #[must_use]
    pub fn accelerators(&self) -> &[HaloAccelerator] {
        &self.accels
    }

    /// Total queries across accelerators.
    #[must_use]
    pub fn total_queries(&self) -> u64 {
        self.accels.iter().map(HaloAccelerator::queries).sum()
    }

    /// Sum of per-accelerator active-flow estimates for the current
    /// window.
    #[must_use]
    pub fn active_flow_estimate(&self) -> f64 {
        self.flowregs.iter().map(FlowRegister::estimate).sum()
    }

    /// Ends the flow-register window on every accelerator and returns
    /// the summed estimate.
    pub fn end_flow_window(&mut self) -> f64 {
        self.flowregs
            .iter_mut()
            .map(FlowRegister::estimate_and_reset)
            .sum()
    }

    fn pick(&mut self, table_addr: Addr, key_hash: u64) -> usize {
        let n = self.accels.len();
        match self.policy {
            DispatchPolicy::TableHash => {
                // Multiplicative mixing: table base addresses are
                // large, regularly spaced values, so a plain XOR-fold
                // would alias many tables onto one slice.
                let h = (table_addr.0 >> 6).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((h >> 48) as usize) % n
            }
            DispatchPolicy::RoundRobin => {
                let s = self.rr_next;
                self.rr_next = (self.rr_next + 1) % n;
                s
            }
            DispatchPolicy::KeyHash => (key_hash as usize) % n,
        }
    }

    fn dispatch_wire(&self, sys: &MemorySystem, core: CoreId, slice: usize) -> Cycles {
        Cycles(sys.hops(core, SliceId(slice)) * self.hop_latency.0)
    }

    /// Dispatches a prepared trace to the chosen accelerator; shared by
    /// the two lookup instructions and the tuple-space-search drivers.
    #[allow(clippy::too_many_arguments)] // mirrors the instruction operand list
    pub fn dispatch(
        &mut self,
        sys: &mut MemorySystem,
        core: CoreId,
        table_addr: Addr,
        trace: &LookupTrace,
        key_hash: u64,
        key_addr: Option<Addr>,
        dest: Option<Addr>,
        at: Cycle,
    ) -> QueryOutcome {
        let slice = self.pick(table_addr, key_hash);
        self.dispatch_for_slice(sys, core, slice, trace, key_hash, key_addr, dest, at)
    }

    /// `LOOKUP_B`: blocking lookup. The core stalls until the result
    /// returns over the interconnect (load-like semantics). Returns the
    /// value and the cycle the core resumes.
    ///
    /// # Panics
    ///
    /// Panics if `table` does not live in simulated memory (its
    /// [`FlowTable::meta_addr`](halo_tables::FlowTable::meta_addr) is
    /// `None`) — there is no metadata line to dispatch against.
    pub fn lookup_b(
        &mut self,
        sys: &mut MemorySystem,
        core: CoreId,
        table: &dyn halo_tables::FlowTable,
        key: &halo_tables::FlowKey,
        key_addr: Option<Addr>,
        at: Cycle,
    ) -> (Option<u64>, Cycle) {
        let trace = table.lookup_traced(sys.data_mut(), key, false);
        let key_hash = hash_key(key, SEED_PRIMARY);
        let table_addr = table
            .meta_addr()
            .expect("HALO dispatch needs an in-memory table");
        let slice = self.pick(table_addr, key_hash);
        // A blocking lookup behaves like an uncacheable load: the core
        // pays a fixed issue/serialization cost before the query enters
        // the ring, and a writeback/wakeup cost when the result returns.
        let issued = at + ISSUE_OVERHEAD;
        let out =
            self.dispatch_for_slice(sys, core, slice, &trace, key_hash, key_addr, None, issued);
        // Result rides the ring back to the core.
        let back = self.dispatch_wire(sys, core, slice);
        let resume = out.complete + back + RETURN_OVERHEAD;
        if sys.trace_enabled() {
            sys.trace_span("engine", "LOOKUP_B", at, resume);
        }
        (out.result, resume)
    }

    /// `LOOKUP_NB`: non-blocking lookup. The core continues immediately
    /// (store-like semantics); the accelerator writes the result into
    /// `dest` when done (`value + 1`, or [`NB_MISS`] on miss; `0` while
    /// pending).
    ///
    /// # Panics
    ///
    /// Panics if `table` does not live in simulated memory (no metadata
    /// line to dispatch against).
    #[allow(clippy::too_many_arguments)] // mirrors the instruction operand list
    pub fn lookup_nb(
        &mut self,
        sys: &mut MemorySystem,
        core: CoreId,
        table: &dyn halo_tables::FlowTable,
        key: &halo_tables::FlowKey,
        key_addr: Option<Addr>,
        dest: Addr,
        at: Cycle,
    ) -> NbHandle {
        let trace = table.lookup_traced(sys.data_mut(), key, false);
        let key_hash = hash_key(key, SEED_PRIMARY);
        let table_addr = table
            .meta_addr()
            .expect("HALO dispatch needs an in-memory table");
        let slice = self.pick(table_addr, key_hash);
        sys.data_mut().write_u64(dest, 0); // pending marker
        let out =
            self.dispatch_for_slice(sys, core, slice, &trace, key_hash, key_addr, Some(dest), at);
        let encoded = match out.result {
            Some(v) => v.wrapping_add(1),
            None => NB_MISS,
        };
        sys.data_mut().write_u64(dest, encoded);
        if sys.trace_enabled() {
            sys.trace_span("engine", "LOOKUP_NB", at, out.complete);
        }
        NbHandle {
            dest,
            issued: at + Cycles(1),
            result_at: out.complete,
            result: out.result,
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the instruction operand list
    fn dispatch_for_slice(
        &mut self,
        sys: &mut MemorySystem,
        core: CoreId,
        slice: usize,
        trace: &LookupTrace,
        key_hash: u64,
        key_addr: Option<Addr>,
        dest: Option<Addr>,
        at: Cycle,
    ) -> QueryOutcome {
        self.stats.inc(self.ids.queries);
        self.stats.inc(self.ids.dispatch_slice[slice]);
        self.flowregs[slice].observe(key_hash);
        let arrive = at + self.dispatch_wire(sys, core, slice);
        let out = self.accels[slice].execute(sys, trace, key_addr, arrive, dest);
        if sys.trace_enabled() {
            // Dispatch-to-complete: wire hops + scoreboard queueing +
            // accelerator service, per slice.
            sys.trace_span("accel", slice_op(slice), at, out.complete);
        }
        out
    }

    /// `SNAPSHOT_READ`: coherence-neutral read of a destination line.
    /// Returns the stored word and the cycle it is available, leaving the
    /// line's ownership unchanged so the accelerator keeps writing to
    /// the LLC without bouncing.
    pub fn snapshot_read(
        &mut self,
        sys: &mut MemorySystem,
        core: CoreId,
        addr: Addr,
        at: Cycle,
    ) -> (u64, Cycle) {
        self.stats.inc(self.ids.snapshot_read);
        let out = sys.snapshot_read(core, addr, at);
        let v = sys.data_mut().read_u64(addr);
        if sys.trace_enabled() {
            sys.trace_span("engine", "SNAPSHOT_READ", at, out.complete);
        }
        (v, out.complete)
    }

    /// Decodes a non-blocking result word: `None` if still pending,
    /// `Some(None)` for a miss, `Some(Some(v))` for a hit.
    #[must_use]
    pub fn decode_nb(word: u64) -> Option<Option<u64>> {
        match word {
            0 => None,
            NB_MISS => Some(None),
            v => Some(Some(v - 1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_mem::MachineConfig;
    use halo_tables::{CuckooTable, FlowKey};

    fn setup() -> (MemorySystem, HaloEngine, CuckooTable) {
        let mut sys = MemorySystem::new(MachineConfig::small());
        let engine = HaloEngine::new(&sys, AcceleratorConfig::default());
        let mut table = CuckooTable::create(sys.data_mut(), 512, 13);
        for id in 0..1000u64 {
            table
                .insert(sys.data_mut(), &FlowKey::synthetic(id, 13), id * 10)
                .unwrap();
        }
        for a in table.all_lines().collect::<Vec<_>>() {
            sys.warm_llc(a);
        }
        (sys, engine, table)
    }

    #[test]
    fn blocking_lookup_hit_and_miss() {
        let (mut sys, mut engine, table) = setup();
        let (v, t) = engine.lookup_b(
            &mut sys,
            CoreId(0),
            &table,
            &FlowKey::synthetic(5, 13),
            None,
            Cycle(0),
        );
        assert_eq!(v, Some(50));
        assert!(t > Cycle(0));
        let (miss, _) = engine.lookup_b(
            &mut sys,
            CoreId(0),
            &table,
            &FlowKey::synthetic(999_999, 13),
            None,
            Cycle(0),
        );
        assert_eq!(miss, None);
    }

    #[test]
    fn nonblocking_encodes_result_in_memory() {
        let (mut sys, mut engine, table) = setup();
        let dest = sys.data_mut().alloc_lines(64);
        let h = engine.lookup_nb(
            &mut sys,
            CoreId(0),
            &table,
            &FlowKey::synthetic(5, 13),
            None,
            dest,
            Cycle(0),
        );
        assert_eq!(h.result, Some(50));
        assert!(h.issued < h.result_at, "core must not block");
        let word = sys.data_mut().read_u64(dest);
        assert_eq!(HaloEngine::decode_nb(word), Some(Some(50)));
    }

    #[test]
    fn nonblocking_miss_marker() {
        let (mut sys, mut engine, table) = setup();
        let dest = sys.data_mut().alloc_lines(64);
        let h = engine.lookup_nb(
            &mut sys,
            CoreId(0),
            &table,
            &FlowKey::synthetic(5_000_000, 13),
            None,
            dest,
            Cycle(0),
        );
        assert_eq!(h.result, None);
        let word = sys.data_mut().read_u64(dest);
        assert_eq!(HaloEngine::decode_nb(word), Some(None));
        assert_eq!(HaloEngine::decode_nb(0), None);
    }

    /// Edge words of the `LOOKUP_NB` destination encoding: the all-zeros
    /// empty-slot/pending word, the all-ones miss sentinel, and values
    /// with lock-bit-like high-bit patterns, which are plain data to the
    /// decoder. Values up to `u64::MAX - 2` round-trip; `u64::MAX - 1`
    /// and `u64::MAX` are reserved by the encoding (they would collide
    /// with the miss and pending words).
    #[test]
    fn decode_nb_edge_words() {
        // Empty-slot / pending encoding.
        assert_eq!(HaloEngine::decode_nb(0), None);
        // All-ones = the miss sentinel.
        assert_eq!(HaloEngine::decode_nb(u64::MAX), Some(None));
        assert_eq!(HaloEngine::decode_nb(NB_MISS), Some(None));
        // Smallest and largest encodable hits.
        assert_eq!(HaloEngine::decode_nb(1), Some(Some(0)));
        assert_eq!(
            HaloEngine::decode_nb(u64::MAX - 1),
            Some(Some(u64::MAX - 2))
        );
        // High bits are value bits, not lock/status bits: words that look
        // like a set lock bit decode as ordinary values.
        assert_eq!(
            HaloEngine::decode_nb(0x8000_0000_0000_0000),
            Some(Some(0x7FFF_FFFF_FFFF_FFFF))
        );
        assert_eq!(
            HaloEngine::decode_nb(0x8000_0000_0000_0001),
            Some(Some(0x8000_0000_0000_0000))
        );
    }

    /// Every encodable value pattern survives the lookup_nb -> dest word
    /// -> decode_nb round trip, including all-ones-minus-reserved and
    /// high-bit patterns.
    #[test]
    fn nb_dest_word_round_trips_value_patterns() {
        let (mut sys, mut engine, mut table) = setup();
        let dest = sys.data_mut().alloc_lines(64);
        let key = FlowKey::synthetic(7_777, 13);
        for (i, &v) in [
            0u64,
            1,
            0x7FFF_FFFF_FFFF_FFFF,
            0x8000_0000_0000_0000,
            u64::MAX - 2, // largest encodable value
        ]
        .iter()
        .enumerate()
        {
            table.insert(sys.data_mut(), &key, v).unwrap();
            let h = engine.lookup_nb(
                &mut sys,
                CoreId(0),
                &table,
                &key,
                None,
                dest,
                Cycle(i as u64 * 1_000),
            );
            assert_eq!(h.result, Some(v));
            let word = sys.data_mut().read_u64(dest);
            assert_eq!(HaloEngine::decode_nb(word), Some(Some(v)), "value {v:#x}");
        }
    }

    /// `SNAPSHOT_READ` across the optimistic-lock version counter's
    /// wraparound: the counter rolls from u64::MAX to 0 on the next
    /// table write (no panic), and a reader snapshotting before/after
    /// still observes a change.
    #[test]
    fn snapshot_read_version_counter_wraparound() {
        let (mut sys, mut engine, mut table) = setup();
        let vaddr = table.version_addr();
        sys.data_mut().write_u64(vaddr, u64::MAX);
        let (before, t0) = engine.snapshot_read(&mut sys, CoreId(0), vaddr, Cycle(0));
        assert_eq!(before, u64::MAX);
        table
            .insert(sys.data_mut(), &FlowKey::synthetic(9_999, 13), 1)
            .unwrap();
        let (after, _) = engine.snapshot_read(&mut sys, CoreId(0), vaddr, t0);
        assert_eq!(after, 0, "version counter must wrap to 0");
        assert_ne!(before, after, "optimistic reader must see the change");
        // Snapshotting the counter never pulls it into the core's L1.
        assert!(!sys.in_l1(CoreId(0), vaddr));
    }

    #[test]
    fn table_hash_policy_is_sticky_per_table() {
        let (mut sys, mut engine, table) = setup();
        for id in 0..20u64 {
            engine.lookup_b(
                &mut sys,
                CoreId(0),
                &table,
                &FlowKey::synthetic(id, 13),
                None,
                Cycle(id * 500),
            );
        }
        // All queries to one table land on one accelerator.
        let active: Vec<_> = engine
            .accelerators()
            .iter()
            .filter(|a| a.queries() > 0)
            .collect();
        assert_eq!(active.len(), 1);
    }

    #[test]
    fn key_hash_policy_spreads_single_table() {
        let (mut sys, mut engine, table) = setup();
        engine.set_policy(DispatchPolicy::KeyHash);
        for id in 0..64u64 {
            engine.lookup_b(
                &mut sys,
                CoreId(0),
                &table,
                &FlowKey::synthetic(id, 13),
                None,
                Cycle(id * 500),
            );
        }
        let active = engine
            .accelerators()
            .iter()
            .filter(|a| a.queries() > 0)
            .count();
        assert!(active >= 3, "key hashing should use most accelerators");
    }

    #[test]
    fn round_robin_rotates() {
        let (mut sys, mut engine, table) = setup();
        engine.set_policy(DispatchPolicy::RoundRobin);
        for id in 0..8u64 {
            engine.lookup_b(
                &mut sys,
                CoreId(0),
                &table,
                &FlowKey::synthetic(id, 13),
                None,
                Cycle(id * 500),
            );
        }
        for a in engine.accelerators() {
            assert_eq!(a.queries(), 2, "4 slices x 2 rounds");
        }
    }

    #[test]
    fn snapshot_read_returns_value_without_ownership() {
        let (mut sys, mut engine, _table) = setup();
        let dest = sys.data_mut().alloc_lines(64);
        sys.data_mut().write_u64(dest, 77);
        sys.warm_llc(dest);
        let (v, t) = engine.snapshot_read(&mut sys, CoreId(0), dest, Cycle(0));
        assert_eq!(v, 77);
        assert!(t > Cycle(0));
        assert!(!sys.in_l1(CoreId(0), dest));
    }

    #[test]
    fn key_fetch_adds_latency() {
        let (mut sys, mut engine, table) = setup();
        let key = FlowKey::synthetic(5, 13);
        // Key bytes live in a packet buffer (LLC via DDIO).
        let key_addr = sys.data_mut().alloc_lines(64);
        sys.data_mut().write_bytes(key_addr, key.as_bytes());
        sys.dma_write(key_addr);
        // Warm the accelerator's metadata cache first so both measured
        // lookups take the steady-state path.
        engine.lookup_b(&mut sys, CoreId(0), &table, &key, None, Cycle(0));
        let (_, plain_done) =
            engine.lookup_b(&mut sys, CoreId(0), &table, &key, None, Cycle(10_000));
        let plain = plain_done - Cycle(10_000);
        let (v, fetch_done) = engine.lookup_b(
            &mut sys,
            CoreId(0),
            &table,
            &key,
            Some(key_addr),
            Cycle(20_000),
        );
        let with_fetch = fetch_done - Cycle(20_000);
        assert_eq!(v, Some(50));
        assert!(
            with_fetch > plain,
            "fetching the key ({with_fetch}) must cost more than an embedded key ({plain})"
        );
    }

    #[test]
    fn engine_counts_queries_and_spreads_stats() {
        let (mut sys, mut engine, table) = setup();
        for id in 0..10u64 {
            engine.lookup_b(
                &mut sys,
                CoreId(0),
                &table,
                &FlowKey::synthetic(id, 13),
                None,
                Cycle(id * 400),
            );
        }
        assert_eq!(engine.total_queries(), 10);
        assert_eq!(engine.stats().counter("engine.queries"), 10);
    }

    #[test]
    fn saturated_accelerator_stalls_excess_queries() {
        let (mut sys, mut engine, table) = setup();
        // Fire 40 queries at the same instant at one accelerator
        // (table-hash policy pins them to one slice).
        for id in 0..40u64 {
            engine.lookup_b(
                &mut sys,
                CoreId(0),
                &table,
                &FlowKey::synthetic(id, 13),
                None,
                Cycle(0),
            );
        }
        let stalls: u64 = engine
            .accelerators()
            .iter()
            .map(|a| a.scoreboard_stalls())
            .sum();
        assert!(stalls > 0, "40 simultaneous queries must exceed 10 slots");
    }

    /// With tracing on, the three instruction primitives and the
    /// per-slice dispatch each record spans under their own op class.
    #[test]
    fn tracing_attributes_instruction_op_classes() {
        let (mut sys, mut engine, table) = setup();
        sys.enable_tracing(4096);
        let key = FlowKey::synthetic(5, 13);
        engine.lookup_b(&mut sys, CoreId(0), &table, &key, None, Cycle(0));
        let dest = sys.data_mut().alloc_lines(64);
        engine.lookup_nb(&mut sys, CoreId(0), &table, &key, None, dest, Cycle(5_000));
        engine.snapshot_read(&mut sys, CoreId(0), dest, Cycle(10_000));

        let tr = sys.tracer();
        assert_eq!(
            tr.histogram("engine", "LOOKUP_B").map(|h| h.count()),
            Some(1)
        );
        assert_eq!(
            tr.histogram("engine", "LOOKUP_NB").map(|h| h.count()),
            Some(1)
        );
        assert_eq!(
            tr.histogram("engine", "SNAPSHOT_READ").map(|h| h.count()),
            Some(1)
        );
        // Both lookups dispatched to a slice (table-hash: same slice).
        let slice_spans: u64 = (0..16)
            .filter_map(|s| tr.histogram("accel", slice_op(s)))
            .map(|h| h.count())
            .sum();
        assert_eq!(slice_spans, 2);
        // The LOOKUP_B span covers issue overhead + service + return.
        let b = tr.histogram("engine", "LOOKUP_B").unwrap();
        assert!(b.max() > ISSUE_OVERHEAD.0 + RETURN_OVERHEAD.0);
    }

    #[test]
    fn flow_register_window_estimates() {
        let (mut sys, mut engine, table) = setup();
        for id in 0..30u64 {
            for _ in 0..3 {
                engine.lookup_b(
                    &mut sys,
                    CoreId(0),
                    &table,
                    &FlowKey::synthetic(id, 13),
                    None,
                    Cycle(0),
                );
            }
        }
        let est = engine.end_flow_window();
        assert!(est > 10.0 && est < 90.0, "estimate {est} for 30 flows");
        assert_eq!(engine.active_flow_estimate(), 0.0);
    }
}
