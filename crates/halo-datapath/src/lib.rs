//! # halo-datapath
//!
//! The one classification datapath every frontend drives.
//!
//! Before this crate existed the EMC → MegaFlow → backend-dispatch
//! sequence was implemented four times — in the single-core virtual
//! switch, the multi-core PMD datapath, the key-value store, and the
//! NF workloads — with slightly diverging behavior (EMC promotion
//! policy, non-blocking destination-slot arithmetic). It is now layered
//! as:
//!
//! * [`LookupBackend`] — *how* a lookup executes: software on the core,
//!   HALO `LOOKUP_B` (blocking), or HALO `LOOKUP_NB` + `SNAPSHOT_READ`
//!   (non-blocking).
//! * [`NbRegion`] — the per-core destination lines `LOOKUP_NB` results
//!   land in, sized from the number of tuples that may be probed so
//!   slots never alias.
//! * [`LookupExecutor`] — one core's lookup machinery: the
//!   [`CoreModel`], its scratch working set, and the backend dispatch
//!   logic ([`LookupExecutor::run_sw`] for software replay,
//!   [`LookupExecutor::search`] for the full tuple-space walk).
//! * [`DatapathCore`] — the per-core classification stage: EMC probe →
//!   MegaFlow search → promotion, generic over any [`WildcardTable`]
//!   backend.
//! * [`TableBackend`] / [`ExactTable`] — runtime selection of the
//!   exact-match implementation (baseline cuckoo, Cuckoo++ presence
//!   filters, EMOMA CBF steering) behind one dispatch enum, so configs
//!   name a backend instead of growing a type parameter.
//! * [`WildcardBackend`] / [`WildcardMatcher`] — the same runtime
//!   selection for the wildcard (MegaFlow/OpenFlow) layer behind the
//!   object-safe [`WildcardTable`] seam: tuple space search or
//!   range-vector hashing ([`halo_classify::RvhTable`]).
//!
//! The timing contract is strict: for identical inputs the executor
//! reproduces cycle-for-cycle the access streams of the paths it
//! replaced, so figure outputs are byte-identical across the refactor.
//!
//! # Examples
//!
//! ```
//! use halo_classify::{distinct_masks, Emc, PacketHeader, SearchMode};
//! use halo_datapath::{
//!     DatapathCore, LookupBackend, LookupExecutor, TableBackend, WildcardBackend, WildcardTable,
//! };
//! use halo_mem::{CoreId, MachineConfig, MemorySystem};
//! use halo_sim::Cycle;
//!
//! let mut sys = MemorySystem::new(MachineConfig::small());
//! let exec = LookupExecutor::new(&mut sys, CoreId(0), LookupBackend::Software);
//! let emc = Emc::new(sys.data_mut(), 1024);
//! let masks = distinct_masks(4);
//! let mut megaflow = WildcardBackend::Tss.build(
//!     sys.data_mut(),
//!     TableBackend::Cuckoo,
//!     &masks,
//!     256,
//!     SearchMode::FirstMatch,
//! );
//! let key = PacketHeader::synthetic(7).miniflow();
//! megaflow.insert_masked(sys.data_mut(), &masks[1], &key, 0, 42).unwrap();
//! let mut dp = DatapathCore::new(exec, Some(emc), LookupBackend::Software, true);
//! let out = dp.classify(&mut sys, None, &megaflow, &key, None, Cycle(0));
//! assert_eq!(out.action, Some(42));
//! assert!(!out.emc_hit); // first packet: EMC cold, MegaFlow hit
//! let again = dp.classify(&mut sys, None, &megaflow, &key, None, out.done);
//! assert!(again.emc_hit); // promoted
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backend;
mod wildcard;

pub use backend::{ExactTable, TableBackend};
pub use wildcard::{TssRangeTable, WildcardBackend, WildcardError, WildcardMatcher, WildcardTable};

use halo_accel::HaloEngine;
use halo_classify::{Emc, RuleMatch};
use halo_cpu::{build_sw_lookup_into, CoreModel, ExecReport, Program, Scratch};
use halo_mem::{Addr, CoreId, CoreMem, MemCtx, MemorySystem, SimMemory, CACHE_LINE};
use halo_sim::{Cycle, Cycles};
use halo_tables::{hash_key, FlowKey, LookupTrace, TraceStep, SEED_PRIMARY};

/// How flow-classification lookups execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupBackend {
    /// DPDK-style software lookups on the core (the baseline).
    Software,
    /// HALO `LOOKUP_B`: the core blocks per lookup.
    HaloBlocking,
    /// HALO `LOOKUP_NB`: all tuple lookups issued at once, results
    /// polled with one `SNAPSHOT_READ` per destination line.
    HaloNonBlocking,
}

impl LookupBackend {
    /// Every lookup strategy, software first.
    #[must_use]
    pub fn all() -> [LookupBackend; 3] {
        [
            LookupBackend::Software,
            LookupBackend::HaloBlocking,
            LookupBackend::HaloNonBlocking,
        ]
    }

    /// Stable display name (used in figure rows and JSON).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LookupBackend::Software => "Software",
            LookupBackend::HaloBlocking => "HALO-B",
            LookupBackend::HaloNonBlocking => "HALO-NB",
        }
    }
}

/// Cycles between a `LOOKUP_B` completion and the core observing the
/// result (register writeback + pipeline restart).
const BLOCKING_RESUME: Cycles = Cycles(4);

/// How many probes ahead a HALO search hints the LLC tag sets of a
/// probe's bucket and kv lines into the host cache (chosen by
/// measurement).
const SEARCH_SET_AHEAD: usize = 8;

/// How many probes ahead a HALO search hints the LLC metadata of those
/// lines; nearer than [`SEARCH_SET_AHEAD`], since finding the way scans
/// the hinted set.
const SEARCH_WAY_AHEAD: usize = 3;

/// Stages the host-cache misses of a HALO search: before probe `k` is
/// dispatched, hints the LLC tag sets of probe `k + SEARCH_SET_AHEAD`'s
/// bucket and kv lines (of every probe up to it, when `k` is the first)
/// and the LLC metadata of probe `k + SEARCH_WAY_AHEAD`'s. Those are the
/// lines the accelerator reads and then locks. Hints change no simulated
/// state.
fn prefetch_probes(sys: &MemorySystem, probes: &[(usize, LookupTrace)], k: usize) {
    let first_far = if k == 0 { 0 } else { k + SEARCH_SET_AHEAD };
    for (_, tr) in probes.iter().take(k + SEARCH_SET_AHEAD + 1).skip(first_far) {
        for a in table_lines(tr) {
            sys.prefetch_llc_set(a);
        }
    }
    if let Some((_, tr)) = probes.get(k + SEARCH_WAY_AHEAD) {
        for a in table_lines(tr) {
            sys.prefetch_llc_way(a);
        }
    }
}

/// The whole machine a HALO dispatch runs on.
///
/// # Panics
///
/// Panics inside an epoch shard, which sees one core's view only.
fn live<S: CoreMem>(sys: &mut S) -> &mut MemorySystem {
    sys.live()
        .expect("HALO dispatch needs the live MemorySystem, not an epoch shard")
}

/// The bucket and kv lines a lookup trace reads.
fn table_lines(tr: &LookupTrace) -> impl Iterator<Item = Addr> + '_ {
    tr.steps.iter().filter_map(|s| match *s {
        TraceStep::LoadBucket(a) | TraceStep::LoadKv(a) => Some(a),
        _ => None,
    })
}

/// One event of a streaming traffic workload.
///
/// Streaming generators (the million-flow adversarial engine in
/// `halo-nf`) emit these; streaming consumers (the multi-core datapath's
/// `run_stream`) apply them. The enum lives here — the layer both sides
/// already depend on — so producers and consumers stay decoupled.
///
/// Flow ids are opaque `u64`s; `PacketHeader::synthetic(flow)` turns one
/// into a concrete header/key wherever a packet is materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficEvent {
    /// A packet of flow `flow` arrives and must be classified.
    Packet(u64),
    /// Flow `flow` starts: the control plane installs its rule
    /// (insert pressure on the MegaFlow tables).
    Arrival(u64),
    /// Flow `flow` ends: its rule is torn down (remove pressure, EMC
    /// invalidation, coherence traffic from the revalidator).
    Expiry(u64),
}

impl TrafficEvent {
    /// The flow id the event concerns.
    #[must_use]
    pub fn flow(self) -> u64 {
        match self {
            TrafficEvent::Packet(f) | TrafficEvent::Arrival(f) | TrafficEvent::Expiry(f) => f,
        }
    }
}

/// Destination lines for non-blocking lookups.
///
/// Each in-flight `LOOKUP_NB` writes its result into one 8-byte slot;
/// eight slots share a cache line. The region is sized from the number
/// of lookups a single search may have in flight (the tuple-space mask
/// count), so slot addresses never alias — the old per-core pipelines
/// hard-coded a single line (`slot % 8`), which silently corrupted
/// `SNAPSHOT_READ` results whenever more than eight tuples were probed.
#[derive(Debug, Clone, Copy)]
pub struct NbRegion {
    base: Addr,
    slots: usize,
}

impl NbRegion {
    /// Destination-result slots per cache line.
    pub const SLOTS_PER_LINE: usize = (CACHE_LINE / 8) as usize;

    /// Cache lines needed for `slots` concurrent lookups (at least one).
    #[must_use]
    pub fn lines_for(slots: usize) -> u64 {
        (slots as u64).div_ceil(Self::SLOTS_PER_LINE as u64).max(1)
    }

    /// Allocates a region big enough for `slots` concurrent lookups.
    #[must_use]
    pub fn allocate(mem: &mut SimMemory, slots: usize) -> Self {
        let lines = Self::lines_for(slots);
        let base = mem.alloc_lines(lines * CACHE_LINE);
        NbRegion {
            base,
            slots: (lines as usize) * Self::SLOTS_PER_LINE,
        }
    }

    /// Wraps an already-allocated slice of lines (multi-core datapaths
    /// carve one allocation into per-core regions).
    #[must_use]
    pub fn from_raw(base: Addr, slots: usize) -> Self {
        NbRegion { base, slots }
    }

    /// Base address of the region (the first destination line).
    #[must_use]
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Concurrent lookups this region can hold without aliasing.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Number of cache lines in the region.
    #[must_use]
    pub fn lines(&self) -> u64 {
        Self::lines_for(self.slots)
    }

    /// Destination address of result slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` exceeds the region — an aliased destination
    /// word would silently corrupt another in-flight lookup's result.
    #[must_use]
    pub fn dest(&self, slot: usize) -> Addr {
        assert!(
            slot < self.slots,
            "NB destination slot {slot} outside region of {} slots",
            self.slots
        );
        self.base
            + (slot / Self::SLOTS_PER_LINE) as u64 * CACHE_LINE
            + (slot % Self::SLOTS_PER_LINE) as u64 * 8
    }

    /// Address of the `idx`-th cache line of the region.
    #[must_use]
    pub fn line(&self, idx: u64) -> Addr {
        self.base + idx * CACHE_LINE
    }
}

/// One core's lookup machinery: core model, scratch working set, and
/// the backend dispatch logic shared by every datapath frontend.
#[derive(Debug)]
pub struct LookupExecutor {
    core: CoreId,
    core_model: CoreModel,
    scratch: Scratch,
    backend: LookupBackend,
    nb: Option<NbRegion>,
    /// Reusable program buffer: `run_sw` rebuilds the ~210-uop lookup
    /// program in place instead of allocating one per packet.
    prog_buf: Program,
}

impl LookupExecutor {
    /// Builds an executor on `core`: allocates its scratch working set
    /// (but does not warm it — call [`Self::warm_scratch`] for a warm
    /// start) and a fresh core model.
    #[must_use]
    pub fn new(sys: &mut MemorySystem, core: CoreId, backend: LookupBackend) -> Self {
        let scratch = Scratch::new(sys);
        LookupExecutor {
            core,
            core_model: CoreModel::new(core, sys.config()),
            scratch,
            backend,
            nb: None,
            prog_buf: Program::with_label("sw_lookup"),
        }
    }

    /// Pre-loads the scratch working set into this core's caches.
    pub fn warm_scratch(&self, sys: &mut MemorySystem) {
        self.scratch.warm(sys, self.core);
    }

    /// Attaches the non-blocking destination region (required before
    /// running [`LookupBackend::HaloNonBlocking`] searches).
    #[must_use]
    pub fn with_nb_region(mut self, nb: NbRegion) -> Self {
        self.nb = Some(nb);
        self
    }

    /// The backend this executor dispatches to.
    #[must_use]
    pub fn backend(&self) -> LookupBackend {
        self.backend
    }

    /// The core this executor runs on.
    #[must_use]
    pub fn core_id(&self) -> CoreId {
        self.core
    }

    /// When the core model retires its last in-flight instruction.
    #[must_use]
    pub fn ready_at(&self) -> Cycle {
        self.core_model.ready_at()
    }

    /// The scratch working set (for building filler programs).
    pub fn scratch_mut(&mut self) -> &mut Scratch {
        &mut self.scratch
    }

    /// Runs an arbitrary program on this core starting at `at`. Generic
    /// over the memory context so the same executor serves the classic
    /// sequential [`MemorySystem`] and an epoch-window shard.
    pub fn run<S: CoreMem>(&mut self, prog: &Program, sys: &mut S, at: Cycle) -> ExecReport {
        self.core_model.run(prog, sys, at)
    }

    /// Replays one lookup trace in software on the core: builds the
    /// standard lookup program (hash + probes + compares, with the key
    /// loaded from `key_addr` when given) into the executor's reusable
    /// buffer and times it. Returns the finish cycle.
    pub fn run_sw<S: CoreMem>(
        &mut self,
        sys: &mut S,
        trace: &LookupTrace,
        key_addr: Option<Addr>,
        at: Cycle,
    ) -> Cycle {
        build_sw_lookup_into(trace, &mut self.scratch, key_addr, &mut self.prog_buf);
        self.core_model.run(&self.prog_buf, sys, at).finish
    }

    /// Times a full wildcard search whose functional probes are
    /// already recorded in `probes` (from
    /// [`WildcardTable::classify_traced`]). Dispatches per the
    /// executor's backend:
    ///
    /// * [`LookupBackend::Software`] — each probe replayed sequentially
    ///   on the core.
    /// * [`LookupBackend::HaloBlocking`] — one `LOOKUP_B` per probe, the
    ///   core blocking on each.
    /// * [`LookupBackend::HaloNonBlocking`] — every probe issued
    ///   back-to-back as `LOOKUP_NB` into a distinct [`NbRegion`] slot,
    ///   then one `SNAPSHOT_READ` per touched destination line.
    ///
    /// Returns the cycle the search result is in hand.
    ///
    /// # Panics
    ///
    /// Panics if a HALO backend runs on an epoch shard or with `engine`
    /// `None`, or if the non-blocking backend runs without an
    /// [`NbRegion`] large enough for `probes`.
    pub fn search<S: CoreMem, W: WildcardTable + ?Sized>(
        &mut self,
        sys: &mut S,
        engine: Option<&mut HaloEngine>,
        space: &W,
        key: &FlowKey,
        probes: &[(usize, LookupTrace)],
        at: Cycle,
    ) -> Cycle {
        match self.backend {
            LookupBackend::Software => {
                let mut t = at;
                for (_, tr) in probes {
                    t = self.run_sw(sys, tr, None, t);
                }
                t
            }
            LookupBackend::HaloBlocking => {
                let sys = live(sys);
                let engine = engine.expect("HALO backend needs an engine");
                let base_hash = hash_key(key, SEED_PRIMARY);
                let mut t = at;
                for (k, (i, tr)) in probes.iter().enumerate() {
                    prefetch_probes(sys, probes, k);
                    let table_addr = Self::probe_addr(space, *i);
                    let h = base_hash ^ (*i as u64);
                    t = engine
                        .dispatch(sys, self.core, table_addr, tr, h, None, None, t)
                        .complete
                        + BLOCKING_RESUME;
                }
                t
            }
            LookupBackend::HaloNonBlocking => {
                let sys = live(sys);
                let engine = engine.expect("HALO backend needs an engine");
                let nb = self.nb.expect("non-blocking backend needs an NbRegion");
                // Issue every probed tuple at once (one per cycle);
                // results land in distinct destination words.
                let base_hash = hash_key(key, SEED_PRIMARY);
                let mut finish = at;
                for (slot, (i, tr)) in probes.iter().enumerate() {
                    prefetch_probes(sys, probes, slot);
                    let h = base_hash ^ (*i as u64);
                    let out = engine.dispatch(
                        sys,
                        self.core,
                        Self::probe_addr(space, *i),
                        tr,
                        h,
                        None,
                        Some(nb.dest(slot)),
                        at + Cycles(slot as u64),
                    );
                    finish = finish.max(out.complete);
                }
                // One SNAPSHOT_READ per destination line written.
                let lines = (probes.len() as u64).div_ceil(NbRegion::SLOTS_PER_LINE as u64);
                for l in 0..lines {
                    let (_, snap) = engine.snapshot_read(sys, self.core, nb.line(l), finish);
                    finish = snap;
                }
                finish
            }
        }
    }

    /// The dispatchable table address of probe slot `i` of `space`.
    ///
    /// # Panics
    ///
    /// Panics for backends without in-memory metadata (e.g. TCAM).
    fn probe_addr<W: WildcardTable + ?Sized>(space: &W, i: usize) -> Addr {
        space
            .probe_meta_addr(i)
            .expect("HALO dispatch needs an in-memory table")
    }
}

/// What one [`DatapathCore::classify`] call did and when.
#[derive(Debug, Clone, Copy)]
pub struct ClassifyOutcome {
    /// The matched action, if any layer hit.
    pub action: Option<u64>,
    /// The packet hit in the EMC (MegaFlow never searched).
    pub emc_hit: bool,
    /// The MegaFlow match, when the search ran and hit.
    pub megaflow: Option<RuleMatch>,
    /// Completion cycle of the EMC probe (None when the EMC layer is
    /// disabled).
    pub emc_done: Option<Cycle>,
    /// Completion cycle of the MegaFlow search (None on EMC hit).
    pub megaflow_done: Option<Cycle>,
    /// Cycle the classification result is in hand.
    pub done: Cycle,
}

/// The per-core classification stage: EMC probe → MegaFlow wildcard
/// search → EMC promotion, over any [`WildcardTable`] backend.
///
/// The single-core virtual switch, the multi-core PMD datapath, and the
/// NF workloads all drive this one implementation; only what surrounds
/// it (packet IO, upcalls, extra per-packet work) differs per frontend.
#[derive(Debug)]
pub struct DatapathCore {
    exec: LookupExecutor,
    emc: Option<Emc>,
    emc_backend: LookupBackend,
    emc_promotion: bool,
}

impl DatapathCore {
    /// Builds the stage from its parts. `emc_backend` may differ from
    /// the executor's search backend: multi-core datapaths probe their
    /// tiny private EMCs in software even when MegaFlow lookups are
    /// offloaded to HALO.
    #[must_use]
    pub fn new(
        exec: LookupExecutor,
        emc: Option<Emc>,
        emc_backend: LookupBackend,
        emc_promotion: bool,
    ) -> Self {
        DatapathCore {
            exec,
            emc,
            emc_backend,
            emc_promotion,
        }
    }

    /// The lookup executor (for filler programs and custom dispatch).
    pub fn exec_mut(&mut self) -> &mut LookupExecutor {
        &mut self.exec
    }

    /// The lookup executor, read-only.
    #[must_use]
    pub fn exec(&self) -> &LookupExecutor {
        &self.exec
    }

    /// The EMC layer, if enabled.
    #[must_use]
    pub fn emc(&self) -> Option<&Emc> {
        self.emc.as_ref()
    }

    /// Whether MegaFlow hits are promoted into the EMC.
    #[must_use]
    pub fn emc_promotion(&self) -> bool {
        self.emc_promotion
    }

    /// Pre-installs `key -> action` into the EMC regardless of the
    /// promotion policy (steady-state warm start).
    pub fn prime<M: MemCtx>(&mut self, mem: &mut M, key: &FlowKey, action: u64) {
        if let Some(emc) = &mut self.emc {
            emc.insert(mem, key, action);
        }
    }

    /// Promotes `key -> action` into the EMC if the policy allows it
    /// (used by slow-path upcalls, which install resolved flows through
    /// the same gate as MegaFlow hits).
    pub fn promote<M: MemCtx>(&mut self, mem: &mut M, key: &FlowKey, action: u64) {
        if self.emc_promotion {
            self.prime(mem, key, action);
        }
    }

    /// Drops `key` from the EMC, if cached — called on flow expiry so a
    /// torn-down rule's exact match cannot outlive the rule. Returns
    /// whether an entry was invalidated.
    pub fn invalidate<M: MemCtx>(&mut self, mem: &mut M, key: &FlowKey) -> bool {
        self.emc
            .as_mut()
            .is_some_and(|emc| emc.invalidate(mem, key))
    }

    /// Classifies one packet: EMC probe (skipped when disabled), then —
    /// on miss — the MegaFlow search via the executor's backend, then
    /// promotion of the hit per the policy. `key_addr` is the packet
    /// buffer the software EMC probe reloads the key from (None when
    /// the key is in registers).
    ///
    /// Generic over the memory context: the classic sequential
    /// [`MemorySystem`] or one epoch-window shard
    /// ([`halo_mem::EpochCore`]). The EMC probe and promotion go through
    /// the context's own byte store (in epoch mode the window's
    /// copy-on-write delta, so per-core EMC updates stay private until
    /// the barrier); the MegaFlow tables are read from
    /// [`CoreMem::base`] — the live store, or the frozen master
    /// snapshot, which is exact because control-plane writes only
    /// happen between windows.
    ///
    /// # Panics
    ///
    /// Panics if a HALO backend runs on an epoch shard (accelerator
    /// dispatch needs the whole machine) or with `engine` `None`.
    pub fn classify<S: CoreMem, W: WildcardTable + ?Sized>(
        &mut self,
        sys: &mut S,
        mut engine: Option<&mut HaloEngine>,
        megaflow: &W,
        key: &FlowKey,
        key_addr: Option<Addr>,
        at: Cycle,
    ) -> ClassifyOutcome {
        let mut t = at;
        let mut emc_done = None;

        if let Some(emc) = &self.emc {
            let trace = emc.lookup_traced(sys.data_mut(), key);
            let done = match self.emc_backend {
                LookupBackend::Software => self.exec.run_sw(sys, &trace, key_addr, t),
                LookupBackend::HaloBlocking | LookupBackend::HaloNonBlocking => {
                    let sys = live(sys);
                    let engine = engine.as_deref_mut().expect("HALO backend needs an engine");
                    let h = hash_key(key, SEED_PRIMARY);
                    let out = engine.dispatch(
                        sys,
                        self.exec.core,
                        emc.base_addr(),
                        &trace,
                        h,
                        None,
                        None,
                        t,
                    );
                    out.complete + BLOCKING_RESUME
                }
            };
            emc_done = Some(done);
            t = done;
            if let Some(v) = trace.result {
                sys.trace_span("datapath", "classify", at, t);
                return ClassifyOutcome {
                    action: Some(v),
                    emc_hit: true,
                    megaflow: None,
                    emc_done,
                    megaflow_done: None,
                    done: t,
                };
            }
        }

        let (m, probes) = megaflow.classify_traced(
            sys.base(),
            key,
            self.exec.backend == LookupBackend::Software,
        );
        let done = self.exec.search(sys, engine, megaflow, key, &probes, t);
        if let Some(hit) = &m {
            self.promote(sys.data_mut(), key, hit.action);
        }
        sys.trace_span("datapath", "classify", at, done);
        ClassifyOutcome {
            action: m.as_ref().map(|h| h.action),
            emc_hit: false,
            megaflow: m,
            emc_done,
            megaflow_done: Some(done),
            done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_classify::{distinct_masks, PacketHeader, SearchMode, WildcardMask};
    use halo_mem::MachineConfig;

    /// A first-match TSS MegaFlow layer of four tuples, and its masks.
    fn megaflow(sys: &mut MemorySystem) -> (WildcardMatcher, Vec<WildcardMask>) {
        let masks = distinct_masks(4);
        let table = WildcardBackend::Tss.build(
            sys.data_mut(),
            TableBackend::Cuckoo,
            &masks,
            256,
            SearchMode::FirstMatch,
        );
        (table, masks)
    }

    #[test]
    fn nb_region_slots_never_alias() {
        let mut mem = SimMemory::new();
        let nb = NbRegion::allocate(&mut mem, 12);
        assert_eq!(nb.lines(), 2);
        assert_eq!(nb.slots(), 16);
        let dests: Vec<Addr> = (0..12).map(|s| nb.dest(s)).collect();
        for (i, a) in dests.iter().enumerate() {
            for (j, b) in dests.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "slots {i} and {j} alias at {a:?}");
                }
            }
        }
        // Slot 11 sits on the second line — the old `slot % 8` single
        // line arithmetic would have put it on top of slot 3.
        assert_eq!(nb.dest(11), nb.line(1) + 3 * 8);
    }

    #[test]
    #[should_panic(expected = "outside region")]
    fn nb_region_rejects_out_of_range_slots() {
        let mut mem = SimMemory::new();
        let nb = NbRegion::allocate(&mut mem, 5);
        let _ = nb.dest(8);
    }

    #[test]
    fn one_line_region_matches_legacy_layout() {
        let mut mem = SimMemory::new();
        let nb = NbRegion::allocate(&mut mem, 5);
        assert_eq!(nb.lines(), 1);
        for s in 0..8 {
            assert_eq!(nb.dest(s), nb.base() + (s as u64 % 8) * 8);
        }
    }

    /// The datapath core promotes MegaFlow hits into the EMC only when
    /// the policy says so.
    #[test]
    fn promotion_policy_is_respected() {
        for promote in [true, false] {
            let mut sys = MemorySystem::new(MachineConfig::small());
            let exec = LookupExecutor::new(&mut sys, CoreId(0), LookupBackend::Software);
            let emc = Emc::new(sys.data_mut(), 1024);
            let (mut megaflow, masks) = megaflow(&mut sys);
            let key = PacketHeader::synthetic(3).miniflow();
            megaflow
                .insert_masked(sys.data_mut(), &masks[2], &key, 0, 7)
                .unwrap();
            let mut dp = DatapathCore::new(exec, Some(emc), LookupBackend::Software, promote);
            let first = dp.classify(&mut sys, None, &megaflow, &key, None, Cycle(0));
            assert_eq!(first.action, Some(7));
            assert!(!first.emc_hit);
            let second = dp.classify(&mut sys, None, &megaflow, &key, None, first.done);
            assert_eq!(second.action, Some(7));
            assert_eq!(
                second.emc_hit, promote,
                "promotion={promote} must gate the EMC hit"
            );
        }
    }

    /// With tracing enabled every classify call records one
    /// `("datapath", "classify")` span — EMC hits and MegaFlow walks
    /// alike — whose latency matches the outcome's cycle delta.
    #[test]
    fn classify_records_latency_spans_when_traced() {
        let mut sys = MemorySystem::new(MachineConfig::small());
        sys.enable_tracing(1024);
        let exec = LookupExecutor::new(&mut sys, CoreId(0), LookupBackend::Software);
        let emc = Emc::new(sys.data_mut(), 1024);
        let (mut megaflow, masks) = megaflow(&mut sys);
        let key = PacketHeader::synthetic(3).miniflow();
        megaflow
            .insert_masked(sys.data_mut(), &masks[2], &key, 0, 7)
            .unwrap();
        let mut dp = DatapathCore::new(exec, Some(emc), LookupBackend::Software, true);
        let mut t = Cycle(0);
        for _ in 0..10 {
            t = dp.classify(&mut sys, None, &megaflow, &key, None, t).done;
        }
        let h = sys
            .tracer()
            .histogram("datapath", "classify")
            .expect("classify spans recorded");
        assert_eq!(h.count(), 10);
        assert!(h.p99() > 0, "classify latency cannot be zero cycles");
    }

    /// Expiring a flow drops its EMC entry: the next packet walks
    /// MegaFlow again instead of hitting a stale cached action.
    #[test]
    fn invalidate_evicts_promoted_flows() {
        let mut sys = MemorySystem::new(MachineConfig::small());
        let exec = LookupExecutor::new(&mut sys, CoreId(0), LookupBackend::Software);
        let emc = Emc::new(sys.data_mut(), 1024);
        let (mut megaflow, masks) = megaflow(&mut sys);
        let key = PacketHeader::synthetic(3).miniflow();
        megaflow
            .insert_masked(sys.data_mut(), &masks[2], &key, 0, 7)
            .unwrap();
        let mut dp = DatapathCore::new(exec, Some(emc), LookupBackend::Software, true);
        let first = dp.classify(&mut sys, None, &megaflow, &key, None, Cycle(0));
        assert!(dp.invalidate(sys.data_mut(), &key), "promoted entry gone");
        megaflow.remove_masked(sys.data_mut(), &masks[2], &key);
        let after = dp.classify(&mut sys, None, &megaflow, &key, None, first.done);
        assert!(!after.emc_hit, "stale EMC entry survived expiry");
        assert_eq!(after.action, None, "expired flow must miss everywhere");
    }
}
