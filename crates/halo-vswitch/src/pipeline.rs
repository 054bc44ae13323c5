//! The OVS-style software datapath: packet IO → pre-processing →
//! EMC → MegaFlow → (OpenFlow), with per-phase cycle accounting.
//!
//! This is the workload of the paper's characterization (§3, Fig. 3) and
//! the system HALO plugs into. The classification stage itself (EMC +
//! MegaFlow + backend dispatch) is the shared [`DatapathCore`] from
//! `halo-datapath`; this module wraps it with packet IO, the pipeline
//! phase accounting, and the OpenFlow slow path.

use halo_accel::HaloEngine;
use halo_classify::{Emc, PacketHeader, RangeRule, RuleMatch, SearchMode, WildcardMask};
use halo_cpu::{ExecReport, Program};
use halo_datapath::{
    DatapathCore, LookupExecutor, NbRegion, TableBackend, TssRangeTable, WildcardBackend,
    WildcardError, WildcardMatcher, WildcardTable,
};
use halo_mem::{Addr, CoreId, MemorySystem, CACHE_LINE};
use halo_sim::{Cycle, Cycles};
use halo_tables::FlowKey;

pub use halo_datapath::LookupBackend;

/// Per-phase cycle totals (the Fig. 3 breakdown).
#[derive(Debug, Clone, Copy, Default)]
pub struct Breakdown {
    /// Packet transmission / reception / queueing.
    pub io: Cycles,
    /// Header extraction (miniflow).
    pub preproc: Cycles,
    /// EMC lookup.
    pub emc: Cycles,
    /// MegaFlow tuple space search.
    pub megaflow: Cycles,
    /// OpenFlow slow-path search + MegaFlow rule installation (upcalls).
    pub openflow: Cycles,
    /// Everything else (action execution, bookkeeping).
    pub other: Cycles,
}

impl Breakdown {
    /// Sum of all phases.
    #[must_use]
    pub fn total(&self) -> Cycles {
        self.io + self.preproc + self.emc + self.megaflow + self.openflow + self.other
    }

    /// Fraction of time spent in flow classification (EMC + MegaFlow).
    #[must_use]
    pub fn classification_fraction(&self) -> f64 {
        let t = self.total().0;
        if t == 0 {
            0.0
        } else {
            (self.emc + self.megaflow + self.openflow).0 as f64 / t as f64
        }
    }

    /// Accumulates another breakdown into this one (e.g. summing the
    /// per-core datapath threads of a multi-core switch).
    pub fn add(&mut self, other: &Breakdown) {
        self.io += other.io;
        self.preproc += other.preproc;
        self.emc += other.emc;
        self.megaflow += other.megaflow;
        self.openflow += other.openflow;
        self.other += other.other;
    }
}

/// Configuration of the virtual switch instance.
#[derive(Debug, Clone)]
pub struct SwitchConfig {
    /// EMC slots (power of two); 0 disables the EMC layer.
    pub emc_entries: usize,
    /// Wildcard masks of the MegaFlow layer (one tuple each).
    pub megaflow_masks: Vec<WildcardMask>,
    /// Rule capacity per MegaFlow tuple.
    pub megaflow_capacity: usize,
    /// Which backend performs the lookups.
    pub backend: LookupBackend,
    /// Which wildcard-table implementation backs the MegaFlow layer
    /// (tuple space search or range-vector hashing).
    pub wildcard_backend: WildcardBackend,
    /// Promote MegaFlow hits into the EMC (OVS behaviour).
    pub emc_promotion: bool,
    /// Rule capacity per OpenFlow tuple; 0 disables the OpenFlow
    /// slow-path layer. When enabled, MegaFlow misses fall through to a
    /// priority search over the full rule set, and the winning rule is
    /// installed back into the MegaFlow layer (the upcall of Fig. 2a).
    /// Disabled by default: the paper notes the OpenFlow layer is
    /// seldom accessed in practice (§3.1).
    pub openflow_capacity: usize,
}

impl SwitchConfig {
    /// A typical OVS configuration with `masks` MegaFlow tuples.
    #[must_use]
    pub fn typical(masks: usize, backend: LookupBackend) -> Self {
        SwitchConfig {
            emc_entries: 8192,
            megaflow_masks: halo_classify::distinct_masks(masks),
            megaflow_capacity: 1024,
            backend,
            wildcard_backend: WildcardBackend::default(),
            emc_promotion: true,
            openflow_capacity: 0,
        }
    }
}

/// Counters of where packets were classified.
#[derive(Debug, Clone, Copy, Default)]
pub struct SwitchCounters {
    /// Packets processed.
    pub packets: u64,
    /// Hits in the EMC layer.
    pub emc_hits: u64,
    /// Hits in the MegaFlow layer.
    pub megaflow_hits: u64,
    /// Packets resolved by the OpenFlow slow path (upcalls).
    pub openflow_hits: u64,
    /// Packets matching no rule.
    pub misses: u64,
}

/// Fixed cycle cost of installing an upcall-resolved rule into the
/// MegaFlow layer (flow_add bookkeeping in the revalidator).
const UPCALL_INSTALL_CYCLES: u64 = 600;

/// Ring of packet-buffer lines (NIC RX descriptors, delivered by DDIO
/// into the LLC).
#[derive(Debug)]
struct PacketRing {
    base: Addr,
    slots: u64,
    next: u64,
}

impl PacketRing {
    const SLOTS: u64 = 64;

    fn new(sys: &mut MemorySystem) -> Self {
        let base = sys.data_mut().alloc_lines(Self::SLOTS * CACHE_LINE);
        PacketRing {
            base,
            slots: Self::SLOTS,
            next: 0,
        }
    }

    /// Returns the buffer for the next received packet, DDIO-delivering
    /// it into the LLC.
    fn receive(&mut self, sys: &mut MemorySystem, header: &PacketHeader) -> Addr {
        let a = self.base + (self.next % self.slots) * CACHE_LINE;
        self.next += 1;
        sys.data_mut().write_bytes(a, header.miniflow().as_bytes());
        sys.dma_write(a);
        a
    }
}

/// An OVS-like virtual switch bound to one core.
///
/// # Examples
///
/// ```
/// use halo_vswitch::{LookupBackend, SwitchConfig, VirtualSwitch};
/// use halo_classify::PacketHeader;
/// use halo_mem::{CoreId, MachineConfig, MemorySystem};
/// use halo_sim::Cycle;
///
/// let mut sys = MemorySystem::new(MachineConfig::small());
/// let cfg = SwitchConfig::typical(5, LookupBackend::Software);
/// let mut vs = VirtualSwitch::new(&mut sys, CoreId(0), cfg);
/// let pkt = PacketHeader::synthetic(1);
/// vs.install_flow(&mut sys, &pkt.miniflow(), 2, 0, 99).unwrap();
/// let (action, _done) = vs.process_packet(&mut sys, None, &pkt, Cycle(0));
/// assert_eq!(action, Some(99));
/// ```
#[derive(Debug)]
pub struct VirtualSwitch {
    dp: DatapathCore,
    megaflow: WildcardMatcher,
    /// MegaFlow mask list, indexed by the `tuple_idx` of the install
    /// API (and of OpenFlow rule matches during upcalls).
    masks: Vec<WildcardMask>,
    /// The OpenFlow slow path: one tuple per MegaFlow mask, in the same
    /// order, so a hit's `tuple` indexes `masks`.
    openflow: Option<TssRangeTable>,
    ring: PacketRing,
    /// The fixed phase programs, rebuilt in place for every phase so
    /// packets allocate nothing.
    phase_buf: Program,
    breakdown: Breakdown,
    counters: SwitchCounters,
}

impl VirtualSwitch {
    /// Builds the switch and its tables in `sys`'s memory.
    pub fn new(sys: &mut MemorySystem, core: CoreId, cfg: SwitchConfig) -> Self {
        let exec = LookupExecutor::new(sys, core, cfg.backend);
        exec.warm_scratch(sys);
        let emc = if cfg.emc_entries > 0 {
            Some(Emc::new(sys.data_mut(), cfg.emc_entries))
        } else {
            None
        };
        let nmasks = cfg.megaflow_masks.len();
        let megaflow = cfg.wildcard_backend.build(
            sys.data_mut(),
            TableBackend::Cuckoo,
            &cfg.megaflow_masks,
            cfg.megaflow_capacity,
            SearchMode::FirstMatch,
        );
        let openflow = (cfg.openflow_capacity > 0).then(|| {
            TssRangeTable::with_masks(
                sys.data_mut(),
                TableBackend::Cuckoo,
                &cfg.megaflow_masks,
                cfg.openflow_capacity,
                SearchMode::HighestPriority,
            )
        });
        let ring = PacketRing::new(sys);
        // NB destination lines, sized so a search probing every probe
        // slot still gets one result word per in-flight lookup.
        let nb = NbRegion::allocate(sys.data_mut(), megaflow.probes().max(nmasks));
        let exec = exec.with_nb_region(nb);
        VirtualSwitch {
            dp: DatapathCore::new(exec, emc, cfg.backend, cfg.emc_promotion),
            megaflow,
            masks: cfg.megaflow_masks,
            openflow,
            ring,
            phase_buf: Program::new(),
            breakdown: Breakdown::default(),
            counters: SwitchCounters::default(),
        }
    }

    /// The MegaFlow wildcard table (for inspection).
    #[must_use]
    pub fn megaflow(&self) -> &WildcardMatcher {
        &self.megaflow
    }

    /// Accumulated per-phase cycles.
    #[must_use]
    pub fn breakdown(&self) -> &Breakdown {
        &self.breakdown
    }

    /// Classification counters.
    #[must_use]
    pub fn counters(&self) -> &SwitchCounters {
        &self.counters
    }

    /// Average cycles per packet so far.
    #[must_use]
    pub fn cycles_per_packet(&self) -> f64 {
        if self.counters.packets == 0 {
            0.0
        } else {
            self.breakdown.total().0 as f64 / self.counters.packets as f64
        }
    }

    /// Installs a flow rule under the mask of MegaFlow tuple
    /// `tuple_idx`, returning the `(priority, action)` it replaced if
    /// the masked key was already installed.
    ///
    /// # Errors
    ///
    /// [`WildcardError::UnknownMask`] when `tuple_idx` names no
    /// configured mask (or the active backend cannot represent it),
    /// otherwise the backend's insertion error (full table or an
    /// action outside the 48-bit encodable range).
    pub fn install_flow(
        &mut self,
        sys: &mut MemorySystem,
        key: &FlowKey,
        tuple_idx: usize,
        priority: u16,
        action: u64,
    ) -> Result<Option<(u16, u64)>, WildcardError> {
        let mask = self
            .masks
            .get(tuple_idx)
            .ok_or(WildcardError::UnknownMask)?;
        self.megaflow
            .insert_masked(sys.data_mut(), mask, key, priority, action)
    }

    /// Installs a per-field range rule into the MegaFlow layer.
    ///
    /// # Errors
    ///
    /// [`WildcardError::UnsupportedRanges`] on the TSS backend, whose
    /// MegaFlow layer searches first-match (RVH accepts range rules);
    /// otherwise as [`Self::install_flow`].
    pub fn install_range_rule(
        &mut self,
        sys: &mut MemorySystem,
        rule: &RangeRule,
    ) -> Result<Option<(u16, u64)>, WildcardError> {
        self.megaflow.insert_range(sys.data_mut(), rule)
    }

    /// Installs a rule into the OpenFlow slow-path layer under the mask
    /// of tuple `tuple_idx`, returning the `(priority, action)` it
    /// replaced, if any.
    ///
    /// # Errors
    ///
    /// As [`Self::install_flow`].
    ///
    /// # Panics
    ///
    /// Panics if the switch was built without the OpenFlow layer
    /// (`openflow_capacity == 0`).
    pub fn install_openflow_rule(
        &mut self,
        sys: &mut MemorySystem,
        key: &FlowKey,
        tuple_idx: usize,
        priority: u16,
        action: u64,
    ) -> Result<Option<(u16, u64)>, WildcardError> {
        let mask = self
            .masks
            .get(tuple_idx)
            .ok_or(WildcardError::UnknownMask)?;
        self.openflow
            .as_mut()
            .expect("switch built without the OpenFlow layer")
            .insert_masked(sys.data_mut(), mask, key, priority, action)
    }

    /// Pre-installs `key -> action` into the EMC (steady-state warm
    /// start: in a long-running switch the EMC already holds the
    /// hottest flows; without this, short measurement windows see only
    /// cold-start misses).
    pub fn prime_emc(&mut self, sys: &mut MemorySystem, key: &FlowKey, action: u64) {
        self.dp.prime(sys.data_mut(), key, action);
    }

    /// Pre-loads all switch tables into the LLC (warm start, as after
    /// the 10 K warm-up lookups of §5.2).
    pub fn warm_tables(&self, sys: &mut MemorySystem) {
        if let Some(emc) = self.dp.emc() {
            for a in emc.all_lines().collect::<Vec<_>>() {
                sys.warm_llc(a);
            }
        }
        let openflow = self.openflow.iter().flat_map(WildcardTable::memory_lines);
        for a in self.megaflow.memory_lines().into_iter().chain(openflow) {
            sys.warm_llc(a);
        }
    }

    /// Runs a filler program for one fixed pipeline phase: `uops`
    /// micro-ops with a sprinkling of buffer loads, built into the
    /// switch's reusable phase buffer.
    fn run_phase(
        &mut self,
        sys: &mut MemorySystem,
        loads: &[Addr],
        uops: usize,
        at: Cycle,
    ) -> ExecReport {
        let p = &mut self.phase_buf;
        p.clear();
        for &a in loads {
            p.load(a, &[]);
        }
        let exec = self.dp.exec_mut();
        let scratch = exec.scratch_mut();
        let n_loads = (uops / 5).saturating_sub(loads.len());
        for _ in 0..n_loads {
            p.load(scratch.next(), &[]);
        }
        p.compute_run(1, uops - uops / 5 - loads.len().min(uops));
        exec.run(p, sys, at)
    }

    /// Processes one packet. `engine` must be provided for the HALO
    /// backends. Returns the matched action (if any) and the completion
    /// cycle.
    ///
    /// # Panics
    ///
    /// Panics if a HALO backend is configured but `engine` is `None`.
    pub fn process_packet(
        &mut self,
        sys: &mut MemorySystem,
        engine: Option<&mut HaloEngine>,
        header: &PacketHeader,
        at: Cycle,
    ) -> (Option<u64>, Cycle) {
        self.counters.packets += 1;
        let key = header.miniflow();

        // --- Packet IO (RX + queueing): DDIO delivery + driver work. ---
        let buf = self.ring.receive(sys, header);
        let r = self.run_phase(sys, &[buf], 440, at);
        let mut t = r.finish;
        self.breakdown.io += r.duration();
        if sys.trace_enabled() {
            sys.trace_span("vswitch", "io", at, t);
        }

        // --- Pre-processing: miniflow extraction over the header. ------
        let pre_start = t;
        let r = self.run_phase(sys, &[buf], 170, t);
        t = r.finish;
        self.breakdown.preproc += r.duration();
        if sys.trace_enabled() {
            sys.trace_span("vswitch", "preproc", pre_start, t);
        }

        // --- Classification: EMC → MegaFlow via the shared core. --------
        let out = self
            .dp
            .classify(sys, engine, &self.megaflow, &key, Some(buf), t);
        let mut action = out.action;
        if let Some(done) = out.emc_done {
            self.breakdown.emc += done - t;
            if sys.trace_enabled() {
                sys.trace_span("vswitch", "emc", t, done);
            }
            t = done;
        }
        if out.emc_hit {
            self.counters.emc_hits += 1;
        } else {
            let done = out.megaflow_done.expect("MegaFlow searched on EMC miss");
            self.breakdown.megaflow += done - t;
            if sys.trace_enabled() {
                sys.trace_span("vswitch", "megaflow", t, done);
            }
            t = done;
            if out.megaflow.is_some() {
                self.counters.megaflow_hits += 1;
            } else if let Some(openflow) = &self.openflow {
                // --- OpenFlow slow path (upcall): a priority search over
                // every tuple, then install the winning rule into the
                // MegaFlow layer so later packets of the flow stay fast.
                let (of_match, of_probes) = openflow.classify_traced(
                    sys.data_mut(),
                    &key,
                    self.dp.exec().backend() == LookupBackend::Software,
                );
                let mut tt = t;
                // The slow path always runs in software (OVS upcalls are
                // handler-thread work), plus a fixed rule-install cost.
                for (_, tr) in &of_probes {
                    tt = self.dp.exec_mut().run_sw(sys, tr, None, tt);
                }
                if let Some(hit) = of_match {
                    self.counters.openflow_hits += 1;
                    action = Some(hit.action);
                    // Install the resolved flow into MegaFlow (the
                    // revalidator's handiwork), modeled as a fixed
                    // upcall/installation overhead.
                    let _ = self.megaflow.insert_masked(
                        sys.data_mut(),
                        &self.masks[hit.tuple],
                        &key,
                        0,
                        hit.action,
                    );
                    tt += Cycles(UPCALL_INSTALL_CYCLES);
                    self.dp.promote(sys.data_mut(), &key, hit.action);
                } else {
                    self.counters.misses += 1;
                }
                self.breakdown.openflow += tt - t;
                if sys.trace_enabled() {
                    sys.trace_span("vswitch", "openflow", t, tt);
                }
                t = tt;
            } else {
                self.counters.misses += 1;
            }
        }

        // --- Action execution + bookkeeping. ------------------------------
        let other_start = t;
        let r = self.run_phase(sys, &[], 140, t);
        self.breakdown.other += r.duration();
        t = r.finish;
        if sys.trace_enabled() {
            sys.trace_span("vswitch", "other", other_start, t);
        }

        (action, t)
    }

    /// Processes a burst of packets back-to-back: each packet starts at
    /// the previous packet's completion cycle (the first at `at`).
    /// Appends one `(action, completion)` pair per packet to `out` and
    /// returns the completion cycle of the last packet.
    ///
    /// This is a plain loop over [`process_packet`](Self::process_packet)
    /// and saves nothing per burst; it exists as a convenience for bulk
    /// drivers (benchmarks, the perfbench pipeline workload).
    pub fn process_burst(
        &mut self,
        sys: &mut MemorySystem,
        mut engine: Option<&mut HaloEngine>,
        headers: &[PacketHeader],
        at: Cycle,
        out: &mut Vec<(Option<u64>, Cycle)>,
    ) -> Cycle {
        out.reserve(headers.len());
        let mut t = at;
        for h in headers {
            let (action, done) = self.process_packet(sys, engine.as_deref_mut(), h, t);
            out.push((action, done));
            t = done;
        }
        t
    }

    /// Classifies without timing (functional check / oracle).
    #[must_use]
    pub fn classify_functional(
        &self,
        sys: &mut MemorySystem,
        header: &PacketHeader,
    ) -> Option<RuleMatch> {
        self.megaflow.classify(sys.data_mut(), &header.miniflow())
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use halo_mem::MachineConfig;

    /// With tracing on, every packet contributes one span per pipeline
    /// phase, and the phase histograms sum to the breakdown totals.
    #[test]
    fn tracing_records_per_phase_spans() {
        let mut sys = MemorySystem::new(MachineConfig::small());
        sys.enable_tracing(1 << 12);
        let cfg = SwitchConfig::typical(5, LookupBackend::Software);
        let mut vs = VirtualSwitch::new(&mut sys, CoreId(0), cfg);
        let pkt = PacketHeader::synthetic(1);
        vs.install_flow(&mut sys, &pkt.miniflow(), 2, 0, 99)
            .unwrap();
        let mut t = Cycle(0);
        for _ in 0..4 {
            let (action, done) = vs.process_packet(&mut sys, None, &pkt, t);
            assert_eq!(action, Some(99));
            t = done;
        }
        let tr = sys.tracer();
        for phase in ["io", "preproc", "emc", "other"] {
            let h = tr
                .histogram("vswitch", phase)
                .unwrap_or_else(|| panic!("missing {phase} spans"));
            assert_eq!(h.count(), 4, "{phase}: one span per packet");
        }
        // Only the first packet misses the EMC and searches MegaFlow;
        // the hit is then promoted, so later packets stop at the EMC.
        assert_eq!(
            tr.histogram("vswitch", "megaflow").map(|h| h.count()),
            Some(1)
        );
        // Phase spans cover the whole packet: phases are contiguous in
        // `t`, so the summed span durations equal the breakdown total.
        let spanned: u64 = ["io", "preproc", "emc", "megaflow", "other"]
            .iter()
            .map(|p| tr.histogram("vswitch", p).unwrap().sum())
            .sum();
        assert_eq!(spanned, vs.breakdown().total().0);
    }
}
