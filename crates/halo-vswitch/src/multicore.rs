//! A multi-core datapath: several polling threads share one MegaFlow
//! tuple space (the §3.4 setting — shared tables, core-to-core
//! coherence traffic, software locking) while keeping per-core EMCs,
//! exactly like OVS-DPDK PMD threads.
//!
//! Each PMD thread is one [`DatapathCore`] — the same EMC → MegaFlow →
//! backend-dispatch stage the single-core switch runs — so the two
//! datapaths cannot drift apart behaviorally. Per-core EMC probes
//! always run in software (they are tiny and private); only the shared
//! MegaFlow search is offloaded to HALO.
//!
//! Used by the scalability experiment: aggregate classification
//! throughput as the datapath grows from 1 to 16 cores, software vs
//! HALO lookups, with optional rule churn from a revalidator thread.

use halo_accel::HaloEngine;
use halo_classify::{distinct_masks, Emc, PacketHeader, SearchMode, WildcardMask};
use halo_datapath::{
    DatapathCore, LookupExecutor, NbRegion, TableBackend, TrafficEvent, WildcardBackend,
    WildcardMatcher, WildcardTable,
};
use halo_mem::{CoreId, CoreMem, EpochCore, MemorySystem, WindowOutcome, CACHE_LINE};
use halo_sim::{par_map, Cycle, SplitMix64};
use halo_tables::{hash_key, SEED_PRIMARY};

use crate::pipeline::LookupBackend;

/// Configuration of a multi-core datapath.
#[derive(Debug, Clone)]
pub struct MultiCoreConfig {
    /// PMD (poll-mode-driver) threads.
    pub cores: usize,
    /// Shared MegaFlow tuples.
    pub tuples: usize,
    /// Flow rules spread across the tuples.
    pub flows: usize,
    /// Backend for the shared MegaFlow search (per-core EMC probes
    /// always run in software).
    pub backend: LookupBackend,
    /// Exact-match implementation backing every MegaFlow tuple
    /// (baseline cuckoo by default, preserving historical figures).
    pub table_backend: TableBackend,
    /// Wildcard-table implementation of the shared MegaFlow layer
    /// (tuple space search by default, preserving historical figures).
    pub wildcard_backend: WildcardBackend,
    /// Seed of the packet-arrival stream.
    pub seed: u64,
    /// Promote MegaFlow hits into the per-core EMC (OVS behaviour;
    /// on by default, matching the single-core switch).
    pub emc_promotion: bool,
}

impl MultiCoreConfig {
    /// The standard configuration used by [`MultiCoreDatapath::new`].
    #[must_use]
    pub fn new(
        cores: usize,
        tuples: usize,
        flows: usize,
        backend: LookupBackend,
        seed: u64,
    ) -> Self {
        MultiCoreConfig {
            cores,
            tuples,
            flows,
            backend,
            table_backend: TableBackend::Cuckoo,
            wildcard_backend: WildcardBackend::default(),
            seed,
            emc_promotion: true,
        }
    }
}

/// One PMD thread's private state: its datapath core plus bookkeeping.
#[derive(Debug)]
struct PmdThread {
    dp: DatapathCore,
    clock: Cycle,
    packets: u64,
}

impl PmdThread {
    /// Classifies one packet of `flow` at this PMD's clock, on either
    /// executor's memory context, and advances the clock. Returns
    /// whether any layer matched.
    fn step<S: CoreMem>(
        &mut self,
        sys: &mut S,
        engine: Option<&mut HaloEngine>,
        megaflow: &WildcardMatcher,
        flow: u64,
    ) -> bool {
        let key = PacketHeader::synthetic(flow).miniflow();
        self.packets += 1;
        let out = self
            .dp
            .classify(sys, engine, megaflow, &key, None, self.clock);
        self.clock = out.done;
        out.action.is_some()
    }
}

/// A multi-core OVS-DPDK-style datapath over a shared MegaFlow layer.
///
/// # Examples
///
/// ```
/// use halo_mem::{MachineConfig, MemorySystem};
/// use halo_vswitch::{LookupBackend, MultiCoreDatapath};
///
/// let mut sys = MemorySystem::new(MachineConfig::default());
/// let mut dp = MultiCoreDatapath::new(&mut sys, 4, 5, 2_000, LookupBackend::Software, 7);
/// let report = dp.run(&mut sys, None, 400, 0);
/// assert_eq!(report.packets, 400);
/// assert!(report.throughput_per_kcy > 0.0);
/// ```
#[derive(Debug)]
pub struct MultiCoreDatapath {
    pmds: Vec<PmdThread>,
    megaflow: WildcardMatcher,
    /// MegaFlow mask list; rules placed by `flow % masks.len()`.
    masks: Vec<WildcardMask>,
    flows: u64,
    rng: SplitMix64,
}

/// Aggregate result of a multi-core run.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamReport {
    /// Datapath threads used.
    pub cores: usize,
    /// Packets classified.
    pub packets: u64,
    /// Packets no layer matched (flood flows, rejected installs).
    pub misses: u64,
    /// Rules installed by flow arrivals.
    pub arrivals: u64,
    /// Rules torn down by flow expiries.
    pub expiries: u64,
    /// Arrival installs the tuple's table refused (capacity pressure
    /// under displacement storms — counted, not fatal, like OVS
    /// upcall drops).
    pub rejected_installs: u64,
    /// Wall-clock cycles (max over core clocks).
    pub cycles: u64,
    /// Aggregate packets per kilocycle.
    pub throughput_per_kcy: f64,
    /// Remote-dirty cache-line transfers observed (coherence traffic).
    pub dirty_transfers: u64,
}

// The scaling sweep runs whole `MultiCoreDatapath` experiments on
// worker threads, so the datapath (and the report it produces) must be
// `Send`. All state is owned values — `Vec`s, `SplitMix64`, the tuple
// space over plain simulated memory — with no interior mutability or
// shared handles; this assertion keeps it that way.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<MultiCoreDatapath>();
    assert_send::<StreamReport>();
    // The epoch executor additionally shares the datapath's tuple
    // space immutably across worker threads and moves per-core window
    // jobs onto them, so the datapath must also be `Sync` and the jobs
    // `Send`.
    assert_sync::<MultiCoreDatapath>();
    assert_sync::<StreamReport>();
    assert_send::<WindowJob<'static>>();
};

/// Packets per window when no control step bounds one sooner. Any
/// fixed value yields the same observable results at every thread
/// count; this one bounds the per-window event-log memory while
/// keeping barrier overhead small.
const WINDOW_PKTS: usize = 1024;

/// One step of a run: a traffic event, or
/// [`run`](MultiCoreDatapath::run)'s periodic revalidator churn.
enum Step {
    /// A packet, arrival or expiry from the caller's stream.
    Event(TrafficEvent),
    /// Revalidator stores to every probe's version line, timed at the
    /// clock of the PMD owning this flow (the next packet's).
    Churn(u64),
}

/// How a run executes its packet windows.
enum Executor<'a> {
    /// Each packet classified in schedule order straight against the
    /// master memory system, with an optional HALO engine; tracing
    /// works.
    Classic(Option<&'a mut HaloEngine>),
    /// Epoch-parallel windows on `threads` OS threads; `hook` observes
    /// the master system after every merge.
    Epoch {
        threads: usize,
        hook: &'a mut dyn FnMut(&MemorySystem),
    },
}

/// One core's work for one epoch window: its memory-system shard, its
/// PMD state, and the flows RSS assigned to it this window.
struct WindowJob<'a> {
    shard: EpochCore<'a>,
    pmd: &'a mut PmdThread,
    flows: Vec<u64>,
}

/// Runs one core's window to completion: every packet classified
/// against the core's private shard, clock and counters advancing
/// locally. Pure in the shared state — identical inputs give identical
/// outcomes no matter which OS thread evaluates it. Returns the
/// outcome to merge plus how many packets matched.
fn exec_window(job: WindowJob<'_>, megaflow: &WildcardMatcher) -> (WindowOutcome, u64) {
    let WindowJob {
        mut shard,
        pmd,
        flows,
    } = job;
    let mut matched = 0u64;
    for &flow in &flows {
        matched += u64::from(pmd.step(&mut shard, None, megaflow, flow));
    }
    (shard.finish(), matched)
}

impl MultiCoreDatapath {
    /// Builds a datapath with `cores` PMD threads over `tuples` shared
    /// MegaFlow tuples holding `flows` rules.
    ///
    /// # Panics
    ///
    /// Panics if `cores` exceeds the machine's core count.
    pub fn new(
        sys: &mut MemorySystem,
        cores: usize,
        tuples: usize,
        flows: usize,
        backend: LookupBackend,
        seed: u64,
    ) -> Self {
        Self::with_config(
            sys,
            MultiCoreConfig::new(cores, tuples, flows, backend, seed),
        )
    }

    /// Builds a datapath from a full [`MultiCoreConfig`].
    ///
    /// # Panics
    ///
    /// Panics if `cfg.cores` exceeds the machine's core count.
    pub fn with_config(sys: &mut MemorySystem, cfg: MultiCoreConfig) -> Self {
        let MultiCoreConfig {
            cores,
            tuples,
            flows,
            backend,
            table_backend,
            wildcard_backend,
            seed,
            emc_promotion,
        } = cfg;
        assert!(cores <= sys.config().cores, "not enough cores");
        // Each tuple holds its share of the flows plus 512 slots of
        // headroom, on whichever backend the config selects.
        let entries_per_tuple = flows / tuples + 512;
        let masks = distinct_masks(tuples);
        let mut megaflow = wildcard_backend.build(
            sys.data_mut(),
            table_backend,
            &masks,
            entries_per_tuple,
            SearchMode::FirstMatch,
        );
        for f in 0..flows as u64 {
            let key = PacketHeader::synthetic(f).miniflow();
            megaflow
                .insert_masked(
                    sys.data_mut(),
                    &masks[(f % tuples as u64) as usize],
                    &key,
                    0,
                    f,
                )
                .expect("tuple sized for its share");
        }
        for a in megaflow.memory_lines() {
            sys.warm_llc(a);
        }
        let parts: Vec<(LookupExecutor, Emc)> = (0..cores)
            .map(|c| {
                let core = CoreId(c);
                let exec = LookupExecutor::new(sys, core, backend);
                exec.warm_scratch(sys);
                let emc = Emc::new(sys.data_mut(), 1024);
                (exec, emc)
            })
            .collect();
        // One NB destination block, carved into per-core regions each
        // sized for the full probe-slot count, so concurrent lookups
        // never alias — neither across cores nor across a core's own
        // probes.
        let lines_per_core = NbRegion::lines_for(megaflow.probes().max(tuples));
        let nb_base = sys
            .data_mut()
            .alloc_lines(lines_per_core * CACHE_LINE * cores as u64);
        let slots_per_core = (lines_per_core as usize) * NbRegion::SLOTS_PER_LINE;
        let pmds = parts
            .into_iter()
            .enumerate()
            .map(|(p, (exec, emc))| {
                let nb = NbRegion::from_raw(
                    nb_base + p as u64 * lines_per_core * CACHE_LINE,
                    slots_per_core,
                );
                PmdThread {
                    dp: DatapathCore::new(
                        exec.with_nb_region(nb),
                        Some(emc),
                        LookupBackend::Software,
                        emc_promotion,
                    ),
                    clock: Cycle::ZERO,
                    packets: 0,
                }
            })
            .collect();
        MultiCoreDatapath {
            pmds,
            megaflow,
            masks,
            flows: flows as u64,
            rng: SplitMix64::new(seed),
        }
    }

    /// Number of PMD threads.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.pmds.len()
    }

    /// Runs `packets` packets spread across the PMDs by flow hash (RSS),
    /// with a revalidator relocating a rule every `churn_every` packets
    /// (0 disables churn). Returns the aggregate report.
    pub fn run(
        &mut self,
        sys: &mut MemorySystem,
        engine: Option<&mut HaloEngine>,
        packets: u64,
        churn_every: u64,
    ) -> StreamReport {
        self.run_rss(sys, Executor::Classic(engine), packets, churn_every)
    }

    /// Runs a streaming workload: packets are classified exactly as in
    /// [`run`](MultiCoreDatapath::run) (RSS by flow hash), while
    /// arrival/expiry events drive the control plane — rule inserts and
    /// removes on the shared MegaFlow tables (cuckoo displacement,
    /// Cuckoo++ filter reversal, EMOMA re-homing under churn), per-core
    /// EMC invalidation on expiry, and revalidator version-line stores
    /// for the coherence traffic every table write implies.
    ///
    /// Events come from any iterator — typically a
    /// `StreamingTrafficGen` from `halo-nf` mapped through
    /// `next_event` — so the datapath stays decoupled from the
    /// generator. Cost per event is O(1) in the live-flow count.
    pub fn run_stream(
        &mut self,
        sys: &mut MemorySystem,
        engine: Option<&mut HaloEngine>,
        events: impl IntoIterator<Item = TrafficEvent>,
    ) -> StreamReport {
        self.drive(
            sys,
            Executor::Classic(engine),
            events.into_iter().map(Step::Event),
        )
    }

    /// [`run`](Self::run)'s workload under the epoch-parallel executor:
    /// packets execute in bounded windows on `threads` OS threads, and
    /// every churn point closes a window so its stores hit the merged
    /// master state. `barrier_hook` observes the master system after
    /// every window merge, fully consistent, where auditors can run.
    ///
    /// Byte-identical for every `threads` value (`threads = 1` runs the
    /// same windows inline); its own deterministic interleaving, not
    /// required to match [`run`](Self::run)'s.
    ///
    /// # Panics
    ///
    /// Panics if a HALO backend is configured or tracing is enabled.
    pub fn run_parallel_with(
        &mut self,
        sys: &mut MemorySystem,
        packets: u64,
        churn_every: u64,
        threads: usize,
        barrier_hook: &mut dyn FnMut(&MemorySystem),
    ) -> StreamReport {
        let exec = Executor::Epoch {
            threads,
            hook: barrier_hook,
        };
        self.run_rss(sys, exec, packets, churn_every)
    }

    /// [`run_stream`](Self::run_stream)'s workload under the
    /// epoch-parallel executor, as [`run_parallel_with`](Self::run_parallel_with)
    /// runs [`run`](Self::run)'s: every arrival or expiry closes a
    /// window and applies between windows. Byte-identical for every
    /// `threads` value.
    ///
    /// # Panics
    ///
    /// Panics if a HALO backend is configured or tracing is enabled.
    pub fn run_stream_parallel_with(
        &mut self,
        sys: &mut MemorySystem,
        events: impl IntoIterator<Item = TrafficEvent>,
        threads: usize,
        barrier_hook: &mut dyn FnMut(&MemorySystem),
    ) -> StreamReport {
        let exec = Executor::Epoch {
            threads,
            hook: barrier_hook,
        };
        self.drive(sys, exec, events.into_iter().map(Step::Event))
    }

    /// Per-PMD packet counts (for load-balance checks).
    #[must_use]
    pub fn per_core_packets(&self) -> Vec<u64> {
        self.pmds.iter().map(|p| p.packets).collect()
    }

    /// [`run`](Self::run)'s schedule: `packets` flows drawn from the
    /// datapath's RNG, a churn step before every `churn_every`-th.
    fn run_rss(
        &mut self,
        sys: &mut MemorySystem,
        exec: Executor<'_>,
        packets: u64,
        churn_every: u64,
    ) -> StreamReport {
        let mut rng = self.rng.clone();
        let flows = self.flows;
        let steps = (0..packets).flat_map(|i| {
            let flow = rng.below(flows);
            let churn = (churn_every > 0 && i % churn_every == 0).then_some(Step::Churn(flow));
            churn
                .into_iter()
                .chain([Step::Event(TrafficEvent::Packet(flow))])
        });
        let report = self.drive(sys, exec, steps);
        self.rng = rng;
        report
    }

    /// The one run loop. Packets gather into a window that closes at
    /// [`WINDOW_PKTS`] or just before any other step; control steps
    /// then act on the shared tables at the merged master state.
    fn drive(
        &mut self,
        sys: &mut MemorySystem,
        mut exec: Executor<'_>,
        steps: impl IntoIterator<Item = Step>,
    ) -> StreamReport {
        if matches!(exec, Executor::Epoch { .. }) {
            self.assert_epoch_capable(sys);
        }
        let dirty_before = sys.stats().counter("llc.dirty_snoop");
        let mut r = StreamReport {
            cores: self.pmds.len(),
            ..StreamReport::default()
        };
        let mut window: Vec<(u64, usize)> = Vec::with_capacity(WINDOW_PKTS);
        for step in steps {
            if !matches!(step, Step::Event(TrafficEvent::Packet(_))) {
                self.close_window(sys, &mut exec, &mut window, &mut r);
            }
            match step {
                Step::Event(TrafficEvent::Packet(flow)) => {
                    window.push((flow, self.rss(flow)));
                    if window.len() >= WINDOW_PKTS {
                        self.close_window(sys, &mut exec, &mut window, &mut r);
                    }
                }
                Step::Churn(flow) => {
                    // The revalidator (a writer on another core) updates
                    // the shared tables: timed stores to every probe's
                    // version line invalidate the readers' copies — the
                    // core-to-core coherence cost of §3.4.
                    let at = self.pmds[self.rss(flow)].clock;
                    for probe in 0..self.megaflow.probes() {
                        self.revalidate(sys, probe, at);
                    }
                }
                Step::Event(TrafficEvent::Arrival(flow)) => {
                    let key = PacketHeader::synthetic(flow).miniflow();
                    let ti = self.tuple_of(flow);
                    let at = self.front(); // control plane acts "now"
                    if self
                        .megaflow
                        .insert_masked(sys.data_mut(), &self.masks[ti], &key, 0, flow)
                        .is_err()
                    {
                        r.rejected_installs += 1;
                    }
                    self.revalidate(sys, ti, at);
                    r.arrivals += 1;
                }
                Step::Event(TrafficEvent::Expiry(flow)) => {
                    let key = PacketHeader::synthetic(flow).miniflow();
                    let ti = self.tuple_of(flow);
                    let at = self.front();
                    self.megaflow
                        .remove_masked(sys.data_mut(), &self.masks[ti], &key);
                    // A torn-down rule's cached exact match must die with
                    // it on every core, or stale actions keep matching.
                    for pmd in &mut self.pmds {
                        pmd.dp.invalidate(sys.data_mut(), &key);
                    }
                    self.revalidate(sys, ti, at);
                    r.expiries += 1;
                }
            }
        }
        self.close_window(sys, &mut exec, &mut window, &mut r);
        r.cycles = self.front().0.max(1);
        r.throughput_per_kcy = 1000.0 * r.packets as f64 / r.cycles as f64;
        r.dirty_transfers = sys.stats().counter("llc.dirty_snoop") - dirty_before;
        r
    }

    /// Executes and empties the pending window, counting its packets
    /// and misses into `r`. An empty window is a no-op (no barrier).
    fn close_window(
        &mut self,
        sys: &mut MemorySystem,
        exec: &mut Executor<'_>,
        window: &mut Vec<(u64, usize)>,
        r: &mut StreamReport,
    ) {
        if window.is_empty() {
            return;
        }
        let matched = match exec {
            Executor::Classic(engine) => {
                let mut matched = 0u64;
                for &(flow, p) in window.iter() {
                    matched += u64::from(self.pmds[p].step(
                        sys,
                        engine.as_deref_mut(),
                        &self.megaflow,
                        flow,
                    ));
                }
                matched
            }
            Executor::Epoch { threads, hook } => {
                let matched =
                    Self::run_window(&mut self.pmds, &self.megaflow, sys, window, *threads);
                hook(sys);
                matched
            }
        };
        r.packets += window.len() as u64;
        r.misses += window.len() as u64 - matched;
        window.clear();
    }

    /// RSS: the flow hash picks the PMD, so one flow stays on one core.
    fn rss(&self, flow: u64) -> usize {
        (hash_key(&PacketHeader::synthetic(flow).miniflow(), SEED_PRIMARY) % self.pmds.len() as u64)
            as usize
    }

    /// Which mask a flow's rule is installed under (the same
    /// `flow % tuples` placement
    /// [`with_config`](MultiCoreDatapath::with_config) used for the
    /// initial rule set).
    fn tuple_of(&self, flow: u64) -> usize {
        (flow % self.masks.len() as u64) as usize
    }

    /// A timed revalidator store to the version line of the probe slot
    /// serving tuple `ti` — the core-to-core coherence cost every table
    /// write carries in §3.4.
    fn revalidate(&mut self, sys: &mut MemorySystem, ti: usize, at: Cycle) {
        let wcore = CoreId(sys.config().cores - 1);
        let slot = ti % self.megaflow.probes().max(1);
        if let Some(va) = self.megaflow.probe_version_addr(slot) {
            sys.access(wcore, va, halo_mem::AccessKind::Store, at);
        }
    }

    /// The most advanced PMD clock (the streaming control plane's "now").
    fn front(&self) -> Cycle {
        Cycle(self.pmds.iter().map(|p| p.clock.0).max().unwrap_or(0))
    }

    /// Preconditions of the epoch executor. HALO engines and span
    /// tracing both mutate state shared across cores mid-window, so
    /// epoch execution is software-only and untraced; callers needing
    /// either stay on the classic [`run`](Self::run) /
    /// [`run_stream`](Self::run_stream) paths.
    fn assert_epoch_capable(&self, sys: &MemorySystem) {
        assert!(
            !sys.trace_enabled(),
            "epoch-parallel runs cannot record spans; disable tracing"
        );
        for pmd in &self.pmds {
            assert_eq!(
                pmd.dp.exec().backend(),
                LookupBackend::Software,
                "epoch-parallel execution is software-only"
            );
        }
    }

    /// Executes one epoch window: splits the memory system into
    /// per-core shards, runs every PMD's packet share through
    /// [`par_map`] on up to `threads` OS threads, and merges the outcomes
    /// back in fixed core order. Returns how many packets matched.
    ///
    /// Worker assignment is pure scheduling: each job reads only the
    /// frozen master snapshot and its own private state, and the merge
    /// is single-threaded in ascending core order, so the post-merge
    /// state is byte-identical at every `threads` value.
    fn run_window(
        pmds: &mut [PmdThread],
        megaflow: &WildcardMatcher,
        sys: &mut MemorySystem,
        batch: &[(u64, usize)],
        threads: usize,
    ) -> u64 {
        let cores = pmds.len();
        let mut per_core: Vec<Vec<u64>> = vec![Vec::new(); cores];
        for &(flow, p) in batch {
            per_core[p].push(flow);
        }
        let shards = sys.epoch_split(cores);
        let jobs: Vec<WindowJob> = shards
            .into_iter()
            .zip(pmds.iter_mut())
            .zip(per_core)
            .map(|((shard, pmd), flows)| WindowJob { shard, pmd, flows })
            .collect();
        let (outcomes, matched): (Vec<WindowOutcome>, Vec<u64>) =
            par_map(jobs, threads, |job| exec_window(job, megaflow))
                .into_iter()
                .unzip();
        sys.epoch_merge(outcomes);
        matched.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_accel::AcceleratorConfig;
    use halo_mem::MachineConfig;

    fn throughput(cores: usize, backend: LookupBackend, churn: u64) -> StreamReport {
        let mut sys = MemorySystem::new(MachineConfig::default());
        let mut engine = HaloEngine::new(&sys, AcceleratorConfig::default());
        let mut dp = MultiCoreDatapath::new(&mut sys, cores, 5, 2_000, backend, 42);
        let e = match backend {
            LookupBackend::Software => None,
            _ => Some(&mut engine),
        };
        dp.run(&mut sys, e, 600, churn)
    }

    #[test]
    fn more_cores_more_throughput() {
        let one = throughput(1, LookupBackend::Software, 0);
        let four = throughput(4, LookupBackend::Software, 0);
        assert!(
            four.throughput_per_kcy > 2.0 * one.throughput_per_kcy,
            "4 cores ({}) should roughly quadruple 1 core ({})",
            four.throughput_per_kcy,
            one.throughput_per_kcy
        );
    }

    #[test]
    fn halo_nb_scales_better_than_software() {
        let sw = throughput(8, LookupBackend::Software, 0);
        let nb = throughput(8, LookupBackend::HaloNonBlocking, 0);
        assert!(
            nb.throughput_per_kcy > sw.throughput_per_kcy,
            "HALO-NB {} must beat software {} at 8 cores",
            nb.throughput_per_kcy,
            sw.throughput_per_kcy
        );
    }

    #[test]
    fn rss_spreads_flows_across_cores() {
        let mut sys = MemorySystem::new(MachineConfig::default());
        let mut dp = MultiCoreDatapath::new(&mut sys, 8, 5, 2_000, LookupBackend::Software, 42);
        dp.run(&mut sys, None, 800, 0);
        let counts = dp.per_core_packets();
        assert_eq!(counts.iter().sum::<u64>(), 800);
        for &c in &counts {
            assert!(c > 30, "imbalanced RSS: {counts:?}");
        }
    }

    #[test]
    fn churn_generates_coherence_traffic() {
        let calm = throughput(4, LookupBackend::Software, 0);
        let churny = throughput(4, LookupBackend::Software, 10);
        assert!(
            churny.dirty_transfers + 20 > calm.dirty_transfers,
            "churn should raise dirty transfers: {} vs {}",
            churny.dirty_transfers,
            calm.dirty_transfers
        );
        // Writers slow the datapath down (coherence + lock retries).
        assert!(churny.throughput_per_kcy <= calm.throughput_per_kcy * 1.05);
    }

    /// The multi-core datapath honors the EMC promotion policy — it
    /// used to promote unconditionally, silently diverging from the
    /// single-core switch whenever promotion was disabled.
    #[test]
    fn emc_promotion_flag_gates_the_multicore_path() {
        let run = |promote: bool| {
            let mut sys = MemorySystem::new(MachineConfig::default());
            let mut cfg = MultiCoreConfig::new(4, 5, 2_000, LookupBackend::Software, 42);
            cfg.emc_promotion = promote;
            let mut dp = MultiCoreDatapath::with_config(&mut sys, cfg);
            dp.run(&mut sys, None, 600, 0)
        };
        let promoted = run(true);
        let unpromoted = run(false);
        // Without promotion every repeat packet walks MegaFlow again,
        // so the run must take strictly longer.
        assert!(
            unpromoted.cycles > promoted.cycles,
            "promotion off ({}) must cost more cycles than on ({})",
            unpromoted.cycles,
            promoted.cycles
        );
        // The default config keeps the historical always-promote shape.
        assert!(MultiCoreConfig::new(1, 1, 1, LookupBackend::Software, 0).emc_promotion);
    }

    /// Every exact-match backend drives the multicore datapath to
    /// completion, with churn exercising the shared version lines.
    #[test]
    fn every_table_backend_classifies() {
        for table_backend in TableBackend::all() {
            let mut sys = MemorySystem::new(MachineConfig::default());
            let mut cfg = MultiCoreConfig::new(4, 5, 2_000, LookupBackend::Software, 42);
            cfg.table_backend = table_backend;
            let mut dp = MultiCoreDatapath::with_config(&mut sys, cfg);
            let report = dp.run(&mut sys, None, 400, 50);
            assert_eq!(report.packets, 400, "{}", table_backend.name());
            assert!(
                report.throughput_per_kcy > 0.0,
                "{} made no progress",
                table_backend.name()
            );
        }
    }

    /// The wildcard backend is a runtime config choice for the shared
    /// MegaFlow layer too: RVH classifies the same flows and survives
    /// streaming churn.
    #[test]
    fn rvh_wildcard_backend_runs_multicore() {
        let mut sys = MemorySystem::new(MachineConfig::default());
        let mut cfg = MultiCoreConfig::new(4, 5, 2_000, LookupBackend::Software, 42);
        cfg.wildcard_backend = WildcardBackend::Rvh;
        let mut dp = MultiCoreDatapath::with_config(&mut sys, cfg);
        let report = dp.run(&mut sys, None, 400, 50);
        assert_eq!(report.packets, 400);
        assert!(report.throughput_per_kcy > 0.0);
        let churn = vec![
            TrafficEvent::Expiry(3),
            TrafficEvent::Packet(3),
            TrafficEvent::Arrival(5_000),
            TrafficEvent::Packet(5_000),
        ];
        let r = dp.run_stream(&mut sys, None, churn);
        assert_eq!(r.misses, 1, "expired flow misses; the newborn hits");
    }

    /// The streaming entry point applies arrivals/expiries to the
    /// shared tables: an expired flow stops matching (no stale EMC
    /// entry either), an arrived flow starts matching.
    #[test]
    fn stream_events_churn_the_rule_set() {
        let mut sys = MemorySystem::new(MachineConfig::default());
        let mut dp = MultiCoreDatapath::new(&mut sys, 2, 5, 1_000, LookupBackend::Software, 7);
        // Warm flow 3 into an EMC, expire it, then look it up again.
        let warm = vec![TrafficEvent::Packet(3), TrafficEvent::Packet(3)];
        let r = dp.run_stream(&mut sys, None, warm);
        assert_eq!(r.packets, 2);
        assert_eq!(r.misses, 0, "installed flow must match");
        let churn = vec![
            TrafficEvent::Expiry(3),
            TrafficEvent::Packet(3),
            TrafficEvent::Arrival(5_000),
            TrafficEvent::Packet(5_000),
        ];
        let r = dp.run_stream(&mut sys, None, churn);
        assert_eq!(r.arrivals, 1);
        assert_eq!(r.expiries, 1);
        assert_eq!(
            r.misses, 1,
            "exactly the expired flow misses; the newborn hits"
        );
        assert!(r.dirty_transfers > 0, "table writes imply coherence");
    }

    /// Streaming works over every exact-match backend, including the
    /// remove-heavy paths (Cuckoo++ filter reversal, EMOMA re-homing).
    #[test]
    fn stream_churns_every_backend() {
        for table_backend in TableBackend::all() {
            let mut sys = MemorySystem::new(MachineConfig::default());
            let mut cfg = MultiCoreConfig::new(4, 5, 1_000, LookupBackend::Software, 42);
            cfg.table_backend = table_backend;
            let mut dp = MultiCoreDatapath::with_config(&mut sys, cfg);
            let mut rng = SplitMix64::new(9);
            let mut next_id = 1_000u64;
            let mut events = Vec::new();
            for _ in 0..200 {
                events.push(TrafficEvent::Packet(rng.below(1_000)));
                if rng.chance(0.2) {
                    events.push(TrafficEvent::Arrival(next_id));
                    events.push(TrafficEvent::Expiry(rng.below(1_000)));
                    next_id += 1;
                }
            }
            let r = dp.run_stream(&mut sys, None, events);
            assert_eq!(r.packets, 200, "{}", table_backend.name());
            assert_eq!(r.arrivals, r.expiries, "{}", table_backend.name());
            assert_eq!(r.rejected_installs, 0, "{}", table_backend.name());
            assert!(r.throughput_per_kcy > 0.0, "{}", table_backend.name());
        }
    }

    /// Non-blocking destination slots must not alias when a search can
    /// probe more than eight tuples (one cache line's worth of result
    /// words). The old hard-coded `slot % 8` arithmetic made probe 8+
    /// overwrite probe 0's destination word.
    #[test]
    fn nb_dest_region_survives_more_than_eight_tuples() {
        let tuples = 12;
        let mut sys = MemorySystem::new(MachineConfig::default());
        let mut engine = HaloEngine::new(&sys, AcceleratorConfig::default());
        let mut dp = MultiCoreDatapath::new(
            &mut sys,
            2,
            tuples,
            2_400,
            LookupBackend::HaloNonBlocking,
            9,
        );
        let report = dp.run(&mut sys, Some(&mut engine), 400, 0);
        assert_eq!(report.packets, 400);
        assert!(report.throughput_per_kcy > 0.0);
    }
}
