//! `stream_churn_epoch`: the multi-core datapath under flow churn on
//! the epoch-parallel executor.
//!
//! A `MultiCoreDatapath` with `pmds` PMD cores over `tuples` shared
//! MegaFlow tuples holding `flows` flows is fed `StreamConfig::churn`
//! events through `run_stream_parallel` on `threads` OS threads (one in
//! the benchmark; two as the traced run's contrast). About 5% of steps
//! are an arrival/expiry pair, and every control event forces a
//! barrier, which leaves ~20 packets per window: host time goes to
//! epoch split/merge, control-plane insert/remove, per-core EMC
//! invalidation, and on two threads the hand-off between them.
//!
//! The rebuilt path takes `run_stream_parallel_with` apart: the same
//! RSS batching and window bounds, `MemorySystem::epoch_split` and
//! `epoch_merge` around per-core windows on `EpochCore` shards, and
//! inside each window `DatapathCore::classify_epoch` written out (EMC
//! probe, MegaFlow walk, software lookups) with every shard access
//! timed.

use std::time::Instant;

use halo_classify::{distinct_masks, Emc, PacketHeader, SearchMode, WildcardMask};
use halo_cpu::Program;
use halo_datapath::{
    DatapathCore, LookupBackend, LookupExecutor, NbRegion, TableBackend, TrafficEvent,
    WildcardBackend, WildcardMatcher, WildcardTable,
};
use halo_mem::{AccessKind, CoreId, CoreMem, EpochCore, MachineConfig, MemorySystem, CACHE_LINE};
use halo_nf::{StreamConfig, StreamingTrafficGen};
use halo_sim::Cycle;
use halo_tables::{hash_key, SEED_PRIMARY};
use halo_vswitch::MultiCoreDatapath;

use crate::harness::{ns_since, run_sw, stats_digest, MemCounts, Round, Runner, Workload};
use crate::spans::{Layer, Spans};

/// Size parameters of the workload.
#[derive(Debug, Clone, Copy)]
pub struct StreamChurnEpoch {
    /// Initially installed (and live) flows.
    pub flows: usize,
    /// PMD cores of the datapath.
    pub pmds: usize,
    /// Shared MegaFlow tuples.
    pub tuples: usize,
    /// OS threads the epoch executor runs windows on.
    pub threads: usize,
    /// Stream events per round.
    pub round_events: usize,
}

impl StreamChurnEpoch {
    /// The benchmark's configuration.
    pub const FULL: StreamChurnEpoch = StreamChurnEpoch {
        flows: 65_536,
        pmds: 4,
        tuples: 8,
        threads: 1,
        round_events: 4096,
    };

    fn generator(&self, seed: u64) -> StreamingTrafficGen {
        StreamingTrafficGen::new(StreamConfig::churn(self.flows), seed)
    }
}

/// The packets per epoch window when no control event bounds one
/// sooner (the library's window size).
const WINDOW_PKTS: usize = 1024;

/// Rounds that bring the per-core EMCs and private caches, cold after
/// setup, to steady state under churn before anything is measured.
const WARMUP_ROUNDS: usize = 2;

/// The stream's reference: which flows are live. The churn stream
/// never floods, so every packet is of a live flow and must match.
#[derive(Debug)]
struct LiveSet {
    live: Vec<bool>,
}

/// What one round of events should produce.
#[derive(Debug, Default)]
struct Expected {
    packets: u64,
    misses: u64,
    arrivals: u64,
    expiries: u64,
}

impl LiveSet {
    fn new(flows: usize) -> Self {
        LiveSet {
            live: vec![true; flows],
        }
    }

    fn apply(&mut self, events: &[TrafficEvent]) -> Expected {
        let mut e = Expected::default();
        for ev in events {
            match *ev {
                TrafficEvent::Packet(f) => {
                    e.packets += 1;
                    if !self.live.get(f as usize).copied().unwrap_or(false) {
                        e.misses += 1;
                    }
                }
                TrafficEvent::Arrival(f) => {
                    let f = f as usize;
                    if f >= self.live.len() {
                        self.live.resize(f + 1, false);
                    }
                    self.live[f] = true;
                    e.arrivals += 1;
                }
                TrafficEvent::Expiry(f) => {
                    if let Some(l) = self.live.get_mut(f as usize) {
                        *l = false;
                    }
                    e.expiries += 1;
                }
            }
        }
        e
    }
}

/// A round's outcome as the datapath reports it.
#[derive(Debug, Default, Clone, Copy)]
struct Report {
    packets: u64,
    misses: u64,
    arrivals: u64,
    expiries: u64,
    rejected: u64,
    cycles: u64,
    dirty: u64,
}

/// Checks a round against the reference and builds its [`Round`].
fn finish_round(
    r: Report,
    e: &Expected,
    prev_cycles: u64,
    busy_ns: u64,
    per_core: Vec<u64>,
    sys: &MemorySystem,
) -> Round {
    // A live flow's packet that misses, a packet of a dead flow that
    // hits, a lost event and a rejected install are each a failure.
    let failed = r.misses.abs_diff(e.misses)
        + r.packets.abs_diff(e.packets)
        + r.arrivals.abs_diff(e.arrivals)
        + r.expiries.abs_diff(e.expiries)
        + r.rejected;
    let mut fingerprint = vec![
        r.packets, r.misses, r.arrivals, r.expiries, r.rejected, r.cycles, r.dirty,
    ];
    fingerprint.extend(per_core);
    fingerprint.extend(stats_digest(sys));
    Round {
        ops: r.packets,
        attempted: e.packets + e.arrivals,
        failed,
        busy_ns,
        cycles: r.cycles - prev_cycles,
        gaps: Vec::new(),
        fingerprint,
    }
}

/// The library path: `MultiCoreDatapath::run_stream_parallel_with`.
#[derive(Debug)]
pub struct Plain {
    shape: StreamChurnEpoch,
    sys: MemorySystem,
    dp: MultiCoreDatapath,
    gen: StreamingTrafficGen,
    reference: LiveSet,
    prev_cycles: u64,
    rounds: usize,
    /// Host nanoseconds between consecutive barrier-hook calls, and how
    /// many such gaps, over all rounds.
    window_ns: u64,
    window_gaps: u64,
    /// Windows and packets of the first timed round.
    first: Option<(u64, u64)>,
}

impl Runner for Plain {
    fn round(&mut self, _spans: &mut Spans) -> Round {
        let t0 = Instant::now();
        let events: Vec<TrafficEvent> = (0..self.shape.round_events)
            .map(|_| self.gen.next_event())
            .collect();
        let (mut windows, mut window_ns, mut gaps) = (0u64, 0u64, 0u64);
        let mut last: Option<Instant> = None;
        let r = self.dp.run_stream_parallel_with(
            &mut self.sys,
            events.iter().copied(),
            self.shape.threads,
            &mut |_| {
                let now = Instant::now();
                if let Some(prev) = last {
                    window_ns += (now - prev).as_nanos() as u64;
                    gaps += 1;
                }
                last = Some(now);
                windows += 1;
            },
        );
        let busy_ns = ns_since(t0);
        self.window_ns += window_ns;
        self.window_gaps += gaps;
        if self.rounds == WARMUP_ROUNDS {
            self.first = Some((windows, r.packets));
        }
        self.rounds += 1;
        let e = self.reference.apply(&events);
        let report = Report {
            packets: r.packets,
            misses: r.misses,
            arrivals: r.arrivals,
            expiries: r.expiries,
            rejected: r.rejected_installs,
            cycles: r.cycles,
            dirty: r.dirty_transfers,
        };
        let round = finish_round(
            report,
            &e,
            self.prev_cycles,
            busy_ns,
            self.dp.per_core_packets(),
            &self.sys,
        );
        self.prev_cycles = r.cycles;
        round
    }
}

/// One PMD core of the rebuilt datapath.
#[derive(Debug)]
struct Pmd {
    dp: DatapathCore,
    clock: Cycle,
    packets: u64,
}

/// `DatapathCore::classify_epoch` written out for one packet on `pmd`'s
/// shard: the EMC probe, MegaFlow walk and software lookups are spans,
/// and every shard access is timed. Records the packet's simulated
/// latency in `gaps` and returns whether it matched.
fn classify_epoch(
    spans: &mut Spans,
    prog: &mut Program,
    shard: &mut EpochCore<'_>,
    pmd: &mut Pmd,
    megaflow: &WildcardMatcher,
    flow: u64,
    gaps: &mut Vec<u64>,
) -> bool {
    let key = PacketHeader::synthetic(flow).miniflow();
    pmd.packets += 1;
    let start = pmd.clock;
    spans.enter(Layer::Emc);
    let trace = pmd
        .dp
        .emc()
        .expect("every PMD has an EMC")
        .lookup_traced(shard.data_mut(), &key);
    spans.exit();
    let mut t = run_sw(spans, prog, &mut pmd.dp, shard, &trace, None, start).finish;
    let hit = if trace.result.is_some() {
        true
    } else {
        spans.enter(Layer::Walk);
        let (m, probes) = megaflow.classify_traced(shard.base(), &key, true);
        spans.exit();
        for (_, tr) in &probes {
            t = run_sw(spans, prog, &mut pmd.dp, shard, tr, None, t).finish;
        }
        if let Some(h) = &m {
            pmd.dp.promote(shard.data_mut(), &key, h.action);
        }
        m.is_some()
    };
    pmd.clock = t;
    gaps.push((t - start).0);
    hit
}

/// The rebuilt path: `MultiCoreDatapath`'s streaming epoch runner
/// taken apart into public pieces.
#[derive(Debug)]
pub struct Rebuilt {
    shape: StreamChurnEpoch,
    sys: MemorySystem,
    pmds: Vec<Pmd>,
    megaflow: WildcardMatcher,
    masks: Vec<WildcardMask>,
    gen: StreamingTrafficGen,
    reference: LiveSet,
    prev_cycles: u64,
    rounds: usize,
    events: u64,
    prog: Program,
    first: Option<FirstRound>,
}

/// Simulated counts of the first timed round.
#[derive(Debug, Clone, Copy, Default)]
struct FirstRound {
    packets: u64,
    mem: MemCounts,
}

impl Rebuilt {
    /// Builds the datapath exactly as `MultiCoreDatapath::with_config`
    /// does, allocation for allocation.
    fn new(shape: StreamChurnEpoch, seed: u64) -> Self {
        let mut sys = MemorySystem::new(MachineConfig::default());
        let masks = distinct_masks(shape.tuples);
        let mut megaflow = WildcardBackend::Tss.build(
            sys.data_mut(),
            TableBackend::Cuckoo,
            &masks,
            shape.flows / shape.tuples + 512,
            SearchMode::FirstMatch,
        );
        for f in 0..shape.flows as u64 {
            let key = PacketHeader::synthetic(f).miniflow();
            megaflow
                .insert_masked(
                    sys.data_mut(),
                    &masks[(f % shape.tuples as u64) as usize],
                    &key,
                    0,
                    f,
                )
                .expect("tuples sized for their share");
        }
        for a in megaflow.memory_lines() {
            sys.warm_llc(a);
        }
        let parts: Vec<(LookupExecutor, Emc)> = (0..shape.pmds)
            .map(|c| {
                let exec = LookupExecutor::new(&mut sys, CoreId(c), LookupBackend::Software);
                exec.warm_scratch(&mut sys);
                (exec, Emc::new(sys.data_mut(), 1024))
            })
            .collect();
        let lines_per_core = NbRegion::lines_for(megaflow.probes().max(shape.tuples));
        let nb_base = sys
            .data_mut()
            .alloc_lines(lines_per_core * CACHE_LINE * shape.pmds as u64);
        let slots = lines_per_core as usize * NbRegion::SLOTS_PER_LINE;
        let pmds = parts
            .into_iter()
            .enumerate()
            .map(|(p, (exec, emc))| {
                let nb =
                    NbRegion::from_raw(nb_base + p as u64 * lines_per_core * CACHE_LINE, slots);
                Pmd {
                    dp: DatapathCore::new(
                        exec.with_nb_region(nb),
                        Some(emc),
                        LookupBackend::Software,
                        true,
                    ),
                    clock: Cycle::ZERO,
                    packets: 0,
                }
            })
            .collect();
        Rebuilt {
            shape,
            sys,
            pmds,
            megaflow,
            masks,
            gen: shape.generator(seed),
            reference: LiveSet::new(shape.flows),
            prev_cycles: 0,
            rounds: 0,
            events: 0,
            prog: Program::new(),
            first: None,
        }
    }

    fn front(&self) -> Cycle {
        Cycle(self.pmds.iter().map(|p| p.clock.0).max().unwrap_or(0))
    }

    /// The revalidator's timed store to the version line of the probe
    /// slot serving tuple `ti`.
    fn revalidate(&mut self, ti: usize, at: Cycle) {
        let wcore = CoreId(self.sys.config().cores - 1);
        let slot = ti % self.megaflow.probes().max(1);
        if let Some(va) = self.megaflow.probe_version_addr(slot) {
            self.sys.access(wcore, va, AccessKind::Store, at);
        }
    }

    /// One window: split, each core's share on its shard, merge in core
    /// order. Returns the packets that matched. The windows run inline
    /// on this thread: the library's results are identical at every
    /// thread count, and one thread keeps every span on one timeline.
    fn window(&mut self, spans: &mut Spans, batch: &[(u64, usize)], gaps: &mut Vec<u64>) -> u64 {
        let cores = self.pmds.len();
        let mut per_core: Vec<Vec<u64>> = vec![Vec::new(); cores];
        for &(flow, p) in batch {
            per_core[p].push(flow);
        }
        spans.enter(Layer::EpochSplit);
        let shards = self.sys.epoch_split(cores);
        spans.exit();
        spans.enter(Layer::WindowExec);
        let mut outcomes = Vec::with_capacity(cores);
        let mut matched = 0;
        for ((mut shard, pmd), flows) in shards.into_iter().zip(&mut self.pmds).zip(per_core) {
            for flow in flows {
                matched += u64::from(classify_epoch(
                    spans,
                    &mut self.prog,
                    &mut shard,
                    pmd,
                    &self.megaflow,
                    flow,
                    gaps,
                ));
            }
            outcomes.push(shard.finish());
        }
        spans.exit();
        spans.enter(Layer::EpochMerge);
        self.sys.epoch_merge(outcomes);
        spans.exit();
        matched
    }

    fn flush(
        &mut self,
        spans: &mut Spans,
        batch: &mut Vec<(u64, usize)>,
        r: &mut Report,
        gaps: &mut Vec<u64>,
    ) {
        if batch.is_empty() {
            return;
        }
        let matched = self.window(spans, batch, gaps);
        r.packets += batch.len() as u64;
        r.misses += batch.len() as u64 - matched;
        batch.clear();
    }
}

impl Runner for Rebuilt {
    fn round(&mut self, spans: &mut Spans) -> Round {
        let t0 = Instant::now();
        let mem_before = MemCounts::read(&self.sys);
        let dirty_before = self.sys.stats().counter("llc.dirty_snoop");
        let mut events = Vec::with_capacity(self.shape.round_events);
        let mut r = Report::default();
        let mut gaps = Vec::new();
        let mut batch: Vec<(u64, usize)> = Vec::with_capacity(WINDOW_PKTS);
        let cores = self.pmds.len() as u64;
        for _ in 0..self.shape.round_events {
            spans.set_op(self.events);
            self.events += 1;
            let ev = spans.time(Layer::Gen, || self.gen.next_event());
            events.push(ev);
            match ev {
                TrafficEvent::Packet(flow) => {
                    let key = PacketHeader::synthetic(flow).miniflow();
                    let p = (hash_key(&key, SEED_PRIMARY) % cores) as usize;
                    batch.push((flow, p));
                    if batch.len() >= WINDOW_PKTS {
                        self.flush(spans, &mut batch, &mut r, &mut gaps);
                    }
                }
                TrafficEvent::Arrival(flow) => {
                    self.flush(spans, &mut batch, &mut r, &mut gaps);
                    let key = PacketHeader::synthetic(flow).miniflow();
                    let ti = (flow % self.masks.len() as u64) as usize;
                    let at = self.front();
                    spans.enter(Layer::Insert);
                    let ok = self
                        .megaflow
                        .insert_masked(self.sys.data_mut(), &self.masks[ti], &key, 0, flow)
                        .is_ok();
                    spans.exit();
                    r.rejected += u64::from(!ok);
                    spans.enter(Layer::Control);
                    self.revalidate(ti, at);
                    spans.exit();
                    r.arrivals += 1;
                }
                TrafficEvent::Expiry(flow) => {
                    self.flush(spans, &mut batch, &mut r, &mut gaps);
                    let key = PacketHeader::synthetic(flow).miniflow();
                    let ti = (flow % self.masks.len() as u64) as usize;
                    let at = self.front();
                    spans.enter(Layer::Remove);
                    self.megaflow
                        .remove_masked(self.sys.data_mut(), &self.masks[ti], &key);
                    spans.exit();
                    spans.enter(Layer::Control);
                    for pmd in &mut self.pmds {
                        pmd.dp.invalidate(self.sys.data_mut(), &key);
                    }
                    self.revalidate(ti, at);
                    spans.exit();
                    r.expiries += 1;
                }
            }
        }
        self.flush(spans, &mut batch, &mut r, &mut gaps);
        r.cycles = self.front().0.max(1);
        r.dirty = self.sys.stats().counter("llc.dirty_snoop") - dirty_before;
        let busy_ns = ns_since(t0);
        spans.enter(Layer::Reference);
        let e = self.reference.apply(&events);
        spans.exit();
        if self.rounds == WARMUP_ROUNDS {
            self.first = Some(FirstRound {
                packets: r.packets,
                mem: MemCounts::read(&self.sys).since(mem_before),
            });
        }
        self.rounds += 1;
        let per_core = self.pmds.iter().map(|p| p.packets).collect();
        let mut round = finish_round(r, &e, self.prev_cycles, busy_ns, per_core, &self.sys);
        self.prev_cycles = r.cycles;
        round.gaps = gaps;
        round
    }
}

impl Workload for StreamChurnEpoch {
    type Plain = Plain;
    type Rebuilt = Rebuilt;

    /// The same datapath on two threads, this host's core count: its
    /// rate over the one-thread rate shows what parallel windows gain or
    /// lose. Two-thread rates are not an end-to-end metric because on a
    /// shared 2-core host a stalled core stalls every window barrier,
    /// and whole runs slow down by up to half.
    fn setup_contrast(&self, seed: u64) -> Option<(Plain, &'static str)> {
        let two = StreamChurnEpoch {
            threads: 2,
            ..*self
        };
        Some((two.setup_plain(seed), "vswitch.threads2_rate_ratio"))
    }

    fn setup_plain(&self, seed: u64) -> Plain {
        let mut sys = MemorySystem::new(MachineConfig::default());
        let dp = MultiCoreDatapath::new(
            &mut sys,
            self.pmds,
            self.tuples,
            self.flows,
            LookupBackend::Software,
            seed,
        );
        Plain {
            shape: *self,
            sys,
            dp,
            gen: self.generator(seed),
            reference: LiveSet::new(self.flows),
            prev_cycles: 0,
            rounds: 0,
            window_ns: 0,
            window_gaps: 0,
            first: None,
        }
    }

    fn setup_rebuilt(&self, seed: u64) -> Rebuilt {
        Rebuilt::new(*self, seed)
    }

    fn setup_reps(&self) -> usize {
        5
    }

    fn warmup_rounds(&self) -> usize {
        WARMUP_ROUNDS
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn per_layer(
        &self,
        plain: &Plain,
        rebuilt: &Rebuilt,
        spans: &Spans,
    ) -> Vec<(&'static str, f64)> {
        let (windows, pkts) = plain.first.unwrap_or_default();
        let f = rebuilt.first.unwrap_or_default();
        let mut m = vec![
            ("nf.gen_ns_per_event", spans.ns_per_call(Layer::Gen)),
            ("vswitch.windows", windows as f64),
            (
                "vswitch.pkts_per_window",
                pkts as f64 / windows.max(1) as f64,
            ),
            (
                "vswitch.window_ns",
                plain.window_ns as f64 / plain.window_gaps.max(1) as f64,
            ),
            ("mem.epoch_split_ns", spans.ns_per_call(Layer::EpochSplit)),
            ("mem.epoch_merge_ns", spans.ns_per_call(Layer::EpochMerge)),
            ("datapath.insert_ns", spans.ns_per_call(Layer::Insert)),
            ("datapath.remove_ns", spans.ns_per_call(Layer::Remove)),
            ("classify.emc_lookup_ns", spans.ns_per_call(Layer::Emc)),
            ("datapath.walk_ns", spans.ns_per_call(Layer::Walk)),
            ("cpu.prog_build_ns", spans.ns_per_call(Layer::ProgBuild)),
            ("cpu.run_self_ns", spans.self_per_call(Layer::CoreRun)),
            ("mem.access_ns", spans.ns_per_call(Layer::MemAccess)),
        ];
        m.extend(f.mem.metrics(f.packets));
        m
    }
}
