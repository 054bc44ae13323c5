//! `pipeline_zipf`: the single-core virtual switch on Zipf traffic.
//!
//! A software-backend `VirtualSwitch` with `flows` exact flows installed
//! across `masks` MegaFlow tuples, and primed into the EMC as in a
//! long-running switch, takes Zipf(0.99) packets from the streaming
//! generator through `process_burst`. About 98% of packets hit the EMC, so host time goes to the fixed io/preproc/other phase
//! programs: program build, `CoreModel::run` and `MemorySystem::access`.
//! The wildcard walk is rare; the accelerator and the epoch executor
//! are not used.
//!
//! The rebuilt path takes `VirtualSwitch::process_packet` apart into
//! its public pieces (packet ring, filler phase programs, EMC probe,
//! MegaFlow walk, software lookups on the executor's core model) so
//! every layer boundary is a timed call. It covers the configuration
//! this workload uses: EMC on, OpenFlow slow path off.

use std::time::Instant;

use halo_classify::{Emc, PacketHeader, SearchMode};
use halo_cpu::{ExecReport, Program};
use halo_datapath::{
    DatapathCore, LookupExecutor, NbRegion, TableBackend, TrafficEvent, WildcardMatcher,
    WildcardTable,
};
use halo_mem::{Addr, CoreId, MachineConfig, MemorySystem, CACHE_LINE};
use halo_nf::{StreamConfig, StreamingTrafficGen};
use halo_sim::Cycle;
use halo_vswitch::{Breakdown, LookupBackend, SwitchConfig, SwitchCounters, VirtualSwitch};

use crate::harness::{
    ns_since, run_prog, run_sw, stats_digest, MemCounts, Round, Runner, Workload,
};
use crate::spans::{Layer, Spans};

/// Size parameters of the workload.
#[derive(Debug, Clone, Copy)]
pub struct PipelineZipf {
    /// Installed flows (also the generator's live-flow count).
    pub flows: usize,
    /// MegaFlow tuples; flow `f` goes into tuple `f % masks`.
    pub masks: usize,
    /// Packets per round.
    pub round_pkts: usize,
}

impl PipelineZipf {
    /// The benchmark's configuration.
    pub const FULL: PipelineZipf = PipelineZipf {
        flows: 2048,
        masks: 5,
        round_pkts: 4096,
    };

    fn config(&self) -> SwitchConfig {
        SwitchConfig::typical(self.masks, LookupBackend::Software)
    }

    fn generator(&self, seed: u64) -> StreamingTrafficGen {
        StreamingTrafficGen::new(StreamConfig::steady(self.flows), seed)
    }
}

/// The next packet's flow id. The steady stream has no churn and no
/// flood flows, so every event is a packet of an installed flow.
fn next_flow(gen: &mut StreamingTrafficGen) -> u64 {
    match gen.next_event() {
        TrafficEvent::Packet(f) => f,
        e => panic!("steady stream emitted {e:?}"),
    }
}

/// Reference check: a packet's action must be its installed flow id.
fn failures(flows: &[u64], actions: impl Iterator<Item = Option<u64>>) -> u64 {
    flows
        .iter()
        .zip(actions)
        .filter(|(f, a)| *a != Some(**f))
        .count() as u64
}

fn gaps(start: Cycle, done: impl Iterator<Item = Cycle>) -> Vec<u64> {
    let mut prev = start;
    done.map(|d| {
        let g = (d - prev).0;
        prev = d;
        g
    })
    .collect()
}

fn fingerprint(b: &Breakdown, c: &SwitchCounters, clock: Cycle, sys: &MemorySystem) -> Vec<u64> {
    let mut f = vec![
        b.io.0,
        b.preproc.0,
        b.emc.0,
        b.megaflow.0,
        b.openflow.0,
        b.other.0,
        c.packets,
        c.emc_hits,
        c.megaflow_hits,
        c.openflow_hits,
        c.misses,
        clock.0,
    ];
    f.extend(stats_digest(sys));
    f
}

/// The library path: `VirtualSwitch::process_burst`.
#[derive(Debug)]
pub struct Plain {
    shape: PipelineZipf,
    sys: MemorySystem,
    vs: VirtualSwitch,
    gen: StreamingTrafficGen,
    clock: Cycle,
    flows: Vec<u64>,
    headers: Vec<PacketHeader>,
    out: Vec<(Option<u64>, Cycle)>,
}

impl Runner for Plain {
    fn round(&mut self, _spans: &mut Spans) -> Round {
        let t0 = Instant::now();
        self.flows.clear();
        self.headers.clear();
        for _ in 0..self.shape.round_pkts {
            let f = next_flow(&mut self.gen);
            self.flows.push(f);
            self.headers.push(PacketHeader::synthetic(f));
        }
        self.out.clear();
        let start = self.clock;
        self.clock =
            self.vs
                .process_burst(&mut self.sys, None, &self.headers, start, &mut self.out);
        let busy_ns = ns_since(t0);
        let n = self.flows.len() as u64;
        Round {
            ops: n,
            attempted: n,
            failed: failures(&self.flows, self.out.iter().map(|o| o.0)),
            busy_ns,
            cycles: (self.clock - start).0,
            gaps: gaps(start, self.out.iter().map(|o| o.1)),
            fingerprint: fingerprint(
                self.vs.breakdown(),
                self.vs.counters(),
                self.clock,
                &self.sys,
            ),
        }
    }
}

/// Ring slots of the switch's packet-buffer ring.
const RING_SLOTS: u64 = 64;
/// Micro-ops of the fixed phase programs (io, preproc, other).
const IO_UOPS: usize = 440;
const PREPROC_UOPS: usize = 170;
const OTHER_UOPS: usize = 140;

/// Simulated counts of the first traced round.
#[derive(Debug, Clone, Copy, Default)]
struct FirstRound {
    breakdown: Breakdown,
    counters: SwitchCounters,
    uops: u64,
    walks: u64,
    probes: u64,
    mem: MemCounts,
}

/// The rebuilt path: `VirtualSwitch` taken apart into public pieces.
#[derive(Debug)]
pub struct Rebuilt {
    shape: PipelineZipf,
    sys: MemorySystem,
    dp: DatapathCore,
    megaflow: WildcardMatcher,
    ring: Addr,
    ring_next: u64,
    phase_prog: Program,
    sw_prog: Program,
    breakdown: Breakdown,
    counters: SwitchCounters,
    gen: StreamingTrafficGen,
    clock: Cycle,
    packets: u64,
    uops: u64,
    walks: u64,
    probes: u64,
    first: Option<FirstRound>,
}

impl Rebuilt {
    /// Builds the switch exactly as `VirtualSwitch::new` does: executor
    /// (scratch warmed), EMC, MegaFlow tuples, packet ring, NB region,
    /// allocated in that order so every address matches.
    fn new(shape: PipelineZipf, seed: u64) -> Self {
        let cfg = shape.config();
        let mut sys = MemorySystem::new(MachineConfig::default());
        let exec = LookupExecutor::new(&mut sys, CoreId(0), cfg.backend);
        exec.warm_scratch(&mut sys);
        let emc = Emc::new(sys.data_mut(), cfg.emc_entries);
        let mut megaflow = cfg.wildcard_backend.build(
            sys.data_mut(),
            TableBackend::Cuckoo,
            &cfg.megaflow_masks,
            cfg.megaflow_capacity,
            SearchMode::FirstMatch,
        );
        let ring = sys.data_mut().alloc_lines(RING_SLOTS * CACHE_LINE);
        let nb = NbRegion::allocate(
            sys.data_mut(),
            megaflow.probes().max(cfg.megaflow_masks.len()),
        );
        let mut dp = DatapathCore::new(
            exec.with_nb_region(nb),
            Some(emc),
            cfg.backend,
            cfg.emc_promotion,
        );
        let masks = &cfg.megaflow_masks;
        for f in 0..shape.flows as u64 {
            let key = PacketHeader::synthetic(f).miniflow();
            megaflow
                .insert_masked(
                    sys.data_mut(),
                    &masks[(f % masks.len() as u64) as usize],
                    &key,
                    0,
                    f,
                )
                .expect("tuples sized for the installed flows");
            dp.prime(sys.data_mut(), &key, f);
        }
        if let Some(emc) = dp.emc() {
            for a in emc.all_lines().collect::<Vec<_>>() {
                sys.warm_llc(a);
            }
        }
        for a in megaflow.memory_lines() {
            sys.warm_llc(a);
        }
        Rebuilt {
            shape,
            sys,
            dp,
            megaflow,
            ring,
            ring_next: 0,
            phase_prog: Program::new(),
            sw_prog: Program::new(),
            breakdown: Breakdown::default(),
            counters: SwitchCounters::default(),
            gen: shape.generator(seed),
            clock: Cycle::ZERO,
            packets: 0,
            uops: 0,
            walks: 0,
            probes: 0,
            first: None,
        }
    }

    /// One fixed pipeline phase: the vswitch's filler program of `uops`
    /// micro-ops (buffer loads, scratch loads, single-cycle ALU ops) run
    /// on the core.
    fn phase(&mut self, spans: &mut Spans, loads: &[Addr], uops: usize, at: Cycle) -> ExecReport {
        let p = &mut self.phase_prog;
        p.clear();
        for &a in loads {
            p.load(a, &[]);
        }
        let scratch = self.dp.exec_mut().scratch_mut();
        for _ in 0..(uops / 5).saturating_sub(loads.len()) {
            p.load(scratch.next(), &[]);
        }
        for _ in 0..(uops - uops / 5 - loads.len().min(uops)) {
            p.compute(1, &[]);
        }
        let r = run_prog(spans, &self.phase_prog, &mut self.dp, &mut self.sys, at);
        self.uops += r.retired;
        r
    }

    /// `VirtualSwitch::process_packet`, one span per layer call.
    fn packet(&mut self, spans: &mut Spans, flow: u64, at: Cycle) -> (Option<u64>, Cycle) {
        spans.enter(Layer::Vswitch);
        self.counters.packets += 1;
        let key = PacketHeader::synthetic(flow).miniflow();

        // Packet IO: DDIO delivery into the ring, then the receive path.
        let buf = self.ring + (self.ring_next % RING_SLOTS) * CACHE_LINE;
        self.ring_next += 1;
        self.sys.data_mut().write_bytes(buf, key.as_bytes());
        self.sys.dma_write(buf);
        let r = self.phase(spans, &[buf], IO_UOPS, at);
        self.breakdown.io += r.duration();
        let r = self.phase(spans, &[buf], PREPROC_UOPS, r.finish);
        self.breakdown.preproc += r.duration();
        let mut t = r.finish;

        // EMC probe in software.
        spans.enter(Layer::Emc);
        let trace = self
            .dp
            .emc()
            .expect("typical config has an EMC")
            .lookup_traced(self.sys.data(), &key);
        spans.exit();
        let r = run_sw(
            spans,
            &mut self.sw_prog,
            &mut self.dp,
            &mut self.sys,
            &trace,
            Some(buf),
            t,
        );
        self.uops += r.retired;
        self.breakdown.emc += r.finish - t;
        t = r.finish;
        let action = if let Some(v) = trace.result {
            self.counters.emc_hits += 1;
            Some(v)
        } else {
            // MegaFlow walk, each probe replayed on the core.
            spans.enter(Layer::Walk);
            let (m, probes) = self.megaflow.classify_traced(self.sys.data(), &key, true);
            spans.exit();
            self.walks += 1;
            self.probes += probes.len() as u64;
            let mut done = t;
            for (_, tr) in &probes {
                let r = run_sw(
                    spans,
                    &mut self.sw_prog,
                    &mut self.dp,
                    &mut self.sys,
                    tr,
                    None,
                    done,
                );
                self.uops += r.retired;
                done = r.finish;
            }
            match &m {
                Some(hit) => {
                    self.dp.promote(self.sys.data_mut(), &key, hit.action);
                    self.counters.megaflow_hits += 1;
                }
                None => self.counters.misses += 1,
            }
            self.breakdown.megaflow += done - t;
            t = done;
            m.map(|h| h.action)
        };

        // Action execution and bookkeeping.
        let r = self.phase(spans, &[], OTHER_UOPS, t);
        self.breakdown.other += r.duration();
        spans.exit();
        (action, r.finish)
    }
}

impl Runner for Rebuilt {
    fn round(&mut self, spans: &mut Spans) -> Round {
        let t0 = Instant::now();
        let mem_before = MemCounts::read(&self.sys);
        let start = self.clock;
        let n = self.shape.round_pkts;
        let mut flows = Vec::with_capacity(n);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            spans.set_op(self.packets);
            self.packets += 1;
            let f = spans.time(Layer::Gen, || next_flow(&mut self.gen));
            let (action, done) = self.packet(spans, f, self.clock);
            self.clock = done;
            flows.push(f);
            out.push((action, done));
        }
        let ref_start = Instant::now();
        spans.enter(Layer::Reference);
        let failed = failures(&flows, out.iter().map(|o| o.0));
        spans.exit();
        let ref_ns = ns_since(ref_start);
        if self.first.is_none() {
            self.first = Some(FirstRound {
                breakdown: self.breakdown,
                counters: self.counters,
                uops: self.uops,
                walks: self.walks,
                probes: self.probes,
                mem: MemCounts::read(&self.sys).since(mem_before),
            });
        }
        Round {
            ops: n as u64,
            attempted: n as u64,
            failed,
            busy_ns: ns_since(t0).saturating_sub(ref_ns),
            cycles: (self.clock - start).0,
            gaps: gaps(start, out.iter().map(|o| o.1)),
            fingerprint: fingerprint(&self.breakdown, &self.counters, self.clock, &self.sys),
        }
    }
}

impl Workload for PipelineZipf {
    type Plain = Plain;
    type Rebuilt = Rebuilt;

    fn setup_plain(&self, seed: u64) -> Plain {
        let mut sys = MemorySystem::new(MachineConfig::default());
        let mut vs = VirtualSwitch::new(&mut sys, CoreId(0), self.config());
        for f in 0..self.flows as u64 {
            let key = PacketHeader::synthetic(f).miniflow();
            vs.install_flow(&mut sys, &key, (f % self.masks as u64) as usize, 0, f)
                .expect("tuples sized for the installed flows");
            vs.prime_emc(&mut sys, &key, f);
        }
        vs.warm_tables(&mut sys);
        Plain {
            shape: *self,
            sys,
            vs,
            gen: self.generator(seed),
            clock: Cycle::ZERO,
            flows: Vec::with_capacity(self.round_pkts),
            headers: Vec::with_capacity(self.round_pkts),
            out: Vec::with_capacity(self.round_pkts),
        }
    }

    fn setup_rebuilt(&self, seed: u64) -> Rebuilt {
        Rebuilt::new(*self, seed)
    }

    fn setup_reps(&self) -> usize {
        15
    }

    fn threads(&self) -> usize {
        1
    }

    fn per_layer(
        &self,
        _plain: &Plain,
        rebuilt: &Rebuilt,
        spans: &Spans,
    ) -> Vec<(&'static str, f64)> {
        let f = rebuilt.first.unwrap_or_default();
        let pkts = f.counters.packets.max(1) as f64;
        let b = f.breakdown;
        let mut m = vec![
            ("vswitch.ns_per_pkt", spans.ns_per_call(Layer::Vswitch)),
            ("vswitch.emc_hit_ratio", f.counters.emc_hits as f64 / pkts),
            ("vswitch.phase_cyc.io", b.io.0 as f64 / pkts),
            ("vswitch.phase_cyc.preproc", b.preproc.0 as f64 / pkts),
            ("vswitch.phase_cyc.emc", b.emc.0 as f64 / pkts),
            ("vswitch.phase_cyc.megaflow", b.megaflow.0 as f64 / pkts),
            ("vswitch.phase_cyc.other", b.other.0 as f64 / pkts),
            ("nf.gen_ns_per_event", spans.ns_per_call(Layer::Gen)),
            ("classify.emc_lookup_ns", spans.ns_per_call(Layer::Emc)),
            ("datapath.walk_ns", spans.ns_per_call(Layer::Walk)),
            (
                "datapath.probes_per_lookup",
                f.probes as f64 / f.walks.max(1) as f64,
            ),
            ("cpu.prog_build_ns", spans.ns_per_call(Layer::ProgBuild)),
            ("cpu.run_self_ns", spans.self_per_call(Layer::CoreRun)),
            ("cpu.uops_per_pkt", f.uops as f64 / pkts),
            ("mem.access_ns", spans.ns_per_call(Layer::MemAccess)),
        ];
        m.extend(f.mem.metrics(f.counters.packets));
        m
    }
}
