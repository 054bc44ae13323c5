//! The out-of-order core timing model.
//!
//! A bounded-window list scheduler: micro-ops issue in dataflow order
//! subject to (a) issue width, (b) the reorder-buffer window, (c)
//! load/store-queue occupancy, and (d) per-core MSHRs for cache misses.
//! This captures the two effects the paper's arguments rest on — memory
//! -level parallelism for independent loads, and serialization of
//! dependent pointer chases — without simulating a full pipeline.

use crate::uop::{Program, UopKind};
use halo_mem::{AccessKind, CoreId, CoreMem, HitLevel};
use halo_sim::{Cycle, Cycles, OutstandingWindow};

/// Per-level access counters plus attributed stall cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemProfile {
    /// Loads+stores satisfied by L1.
    pub l1: u64,
    /// ... by L2.
    pub l2: u64,
    /// ... by LLC (clean).
    pub llc: u64,
    /// ... by LLC after a remote dirty snoop.
    pub llc_dirty: u64,
    /// ... by DRAM.
    pub dram: u64,
    /// Excess cycles (beyond an L1 hit) spent on accesses that missed L2,
    /// i.e. the L2/LLC-miss penalty the paper's Fig. 4 attributes stalls
    /// to. Upper bound: the OoO window hides part of this in practice.
    pub l2llc_miss_penalty: Cycles,
}

impl MemProfile {
    #[inline]
    fn note(&mut self, level: HitLevel, excess: Cycles, l1_lat: Cycles) {
        match level {
            HitLevel::L1 => self.l1 += 1,
            HitLevel::L2 => self.l2 += 1,
            HitLevel::Llc => self.llc += 1,
            HitLevel::LlcRemoteDirty => self.llc_dirty += 1,
            HitLevel::Dram => self.dram += 1,
        }
        // L2 hits cost little; count only genuine L2-miss penalty.
        if level > HitLevel::L2 {
            self.l2llc_miss_penalty += excess - l1_lat.min(excess);
        }
    }

    /// Total memory operations profiled.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.l1 + self.l2 + self.llc + self.llc_dirty + self.dram
    }
}

/// Result of executing one program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecReport {
    /// Cycle the first uop issued.
    pub start: Cycle,
    /// Cycle the last uop completed.
    pub finish: Cycle,
    /// Memory behaviour.
    pub mem: MemProfile,
    /// Number of retired micro-ops.
    pub retired: u64,
}

impl ExecReport {
    /// Wall-clock duration of the program.
    #[must_use]
    pub fn duration(&self) -> Cycles {
        self.finish - self.start
    }
}

/// An out-of-order core executing [`Program`]s against a
/// [`halo_mem::MemorySystem`] (or any other [`CoreMem`] context, such as
/// an epoch-window core).
///
/// # Examples
///
/// ```
/// use halo_cpu::{CoreModel, Program};
/// use halo_mem::{CoreId, MachineConfig, MemorySystem};
/// use halo_sim::Cycle;
///
/// let mut sys = MemorySystem::new(MachineConfig::small());
/// let buf = sys.data_mut().alloc_lines(64);
/// let mut core = CoreModel::new(CoreId(0), sys.config());
/// let mut p = Program::new();
/// let x = p.load(buf, &[]);
/// p.compute(1, &[x]);
/// let report = core.run(&p, &mut sys, Cycle(0));
/// assert!(report.finish > Cycle(0));
/// assert_eq!(report.retired, 2);
/// ```
#[derive(Debug)]
pub struct CoreModel {
    core: CoreId,
    issue_width: usize,
    rob: usize,
    lq: usize,
    sq: usize,
    mshr: OutstandingWindow,
    /// Monotonic local clock: a core cannot issue a new program before
    /// its previous one finished issuing (programs on the same hardware
    /// thread serialize at retire).
    ready_at: Cycle,
    /// Scratch reused across [`run`](Self::run) calls so the scheduler
    /// allocates nothing per program (the vswitch runs at least four
    /// per packet: three phase programs rebuilt into one buffer, plus
    /// the software lookups).
    completion: Vec<Cycle>,
    load_times: Vec<Cycle>,
    store_times: Vec<Cycle>,
}

impl CoreModel {
    /// Creates a core model for `core` using `cfg`'s pipeline limits.
    #[must_use]
    pub fn new(core: CoreId, cfg: &halo_mem::MachineConfig) -> Self {
        CoreModel {
            core,
            issue_width: cfg.issue_width,
            rob: cfg.rob,
            lq: cfg.lq,
            sq: cfg.sq,
            mshr: OutstandingWindow::new(cfg.mshrs),
            ready_at: Cycle::ZERO,
            completion: Vec::new(),
            load_times: Vec::new(),
            store_times: Vec::new(),
        }
    }

    /// The core this model drives.
    #[must_use]
    pub fn id(&self) -> CoreId {
        self.core
    }

    /// The core's local ready time (end of its last program).
    #[must_use]
    pub fn ready_at(&self) -> Cycle {
        self.ready_at
    }

    /// Resets the local clock (between independent experiments).
    pub fn reset(&mut self) {
        self.ready_at = Cycle::ZERO;
        self.mshr.reset();
    }

    /// Executes `prog` starting no earlier than `at`, returning the
    /// timing report. The core's local clock advances to the finish time.
    ///
    /// Generic over [`CoreMem`], so the same scheduler drives the classic
    /// [`halo_mem::MemorySystem`] and a per-thread
    /// [`halo_mem::EpochCore`] shard identically.
    pub fn run<S: CoreMem>(&mut self, prog: &Program, sys: &mut S, at: Cycle) -> ExecReport {
        let base = at.max(self.ready_at);
        let n = prog.len();
        self.completion.clear();
        self.completion.reserve(n);
        let mut mem_prof = MemProfile::default();
        let l1_lat = sys.config().l1_latency;

        // Sliding windows: uop i cannot issue before uop i-rob completed
        // (ROB full), nor before the (i_l - lq)'th load completed, etc.
        self.load_times.clear();
        self.store_times.clear();
        let mut last_finish = base;
        let mut first_issue: Option<Cycle> = None;
        let rob = self.rob;
        let mut pace = Pacer {
            at: base,
            slot: 0,
            width: self.issue_width,
        };
        // Id of the current entry's first uop.
        let mut i = 0;

        for entry in prog.entries() {
            if entry.count > 1 {
                let UopKind::Compute { latency } = entry.kind else {
                    unreachable!("only dependency-free computes form runs")
                };
                let count = entry.count as usize;
                // Only uop 0 can be the first to issue, and it has no
                // ROB predecessor, so it issues at the pacing floor.
                first_issue.get_or_insert(pace.at);
                last_finish = last_finish.max(self.run_filler(i, count, latency, &mut pace));
                i += count;
                continue;
            }

            // Dataflow readiness.
            let mut ready = base;
            for &d in prog.deps_of(entry) {
                ready = ready.max(self.completion[d as usize]);
            }
            // ROB window.
            if i >= rob {
                ready = ready.max(self.completion[i - rob]);
            }
            ready = ready.max(pace.next());

            let done = match entry.kind {
                UopKind::Compute { latency } => ready + Cycles(latency),
                UopKind::Load { addr } => {
                    if self.load_times.len() >= self.lq {
                        let idx = self.load_times.len() - self.lq;
                        ready = ready.max(self.load_times[idx]);
                    }
                    let issue = self.mshr.acquire(ready);
                    let out = sys.access(self.core, addr, AccessKind::Load, issue);
                    self.mshr.commit(out.complete);
                    mem_prof.note(out.level, out.complete - issue, l1_lat);
                    self.load_times.push(out.complete);
                    out.complete
                }
                UopKind::Store { addr } => {
                    if self.store_times.len() >= self.sq {
                        let idx = self.store_times.len() - self.sq;
                        ready = ready.max(self.store_times[idx]);
                    }
                    let issue = self.mshr.acquire(ready);
                    let out = sys.access(self.core, addr, AccessKind::Store, issue);
                    self.mshr.commit(out.complete);
                    mem_prof.note(out.level, out.complete - issue, l1_lat);
                    self.store_times.push(out.complete);
                    out.complete
                }
            };
            if first_issue.is_none() {
                first_issue = Some(ready);
            }
            self.completion.push(done);
            last_finish = last_finish.max(done);
            i += 1;
        }

        self.ready_at = last_finish;
        if sys.trace_enabled() {
            sys.trace_span("core", prog.label(), base, last_finish);
        }
        ExecReport {
            start: first_issue.unwrap_or(base),
            finish: last_finish,
            mem: mem_prof,
            retired: n as u64,
        }
    }

    /// Schedules uops `first..first + count`, a run of dependency-free
    /// computes of `latency` cycles, and returns the run's latest
    /// completion. Each member takes the per-uop recurrence with no
    /// dataflow dependencies and no load/store queue: ready at
    /// `max(pace_m, completion[m - rob])`.
    #[inline]
    fn run_filler(&mut self, first: usize, count: usize, latency: u64, pace: &mut Pacer) -> Cycle {
        let rob = self.rob;
        let lat = Cycles(latency);
        let mut latest = Cycle::ZERO;
        for m in first..first + count {
            let mut ready = pace.next();
            if m >= rob {
                ready = ready.max(self.completion[m - rob]);
            }
            latest = latest.max(ready + lat);
            self.completion.push(ready + lat);
        }
        latest
    }
}

/// Issue bandwidth: at most `width` uops per cycle, approximated by a
/// fixed program-order floor `base + i / width` for uop `i`, stepped
/// by a counter instead of a divide per uop.
#[derive(Debug)]
struct Pacer {
    /// The current floor.
    at: Cycle,
    /// Uops already issued at `at`.
    slot: usize,
    width: usize,
}

impl Pacer {
    /// Issues one uop; returns its floor.
    fn next(&mut self) -> Cycle {
        let at = self.at;
        self.slot += 1;
        if self.slot == self.width {
            self.slot = 0;
            self.at += Cycles(1);
        }
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_mem::MachineConfig;
    use halo_mem::MemorySystem;

    fn setup() -> (MemorySystem, CoreModel) {
        let sys = MemorySystem::new(MachineConfig::small());
        let core = CoreModel::new(CoreId(0), sys.config());
        (sys, core)
    }

    #[test]
    fn independent_loads_overlap() {
        let (mut sys, mut core) = setup();
        // Warm two lines into the LLC, not private caches.
        let a = sys.data_mut().alloc_lines(64);
        let b = sys.data_mut().alloc_lines(64);
        sys.warm_llc(a);
        sys.warm_llc(b);

        let mut par = Program::new();
        par.load(a, &[]);
        par.load(b, &[]);
        let r_par = core.run(&par, &mut sys, Cycle(0));

        let mut sys2 = MemorySystem::new(MachineConfig::small());
        let a2 = sys2.data_mut().alloc_lines(64);
        let b2 = sys2.data_mut().alloc_lines(64);
        sys2.warm_llc(a2);
        sys2.warm_llc(b2);
        let mut core2 = CoreModel::new(CoreId(0), sys2.config());
        let mut seq = Program::new();
        let x = seq.load(a2, &[]);
        seq.load(b2, &[x]);
        let r_seq = core2.run(&seq, &mut sys2, Cycle(0));

        assert!(
            r_par.duration().0 < r_seq.duration().0,
            "parallel {} should beat serial {}",
            r_par.duration(),
            r_seq.duration()
        );
    }

    #[test]
    fn compute_chain_latency_adds_up() {
        let (mut sys, mut core) = setup();
        let mut p = Program::new();
        let mut last = p.compute(3, &[]);
        for _ in 0..9 {
            last = p.compute(3, &[last]);
        }
        let r = core.run(&p, &mut sys, Cycle(0));
        assert!(
            r.duration().0 >= 30,
            "10 chained 3-cycle ops: {}",
            r.duration()
        );
    }

    #[test]
    fn issue_width_paces_independent_compute() {
        let (mut sys, mut core) = setup();
        let mut p = Program::new();
        for _ in 0..400 {
            p.compute(1, &[]);
        }
        let r = core.run(&p, &mut sys, Cycle(0));
        // 400 independent 1-cycle ops on a 4-wide core: >= 100 cycles.
        assert!(r.duration().0 >= 100);
        assert!(r.duration().0 <= 120, "pacing too slow: {}", r.duration());
    }

    #[test]
    fn mem_profile_counts_levels() {
        let (mut sys, mut core) = setup();
        let a = sys.data_mut().alloc_lines(64);
        let mut p = Program::new();
        let x = p.load(a, &[]); // cold: DRAM
        p.load(a, &[x]); // second: L1
        let r = core.run(&p, &mut sys, Cycle(0));
        assert_eq!(r.mem.dram, 1);
        assert_eq!(r.mem.l1, 1);
        assert_eq!(r.mem.total(), 2);
        assert!(r.mem.l2llc_miss_penalty.0 > 0);
    }

    #[test]
    fn core_clock_advances_between_programs() {
        let (mut sys, mut core) = setup();
        let mut p = Program::new();
        p.compute(5, &[]);
        let r1 = core.run(&p, &mut sys, Cycle(0));
        let r2 = core.run(&p, &mut sys, Cycle(0));
        assert!(r2.finish >= r1.finish);
        assert_eq!(core.ready_at(), r2.finish);
        core.reset();
        assert_eq!(core.ready_at(), Cycle::ZERO);
    }

    #[test]
    fn tracing_records_labeled_core_spans() {
        let (mut sys, mut core) = setup();
        sys.enable_tracing(1024);
        let mut p = Program::with_label("unit_prog");
        p.compute(5, &[]);
        let r = core.run(&p, &mut sys, Cycle(0));
        let h = sys
            .tracer()
            .histogram("core", "unit_prog")
            .expect("core span recorded under the program label");
        assert_eq!(h.count(), 1);
        // Span runs from the issue base (cycle 0 here) to the finish.
        assert_eq!(h.max(), r.finish.0);
        // Unlabeled programs fall back to the default label.
        let mut q = Program::new();
        q.compute(1, &[]);
        core.run(&q, &mut sys, Cycle(0));
        assert!(sys.tracer().histogram("core", "program").is_some());
    }

    #[test]
    fn mshr_limit_serializes_excess_misses() {
        let mut cfg = MachineConfig::small();
        cfg.mshrs = 2;
        let mut sys = MemorySystem::new(cfg);
        let mut core = CoreModel::new(CoreId(0), sys.config());
        // 8 independent cold loads with only 2 MSHRs.
        let mut p = Program::new();
        let base = sys.data_mut().alloc_lines(64 * 64);
        for i in 0..8u64 {
            p.load(base + i * 64, &[]);
        }
        let r = core.run(&p, &mut sys, Cycle(0));
        // With 2 MSHRs, 8 DRAM misses need >= 4 serial DRAM round trips.
        let dram = sys.config().dram_latency.0;
        assert!(
            r.duration().0 >= 3 * dram,
            "MSHR limit not enforced: {}",
            r.duration()
        );
    }
}
