//! Compute-intensive network functions (ACL, Snort, mTCP) — the
//! co-runners of the interference study (§6.3, Fig. 12, Table 3).
//!
//! For Fig. 12 what matters about these NFs is their *cache behaviour*:
//! each has a hot private working set (rule tries, pattern tables,
//! connection state) that lives in L1/L2 when the NF runs alone and gets
//! evicted when a software virtual switch shares the core via SMT. The
//! models reproduce exactly that: per-packet kernels with a fixed
//! instruction mix over a configurable working set.

use halo_cpu::{CoreModel, ExecReport, Program};
use halo_mem::{Addr, CoreId, MemorySystem, CACHE_LINE};
use halo_sim::{Cycle, SplitMix64};

/// Which compute-intensive NF to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComputeNfKind {
    /// DPDK access-control list: trie walks over a compact ruleset.
    Acl,
    /// Snort intrusion detection: pattern-matching tables.
    Snort,
    /// mTCP user-level TCP stack: per-connection state.
    Mtcp,
}

impl ComputeNfKind {
    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ComputeNfKind::Acl => "ACL",
            ComputeNfKind::Snort => "Snort",
            ComputeNfKind::Mtcp => "mTCP",
        }
    }

    /// Working-set size in cache lines (ACL: compact trie ~24 KB;
    /// Snort: large pattern tables ~96 KB; mTCP: connection state
    /// ~48 KB).
    #[must_use]
    pub fn working_set_lines(self) -> u64 {
        match self {
            ComputeNfKind::Acl => 384,
            ComputeNfKind::Snort => 1536,
            ComputeNfKind::Mtcp => 768,
        }
    }

    /// `(loads, stores, compute)` micro-ops per packet.
    #[must_use]
    pub fn mix(self) -> (usize, usize, usize) {
        match self {
            ComputeNfKind::Acl => (24, 2, 150),
            ComputeNfKind::Snort => (40, 4, 260),
            ComputeNfKind::Mtcp => (28, 10, 190),
        }
    }

    /// All three kinds.
    #[must_use]
    pub fn all() -> [ComputeNfKind; 3] {
        [
            ComputeNfKind::Acl,
            ComputeNfKind::Snort,
            ComputeNfKind::Mtcp,
        ]
    }
}

/// An instantiated compute-intensive NF bound to a core.
///
/// # Examples
///
/// ```
/// use halo_mem::{CoreId, MachineConfig, MemorySystem};
/// use halo_nf::{ComputeNf, ComputeNfKind};
/// use halo_sim::Cycle;
///
/// let mut sys = MemorySystem::new(MachineConfig::small());
/// let mut nf = ComputeNf::new(&mut sys, CoreId(1), ComputeNfKind::Acl, 42);
/// nf.warm(&mut sys);
/// let report = nf.process_packet(&mut sys, Cycle(0));
/// assert!(report.duration().0 > 0);
/// ```
#[derive(Debug)]
pub struct ComputeNf {
    kind: ComputeNfKind,
    core: CoreId,
    core_model: CoreModel,
    ws_base: Addr,
    ws_lines: u64,
    rng: SplitMix64,
    packets: u64,
}

impl ComputeNf {
    /// Allocates the NF's working set and binds it to `core`.
    pub fn new(sys: &mut MemorySystem, core: CoreId, kind: ComputeNfKind, seed: u64) -> Self {
        let ws_lines = kind.working_set_lines();
        let ws_base = sys.data_mut().alloc_lines(ws_lines * CACHE_LINE);
        ComputeNf {
            kind,
            core,
            core_model: CoreModel::new(core, sys.config()),
            ws_base,
            ws_lines,
            rng: SplitMix64::new(seed),
            packets: 0,
        }
    }

    /// The NF kind.
    #[must_use]
    pub fn kind(&self) -> ComputeNfKind {
        self.kind
    }

    /// Packets processed.
    #[must_use]
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Pre-loads the working set into the core's private caches (the NF
    /// running alone in steady state).
    pub fn warm(&self, sys: &mut MemorySystem) {
        for i in 0..self.ws_lines {
            sys.warm_private(self.core, self.ws_base + i * CACHE_LINE);
        }
    }

    /// Builds the per-packet kernel: dependent walk over random
    /// working-set lines (trie descent / pattern probes) plus compute.
    fn packet_program(&mut self) -> Program {
        let (loads, stores, compute) = self.kind.mix();
        let mut p = Program::new();
        // A short dependent chain (trie walk), then independent probes.
        let chain_len = loads / 3;
        let mut last = None;
        for _ in 0..chain_len {
            let a = self.ws_base + self.rng.below(self.ws_lines) * CACHE_LINE;
            last = Some(p.load(a, last.as_slice()));
        }
        for _ in chain_len..loads {
            let a = self.ws_base + self.rng.below(self.ws_lines) * CACHE_LINE;
            p.load(a, &[]);
        }
        for _ in 0..stores {
            let a = self.ws_base + self.rng.below(self.ws_lines) * CACHE_LINE;
            p.store(a, &[]);
        }
        p.compute_run(1, compute);
        p
    }

    /// Processes one packet; returns the execution report.
    pub fn process_packet(&mut self, sys: &mut MemorySystem, at: Cycle) -> ExecReport {
        self.packets += 1;
        let prog = self.packet_program();
        self.core_model.run(&prog, sys, at)
    }

    /// L1D hit/miss counters of this NF's core (shared with any SMT
    /// sibling — which is the point of Fig. 12b).
    #[must_use]
    pub fn l1_hit_miss(&self, sys: &MemorySystem) -> (u64, u64) {
        sys.l1_hit_miss(self.core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_mem::MachineConfig;

    #[test]
    fn warm_nf_mostly_hits_private_caches() {
        // Table-2-sized machine: ACL's 24 KB working set fits L1+L2.
        let mut sys = MemorySystem::new(MachineConfig::default());
        let mut nf = ComputeNf::new(&mut sys, CoreId(0), ComputeNfKind::Acl, 1);
        nf.warm(&mut sys);
        sys.clear_stats();
        let mut t = Cycle(0);
        for _ in 0..50 {
            let r = nf.process_packet(&mut sys, t);
            t = r.finish;
        }
        let stats = sys.stats();
        let llc = stats.counter("llc.hit") + stats.counter("llc.miss");
        let l1 = stats.counter("l1d.hit");
        assert!(
            l1 > 10 * llc.max(1),
            "warm NF should stay in private caches: {l1} L1 hits vs {llc} LLC probes"
        );
    }

    #[test]
    fn snort_is_heavier_than_acl() {
        let mut sys = MemorySystem::new(MachineConfig::small());
        let mut acl = ComputeNf::new(&mut sys, CoreId(0), ComputeNfKind::Acl, 1);
        let mut snort = ComputeNf::new(&mut sys, CoreId(1), ComputeNfKind::Snort, 1);
        acl.warm(&mut sys);
        snort.warm(&mut sys);
        let mut ta = Cycle(0);
        let mut ts = Cycle(0);
        for _ in 0..20 {
            ta = acl.process_packet(&mut sys, ta).finish;
            ts = snort.process_packet(&mut sys, ts).finish;
        }
        assert!(ts > ta, "snort {ts} should take longer than acl {ta}");
    }

    #[test]
    fn packet_counter_advances() {
        let mut sys = MemorySystem::new(MachineConfig::small());
        let mut nf = ComputeNf::new(&mut sys, CoreId(0), ComputeNfKind::Mtcp, 1);
        nf.process_packet(&mut sys, Cycle(0));
        nf.process_packet(&mut sys, Cycle(0));
        assert_eq!(nf.packets(), 2);
    }

    #[test]
    fn kinds_expose_names_and_mixes() {
        for k in ComputeNfKind::all() {
            assert!(!k.name().is_empty());
            let (l, s, c) = k.mix();
            assert!(l > 0 && c > 0 && s < l);
            assert!(k.working_set_lines() > 0);
        }
    }
}
