//! Hash-table-based network functions: NAT, prads, and the IP packet
//! filter (§6.5, Fig. 13, Table 3).
//!
//! Each of these NFs is dominated by a hash-table lookup per packet
//! (address translation, asset records, filter rules) plus light
//! per-packet processing — exactly the pattern HALO's generic lookup
//! instructions accelerate.

use halo_accel::HaloEngine;
use halo_cpu::Program;
use halo_datapath::{LookupBackend, LookupExecutor, NbRegion};
use halo_mem::{CoreId, MemorySystem};
use halo_sim::SplitMix64;
use halo_tables::{CuckooTable, FlowKey};

/// Which hash-table NF to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HashNfKind {
    /// DPDK-based NAT: exact-match translation table.
    Nat,
    /// prads passive asset detection: asset-record table.
    Prads,
    /// Hash-table-based IP packet filter.
    PacketFilter,
}

impl HashNfKind {
    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            HashNfKind::Nat => "NAT",
            HashNfKind::Prads => "prads",
            HashNfKind::PacketFilter => "PacketFilter",
        }
    }

    /// The Table 3 configurations (entry/rule counts) for this NF.
    #[must_use]
    pub fn table3_sizes(self) -> [usize; 3] {
        match self {
            HashNfKind::Nat | HashNfKind::Prads => [1_000, 10_000, 100_000],
            HashNfKind::PacketFilter => [100, 1_000, 10_000],
        }
    }

    /// Lookups per packet (NAT does two: LAN->WAN map + reverse check;
    /// prads one asset probe; the filter one rule probe).
    #[must_use]
    pub fn lookups_per_packet(self) -> usize {
        match self {
            HashNfKind::Nat => 2,
            HashNfKind::Prads | HashNfKind::PacketFilter => 1,
        }
    }

    /// Non-lookup per-packet work `(loads, stores, compute)`.
    ///
    /// Calibrated so the lookup share of each NF's per-packet time
    /// matches the speedups of Fig. 13 (2.3x-2.7x): NAT rewrites
    /// headers and fixes checksums, prads updates asset records, the
    /// filter only renders a verdict.
    #[must_use]
    pub fn extra_mix(self) -> (usize, usize, usize) {
        match self {
            HashNfKind::Nat => (12, 8, 700),
            HashNfKind::Prads => (6, 4, 330),
            HashNfKind::PacketFilter => (4, 1, 420),
        }
    }

    /// All three kinds.
    #[must_use]
    pub fn all() -> [HashNfKind; 3] {
        [HashNfKind::Nat, HashNfKind::Prads, HashNfKind::PacketFilter]
    }
}

/// Report of a hash-NF run.
#[derive(Debug, Clone, Copy)]
pub struct HashNfReport {
    /// Packets processed.
    pub packets: u64,
    /// Total cycles elapsed.
    pub cycles: u64,
    /// Average cycles per packet.
    pub cycles_per_packet: f64,
}

/// An instantiated hash-table NF.
///
/// # Examples
///
/// ```
/// use halo_mem::{CoreId, MachineConfig, MemorySystem};
/// use halo_nf::{HashNf, HashNfKind};
///
/// let mut sys = MemorySystem::new(MachineConfig::small());
/// let mut nf = HashNf::new(&mut sys, CoreId(0), HashNfKind::Nat, 1_000, 7);
/// nf.warm(&mut sys);
/// let report = nf.run_software(&mut sys, 100);
/// assert_eq!(report.packets, 100);
/// assert!(report.cycles_per_packet > 0.0);
/// ```
#[derive(Debug)]
pub struct HashNf {
    kind: HashNfKind,
    exec: LookupExecutor,
    table: CuckooTable,
    entries: usize,
    rng: SplitMix64,
}

impl HashNf {
    /// Key length used by these NFs (IPv4 5-tuple).
    pub const KEY_LEN: usize = 13;

    /// Builds the NF with `entries` installed table entries.
    pub fn new(
        sys: &mut MemorySystem,
        core: CoreId,
        kind: HashNfKind,
        entries: usize,
        seed: u64,
    ) -> Self {
        let mut table =
            CuckooTable::with_capacity_for(sys.data_mut(), entries, 0.85, Self::KEY_LEN);
        for id in 0..entries as u64 {
            table
                .insert(sys.data_mut(), &FlowKey::synthetic(id, Self::KEY_LEN), id)
                .expect("sized for the entry count");
        }
        let exec = LookupExecutor::new(sys, core, LookupBackend::Software);
        exec.warm_scratch(sys);
        HashNf {
            kind,
            exec,
            table,
            entries,
            rng: SplitMix64::new(seed),
        }
    }

    /// The NF kind.
    #[must_use]
    pub fn kind(&self) -> HashNfKind {
        self.kind
    }

    /// Installed table entries.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// The NF's lookup table.
    #[must_use]
    pub fn table(&self) -> &CuckooTable {
        &self.table
    }

    /// Pre-loads the table into the LLC.
    pub fn warm(&self, sys: &mut MemorySystem) {
        for a in self.table.all_lines().collect::<Vec<_>>() {
            sys.warm_llc(a);
        }
    }

    fn extra_program(&mut self) -> Program {
        let (loads, stores, compute) = self.kind.extra_mix();
        let scratch = self.exec.scratch_mut();
        let mut p = Program::new();
        for _ in 0..loads {
            p.load(scratch.next(), &[]);
        }
        for _ in 0..stores {
            p.store(scratch.next(), &[]);
        }
        p.compute_run(1, compute);
        p
    }

    fn next_key(&mut self) -> FlowKey {
        FlowKey::synthetic(self.rng.below(self.entries as u64), Self::KEY_LEN)
    }

    /// Runs `packets` packets with software lookups.
    pub fn run_software(&mut self, sys: &mut MemorySystem, packets: u64) -> HashNfReport {
        let start = self.exec.ready_at();
        let mut t = start;
        for _ in 0..packets {
            for _ in 0..self.kind.lookups_per_packet() {
                let key = self.next_key();
                let tr = self.table.lookup_traced(sys.data_mut(), &key, true);
                debug_assert!(tr.result.is_some());
                t = self.exec.run_sw(sys, &tr, None, t);
            }
            let extra = self.extra_program();
            t = self.exec.run(&extra, sys, t).finish;
        }
        let cycles = (t - start).0;
        HashNfReport {
            packets,
            cycles,
            cycles_per_packet: cycles as f64 / packets as f64,
        }
    }

    /// Runs `packets` packets with HALO non-blocking lookups, processed
    /// in DPDK-style bursts of 8: the burst's lookups are dispatched
    /// together, the per-packet processing overlaps with the in-flight
    /// queries, and a single `SNAPSHOT_READ` per burst collects the
    /// destination cache line.
    pub fn run_halo(
        &mut self,
        sys: &mut MemorySystem,
        engine: &mut HaloEngine,
        packets: u64,
    ) -> HashNfReport {
        const BURST: u64 = 8;
        let start = self.exec.ready_at();
        let mut t = start;
        // Two destination lines: a burst of 8 packets issues at most 16
        // non-blocking lookups (NAT does two per packet).
        let nb = NbRegion::from_raw(sys.data_mut().alloc_lines(128), 16);
        let mut remaining = packets;
        while remaining > 0 {
            let burst = BURST.min(remaining);
            remaining -= burst;
            let mut lookups_done = t;
            let mut slot = 0u64;
            for _ in 0..burst {
                for _ in 0..self.kind.lookups_per_packet() {
                    let key = self.next_key();
                    let h = engine.lookup_nb(
                        sys,
                        self.exec.core_id(),
                        &self.table,
                        &key,
                        None,
                        nb.dest((slot % 16) as usize),
                        t + halo_sim::Cycles(slot), // ~1 issue/cycle
                    );
                    debug_assert!(h.result.is_some());
                    lookups_done = lookups_done.max(h.result_at);
                    slot += 1;
                }
            }
            // Per-packet processing overlaps with the in-flight lookups.
            let mut extra_done = t;
            for _ in 0..burst {
                let extra = self.extra_program();
                extra_done = self.exec.run(&extra, sys, extra_done).finish;
            }
            // One snapshot read per burst to collect results.
            let (_, snap) = engine.snapshot_read(
                sys,
                self.exec.core_id(),
                nb.base(),
                lookups_done.max(extra_done),
            );
            t = snap;
        }
        let cycles = (t - start).0;
        HashNfReport {
            packets,
            cycles,
            cycles_per_packet: cycles as f64 / packets as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_accel::AcceleratorConfig;
    use halo_mem::MachineConfig;

    #[test]
    fn software_run_reports_sane_numbers() {
        let mut sys = MemorySystem::new(MachineConfig::small());
        let mut nf = HashNf::new(&mut sys, CoreId(0), HashNfKind::PacketFilter, 1_000, 1);
        nf.warm(&mut sys);
        let r = nf.run_software(&mut sys, 50);
        assert_eq!(r.packets, 50);
        assert!(r.cycles_per_packet > 50.0);
    }

    #[test]
    fn halo_beats_software_on_every_kind() {
        for kind in HashNfKind::all() {
            let mut sys = MemorySystem::new(MachineConfig::small());
            let mut engine = HaloEngine::new(&sys, AcceleratorConfig::default());
            let mut nf = HashNf::new(&mut sys, CoreId(0), kind, 10_000, 1);
            nf.warm(&mut sys);
            let sw = nf.run_software(&mut sys, 80);

            let mut sys2 = MemorySystem::new(MachineConfig::small());
            let mut nf2 = HashNf::new(&mut sys2, CoreId(0), kind, 10_000, 1);
            nf2.warm(&mut sys2);
            let hw = nf2.run_halo(&mut sys2, &mut engine, 80);

            assert!(
                hw.cycles_per_packet < sw.cycles_per_packet,
                "{}: halo {} >= sw {}",
                kind.name(),
                hw.cycles_per_packet,
                sw.cycles_per_packet
            );
        }
    }

    #[test]
    fn nat_does_two_lookups() {
        assert_eq!(HashNfKind::Nat.lookups_per_packet(), 2);
        assert_eq!(HashNfKind::Prads.lookups_per_packet(), 1);
    }

    #[test]
    fn table3_sizes_match_paper() {
        assert_eq!(HashNfKind::Nat.table3_sizes(), [1_000, 10_000, 100_000]);
        assert_eq!(
            HashNfKind::PacketFilter.table3_sizes(),
            [100, 1_000, 10_000]
        );
    }
}
