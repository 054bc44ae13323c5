//! Co-location interference between a virtual-switch thread and a
//! network function sharing a core via SMT (§6.3, Fig. 12).
//!
//! Following the paper's methodology, the switch sibling is an emulated
//! switching process: a loop of MegaFlow tuple-space classifications.
//! In software mode each classification executes several full
//! ~210-instruction lookups on the shared core — dragging tuple tables
//! through the shared L1/L2. In HALO mode each lookup is one
//! instruction-slot dispatch to the near-cache accelerators, leaving
//! the private caches to the NF.

use crate::compute_nf::{ComputeNf, ComputeNfKind};
use halo_accel::HaloEngine;
use halo_classify::{distinct_masks, PacketHeader, SearchMode};
use halo_cpu::MemProfile;
use halo_datapath::{
    LookupBackend, LookupExecutor, TableBackend, WildcardBackend, WildcardMatcher, WildcardTable,
};
use halo_mem::{CoreId, MemorySystem};
use halo_sim::{Cycle, Cycles, SplitMix64};

/// Which implementation the switch sibling uses for its lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchImpl {
    /// Full software cuckoo lookups on the shared core.
    Software,
    /// HALO near-cache lookups (one instruction per lookup).
    Halo,
}

/// Result of one co-location run.
#[derive(Debug, Clone, Copy)]
pub struct ColocationReport {
    /// NF cycles/packet running alone.
    pub solo_cycles_per_packet: f64,
    /// NF cycles/packet with the switch sibling.
    pub co_cycles_per_packet: f64,
    /// The NF's own L1D miss ratio running alone.
    pub solo_l1_miss_ratio: f64,
    /// The NF's own L1D miss ratio with the switch sibling.
    pub co_l1_miss_ratio: f64,
}

impl ColocationReport {
    /// Relative NF throughput drop caused by co-location, in `[0, 1)`.
    #[must_use]
    pub fn throughput_drop(&self) -> f64 {
        1.0 - self.solo_cycles_per_packet / self.co_cycles_per_packet
    }

    /// Increase in the NF's L1D miss ratio (fraction points).
    #[must_use]
    pub fn l1_miss_increase(&self) -> f64 {
        self.co_l1_miss_ratio - self.solo_l1_miss_ratio
    }
}

/// Number of MegaFlow tuples the emulated switch classifies against.
const SWITCH_TUPLES: usize = 10;

/// The switch sibling thread: an emulated datapath classifying flows
/// against a tuple space.
#[derive(Debug)]
struct SwitchThread {
    exec: LookupExecutor,
    tss: WildcardMatcher,
    flows: u64,
    rng: SplitMix64,
    imp: SwitchImpl,
}

impl SwitchThread {
    fn new(sys: &mut MemorySystem, core: CoreId, flows: usize, imp: SwitchImpl, seed: u64) -> Self {
        let masks = distinct_masks(SWITCH_TUPLES);
        let mut tss = WildcardBackend::Tss.build(
            sys.data_mut(),
            TableBackend::Cuckoo,
            &masks,
            flows / SWITCH_TUPLES + 512,
            SearchMode::FirstMatch,
        );
        for f in 0..flows as u64 {
            let key = PacketHeader::synthetic(f).miniflow();
            let mask = &masks[(f % SWITCH_TUPLES as u64) as usize];
            tss.insert_masked(sys.data_mut(), mask, &key, 0, f)
                .expect("tuple sized for its share");
        }
        for a in tss.memory_lines() {
            sys.warm_llc(a);
        }
        // The sibling's scratch stays cold: its working set competes
        // with the NF for the shared private caches.
        let exec = LookupExecutor::new(sys, core, LookupBackend::Software);
        SwitchThread {
            exec,
            tss,
            flows: flows as u64,
            rng: SplitMix64::new(seed),
            imp,
        }
    }

    /// Runs one classification starting at `at`; returns its finish time.
    fn step(&mut self, sys: &mut MemorySystem, engine: &mut HaloEngine, at: Cycle) -> Cycle {
        let key = PacketHeader::synthetic(self.rng.below(self.flows)).miniflow();
        match self.imp {
            SwitchImpl::Software => {
                let (_, probes) = self.tss.classify_traced(sys.data_mut(), &key, true);
                let mut t = at;
                for (_, tr) in &probes {
                    t = self.exec.run_sw(sys, tr, None, t);
                }
                t
            }
            SwitchImpl::Halo => {
                // All probed tuples dispatched non-blocking; the sibling
                // thread consumes a few issue slots and one destination
                // line on the shared core (the per-query instruction
                // footprint of LOOKUP_NB + SNAPSHOT_READ).
                let core = self.exec.core_id();
                let (_, probes) = self.tss.classify_traced(sys.data_mut(), &key, false);
                let mut issue = halo_cpu::Program::new();
                issue.compute_run(1, probes.len() + 1);
                let lk = issue.load(self.exec.scratch_mut().next(), &[]);
                issue.compute(1, &[lk]);
                let issued = self.exec.run(&issue, sys, at).finish;
                let mut done = issued;
                for (slot, (i, tr)) in probes.iter().enumerate() {
                    let table_addr = self
                        .tss
                        .probe_meta_addr(*i)
                        .expect("cuckoo tuples have in-memory metadata");
                    let h = halo_tables::hash_key(&key, halo_tables::SEED_PRIMARY) ^ (*i as u64);
                    let out = engine.dispatch(
                        sys,
                        core,
                        table_addr,
                        tr,
                        h,
                        None,
                        None,
                        at + Cycles(slot as u64),
                    );
                    done = done.max(out.complete);
                }
                done
            }
        }
    }
}

fn miss_ratio(p: &MemProfile) -> f64 {
    let total = p.total().max(1);
    1.0 - p.l1 as f64 / total as f64
}

/// Runs the Fig. 12 experiment: NF `kind` co-located with a switch
/// sibling classifying `flows` flows using `imp` lookups, measured over
/// `packets` NF packets. Deterministic in `seed`.
pub fn colocation_experiment(
    kind: ComputeNfKind,
    flows: usize,
    imp: SwitchImpl,
    packets: u64,
    seed: u64,
) -> ColocationReport {
    use halo_accel::AcceleratorConfig;
    use halo_mem::MachineConfig;

    let core = CoreId(0);

    // --- Solo run. ------------------------------------------------------
    let mut sys = MemorySystem::new(MachineConfig::default());
    let mut nf = ComputeNf::new(&mut sys, core, kind, seed);
    nf.warm(&mut sys);
    let mut t = Cycle(0);
    let start = t;
    let mut solo_mem = MemProfile::default();
    for _ in 0..packets {
        let r = nf.process_packet(&mut sys, t);
        accumulate(&mut solo_mem, &r.mem);
        t = r.finish;
    }
    let solo_cpp = (t - start).0 as f64 / packets as f64;

    // --- Co-located run (same core: SMT siblings share L1/L2). ----------
    let mut sys = MemorySystem::new(MachineConfig::default());
    let mut engine = HaloEngine::new(&sys, AcceleratorConfig::default());
    let mut nf = ComputeNf::new(&mut sys, core, kind, seed);
    let mut switch = SwitchThread::new(&mut sys, core, flows, imp, seed ^ 0xD15F);
    nf.warm(&mut sys);
    let mut t_nf = Cycle(0);
    let mut t_sw = Cycle(0);
    let start = t_nf;
    let mut co_mem = MemProfile::default();
    for _ in 0..packets {
        // The switch sibling keeps pace with the NF's clock.
        while t_sw < t_nf {
            t_sw = switch.step(&mut sys, &mut engine, t_sw);
        }
        let r = nf.process_packet(&mut sys, t_nf);
        accumulate(&mut co_mem, &r.mem);
        t_nf = r.finish;
    }
    let co_cpp = (t_nf - start).0 as f64 / packets as f64;

    ColocationReport {
        solo_cycles_per_packet: solo_cpp,
        co_cycles_per_packet: co_cpp,
        solo_l1_miss_ratio: miss_ratio(&solo_mem),
        co_l1_miss_ratio: miss_ratio(&co_mem),
    }
}

fn accumulate(into: &mut MemProfile, from: &MemProfile) {
    into.l1 += from.l1;
    into.l2 += from.l2;
    into.llc += from.llc;
    into.llc_dirty += from.llc_dirty;
    into.dram += from.dram;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn software_switch_degrades_nf() {
        let r = colocation_experiment(ComputeNfKind::Acl, 10_000, SwitchImpl::Software, 80, 1);
        assert!(
            r.throughput_drop() > 0.05,
            "software co-run must hurt: drop {}",
            r.throughput_drop()
        );
        assert!(
            r.l1_miss_increase() > 0.0,
            "L1 pollution expected: {} -> {}",
            r.solo_l1_miss_ratio,
            r.co_l1_miss_ratio
        );
    }

    #[test]
    fn halo_switch_is_nearly_harmless() {
        let sw = colocation_experiment(ComputeNfKind::Acl, 10_000, SwitchImpl::Software, 80, 1);
        let hw = colocation_experiment(ComputeNfKind::Acl, 10_000, SwitchImpl::Halo, 80, 1);
        assert!(
            hw.throughput_drop() < sw.throughput_drop(),
            "halo drop {} must be below software drop {}",
            hw.throughput_drop(),
            sw.throughput_drop()
        );
        assert!(
            hw.throughput_drop() < 0.10,
            "halo drop {}",
            hw.throughput_drop()
        );
        assert!(
            hw.l1_miss_increase() < sw.l1_miss_increase(),
            "halo must pollute less: {} vs {}",
            hw.l1_miss_increase(),
            sw.l1_miss_increase()
        );
    }

    #[test]
    fn report_arithmetic() {
        let r = ColocationReport {
            solo_cycles_per_packet: 80.0,
            co_cycles_per_packet: 100.0,
            solo_l1_miss_ratio: 0.02,
            co_l1_miss_ratio: 0.10,
        };
        assert!((r.throughput_drop() - 0.2).abs() < 1e-12);
        assert!((r.l1_miss_increase() - 0.08).abs() < 1e-12);
    }
}
