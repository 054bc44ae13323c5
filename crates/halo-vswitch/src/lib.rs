//! # halo-vswitch
//!
//! An OVS-like virtual-switch datapath over the simulated machine: the
//! layered EMC → MegaFlow pipeline of Fig. 2a with per-phase cycle
//! accounting (packet IO, pre-processing, EMC lookup, MegaFlow lookup,
//! other — the Fig. 3 breakdown), and pluggable lookup backends:
//! software (DPDK-style), HALO blocking, and HALO non-blocking.
//!
//! # Examples
//!
//! ```
//! use halo_classify::PacketHeader;
//! use halo_mem::{CoreId, MachineConfig, MemorySystem};
//! use halo_sim::Cycle;
//! use halo_vswitch::{LookupBackend, SwitchConfig, VirtualSwitch};
//!
//! let mut sys = MemorySystem::new(MachineConfig::small());
//! let mut vs = VirtualSwitch::new(
//!     &mut sys, CoreId(0), SwitchConfig::typical(5, LookupBackend::Software));
//! let pkt = PacketHeader::synthetic(9);
//! vs.install_flow(&mut sys, &pkt.miniflow(), 0, 0, 7).unwrap();
//! vs.warm_tables(&mut sys);
//! let (action, done) = vs.process_packet(&mut sys, None, &pkt, Cycle(0));
//! assert_eq!(action, Some(7));
//! assert!(done > Cycle(0));
//! assert!(vs.breakdown().total().0 > 0);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod multicore;
mod pipeline;

pub use halo_datapath::{WildcardBackend, WildcardError, WildcardMatcher, WildcardTable};
pub use multicore::{MultiCoreConfig, MultiCoreDatapath, StreamReport};
pub use pipeline::{Breakdown, LookupBackend, SwitchConfig, SwitchCounters, VirtualSwitch};

#[cfg(test)]
mod tests {
    use super::*;
    use halo_accel::{AcceleratorConfig, HaloEngine};
    use halo_classify::PacketHeader;
    use halo_mem::{CoreId, MachineConfig, MemorySystem};
    use halo_sim::Cycle;

    fn setup(backend: LookupBackend, flows: u64) -> (MemorySystem, VirtualSwitch, HaloEngine) {
        let mut sys = MemorySystem::new(MachineConfig::small());
        let engine = HaloEngine::new(&sys, AcceleratorConfig::default());
        let mut cfg = SwitchConfig::typical(5, backend);
        cfg.megaflow_capacity = (flows as usize).max(64);
        cfg.emc_entries = 256; // small EMC so many-flow configs overflow it
        let mut vs = VirtualSwitch::new(&mut sys, CoreId(0), cfg);
        for id in 0..flows {
            let pkt = PacketHeader::synthetic(id);
            vs.install_flow(&mut sys, &pkt.miniflow(), (id % 5) as usize, 0, id)
                .unwrap();
        }
        vs.warm_tables(&mut sys);
        (sys, vs, engine)
    }

    #[test]
    fn packets_classify_to_installed_actions() {
        let (mut sys, mut vs, _e) = setup(LookupBackend::Software, 50);
        let mut t = Cycle(0);
        for id in 0..50 {
            let pkt = PacketHeader::synthetic(id);
            let (action, done) = vs.process_packet(&mut sys, None, &pkt, t);
            assert_eq!(action, Some(id), "wrong action for flow {id}");
            t = done;
        }
        assert_eq!(vs.counters().packets, 50);
        assert_eq!(vs.counters().misses, 0);
    }

    #[test]
    fn unknown_packet_misses() {
        let (mut sys, mut vs, _e) = setup(LookupBackend::Software, 10);
        let pkt = PacketHeader::synthetic(1_000_000);
        let (action, _) = vs.process_packet(&mut sys, None, &pkt, Cycle(0));
        assert_eq!(action, None);
        assert_eq!(vs.counters().misses, 1);
    }

    #[test]
    fn emc_promotion_catches_repeat_flows() {
        let (mut sys, mut vs, _e) = setup(LookupBackend::Software, 10);
        let pkt = PacketHeader::synthetic(3);
        let (_, t1) = vs.process_packet(&mut sys, None, &pkt, Cycle(0));
        assert_eq!(vs.counters().emc_hits, 0);
        let (_, _t2) = vs.process_packet(&mut sys, None, &pkt, t1);
        assert_eq!(vs.counters().emc_hits, 1, "second packet must hit EMC");
    }

    /// With promotion disabled, repeat packets keep walking MegaFlow —
    /// the flag must gate the single-core path exactly like the
    /// multi-core one.
    #[test]
    fn emc_promotion_flag_gates_the_pipeline() {
        let mut sys = MemorySystem::new(MachineConfig::small());
        let mut cfg = SwitchConfig::typical(5, LookupBackend::Software);
        cfg.emc_promotion = false;
        let mut vs = VirtualSwitch::new(&mut sys, CoreId(0), cfg);
        let pkt = PacketHeader::synthetic(3);
        vs.install_flow(&mut sys, &pkt.miniflow(), 3, 0, 9).unwrap();
        let (_, t1) = vs.process_packet(&mut sys, None, &pkt, Cycle(0));
        let _ = vs.process_packet(&mut sys, None, &pkt, t1);
        assert_eq!(vs.counters().emc_hits, 0, "promotion off: EMC stays empty");
        assert_eq!(vs.counters().megaflow_hits, 2);
    }

    #[test]
    fn breakdown_phases_all_nonzero() {
        let (mut sys, mut vs, _e) = setup(LookupBackend::Software, 20);
        let mut t = Cycle(0);
        for id in 0..20 {
            let (_, done) = vs.process_packet(&mut sys, None, &PacketHeader::synthetic(id), t);
            t = done;
        }
        let b = vs.breakdown();
        assert!(b.io.0 > 0 && b.preproc.0 > 0 && b.emc.0 > 0 && b.other.0 > 0);
        assert!(b.megaflow.0 > 0, "first-seen flows must hit MegaFlow");
        assert!(b.classification_fraction() > 0.1);
        assert!(vs.cycles_per_packet() > 100.0);
    }

    #[test]
    fn halo_backends_are_functionally_identical_to_software() {
        for backend in [LookupBackend::HaloBlocking, LookupBackend::HaloNonBlocking] {
            let (mut sys, mut vs, mut engine) = setup(backend, 30);
            let mut t = Cycle(0);
            for id in 0..30 {
                let pkt = PacketHeader::synthetic(id);
                let (action, done) = vs.process_packet(&mut sys, Some(&mut engine), &pkt, t);
                assert_eq!(action, Some(id), "{backend:?} wrong action for {id}");
                t = done;
            }
        }
    }

    /// The wildcard backend is a runtime config choice: the switch
    /// classifies identically with the RVH matcher behind the MegaFlow
    /// seam, and range rules install directly through the switch.
    #[test]
    fn rvh_backend_drives_the_switch() {
        let mut sys = MemorySystem::new(MachineConfig::small());
        let mut cfg = SwitchConfig::typical(5, LookupBackend::Software);
        cfg.wildcard_backend = WildcardBackend::Rvh;
        cfg.emc_entries = 256;
        let mut vs = VirtualSwitch::new(&mut sys, CoreId(0), cfg);
        for id in 0..40u64 {
            let pkt = PacketHeader::synthetic(id);
            vs.install_flow(&mut sys, &pkt.miniflow(), (id % 5) as usize, 0, id)
                .unwrap();
        }
        vs.warm_tables(&mut sys);
        assert_eq!(vs.megaflow().name(), "rvh");
        assert_eq!(vs.megaflow().rules(), 40);
        let mut t = Cycle(0);
        for id in 0..40 {
            let pkt = PacketHeader::synthetic(id);
            let (action, done) = vs.process_packet(&mut sys, None, &pkt, t);
            assert_eq!(action, Some(id), "rvh wrong action for flow {id}");
            t = done;
        }
        assert_eq!(vs.counters().misses, 0);
        // A port-range rule installs straight through the switch API.
        use halo_classify::{FieldRange, RangeRule};
        let mut ranges = [FieldRange::any(0); halo_classify::NUM_FIELDS];
        for (f, r) in ranges.iter_mut().enumerate() {
            *r = FieldRange::any(f);
        }
        ranges[2] = FieldRange::span(1000, 2000);
        let rule = RangeRule {
            ranges,
            priority: 9,
            action: 77,
        };
        assert_eq!(vs.install_range_rule(&mut sys, &rule).unwrap(), None);
        assert_eq!(vs.megaflow().rules(), 41);
    }

    #[test]
    fn halo_nonblocking_beats_software_on_many_tuples() {
        // With all 5 tuples probed per miss, the non-blocking backend
        // should spend fewer cycles in MegaFlow than software.
        let (mut sys_sw, mut vs_sw, _e) = setup(LookupBackend::Software, 200);
        let mut t = Cycle(0);
        for id in 0..200 {
            let (_, done) =
                vs_sw.process_packet(&mut sys_sw, None, &PacketHeader::synthetic(id), t);
            t = done;
        }
        let (mut sys_nb, mut vs_nb, mut engine) = setup(LookupBackend::HaloNonBlocking, 200);
        let mut t = Cycle(0);
        for id in 0..200 {
            let (_, done) = vs_nb.process_packet(
                &mut sys_nb,
                Some(&mut engine),
                &PacketHeader::synthetic(id),
                t,
            );
            t = done;
        }
        assert!(
            vs_nb.breakdown().megaflow.0 < vs_sw.breakdown().megaflow.0,
            "HALO-NB megaflow {} should beat software {}",
            vs_nb.breakdown().megaflow,
            vs_sw.breakdown().megaflow
        );
    }
}

#[cfg(test)]
mod openflow_tests {
    use super::*;
    use halo_classify::PacketHeader;
    use halo_mem::{CoreId, MachineConfig, MemorySystem};
    use halo_sim::Cycle;

    fn switch_with_openflow() -> (MemorySystem, VirtualSwitch) {
        let mut sys = MemorySystem::new(MachineConfig::small());
        let mut cfg = SwitchConfig::typical(4, LookupBackend::Software);
        cfg.openflow_capacity = 4096;
        cfg.emc_entries = 256;
        let mut vs = VirtualSwitch::new(&mut sys, CoreId(0), cfg);
        // Rules exist only in the OpenFlow layer: MegaFlow starts empty.
        for id in 0..50u64 {
            let pkt = PacketHeader::synthetic(id);
            vs.install_openflow_rule(&mut sys, &pkt.miniflow(), (id % 4) as usize, 3, 500 + id)
                .unwrap();
        }
        vs.warm_tables(&mut sys);
        (sys, vs)
    }

    #[test]
    fn upcall_resolves_and_installs_megaflow_rule() {
        let (mut sys, mut vs) = switch_with_openflow();
        let pkt = PacketHeader::synthetic(7);
        // First packet: EMC miss -> MegaFlow miss -> OpenFlow hit.
        let (action, t1) = vs.process_packet(&mut sys, None, &pkt, Cycle(0));
        assert_eq!(action, Some(507));
        assert_eq!(vs.counters().openflow_hits, 1);
        assert_eq!(vs.counters().megaflow_hits, 0);
        assert!(vs.breakdown().openflow.0 > 0, "upcall must be accounted");

        // Second packet of the same flow: resolved by the fast path.
        let (action, _t2) = vs.process_packet(&mut sys, None, &pkt, t1);
        assert_eq!(action, Some(507));
        assert_eq!(vs.counters().openflow_hits, 1, "no second upcall");
        assert!(vs.counters().emc_hits + vs.counters().megaflow_hits >= 1);
    }

    #[test]
    fn openflow_picks_highest_priority() {
        let mut sys = MemorySystem::new(MachineConfig::small());
        let mut cfg = SwitchConfig::typical(4, LookupBackend::Software);
        cfg.openflow_capacity = 4096;
        cfg.emc_entries = 0; // force the layered search
        let mut vs = VirtualSwitch::new(&mut sys, CoreId(0), cfg);
        let pkt = PacketHeader::synthetic(3);
        vs.install_openflow_rule(&mut sys, &pkt.miniflow(), 0, 1, 10)
            .unwrap();
        vs.install_openflow_rule(&mut sys, &pkt.miniflow(), 2, 9, 20)
            .unwrap();
        let (action, _) = vs.process_packet(&mut sys, None, &pkt, Cycle(0));
        assert_eq!(action, Some(20), "higher priority must win");
    }

    #[test]
    fn true_miss_still_counts_with_openflow_enabled() {
        let (mut sys, mut vs) = switch_with_openflow();
        let pkt = PacketHeader::synthetic(999_999);
        let (action, _) = vs.process_packet(&mut sys, None, &pkt, Cycle(0));
        assert_eq!(action, None);
        assert_eq!(vs.counters().misses, 1);
    }

    #[test]
    fn upcalls_are_much_slower_than_fast_path() {
        let (mut sys, mut vs) = switch_with_openflow();
        let pkt = PacketHeader::synthetic(11);
        let (_, t1) = vs.process_packet(&mut sys, None, &pkt, Cycle(0));
        let first = t1.0;
        let (_, t2) = vs.process_packet(&mut sys, None, &pkt, t1);
        let second = t2.0 - t1.0;
        assert!(
            first > 2 * second,
            "upcall packet ({first}) should dwarf fast-path packet ({second})"
        );
    }
}
