//! Cross-crate integration tests: exercise the whole stack (tables over
//! simulated memory, core model, accelerators, classification layers,
//! virtual switch, NFs) together.

use halo_nfv::accel::{AcceleratorConfig, HaloEngine, HybridClassifier, HybridConfig};
use halo_nfv::classify::{distinct_masks, PacketHeader, SearchMode, TupleSpace};
use halo_nfv::cpu::{build_sw_lookup, CoreModel, Scratch};
use halo_nfv::datapath::{ExactTable, TableBackend, WildcardTable};
use halo_nfv::mem::{CoreId, MachineConfig, MemorySystem, SimMemory};
use halo_nfv::nf::{HashNf, HashNfKind, Scenario, TrafficGen};
use halo_nfv::sim::{Cycle, SplitMix64};
use halo_nfv::tables::{CuckooTable, FlowKey, FlowTable};
use halo_nfv::vswitch::{LookupBackend, SwitchConfig, VirtualSwitch};

/// Software and HALO paths must return identical lookup results over a
/// large randomized workload, while both report sane timing.
#[test]
fn software_and_halo_agree_functionally() {
    let mut sys = MemorySystem::new(MachineConfig::default());
    let mut table = CuckooTable::with_capacity_for(sys.data_mut(), 5_000, 0.85, 13);
    let mut rng = SplitMix64::new(0xA11CE);
    let mut installed = Vec::new();
    for id in 0..5_000u64 {
        let key = FlowKey::synthetic(id, 13);
        table.insert(sys.data_mut(), &key, id * 3).unwrap();
        installed.push(key);
    }
    for a in table.all_lines().collect::<Vec<_>>() {
        sys.warm_llc(a);
    }
    let mut engine = HaloEngine::new(&sys, AcceleratorConfig::default());
    let mut scratch = Scratch::new(&mut sys);
    scratch.warm(&mut sys, CoreId(0));
    let mut core = CoreModel::new(CoreId(1), sys.config());

    let mut t = Cycle(0);
    for i in 0..500 {
        // Mix hits and misses.
        let key = if i % 3 == 0 {
            FlowKey::synthetic(1_000_000 + i, 13)
        } else {
            installed[rng.below(installed.len() as u64) as usize]
        };
        let sw_trace = table.lookup_traced(sys.data_mut(), &key, true);
        let prog = build_sw_lookup(&sw_trace, &mut scratch, None);
        let sw_report = core.run(&prog, &mut sys, t);

        let (hw_result, done) = engine.lookup_b(&mut sys, CoreId(0), &table, &key, None, t);
        assert_eq!(sw_trace.result, hw_result, "divergence at iteration {i}");
        assert!(done > t);
        t = sw_report.finish.max(done);
    }
}

/// The vswitch forwards traffic correctly across all three backends and
/// the HALO backends spend fewer cycles classifying.
#[test]
fn vswitch_backends_agree_and_halo_is_faster() {
    let scenario = Scenario::ManyFlows {
        flows: 3_000,
        rules: 5,
    };
    let mut totals = Vec::new();
    for backend in [
        LookupBackend::Software,
        LookupBackend::HaloBlocking,
        LookupBackend::HaloNonBlocking,
    ] {
        let mut sys = MemorySystem::new(MachineConfig::default());
        let mut engine = HaloEngine::new(&sys, AcceleratorConfig::default());
        let mut cfg = SwitchConfig::typical(5, backend);
        cfg.megaflow_capacity = 1024;
        let mut vs = VirtualSwitch::new(&mut sys, CoreId(0), cfg);
        let gen = TrafficGen::new(scenario, 5);
        for (id, pkt) in gen.all_flows().enumerate() {
            vs.install_flow(&mut sys, &pkt.miniflow(), id % 5, 0, id as u64)
                .unwrap();
        }
        vs.warm_tables(&mut sys);
        let mut gen = TrafficGen::new(scenario, 77);
        let mut t = Cycle(0);
        for _ in 0..300 {
            let pkt = gen.next_packet();
            let expect = vs.classify_functional(&mut sys, &pkt).map(|m| m.action);
            let e = match backend {
                LookupBackend::Software => None,
                _ => Some(&mut engine),
            };
            let (action, done) = vs.process_packet(&mut sys, e, &pkt, t);
            // The EMC may answer before MegaFlow; either way the action
            // must match the rule table's functional answer.
            assert_eq!(action, expect, "backend {backend:?}");
            t = done;
        }
        assert_eq!(vs.counters().misses, 0);
        totals.push((backend, vs.cycles_per_packet()));
    }
    let sw = totals[0].1;
    let nb = totals[2].1;
    assert!(
        nb < sw,
        "HALO-NB ({nb:.0} cy/pkt) must beat software ({sw:.0} cy/pkt)"
    );
}

/// The hybrid classifier must never return a wrong value regardless of
/// the mode it is in, across a traffic pattern that forces switches.
#[test]
fn hybrid_mode_switches_preserve_correctness() {
    let mut sys = MemorySystem::new(MachineConfig::default());
    let mut engine = HaloEngine::new(&sys, AcceleratorConfig::default());
    let mut table = CuckooTable::with_capacity_for(sys.data_mut(), 2_048, 0.8, 13);
    for id in 0..2_048u64 {
        table
            .insert(sys.data_mut(), &FlowKey::synthetic(id, 13), id + 7)
            .unwrap();
    }
    for a in table.all_lines().collect::<Vec<_>>() {
        sys.warm_llc(a);
    }
    let mut hybrid = HybridClassifier::new(&mut sys, CoreId(0), HybridConfig::default());
    let mut rng = SplitMix64::new(3);
    let mut t = Cycle(0);
    for phase in 0..4 {
        let universe = if phase % 2 == 0 { 6 } else { 2_048 };
        for _ in 0..400 {
            let id = rng.below(universe);
            let (v, done) = hybrid.lookup(
                &mut sys,
                &mut engine,
                &table,
                &FlowKey::synthetic(id, 13),
                t,
            );
            assert_eq!(v, Some(id + 7));
            t = done;
        }
    }
    assert!(
        hybrid.switches() >= 2,
        "traffic phases should force switches"
    );
}

/// Tuple-space search agrees with the linear-scan oracle when driven
/// through the vswitch's rule tables, end to end.
#[test]
fn tss_classification_matches_linear_oracle() {
    let mut sys = MemorySystem::new(MachineConfig::default());
    let mut tss = TupleSpace::new(
        sys.data_mut(),
        distinct_masks(12),
        512,
        SearchMode::HighestPriority,
    );
    let mut rng = SplitMix64::new(8);
    for i in 0..600u64 {
        let pkt = PacketHeader::synthetic(rng.below(10_000));
        let tuple = (rng.below(12)) as usize;
        let prio = (rng.below(16)) as u16;
        let _ = tss.insert_rule(sys.data_mut(), tuple, &pkt.miniflow(), prio, i);
    }
    for id in 0..2_000u64 {
        let key = PacketHeader::synthetic(id).miniflow();
        assert_eq!(
            tss.classify(sys.data_mut(), &key),
            tss.classify_linear(sys.data_mut(), &key),
            "divergence for flow {id}"
        );
    }
}

/// Concurrent updates (cuckoo moves) must never make lookups fail —
/// with HALO's hardware locking the reader sees a consistent table.
#[test]
fn lookups_survive_concurrent_cuckoo_moves() {
    let mut sys = MemorySystem::new(MachineConfig::default());
    let mut table = CuckooTable::with_capacity_for(sys.data_mut(), 2_000, 0.7, 13);
    for id in 0..2_000u64 {
        table
            .insert(sys.data_mut(), &FlowKey::synthetic(id, 13), id)
            .unwrap();
    }
    for a in table.all_lines().collect::<Vec<_>>() {
        sys.warm_llc(a);
    }
    let mut engine = HaloEngine::new(&sys, AcceleratorConfig::default());
    let mut rng = SplitMix64::new(13);
    let mut t = Cycle(0);
    for i in 0..600u64 {
        if i % 5 == 0 {
            let victim = FlowKey::synthetic(rng.below(2_000), 13);
            table.cuckoo_move(sys.data_mut(), &victim);
        }
        let id = rng.below(2_000);
        let (v, done) = engine.lookup_b(
            &mut sys,
            CoreId((i % 4) as usize),
            &table,
            &FlowKey::synthetic(id, 13),
            None,
            t,
        );
        assert_eq!(v, Some(id), "lost key {id} after moves");
        t = done;
    }
}

/// A hash-table NF keeps its functional behaviour whichever engine runs
/// its lookups, and its HALO runs are faster at every Table 3 size.
#[test]
fn hash_nfs_speed_up_without_breaking() {
    for kind in [HashNfKind::Nat, HashNfKind::PacketFilter] {
        let entries = kind.table3_sizes()[0];
        let mut sys = MemorySystem::new(MachineConfig::default());
        let mut nf = HashNf::new(&mut sys, CoreId(0), kind, entries, 99);
        nf.warm(&mut sys);
        let sw = nf.run_software(&mut sys, 64);

        let mut sys = MemorySystem::new(MachineConfig::default());
        let mut engine = HaloEngine::new(&sys, AcceleratorConfig::default());
        let mut nf = HashNf::new(&mut sys, CoreId(0), kind, entries, 99);
        nf.warm(&mut sys);
        let hw = nf.run_halo(&mut sys, &mut engine, 64);

        assert!(hw.cycles_per_packet < sw.cycles_per_packet, "{:?}", kind);
    }
}

/// Determinism: the same seed produces bit-identical experiment results.
#[test]
fn experiments_are_deterministic() {
    let run_once = || {
        let mut sys = MemorySystem::new(MachineConfig::default());
        let mut table = CuckooTable::with_capacity_for(sys.data_mut(), 1_000, 0.8, 13);
        for id in 0..1_000u64 {
            table
                .insert(sys.data_mut(), &FlowKey::synthetic(id, 13), id)
                .unwrap();
        }
        for a in table.all_lines().collect::<Vec<_>>() {
            sys.warm_llc(a);
        }
        let mut engine = HaloEngine::new(&sys, AcceleratorConfig::default());
        let mut rng = SplitMix64::new(2024);
        let mut t = Cycle(0);
        for _ in 0..200 {
            let key = FlowKey::synthetic(rng.below(1_000), 13);
            let (_, done) = engine.lookup_b(&mut sys, CoreId(0), &table, &key, None, t);
            t = done;
        }
        t
    };
    assert_eq!(run_once(), run_once());
}

/// Regression for the hybrid-saturation bug: a 16-bit flow register
/// caps its linear-counting estimate at 16·ln 16 ≈ 44.4, *below* the
/// 64-flow threshold, so before the saturation check a DDoS-like flood
/// of never-repeating flows kept the controller pinned on the (losing)
/// software path. A sustained flood from the streaming engine must
/// drive the controller to HALO mode after the first window and keep
/// it there — software lookups bounded by that first window.
#[test]
fn ddos_flood_pins_the_hybrid_controller_on_halo() {
    use halo_nfv::accel::{HybridClassifier, HybridConfig, Mode};
    use halo_nfv::datapath::TrafficEvent;
    use halo_nfv::nf::{StreamConfig, StreamingTrafficGen};

    let mut sys = MemorySystem::new(MachineConfig::default());
    let mut engine = HaloEngine::new(&sys, AcceleratorConfig::default());
    let mut table = CuckooTable::create(sys.data_mut(), 1 << 9, 13);
    let installed = 1_000u64;
    for id in 0..installed {
        table
            .insert(sys.data_mut(), &FlowKey::synthetic(id, 13), id)
            .unwrap();
    }
    let cfg = HybridConfig {
        flow_threshold: 64.0,
        window: 256,
        register_bits: 16, // saturates far below the threshold
    };
    let mut hybrid = HybridClassifier::new(&mut sys, CoreId(0), cfg);
    assert_eq!(hybrid.mode(), Mode::Software, "starts conservative");

    let mut gen = StreamingTrafficGen::new(StreamConfig::ddos_flood(installed as usize), 0xD0);
    let mut t = Cycle(0);
    let mut lookups = 0u64;
    while lookups < 2_048 {
        if let TrafficEvent::Packet(f) = gen.next_event() {
            let key = FlowKey::synthetic(f, 13);
            let (v, done) = hybrid.lookup(&mut sys, &mut engine, &table, &key, t);
            assert_eq!(v, None, "flood flows are never installed");
            t = done;
            lookups += 1;
            if lookups > cfg.window {
                assert_eq!(
                    hybrid.mode(),
                    Mode::Halo,
                    "flood must pin HALO after the first window (lookup {lookups})"
                );
            }
        }
    }
    assert!(gen.floods() >= 2_048, "every packet was a flood flow");
    let (sw, hw) = hybrid.split();
    assert!(
        sw <= cfg.window,
        "software lookups must be bounded by the first window: {sw}"
    );
    assert_eq!(sw + hw, 2_048);
    assert_eq!(hybrid.switches(), 1, "one switch, never back");
}

/// An upcall installs the resolved flow under the mask of the OpenFlow
/// tuple that matched, so a later packet differing only in bits that
/// mask wildcards is served by MegaFlow without a second upcall.
#[test]
fn upcall_installs_under_the_matching_tuple_mask() {
    let mut sys = MemorySystem::new(MachineConfig::small());
    let mut cfg = SwitchConfig::typical(4, LookupBackend::Software);
    cfg.openflow_capacity = 4096;
    cfg.emc_entries = 0; // every packet reaches MegaFlow
    let masks = cfg.megaflow_masks.clone();
    let mut vs = VirtualSwitch::new(&mut sys, CoreId(0), cfg);
    // Tuple 3 wildcards both transport ports; tuples 0-2 each keep at
    // least one, so installing under any other mask would miss below.
    let tuple = 3;
    let first = PacketHeader::synthetic(21);
    let second = PacketHeader {
        src_port: first.src_port ^ 0x5A5A,
        dst_port: first.dst_port ^ 0xA5A5,
        ..first
    };
    assert_eq!(
        masks[tuple].apply(&first.miniflow()),
        masks[tuple].apply(&second.miniflow())
    );
    assert!(
        (0..tuple).all(|j| masks[j].apply(&first.miniflow()) != masks[j].apply(&second.miniflow()))
    );
    vs.install_openflow_rule(&mut sys, &first.miniflow(), tuple, 5, 321)
        .unwrap();
    assert_eq!(vs.megaflow().rules(), 0, "MegaFlow starts empty");

    let (action, t) = vs.process_packet(&mut sys, None, &first, Cycle(0));
    assert_eq!(action, Some(321));
    assert_eq!(vs.counters().openflow_hits, 1, "first packet upcalls");
    assert_eq!(vs.counters().megaflow_hits, 0);

    let (action, _) = vs.process_packet(&mut sys, None, &second, t);
    assert_eq!(action, Some(321));
    assert_eq!(vs.counters().megaflow_hits, 1, "served by MegaFlow");
    assert_eq!(vs.counters().openflow_hits, 1, "no second upcall");
}

/// FNV-1a over a byte stream, for pinning table behaviour to one word.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn eat_debug(&mut self, v: impl std::fmt::Debug) {
        self.eat(format!("{v:?}").as_bytes());
    }
}

/// Begins a two-phase move of `key`, records a traced lookup of it
/// from inside the window, then commits (`commit`) or aborts it.
fn move_window(
    t: &mut ExactTable,
    mem: &mut SimMemory,
    key: &FlowKey,
    commit: bool,
    h: &mut Fnv,
) -> bool {
    let Some(mv) = t.cuckoo_move_begin(mem, key) else {
        return false;
    };
    h.eat_debug(t.lookup_traced(mem, key, false));
    if commit {
        t.cuckoo_move_commit(mem, mv);
    } else {
        t.cuckoo_move_abort(mem, mv);
    }
    true
}

/// Fills `backend` past 90% load (BFS displacement, EMOMA cascades)
/// and replays a seeded stream of updates, removes, traced lookups
/// with and without software locking, one-shot moves and two-phase
/// move windows. Returns the FNV-1a digest of every op's result and
/// trace, the table counters after every op, and the final bytes of
/// every table line.
fn table_pin(backend: TableBackend) -> u64 {
    let mut mem = SimMemory::new();
    let mut t = backend.build(&mut mem, 1000, 1.0, 13);
    let mut h = Fnv::new();
    for id in 0..960u64 {
        h.eat_debug(t.insert(&mut mem, &FlowKey::synthetic(id, 13), id));
    }
    assert!(t.len() * 10 > t.capacity() * 9, "fill stayed below 90%");
    let mut rng = SplitMix64::new(0x7AB1_E5EE_D000_0001);
    for _ in 0..3000 {
        let key = FlowKey::synthetic(rng.below(1100), 13);
        match rng.below(16) {
            0..=3 => h.eat_debug(t.insert(&mut mem, &key, rng.below(1 << 40))),
            4 | 5 => h.eat_debug(t.remove(&mut mem, &key)),
            6..=10 => h.eat_debug(t.lookup_traced(&mem, &key, rng.chance(0.5))),
            11 | 12 => {
                let moved = t.cuckoo_move_begin(&mut mem, &key).map(|mv| {
                    t.cuckoo_move_commit(&mut mem, mv);
                });
                h.eat_debug(moved.is_some());
            }
            op => {
                let moved = move_window(&mut t, &mut mem, &key, op == 15, &mut h);
                h.eat_debug(moved);
            }
        }
        // The nesting is part of the hashed text the pins were taken on.
        h.eat_debug((t.len(), (t.free_slots(), t.moves_in_flight())));
    }
    let mut line = [0u8; 64];
    for a in t.all_lines() {
        mem.read_bytes(a, &mut line);
        h.eat(&line);
    }
    h.0
}

/// Every exact-match backend's simulated bytes, traces and results are
/// pinned through a high-load op stream, so a refactor of the cuckoo
/// tables that changes any of them fails here before it moves a figure.
#[test]
fn exact_tables_match_their_pinned_digests() {
    let got: Vec<(&str, u64)> = TableBackend::all()
        .into_iter()
        .map(|b| (b.name(), table_pin(b)))
        .collect();
    let want = [
        ("cuckoo", 0xa662_5fdb_b645_e347_u64),
        ("cuckoo++", 0x0d8b_ca2d_7c50_3099),
        ("emoma", 0x9ac5_27dd_8e1d_579a),
    ];
    assert_eq!(got, want, "table pins moved: {got:#x?}");
}
