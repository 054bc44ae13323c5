//! Hot-path equivalence suite: `VirtualSwitch::process_burst` must
//! produce exactly the outcomes and statistics of the scalar packet
//! loop under every lookup backend, and the rewritten lock
//! table / flat cache arrays must satisfy the halo-check invariant
//! auditor under churn.

use std::collections::HashMap;

use halo_nfv::accel::{AcceleratorConfig, HaloEngine};
use halo_nfv::check::audit_system;
use halo_nfv::classify::PacketHeader;
use halo_nfv::datapath::TableBackend;
use halo_nfv::mem::{CoreId, MachineConfig, MemorySystem};
use halo_nfv::sim::{Cycle, SplitMix64};
use halo_nfv::vswitch::{
    LookupBackend, MultiCoreConfig, MultiCoreDatapath, StreamReport, SwitchConfig, VirtualSwitch,
};

fn collect_counters(sys: &MemorySystem) -> Vec<(String, u64)> {
    sys.stats()
        .counters()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

fn build_switch(backend: LookupBackend) -> (MemorySystem, VirtualSwitch, Option<HaloEngine>) {
    let mut sys = MemorySystem::new(MachineConfig::small());
    let engine = match backend {
        LookupBackend::Software => None,
        _ => Some(HaloEngine::new(&sys, AcceleratorConfig::default())),
    };
    let mut vs = VirtualSwitch::new(&mut sys, CoreId(0), SwitchConfig::typical(5, backend));
    for id in 0..256u64 {
        let key = PacketHeader::synthetic(id).miniflow();
        vs.install_flow(&mut sys, &key, (id % 5) as usize, 0, id + 1)
            .unwrap();
    }
    vs.warm_tables(&mut sys);
    (sys, vs, engine)
}

fn packet_stream(n: usize, seed: u64) -> Vec<PacketHeader> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| PacketHeader::synthetic(rng.next_u64() % 300))
        .collect()
}

fn burst_equivalence(backend: LookupBackend) {
    let headers = packet_stream(400, 0xBEEF_0001);

    let (mut sys_s, mut vs_s, mut eng_s) = build_switch(backend);
    let mut scalar: Vec<(Option<u64>, Cycle)> = Vec::new();
    let mut t = Cycle(0);
    for h in &headers {
        let (action, done) = vs_s.process_packet(&mut sys_s, eng_s.as_mut(), h, t);
        scalar.push((action, done));
        t = done;
    }

    let (mut sys_b, mut vs_b, mut eng_b) = build_switch(backend);
    let mut burst: Vec<(Option<u64>, Cycle)> = Vec::new();
    let mut tb = Cycle(0);
    for chunk in headers.chunks(37) {
        tb = vs_b.process_burst(&mut sys_b, eng_b.as_mut(), chunk, tb, &mut burst);
    }

    assert_eq!(scalar, burst, "{backend:?}: per-packet outcomes diverged");
    assert_eq!(tb, t, "{backend:?}: final cycle diverged");
    let (cs, cb) = (vs_s.counters(), vs_b.counters());
    assert_eq!(
        (cs.packets, cs.emc_hits, cs.megaflow_hits, cs.misses),
        (cb.packets, cb.emc_hits, cb.megaflow_hits, cb.misses),
        "{backend:?}: switch counters diverged"
    );
    assert_eq!(
        vs_s.breakdown().total(),
        vs_b.breakdown().total(),
        "{backend:?}: cycle breakdown diverged"
    );
    assert_eq!(
        collect_counters(&sys_s),
        collect_counters(&sys_b),
        "{backend:?}: memory statistics diverged"
    );
}

/// `process_burst` over the software backend reproduces the scalar
/// packet loop exactly.
#[test]
fn process_burst_matches_scalar_software() {
    burst_equivalence(LookupBackend::Software);
}

/// `process_burst` over the HALO-blocking backend (the `LOOKUP_B`
/// MegaFlow walk) reproduces the scalar loop exactly.
#[test]
fn process_burst_matches_scalar_halo_blocking() {
    burst_equivalence(LookupBackend::HaloBlocking);
}

/// `process_burst` over the HALO non-blocking backend (`LOOKUP_NB`
/// dispatch plus `SNAPSHOT_READ` collection) reproduces the scalar loop
/// exactly.
#[test]
fn process_burst_matches_scalar_halo_nonblocking() {
    burst_equivalence(LookupBackend::HaloNonBlocking);
}

fn multicore_run(
    backend: LookupBackend,
    table_backend: TableBackend,
    tuples: usize,
) -> (StreamReport, Vec<u64>, Vec<(String, u64)>) {
    let mut sys = MemorySystem::new(MachineConfig::default());
    let mut engine = HaloEngine::new(&sys, AcceleratorConfig::default());
    let mut cfg = MultiCoreConfig::new(4, tuples, 2_000, backend, 0xD1_5C0);
    cfg.table_backend = table_backend;
    let mut dp = MultiCoreDatapath::with_config(&mut sys, cfg);
    let e = match backend {
        LookupBackend::Software => None,
        _ => Some(&mut engine),
    };
    let report = dp.run(&mut sys, e, 500, 16);
    let per_core = dp.per_core_packets();
    (report, per_core, collect_counters(&sys))
}

/// Two identically-configured `MultiCoreDatapath` runs must agree on
/// every observable — per-core packet spread, aggregate report, and the
/// full memory-system statistics — for every backend combination,
/// including a tuple-space wide enough (12 masks) that the non-blocking
/// destination region spans multiple cache lines per core. Beyond the
/// three lookup strategies over the baseline cuckoo table, the matrix
/// covers both new exact-match backends (Cuckoo++ and EMOMA) under the
/// non-blocking path — five backend combinations in all.
#[test]
fn multicore_runs_are_deterministic_for_every_backend() {
    for (backend, table_backend) in [
        (LookupBackend::Software, TableBackend::Cuckoo),
        (LookupBackend::HaloBlocking, TableBackend::Cuckoo),
        (LookupBackend::HaloNonBlocking, TableBackend::Cuckoo),
        (LookupBackend::HaloNonBlocking, TableBackend::CuckooPlusPlus),
        (LookupBackend::HaloNonBlocking, TableBackend::Emoma),
    ] {
        let (ra, pa, ca) = multicore_run(backend, table_backend, 12);
        let (rb, pb, cb) = multicore_run(backend, table_backend, 12);
        let tag = format!("{backend:?}/{}", table_backend.name());
        assert_eq!(
            (ra.cores, ra.packets, ra.cycles, ra.dirty_transfers),
            (rb.cores, rb.packets, rb.cycles, rb.dirty_transfers),
            "{tag}: scaling report diverged between identical runs"
        );
        assert_eq!(pa, pb, "{tag}: per-core packet spread diverged");
        assert_eq!(ca, cb, "{tag}: memory statistics diverged");
        assert_eq!(pa.iter().sum::<u64>(), 500, "{tag}: packets lost");
    }
}

/// The scaling sweep (MultiCoreDatapath over software and HALO
/// non-blocking backends, with and without churn) must serialize
/// byte-identically whether run sequentially or with 4 parallel
/// workers: parallelism is a scheduling detail, never a result.
#[test]
fn scaling_sweep_identical_at_jobs_1_and_4() {
    use halo_bench::experiments::scaling;
    use halo_nfv::sim::SweepRunner;

    let seq = scaling::run_with(true, &SweepRunner::new("scaling", 1).quiet());
    let par = scaling::run_with(true, &SweepRunner::new("scaling", 4).quiet());
    assert_eq!(
        scaling::table(&seq).to_csv(),
        scaling::table(&par).to_csv(),
        "jobs=1 and jobs=4 scaling sweeps diverged"
    );
}

/// Churns hardware locks (held in the LLC lines) through the
/// `MemorySystem` API against a model map, auditing the lock-expired
/// invariant after every step.
#[test]
fn lock_table_churn_agrees_with_model_and_auditor() {
    let mut sys = MemorySystem::new(MachineConfig::small());
    let base = sys.data_mut().alloc_lines(64 * 64);
    // A small resident set so capacity evictions never release locks
    // behind the model's back.
    let lines: Vec<_> = (0..64u64).map(|i| (base + i * 64).line()).collect();
    for i in 0..64u64 {
        sys.warm_llc(base + i * 64);
    }
    let mut model: HashMap<u64, u64> = HashMap::new();
    let mut rng = SplitMix64::new(0x10C5_0AD2);
    let mut now = Cycle(0);
    for step in 0..2_000 {
        now += halo_nfv::sim::Cycles(rng.next_u64() % 50);
        match rng.next_u64() % 4 {
            0 | 1 => {
                let line = lines[(rng.next_u64() % 64) as usize];
                let until = now + halo_nfv::sim::Cycles(rng.next_u64() % 500);
                sys.hw_lock(line, until);
                let e = model.entry(line.0).or_insert(0);
                *e = (*e).max(until.0);
            }
            2 => {
                sys.hw_unlock_expired(now);
                model.retain(|_, &mut rel| rel > now.0);
            }
            _ => {
                let idx = (rng.next_u64() % 64) as usize;
                sys.force_evict(base + idx as u64 * 64);
                model.remove(&lines[idx].0);
                sys.warm_llc(base + idx as u64 * 64); // restore residency
            }
        }
        let mut held: Vec<(u64, u64)> = sys.held_locks().map(|(l, c)| (l.0, c.0)).collect();
        let mut expect: Vec<(u64, u64)> = model.iter().map(|(&l, &r)| (l, r)).collect();
        held.sort_unstable();
        expect.sort_unstable();
        assert_eq!(held, expect, "held locks diverged from model at {step}");

        // The auditor's lock-expired invariant expects stale locks to be
        // swept before inspection.
        sys.hw_unlock_expired(now);
        model.retain(|_, &mut rel| rel > now.0);
        let violations = audit_system(&sys, now);
        assert!(
            violations.is_empty(),
            "auditor found violations at step {step}: {violations:?}"
        );
    }
}
