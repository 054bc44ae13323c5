//! Threads-invariance of the epoch-parallel runners: `threads = 1` and
//! `threads = N` must produce byte-identical reports, per-core packet
//! counts, and master stats — the whole point of the deterministic
//! epoch/barrier scheme. The quick checks here always run; the full
//! backend × stream matrix runs under the `slow-tests` feature (the
//! deep CI job). The window-boundary checks pin where barriers fall.
//!
//! Further checks pin the epoch executor's *values*, which thread
//! invariance alone cannot: a one-core window merged back (raw
//! accesses, and the one `classify` both executors run) must leave
//! exactly the state of the classic sequential run, and the epoch runs
//! above hash to recorded digests (no GOLDEN figure runs through the
//! epoch path). Three `should_panic` checks pin the epoch preconditions:
//! no HALO backend, no tracing.

use halo_nfv::accel::{AcceleratorConfig, HaloEngine};
use halo_nfv::classify::{distinct_masks, Emc, PacketHeader, SearchMode};
use halo_nfv::datapath::{
    ClassifyOutcome, DatapathCore, LookupExecutor, TableBackend, TrafficEvent, WildcardBackend,
    WildcardMatcher, WildcardTable,
};
use halo_nfv::mem::{
    AccessKind, Addr, CoreId, CoreMem, EpochCore, MachineConfig, MemorySystem, SliceId,
};
use halo_nfv::nf::{StreamConfig, StreamingTrafficGen};
use halo_nfv::sim::{Cycle, SplitMix64};
use halo_nfv::vswitch::{LookupBackend, MultiCoreConfig, MultiCoreDatapath};

/// Every stats counter, sorted by name — a deterministic fingerprint of
/// the master system's observable counter state.
fn stats_fingerprint(sys: &MemorySystem) -> String {
    let mut rows: Vec<(String, u64)> = sys
        .stats()
        .counters()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    rows.sort();
    format!("{rows:?}")
}

fn datapath(table_backend: TableBackend, cores: usize) -> (MemorySystem, MultiCoreDatapath) {
    let mut sys = MemorySystem::new(MachineConfig::default());
    let mut cfg = MultiCoreConfig::new(cores, 5, 2_000, LookupBackend::Software, 42);
    cfg.table_backend = table_backend;
    let dp = MultiCoreDatapath::with_config(&mut sys, cfg);
    (sys, dp)
}

/// Runs the RSS/churn workload and returns every observable output as
/// one comparable string.
fn scaling_outcome(table_backend: TableBackend, threads: usize, churn: u64) -> String {
    let (mut sys, mut dp) = datapath(table_backend, 4);
    let r = dp.run_parallel_with(&mut sys, 600, churn, threads, &mut |_| {});
    format!(
        "{r:?} | {:?} | {}",
        dp.per_core_packets(),
        stats_fingerprint(&sys)
    )
}

/// Runs a streaming workload and returns every observable output as
/// one comparable string.
fn stream_outcome(table_backend: TableBackend, threads: usize, cfg: StreamConfig) -> String {
    let (mut sys, mut dp) = datapath(table_backend, 4);
    let mut traffic = StreamingTrafficGen::new(cfg, 7);
    let events: Vec<TrafficEvent> = (0..800).map(|_| traffic.next_event()).collect();
    let r = dp.run_stream_parallel_with(&mut sys, events, threads, &mut |_| {});
    format!(
        "{r:?} | {:?} | {}",
        dp.per_core_packets(),
        stats_fingerprint(&sys)
    )
}

#[test]
fn scaling_run_is_threads_invariant() {
    let one = scaling_outcome(TableBackend::Cuckoo, 1, 50);
    for threads in [2, 4] {
        assert_eq!(
            one,
            scaling_outcome(TableBackend::Cuckoo, threads, 50),
            "threads=1 vs threads={threads} diverged"
        );
    }
}

#[test]
fn churn_stream_is_threads_invariant() {
    let one = stream_outcome(TableBackend::Cuckoo, 1, StreamConfig::churn(2_000));
    let four = stream_outcome(TableBackend::Cuckoo, 4, StreamConfig::churn(2_000));
    assert_eq!(one, four);
}

#[test]
fn flood_stream_is_threads_invariant() {
    let one = stream_outcome(TableBackend::Cuckoo, 1, StreamConfig::ddos_flood(2_000));
    let four = stream_outcome(TableBackend::Cuckoo, 4, StreamConfig::ddos_flood(2_000));
    assert_eq!(one, four);
}

/// 64-bit FNV-1a, for pinning long outcome strings in a test.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The epoch executor's numbers, not only their thread invariance:
/// a change that shifts every epoch value the same way at every thread
/// count must still fail here. Re-record only for an intended change
/// to epoch timing, and say why in the changelog.
#[test]
fn epoch_outcomes_match_recorded_digests() {
    assert_eq!(
        fnv1a(&scaling_outcome(TableBackend::Cuckoo, 1, 50)),
        SCALING_DIGEST,
        "scaling_outcome(Cuckoo, 1, 50) changed"
    );
    assert_eq!(
        fnv1a(&stream_outcome(
            TableBackend::Cuckoo,
            1,
            StreamConfig::churn(2_000)
        )),
        CHURN_DIGEST,
        "stream_outcome(Cuckoo, 1, churn(2000)) changed"
    );
}

const SCALING_DIGEST: u64 = 0x37c6_fff4_e2f6_0b05;
const CHURN_DIGEST: u64 = 0xe2ad_7dd2_0dad_4c16;

/// Drives `accesses` seeded core-0 accesses (one in three a store) over
/// `lines` consecutive lines from `base`; returns the last completion.
fn drive<M: CoreMem>(mem: &mut M, base: Addr, lines: u64, accesses: u64) -> Cycle {
    let mut rng = SplitMix64::new(0x5eed ^ lines);
    let mut t = Cycle(0);
    for _ in 0..accesses {
        let kind = if rng.below(3) == 0 {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        let addr = base + rng.below(lines) * 64;
        t = mem.access(CoreId(0), addr, kind, t).complete;
    }
    t
}

/// Every observable piece of master state: completion cycle, sorted
/// stats, each LLC line's `(state, sharers)` and core 0's private
/// `(line, state)` pairs, all sorted.
fn full_state(sys: &MemorySystem, done: Cycle) -> String {
    let mut llc: Vec<_> = (0..sys.config().slices)
        .flat_map(|s| sys.llc_slice_lines(SliceId(s)))
        .map(|(l, m)| (l.0, m.state, m.sharers))
        .collect();
    let mut l1: Vec<_> = sys
        .l1_lines(CoreId(0))
        .map(|(l, m)| (l.0, m.state))
        .collect();
    let mut l2: Vec<_> = sys
        .l2_lines(CoreId(0))
        .map(|(l, m)| (l.0, m.state))
        .collect();
    llc.sort_by_key(|r| r.0);
    l1.sort_by_key(|r| r.0);
    l2.sort_by_key(|r| r.0);
    format!(
        "{done:?}\n{}\nllc {llc:?}\nl1 {l1:?}\nl2 {l2:?}",
        stats_fingerprint(sys)
    )
}

/// A one-core window merged back leaves exactly the classic state:
/// with a single core there is no cross-core interleaving for the two
/// paths to differ on. Sizes: L1-resident, beyond L1, and beyond L2 but
/// well under the LLC of `MachineConfig::small`.
#[test]
fn single_core_window_matches_classic_full_state() {
    for lines in [50u64, 300, 2_000] {
        let accesses = 6_000;
        let mut classic = MemorySystem::new(MachineConfig::small());
        let base = classic.data_mut().alloc_lines(64 * lines);
        let done = drive(&mut classic, base, lines, accesses);
        let want = full_state(&classic, done);

        let mut epoch = MemorySystem::new(MachineConfig::small());
        assert_eq!(epoch.data_mut().alloc_lines(64 * lines), base);
        let mut fleet = epoch.epoch_split(1);
        let done = drive(&mut fleet[0], base, lines, accesses);
        let out = fleet.into_iter().map(EpochCore::finish).collect();
        epoch.epoch_merge(out);
        assert_eq!(want, full_state(&epoch, done), "{lines} lines diverged");

        if lines == 2_000 {
            for key in ["l2.hit", "llc.hit", "private.writeback"] {
                assert!(classic.stats().counter(key) > 0, "{key} not exercised");
            }
        }
    }
}

/// Rules installed by [`folded_setup`] (flows `0..RULES`); the packet
/// mix draws flows from `0..MIX_FLOWS`, so about a third of it misses.
const RULES: u64 = 64;
const MIX_FLOWS: u64 = 96;

/// One core-0 datapath core (512-entry EMC, promotion on) over a
/// four-tuple MegaFlow layer holding a rule per flow in `0..RULES`.
/// The same calls on two fresh systems allocate the same addresses.
fn folded_setup(sys: &mut MemorySystem, backend: LookupBackend) -> (DatapathCore, WildcardMatcher) {
    let exec = LookupExecutor::new(sys, CoreId(0), backend);
    let emc = Emc::new(sys.data_mut(), 512);
    let masks = distinct_masks(4);
    let mut megaflow = WildcardBackend::Tss.build(
        sys.data_mut(),
        TableBackend::Cuckoo,
        &masks,
        256,
        SearchMode::FirstMatch,
    );
    for flow in 0..RULES {
        let key = PacketHeader::synthetic(flow).miniflow();
        megaflow
            .insert_masked(sys.data_mut(), &masks[(flow % 4) as usize], &key, 0, flow)
            .unwrap();
    }
    let dp = DatapathCore::new(exec, Some(emc), LookupBackend::Software, true);
    (dp, megaflow)
}

/// Classifies a seeded 800-packet mix back to back on `sys`.
fn classify_mix<S: CoreMem>(
    sys: &mut S,
    dp: &mut DatapathCore,
    megaflow: &WildcardMatcher,
) -> Vec<ClassifyOutcome> {
    let mut rng = SplitMix64::new(0xf01d);
    let mut t = Cycle(0);
    (0..800)
        .map(|_| {
            let key = PacketHeader::synthetic(rng.below(MIX_FLOWS)).miniflow();
            let out = dp.classify(sys, None, megaflow, &key, None, t);
            t = out.done;
            out
        })
        .collect()
}

/// The one `classify` gives the same outcomes and leaves the same state
/// on the classic system as on a one-core epoch shard merged back, over
/// a mix of EMC hits, MegaFlow hits with promotion, and misses.
#[test]
fn classify_on_a_one_core_shard_matches_classic() {
    let mut classic = MemorySystem::new(MachineConfig::small());
    let (mut dp, megaflow) = folded_setup(&mut classic, LookupBackend::Software);
    let want = classify_mix(&mut classic, &mut dp, &megaflow);

    let mut epoch = MemorySystem::new(MachineConfig::small());
    let (mut dp, megaflow) = folded_setup(&mut epoch, LookupBackend::Software);
    let mut fleet = epoch.epoch_split(1);
    let got = classify_mix(&mut fleet[0], &mut dp, &megaflow);
    let out = fleet.into_iter().map(EpochCore::finish).collect();
    epoch.epoch_merge(out);

    assert_eq!(format!("{want:?}"), format!("{got:?}"), "outcomes diverged");
    let done = want.last().unwrap().done;
    assert_eq!(full_state(&classic, done), full_state(&epoch, done));
    let emc_hits = want.iter().filter(|o| o.emc_hit).count();
    let megaflow_hits = want.iter().filter(|o| o.megaflow.is_some()).count();
    let misses = want.iter().filter(|o| o.action.is_none()).count();
    assert!(
        emc_hits > 100 && megaflow_hits >= RULES as usize / 2 && misses > 100,
        "mix lacks a path: {emc_hits} EMC hits, {megaflow_hits} MegaFlow hits, {misses} misses"
    );
}

/// A HALO search on an epoch shard panics, naming the shard as the
/// cause, even when an engine is supplied.
#[test]
#[should_panic(expected = "not an epoch shard")]
fn halo_classify_on_a_shard_panics() {
    let mut sys = MemorySystem::new(MachineConfig::small());
    let mut engine = HaloEngine::new(&sys, AcceleratorConfig::default());
    let (mut dp, megaflow) = folded_setup(&mut sys, LookupBackend::HaloBlocking);
    let mut fleet = sys.epoch_split(1);
    let key = PacketHeader::synthetic(1).miniflow();
    dp.classify(
        &mut fleet[0],
        Some(&mut engine),
        &megaflow,
        &key,
        None,
        Cycle(0),
    );
}

/// The epoch runner refuses a HALO backend before it splits.
#[test]
#[should_panic(expected = "epoch-parallel execution is software-only")]
fn epoch_runner_rejects_a_halo_backend() {
    let mut sys = MemorySystem::new(MachineConfig::default());
    let cfg = MultiCoreConfig::new(2, 5, 2_000, LookupBackend::HaloNonBlocking, 42);
    let mut dp = MultiCoreDatapath::with_config(&mut sys, cfg);
    dp.run_stream_parallel_with(&mut sys, (0..8).map(TrafficEvent::Packet), 1, &mut |_| {});
}

/// The epoch runner refuses a traced system before it splits.
#[test]
#[should_panic(expected = "epoch-parallel runs cannot record spans")]
fn epoch_runner_rejects_tracing() {
    let (mut sys, mut dp) = datapath(TableBackend::Cuckoo, 2);
    sys.enable_tracing(1024);
    dp.run_stream_parallel_with(&mut sys, (0..8).map(TrafficEvent::Packet), 1, &mut |_| {});
}

/// At every window barrier the master system must satisfy all of
/// halo-check's memory-system invariants (placement, inclusion,
/// directory, single-owner, lock hygiene) — the merged state is a real
/// coherent state, not just a matching byte pattern.
#[test]
fn barriers_leave_master_state_audit_clean() {
    let (mut sys, mut dp) = datapath(TableBackend::Cuckoo, 4);
    let mut barriers = 0u64;
    let mut hook = |s: &MemorySystem| {
        let violations = halo_nfv::check::audit_system(s, Cycle(0));
        assert!(
            violations.is_empty(),
            "barrier audit failed: {violations:?}"
        );
        barriers += 1;
    };
    dp.run_parallel_with(&mut sys, 600, 50, 4, &mut hook);
    assert!(barriers >= 12, "expected a barrier per churn window");
}

/// Barrier hooks fired by `run_parallel_with` over `packets` packets.
fn scaling_barriers(packets: u64, churn_every: u64) -> u64 {
    let (mut sys, mut dp) = datapath(TableBackend::Cuckoo, 4);
    let mut barriers = 0u64;
    let r = dp.run_parallel_with(&mut sys, packets, churn_every, 1, &mut |_| barriers += 1);
    assert_eq!(r.packets, packets);
    barriers
}

/// Epoch windows close at 1024 packets and just before every churn
/// point — the boundaries any rebuilt epoch runner must mirror.
#[test]
fn scaling_windows_close_at_churn_points_and_window_size() {
    assert_eq!(
        scaling_barriers(600, 50),
        12,
        "one window per churn interval"
    );
    assert_eq!(scaling_barriers(600, 0), 1, "no churn: one window");
    assert_eq!(scaling_barriers(2_500, 0), 3, "1024 + 1024 + 452");
}

/// A stream's windows close just before every control event, and a
/// control event with no pending packets closes no (empty) window:
/// exactly one barrier per non-empty run of packets.
#[test]
fn stream_windows_close_before_every_control_event() {
    let packets = |n: u64| (0..n).map(TrafficEvent::Packet);
    let events: Vec<TrafficEvent> = [TrafficEvent::Arrival(5_000)]
        .into_iter()
        .chain(packets(7))
        .chain([TrafficEvent::Arrival(5_001)])
        .chain(packets(5))
        .chain([TrafficEvent::Expiry(3), TrafficEvent::Expiry(4)])
        .chain(packets(9))
        .collect();
    let (mut sys, mut dp) = datapath(TableBackend::Cuckoo, 4);
    let mut barriers = 0u64;
    let r = dp.run_stream_parallel_with(&mut sys, events, 1, &mut |_| barriers += 1);
    assert_eq!(barriers, 3, "one barrier per non-empty packet run");
    assert_eq!((r.packets, r.arrivals, r.expiries), (21, 2, 2));
    assert_eq!(
        r.misses, 2,
        "flows 3 and 4 expired before their last packets"
    );
}

/// The full differential matrix: every exact-match backend, both churn
/// and flood streams plus the RSS/churn workload, threads 1 vs 2 vs 4.
#[cfg(feature = "slow-tests")]
#[test]
fn all_backends_and_streams_are_threads_invariant() {
    for backend in TableBackend::all() {
        let base = scaling_outcome(backend, 1, 25);
        for threads in [2, 4] {
            assert_eq!(
                base,
                scaling_outcome(backend, threads, 25),
                "{} scaling run diverged at threads={threads}",
                backend.name()
            );
        }
        for (label, cfg) in [
            ("churn", StreamConfig::churn(2_000)),
            ("flood", StreamConfig::ddos_flood(2_000)),
        ] {
            let one = stream_outcome(backend, 1, cfg);
            for threads in [2, 4] {
                assert_eq!(
                    one,
                    stream_outcome(backend, threads, cfg),
                    "{} {label} stream diverged at threads={threads}",
                    backend.name()
                );
            }
        }
    }
}
