//! Tier-1 differential suite: every lookup structure (and the full
//! accelerator engine stack) replays SplitMix64-seeded op streams
//! against a trivially-correct model map; any divergence is shrunk to
//! a minimal trace and printed as seed + op list (see DESIGN.md §8 for
//! how to reproduce one). `--features slow-tests` scales the case
//! counts up; `--features audit` (or `HALO_AUDIT=1`) additionally runs
//! the invariant auditor after every op.

use halo_nfv::check::{
    buggy_cuckoo_driver, engine_driver, exact_driver, kvstore_driver, run_differential,
    run_fault_injection, sfh_driver, tcam_driver, FaultConfig,
};
use halo_nfv::datapath::TableBackend;
use halo_nfv::sim::point_seed;

const CASES: u64 = if cfg!(feature = "slow-tests") { 48 } else { 8 };
const OPS: usize = if cfg!(feature = "slow-tests") {
    600
} else {
    150
};

#[test]
fn cuckoo_agrees_with_oracle() {
    run_differential("differential.cuckoo", CASES, OPS, 2048, |ops| {
        exact_driver(TableBackend::Cuckoo, ops)
    })
    .unwrap_or_else(|t| panic!("{t}"));
}

/// Cuckoo++ must agree with the oracle through the same op streams,
/// with its per-bucket presence filters audited after every op (under
/// `--features audit`) and removed keys re-checked for single-probe
/// negative lookups inside the driver.
#[test]
fn cuckoo_pp_agrees_with_oracle() {
    run_differential("differential.cuckoo_pp", CASES, OPS, 2048, |ops| {
        exact_driver(TableBackend::CuckooPlusPlus, ops)
    })
    .unwrap_or_else(|t| panic!("{t}"));
}

/// EMOMA must agree with the oracle while every single lookup — hit or
/// miss, mid-displacement or not — touches exactly one bucket line (the
/// driver asserts the probe count on every op).
#[test]
fn emoma_agrees_with_oracle() {
    run_differential("differential.emoma", CASES, OPS, 2048, |ops| {
        exact_driver(TableBackend::Emoma, ops)
    })
    .unwrap_or_else(|t| panic!("{t}"));
}

#[test]
fn sfh_agrees_with_oracle() {
    run_differential("differential.sfh", CASES, OPS, 2048, sfh_driver)
        .unwrap_or_else(|t| panic!("{t}"));
}

#[test]
fn kvstore_agrees_with_oracle() {
    run_differential("differential.kvstore", CASES, OPS, 1024, |ops| {
        kvstore_driver(ops)
    })
    .unwrap_or_else(|t| panic!("{t}"));
}

#[test]
fn tcam_agrees_with_oracle() {
    run_differential("differential.tcam", CASES, OPS, 1024, |ops| {
        tcam_driver(ops)
    })
    .unwrap_or_else(|t| panic!("{t}"));
}

/// The heavyweight target: every op checked through software lookup,
/// `LOOKUP_B`, `LOOKUP_NB`, and `SNAPSHOT_READ` simultaneously, so it
/// runs fewer, shorter cases than the table-only drivers.
#[test]
fn engine_agrees_with_oracle_on_all_lookup_paths() {
    let cases = if cfg!(feature = "slow-tests") { 12 } else { 4 };
    let ops = if cfg!(feature = "slow-tests") {
        250
    } else {
        100
    };
    run_differential("differential.engine", cases, ops, 1024, |ops| {
        engine_driver(ops)
    })
    .unwrap_or_else(|t| panic!("{t}"));
}

/// The ISSUE's acceptance scenario: a seeded schedule of adversarial
/// evictions, scoreboard-flooding bursts, and mid-displacement move
/// preemptions keeps agreeing with the oracle, provably exercises each
/// fault class, and leaves zero auditor violations behind.
#[test]
fn fault_injection_passes_auditor() {
    let seeds = if cfg!(feature = "slow-tests") { 6 } else { 2 };
    for s in 0..seeds {
        let cfg = FaultConfig {
            seed: point_seed("differential.fault", s),
            ..FaultConfig::default()
        };
        let report =
            run_fault_injection(&cfg).unwrap_or_else(|e| panic!("seed {:#x}: {e}", cfg.seed));
        assert!(report.forced_evictions > 0, "no evictions injected");
        assert!(report.stall_bursts > 0, "no stall bursts injected");
        assert!(
            report.scoreboard_stalls > 0,
            "bursts never stalled the scoreboard"
        );
        assert!(
            report.preempted_moves > 0,
            "no mid-move preemptions injected"
        );
        assert_eq!(
            report.violations,
            vec![],
            "auditor violations under seed {:#x}",
            cfg.seed
        );
    }
}

/// The fault schedule must hold for every exact-match backend: forced
/// evictions, stall bursts, and mid-move preemptions against Cuckoo++'s
/// presence filters and EMOMA's counting-Bloom steering leave zero
/// auditor violations, just like the baseline cuckoo table.
#[test]
fn fault_injection_passes_auditor_for_every_backend() {
    let seeds = if cfg!(feature = "slow-tests") { 3 } else { 1 };
    for (i, backend) in TableBackend::all().into_iter().enumerate() {
        for s in 0..seeds {
            let cfg = FaultConfig {
                seed: point_seed("differential.fault.backends", i as u64 * 16 + s),
                backend,
                ..FaultConfig::default()
            };
            let report = run_fault_injection(&cfg)
                .unwrap_or_else(|e| panic!("{}, seed {:#x}: {e}", backend.name(), cfg.seed));
            assert!(
                report.forced_evictions > 0,
                "{}: no evictions injected",
                backend.name()
            );
            assert!(
                report.preempted_moves > 0,
                "{}: no mid-move preemptions injected",
                backend.name()
            );
            assert_eq!(
                report.violations,
                vec![],
                "{}: auditor violations under seed {:#x}",
                backend.name(),
                cfg.seed
            );
        }
    }
}

/// Parallelism must never change results: the same fig9 slice run at
/// one and four jobs produces byte-identical rows (ordered merge in
/// `SweepRunner`), both as raw cells and as the rendered table.
#[test]
fn fig9_small_slice_is_jobs_invariant() {
    use halo_bench::experiments::fig9;
    use halo_nfv::sim::SweepRunner;

    let a = fig9::run_small_slice(&SweepRunner::new("fig9-det-1", 1).quiet());
    let b = fig9::run_small_slice(&SweepRunner::new("fig9-det-4", 4).quiet());
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.entries, y.entries);
        assert_eq!(x.occupancy.to_bits(), y.occupancy.to_bits());
        assert_eq!(x.approach, y.approach);
        assert_eq!(
            x.throughput.to_bits(),
            y.throughput.to_bits(),
            "{x:?} vs {y:?}"
        );
        assert_eq!(
            x.normalized.to_bits(),
            y.normalized.to_bits(),
            "{x:?} vs {y:?}"
        );
    }
    assert_eq!(fig9::table(&a).to_string(), fig9::table(&b).to_string());
}

/// The backend-ablation matrix must also be jobs-invariant: the same
/// small slice at one and four workers produces bit-identical cells
/// and an identical rendered table.
#[test]
fn ablation_backends_small_slice_is_jobs_invariant() {
    use halo_bench::experiments::ablation_backends;
    use halo_nfv::sim::SweepRunner;

    let a = ablation_backends::run_small_slice(&SweepRunner::new("abl-b-det-1", 1).quiet());
    let b = ablation_backends::run_small_slice(&SweepRunner::new("abl-b-det-4", 4).quiet());
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.backend, y.backend);
        assert_eq!(x.strategy, y.strategy);
        assert_eq!(x.mix, y.mix);
        assert_eq!(
            x.throughput.to_bits(),
            y.throughput.to_bits(),
            "{x:?} vs {y:?}"
        );
        assert_eq!(
            x.mem_per_lookup.to_bits(),
            y.mem_per_lookup.to_bits(),
            "{x:?} vs {y:?}"
        );
    }
    assert_eq!(
        ablation_backends::table(&a).to_string(),
        ablation_backends::table(&b).to_string()
    );
}

/// Mutation smoke check: a deliberately broken cuckoo remove (clears
/// the bucket entry but leaks the slot and the length) must be caught
/// by the oracle and shrunk to a tiny replayable trace.
#[test]
fn mutation_is_caught_and_shrunk() {
    let trace = run_differential("differential.mutation", 4, 60, 64, |ops| {
        buggy_cuckoo_driver(ops)
    })
    .expect_err("the seeded bug must be caught");
    assert!(
        trace.ops.len() <= 20,
        "trace not minimal ({} ops):\n{trace}",
        trace.ops.len()
    );
    assert!(
        buggy_cuckoo_driver(&trace.ops).is_some(),
        "minimal trace must replay the failure"
    );
    assert_eq!(
        exact_driver(TableBackend::Cuckoo, &trace.ops),
        None,
        "the real table must pass the minimal trace"
    );
    let printed = trace.to_string();
    assert!(
        printed.contains("seed 0x"),
        "trace must print its seed: {printed}"
    );
}

/// Churn differential: the streaming traffic engine's arrival/expiry
/// stream (a large live set installed up front, then paired
/// insert/remove churn under skewed lookups) must agree with the
/// oracle on every exact-match backend, with each backend's invariant
/// auditor run at the epoch cadence inside the driver.
#[test]
fn churn_stream_agrees_with_oracle_on_every_backend() {
    use halo_nfv::check::run_churn_differential;
    use halo_nfv::datapath::TableBackend;
    let cases = if cfg!(feature = "slow-tests") { 12 } else { 3 };
    for backend in TableBackend::all() {
        run_churn_differential(
            &format!("differential.churn.{}", backend.name()),
            cases,
            256,
            700,
            1 << 11,
            backend,
        )
        .unwrap_or_else(|t| panic!("{}: {t}", backend.name()));
    }
}

/// Wildcard differential: range-rule churn and classification streams
/// (generated per ruleset shape, from exact-heavy MegaFlow state to a
/// port-span ACL mix) must agree with the linear-scan [`RangeOracle`]
/// on every wildcard backend — TSS prefix expansion and the RVH
/// range-vector hash — comparing `(priority, action)` winners and the
/// installed-rule census at the audit cadence.
///
/// [`RangeOracle`]: halo_nfv::check::RangeOracle
#[test]
fn wildcard_stream_agrees_with_range_oracle_on_every_backend() {
    use halo_nfv::check::run_wildcard_differential;
    use halo_nfv::nf::RulesetShape;
    let cases = if cfg!(feature = "slow-tests") { 8 } else { 2 };
    let events = if cfg!(feature = "slow-tests") {
        400
    } else {
        160
    };
    for shape in RulesetShape::all() {
        run_wildcard_differential(
            &format!("differential.wildcard.{}", shape.name()),
            cases,
            32,
            events,
            shape,
        )
        .unwrap_or_else(|t| panic!("{}: {t}", shape.name()));
    }
    // Removal of a covering winner: N (ports 1024-2047, priority 9)
    // contains W's (1000-1999, priority 2) element holding port 1200,
    // so once N is gone that element must answer with W, whichever
    // rule was installed first.
    use halo_nfv::check::{wildcard_driver, WildcardOp};
    use halo_nfv::classify::{FieldRange, PacketHeader, RangeRule};
    use halo_nfv::datapath::WildcardBackend;
    let rule = |lo, hi, priority, action| {
        let mut r = RangeRule::exact_flow(&PacketHeader::synthetic(1).miniflow(), priority, action);
        r.ranges[3] = FieldRange::span(lo, hi);
        r
    };
    let (w, n) = (rule(1000, 1999, 2, 200), rule(1024, 2047, 9, 900));
    let port_1200 = WildcardOp::Classify(rule(1200, 1200, 0, 0).point_key());
    for [first, second] in [[n, w], [w, n]] {
        let ops = [
            WildcardOp::Insert(first),
            WildcardOp::Insert(second),
            WildcardOp::Remove(n),
            port_1200.clone(),
        ];
        for backend in WildcardBackend::all() {
            assert_eq!(wildcard_driver(backend, &ops), None, "{}", backend.name());
        }
    }
}

/// The wildcard-ablation matrix must be jobs-invariant too: the same
/// small slice at one and four workers produces bit-identical cells
/// and an identical rendered table.
#[test]
fn ablation_wildcard_small_slice_is_jobs_invariant() {
    use halo_bench::experiments::ablation_wildcard;
    use halo_nfv::sim::SweepRunner;

    let a = ablation_wildcard::run_small_slice(&SweepRunner::new("abl-w-det-1", 1).quiet());
    let b = ablation_wildcard::run_small_slice(&SweepRunner::new("abl-w-det-4", 4).quiet());
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.backend, y.backend);
        assert_eq!(x.shape, y.shape);
        assert_eq!(x.strategy, y.strategy);
        assert_eq!(
            x.throughput.to_bits(),
            y.throughput.to_bits(),
            "{x:?} vs {y:?}"
        );
        assert_eq!(
            x.probes_per_lookup.to_bits(),
            y.probes_per_lookup.to_bits(),
            "{x:?} vs {y:?}"
        );
        assert_eq!(x.mem_bytes, y.mem_bytes);
    }
    assert_eq!(
        ablation_wildcard::table(&a).to_string(),
        ablation_wildcard::table(&b).to_string()
    );
}

/// The scale experiment's small slice merges identically at any
/// worker count — the property that lets `GOLDEN.sha256` pin the
/// `figures scale --quick` output.
#[test]
fn scale_small_slice_is_jobs_invariant() {
    use halo_bench::experiments::scale;
    use halo_nfv::sim::SweepRunner;

    let a = scale::run_small_slice(&SweepRunner::new("scale-det-1", 1).quiet());
    let b = scale::run_small_slice(&SweepRunner::new("scale-det-4", 4).quiet());
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.flows, y.flows);
        assert_eq!(x.packets, y.packets);
        assert_eq!(x.misses, y.misses);
        assert_eq!((x.arrivals, x.expiries), (y.arrivals, y.expiries));
        assert_eq!(x.p99_classify, y.p99_classify);
        assert_eq!(
            x.hybrid_residency.to_bits(),
            y.hybrid_residency.to_bits(),
            "{x:?} vs {y:?}"
        );
    }
    assert_eq!(scale::table(&a).to_string(), scale::table(&b).to_string());
}
