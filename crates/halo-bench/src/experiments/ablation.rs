//! Ablation studies for the design choices DESIGN.md calls out:
//! metadata cache, scoreboard depth, dispatch policy, hardware locking,
//! and the hybrid-mode threshold.
//!
//! Every study is a sweep of independent configurations, so each
//! configuration runs as one [`SweepPoint`] on the shared runner; rows
//! come back in configuration order, keeping the printed tables
//! byte-identical at any `--jobs` level.

use crate::experiments::harness::{
    filled_table, kilo_throughput, llc_table, lookup_b_chain, lookup_nb_batches, sw_lookups,
    uniform_keys, Approach, SingleTableWorkload,
};
use halo_accel::{AcceleratorConfig, DispatchPolicy, HaloEngine, HybridClassifier, HybridConfig};
use halo_cpu::build_sw_lookup_bulk;
use halo_datapath::{LookupBackend, LookupExecutor};
use halo_mem::{AccessKind, CoreId, MachineConfig, MemorySystem};
use halo_sim::{fmt_f64, point_seed, Cycle, Cycles, FnPoint, SplitMix64, SweepRunner, TextTable};
use halo_tables::{CuckooTable, FlowKey};

/// Boxed row-producing point used by studies whose configurations need
/// heterogeneous closures.
type RowPoint = FnPoint<Box<dyn Fn() -> Vec<String> + Send + 'static>>;

fn sweep_rows(name: &str, points: Vec<RowPoint>, headers: Vec<&str>) -> TextTable {
    let rows = SweepRunner::from_env(name).run(points);
    let mut t = TextTable::new(headers);
    for r in rows {
        t.row(r);
    }
    t
}

/// Metadata cache on/off: average blocking-lookup latency.
#[must_use]
pub fn metadata_cache() -> TextTable {
    let points: Vec<RowPoint> = [true, false]
        .iter()
        .enumerate()
        .map(|(i, &enabled)| {
            let seed = point_seed("ablation.metadata_cache", i as u64);
            let f: Box<dyn Fn() -> Vec<String> + Send> = Box::new(move || {
                let mut sys = MemorySystem::new(MachineConfig::default());
                let table = llc_table(&mut sys, 20_000);
                let cfg = AcceleratorConfig {
                    metadata_cache: enabled,
                    ..AcceleratorConfig::default()
                };
                const N: u64 = 200;
                let total = lookup_b_chain(&mut sys, cfg, &table, N, uniform_keys(seed, 20_000));
                vec![
                    if enabled { "on (10 tables)" } else { "off" }.into(),
                    fmt_f64(total.0 as f64 / N as f64),
                ]
            });
            FnPoint::new(
                format!("metadata cache {}", if enabled { "on" } else { "off" }),
                f,
            )
        })
        .collect();
    sweep_rows(
        "ablation.metadata_cache",
        points,
        vec!["metadata cache", "avg LOOKUP_B latency (cy)"],
    )
}

/// Scoreboard depth sweep: non-blocking batch throughput.
#[must_use]
pub fn scoreboard_depth() -> TextTable {
    let points: Vec<RowPoint> = [1usize, 2, 10, 32]
        .iter()
        .enumerate()
        .map(|(i, &depth)| {
            let seed = point_seed("ablation.scoreboard_depth", i as u64);
            let f: Box<dyn Fn() -> Vec<String> + Send> = Box::new(move || {
                let mut sys = MemorySystem::new(MachineConfig::default());
                let table = llc_table(&mut sys, 20_000);
                let cfg = AcceleratorConfig {
                    scoreboard_depth: depth,
                    ..AcceleratorConfig::default()
                };
                const N: u64 = 400;
                let elapsed =
                    lookup_nb_batches(&mut sys, cfg, &table, N, uniform_keys(seed, 20_000));
                vec![depth.to_string(), fmt_f64(kilo_throughput(N, elapsed))]
            });
            FnPoint::new(format!("scoreboard depth {depth}"), f)
        })
        .collect();
    sweep_rows(
        "ablation.scoreboard_depth",
        points,
        vec!["scoreboard depth", "NB throughput (lookups/kcy)"],
    )
}

/// Dispatch policy comparison on a multi-table workload.
#[must_use]
pub fn dispatch_policy() -> TextTable {
    let policies = [
        ("table-hash (paper)", DispatchPolicy::TableHash),
        ("round-robin", DispatchPolicy::RoundRobin),
        ("key-hash", DispatchPolicy::KeyHash),
    ];
    let points: Vec<RowPoint> = policies
        .iter()
        .enumerate()
        .map(|(i, &(name, policy))| {
            let seed = point_seed("ablation.dispatch_policy", i as u64);
            let f: Box<dyn Fn() -> Vec<String> + Send> = Box::new(move || {
                let mut sys = MemorySystem::new(MachineConfig::default());
                // Ten tables, queries spread across them (a tuple-space-like
                // multi-table pattern).
                let tables: Vec<CuckooTable> =
                    (0..10).map(|_| llc_table(&mut sys, 2_000)).collect();
                let mut engine = HaloEngine::new(&sys, AcceleratorConfig::default());
                engine.set_policy(policy);
                let mut rng = SplitMix64::new(seed);
                let start = Cycle(0);
                let mut finish = start;
                const N: u64 = 400;
                for i in 0..N {
                    let table = &tables[(i % 10) as usize];
                    let key = FlowKey::synthetic(rng.below(2_000), 13);
                    let tr = table.lookup_traced(sys.data_mut(), &key, false);
                    let h = halo_tables::hash_key(&key, halo_tables::SEED_PRIMARY);
                    let out = engine.dispatch(
                        &mut sys,
                        CoreId(0),
                        table.meta_addr(),
                        &tr,
                        h,
                        None,
                        None,
                        start + Cycles(i * 2), // steady 0.5 queries/cycle offered
                    );
                    finish = finish.max(out.complete);
                }
                let used = engine
                    .accelerators()
                    .iter()
                    .filter(|a| a.queries() > 0)
                    .count();
                vec![
                    name.into(),
                    fmt_f64(kilo_throughput(N, finish - start)),
                    used.to_string(),
                ]
            });
            FnPoint::new(name, f)
        })
        .collect();
    sweep_rows(
        "ablation.dispatch_policy",
        points,
        vec!["dispatch policy", "throughput (lookups/kcy)", "accels used"],
    )
}

/// Hardware lock bit vs software optimistic locking under a concurrent
/// writer.
#[must_use]
pub fn locking() -> TextTable {
    let sw_seed = point_seed("ablation.locking", 0);
    let hw_seed = point_seed("ablation.locking", 1);

    // Software locking: reader pays the version-check instructions.
    let software: Box<dyn Fn() -> Vec<String> + Send> = Box::new(move || {
        let mut sys = MemorySystem::new(MachineConfig::default());
        let mut table = llc_table(&mut sys, 5_000);
        let mut exec = LookupExecutor::new(&mut sys, CoreId(0), LookupBackend::Software);
        exec.warm_scratch(&mut sys);
        let mut rng = SplitMix64::new(sw_seed);
        let mut t0 = Cycle(0);
        const N: u64 = 150;
        for i in 0..N {
            // A concurrent writer relocates entries now and then.
            if i % 8 == 0 {
                let victim = FlowKey::synthetic(rng.below(5_000), 13);
                table.cuckoo_move(sys.data_mut(), &victim);
            }
            let key = FlowKey::synthetic(rng.below(5_000), 13);
            let tr = table.lookup_traced(sys.data_mut(), &key, true);
            t0 = exec.run_sw(&mut sys, &tr, None, t0);
        }
        vec![
            "software optimistic".into(),
            fmt_f64(t0.0 as f64 / N as f64),
        ]
    });

    // Hardware lock bit: the accelerator pins lines; a concurrent
    // writer's stores stall on the lock instead of the reader paying
    // per-lookup instructions.
    let hardware: Box<dyn Fn() -> Vec<String> + Send> = Box::new(move || {
        let mut sys = MemorySystem::new(MachineConfig::default());
        let mut table = llc_table(&mut sys, 5_000);
        let mut engine = HaloEngine::new(&sys, AcceleratorConfig::default());
        let mut rng = SplitMix64::new(hw_seed);
        let mut total = 0u64;
        let mut t0 = Cycle(0);
        const N: u64 = 150;
        for i in 0..N {
            if i % 8 == 0 {
                let victim = FlowKey::synthetic(rng.below(5_000), 13);
                // Writer core issues its stores (they respect the lock bits).
                let (b1, _) = halo_tables::bucket_pair(&victim, table.meta().buckets);
                let addr = table.meta().bucket_addr(b1);
                sys.access(CoreId(1), addr, AccessKind::Store, t0);
                table.cuckoo_move(sys.data_mut(), &victim);
            }
            let key = FlowKey::synthetic(rng.below(5_000), 13);
            let (_, done) = engine.lookup_b(&mut sys, CoreId(0), &table, &key, None, t0);
            total += (done - t0).0;
            t0 = done;
        }
        vec![
            "HALO hardware lock bit".into(),
            fmt_f64(total as f64 / N as f64),
        ]
    });

    sweep_rows(
        "ablation.locking",
        vec![
            FnPoint::new("software optimistic", software),
            FnPoint::new("hardware lock bit", hardware),
        ],
        vec!["locking scheme", "avg lookup latency (cy)"],
    )
}

/// Hybrid-mode threshold sweep: where does the SW/HALO crossover sit?
#[must_use]
pub fn hybrid_threshold() -> TextTable {
    let points: Vec<RowPoint> = [8usize, 32, 64, 256, 4096]
        .iter()
        .enumerate()
        .map(|(i, &flows)| {
            let seed = point_seed("ablation.hybrid_threshold", i as u64);
            let f: Box<dyn Fn() -> Vec<String> + Send> = Box::new(move || {
                // Software path with the table warm in private caches.
                let mut sys = MemorySystem::new(MachineConfig::default());
                let table = filled_table(&mut sys, flows);
                for a in table.all_lines() {
                    // Small working sets stay private-cache resident in steady
                    // state; larger ones realistically live in the LLC (the
                    // rest of the datapath competes for L1/L2).
                    if flows <= 256 {
                        sys.warm_private(CoreId(0), a);
                    } else {
                        sys.warm_llc(a);
                    }
                }
                const N: u64 = 150;
                let keys = || uniform_keys(seed, flows as u64);
                let sw = sw_lookups(&mut sys, &table, N, true, keys()).0 as f64 / N as f64;

                let mut sys = MemorySystem::new(MachineConfig::default());
                let table = llc_table(&mut sys, flows);
                let cfg = AcceleratorConfig::default();
                let hw = lookup_b_chain(&mut sys, cfg, &table, N, keys()).0 as f64 / N as f64;
                vec![
                    flows.to_string(),
                    fmt_f64(sw),
                    fmt_f64(hw),
                    if sw < hw { "software" } else { "HALO" }.into(),
                ]
            });
            FnPoint::new(format!("{flows} flows"), f)
        })
        .collect();
    sweep_rows(
        "ablation.hybrid_threshold",
        points,
        vec!["flows", "software cy/lookup", "HALO cy/lookup", "faster"],
    )
}

/// Hybrid controller in action: lookups split between modes as the flow
/// count crosses the threshold.
#[must_use]
pub fn hybrid_in_action() -> TextTable {
    let points: Vec<RowPoint> = [16usize, 1024]
        .iter()
        .enumerate()
        .map(|(i, &flows)| {
            let seed = point_seed("ablation.hybrid_in_action", i as u64);
            let f: Box<dyn Fn() -> Vec<String> + Send> = Box::new(move || {
                let mut sys = MemorySystem::new(MachineConfig::default());
                let table = llc_table(&mut sys, flows);
                let mut engine = HaloEngine::new(&sys, AcceleratorConfig::default());
                let mut hybrid =
                    HybridClassifier::new(&mut sys, CoreId(0), HybridConfig::default());
                let mut rng = SplitMix64::new(seed);
                let mut t0 = Cycle(0);
                for _ in 0..1200u64 {
                    let key = FlowKey::synthetic(rng.below(flows as u64), 13);
                    let (_, done) = hybrid.lookup(&mut sys, &mut engine, &table, &key, t0);
                    t0 = done;
                }
                let (sw, hw) = hybrid.split();
                vec![
                    flows.to_string(),
                    sw.to_string(),
                    hw.to_string(),
                    format!("{:?}", hybrid.mode()),
                ]
            });
            FnPoint::new(format!("{flows} flows"), f)
        })
        .collect();
    sweep_rows(
        "ablation.hybrid_in_action",
        points,
        vec!["flows", "sw lookups", "halo lookups", "final mode"],
    )
}

/// Optimized-software fairness check: DPDK's bulk lookup API
/// (`rte_hash_lookup_bulk`, software pipelining for MLP) vs scalar
/// software vs HALO non-blocking, on an LLC-resident table.
#[must_use]
pub fn bulk_software() -> TextTable {
    const FLOWS: usize = 20_000;
    const N: u64 = 320;
    let scalar_seed = point_seed("ablation.bulk_software", 0);
    let bulk_seed = point_seed("ablation.bulk_software", 1);
    let nb_seed = point_seed("ablation.bulk_software", 2);

    // Scalar software.
    let scalar: Box<dyn Fn() -> Vec<String> + Send> = Box::new(move || {
        let mut sys = MemorySystem::new(MachineConfig::default());
        let table = llc_table(&mut sys, FLOWS);
        let keys = uniform_keys(scalar_seed, FLOWS as u64);
        let elapsed = sw_lookups(&mut sys, &table, N, true, keys);
        vec![
            "software (scalar)".into(),
            fmt_f64(kilo_throughput(N, elapsed)),
        ]
    });

    // Bulk software (bursts of 8).
    let bulk: Box<dyn Fn() -> Vec<String> + Send> = Box::new(move || {
        let mut sys = MemorySystem::new(MachineConfig::default());
        let table = llc_table(&mut sys, FLOWS);
        let mut exec = LookupExecutor::new(&mut sys, CoreId(0), LookupBackend::Software);
        exec.warm_scratch(&mut sys);
        let mut rng = SplitMix64::new(bulk_seed);
        let mut t0 = Cycle(0);
        let mut done = 0u64;
        while done < N {
            let burst = 8.min(N - done);
            let traces: Vec<_> = (0..burst)
                .map(|_| {
                    let key = FlowKey::synthetic(rng.below(FLOWS as u64), 13);
                    table.lookup_traced(sys.data_mut(), &key, true)
                })
                .collect();
            let refs: Vec<&halo_tables::LookupTrace> = traces.iter().collect();
            let prog = build_sw_lookup_bulk(&refs, exec.scratch_mut());
            t0 = exec.run(&prog, &mut sys, t0).finish;
            done += burst;
        }
        vec![
            "software (bulk x8)".into(),
            fmt_f64(kilo_throughput(N, t0 - Cycle(0))),
        ]
    });

    // HALO non-blocking (bursts of 8).
    let halo_nb: Box<dyn Fn() -> Vec<String> + Send> = Box::new(move || {
        let mut w = SingleTableWorkload::new(1 << 15, 0.6, nb_seed);
        let thr = w.throughput(Approach::HaloNonBlocking, N);
        vec!["HALO non-blocking".into(), fmt_f64(thr)]
    });

    sweep_rows(
        "ablation.bulk_software",
        vec![
            FnPoint::new("software scalar", scalar),
            FnPoint::new("software bulk", bulk),
            FnPoint::new("HALO non-blocking", halo_nb),
        ],
        vec!["approach", "throughput (lookups/kcy)"],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_cache_helps() {
        let t = metadata_cache();
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().skip(1).collect();
        let on: f64 = lines[0].split(',').nth(1).unwrap().parse().unwrap();
        let off: f64 = lines[1].split(',').nth(1).unwrap().parse().unwrap();
        assert!(on < off, "metadata cache on ({on}) must beat off ({off})");
    }

    #[test]
    fn deeper_scoreboard_helps_throughput() {
        let t = scoreboard_depth();
        let csv = t.to_csv();
        let vals: Vec<f64> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        assert!(
            vals[2] > vals[0],
            "depth 10 ({}) must beat depth 1 ({})",
            vals[2],
            vals[0]
        );
    }

    #[test]
    fn table_hash_spreads_multi_table_load() {
        let t = dispatch_policy();
        let csv = t.to_csv();
        let used: Vec<u64> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(2).unwrap().parse().unwrap())
            .collect();
        assert!(used[0] > 1, "table-hash must use several accelerators");
        assert!(used[1] >= used[0], "round-robin uses at least as many");
    }

    #[test]
    fn bulk_software_helps_but_halo_still_wins() {
        let t = bulk_software();
        let csv = t.to_csv();
        let vals: Vec<f64> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        assert!(
            vals[1] > vals[0],
            "bulk {} must beat scalar {}",
            vals[1],
            vals[0]
        );
        assert!(
            vals[2] > vals[1],
            "HALO {} must beat bulk {}",
            vals[2],
            vals[1]
        );
    }

    #[test]
    fn hybrid_crossover_exists() {
        let t = hybrid_threshold();
        let csv = t.to_csv();
        let winners: Vec<String> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(3).unwrap().to_string())
            .collect();
        assert_eq!(winners[0], "software", "8 flows should favor software");
        assert_eq!(
            winners.last().unwrap(),
            "HALO",
            "4096 flows should favor HALO"
        );
    }
}
