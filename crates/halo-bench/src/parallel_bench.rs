//! Epoch-parallel executor benchmark (`figures bench-parallel`).
//!
//! For each simulated core count, runs the multicore RSS/churn workload
//! once with `threads = 1` and once with `threads = N` through
//! [`MultiCoreDatapath::run_parallel_with`], checks that every
//! observable output — the [`StreamReport`](halo_vswitch::StreamReport),
//! the per-core packet counts, and the master system's full stats
//! counter set — is byte-identical (the epoch/barrier determinism
//! guarantee), and reports both wall-clock times as
//! `BENCH_parallel.json`.
//!
//! Unlike `figures --jobs N`, which overlaps *independent* simulation
//! points, this benchmark parallelizes a *single* simulation: the
//! simulated cores of one machine run on real OS threads inside
//! bounded windows and merge at epoch barriers (DESIGN.md §13).

use std::time::Instant;

use halo_mem::{MachineConfig, MemorySystem};
use halo_vswitch::{LookupBackend, MultiCoreConfig, MultiCoreDatapath};

/// One sequential-vs-parallel measurement at a fixed simulated core
/// count.
#[derive(Debug, Clone)]
pub struct ParallelBenchRow {
    /// Simulated PMD cores in the datapath.
    pub cores: usize,
    /// Packets processed per run.
    pub packets: u64,
    /// Host threads of the parallel run (the sequential run uses 1).
    pub threads: usize,
    /// `threads = 1` wall-clock seconds.
    pub sequential_s: f64,
    /// `threads = N` wall-clock seconds.
    pub parallel_s: f64,
    /// Whether both runs produced byte-identical reports, per-core
    /// packet counts, and master stats.
    pub identical: bool,
}

impl ParallelBenchRow {
    /// Sequential / parallel wall-clock ratio.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.parallel_s > 0.0 {
            self.sequential_s / self.parallel_s
        } else {
            0.0
        }
    }
}

/// Runs the workload once at `threads` host threads; returns a string
/// covering every observable output plus the wall-clock seconds of the
/// run itself (datapath construction excluded).
fn outcome(cores: usize, packets: u64, churn_every: u64, threads: usize) -> (String, f64) {
    let mut sys = MemorySystem::new(MachineConfig::default());
    let cfg = MultiCoreConfig::new(cores, 5, 2_000, LookupBackend::Software, 42);
    let mut dp = MultiCoreDatapath::with_config(&mut sys, cfg);
    let t0 = Instant::now();
    let r = dp.run_parallel_with(&mut sys, packets, churn_every, threads, &mut |_| {});
    let wall_s = t0.elapsed().as_secs_f64();
    let mut stats: Vec<(String, u64)> = sys
        .stats()
        .counters()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    stats.sort();
    (
        format!("{r:?} | {:?} | {stats:?}", dp.per_core_packets()),
        wall_s,
    )
}

/// Runs the benchmark at each simulated core count. `quick` is the CI
/// smoke setting (~10x fewer packets, one fewer core point, identical
/// shapes); core counts ascend so the JSON rows are monotone.
#[must_use]
pub fn run(quick: bool, threads: usize) -> Vec<ParallelBenchRow> {
    let core_counts: &[usize] = if quick { &[2, 4, 8] } else { &[2, 4, 8, 16] };
    let packets: u64 = if quick { 3_000 } else { 30_000 };
    // Churn ops run single-threaded between windows; spacing them well
    // past WINDOW_PKTS keeps windows wide enough to amortize the
    // per-window thread fan-out.
    let churn_every = packets / 4;
    core_counts
        .iter()
        .map(|&cores| {
            let (seq_out, sequential_s) = outcome(cores, packets, churn_every, 1);
            let (par_out, parallel_s) = outcome(cores, packets, churn_every, threads);
            ParallelBenchRow {
                cores,
                packets,
                threads,
                sequential_s,
                parallel_s,
                identical: seq_out == par_out,
            }
        })
        .collect()
}

/// Serializes the rows as the `BENCH_parallel.json` document, headed by
/// the shared [`halo_sim::ParallelismReport`] record (`jobs` here is
/// the thread count of the parallel runs).
#[must_use]
pub fn to_json(rows: &[ParallelBenchRow], quick: bool, threads: usize) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"benchmark\": \"epoch executor threads=1 vs threads=N\",\n");
    s.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    s.push_str(&halo_sim::ParallelismReport::capture(threads).json_fields());
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"cores\": {}, \"packets\": {}, \"threads\": {}, \"sequential_s\": {:.4}, \
             \"parallel_s\": {:.4}, \"speedup\": {:.3}, \"byte_identical\": {}}}{}\n",
            r.cores,
            r.packets,
            r.threads,
            r.sequential_s,
            r.parallel_s,
            r.speedup(),
            r.identical,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature run of the real harness: ascending core counts, the
    /// determinism flag true at every point.
    #[test]
    fn rows_are_monotone_and_identical() {
        let rows: Vec<ParallelBenchRow> = [2, 4]
            .iter()
            .map(|&cores| {
                let (seq, sequential_s) = outcome(cores, 256, 64, 1);
                let (par, parallel_s) = outcome(cores, 256, 64, 2);
                ParallelBenchRow {
                    cores,
                    packets: 256,
                    threads: 2,
                    sequential_s,
                    parallel_s,
                    identical: seq == par,
                }
            })
            .collect();
        assert!(rows.windows(2).all(|w| w[0].cores < w[1].cores));
        for r in &rows {
            assert!(r.identical, "{}-core run diverged across threads", r.cores);
        }
        let j = to_json(&rows, true, 2);
        assert!(j.contains("\"byte_identical\": true"));
        assert!(j.contains("\"jobs\": 2"));
        assert!(j.contains("\"host_parallelism\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn speedup_handles_zero_wall() {
        let r = ParallelBenchRow {
            cores: 8,
            packets: 0,
            threads: 4,
            sequential_s: 1.0,
            parallel_s: 0.0,
            identical: true,
        };
        assert_eq!(r.speedup(), 0.0);
    }
}
