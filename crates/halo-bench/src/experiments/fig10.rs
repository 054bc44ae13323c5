//! Fig. 10: latency breakdown of one hash-table lookup — computing,
//! data access, and locking — for software vs HALO, with the accessed
//! entries resident in LLC or in DRAM.

use crate::experiments::harness::{filled_table, llc_table, sw_lookups, uniform_keys};
use halo_accel::{AcceleratorConfig, HaloEngine};
use halo_datapath::{LookupBackend, LookupExecutor};
use halo_mem::{CoreId, MachineConfig, MemorySystem};
use halo_sim::{fmt_f64, point_seed, Cycle, SplitMix64, SweepPoint, SweepRunner, TextTable};
use halo_tables::FlowKey;

/// One bar of Fig. 10.
#[derive(Debug, Clone, Copy)]
pub struct Fig10Bar {
    /// Configuration label.
    pub name: &'static str,
    /// Cycles spent computing (hash, compares, non-memory overhead).
    pub compute: f64,
    /// Cycles waiting on table data.
    pub data: f64,
    /// Cycles attributable to locking.
    pub locking: f64,
}

impl Fig10Bar {
    /// Total lookup latency.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.compute + self.data + self.locking
    }
}

const N: u64 = 150;

/// Average software lookup latency. The LLC case chains lookups over
/// the warm table; the DRAM case evicts the table from everywhere
/// between lookups so each access pays the full memory latency.
fn avg_sw_latency(flows: usize, warm_llc: bool, locking: bool, seed: u64) -> f64 {
    let mut sys = MemorySystem::new(MachineConfig::default());
    if warm_llc {
        let table = llc_table(&mut sys, flows);
        let keys = uniform_keys(seed, flows as u64);
        return sw_lookups(&mut sys, &table, N, locking, keys).0 as f64 / N as f64;
    }
    let table = filled_table(&mut sys, flows);
    let mut exec = LookupExecutor::new(&mut sys, CoreId(0), LookupBackend::Software);
    exec.warm_scratch(&mut sys);
    let mut rng = SplitMix64::new(seed);
    let mut t = Cycle(0);
    for _ in 0..N {
        let key = FlowKey::synthetic(rng.below(flows as u64), 13);
        let tr = table.lookup_traced(sys.data_mut(), &key, locking);
        sys.flush_all();
        exec.warm_scratch(&mut sys);
        t = exec.run_sw(&mut sys, &tr, None, t);
    }
    t.0 as f64 / N as f64
}

/// Software compute-only proxy: the same lookup program run against a
/// *small* table resident in the core's private caches — the data-access
/// cost collapses to L1 hits, leaving the compute component. (The
/// compute work per lookup is table-size independent.)
fn sw_compute_proxy(seed: u64) -> f64 {
    let flows = 400usize; // fits L1/L2 comfortably
    let mut sys = MemorySystem::new(MachineConfig::default());
    let table = filled_table(&mut sys, flows);
    for a in table.all_lines() {
        sys.warm_private(CoreId(0), a);
    }
    let keys = uniform_keys(seed, flows as u64);
    sw_lookups(&mut sys, &table, N, false, keys).0 as f64 / N as f64
}

/// Returns `(avg total latency, avg data-access cycles)` for HALO
/// blocking lookups; the compute/dispatch component is the remainder.
fn avg_halo_latency(flows: usize, warm_llc: bool, seed: u64) -> (f64, f64) {
    let mut sys = MemorySystem::new(MachineConfig::default());
    let table = if warm_llc {
        llc_table(&mut sys, flows)
    } else {
        filled_table(&mut sys, flows)
    };
    let mut engine = HaloEngine::new(&sys, AcceleratorConfig::default());
    let mut rng = SplitMix64::new(seed);
    let mut data = 0u64;
    let mut t = Cycle(0);
    for _ in 0..N {
        let key = FlowKey::synthetic(rng.below(flows as u64), 13);
        if !warm_llc {
            sys.flush_all();
        }
        let trace = table.lookup_traced(sys.data_mut(), &key, false);
        let h = halo_tables::hash_key(&key, halo_tables::SEED_PRIMARY);
        let out = engine.dispatch(
            &mut sys,
            CoreId(0),
            table.meta_addr(),
            &trace,
            h,
            None,
            None,
            t,
        );
        data += out.data_cycles.0;
        t = out.complete;
    }
    (t.0 as f64 / N as f64, data as f64 / N as f64)
}

/// One of the seven independent latency measurements behind the four
/// bars. Each returns `(total, data)` cycles; the software measurements
/// have no separable data component, so `data` is 0 there.
#[derive(Debug, Clone, Copy)]
enum Fig10Meas {
    /// Software lookup latency with the given residency and locking.
    Software { warm_llc: bool, locking: bool },
    /// Software compute-only proxy (tiny private-cache-resident table).
    SoftwareCompute,
    /// HALO blocking lookup latency with the given residency.
    Halo { warm_llc: bool },
}

#[derive(Debug, Clone, Copy)]
struct Fig10PointSpec {
    meas: Fig10Meas,
    flows: usize,
    seed: u64,
}

impl SweepPoint for Fig10PointSpec {
    type Row = (f64, f64);

    fn run(&self) -> (f64, f64) {
        match self.meas {
            Fig10Meas::Software { warm_llc, locking } => (
                avg_sw_latency(self.flows, warm_llc, locking, self.seed),
                0.0,
            ),
            Fig10Meas::SoftwareCompute => (sw_compute_proxy(self.seed), 0.0),
            Fig10Meas::Halo { warm_llc } => avg_halo_latency(self.flows, warm_llc, self.seed),
        }
    }

    fn label(&self) -> String {
        format!("{:?}", self.meas)
    }
}

/// Runs the four-bar breakdown on an explicit runner. Flow count chosen
/// so the table is comfortably LLC-resident (the DRAM bars flush caches
/// instead).
#[must_use]
pub fn run_with(runner: &SweepRunner) -> Vec<Fig10Bar> {
    const FLOWS: usize = 20_000;
    let measurements = [
        Fig10Meas::Software {
            warm_llc: true,
            locking: true,
        },
        Fig10Meas::Software {
            warm_llc: true,
            locking: false,
        },
        Fig10Meas::SoftwareCompute,
        Fig10Meas::Software {
            warm_llc: false,
            locking: true,
        },
        Fig10Meas::Software {
            warm_llc: false,
            locking: false,
        },
        Fig10Meas::Halo { warm_llc: true },
        Fig10Meas::Halo { warm_llc: false },
    ];
    let points: Vec<Fig10PointSpec> = measurements
        .iter()
        .enumerate()
        .map(|(i, &meas)| Fig10PointSpec {
            meas,
            flows: FLOWS,
            seed: point_seed("fig10", i as u64),
        })
        .collect();
    let rows = runner.run(points);
    let (sw_llc_lock, sw_llc_nolock, sw_compute) = (rows[0].0, rows[1].0, rows[2].0);
    let (sw_dram_lock, sw_dram_nolock) = (rows[3].0, rows[4].0);
    let (halo_llc, halo_llc_data) = rows[5];
    let (halo_dram, halo_dram_data) = rows[6];

    let sw_llc_locking = (sw_llc_lock - sw_llc_nolock).max(0.0);
    let sw_dram_locking = (sw_dram_lock - sw_dram_nolock).max(0.0);
    vec![
        Fig10Bar {
            name: "Software (LLC)",
            compute: sw_compute.min(sw_llc_lock),
            data: (sw_llc_nolock - sw_compute).max(0.0),
            locking: sw_llc_locking,
        },
        Fig10Bar {
            name: "HALO (LLC)",
            compute: (halo_llc - halo_llc_data).max(0.0),
            data: halo_llc_data,
            locking: 0.0,
        },
        Fig10Bar {
            name: "Software (DRAM)",
            compute: sw_compute.min(sw_dram_lock),
            data: (sw_dram_nolock - sw_compute).max(0.0),
            locking: sw_dram_locking,
        },
        Fig10Bar {
            name: "HALO (DRAM)",
            compute: (halo_dram - halo_dram_data).max(0.0),
            data: halo_dram_data,
            locking: 0.0,
        },
    ]
}

/// Runs the four-bar breakdown with default parallelism.
#[must_use]
pub fn run() -> Vec<Fig10Bar> {
    run_with(&SweepRunner::from_env("fig10"))
}

/// Formats like the paper's Fig. 10 (normalized to Software-LLC).
#[must_use]
pub fn table(bars: &[Fig10Bar]) -> TextTable {
    let base = bars.first().map_or(1.0, |b| b.total()).max(1e-9);
    let mut t = TextTable::new(vec![
        "configuration",
        "compute(cy)",
        "data(cy)",
        "locking(cy)",
        "total(cy)",
        "normalized",
    ]);
    for b in bars {
        t.row(vec![
            b.name.to_string(),
            fmt_f64(b.compute),
            fmt_f64(b.data),
            fmt_f64(b.locking),
            fmt_f64(b.total()),
            fmt_f64(b.total() / base),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_shapes_match_paper() {
        let bars = run();
        let sw_llc = &bars[0];
        let halo_llc = &bars[1];
        let sw_dram = &bars[2];
        let halo_dram = &bars[3];

        // HALO reduces total latency in the LLC case.
        assert!(
            halo_llc.total() < 0.7 * sw_llc.total(),
            "HALO-LLC {} vs SW-LLC {}",
            halo_llc.total(),
            sw_llc.total()
        );
        // Near-cache data access is several times cheaper than the
        // core path (paper: 4.1x from LLC).
        assert!(
            sw_llc.data / halo_llc.data.max(1.0) > 2.0,
            "LLC data {} vs {}",
            sw_llc.data,
            halo_llc.data
        );
        // DRAM residency hurts both, HALO less (paper: 1.6x faster).
        assert!(sw_dram.total() > sw_llc.total());
        assert!(halo_dram.total() > halo_llc.total());
        assert!(
            halo_dram.total() < sw_dram.total(),
            "HALO-DRAM {} vs SW-DRAM {}",
            halo_dram.total(),
            sw_dram.total()
        );
        // Software pays a locking component; HALO pays none.
        assert!(sw_llc.locking >= 0.0);
        assert!(halo_llc.locking == 0.0 && halo_dram.locking == 0.0);
        // HALO removes a large share of the compute (paper: 48.1% of
        // the instruction work is data access + simple arithmetic).
        assert!(halo_llc.compute < 0.5 * sw_llc.compute);
    }
}
