//! Fig. 4: cache behaviour of cuckoo hash vs a single-function hash
//! (SFH) table — L2/LLC misses per kilo-load and the stall-cycle ratio
//! as the flow count grows.

use halo_cpu::build_sw_lookup;
use halo_datapath::{LookupBackend, LookupExecutor};
use halo_mem::{CoreId, MachineConfig, MemorySystem};
use halo_sim::{fmt_f64, Cycle, SplitMix64, TextTable};
use halo_tables::{CuckooTable, FlowKey, SfhTable};

/// Table kind under measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableKind {
    /// 8-way cuckoo hash (DPDK default).
    Cuckoo,
    /// Single-function hash.
    Sfh,
}

/// One Fig. 4 measurement.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Row {
    /// Which table.
    pub kind: TableKind,
    /// Installed flows.
    pub flows: usize,
    /// L2 misses per kilo-load.
    pub l2_mpkl: f64,
    /// LLC misses per kilo-load.
    pub llc_mpkl: f64,
    /// Fraction of execution stalled on L2/LLC misses.
    pub stall_ratio: f64,
    /// Table footprint in bytes.
    pub footprint: u64,
}

fn measure(kind: TableKind, flows: usize, lookups: u64, seed: u64) -> Fig4Row {
    let mut sys = MemorySystem::new(MachineConfig::default());
    enum T {
        C(CuckooTable),
        S(SfhTable),
    }
    let table = match kind {
        TableKind::Cuckoo => {
            let mut t = CuckooTable::with_capacity_for(sys.data_mut(), flows, 0.9, 13);
            for id in 0..flows as u64 {
                let _ = t.insert(sys.data_mut(), &FlowKey::synthetic(id, 13), id);
            }
            T::C(t)
        }
        TableKind::Sfh => {
            let mut t = SfhTable::with_capacity_for(sys.data_mut(), flows, 13);
            for id in 0..flows as u64 {
                let _ = t.insert(sys.data_mut(), &FlowKey::synthetic(id, 13), id);
            }
            T::S(t)
        }
    };
    let footprint = match &table {
        T::C(t) => t.footprint(),
        T::S(t) => t.footprint(),
    };
    // Warm by streaming the table once through the cache hierarchy (the
    // steady state after §5.2's warm-up lookups): larger-than-LLC
    // tables self-evict, exactly as on real hardware.
    {
        let lines: Vec<_> = match &table {
            T::C(t) => t.all_lines().collect(),
            T::S(t) => t.all_lines().collect(),
        };
        for a in lines {
            sys.warm_llc(a);
        }
    }
    let mut exec = LookupExecutor::new(&mut sys, CoreId(0), LookupBackend::Software);
    exec.warm_scratch(&mut sys);
    sys.clear_stats();

    let mut rng = SplitMix64::new(seed);
    let mut t = Cycle(0);
    let start = t;
    let mut stall = 0u64;
    for _ in 0..lookups {
        let key = FlowKey::synthetic(rng.below(flows as u64), 13);
        let tr = match &table {
            T::C(tab) => tab.lookup_traced(sys.data_mut(), &key, true),
            T::S(tab) => tab.lookup_traced(sys.data_mut(), &key),
        };
        // Built on the executor's scratch and run with `exec.run`, not
        // `run_sw`, to read each run's memory profile.
        let prog = build_sw_lookup(&tr, exec.scratch_mut(), None);
        let r = exec.run(&prog, &mut sys, t);
        stall += r.mem.l2llc_miss_penalty.0;
        t = r.finish;
    }
    let loads = sys.stats().counter("mem.load").max(1);
    let l2_miss = sys.stats().counter("l2.miss");
    let llc_miss = sys.stats().counter("llc.miss");
    let total = (t - start).0.max(1);
    Fig4Row {
        kind,
        flows,
        l2_mpkl: 1000.0 * l2_miss as f64 / loads as f64,
        llc_mpkl: 1000.0 * llc_miss as f64 / loads as f64,
        stall_ratio: (stall as f64 / total as f64).min(1.0),
        footprint,
    }
}

/// Runs the sweep (paper: 1 K – 4 M flows; quick mode caps at 200 K).
#[must_use]
pub fn run(quick: bool) -> Vec<Fig4Row> {
    let sizes: Vec<usize> = if quick {
        vec![1_000, 10_000, 100_000, 200_000]
    } else {
        vec![1_000, 10_000, 100_000, 1_000_000, 4_000_000]
    };
    let lookups = if quick { 400 } else { 1500 };
    let mut out = Vec::new();
    for &flows in &sizes {
        out.push(measure(TableKind::Cuckoo, flows, lookups, 5));
        // SFH is capped at 1M flows: its table footprint is ~5-8x
        // cuckoo's (0.6 GB at 1M, 2.3 GB at 4M) and its LLC divergence
        // is already total by 100K flows (the paper's observation).
        if flows <= 1_000_000 {
            out.push(measure(TableKind::Sfh, flows, lookups, 5));
        }
    }
    out
}

/// Formats like the paper's Fig. 4.
#[must_use]
pub fn table(rows: &[Fig4Row]) -> TextTable {
    let mut t = TextTable::new(vec![
        "table",
        "flows",
        "footprint(MB)",
        "L2 MPKL",
        "LLC MPKL",
        "stall ratio",
    ]);
    for r in rows {
        t.row(vec![
            match r.kind {
                TableKind::Cuckoo => "cuckoo".into(),
                TableKind::Sfh => "SFH".into(),
            },
            r.flows.to_string(),
            fmt_f64(r.footprint as f64 / (1024.0 * 1024.0)),
            fmt_f64(r.l2_mpkl),
            fmt_f64(r.llc_mpkl),
            fmt_f64(r.stall_ratio),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sfh_misses_llc_earlier_than_cuckoo() {
        let rows = run(true);
        let get = |k: TableKind, flows: usize| {
            rows.iter()
                .find(|r| r.kind == k && r.flows == flows)
                .copied()
                .unwrap()
        };
        // At 100K flows the SFH table has outgrown the LLC while cuckoo
        // still mostly fits (paper's central observation).
        let c = get(TableKind::Cuckoo, 100_000);
        let s = get(TableKind::Sfh, 100_000);
        assert!(s.footprint > 2 * c.footprint, "SFH must waste space");
        assert!(
            s.llc_mpkl > c.llc_mpkl,
            "SFH LLC MPKL {} must exceed cuckoo {}",
            s.llc_mpkl,
            c.llc_mpkl
        );
        assert!(
            s.stall_ratio > c.stall_ratio,
            "SFH stalls {} must exceed cuckoo {}",
            s.stall_ratio,
            c.stall_ratio
        );
        // Small tables barely miss for either kind.
        let c1k = get(TableKind::Cuckoo, 1_000);
        assert!(c1k.llc_mpkl < c.llc_mpkl + 50.0);
    }
}
