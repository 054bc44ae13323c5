//! Fig. 11: tuple space search throughput for 5/10/15/20 tuples of 1024
//! megaflow entries each, normalized to the software implementation.

use halo_accel::{AcceleratorConfig, HaloEngine};
use halo_classify::{distinct_masks, PacketHeader, SearchMode, TupleSpace};
use halo_datapath::{LookupBackend, LookupExecutor};
use halo_mem::{CoreId, MachineConfig, MemorySystem};
use halo_sim::{
    fmt_f64, point_seed, Cycle, Cycles, SplitMix64, SweepPoint, SweepRunner, TextTable,
};
use halo_tcam::{TcamEntry, TcamTable};

/// One Fig. 11 data point.
#[derive(Debug, Clone, Copy)]
pub struct Fig11Point {
    /// Number of megaflow tuples.
    pub tuples: usize,
    /// Software classifications per kilocycle.
    pub software: f64,
    /// HALO blocking, normalized to software.
    pub halo_b: f64,
    /// HALO non-blocking, normalized to software.
    pub halo_nb: f64,
    /// TCAM, normalized to software.
    pub tcam: f64,
}

/// Entries per tuple (§5.2).
pub const ENTRIES_PER_TUPLE: usize = 1024;

struct TssWorkload {
    sys: MemorySystem,
    tss: TupleSpace,
    rng: SplitMix64,
    flows: u64,
    tuples: usize,
}

impl TssWorkload {
    fn new(tuples: usize, seed: u64) -> Self {
        let mut sys = MemorySystem::new(MachineConfig::default());
        let mut tss = TupleSpace::new(
            sys.data_mut(),
            distinct_masks(tuples),
            ENTRIES_PER_TUPLE,
            SearchMode::FirstMatch,
        );
        // 1024 megaflows per tuple; flow f is installed in tuple f % T,
        // so matches land uniformly across tuples (the average search
        // probes (T+1)/2 tuples).
        let flows = (tuples * ENTRIES_PER_TUPLE / 2) as u64;
        for f in 0..flows {
            let key = PacketHeader::synthetic(f).miniflow();
            let tuple = (f % tuples as u64) as usize;
            tss.insert_rule(sys.data_mut(), tuple, &key, 0, f)
                .expect("tuple sized for its share");
        }
        for t in tss.tuples() {
            for a in t.table().all_lines().collect::<Vec<_>>() {
                sys.warm_llc(a);
            }
        }
        TssWorkload {
            sys,
            tss,
            rng: SplitMix64::new(seed),
            flows,
            tuples,
        }
    }

    fn next_key(&mut self) -> halo_tables::FlowKey {
        PacketHeader::synthetic(self.rng.below(self.flows)).miniflow()
    }

    fn run_software(&mut self, n: u64) -> f64 {
        let mut exec = LookupExecutor::new(&mut self.sys, CoreId(0), LookupBackend::Software);
        exec.warm_scratch(&mut self.sys);
        let start = Cycle(0);
        let mut t = start;
        for _ in 0..n {
            let key = self.next_key();
            let (m, probes) = self.tss.classify_traced(self.sys.data_mut(), &key, true);
            debug_assert!(m.is_some());
            for (_, tr) in &probes {
                t = exec.run_sw(&mut self.sys, tr, None, t);
            }
        }
        crate::experiments::harness::kilo_throughput(n, t - start)
    }

    /// Serialized `LOOKUP_B` per probed tuple.
    fn run_halo_b(&mut self, n: u64) -> f64 {
        let mut engine = HaloEngine::new(&self.sys, AcceleratorConfig::default());
        let start = Cycle(0);
        let mut t = start;
        for _ in 0..n {
            let key = self.next_key();
            let (m, probes) = self.tss.classify_traced(self.sys.data_mut(), &key, false);
            debug_assert!(m.is_some());
            for (i, tr) in &probes {
                let table_addr = self.tss.tuples()[*i].table().meta_addr();
                let h = halo_tables::hash_key(&key, halo_tables::SEED_PRIMARY) ^ (*i as u64);
                let out =
                    engine.dispatch(&mut self.sys, CoreId(0), table_addr, tr, h, None, None, t);
                t = out.complete + Cycles(4);
            }
        }
        crate::experiments::harness::kilo_throughput(n, t - start)
    }

    /// Non-blocking tuple space search with classification pipelining:
    /// the core streams `LOOKUP_NB` queries for successive packets
    /// without waiting, keeping up to [`Self::NB_WINDOW`] classifications
    /// in flight (bounded by destination lines / LSQ entries), and polls
    /// each with one `SNAPSHOT_READ`. This is the regime of the paper's
    /// throughput measurement: the 23.4x scaling comes from queries of
    /// *different* packets overlapping across accelerators.
    fn run_halo_nb_pipelined(&mut self, n: u64) -> f64 {
        const NB_WINDOW: usize = 4;
        let mut engine = HaloEngine::new(&self.sys, AcceleratorConfig::default());
        let dest = self.sys.data_mut().alloc_lines(64 * NB_WINDOW as u64);
        let start = Cycle(0);
        let mut issue = start;
        // Snapshot-completion times of in-flight classifications.
        let mut window: Vec<Cycle> = Vec::new();
        let mut finish = start;
        for c in 0..n {
            // Respect the window: wait for the oldest classification.
            if window.len() >= NB_WINDOW {
                let oldest = window.remove(0);
                issue = issue.max(oldest);
            }
            let key = self.next_key();
            // Non-blocking probes all tuples (no early exit: results
            // arrive asynchronously).
            let mut batch_done = issue;
            for (i, tuple) in self.tss.tuples().iter().enumerate() {
                let masked = tuple.mask().apply(&key);
                let tr = tuple
                    .table()
                    .lookup_traced(self.sys.data_mut(), &masked, false);
                let table_addr = tuple.table().meta_addr();
                let h = halo_tables::hash_key(&key, halo_tables::SEED_PRIMARY) ^ (i as u64);
                let slot_line = (c as usize % NB_WINDOW) as u64;
                let out = engine.dispatch(
                    &mut self.sys,
                    CoreId(0),
                    table_addr,
                    &tr,
                    h,
                    None,
                    Some(halo_mem::Addr(dest.0 + slot_line * 64 + (i as u64 % 8) * 8)),
                    issue + Cycles(i as u64),
                );
                batch_done = batch_done.max(out.complete);
            }
            // The core moves on after issuing (1 cycle per LOOKUP_NB);
            // the snapshot poll for this classification completes later.
            issue += Cycles(self.tuples as u64 + 1);
            let (_, snap) = engine.snapshot_read(
                &mut self.sys,
                CoreId(0),
                halo_mem::Addr(dest.0 + ((c as usize % NB_WINDOW) as u64) * 64),
                batch_done,
            );
            window.push(snap);
            finish = finish.max(snap);
        }
        crate::experiments::harness::kilo_throughput(n, finish - start)
    }

    fn run_tcam(&mut self, n: u64) -> f64 {
        // A TCAM holds all rules of all tuples with masks; one wildcard
        // match per classification.
        let mut tcam = TcamTable::new(self.flows as usize + 1, 4);
        for f in 0..self.flows {
            let key = PacketHeader::synthetic(f).miniflow();
            let tuple = (f % self.tuples as u64) as usize;
            let mask = self.tss.tuples()[tuple].mask().as_bytes().to_vec();
            let masked = self.tss.tuples()[tuple].mask().apply(&key);
            let _ = tcam.insert(TcamEntry::new(masked.as_bytes(), &mask, 0, f));
        }
        let start = Cycle(0);
        let mut t = start;
        for _ in 0..n {
            let key = self.next_key();
            let (_, done) = tcam.lookup_timed(key.as_bytes(), t + Cycles(20));
            t = done + Cycles(20);
        }
        crate::experiments::harness::kilo_throughput(n, t - start)
    }
}

/// One sweep point: a tuple count measured across all four approaches
/// over the same workload seed.
#[derive(Debug, Clone, Copy)]
struct Fig11Sweep {
    tuples: usize,
    lookups: u64,
    seed: u64,
}

impl SweepPoint for Fig11Sweep {
    type Row = Fig11Point;

    fn run(&self) -> Fig11Point {
        let (tuples, n, seed) = (self.tuples, self.lookups, self.seed);
        let sw = TssWorkload::new(tuples, seed).run_software(n);
        let hb = TssWorkload::new(tuples, seed).run_halo_b(n);
        let hnb = TssWorkload::new(tuples, seed).run_halo_nb_pipelined(n);
        let tc = TssWorkload::new(tuples, seed).run_tcam(n);
        Fig11Point {
            tuples,
            software: sw,
            halo_b: hb / sw,
            halo_nb: hnb / sw,
            tcam: tc / sw,
        }
    }

    fn label(&self) -> String {
        format!("{} tuples", self.tuples)
    }
}

/// Runs Fig. 11 for the paper's tuple counts with default parallelism.
#[must_use]
pub fn run(quick: bool) -> Vec<Fig11Point> {
    let n: u64 = if quick { 80 } else { 300 };
    let points: Vec<Fig11Sweep> = [5usize, 10, 15, 20]
        .iter()
        .enumerate()
        .map(|(i, &tuples)| Fig11Sweep {
            tuples,
            lookups: n,
            seed: point_seed("fig11", i as u64),
        })
        .collect();
    SweepRunner::from_env("fig11").run(points)
}

/// Formats the points like the paper's figure (normalized to software).
#[must_use]
pub fn table(points: &[Fig11Point]) -> TextTable {
    let mut t = TextTable::new(vec![
        "tuples",
        "Software (lookups/kcy)",
        "HALO-B (x)",
        "HALO-NB (x)",
        "TCAM (x)",
    ]);
    for p in points {
        t.row(vec![
            p.tuples.to_string(),
            fmt_f64(p.software),
            fmt_f64(p.halo_b),
            fmt_f64(p.halo_nb),
            fmt_f64(p.tcam),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nonblocking_scales_with_tuple_count() {
        let pts = run(true);
        assert_eq!(pts.len(), 4);
        // NB speedup grows with tuples and is large at 20 tuples
        // (paper: up to 23.4x).
        assert!(
            pts[3].halo_nb > pts[0].halo_nb,
            "NB not scaling: {} vs {}",
            pts[3].halo_nb,
            pts[0].halo_nb
        );
        assert!(
            pts[3].halo_nb > 6.0,
            "NB at 20 tuples only {}x",
            pts[3].halo_nb
        );
        // Blocking mode's gain is limited (serialized dispatches).
        assert!(
            pts[3].halo_b < pts[3].halo_nb,
            "blocking {} must trail non-blocking {}",
            pts[3].halo_b,
            pts[3].halo_nb
        );
        // TCAM stays fastest.
        for p in &pts {
            assert!(
                p.tcam >= p.halo_nb * 0.9,
                "TCAM should lead at {} tuples",
                p.tuples
            );
        }
    }
}
