//! Shared experiment machinery: the five lookup approaches of §5.1
//! driven over a single hash table, one driver per lookup strategy,
//! plus common setup helpers.

use halo_accel::{AcceleratorConfig, DispatchPolicy, HaloEngine};
use halo_datapath::{LookupBackend, LookupExecutor};
use halo_mem::{CoreId, MachineConfig, MemorySystem};
use halo_sim::{Cycle, Cycles, SplitMix64};
use halo_tables::{CuckooTable, FlowKey, FlowTable};
use halo_tcam::{SramTcam, TcamEntry, TcamTable};

/// The five compared configurations (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Approach {
    /// DPDK `rte_hash` software cuckoo lookup.
    Software,
    /// HALO `LOOKUP_B`.
    HaloBlocking,
    /// HALO `LOOKUP_NB` + `SNAPSHOT_READ` in batches of 8.
    HaloNonBlocking,
    /// Ternary CAM.
    Tcam,
    /// SRAM-emulated TCAM.
    SramTcam,
}

impl Approach {
    /// All five, in the paper's presentation order.
    #[must_use]
    pub fn all() -> [Approach; 5] {
        [
            Approach::Software,
            Approach::HaloBlocking,
            Approach::HaloNonBlocking,
            Approach::Tcam,
            Approach::SramTcam,
        ]
    }

    /// Display label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Approach::Software => "Software",
            Approach::HaloBlocking => "HALO-B",
            Approach::HaloNonBlocking => "HALO-NB",
            Approach::Tcam => "TCAM",
            Approach::SramTcam => "SRAM-TCAM",
        }
    }
}

/// Round-trip latency from a core to the (off-LLC but on-chip) TCAM
/// block, added to each TCAM match (the TCAM is not free to reach).
const TCAM_REACH: Cycles = Cycles(20);

/// A single-table lookup workload: `entries`-slot cuckoo table filled to
/// `occupancy`, probed with uniformly random installed keys.
#[derive(Debug)]
pub struct SingleTableWorkload {
    /// The memory system (tables installed and warmed into the LLC).
    pub sys: MemorySystem,
    /// The flow table.
    pub table: CuckooTable,
    /// Keys actually installed.
    pub installed: u64,
    rng: SplitMix64,
}

impl SingleTableWorkload {
    /// Builds the workload. `entries` is the table's slot capacity.
    #[must_use]
    pub fn new(entries: u64, occupancy: f64, seed: u64) -> Self {
        let mut sys = MemorySystem::new(MachineConfig::default());
        let buckets = (entries / 8).max(1).next_power_of_two();
        let mut table = CuckooTable::create(sys.data_mut(), buckets, 13);
        let target = ((entries as f64) * occupancy) as u64;
        let mut installed = 0;
        for id in 0..target {
            if table
                .insert(sys.data_mut(), &FlowKey::synthetic(id, 13), id)
                .is_ok()
            {
                installed += 1;
            } else {
                break;
            }
        }
        // Warm-up (§5.2: 10 K warm-up lookups): make the table
        // LLC-resident to the extent it fits.
        for a in table.all_lines().collect::<Vec<_>>() {
            sys.warm_llc(a);
        }
        SingleTableWorkload {
            sys,
            table,
            installed,
            rng: SplitMix64::new(seed ^ 0xF16),
        }
    }

    /// A random installed key.
    pub fn next_key(&mut self) -> FlowKey {
        FlowKey::synthetic(self.rng.below(self.installed.max(1)), 13)
    }

    /// Measures throughput in lookups per kilocycle for `approach` over
    /// `n` lookups.
    pub fn throughput(&mut self, approach: Approach, n: u64) -> f64 {
        let strategy = match approach {
            Approach::Software => LookupBackend::Software,
            Approach::HaloBlocking => LookupBackend::HaloBlocking,
            Approach::HaloNonBlocking => LookupBackend::HaloNonBlocking,
            Approach::Tcam => return self.run_tcam(n, false),
            Approach::SramTcam => return self.run_tcam(n, true),
        };
        let (installed, rng) = (self.installed.max(1), &mut self.rng);
        let keys = move || (FlowKey::synthetic(rng.below(installed), 13), true);
        kilo_throughput(
            n,
            strategy_lookups(strategy, &mut self.sys, &self.table, n, keys),
        )
    }

    /// Chip-level non-blocking throughput: queries issued from eight
    /// cores with the key-hash dispatch spreading them across every
    /// accelerator — the aggregate lookup capacity of the whole chip
    /// (used by the Table 4 energy-efficiency comparison).
    pub fn throughput_chip_level(&mut self, n: u64) -> f64 {
        let mut engine = engine_with_policy(&self.sys, DispatchPolicy::KeyHash);
        let cores = 8u64;
        let dest = self.sys.data_mut().alloc_lines(64 * cores);
        let start = Cycle(0);
        let mut finish = start;
        for i in 0..n {
            let key = self.next_key();
            let core = CoreId((i % cores) as usize);
            // Each core sustains one LOOKUP_NB every other cycle.
            let issue = start + Cycles(2 * (i / cores));
            let h = engine.lookup_nb(
                &mut self.sys,
                core,
                &self.table,
                &key,
                None,
                dest + (i % (8 * cores)) * 8,
                issue,
            );
            finish = finish.max(h.result_at);
        }
        kilo_throughput(n, finish - start)
    }

    fn run_tcam(&mut self, n: u64, sram: bool) -> f64 {
        // Mirror the installed keys into the TCAM (assumed big enough —
        // §6.1's assumption, priced separately by halo-power).
        let mut tcam = TcamTable::new(self.installed as usize + 1, 4);
        let mut stcam = SramTcam::new(self.installed as usize + 1, 4, 2);
        for id in 0..self.installed {
            let key = FlowKey::synthetic(id, 13);
            let e = TcamEntry::exact(key.as_bytes(), 0, id);
            if sram {
                stcam.insert(e).unwrap();
            } else {
                tcam.insert(e).unwrap();
            }
        }
        // TCAM match pipelines are streaming: the core posts queries
        // through an MMIO queue (one every few cycles, bounded by the
        // uncore write path) and results flow back `reach + match +
        // reach` later, so throughput is issue-bound, not latency-bound.
        let start = Cycle(0);
        let mut last_done = start;
        for i in 0..n {
            let key = self.next_key();
            let issue = start + Cycles(6 * i);
            let (r, done) = if sram {
                stcam.lookup_timed(key.as_bytes(), issue + TCAM_REACH)
            } else {
                tcam.lookup_timed(key.as_bytes(), issue + TCAM_REACH)
            };
            debug_assert!(r.is_some());
            last_done = last_done.max(done + TCAM_REACH);
        }
        kilo_throughput(n, last_done - start)
    }
}

/// Lookups per kilocycle.
#[must_use]
pub fn kilo_throughput(n: u64, elapsed: Cycles) -> f64 {
    if elapsed.0 == 0 {
        0.0
    } else {
        1000.0 * n as f64 / elapsed.0 as f64
    }
}

/// A cuckoo table sized for `flows` at 80% occupancy with the keys of
/// ids `0..flows` installed (value = id), left cold.
#[must_use]
pub fn filled_table(sys: &mut MemorySystem, flows: usize) -> CuckooTable {
    let mut table = CuckooTable::with_capacity_for(sys.data_mut(), flows, 0.8, 13);
    for id in 0..flows as u64 {
        let _ = table.insert(sys.data_mut(), &FlowKey::synthetic(id, 13), id);
    }
    table
}

/// [`filled_table`], then warmed into the LLC (§5.2's warm-up).
#[must_use]
pub fn llc_table(sys: &mut MemorySystem, flows: usize) -> CuckooTable {
    let table = filled_table(sys, flows);
    for a in table.all_lines() {
        sys.warm_llc(a);
    }
    table
}

/// A key source drawing installed ids `0..flows` uniformly from a
/// generator seeded with `seed`; every key must hit.
pub fn uniform_keys(seed: u64, flows: u64) -> impl FnMut() -> (FlowKey, bool) {
    let mut rng = SplitMix64::new(seed);
    move || (FlowKey::synthetic(rng.below(flows), 13), true)
}

/// `n` software lookups chained on core 0: one [`LookupExecutor`]
/// with its scratch warmed, each lookup replayed by
/// [`LookupExecutor::run_sw`] from the previous one's finish.
/// `locking` adds the optimistic-lock version checks to each trace.
/// `keys` yields each key and whether it must hit. Returns the cycles
/// elapsed from `Cycle(0)`.
pub fn sw_lookups(
    sys: &mut MemorySystem,
    table: &dyn FlowTable,
    n: u64,
    locking: bool,
    mut keys: impl FnMut() -> (FlowKey, bool),
) -> Cycles {
    let mut exec = LookupExecutor::new(sys, CoreId(0), LookupBackend::Software);
    exec.warm_scratch(sys);
    let mut t = Cycle(0);
    for _ in 0..n {
        let (key, hit) = keys();
        let tr = table.lookup_traced(sys.data_mut(), &key, locking);
        debug_assert_eq!(tr.result.is_some(), hit);
        t = exec.run_sw(sys, &tr, None, t);
    }
    t - Cycle(0)
}

/// `n` `LOOKUP_B`s from core 0 on an engine built with `cfg`, each
/// issued when the previous one resumes the core. Returns the cycles
/// elapsed from `Cycle(0)`.
pub fn lookup_b_chain(
    sys: &mut MemorySystem,
    cfg: AcceleratorConfig,
    table: &dyn FlowTable,
    n: u64,
    mut keys: impl FnMut() -> (FlowKey, bool),
) -> Cycles {
    let mut engine = HaloEngine::new(sys, cfg);
    let mut t = Cycle(0);
    for _ in 0..n {
        let (key, hit) = keys();
        let (r, done) = engine.lookup_b(sys, CoreId(0), table, &key, None, t);
        debug_assert_eq!(r.is_some(), hit);
        t = done;
    }
    t - Cycle(0)
}

/// `n` `LOOKUP_NB`s from core 0 on an engine built with `cfg`, in
/// batches of 8 issued one per cycle into the slots of one destination
/// line; one `SNAPSHOT_READ` of that line collects each batch before
/// the next issues. Returns the cycles elapsed from `Cycle(0)`.
pub fn lookup_nb_batches(
    sys: &mut MemorySystem,
    cfg: AcceleratorConfig,
    table: &dyn FlowTable,
    n: u64,
    mut keys: impl FnMut() -> (FlowKey, bool),
) -> Cycles {
    let mut engine = HaloEngine::new(sys, cfg);
    let dest = sys.data_mut().alloc_lines(64);
    let mut t = Cycle(0);
    let mut done = 0u64;
    while done < n {
        let batch = 8.min(n - done);
        let mut batch_done = t;
        for i in 0..batch {
            let (key, hit) = keys();
            let h = engine.lookup_nb(
                sys,
                CoreId(0),
                table,
                &key,
                None,
                dest + i * 8,
                t + Cycles(i),
            );
            debug_assert_eq!(h.result.is_some(), hit);
            batch_done = batch_done.max(h.result_at);
        }
        t = engine.snapshot_read(sys, CoreId(0), dest, batch_done).1;
        done += batch;
    }
    t - Cycle(0)
}

/// Runs `n` lookups under `strategy` with the drivers above: software
/// with optimistic locking, or HALO on a default-configured engine.
pub fn strategy_lookups(
    strategy: LookupBackend,
    sys: &mut MemorySystem,
    table: &dyn FlowTable,
    n: u64,
    keys: impl FnMut() -> (FlowKey, bool),
) -> Cycles {
    let cfg = AcceleratorConfig::default();
    match strategy {
        LookupBackend::Software => sw_lookups(sys, table, n, true, keys),
        LookupBackend::HaloBlocking => lookup_b_chain(sys, cfg, table, n, keys),
        LookupBackend::HaloNonBlocking => lookup_nb_batches(sys, cfg, table, n, keys),
    }
}

/// Builds a HALO engine with the key-spreading policy used for
/// single-table scaling studies (ablation only; the paper's default is
/// table-address hashing).
#[must_use]
pub fn engine_with_policy(sys: &MemorySystem, policy: DispatchPolicy) -> HaloEngine {
    let mut e = HaloEngine::new(sys, AcceleratorConfig::default());
    e.set_policy(policy);
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_installs_to_occupancy() {
        let w = SingleTableWorkload::new(1 << 10, 0.5, 1);
        let expect = (1 << 10) / 2;
        assert!(
            w.installed >= expect * 95 / 100,
            "installed {}",
            w.installed
        );
    }

    #[test]
    fn all_approaches_produce_positive_throughput() {
        for a in Approach::all() {
            let mut w = SingleTableWorkload::new(1 << 9, 0.5, 1);
            let thr = w.throughput(a, 60);
            assert!(thr > 0.0, "{} throughput {thr}", a.name());
        }
    }

    #[test]
    fn halo_beats_software_on_llc_resident_table() {
        let mut w = SingleTableWorkload::new(1 << 14, 0.5, 1);
        let sw = w.throughput(Approach::Software, 150);
        let mut w = SingleTableWorkload::new(1 << 14, 0.5, 1);
        let hb = w.throughput(Approach::HaloBlocking, 150);
        assert!(
            hb > 1.5 * sw,
            "HALO-B {hb} should clearly beat software {sw}"
        );
        assert!(hb < 8.0 * sw, "speedup implausibly high: {}", hb / sw);
    }

    #[test]
    fn tcam_is_fastest() {
        let mut w = SingleTableWorkload::new(1 << 12, 0.5, 1);
        let tc = w.throughput(Approach::Tcam, 150);
        let mut w = SingleTableWorkload::new(1 << 12, 0.5, 1);
        let hb = w.throughput(Approach::HaloBlocking, 150);
        assert!(tc > hb, "TCAM {tc} must beat HALO-B {hb}");
    }
}
