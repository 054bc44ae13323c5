//! Backend ablation: the three exact-match table implementations
//! (baseline cuckoo, Cuckoo++, EMOMA) crossed with the three lookup
//! strategies (software, `LOOKUP_B`, `LOOKUP_NB`) over hit-heavy and
//! miss-heavy key mixes.
//!
//! The figure isolates where each backend's memory-access-pattern
//! change pays off: Cuckoo++'s presence filters only help on misses
//! (they kill the secondary probe), EMOMA's counting-Bloom steering
//! helps on every lookup (exactly one bucket line, hit or miss), and
//! the strategies scale those savings by how much of the walk the
//! accelerator overlaps.

use crate::experiments::harness::{kilo_throughput, strategy_lookups};
use halo_datapath::{LookupBackend, TableBackend};
use halo_mem::{MachineConfig, MemorySystem};
use halo_sim::{fmt_f64, point_seed, SplitMix64, SweepPoint, SweepRunner, TextTable};
use halo_tables::{FlowKey, FlowTable, TraceStep};

/// The two key mixes of the ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 90% lookups of installed keys, 10% misses.
    HitHeavy,
    /// 10% lookups of installed keys, 90% misses.
    MissHeavy,
}

impl Mix {
    /// Both mixes, hit-heavy first.
    #[must_use]
    pub fn all() -> [Mix; 2] {
        [Mix::HitHeavy, Mix::MissHeavy]
    }

    /// Display label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Mix::HitHeavy => "hit-heavy",
            Mix::MissHeavy => "miss-heavy",
        }
    }

    /// Miss probability in percent.
    #[must_use]
    pub fn miss_pct(self) -> u64 {
        match self {
            Mix::HitHeavy => 10,
            Mix::MissHeavy => 90,
        }
    }
}

/// One measured cell of the backend × strategy × mix matrix.
#[derive(Debug, Clone, Copy)]
pub struct BackendCell {
    /// Which exact-match implementation.
    pub backend: TableBackend,
    /// Which lookup strategy (TCAMs carry no table backend, so the
    /// full five-approach palette of Fig. 9 does not apply here).
    pub strategy: LookupBackend,
    /// Which key mix.
    pub mix: Mix,
    /// Lookups per kilocycle.
    pub throughput: f64,
    /// Modeled memory accesses (meta, bucket, and key-value line
    /// touches) per lookup, from the table's own trace.
    pub mem_per_lookup: f64,
    /// Bucket lines loaded per positive lookup.
    pub buckets_per_hit: f64,
    /// Bucket lines loaded per negative lookup.
    pub buckets_per_miss: f64,
}

/// A workload over one runtime-selected backend: `entries`-slot table
/// filled to 75%, probed with a seeded hit/miss key stream.
struct BackendWorkload {
    sys: MemorySystem,
    table: halo_datapath::ExactTable,
    installed: u64,
    miss_pct: u64,
    rng: SplitMix64,
}

impl BackendWorkload {
    fn new(backend: TableBackend, entries: u64, mix: Mix, seed: u64) -> Self {
        let mut sys = MemorySystem::new(MachineConfig::default());
        let target = (entries * 3 / 4).max(1);
        let mut table = backend.build(sys.data_mut(), target as usize, 0.75, 13);
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
        for a in table.all_lines() {
            sys.warm_llc(a);
        }
        BackendWorkload {
            sys,
            table,
            installed,
            miss_pct: mix.miss_pct(),
            rng: SplitMix64::new(seed ^ 0xBAC),
        }
    }

    /// Trace-level metrics over `n` lookups: memory accesses per lookup
    /// and bucket loads split by hit/miss. Traced lookups only read the
    /// simulated data array, so this leaves the cache model untouched.
    fn metrics(&mut self, n: u64) -> (f64, f64, f64) {
        let (mut mem, mut hb, mut mb, mut hits, mut misses) = (0u64, 0u64, 0u64, 0u64, 0u64);
        for _ in 0..n {
            let (key, expect_hit) = mix_key(&mut self.rng, self.installed, self.miss_pct);
            let tr = self.table.lookup_traced(self.sys.data_mut(), &key, false);
            let buckets = tr
                .steps
                .iter()
                .filter(|s| matches!(s, TraceStep::LoadBucket(_)))
                .count() as u64;
            mem += tr.steps.iter().filter(|s| s.addr().is_some()).count() as u64;
            if expect_hit {
                hits += 1;
                hb += buckets;
            } else {
                misses += 1;
                mb += buckets;
            }
        }
        let per = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        (per(mem, n), per(hb, hits), per(mb, misses))
    }

    fn throughput(&mut self, strategy: LookupBackend, n: u64) -> f64 {
        let (installed, miss_pct, rng) = (self.installed, self.miss_pct, &mut self.rng);
        let keys = move || mix_key(rng, installed, miss_pct);
        kilo_throughput(
            n,
            strategy_lookups(strategy, &mut self.sys, &self.table, n, keys),
        )
    }
}

/// Next key of a mix: installed with probability `1 - miss_pct`,
/// otherwise an id far past everything ever inserted. Returns the key
/// and whether it must hit.
fn mix_key(rng: &mut SplitMix64, installed: u64, miss_pct: u64) -> (FlowKey, bool) {
    let miss = rng.below(100) < miss_pct;
    let id = if miss {
        (1 << 40) + rng.below(1 << 20)
    } else {
        rng.below(installed.max(1))
    };
    (FlowKey::synthetic(id, 13), !miss)
}

/// One sweep point: a (backend, mix) pair measuring all three
/// strategies plus the trace-level metrics, every pass over a fresh
/// identically-seeded workload so the key streams match.
#[derive(Debug, Clone, Copy)]
struct BackendPoint {
    backend: TableBackend,
    mix: Mix,
    entries: u64,
    lookups: u64,
    seed: u64,
}

impl SweepPoint for BackendPoint {
    type Row = Vec<BackendCell>;

    fn run(&self) -> Vec<BackendCell> {
        let (mem, bh, bm) = BackendWorkload::new(self.backend, self.entries, self.mix, self.seed)
            .metrics(self.lookups);
        LookupBackend::all()
            .into_iter()
            .map(|strategy| {
                let mut w = BackendWorkload::new(self.backend, self.entries, self.mix, self.seed);
                BackendCell {
                    backend: self.backend,
                    strategy,
                    mix: self.mix,
                    throughput: w.throughput(strategy, self.lookups),
                    mem_per_lookup: mem,
                    buckets_per_hit: bh,
                    buckets_per_miss: bm,
                }
            })
            .collect()
    }

    fn label(&self) -> String {
        format!("{} / {}", self.backend.name(), self.mix.name())
    }
}

fn points(entries: u64, lookups: u64) -> Vec<BackendPoint> {
    let mut out = Vec::new();
    for backend in TableBackend::all() {
        for mix in Mix::all() {
            out.push(BackendPoint {
                backend,
                mix,
                entries,
                lookups,
                seed: point_seed("ablation-backends", out.len() as u64),
            });
        }
    }
    out
}

/// Runs the matrix on an explicit runner (see [`run`] for the default).
#[must_use]
pub fn run_with(quick: bool, runner: &SweepRunner) -> Vec<BackendCell> {
    let entries = if quick { 1 << 12 } else { 1 << 15 };
    let lookups = if quick { 300 } else { 1000 };
    runner
        .run(points(entries, lookups))
        .into_iter()
        .flatten()
        .collect()
}

/// A tiny deterministic slice (2^8 entries, 60 lookups) for the tier-1
/// jobs-invariance guard; same point/merge path as the full matrix.
#[must_use]
pub fn run_small_slice(runner: &SweepRunner) -> Vec<BackendCell> {
    runner
        .run(points(1 << 8, 60))
        .into_iter()
        .flatten()
        .collect()
}

/// Runs the matrix with the default parallelism (`HALO_JOBS`, then host
/// cores).
#[must_use]
pub fn run(quick: bool) -> Vec<BackendCell> {
    run_with(quick, &SweepRunner::from_env("ablation-backends"))
}

/// Formats the matrix: one row per (backend, mix), one throughput
/// column per strategy, then the trace-level access metrics.
#[must_use]
pub fn table(cells: &[BackendCell]) -> TextTable {
    let mut t = TextTable::new(vec![
        "backend",
        "mix",
        "Software",
        "HALO-B",
        "HALO-NB",
        "mem/lookup",
        "buckets/hit",
        "buckets/miss",
    ]);
    let mut i = 0;
    while i < cells.len() {
        let group = &cells[i..(i + 3).min(cells.len())];
        let mut row = vec![
            group[0].backend.name().to_string(),
            group[0].mix.name().to_string(),
        ];
        for c in group {
            row.push(fmt_f64(c.throughput));
        }
        row.push(fmt_f64(group[0].mem_per_lookup));
        row.push(fmt_f64(group[0].buckets_per_hit));
        row.push(fmt_f64(group[0].buckets_per_miss));
        t.row(row);
        i += 3;
    }
    t
}

/// Serializes the matrix as a small JSON document (the CI bench-smoke
/// artifact `ABLATION_backends.json`).
#[must_use]
pub fn to_json(cells: &[BackendCell], quick: bool) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"experiment\": \"ablation-backends\",\n  \"mode\": \"{}\",\n  \"cells\": [\n",
        if quick { "quick" } else { "full" }
    ));
    for (i, c) in cells.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"backend\": \"{}\", \"strategy\": \"{}\", \"mix\": \"{}\", \
             \"throughput\": {:.6}, \"mem_per_lookup\": {:.6}, \
             \"buckets_per_hit\": {:.6}, \"buckets_per_miss\": {:.6}}}{}\n",
            c.backend.name(),
            c.strategy.name(),
            c.mix.name(),
            c.throughput,
            c.mem_per_lookup,
            c.buckets_per_hit,
            c.buckets_per_miss,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_sim::SweepRunner;

    fn quick_cells() -> Vec<BackendCell> {
        run_with(true, &SweepRunner::new("ablation-backends-test", 2).quiet())
    }

    /// The ISSUE's acceptance shapes: Cuckoo++ performs fewer modeled
    /// memory accesses than baseline cuckoo on the miss-heavy mix, and
    /// EMOMA loads exactly one bucket line per positive lookup.
    #[test]
    fn quick_matrix_shapes() {
        let cells = quick_cells();
        assert_eq!(cells.len(), 3 * 2 * 3, "backend x mix x strategy");
        let get = |b: TableBackend, m: Mix| {
            cells
                .iter()
                .find(|c| c.backend == b && c.mix == m)
                .copied()
                .expect("cell present")
        };
        let cuckoo = get(TableBackend::Cuckoo, Mix::MissHeavy);
        let pp = get(TableBackend::CuckooPlusPlus, Mix::MissHeavy);
        assert!(
            pp.mem_per_lookup < cuckoo.mem_per_lookup,
            "cuckoo++ {} should beat cuckoo {} on miss-heavy accesses",
            pp.mem_per_lookup,
            cuckoo.mem_per_lookup
        );
        assert!(
            pp.buckets_per_miss < cuckoo.buckets_per_miss,
            "cuckoo++ must filter secondary probes on misses"
        );
        for mix in Mix::all() {
            let emoma = get(TableBackend::Emoma, mix);
            assert!(
                (emoma.buckets_per_hit - 1.0).abs() < 1e-9,
                "EMOMA {} buckets per hit on {}",
                emoma.buckets_per_hit,
                mix.name()
            );
            assert!(
                (emoma.buckets_per_miss - 1.0).abs() < 1e-9,
                "EMOMA {} buckets per miss on {}",
                emoma.buckets_per_miss,
                mix.name()
            );
        }
        for c in &cells {
            assert!(
                c.throughput > 0.0,
                "{}/{}/{}: non-positive throughput",
                c.backend.name(),
                c.strategy.name(),
                c.mix.name()
            );
        }
    }

    /// JSON round-trips the cell count and names every backend.
    #[test]
    fn json_covers_matrix() {
        let cells = run_small_slice(&SweepRunner::new("ablation-backends-json", 1).quiet());
        let json = to_json(&cells, true);
        for b in TableBackend::all() {
            assert!(json.contains(b.name()), "missing {}", b.name());
        }
        assert_eq!(json.matches("\"strategy\"").count(), cells.len());
    }
}
