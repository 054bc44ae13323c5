//! Wildcard-backend ablation: tuple space search (prefix expansion)
//! against the RVH range-vector hash, crossed with the three lookup
//! strategies (software, `LOOKUP_B`, `LOOKUP_NB`) over rulesets of
//! increasing range-heaviness.
//!
//! TSS keys every rule by its mask, so an exact-heavy MegaFlow ruleset
//! collapses into one tuple — one probe per classification — while a
//! port-span ACL explodes into a tuple per prefix-width combination.
//! RVH partitions the fields into [`RVH_VECTORS`](halo_classify::RVH_VECTORS)
//! fixed vectors and probes exactly that many marker tables regardless
//! of ruleset shape, trading a small constant floor for immunity to
//! range-driven tuple explosion. The figure reports probes per lookup,
//! bucket lines loaded, table footprint, and throughput under each
//! HALO strategy, so the crossover is visible end to end.

use crate::experiments::harness::kilo_throughput;
use halo_accel::{AcceleratorConfig, HaloEngine};
use halo_classify::SearchMode;
use halo_datapath::{
    LookupBackend, LookupExecutor, NbRegion, TableBackend, WildcardBackend, WildcardMatcher,
    WildcardTable,
};
use halo_mem::{CoreId, MachineConfig, MemorySystem, CACHE_LINE};
use halo_nf::{generate_ruleset, ruleset_traffic, RulesetShape};
use halo_sim::{fmt_f64, point_seed, Cycle, SweepPoint, SweepRunner, TextTable};
use halo_tables::{FlowKey, TraceStep};

/// One measured cell of the backend × shape × strategy matrix.
#[derive(Debug, Clone, Copy)]
pub struct WildcardCell {
    /// Which wildcard classifier.
    pub backend: WildcardBackend,
    /// Which ruleset shape.
    pub shape: RulesetShape,
    /// Which lookup strategy.
    pub strategy: LookupBackend,
    /// Classifications per kilocycle.
    pub throughput: f64,
    /// Probes (tuple or vector lookups) per classification.
    pub probes_per_lookup: f64,
    /// Bucket lines loaded per classification, summed over probes.
    pub buckets_per_lookup: f64,
    /// Table footprint in simulated-memory bytes.
    pub mem_bytes: u64,
    /// Installed rule count (after replacement collapsing).
    pub rules: u64,
}

/// A workload over one runtime-selected wildcard backend: a generated
/// ruleset installed through [`WildcardTable::insert_range`], probed
/// with a 70%-hit traffic mix sampled inside the rules.
struct WildcardWorkload {
    sys: MemorySystem,
    table: WildcardMatcher,
    keys: Vec<FlowKey>,
}

impl WildcardWorkload {
    fn new(
        backend: WildcardBackend,
        shape: RulesetShape,
        rules: usize,
        lookups: usize,
        capacity: usize,
        seed: u64,
    ) -> Self {
        let mut sys = MemorySystem::new(MachineConfig::default());
        let ruleset = generate_ruleset(shape, rules, seed);
        let mut table = backend.build(
            sys.data_mut(),
            TableBackend::Cuckoo,
            &[],
            capacity,
            SearchMode::HighestPriority,
        );
        for rule in &ruleset {
            table
                .insert_range(sys.data_mut(), rule)
                .expect("generated ruleset fits the table");
        }
        for a in table.memory_lines() {
            sys.warm_llc(a);
        }
        let keys = ruleset_traffic(&ruleset, lookups, 0.7, seed ^ 0x5ca1_ab1e);
        WildcardWorkload { sys, table, keys }
    }

    /// Trace-level metrics over the key stream: probes and bucket-line
    /// loads per classification. Traced classifications only read the
    /// simulated data array, so the cache model stays warm.
    fn metrics(&mut self) -> (f64, f64) {
        let (mut probes, mut buckets) = (0u64, 0u64);
        for key in &self.keys {
            let (_, traces) = self.table.classify_traced(self.sys.data_mut(), key, false);
            probes += traces.len() as u64;
            buckets += traces
                .iter()
                .flat_map(|(_, tr)| tr.steps.iter())
                .filter(|s| matches!(s, TraceStep::LoadBucket(_)))
                .count() as u64;
        }
        let n = self.keys.len().max(1) as f64;
        (probes as f64 / n, buckets as f64 / n)
    }

    /// Times the full key stream under one strategy: the functional
    /// probes come from [`WildcardTable::classify_traced`], the cycle
    /// cost from [`LookupExecutor::search`] — the same pricing path the
    /// datapath frontends use.
    fn throughput(&mut self, backend: LookupBackend) -> f64 {
        let mut exec = LookupExecutor::new(&mut self.sys, CoreId(0), backend);
        exec.warm_scratch(&mut self.sys);
        if backend == LookupBackend::HaloNonBlocking {
            let nb = NbRegion::allocate(self.sys.data_mut(), self.table.probes().max(1));
            exec = exec.with_nb_region(nb);
        }
        let mut engine = (backend != LookupBackend::Software)
            .then(|| HaloEngine::new(&self.sys, AcceleratorConfig::default()));
        let software = backend == LookupBackend::Software;
        let start = Cycle(0);
        let mut t = start;
        for key in &self.keys {
            let (_, probes) = self
                .table
                .classify_traced(self.sys.data_mut(), key, software);
            t = exec.search(&mut self.sys, engine.as_mut(), &self.table, key, &probes, t);
        }
        kilo_throughput(self.keys.len() as u64, t - start)
    }
}

/// One sweep point: a (backend, shape) pair measuring all three
/// strategies plus the trace-level metrics, every pass over a fresh
/// identically-seeded workload so the key streams match.
#[derive(Debug, Clone, Copy)]
struct WildcardPoint {
    backend: WildcardBackend,
    shape: RulesetShape,
    rules: usize,
    lookups: usize,
    capacity: usize,
    seed: u64,
}

impl SweepPoint for WildcardPoint {
    type Row = Vec<WildcardCell>;

    fn run(&self) -> Vec<WildcardCell> {
        let build = || {
            WildcardWorkload::new(
                self.backend,
                self.shape,
                self.rules,
                self.lookups,
                self.capacity,
                self.seed,
            )
        };
        let mut probe_w = build();
        let (probes, buckets) = probe_w.metrics();
        let mem_bytes = probe_w.table.memory_lines().len() as u64 * CACHE_LINE;
        let rules = probe_w.table.rules() as u64;
        LookupBackend::all()
            .into_iter()
            .map(|strategy| {
                let mut w = build();
                WildcardCell {
                    backend: self.backend,
                    shape: self.shape,
                    strategy,
                    throughput: w.throughput(strategy),
                    probes_per_lookup: probes,
                    buckets_per_lookup: buckets,
                    mem_bytes,
                    rules,
                }
            })
            .collect()
    }

    fn label(&self) -> String {
        format!("{} / {}", self.backend.name(), self.shape.name())
    }
}

fn points(rules: usize, lookups: usize, capacity: usize) -> Vec<WildcardPoint> {
    let mut out = Vec::new();
    for backend in WildcardBackend::all() {
        for shape in RulesetShape::all() {
            out.push(WildcardPoint {
                backend,
                shape,
                rules,
                lookups,
                capacity,
                seed: point_seed("ablation-wildcard", out.len() as u64),
            });
        }
    }
    out
}

/// Runs the matrix on an explicit runner (see [`run`] for the default).
#[must_use]
pub fn run_with(quick: bool, runner: &SweepRunner) -> Vec<WildcardCell> {
    let (rules, lookups, capacity) = if quick {
        (48, 160, 1 << 10)
    } else {
        (224, 600, 1 << 12)
    };
    runner
        .run(points(rules, lookups, capacity))
        .into_iter()
        .flatten()
        .collect()
}

/// A tiny deterministic slice (16 rules, 40 lookups) for the tier-1
/// jobs-invariance guard; same point/merge path as the full matrix.
#[must_use]
pub fn run_small_slice(runner: &SweepRunner) -> Vec<WildcardCell> {
    runner
        .run(points(16, 40, 1 << 9))
        .into_iter()
        .flatten()
        .collect()
}

/// Runs the matrix with the default parallelism (`HALO_JOBS`, then host
/// cores).
#[must_use]
pub fn run(quick: bool) -> Vec<WildcardCell> {
    run_with(quick, &SweepRunner::from_env("ablation-wildcard"))
}

/// Formats the matrix: one row per (backend, shape), one throughput
/// column per strategy, then the trace-level metrics and footprint.
#[must_use]
pub fn table(cells: &[WildcardCell]) -> TextTable {
    let mut t = TextTable::new(vec![
        "backend",
        "ruleset",
        "Software",
        "HALO-B",
        "HALO-NB",
        "probes/lookup",
        "buckets/lookup",
        "table KiB",
    ]);
    let mut i = 0;
    while i < cells.len() {
        let group = &cells[i..(i + 3).min(cells.len())];
        let mut row = vec![
            group[0].backend.name().to_string(),
            group[0].shape.name().to_string(),
        ];
        for c in group {
            row.push(fmt_f64(c.throughput));
        }
        row.push(fmt_f64(group[0].probes_per_lookup));
        row.push(fmt_f64(group[0].buckets_per_lookup));
        row.push(format!("{}", group[0].mem_bytes / 1024));
        t.row(row);
        i += 3;
    }
    t
}

/// Serializes the matrix as a small JSON document (the CI bench-smoke
/// artifact `ABLATION_wildcard.json`).
#[must_use]
pub fn to_json(cells: &[WildcardCell], quick: bool) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"experiment\": \"ablation-wildcard\",\n  \"mode\": \"{}\",\n  \"cells\": [\n",
        if quick { "quick" } else { "full" }
    ));
    for (i, c) in cells.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"backend\": \"{}\", \"ruleset\": \"{}\", \"strategy\": \"{}\", \
             \"throughput\": {:.6}, \"probes_per_lookup\": {:.6}, \
             \"buckets_per_lookup\": {:.6}, \"mem_bytes\": {}, \"rules\": {}}}{}\n",
            c.backend.name(),
            c.shape.name(),
            c.strategy.name(),
            c.throughput,
            c.probes_per_lookup,
            c.buckets_per_lookup,
            c.mem_bytes,
            c.rules,
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

    fn quick_cells() -> Vec<WildcardCell> {
        run_with(true, &SweepRunner::new("ablation-wildcard-test", 2).quiet())
    }

    /// The ISSUE's acceptance shapes: on the range-heavy mixes RVH
    /// probes fewer tuples (and loads fewer bucket lines) per lookup
    /// than TSS prefix expansion, while exact-heavy rulesets keep TSS
    /// at its single-tuple best case.
    #[test]
    fn quick_matrix_shapes() {
        let cells = quick_cells();
        assert_eq!(cells.len(), 2 * 3 * 3, "backend x shape x strategy");
        let get = |b: WildcardBackend, s: RulesetShape| {
            cells
                .iter()
                .find(|c| c.backend == b && c.shape == s)
                .copied()
                .expect("cell present")
        };
        for shape in [RulesetShape::PortRange, RulesetShape::AclMix] {
            let tss = get(WildcardBackend::Tss, shape);
            let rvh = get(WildcardBackend::Rvh, shape);
            assert!(
                rvh.probes_per_lookup < tss.probes_per_lookup,
                "{}: RVH {} probes should beat TSS {}",
                shape.name(),
                rvh.probes_per_lookup,
                tss.probes_per_lookup
            );
            assert!(
                rvh.buckets_per_lookup < tss.buckets_per_lookup,
                "{}: RVH bucket loads should beat TSS",
                shape.name()
            );
        }
        let tss_exact = get(WildcardBackend::Tss, RulesetShape::ExactHeavy);
        assert!(
            (tss_exact.probes_per_lookup - 1.0).abs() < 1e-9,
            "exact-heavy TSS collapses to one tuple, got {}",
            tss_exact.probes_per_lookup
        );
        for c in &cells {
            assert!(
                c.throughput > 0.0,
                "{}/{}/{}: non-positive throughput",
                c.backend.name(),
                c.shape.name(),
                c.strategy.name()
            );
            assert!(c.mem_bytes > 0 && c.rules > 0);
        }
    }

    /// JSON round-trips the cell count and names every backend and
    /// shape.
    #[test]
    fn json_covers_matrix() {
        let cells = run_small_slice(&SweepRunner::new("ablation-wildcard-json", 1).quiet());
        let json = to_json(&cells, true);
        for b in WildcardBackend::all() {
            assert!(json.contains(b.name()), "missing {}", b.name());
        }
        for s in RulesetShape::all() {
            assert!(json.contains(s.name()), "missing {}", s.name());
        }
        assert_eq!(json.matches("\"strategy\"").count(), cells.len());
    }
}
