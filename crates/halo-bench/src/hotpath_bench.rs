//! Simulator hot-path microbenchmark (`figures bench-hotpath`).
//!
//! Measures how fast the *simulator itself* executes — accesses/sec
//! through dependent chains of [`MemorySystem::access`] for working
//! sets resident in L1, LLC, and DRAM, plus packets/sec through the full vswitch
//! pipeline — and serializes the result as `BENCH_hotpath.json`, the
//! tracked perf-trajectory datapoint (see DESIGN.md §9).
//!
//! These numbers are host wall-clock throughput, not simulated-machine
//! throughput: every paper figure is produced by millions of calls
//! through this path, so this benchmark is the repo's iteration speed.

use std::time::Instant;

use halo_classify::PacketHeader;
use halo_cpu::{build_sw_lookup, build_sw_lookup_into, Program, Scratch};
use halo_mem::{AccessKind, Addr, CoreId, MachineConfig, MemorySystem, CACHE_LINE};
use halo_sim::{Cycle, LatencyHistogram, SplitMix64};
use halo_tables::{CuckooTable, FlowKey, LookupTrace};
use halo_vswitch::{LookupBackend, SwitchConfig, VirtualSwitch};

/// One measured hot-path profile.
#[derive(Debug, Clone)]
pub struct HotpathRow {
    /// Profile name (`l1`, `llc`, `dram`, `swprog_alloc`,
    /// `swprog_reuse`, `vswitch`).
    pub profile: &'static str,
    /// Unit of the rate (`accesses`, `programs`, or `packets`).
    pub unit: &'static str,
    /// Operations executed in the timed section.
    pub ops: u64,
    /// Wall-clock seconds of the timed section.
    pub wall_s: f64,
    /// Median per-op *simulated* latency (cycles), from an untimed
    /// sampling pass over the same op stream (log2-bucket resolution).
    pub p50_cyc: u64,
    /// 95th-percentile per-op simulated latency (cycles).
    pub p95_cyc: u64,
    /// 99th-percentile per-op simulated latency (cycles).
    pub p99_cyc: u64,
}

impl HotpathRow {
    /// Operations per wall-clock second.
    #[must_use]
    pub fn rate(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.ops as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// Ops per timed round. Small enough to keep the op buffer and the
/// outcome buffer L1-resident on the host.
const BATCH: usize = 256;

/// Builds a deterministic access stream over a working set of `lines`
/// cache lines starting at `base`: a SplitMix64-scrambled walk with one
/// store per eight ops.
fn build_ops(base: Addr, lines: u64, n: usize, seed: u64) -> Vec<(Addr, AccessKind)> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|i| {
            let line = rng.next_u64() % lines;
            let kind = if i % 8 == 7 {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            (base + line * CACHE_LINE, kind)
        })
        .collect()
}

/// Runs one memory profile: warm the working set once, then time `ops`
/// chained accesses, each issuing at the previous one's completion.
fn mem_profile(profile: &'static str, lines: u64, ops: u64, seed: u64) -> HotpathRow {
    let mut sys = MemorySystem::new(MachineConfig::default());
    let base = sys.data_mut().alloc_lines(lines * CACHE_LINE);
    // Warm-up pass: stream the working set once so the timed section
    // measures the steady-state residency the profile is named after.
    let mut t = Cycle(0);
    for i in 0..lines {
        t = sys
            .access(CoreId(0), base + i * CACHE_LINE, AccessKind::Load, t)
            .complete;
    }
    sys.clear_stats();

    // A few distinct batches so successive rounds do not replay one
    // address sequence verbatim; the timed loop itself is allocation-free.
    let streams: Vec<Vec<(Addr, AccessKind)>> = (0..8)
        .map(|i| build_ops(base, lines, BATCH, seed ^ (i as u64) << 32))
        .collect();
    let mut out = Vec::with_capacity(BATCH);
    let rounds = ops / BATCH as u64;
    let mut round_start = t;
    let t0 = Instant::now();
    for round in 0..rounds {
        out.clear();
        round_start = t;
        for &(addr, kind) in &streams[(round % 8) as usize] {
            let o = sys.access(CoreId(0), addr, kind, t);
            t = o.complete;
            out.push(o);
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    // Per-access simulated latencies, post hoc from the outcomes the
    // final timed round already produced (`out` survives the loop).
    // Bucketing after the fact keeps the percentile bookkeeping out of
    // the timed section, and the samples are genuine steady-state
    // accesses — a replay pass would hit lines the loop just warmed.
    let mut hist = LatencyHistogram::new();
    let mut prev = round_start;
    for o in &out {
        hist.record((o.complete - prev).0);
        prev = o.complete;
    }
    HotpathRow {
        profile,
        unit: "accesses",
        ops: rounds * BATCH as u64,
        wall_s,
        p50_cyc: hist.p50(),
        p95_cyc: hist.p95(),
        p99_cyc: hist.p99(),
    }
}

/// Runs the vswitch profile: a software-backend switch processing a
/// synthetic packet stream through [`VirtualSwitch::process_burst`].
fn vswitch_profile(packets: u64) -> HotpathRow {
    let flows = 256u64;
    let masks = 5usize;
    let mut sys = MemorySystem::new(MachineConfig::small());
    let cfg = SwitchConfig::typical(masks, LookupBackend::Software);
    let mut vs = VirtualSwitch::new(&mut sys, CoreId(0), cfg);
    let headers: Vec<PacketHeader> = (0..flows).map(PacketHeader::synthetic).collect();
    for (f, h) in headers.iter().enumerate() {
        vs.install_flow(&mut sys, &h.miniflow(), f % masks, 0, f as u64)
            .expect("tuple sized for flows");
    }
    vs.warm_tables(&mut sys);

    let burst: Vec<PacketHeader> = (0..packets)
        .map(|i| headers[(i % flows) as usize])
        .collect();
    let mut results = Vec::with_capacity(burst.len());
    let t0 = Instant::now();
    vs.process_burst(&mut sys, None, &burst, Cycle(0), &mut results);
    let wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(results.len(), burst.len());
    // Per-packet simulated latency, post hoc from the completion cycles
    // the timed run already produced (packets run back-to-back, so each
    // packet's cost is the delta between consecutive completions).
    let mut hist = LatencyHistogram::new();
    let mut prev = Cycle(0);
    for &(_, done) in &results {
        hist.record((done - prev).0);
        prev = done;
    }
    HotpathRow {
        profile: "vswitch",
        unit: "packets",
        ops: packets,
        wall_s,
        p50_cyc: hist.p50(),
        p95_cyc: hist.p95(),
        p99_cyc: hist.p99(),
    }
}

/// Measures software-lookup *program construction* throughput over a
/// pool of real cuckoo probe traces. `reuse = false` is the "before"
/// row: one freshly allocated [`Program`] per packet, which is what the
/// vswitch megaflow phase — the dominant phase of the PR-4 six-phase
/// breakdown — did before the pooled buffer landed. `reuse = true` is
/// the "after" row: [`build_sw_lookup_into`] refilling one long-lived
/// buffer, the path `LookupExecutor::run_sw` takes now. The pair pins
/// the micro-pass's win in `BENCH_hotpath.json`.
fn swprog_profile(profile: &'static str, reuse: bool, ops: u64) -> HotpathRow {
    let mut sys = MemorySystem::new(MachineConfig::small());
    let mut table = CuckooTable::create(sys.data_mut(), 64, 13);
    for id in 0..128u64 {
        let _ = table.insert(sys.data_mut(), &FlowKey::synthetic(id, 13), id);
    }
    let mut scratch = Scratch::new(&mut sys);
    // A mix of hits and misses (ids past 128 were never inserted), so
    // the trace pool spans the probe shapes the datapath really builds.
    let traces: Vec<LookupTrace> = (0..192u64)
        .map(|id| table.lookup_traced(sys.data(), &FlowKey::synthetic(id, 13), true))
        .collect();
    let mut buf = Program::with_label("sw_lookup");
    let mut uops = 0u64;
    let t0 = Instant::now();
    for i in 0..ops {
        let trace = &traces[(i % traces.len() as u64) as usize];
        if reuse {
            build_sw_lookup_into(trace, &mut scratch, None, &mut buf);
            uops += buf.len() as u64;
        } else {
            let p = build_sw_lookup(trace, &mut scratch, None);
            uops += p.len() as u64;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    assert!(uops > 0, "program construction produced no uops");
    HotpathRow {
        profile,
        unit: "programs",
        ops,
        wall_s,
        // Host-side construction work: there is no simulated latency to
        // sample, so the percentile columns are zero by definition.
        p50_cyc: 0,
        p95_cyc: 0,
        p99_cyc: 0,
    }
}

/// Runs the full benchmark. `quick` shrinks op counts ~10x (the CI
/// smoke setting); profiles and shapes are identical in both modes.
#[must_use]
pub fn run(quick: bool) -> Vec<HotpathRow> {
    let scale = if quick { 1 } else { 10 };
    // Working sets sized against MachineConfig::default(): 32 KB L1
    // (512 lines), 1 MB L2, 32 MB LLC.
    vec![
        // Half the L1: every access after warm-up is an L1 hit.
        mem_profile("l1", 256, 2_000_000 * scale, 0x1EAF),
        // 4 MB: 4x the L2, 1/8 of the LLC — the LLC-resident regime the
        // paper's tables live in, and the tentpole's >=2x target.
        mem_profile("llc", 65_536, 400_000 * scale, 0x11C),
        // 64 MB: 2x the LLC; the probe path plus eviction/back-inval.
        mem_profile("dram", 1_048_576, 150_000 * scale, 0xD7A8),
        // Before/after pair for the vswitch micro-pass: per-packet
        // program allocation vs the pooled builder buffer.
        swprog_profile("swprog_alloc", false, 200_000 * scale),
        swprog_profile("swprog_reuse", true, 200_000 * scale),
        vswitch_profile(2_000 * scale),
    ]
}

/// Serializes rows as the `BENCH_hotpath.json` document.
#[must_use]
pub fn to_json(rows: &[HotpathRow], quick: bool) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"benchmark\": \"simulator hot-path throughput\",\n");
    s.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    s.push_str("  \"profiles\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"profile\": \"{}\", \"unit\": \"{}\", \"ops\": {}, \"wall_s\": {:.4}, \
             \"rate_per_s\": {:.0}, \"p50_cyc\": {}, \"p95_cyc\": {}, \"p99_cyc\": {}}}{}\n",
            r.profile,
            r.unit,
            r.ops,
            r.wall_s,
            r.rate(),
            r.p50_cyc,
            r.p95_cyc,
            r.p99_cyc,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_all_profiles() {
        // Tiny op counts: this is a smoke test of the harness shape,
        // not a measurement.
        let rows = vec![
            mem_profile("l1", 64, 2_048, 1),
            swprog_profile("swprog_alloc", false, 512),
            swprog_profile("swprog_reuse", true, 512),
            vswitch_profile(16),
        ];
        assert!(rows.iter().all(|r| r.ops > 0));
        let j = to_json(&rows, true);
        assert!(j.contains("\"profile\": \"l1\""));
        assert!(j.contains("\"profile\": \"swprog_alloc\""));
        assert!(j.contains("\"profile\": \"swprog_reuse\""));
        assert!(j.contains("\"profile\": \"vswitch\""));
        assert!(j.contains("\"p50_cyc\""));
        assert!(j.contains("\"p95_cyc\""));
        assert!(j.contains("\"p99_cyc\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn percentiles_are_ordered_and_plausible() {
        // An L1-resident stream: every sampled access is a cheap hit,
        // so the spread between p50 and p99 stays tight and nonzero.
        let r = mem_profile("l1", 64, 2_048, 7);
        assert!(r.p50_cyc > 0);
        assert!(r.p50_cyc <= r.p95_cyc && r.p95_cyc <= r.p99_cyc);
        let v = vswitch_profile(32);
        assert!(v.p50_cyc > 0, "per-packet cycles must be nonzero");
        assert!(v.p50_cyc <= v.p99_cyc);
    }

    #[test]
    fn rate_handles_zero_wall() {
        let r = HotpathRow {
            profile: "x",
            unit: "accesses",
            ops: 10,
            wall_s: 0.0,
            p50_cyc: 0,
            p95_cyc: 0,
            p99_cyc: 0,
        };
        assert_eq!(r.rate(), 0.0);
    }
}
