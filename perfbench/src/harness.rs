//! What every workload shares: the round contract, the timed loops
//! for the untraced and traced runs, and the software-lookup step the
//! rebuilt paths time layer by layer.

use std::time::{Duration, Instant};

use halo_cpu::{build_sw_lookup_into, ExecReport, Program};
use halo_datapath::DatapathCore;
use halo_mem::{Addr, CoreMem, MemorySystem};
use halo_sim::Cycle;
use halo_tables::LookupTrace;

use crate::spans::{Layer, Spans, TimedMem};

/// Timed rounds the simulated metrics cover; every run makes at least
/// this many, however short `--seconds` is.
pub const SIM_ROUNDS: usize = 8;

/// One fixed-size round of a workload.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Classifications completed.
    pub ops: u64,
    /// Operations attempted: classifications plus table updates.
    pub attempted: u64,
    /// Operations that disagreed with the reference or were rejected.
    pub failed: u64,
    /// Host nanoseconds spent in library calls (reference checks
    /// excluded).
    pub busy_ns: u64,
    /// Simulated cycles the round took.
    pub cycles: u64,
    /// Simulated latency of each classification: the distance between
    /// consecutive completion cycles on its core. Empty when the runner
    /// cannot observe per-packet completions.
    pub gaps: Vec<u64>,
    /// Digest of the simulated state after the round; equal digests on
    /// the library path and the rebuilt path show the rebuilt path
    /// reproduces the library's simulated statistics.
    pub fingerprint: Vec<u64>,
}

impl Round {
    /// Classifications per host second of library time.
    pub fn rate(&self) -> f64 {
        self.ops as f64 / (self.busy_ns.max(1) as f64 * 1e-9)
    }
}

/// A workload instance that runs fixed-size rounds over its own
/// generated inputs.
pub trait Runner {
    /// Runs the next round; rebuilt paths record spans into `spans`.
    fn round(&mut self, spans: &mut Spans) -> Round;
}

/// One benchmark workload: how to build it through the library's own
/// entry points ("plain") and through the rebuilt, traceable path.
pub trait Workload {
    /// The library path, measured untraced.
    type Plain: Runner;
    /// The same workload rebuilt from public pieces so that every layer
    /// boundary is a call the benchmark can time.
    type Rebuilt: Runner;
    /// Builds tables, installs flows or rules, and warms caches.
    fn setup_plain(&self, seed: u64) -> Self::Plain;
    /// The rebuilt path's setup (same allocations in the same order).
    fn setup_rebuilt(&self, seed: u64) -> Self::Rebuilt;
    /// Setups timed per run; `setup_s` is their median.
    fn setup_reps(&self) -> usize;
    /// Rounds run right after setup, before anything is measured, to
    /// bring caches the workload cannot prime into steady state. They
    /// count as set-up time; their classifications are still checked.
    fn warmup_rounds(&self) -> usize {
        0
    }
    /// OS threads the workload runs on.
    fn threads(&self) -> usize;
    /// A second library-path instance that differs in one parameter,
    /// and the per-layer metric name under which the traced run reports
    /// its rate over the plain path's (both measured in alternating
    /// rounds). The contrast must simulate exactly what the plain path
    /// does.
    fn setup_contrast(&self, _seed: u64) -> Option<(Self::Plain, &'static str)> {
        None
    }
    /// Per-layer metrics of a traced run.
    fn per_layer(
        &self,
        plain: &Self::Plain,
        rebuilt: &Self::Rebuilt,
        spans: &Spans,
    ) -> Vec<(&'static str, f64)>;
}

/// Operations attempted and failed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
}

impl Tally {
    fn add(&mut self, r: &Round) {
        self.attempted += r.attempted;
        self.failed += r.failed;
    }
}

/// Runs the workload's warm-up rounds on a fresh instance.
fn warm_up<W: Workload, R: Runner>(w: &W, runner: &mut R, tally: &mut Tally) {
    let mut off = Spans::new(false);
    for _ in 0..w.warmup_rounds() {
        tally.add(&runner.round(&mut off));
    }
}

/// Result of an untraced run.
#[derive(Debug)]
pub struct Untraced {
    /// Host seconds of each setup.
    pub setup_s: Vec<f64>,
    /// Per-round classification rates.
    pub rates: Vec<f64>,
    /// The first [`SIM_ROUNDS`] timed rounds (deterministic for a seed).
    pub sim: Vec<Round>,
    /// Per-classification simulated latencies of those rounds.
    pub gaps: Vec<u64>,
    /// Whether the rebuilt path, when it had to supply `gaps`,
    /// reproduced those rounds exactly.
    pub identical: bool,
    /// Operations over all rounds, warm-up rounds included.
    pub tally: Tally,
}

/// Runs `w` untraced: `setup_reps` timed setups (warm-up included),
/// then rounds on the last one until `seconds` have passed.
pub fn run_untraced<W: Workload>(w: &W, seed: u64, seconds: f64) -> Untraced {
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut plain = None;
    for _ in 0..w.setup_reps() {
        drop(plain.take()); // free the previous instance before timing the next
        let t = Instant::now();
        let mut p = w.setup_plain(seed);
        warm_up(w, &mut p, &mut tally);
        setup_s.push(t.elapsed().as_secs_f64());
        plain = Some(std::hint::black_box(p));
    }
    let mut plain = plain.expect("at least one setup");
    let mut off = Spans::new(false);
    let mut rates = Vec::new();
    let mut sim = Vec::with_capacity(SIM_ROUNDS);
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while rates.len() < SIM_ROUNDS || start.elapsed() < budget {
        let r = plain.round(&mut off);
        rates.push(r.rate());
        tally.add(&r);
        if sim.len() < SIM_ROUNDS {
            sim.push(r);
        }
    }
    let (gaps, identical) = if sim.iter().any(|r| r.gaps.is_empty()) {
        // The library runner exposes no per-packet completion cycle:
        // replay the rounds on the rebuilt path, which does.
        drop(plain);
        let mut rebuilt = w.setup_rebuilt(seed);
        warm_up(w, &mut rebuilt, &mut Tally::default());
        let mut gaps = Vec::new();
        let mut identical = true;
        for r in &sim {
            let replay = rebuilt.round(&mut off);
            identical &= replay.fingerprint == r.fingerprint;
            gaps.extend(replay.gaps);
        }
        (gaps, identical)
    } else {
        (
            sim.iter().flat_map(|r| r.gaps.iter().copied()).collect(),
            true,
        )
    };
    Untraced {
        setup_s,
        rates,
        sim,
        gaps,
        identical,
        tally,
    }
}

/// Result of a traced run.
#[derive(Debug)]
pub struct Traced {
    /// Per-round rates of the untraced library path.
    pub untraced: Vec<f64>,
    /// Per-round rates of the traced rebuilt path.
    pub traced: Vec<f64>,
    /// Host nanoseconds of all traced rounds, end to end.
    pub wall_ns: u64,
    /// The spans of the traced rounds.
    pub spans: Spans,
    /// Whether the traced path's (and the contrast's) first
    /// [`SIM_ROUNDS`] rounds reproduced the library path's exactly.
    pub identical: bool,
    /// Operations over all rounds of both paths.
    pub tally: Tally,
    /// Per-layer metrics from the workload.
    pub per_layer: Vec<(&'static str, f64)>,
}

/// Runs `w` traced: the library path and the rebuilt path alternate
/// rounds over identical inputs until `seconds` have passed, so the
/// tracing overhead is measured under the same host conditions.
pub fn run_traced<W: Workload>(w: &W, seed: u64, seconds: f64) -> Traced {
    let mut tally = Tally::default();
    let mut plain = w.setup_plain(seed);
    warm_up(w, &mut plain, &mut tally);
    let mut rebuilt = w.setup_rebuilt(seed);
    warm_up(w, &mut rebuilt, &mut tally);
    let mut contrast = w.setup_contrast(seed);
    if let Some((c, _)) = contrast.as_mut() {
        warm_up(w, c, &mut tally);
    }
    let mut off = Spans::new(false);
    let mut spans = Spans::new(true);
    let (mut untraced, mut traced, mut contrasted) = (Vec::new(), Vec::new(), Vec::new());
    let mut wall_ns = 0u64;
    let mut identical = true;
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while traced.len() < SIM_ROUNDS || start.elapsed() < budget {
        let p = plain.round(&mut off);
        let t0 = Instant::now();
        let r = rebuilt.round(&mut spans);
        wall_ns += t0.elapsed().as_nanos() as u64;
        if let Some((c, _)) = contrast.as_mut() {
            let cr = c.round(&mut off);
            if traced.len() < SIM_ROUNDS {
                identical &= p.fingerprint == cr.fingerprint;
            }
            contrasted.push(cr.rate());
            tally.add(&cr);
        }
        if traced.len() < SIM_ROUNDS {
            identical &= p.fingerprint == r.fingerprint;
        }
        untraced.push(p.rate());
        traced.push(r.rate());
        tally.add(&p);
        tally.add(&r);
    }
    let mut per_layer = w.per_layer(&plain, &rebuilt, &spans);
    if let Some((_, name)) = contrast {
        per_layer.push((name, median(&contrasted) / median(&untraced)));
    }
    Traced {
        untraced,
        traced,
        wall_ns,
        spans,
        identical,
        tally,
        per_layer,
    }
}

/// One software lookup on a core, split into program build and core
/// run: `LookupExecutor::run_sw` taken apart, so each half is a span.
pub fn run_sw<S: CoreMem>(
    spans: &mut Spans,
    prog: &mut Program,
    dp: &mut DatapathCore,
    mem: &mut S,
    trace: &LookupTrace,
    key_addr: Option<Addr>,
    at: Cycle,
) -> ExecReport {
    spans.enter(Layer::ProgBuild);
    build_sw_lookup_into(trace, dp.exec_mut().scratch_mut(), key_addr, prog);
    spans.exit();
    run_prog(spans, prog, dp, mem, at)
}

/// Runs `prog` on `dp`'s core model with every memory access timed.
pub fn run_prog<S: CoreMem>(
    spans: &mut Spans,
    prog: &Program,
    dp: &mut DatapathCore,
    mem: &mut S,
    at: Cycle,
) -> ExecReport {
    spans.enter(Layer::CoreRun);
    let r = dp
        .exec_mut()
        .run(prog, &mut TimedMem { inner: mem, spans }, at);
    spans.exit();
    r
}

/// Simulated memory-hierarchy counters (from `MemorySystem::stats()`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemCounts {
    accesses: u64,
    l1_hit: u64,
    l1_miss: u64,
    l2_hit: u64,
    l2_miss: u64,
    llc_hit: u64,
    llc_miss: u64,
    dram: u64,
}

impl MemCounts {
    /// Reads the counters now.
    pub fn read(sys: &MemorySystem) -> Self {
        let s = sys.stats();
        MemCounts {
            accesses: s.counter("mem.load") + s.counter("mem.store"),
            l1_hit: s.counter("l1d.hit"),
            l1_miss: s.counter("l1d.miss"),
            l2_hit: s.counter("l2.hit"),
            l2_miss: s.counter("l2.miss"),
            llc_hit: s.counter("llc.hit"),
            llc_miss: s.counter("llc.miss"),
            dram: s.counter("dram.access"),
        }
    }

    /// Counts since `before`.
    pub fn since(self, before: MemCounts) -> Self {
        MemCounts {
            accesses: self.accesses - before.accesses,
            l1_hit: self.l1_hit - before.l1_hit,
            l1_miss: self.l1_miss - before.l1_miss,
            l2_hit: self.l2_hit - before.l2_hit,
            l2_miss: self.l2_miss - before.l2_miss,
            llc_hit: self.llc_hit - before.llc_hit,
            llc_miss: self.llc_miss - before.llc_miss,
            dram: self.dram - before.dram,
        }
    }

    /// The `mem.*` count metrics over `ops` classifications.
    pub fn metrics(&self, ops: u64) -> Vec<(&'static str, f64)> {
        let ratio = |h: u64, m: u64| {
            if h + m == 0 {
                0.0
            } else {
                h as f64 / (h + m) as f64
            }
        };
        let ops = ops.max(1) as f64;
        vec![
            ("mem.accesses_per_pkt", self.accesses as f64 / ops),
            ("mem.l1_hit_ratio", ratio(self.l1_hit, self.l1_miss)),
            ("mem.l2_hit_ratio", ratio(self.l2_hit, self.l2_miss)),
            ("mem.llc_hit_ratio", ratio(self.llc_hit, self.llc_miss)),
            ("mem.dram_per_pkt", self.dram as f64 / ops),
        ]
    }
}

/// Every statistics counter of `sys`, sorted by name (part of each
/// round's fingerprint).
pub fn stats_digest(sys: &MemorySystem) -> Vec<u64> {
    let mut c: Vec<(&str, u64)> = sys.stats().counters().collect();
    c.sort_unstable();
    c.into_iter().map(|(_, v)| v).collect()
}

/// Host nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The `q`-quantile of the integer samples `v`, read off their
/// empirical CDF with linear interpolation between adjacent distinct
/// values (0 when empty). Simulated latencies take few distinct
/// values; when two of them each hold about half the samples, the
/// nearest-rank median jumps between them from seed to seed, while this
/// one moves with the shares.
pub fn quantile(v: &[u64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_unstable();
    let n = s.len() as f64;
    let (mut prev_v, mut prev_f) = match s.first() {
        Some(&x) => (x as f64, 0.0),
        None => return 0.0,
    };
    let mut i = 0;
    while i < s.len() {
        let x = s[i];
        while i < s.len() && s[i] == x {
            i += 1;
        }
        let f = i as f64 / n;
        if f >= q {
            return if prev_f == 0.0 {
                x as f64
            } else {
                prev_v + (x as f64 - prev_v) * (q - prev_f) / (f - prev_f)
            };
        }
        (prev_v, prev_f) = (x as f64, f);
    }
    prev_v
}

/// The median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}
