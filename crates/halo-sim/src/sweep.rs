//! Multi-threaded experiment sweep runner.
//!
//! The paper's evaluation is a large set of *independent* simulation
//! points (table sizes × backends × core counts). Each point owns its
//! own simulated machine, so the sweep is embarrassingly parallel: this
//! module fans points out over scoped OS threads with [`par_map`] and
//! returns the rows **in point order**, so the serialized output of a
//! parallel run is byte-identical to a sequential one.
//!
//! Determinism rules:
//!
//! * every point derives its RNG seed from the *experiment name and
//!   point index* via [`point_seed`] — never from thread identity or
//!   wall-clock time;
//! * progress and timing go to **stderr**; result rows are returned in
//!   submission order regardless of completion order.
//!
//! # Examples
//!
//! ```
//! use halo_sim::{point_seed, FnPoint, SweepRunner};
//!
//! let points: Vec<_> = (0..8u64)
//!     .map(|i| {
//!         let seed = point_seed("example", i);
//!         FnPoint::new(format!("point {i}"), move || seed.wrapping_mul(i))
//!     })
//!     .collect();
//! let seq = SweepRunner::new("example", 1).quiet().run(points);
//! assert_eq!(seq.len(), 8);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::{Builder, Scope};
use std::time::{Duration, Instant};

/// Peak number of fan-out items observed executing simultaneously in
/// this process (see [`observed_parallelism`]).
static OBSERVED_ACTIVE: AtomicUsize = AtomicUsize::new(0);
static OBSERVED_PEAK: AtomicUsize = AtomicUsize::new(0);

/// The peak number of [`par_map`] items (sweep points, epoch windows)
/// that have actually executed simultaneously in this process, as
/// opposed to the worker count a run was *configured* with. Benchmarks
/// record this next to the host's parallelism so reported speedups can
/// be sanity-checked against what really ran concurrently.
#[must_use]
pub fn observed_parallelism() -> usize {
    OBSERVED_PEAK.load(Ordering::Relaxed)
}

/// A uniform record of how parallel a benchmark run really was: what
/// the host offers, what the run was configured with, and the peak
/// concurrency actually observed.
///
/// Every benchmark JSON document (`SCALE_flows.json`,
/// `BENCH_parallel.json`) embeds the same three
/// fields through [`ParallelismReport::json_fields`], and every
/// wall-clock speedup assertion gates on
/// [`ParallelismReport::can_assert_speedup`]: shared CI runners often
/// expose a single core, where ~1.0x is the correct outcome, not a
/// failure — those hosts skip the assertion with a note instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelismReport {
    /// Cores the host OS reports available to this process.
    pub host: usize,
    /// Worker/thread count the parallel runs were configured with.
    pub jobs: usize,
    /// Peak number of [`par_map`] items observed executing
    /// simultaneously in this process (see [`observed_parallelism`]; 0
    /// until a sweep or epoch window has run).
    pub observed: usize,
}

impl ParallelismReport {
    /// Snapshots the host parallelism and the process-global observed
    /// peak next to the configured worker count.
    #[must_use]
    pub fn capture(jobs: usize) -> Self {
        ParallelismReport {
            host: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            jobs,
            observed: observed_parallelism(),
        }
    }

    /// Whether a wall-clock speedup assertion is meaningful: the host
    /// must offer at least `min_host` cores (floored at 2) and the
    /// parallel run must have been configured with at least two
    /// workers.
    #[must_use]
    pub fn can_assert_speedup(&self, min_host: usize) -> bool {
        self.host >= min_host.max(2) && self.jobs >= 2
    }

    /// One-line explanation for stderr when a speedup assertion is
    /// skipped.
    #[must_use]
    pub fn skip_note(&self) -> String {
        format!(
            "skipping speedup assertion (host parallelism {}, jobs {}, observed {}; \
             ~1.0x expected)",
            self.host, self.jobs, self.observed
        )
    }

    /// The shared parallelism header for benchmark JSON documents:
    /// `jobs`, `host_parallelism`, and `observed_parallelism`. Every
    /// field sits on a line containing `parallelism`, so
    /// jobs-invariance tests can strip the whole header — which varies
    /// with worker count and process history by design — with a single
    /// line filter.
    #[must_use]
    pub fn json_fields(&self) -> String {
        format!(
            "  \"jobs\": {}, \"host_parallelism\": {},\n  \"observed_parallelism\": {},\n",
            self.jobs, self.host, self.observed
        )
    }
}

/// Scope guard bumping the observed-concurrency counters around one
/// [`par_map`] item's execution.
struct ActivePoint;

impl ActivePoint {
    fn enter() -> Self {
        let now = OBSERVED_ACTIVE.fetch_add(1, Ordering::Relaxed) + 1;
        OBSERVED_PEAK.fetch_max(now, Ordering::Relaxed);
        ActivePoint
    }
}

impl Drop for ActivePoint {
    fn drop(&mut self) {
        OBSERVED_ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Maps `f` over `items` on up to `jobs` threads and returns the
/// results in input order.
///
/// With `min(jobs, items.len()) <= 1` every item runs inline on the
/// calling thread. Otherwise the items sit in one shared queue inside a
/// [`std::thread::scope`]: up to `jobs - 1` scoped workers are spawned
/// (spawning stops at the first OS error) and the calling thread drains
/// the same queue, so no item is ever stranded. Because the threads are
/// scoped, `items` and `f` may borrow from the caller, and a `par_map`
/// nested inside `f` simply fans out again. Every item runs under the
/// [`observed_parallelism`] counter.
///
/// # Examples
///
/// ```
/// let words = ["a", "bb", "ccc"];
/// let lens = halo_sim::par_map(words.iter().collect(), 2, |w| w.len());
/// assert_eq!(lens, vec![1, 2, 3]);
/// ```
///
/// # Panics
///
/// Panics if `f` panics on any item, once every worker has stopped.
pub fn par_map<T: Send, R: Send>(items: Vec<T>, jobs: usize, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    par_map_with(items, jobs, f, |i, scope, body| {
        Builder::new()
            .name(format!("halo-par-{i}"))
            .spawn_scoped(scope, body)
            .map(drop)
    })
}

/// [`par_map`] with an injectable spawner: `spawn(i, scope, body)`
/// starts worker `i` running `body` in `scope`, or reports why it could
/// not. Tests use it to force spawn failures.
fn par_map_with<T: Send, R: Send>(
    items: Vec<T>,
    jobs: usize,
    f: impl Fn(T) -> R + Sync,
    spawn: impl for<'s, 'e> Fn(
        usize,
        &'s Scope<'s, 'e>,
        Box<dyn FnOnce() + Send + 's>,
    ) -> std::io::Result<()>,
) -> Vec<R> {
    let run = |item| {
        let _active = ActivePoint::enter();
        f(item)
    };
    let n = items.len();
    let jobs = jobs.min(n);
    if jobs <= 1 {
        return items.into_iter().map(run).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    let drain = || loop {
        // The lock guards only the pop; it is released before `run`.
        let next = queue.lock().expect("par_map queue lock").next();
        let Some((i, item)) = next else { break };
        let r = run(item);
        slots.lock().expect("par_map result lock")[i] = Some(r);
    };
    std::thread::scope(|s| {
        for i in 1..jobs {
            if spawn(i, s, Box::new(drain)).is_err() {
                // A failed spawn (thread limit, out of memory) will fail
                // again; the threads already running finish the queue.
                break;
            }
        }
        drain();
    });
    slots
        .into_inner()
        .expect("par_map result lock")
        .into_iter()
        .map(|r| r.expect("every item produced a result"))
        .collect()
}

/// Derives the deterministic RNG seed of one sweep point from the
/// experiment name and the point's index within the sweep.
///
/// The name is folded with FNV-1a and the index advances the resulting
/// `SplitMix64` stream, so distinct experiments get decorrelated seed
/// sequences and nearby indices get statistically independent seeds.
/// The derivation involves neither thread identity nor time, so a
/// parallel sweep sees exactly the seeds a sequential one does.
///
/// # Examples
///
/// ```
/// use halo_sim::point_seed;
///
/// assert_eq!(point_seed("fig9", 0), point_seed("fig9", 0));
/// assert_ne!(point_seed("fig9", 0), point_seed("fig9", 1));
/// assert_ne!(point_seed("fig9", 0), point_seed("fig11", 0));
/// ```
#[must_use]
pub fn point_seed(experiment: &str, index: u64) -> u64 {
    let mut acc = 0xCBF2_9CE4_8422_2325u64; // FNV-1a offset basis
    for &b in experiment.as_bytes() {
        acc = (acc ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    // Jump the SplitMix64 stream seeded by the name to its `index`-th
    // state (the state advances by the golden gamma per draw).
    crate::SplitMix64::new(acc.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))).next_u64()
}

/// One independent unit of sweep work.
///
/// A point must be self-contained: it owns (or builds) its own
/// `MemorySystem`, tables, and RNG, and must not read global mutable
/// state, so that running points concurrently cannot change any row.
pub trait SweepPoint: Send {
    /// The result row this point produces.
    type Row: Send;

    /// Runs the point to completion.
    fn run(&self) -> Self::Row;

    /// Human-readable label for progress reporting.
    fn label(&self) -> String {
        String::new()
    }
}

/// A [`SweepPoint`] built from a closure, for experiments whose points
/// are more naturally expressed inline than as named structs.
pub struct FnPoint<F> {
    label: String,
    f: F,
}

impl<F> std::fmt::Debug for FnPoint<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnPoint")
            .field("label", &self.label)
            .finish()
    }
}

impl<F, R> FnPoint<F>
where
    F: Fn() -> R + Send,
    R: Send,
{
    /// Wraps `f` as a sweep point with the given progress label.
    pub fn new(label: impl Into<String>, f: F) -> Self {
        FnPoint {
            label: label.into(),
            f,
        }
    }
}

impl<F, R> SweepPoint for FnPoint<F>
where
    F: Fn() -> R + Send,
    R: Send,
{
    type Row = R;

    fn run(&self) -> R {
        (self.f)()
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}

/// Environment variable overriding the worker-thread count.
pub const JOBS_ENV: &str = "HALO_JOBS";

/// Resolves the default worker count: `HALO_JOBS` if set and parseable,
/// otherwise the host's available parallelism.
#[must_use]
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var(JOBS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Fans independent sweep points out over worker threads and merges
/// their rows back in submission order.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    name: String,
    jobs: usize,
    progress: bool,
}

impl SweepRunner {
    /// Creates a runner for the named experiment with an explicit
    /// worker count (`jobs == 1` runs inline with no threads).
    #[must_use]
    pub fn new(name: impl Into<String>, jobs: usize) -> Self {
        SweepRunner {
            name: name.into(),
            jobs: jobs.max(1),
            progress: false,
        }
    }

    /// Creates a runner taking its worker count from [`default_jobs`]
    /// (the `HALO_JOBS` environment variable, then host parallelism).
    #[must_use]
    pub fn from_env(name: impl Into<String>) -> Self {
        let jobs = default_jobs();
        SweepRunner::new(name, jobs).progress(true)
    }

    /// Enables or disables per-point progress reporting on stderr.
    #[must_use]
    pub fn progress(mut self, on: bool) -> Self {
        self.progress = on;
        self
    }

    /// Disables progress reporting (for tests and nested sweeps).
    #[must_use]
    pub fn quiet(self) -> Self {
        self.progress(false)
    }

    /// Worker threads this runner will use.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs every point through [`par_map`] and returns the rows in
    /// point order, reporting progress on stderr when enabled.
    pub fn run<P: SweepPoint>(&self, points: Vec<P>) -> Vec<P::Row> {
        let n = points.len();
        let jobs = self.jobs.min(n.max(1));
        let sweep_start = Instant::now();
        let done = AtomicUsize::new(0);
        let timed = par_map(points, jobs, |p| {
            let t0 = Instant::now();
            let row = p.run();
            let dt = t0.elapsed();
            self.report(done.fetch_add(1, Ordering::Relaxed) + 1, n, &p.label(), dt);
            (row, dt)
        });
        let cpu: Duration = timed.iter().map(|&(_, dt)| dt).sum();
        if self.progress {
            eprintln!(
                "[{}] {} points in {:.2?} ({} jobs, {:.2?} cpu)",
                self.name,
                n,
                sweep_start.elapsed(),
                jobs,
                cpu
            );
        }
        timed.into_iter().map(|(row, _)| row).collect()
    }

    fn report(&self, done: usize, total: usize, label: &str, dt: Duration) {
        if self.progress {
            if label.is_empty() {
                eprintln!("[{} {done}/{total}] {dt:.2?}", self.name);
            } else {
                eprintln!("[{} {done}/{total}] {label} ({dt:.2?})", self.name);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gate floors `min_host` at 2 and requires >= 2 workers; the
    /// JSON header keeps every field on a `parallelism`-bearing line so
    /// invariance tests can strip it wholesale.
    #[test]
    fn parallelism_report_gates_and_serializes() {
        let r = ParallelismReport {
            host: 4,
            jobs: 4,
            observed: 3,
        };
        assert!(r.can_assert_speedup(2));
        assert!(r.can_assert_speedup(4));
        assert!(!r.can_assert_speedup(5));
        assert!(!ParallelismReport { jobs: 1, ..r }.can_assert_speedup(2));
        assert!(!ParallelismReport { host: 1, ..r }.can_assert_speedup(0));
        let json = r.json_fields();
        for key in [
            "\"jobs\": 4",
            "\"host_parallelism\": 4",
            "\"observed_parallelism\": 3",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(
            json.lines().all(|l| l.contains("parallelism")),
            "every header line must be strippable by a 'parallelism' filter: {json}"
        );
        assert!(r.skip_note().contains("host parallelism 4"));
        let captured = ParallelismReport::capture(7);
        assert_eq!(captured.jobs, 7);
        assert!(captured.host >= 1);
    }

    #[test]
    fn seed_depends_on_name_and_index() {
        assert_eq!(point_seed("a", 7), point_seed("a", 7));
        assert_ne!(point_seed("a", 0), point_seed("a", 1));
        assert_ne!(point_seed("a", 0), point_seed("b", 0));
        // Seeds along one experiment form a pairwise-distinct sequence.
        let seeds: Vec<u64> = (0..64).map(|i| point_seed("exp", i)).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len(), "seed collision");
    }

    #[test]
    fn ordered_merge_restores_point_order() {
        // Points finish in scrambled order (later points are cheaper),
        // but rows come back in submission order.
        let points: Vec<_> = (0..16u64)
            .map(|i| {
                FnPoint::new(format!("p{i}"), move || {
                    // Unequal work so completion order differs from
                    // submission order under parallel execution.
                    let mut acc = point_seed("order", i);
                    for _ in 0..(16 - i) * 5_000 {
                        acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    }
                    (i, acc)
                })
            })
            .collect();
        let rows = SweepRunner::new("order", 4).quiet().run(points);
        for (i, &(idx, _)) in rows.iter().enumerate() {
            assert_eq!(i as u64, idx, "row {i} out of order");
        }
    }

    #[test]
    fn parallel_rows_match_sequential() {
        let mk = || {
            (0..12u64)
                .map(|i| {
                    FnPoint::new(String::new(), move || {
                        let mut rng = crate::SplitMix64::new(point_seed("par", i));
                        (0..100).fold(0u64, |a, _| a.wrapping_add(rng.next_u64()))
                    })
                })
                .collect::<Vec<_>>()
        };
        let seq = SweepRunner::new("par", 1).quiet().run(mk());
        let par = SweepRunner::new("par", 4).quiet().run(mk());
        assert_eq!(seq, par);
    }

    #[test]
    fn par_map_borrows_non_static_items() {
        let words: Vec<String> = (0..10).map(|i| format!("w{i}")).collect();
        let prefix = String::from(">");
        let out = par_map(words.iter().collect(), 3, |w| format!("{prefix}{w}"));
        let expect: Vec<String> = words.iter().map(|w| format!(">{w}")).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn par_map_runs_items_concurrently_and_counts_them() {
        // Each item waits until both are in flight, so both return
        // `true` only if the calling thread and the spawned worker
        // really run side by side. The deadline turns a serialized
        // run into a failure instead of a hang.
        let arrived = AtomicUsize::new(0);
        let out = par_map(vec![0u8, 1], 2, |_| {
            arrived.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(30);
            while arrived.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                std::thread::yield_now();
            }
            arrived.load(Ordering::SeqCst) == 2
        });
        assert_eq!(out, vec![true, true]);
        assert!(observed_parallelism() >= 2);
    }

    #[test]
    fn nested_sweeps_fan_out_again() {
        // A point that itself runs a parallel sweep must complete with
        // correct rows: scoped threads have no shared pool to exhaust.
        let points: Vec<_> = (0..3u64)
            .map(|outer| {
                FnPoint::new(format!("outer{outer}"), move || {
                    let inner: Vec<_> = (0..4u64)
                        .map(|i| FnPoint::new(String::new(), move || outer * 10 + i))
                        .collect();
                    SweepRunner::new("inner", 4).quiet().run(inner)
                })
            })
            .collect();
        let rows = SweepRunner::new("outer", 2).quiet().run(points);
        for (outer, inner_rows) in rows.iter().enumerate() {
            let expect: Vec<u64> = (0..4).map(|i| outer as u64 * 10 + i).collect();
            assert_eq!(*inner_rows, expect);
        }
    }

    fn injected_failure() -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::WouldBlock, "injected spawn failure")
    }

    /// With every spawn failing, the calling thread drains the whole
    /// queue itself, and spawning stops at the first failure.
    #[test]
    fn spawn_failure_runs_every_item_on_the_caller() {
        let attempts = std::cell::Cell::new(0usize);
        let out = par_map_with(
            (0..16u64).collect(),
            4,
            |i| i * 3,
            |_, _, _| {
                attempts.set(attempts.get() + 1);
                Err(injected_failure())
            },
        );
        assert_eq!(out, (0..16u64).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(attempts.get(), 1, "spawning must stop at the first error");
    }

    /// Partial growth: the first spawn succeeds, the second fails. The
    /// one worker and the calling thread share the queue and every row
    /// still comes back, in order.
    #[test]
    fn partial_spawn_failure_still_returns_every_row() {
        let attempts = std::cell::Cell::new(0usize);
        let out = par_map_with(
            (0..64u64).collect(),
            4,
            |i| point_seed("partial", i),
            |i, scope, body| {
                attempts.set(attempts.get() + 1);
                if attempts.get() >= 2 {
                    return Err(injected_failure());
                }
                Builder::new()
                    .name(format!("test-par-{i}"))
                    .spawn_scoped(scope, body)
                    .map(drop)
            },
        );
        assert_eq!(
            out,
            (0..64u64)
                .map(|i| point_seed("partial", i))
                .collect::<Vec<_>>()
        );
        assert_eq!(attempts.get(), 2);
    }

    #[test]
    fn jobs_resolution_prefers_env() {
        // Serialize with other env-reading tests by using a dedicated
        // runner rather than mutating the process environment here;
        // just check the clamp and default path.
        assert!(default_jobs() >= 1);
        assert_eq!(SweepRunner::new("x", 0).jobs(), 1);
    }
}
