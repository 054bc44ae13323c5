//! # halo-sim
//!
//! Deterministic simulation substrate for the HALO reproduction
//! (Yuan et al., *HALO: Accelerating Flow Classification for Scalable
//! Packet Processing in NFV*, ISCA 2019).
//!
//! This crate provides the timing, randomness, and statistics primitives
//! every other crate in the workspace builds on:
//!
//! * [`Cycle`] / [`Cycles`] — absolute times and durations in core cycles.
//! * [`Resource`], [`BankedResource`], [`OutstandingWindow`] — the
//!   latency + occupancy model used for cache banks, CHA ports,
//!   accelerator hash units, DRAM channels, MSHRs, and scoreboards.
//! * [`SplitMix64`] / [`Zipf`] — seeded, reproducible random streams for
//!   workload generation.
//! * [`Stats`] — counter/summary registry each component reports into.
//! * [`Tracer`] / [`LatencyHistogram`] — the runtime-off-by-default
//!   cycle-attribution sink: per-op-class log2 latency histograms with
//!   p50/p95/p99/max plus a span ring buffer exportable as Chrome
//!   trace-event JSON (`chrome://tracing` / Perfetto).
//! * [`SweepRunner`] / [`SweepPoint`] / [`point_seed`] — the
//!   multi-threaded sweep runner that fans independent experiment
//!   points over worker threads with deterministic per-point seeding
//!   and an ordered merge (parallel output is byte-identical to
//!   sequential), built on [`par_map`], the scoped, ordered fan-out
//!   that also runs epoch windows.
//! * [`TextTable`] — shared result-table formatter for the experiment
//!   harness.
//! * [`hint::prefetch`] — a host-cache prefetch hint that changes no
//!   simulated state; it holds the workspace's only `unsafe` block.
//!
//! # Examples
//!
//! ```
//! use halo_sim::{Cycle, Cycles, Resource};
//!
//! // Model an unpipelined 34-cycle LLC slice bank.
//! let mut bank = Resource::unpipelined("llc-bank", Cycles(34));
//! let first = bank.serve(Cycle(0));
//! let second = bank.serve(Cycle(0)); // queues behind the first
//! assert_eq!(first, Cycle(34));
//! assert_eq!(second, Cycle(68));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cycle;
pub mod hint;
mod resource;
mod rng;
mod stats;
mod sweep;
mod table;
mod trace;

pub use cycle::{Cycle, Cycles, CORE_HZ};
pub use resource::{BankedResource, OutstandingWindow, Resource};
pub use rng::{SplitMix64, StreamZipf, Zipf};
pub use stats::{Counter, StatId, Stats, Summary};
pub use sweep::{
    default_jobs, observed_parallelism, par_map, point_seed, FnPoint, ParallelismReport,
    SweepPoint, SweepRunner, JOBS_ENV,
};
pub use table::{fmt_f64, TextTable};
pub use trace::{LatencyHistogram, TraceEvent, Tracer, DEFAULT_TRACE_CAPACITY, HIST_BUCKETS};
