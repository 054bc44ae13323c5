//! # halo-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! HALO paper's evaluation. Each experiment lives in its own module
//! under [`experiments`]; the `figures` binary drives them from the
//! command line (use `--jobs N` or `HALO_JOBS` to fan sweep points over
//! worker threads).
//!
//! | Paper result | Module | CLI |
//! |---|---|---|
//! | Fig. 3 (packet-processing breakdown) | [`experiments::fig3`] | `figures fig3` |
//! | Fig. 4 (cuckoo vs SFH cache behaviour) | [`experiments::fig4`] | `figures fig4` |
//! | Table 1 (instructions per lookup) | [`experiments::table1`] | `figures table1` |
//! | Fig. 8b (flow-register accuracy) | [`experiments::fig8b`] | `figures fig8b` |
//! | Fig. 9 (single-table lookup throughput) | [`experiments::fig9`] | `figures fig9` |
//! | Fig. 10 (lookup latency breakdown) | [`experiments::fig10`] | `figures fig10` |
//! | Fig. 11 (tuple space search scaling) | [`experiments::fig11`] | `figures fig11` |
//! | Fig. 12 (co-located NF interference) | [`experiments::fig12`] | `figures fig12` |
//! | Table 4 (power/area, energy efficiency) | [`experiments::table4`] | `figures table4` |
//! | Fig. 13 (hash-table NF speedups) | [`experiments::fig13`] | `figures fig13` |
//! | Ablations (DESIGN.md §6) | [`experiments::ablation`] | `figures ablation` |

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod parallel_bench;
pub mod trace_bench;
