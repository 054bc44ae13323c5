//! # halo-nfv
//!
//! A Rust reproduction of **HALO: Accelerating Flow Classification for
//! Scalable Packet Processing in NFV** (Yuan, Wang, Wang, Huang —
//! ISCA 2019).
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! * [`sim`] — deterministic simulation substrate (cycles, resources,
//!   RNG, stats).
//! * [`mem`] — the simulated memory hierarchy: NUCA LLC slices, CHA
//!   directory with HALO lock bits, interconnect, DRAM.
//! * [`cpu`] — the out-of-order core timing model and the Table-1
//!   software-lookup program builder.
//! * [`tables`] — DPDK-style cuckoo hash and single-function-hash flow
//!   tables over simulated memory.
//! * [`accel`] — **the paper's contribution**: per-CHA near-cache
//!   accelerators, the query distributor, the `LOOKUP_B` / `LOOKUP_NB` /
//!   `SNAPSHOT_READ` instruction primitives, the linear-counting flow
//!   register, and the hybrid HW/SW mode.
//! * [`tcam`] — TCAM and SRAM-TCAM baselines.
//! * [`classify`] — EMC, MegaFlow and OpenFlow tuple space search, and
//!   the §4.8 tree-index extension.
//! * [`datapath`] — the unified classification datapath: the
//!   [`LookupBackend`](datapath::LookupBackend) dispatch modes, the
//!   per-core [`LookupExecutor`](datapath::LookupExecutor), and the
//!   EMC → MegaFlow [`DatapathCore`](datapath::DatapathCore) stage every
//!   frontend drives.
//! * [`kvstore`] — a MemC3-style key-value store over the accelerated
//!   cuckoo index (§4.8).
//! * [`vswitch`] — the OVS-like layered datapath with per-packet cycle
//!   accounting.
//! * [`nf`] — network-function workload models and the IXIA-like
//!   traffic generator.
//! * [`power`] — analytical power/area models (Table 4).
//! * [`check`] — correctness tooling: the differential oracle with
//!   automatic trace shrinking, the cache/table invariant auditor, and
//!   the fault-injection harness (see DESIGN.md §8).
//!
//! # Quickstart
//!
//! ```
//! use halo_nfv::accel::{AcceleratorConfig, HaloEngine};
//! use halo_nfv::mem::{CoreId, MachineConfig, MemorySystem};
//! use halo_nfv::sim::Cycle;
//! use halo_nfv::tables::{CuckooTable, FlowKey};
//!
//! // Build a simulated 16-core server and a flow table in its memory.
//! let mut sys = MemorySystem::new(MachineConfig::default());
//! let mut engine = HaloEngine::new(&sys, AcceleratorConfig::default());
//! let mut table = CuckooTable::create(sys.data_mut(), 1024, 13);
//! table.insert(sys.data_mut(), &FlowKey::synthetic(1, 13), 42).unwrap();
//!
//! // Issue a blocking near-cache lookup from core 0.
//! let (value, done) = engine.lookup_b(
//!     &mut sys, CoreId(0), &table, &FlowKey::synthetic(1, 13), None, Cycle(0));
//! assert_eq!(value, Some(42));
//! assert!(done > Cycle(0));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub use halo_accel as accel;
pub use halo_check as check;
pub use halo_classify as classify;
pub use halo_cpu as cpu;
pub use halo_datapath as datapath;
pub use halo_kvstore as kvstore;
pub use halo_mem as mem;
pub use halo_nf as nf;
pub use halo_power as power;
pub use halo_sim as sim;
pub use halo_tables as tables;
pub use halo_tcam as tcam;
pub use halo_vswitch as vswitch;
