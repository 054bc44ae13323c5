//! # halo-accel
//!
//! The paper's primary contribution: HALO's distributed near-cache
//! accelerators for flow-rule lookup.
//!
//! * [`HaloAccelerator`] — the per-CHA engine of Fig. 6 (scoreboard,
//!   pipelined hash unit, comparators, metadata cache), executing lookup
//!   traces against its local LLC slice.
//! * [`HaloEngine`] — all accelerators plus the query distributor in the
//!   on-chip interconnect, exposed through the three x86-64 instruction
//!   primitives of §4.5: [`HaloEngine::lookup_b`] (blocking),
//!   [`HaloEngine::lookup_nb`] (non-blocking, result stored to memory),
//!   and [`HaloEngine::snapshot_read`] (coherence-neutral result poll).
//! * [`FlowRegister`] — the linear-counting active-flow estimator (§4.6).
//! * [`HybridClassifier`] — the adaptive software/HALO mode switch.
//! * Hardware-assisted locking (§4.4) is implemented with the LLC line
//!   lock bits of [`halo_mem::MemorySystem`]; the accelerator pins every
//!   bucket/key-value line it touches until the query commits.
//!
//! # Examples
//!
//! ```
//! use halo_accel::{AcceleratorConfig, HaloEngine};
//! use halo_mem::{CoreId, MachineConfig, MemorySystem};
//! use halo_sim::Cycle;
//! use halo_tables::{CuckooTable, FlowKey};
//!
//! let mut sys = MemorySystem::new(MachineConfig::small());
//! let mut engine = HaloEngine::new(&sys, AcceleratorConfig::default());
//! let mut table = CuckooTable::create(sys.data_mut(), 256, 13);
//! for id in 0..100 {
//!     table.insert(sys.data_mut(), &FlowKey::synthetic(id, 13), id).unwrap();
//! }
//! let (v, _done) = engine.lookup_b(
//!     &mut sys, CoreId(0), &table, &FlowKey::synthetic(42, 13), None, Cycle(0));
//! assert_eq!(v, Some(42));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod accel;
mod engine;
mod flowreg;
mod hybrid;
mod metadata;

pub use accel::{AcceleratorConfig, HaloAccelerator, QueryOutcome};
pub use engine::{DispatchPolicy, HaloEngine, NbHandle, NB_MISS};
pub use flowreg::FlowRegister;
pub use hybrid::{HybridClassifier, HybridConfig, Mode};
pub use metadata::{MetadataCache, METADATA_CACHE_TABLES};
