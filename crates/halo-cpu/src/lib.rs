//! # halo-cpu
//!
//! The out-of-order core timing model of the HALO reproduction: micro-op
//! dependency DAGs ([`Program`]), a bounded-window list scheduler
//! ([`CoreModel`]) honoring issue width, ROB/LQ/SQ occupancy and MSHR
//! limits (Table 2 of the paper), and [`build_sw_lookup`], which turns a
//! table [`halo_tables::LookupTrace`] into the ~210-instruction x86
//! program that Table 1 measures for a DPDK cuckoo lookup.
//!
//! # Examples
//!
//! ```
//! use halo_cpu::{build_sw_lookup, CoreModel, Scratch};
//! use halo_mem::{CoreId, MachineConfig, MemorySystem};
//! use halo_sim::Cycle;
//! use halo_tables::{CuckooTable, FlowKey};
//!
//! let mut sys = MemorySystem::new(MachineConfig::small());
//! let mut table = CuckooTable::create(sys.data_mut(), 256, 13);
//! let key = FlowKey::synthetic(1, 13);
//! table.insert(sys.data_mut(), &key, 42).unwrap();
//!
//! let trace = table.lookup_traced(sys.data_mut(), &key, true);
//! let mut scratch = Scratch::new(&mut sys);
//! scratch.warm(&mut sys, CoreId(0));
//! let prog = build_sw_lookup(&trace, &mut scratch, None);
//!
//! let mut core = CoreModel::new(CoreId(0), sys.config());
//! let report = core.run(&prog, &mut sys, Cycle(0));
//! assert!(report.duration().0 > 0);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod core;
mod swlookup;
mod uop;

pub use crate::core::{CoreModel, ExecReport, MemProfile};
pub use swlookup::{
    build_sw_lookup, build_sw_lookup_bulk, build_sw_lookup_into, Scratch, SW_ARITH_FRACTION,
    SW_LOAD_FRACTION, SW_LOOKUP_INSTRUCTIONS, SW_STORE_FRACTION,
};
pub use uop::{Program, UopId, UopKind};
