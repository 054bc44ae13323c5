//! # halo-mem
//!
//! The simulated multi-core memory hierarchy underneath the HALO
//! reproduction: sparse physical memory, private L1D/L2 caches, a NUCA
//! last-level cache sliced across CHAs, a ring interconnect, a sharer
//! directory with HALO's hardware lock bits, and DRAM channels.
//!
//! The central type is [`MemorySystem`]; workloads allocate their data
//! structures in its [`SimMemory`] and then issue timed accesses from
//! cores ([`MemorySystem::access`]) or from CHA-attached accelerators
//! ([`MemorySystem::accel_access`]).
//!
//! # Examples
//!
//! ```
//! use halo_mem::{AccessKind, Addr, CoreId, MachineConfig, MemorySystem};
//! use halo_sim::Cycle;
//!
//! let mut sys = MemorySystem::new(MachineConfig::small());
//! let buf = sys.data_mut().alloc_lines(4096);
//! sys.data_mut().write_u64(buf, 7);
//! let out = sys.access(CoreId(0), buf, AccessKind::Load, Cycle(0));
//! assert_eq!(sys.data_mut().read_u64(buf), 7);
//! assert!(out.complete > Cycle(0));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod cache;
mod config;
mod epoch;
mod memory;
mod system;
mod walk;

pub use addr::{Addr, CoreId, LineAddr, SliceId, CACHE_LINE};
pub use cache::{CacheArray, Eviction, LineMeta, LineState};
pub use config::{CacheGeometry, MachineConfig};
pub use epoch::{CoreMem, CowMem, EpochCore, MemCtx, WindowOutcome};
pub use memory::SimMemory;
pub use system::{AccessKind, AccessOutcome, HitLevel, MemorySystem};
