//! # halo-tables
//!
//! Flow-table substrate for the HALO reproduction: the DPDK
//! `rte_hash`-style [`CuckooTable`] (8-way buckets, 16-bit signatures,
//! separate key-value array, each bucket aligned to one cache line), the
//! single-function-hash [`SfhTable`] baseline of §3.3, and two
//! literature variants that change exactly the access pattern the
//! simulator models, each written as "the cuckoo table plus one
//! filter": Cuckoo++ ([`CuckooTable::with_presence_filter`]: per-bucket
//! presence filters kill the secondary probe on negative lookups) and
//! [`EmomaTable`] (an on-chip counting Bloom filter steers every lookup
//! to a single bucket access). Both cuckoo-family tables embed one
//! storage skeleton (layout, version line, free list, counters, bucket
//! scans) and share one [`PendingMove`]. All tables are laid out in
//! simulated physical memory so the cache model observes the real
//! access patterns.
//!
//! Lookups can be *traced* ([`LookupTrace`]): the ordered memory/compute
//! steps are the common contract consumed by the software core model
//! (`halo-cpu`) and the near-cache accelerator (`halo-accel`).
//!
//! # Examples
//!
//! ```
//! use halo_mem::SimMemory;
//! use halo_tables::{CuckooTable, FlowKey};
//!
//! let mut mem = SimMemory::new();
//! let mut table = CuckooTable::with_capacity_for(&mut mem, 100, 0.9, 13);
//! for id in 0..100 {
//!     table.insert(&mut mem, &FlowKey::synthetic(id, 13), id).unwrap();
//! }
//! let trace = table.lookup_traced(&mut mem, &FlowKey::synthetic(7, 13), false);
//! assert_eq!(trace.result, Some(7));
//! assert!(trace.memory_steps() >= 2); // meta + bucket (+ kv)
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cuckoo;
mod emoma;
mod flowtable;
mod hash;
mod key;
mod layout;
mod path;
mod sfh;
mod skeleton;
mod trace;

pub use cuckoo::{CuckooTable, TableFullError, FILTER_OFF, FILTER_SLOTS};
pub use emoma::EmomaTable;
pub use flowtable::FlowTable;
pub use hash::{bucket_pair, hash_key, signature, SEED_PRIMARY, SEED_SECONDARY};
pub use key::{FlowKey, MAX_KEY_LEN};
pub use layout::{allocate_table, buckets_for, TableMeta, ENTRIES_PER_BUCKET};
pub use sfh::{BucketFullError, SfhTable};
pub use skeleton::PendingMove;
pub use trace::{LookupTrace, TraceStep};
