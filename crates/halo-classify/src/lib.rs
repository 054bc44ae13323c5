//! # halo-classify
//!
//! The flow-classification layers of an OVS-style virtual switch
//! (Fig. 2a of the paper):
//!
//! * [`PacketHeader`] / miniflow extraction — packet pre-processing.
//! * [`Emc`] — the Exact Match Cache, one full-key probe, no masking.
//! * [`TupleSpace`] — tuple space search for the MegaFlow layer
//!   ([`SearchMode::FirstMatch`]) and the OpenFlow layer
//!   ([`SearchMode::HighestPriority`]), built on wildcard
//!   [`WildcardMask`]s over cuckoo tables.
//!
//! All tables live in simulated memory, so `halo-cpu` (software) and
//! `halo-accel` (near-cache) can time the identical access streams.
//!
//! # Examples
//!
//! ```
//! use halo_classify::{distinct_masks, Emc, PacketHeader, SearchMode, TupleSpace};
//! use halo_mem::SimMemory;
//!
//! let mut mem = SimMemory::new();
//! let mut emc = Emc::new(&mut mem, 1024);
//! let mut megaflow = TupleSpace::new(&mut mem, distinct_masks(5), 1024,
//!                                    SearchMode::FirstMatch);
//! let pkt = PacketHeader::synthetic(1);
//! megaflow.insert_rule(&mut mem, 2, &pkt.miniflow(), 0, 7).unwrap();
//!
//! // EMC miss -> MegaFlow hit -> promote into the EMC.
//! assert_eq!(emc.lookup(&mut mem, &pkt.miniflow()), None);
//! let hit = megaflow.classify(&mut mem, &pkt.miniflow()).unwrap();
//! emc.insert(&mut mem, &pkt.miniflow(), hit.action);
//! assert_eq!(emc.lookup(&mut mem, &pkt.miniflow()), Some(7));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dtree;
mod emc;
mod mask;
mod packet;
mod range;
mod rvh;
mod tss;

pub use dtree::DecisionTree;
pub use emc::{Emc, EMC_DEFAULT_ENTRIES, EMC_WAYS};
pub use mask::{distinct_masks, WildcardMask};
pub use packet::{PacketHeader, MINIFLOW_LEN};
pub use range::{
    prefix_decompose, FieldRange, FieldSpec, PrefixRule, RangeRule, FIELDS, NUM_FIELDS,
};
pub use rvh::{RvhTable, RVH_VECTORS};
pub use tss::{
    decode_rule, encode_rule, try_encode_rule, ActionRangeError, RuleError, RuleMatch, SearchMode,
    Tuple, TupleSpace,
};
