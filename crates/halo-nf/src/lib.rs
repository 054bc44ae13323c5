//! # halo-nf
//!
//! Network-function workloads and traffic generation for the HALO
//! evaluation:
//!
//! * [`TrafficGen`] / [`Scenario`] — the IXIA-like synthetic packet
//!   source with the five Fig. 3 configurations
//!   ([`fig3_configs`]).
//! * [`StreamingTrafficGen`] / [`StreamConfig`] — the million-flow
//!   adversarial streaming engine: Zipf skew over a churning live set,
//!   elephant/mice mixes, and DDoS floods, all O(1) per packet.
//! * [`ComputeNf`] — ACL / Snort / mTCP models for the co-location
//!   interference study (Fig. 12).
//! * [`HashNf`] — NAT / prads / packet-filter models, the hash-table-
//!   dominated NFs HALO accelerates end to end (Fig. 13, Table 3).
//! * [`colocation_experiment`] — the SMT co-run harness measuring NF
//!   throughput loss and L1D pollution under a software or HALO switch
//!   sibling.
//!
//! # Examples
//!
//! ```
//! use halo_nf::{fig3_configs, TrafficGen};
//!
//! let (name, scenario) = fig3_configs()[0];
//! let mut gen = TrafficGen::new(scenario, 7);
//! let pkt = gen.next_packet();
//! assert!(!name.is_empty());
//! assert_eq!(pkt.miniflow().len(), 16);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod colocate;
mod compute_nf;
mod hash_nf;
mod rulesets;
mod streaming;
mod traffic;

pub use colocate::{colocation_experiment, ColocationReport, SwitchImpl};
pub use compute_nf::{ComputeNf, ComputeNfKind};
pub use hash_nf::{HashNf, HashNfKind, HashNfReport};
pub use rulesets::{generate_ruleset, ruleset_traffic, sample_point, RulesetShape};
pub use streaming::{StreamConfig, StreamingTrafficGen};
pub use traffic::{fig3_configs, Scenario, TrafficGen};
