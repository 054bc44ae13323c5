//! # halo-check
//!
//! Correctness tooling for the HALO reproduction. gem5 gave the paper's
//! authors a correct memory system for free; this simulator must prove
//! its own, so `halo-check` supplies three layers:
//!
//! * **Differential oracle** ([`oracle`], [`run_differential`]) — a
//!   trivially-correct reference map driven by the same SplitMix64-seeded
//!   op stream as every exact-match backend ([`exact_driver`] over a
//!   [`TableBackend`](halo_datapath::TableBackend)),
//!   [`SfhTable`](halo_tables::SfhTable),
//!   [`KvStore`](halo_kvstore::KvStore),
//!   [`TcamTable`](halo_tcam::TcamTable), and
//!   [`HaloEngine`](halo_accel::HaloEngine) (whose `lookup_b` /
//!   `lookup_nb` / `snapshot_read` paths must all agree with plain
//!   software lookup and the oracle after every op). Failing sequences
//!   are automatically shrunk to a minimal replayable trace printed as a
//!   seed plus an op list ([`MinimalTrace`]). The churn variant
//!   ([`run_churn_differential`]) replays the streaming traffic
//!   engine's arrival/expiry stream — the insert/remove pressure a
//!   real datapath sees — against the same oracle on every exact-match
//!   backend, auditing invariants every [`AUDIT_EPOCH`] ops. The
//!   wildcard variant ([`run_wildcard_differential`]) replays
//!   range-rule churn and classification streams against a linear-scan
//!   [`RangeOracle`] on every wildcard backend (TSS expansion and
//!   RVH), comparing `(priority, action)` winners.
//! * **Invariant auditor** ([`audit_system`], [`audit_exact`],
//!   [`audit_table_placement`]) — walks
//!   [`MemorySystem`](halo_mem::MemorySystem)/cache state and the table
//!   layout, asserting the structural invariants the paper assumes:
//!   L1/L2/LLC inclusion, directory agreement, at most one owner per
//!   line, no hardware lock held past its release cycle (the lock lives
//!   in its LLC line, so it cannot outlive the line or disagree with
//!   it), cuckoo length/occupancy consistent with live entries, and every
//!   table line homed on the CHA slice the layout promises. Per-op
//!   auditing inside the harnesses sits behind the cheap `audit` cargo
//!   feature (or the `HALO_AUDIT` environment variable).
//! * **Fault injector** ([`run_fault_injection`]) — from a seeded
//!   schedule, forces adversarial evictions, accelerator-queue stalls,
//!   and mid-displacement cuckoo-move preemptions, then checks the
//!   oracle still agrees and the auditor finds zero violations — turning
//!   "atomicity via lock bit" from an asserted property into a tested
//!   one.
//!
//! # Examples
//!
//! ```
//! use halo_check::{exact_driver, run_differential};
//! use halo_datapath::TableBackend;
//!
//! run_differential("doc.cuckoo", 2, 60, 256, |ops| {
//!     exact_driver(TableBackend::Cuckoo, ops)
//! })
//! .expect("cuckoo agrees with the oracle");
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod audit;
mod churn;
mod fault;
mod oracle;
mod shrink;
mod wildcard;

pub use audit::{
    audit_cuckoo, audit_emoma, audit_exact, audit_system, audit_table_placement, Violation,
};
pub use churn::{churn_driver, churn_ops, run_churn_differential, AUDIT_EPOCH};
pub use fault::{run_fault_injection, FaultConfig, FaultReport};
pub use oracle::{
    buggy_cuckoo_driver, engine_driver, exact_driver, flow_table_driver, gen_ops, kvstore_driver,
    sfh_driver, tcam_driver, Op, KEY_LEN,
};
pub use shrink::{run_differential, shrink_ops, MinimalTrace};
pub use wildcard::{
    run_wildcard_differential, wildcard_driver, wildcard_ops, RangeOracle, WildcardOp,
};

/// Whether per-op invariant auditing is active inside the harnesses:
/// compiled in with the `audit` cargo feature, or switched on at runtime
/// via a non-`0` `HALO_AUDIT` environment variable. Final-state audits
/// run unconditionally.
#[must_use]
pub fn audit_enabled() -> bool {
    cfg!(feature = "audit") || std::env::var_os("HALO_AUDIT").is_some_and(|v| v != "0")
}
