//! Churn differential: the streaming traffic engine's arrival/expiry
//! stream replayed against a `HashMap` oracle on every exact-match
//! backend.
//!
//! [`gen_ops`](crate::gen_ops)-based differentials exercise uniformly
//! random op mixes; real datapaths see something nastier — a large
//! live set installed up front, then a sustained stream of paired
//! inserts and removes (flow churn) interleaved with skewed lookups.
//! That shape drives cuckoo displacement chains through *occupied*
//! tables, reverses Cuckoo++ presence filters under remove pressure,
//! and re-homes EMOMA entries while their CBF steering is hot. The
//! churn driver replays exactly that stream, checks the oracle after
//! every op, and runs the backend's invariant auditor at a fixed epoch
//! cadence (plus a final audit), shrinking any failure with the same
//! ddmin pass as [`run_differential`](crate::run_differential).

use std::collections::HashMap;

use halo_datapath::{TableBackend, TrafficEvent};
use halo_mem::SimMemory;
use halo_nf::{StreamConfig, StreamingTrafficGen};
use halo_sim::point_seed;
use halo_tables::{FlowKey, FlowTable};

use crate::audit::audit_exact;
use crate::oracle::{Op, KEY_LEN};
use crate::shrink::{shrink_ops, MinimalTrace};

/// Ops between invariant audits inside [`churn_driver`]. Final-state
/// audits run unconditionally on top of the cadence.
pub const AUDIT_EPOCH: usize = 64;

fn fold(flow: u64, key_space: u16) -> u16 {
    (flow % u64::from(key_space.max(1))) as u16
}

fn key(k: u16) -> FlowKey {
    FlowKey::synthetic(u64::from(k), KEY_LEN)
}

/// Converts a churn-preset streaming run into a replayable op
/// sequence: the initial live set as inserts, then `events` generator
/// steps with arrivals as inserts, expiries as removes, and packets as
/// lookups. Flow ids are folded into a `key_space`-sized universe —
/// aliasing is fine because the table and the oracle see the identical
/// stream.
#[must_use]
pub fn churn_ops(flows: usize, events: usize, key_space: u16, seed: u64) -> Vec<Op> {
    let mut gen = StreamingTrafficGen::new(StreamConfig::churn(flows), seed);
    let mut ops: Vec<Op> = gen
        .live_flows()
        .iter()
        .map(|&f| Op::Insert(fold(f, key_space), f))
        .collect();
    for _ in 0..events {
        ops.push(match gen.next_event() {
            TrafficEvent::Arrival(f) => Op::Insert(fold(f, key_space), f),
            TrafficEvent::Expiry(f) => Op::Remove(fold(f, key_space)),
            TrafficEvent::Packet(f) => Op::Lookup(fold(f, key_space)),
        });
    }
    ops
}

/// Replays `ops` against a fresh `backend` table (sized for the whole
/// `key_space` at 75% occupancy, so honest inserts have headroom) and
/// a `HashMap` oracle, checking lookups, removes, and the length after
/// every op and auditing the backend's invariants every
/// [`AUDIT_EPOCH`] ops and at the end. Inserts the backend rejects
/// (e.g. an exhausted EMOMA cascade) are skipped in the model too,
/// unless the key is present — updates must succeed in place.
#[must_use]
pub fn churn_driver(backend: TableBackend, key_space: u16, ops: &[Op]) -> Option<String> {
    let mut mem = SimMemory::new();
    let mut t = backend.build(&mut mem, usize::from(key_space.max(16)), 0.75, KEY_LEN);
    let mut model: HashMap<u16, u64> = HashMap::new();
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Insert(k, v) => {
                if t.insert(&mut mem, &key(k), v).is_ok() {
                    model.insert(k, v);
                } else if model.contains_key(&k) {
                    return Some(format!("op {i} ({op}): update of present key rejected"));
                }
            }
            Op::Remove(k) => {
                let got = t.remove(&mut mem, &key(k));
                let want = model.remove(&k);
                if got != want {
                    return Some(format!(
                        "op {i} ({op}): remove returned {got:?}, oracle says {want:?}"
                    ));
                }
            }
            Op::Lookup(k) | Op::Move(k) => {
                let got = t.lookup(&mem, &key(k));
                let want = model.get(&k).copied();
                if got != want {
                    return Some(format!(
                        "op {i} ({op}): lookup returned {got:?}, oracle says {want:?}"
                    ));
                }
            }
        }
        if t.len() != model.len() {
            return Some(format!(
                "op {i} ({op}): len {} diverged from oracle {}",
                t.len(),
                model.len()
            ));
        }
        if (i + 1) % AUDIT_EPOCH == 0 {
            if let Some(v) = audit_exact(&t, &mut mem).into_iter().next() {
                return Some(format!("op {i} ({op}): epoch audit violation: {v}"));
            }
        }
    }
    audit_exact(&t, &mut mem)
        .into_iter()
        .next()
        .map(|v| format!("final audit: {v}"))
}

/// Runs `cases` churn differential cases of `flows` initial flows plus
/// `events` streaming steps (folded into `key_space` keys) against
/// `backend`, seeding case `i` with `point_seed(name, i)`. On the
/// first divergence the sequence is ddmin-shrunk and returned as a
/// [`MinimalTrace`], exactly like
/// [`run_differential`](crate::run_differential).
///
/// # Errors
///
/// Returns the shrunken counterexample if any case diverges.
pub fn run_churn_differential(
    name: &str,
    cases: u64,
    flows: usize,
    events: usize,
    key_space: u16,
    backend: TableBackend,
) -> Result<(), MinimalTrace> {
    for i in 0..cases {
        let seed = point_seed(name, i);
        let ops = churn_ops(flows, events, key_space, seed);
        let mut driver = |ops: &[Op]| churn_driver(backend, key_space, ops);
        if driver(&ops).is_some() {
            let (min_ops, error) = shrink_ops(&ops, &mut driver);
            return Err(MinimalTrace {
                seed,
                ops: min_ops,
                error,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_ops_start_with_the_live_set_and_pair_churn() {
        let flows = 100;
        let ops = churn_ops(flows, 600, 1 << 12, 7);
        assert!(ops[..flows].iter().all(|op| matches!(op, Op::Insert(..))));
        let inserts = ops[flows..]
            .iter()
            .filter(|op| matches!(op, Op::Insert(..)))
            .count();
        let removes = ops[flows..]
            .iter()
            .filter(|op| matches!(op, Op::Remove(..)))
            .count();
        assert_eq!(inserts, removes, "churn arrivals pair with expiries");
        assert!(inserts > 0, "600 steps at 5% churn should churn");
        assert_eq!(ops, churn_ops(flows, 600, 1 << 12, 7), "deterministic");
    }

    #[test]
    fn every_backend_survives_the_churn_suite() {
        for backend in TableBackend::all() {
            run_churn_differential(
                &format!("churn.{}", backend.name()),
                2,
                160,
                500,
                1 << 11,
                backend,
            )
            .unwrap_or_else(|t| panic!("{}: {t}", backend.name()));
        }
    }

    /// A deliberately broken replay — removes are applied to the model
    /// but only every other one reaches the table — must be caught by
    /// the oracle and shrink to a short trace.
    #[test]
    fn lossy_removes_are_caught_and_shrunk() {
        let lossy = |ops: &[Op]| -> Option<String> {
            let mut mem = SimMemory::new();
            let mut t = TableBackend::Cuckoo.build(&mut mem, 1 << 11, 0.75, KEY_LEN);
            let mut model: HashMap<u16, u64> = HashMap::new();
            let mut drop_toggle = false;
            for (i, &op) in ops.iter().enumerate() {
                match op {
                    Op::Insert(k, v) => {
                        let _ = t.insert(&mut mem, &key(k), v);
                        model.insert(k, v);
                    }
                    Op::Remove(k) => {
                        if drop_toggle {
                            t.remove(&mut mem, &key(k));
                        }
                        drop_toggle = !drop_toggle;
                        model.remove(&k);
                    }
                    Op::Lookup(k) | Op::Move(k) => {
                        if t.lookup(&mem, &key(k)) != model.get(&k).copied() {
                            return Some(format!("op {i}: lookup diverged"));
                        }
                    }
                }
                if t.len() != model.len() {
                    return Some(format!("op {i}: len diverged"));
                }
            }
            None
        };
        let seed = point_seed("churn.lossy", 0);
        let ops = churn_ops(64, 800, 256, seed);
        assert!(lossy(&ops).is_some(), "the planted bug must trip");
        let (min_ops, err) = shrink_ops(&ops, lossy);
        assert!(err.contains("diverged"), "unexpected error: {err}");
        assert!(
            min_ops.len() <= 6,
            "expected a short trace, got {} ops",
            min_ops.len()
        );
    }
}
