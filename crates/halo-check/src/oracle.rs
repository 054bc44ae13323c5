//! The differential oracle: SplitMix64-seeded op streams replayed
//! against each target structure *and* a trivially-correct model map,
//! with agreement checked after every op.
//!
//! Each driver is a plain function from an op slice to an optional
//! divergence message, so the shrinker can re-run it on arbitrary
//! subsequences. Drivers build all state from scratch per call and are
//! fully deterministic.

use halo_accel::{AcceleratorConfig, HaloEngine};
use halo_datapath::TableBackend;
use halo_kvstore::KvStore;
use halo_mem::{CoreId, MachineConfig, MemorySystem, SimMemory};
use halo_sim::{Cycle, Cycles, SplitMix64};
use halo_tables::{
    bucket_pair, hash_key, signature, CuckooTable, FlowKey, FlowTable, SfhTable, TraceStep,
    ENTRIES_PER_BUCKET, SEED_PRIMARY,
};
use halo_tcam::TcamTable;
use std::collections::HashMap;
use std::fmt;

use crate::audit::{audit_cuckoo, audit_exact, audit_system, audit_table_placement};
use crate::audit_enabled;

/// Key length (bytes) of every generated flow key.
pub const KEY_LEN: usize = 13;

/// Values are generated below this bound so every value is encodable by
/// the `LOOKUP_NB` destination-word scheme (which reserves the all-ones
/// miss sentinel and the zero pending marker) and leaves headroom for
/// the TCAM driver's key-tagged action encoding.
const VALUE_BOUND: u64 = 1 << 40;

/// One operation of a differential test. The same stream drives every
/// target; structures without a native analogue degrade an op to a
/// lookup (e.g. `Move` on the SFH table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Insert or update `key -> value`.
    Insert(u16, u64),
    /// Remove the key (a lookup on remove-less targets).
    Remove(u16),
    /// Look the key up and compare with the oracle.
    Lookup(u16),
    /// Relocate the key's entry to its alternative bucket, then verify
    /// the lookup (cuckoo-backed targets; a plain lookup elsewhere).
    Move(u16),
}

impl Op {
    fn key_id(self) -> u16 {
        match self {
            Op::Insert(k, _) | Op::Remove(k) | Op::Lookup(k) | Op::Move(k) => k,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Insert(k, v) => write!(f, "Insert({k}, {v:#x})"),
            Op::Remove(k) => write!(f, "Remove({k})"),
            Op::Lookup(k) => write!(f, "Lookup({k})"),
            Op::Move(k) => write!(f, "Move({k})"),
        }
    }
}

/// Generates `n` ops over a `key_space`-sized key universe
/// (insert-biased so tables actually fill).
pub fn gen_ops(rng: &mut SplitMix64, n: usize, key_space: u16) -> Vec<Op> {
    (0..n)
        .map(|_| {
            let k = rng.below(u64::from(key_space.max(1))) as u16;
            match rng.below(8) {
                0..=2 => Op::Insert(k, rng.below(VALUE_BOUND)),
                3 => Op::Remove(k),
                4 => Op::Move(k),
                _ => Op::Lookup(k),
            }
        })
        .collect()
}

fn key(k: u16) -> FlowKey {
    FlowKey::synthetic(u64::from(k), KEY_LEN)
}

fn diverge(i: usize, op: Op, what: &str, got: impl fmt::Debug, want: impl fmt::Debug) -> String {
    format!("op {i} ({op}): {what} returned {got:?}, oracle says {want:?}")
}

fn bucket_loads(steps: &[TraceStep]) -> usize {
    steps
        .iter()
        .filter(|s| matches!(s, TraceStep::LoadBucket(_)))
        .count()
}

/// Replays `ops` against a `backend` table of `1 << 10` buckets (8192
/// slots) and a `HashMap` oracle, checking lookup results, remove
/// results, length, and free-list accounting after every op. `Move`
/// exercises the table's real two-phase displacement. Beyond the
/// [`flow_table_driver`] checks it enforces what each backend promises:
///
/// * the cuckoo tables never reject an insert with this much headroom;
///   EMOMA may (an exhausted cascade budget), and such an insert is
///   skipped in the model too unless the key is present — updates must
///   succeed in place;
/// * on Cuckoo++, a removed key's negative lookup takes a **single**
///   bucket probe (the presence filter's whole point);
/// * on EMOMA, every lookup takes exactly **one** bucket probe.
///
/// The backend's structural auditor runs per-op under
/// [`audit_enabled`](crate::audit_enabled) and always at the end.
/// Returns the first divergence, if any.
#[must_use]
pub fn exact_driver(backend: TableBackend, ops: &[Op]) -> Option<String> {
    let mut mem = SimMemory::new();
    let mut t = backend.create(&mut mem, 1 << 10, KEY_LEN);
    let emoma = backend == TableBackend::Emoma;
    let mut model: HashMap<u16, u64> = HashMap::new();
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Insert(k, v) => {
                if t.insert(&mut mem, &key(k), v).is_ok() {
                    model.insert(k, v);
                } else if !emoma {
                    return Some(format!("op {i} ({op}): insert rejected with headroom"));
                } else if model.contains_key(&k) {
                    return Some(format!("op {i} ({op}): update of present key rejected"));
                }
            }
            Op::Remove(k) => {
                let got = t.remove(&mut mem, &key(k));
                let want = model.remove(&k);
                if got != want {
                    return Some(diverge(i, op, "remove", got, want));
                }
                // Once a key is gone its negative lookup must cost one
                // bucket probe on a presence-filtered table.
                if want.is_some() && backend == TableBackend::CuckooPlusPlus {
                    let tr = t.lookup_traced(&mem, &key(k), false);
                    let probes = bucket_loads(&tr.steps);
                    if tr.result.is_some() || probes != 1 {
                        return Some(format!(
                            "op {i} ({op}): removed key still hot: result {:?}, {probes} probes",
                            tr.result
                        ));
                    }
                }
            }
            Op::Lookup(k) | Op::Move(k) => {
                if matches!(op, Op::Move(_)) {
                    if let Some(mv) = t.cuckoo_move_begin(&mut mem, &key(k)) {
                        t.cuckoo_move_commit(&mut mem, mv);
                    }
                }
                let tr = t.lookup_traced(&mem, &key(k), false);
                let want = model.get(&k).copied();
                if tr.result != want {
                    return Some(diverge(i, op, "lookup", tr.result, want));
                }
                let probes = bucket_loads(&tr.steps);
                if emoma && probes != 1 {
                    return Some(format!(
                        "op {i} ({op}): EMOMA lookup took {probes} bucket probes"
                    ));
                }
            }
        }
        if t.len() != model.len() {
            return Some(diverge(i, op, "len", t.len(), model.len()));
        }
        if t.len() + t.free_slots() != t.capacity() {
            return Some(format!(
                "op {i} ({op}): occupancy accounting broken: len {} + free {} != capacity {}",
                t.len(),
                t.free_slots(),
                t.capacity()
            ));
        }
        if audit_enabled() {
            if let Some(v) = audit_exact(&t, &mut mem).into_iter().next() {
                return Some(format!("op {i} ({op}): audit violation: {v}"));
            }
        }
    }
    if let Some(v) = audit_exact(&t, &mut mem).into_iter().next() {
        return Some(format!("final audit: {v}"));
    }
    None
}

/// Replays `ops` against any [`FlowTable`] implementation through the
/// trait alone, so one differential driver covers every table backend.
///
/// Semantics are degraded per the backend's capabilities, exactly as
/// the tuple space does: `Remove` becomes a lookup when
/// [`FlowTable::supports_remove`] is false, and `Move` (a cuckoo-only
/// notion) is always a lookup at the trait level. Inserts that fail on
/// a backend with limited headroom (e.g. an SFH bucket overflowing) are
/// skipped in the model too — unless the key is already present, in
/// which case an update must succeed in place.
#[must_use]
pub fn flow_table_driver<T: FlowTable>(
    mem: &mut SimMemory,
    table: &mut T,
    ops: &[Op],
) -> Option<String> {
    let mut model: HashMap<u16, u64> = HashMap::new();
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Insert(k, v) => {
                if table.insert(mem, &key(k), v).is_ok() {
                    model.insert(k, v);
                } else if model.contains_key(&k) {
                    // A present key always updates in place.
                    return Some(format!("op {i} ({op}): update of present key rejected"));
                }
            }
            Op::Remove(k) if table.supports_remove() => {
                let got = table.remove(mem, &key(k));
                let want = model.remove(&k);
                if got != want {
                    return Some(diverge(i, op, "remove", got, want));
                }
            }
            Op::Remove(k) | Op::Lookup(k) | Op::Move(k) => {
                let got = table.lookup(mem, &key(k));
                let want = model.get(&k).copied();
                if got != want {
                    return Some(diverge(i, op, "lookup", got, want));
                }
            }
        }
        if table.len() != model.len() {
            return Some(diverge(i, op, "len", table.len(), model.len()));
        }
    }
    None
}

/// Replays `ops` against an [`SfhTable`] via [`flow_table_driver`]. The
/// SFH has no remove and no cuckoo move, so those ops degrade to
/// lookups; inserts a full bucket rejects are skipped in the oracle too.
#[must_use]
pub fn sfh_driver(ops: &[Op]) -> Option<String> {
    let mut mem = SimMemory::new();
    let mut t = SfhTable::create(&mut mem, 1 << 12, KEY_LEN);
    flow_table_driver(&mut mem, &mut t, ops)
}

/// Replays `ops` against a [`KvStore`] (cuckoo-indexed log store) with
/// 8-byte values derived from the op value.
#[must_use]
pub fn kvstore_driver(ops: &[Op]) -> Option<String> {
    let mut sys = MemorySystem::new(MachineConfig::small());
    let mut kv = KvStore::new(&mut sys, 4096);
    let mut model: HashMap<u16, u64> = HashMap::new();
    for (i, &op) in ops.iter().enumerate() {
        let kbytes = format!("k{}", op.key_id()).into_bytes();
        match op {
            Op::Insert(k, v) => {
                if let Err(e) = kv.set(&mut sys, &kbytes, &v.to_le_bytes()) {
                    return Some(format!("op {i} ({op}): set failed: {e:?}"));
                }
                model.insert(k, v);
            }
            Op::Remove(k) => {
                let got = kv.delete(&mut sys, &kbytes);
                let want = model.remove(&k).is_some();
                if got != want {
                    return Some(diverge(i, op, "delete", got, want));
                }
            }
            Op::Lookup(k) | Op::Move(k) => {
                let got = kv.get(&mut sys, &kbytes);
                let want = model.get(&k).map(|v| v.to_le_bytes().to_vec());
                if got != want {
                    return Some(diverge(i, op, "get", got, want));
                }
            }
        }
        if kv.len() != model.len() {
            return Some(diverge(i, op, "len", kv.len(), model.len()));
        }
    }
    None
}

/// Replays `ops` against a [`TcamTable`] via [`flow_table_driver`]:
/// the trait impl keeps one exact (all-ones-mask) entry per live key,
/// updating in place on re-insert and removing it on `Remove`.
#[must_use]
pub fn tcam_driver(ops: &[Op]) -> Option<String> {
    let mut mem = SimMemory::new();
    let mut t = TcamTable::new(1 << 16, 4);
    flow_table_driver(&mut mem, &mut t, ops)
}

/// Replays `ops` against the full [`HaloEngine`] stack over a
/// [`CuckooTable`] in a small simulated machine. After every op the
/// op's key is resolved four ways — plain software lookup, `LOOKUP_B`,
/// `LOOKUP_NB` (decoding the destination word), and `SNAPSHOT_READ` of
/// that word — and all four must agree with the oracle. A final
/// invariant audit always runs; with [`audit_enabled`](crate::audit_enabled)
/// the auditor also walks the machine after every op.
#[must_use]
pub fn engine_driver(ops: &[Op]) -> Option<String> {
    let mut sys = MemorySystem::new(MachineConfig::small());
    let mut engine = HaloEngine::new(&sys, AcceleratorConfig::default());
    let mut t = CuckooTable::create(sys.data_mut(), 1 << 9, KEY_LEN); // 4096 slots
    let dest = sys.data_mut().alloc_lines(64);
    let mut model: HashMap<u16, u64> = HashMap::new();
    let mut now = Cycle(0);
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Insert(k, v) => {
                if t.insert(sys.data_mut(), &key(k), v).is_err() {
                    return Some(format!("op {i} ({op}): insert rejected with headroom"));
                }
                model.insert(k, v);
            }
            Op::Remove(k) => {
                let got = t.remove(sys.data_mut(), &key(k));
                let want = model.remove(&k);
                if got != want {
                    return Some(diverge(i, op, "remove", got, want));
                }
            }
            Op::Move(k) => {
                t.cuckoo_move(sys.data_mut(), &key(k));
            }
            Op::Lookup(_) => {}
        }

        let k = op.key_id();
        let fk = key(k);
        let want = model.get(&k).copied();
        let core = CoreId(i % sys.config().cores);

        let sw = t.lookup(sys.data_mut(), &fk);
        if sw != want {
            return Some(diverge(i, op, "software lookup", sw, want));
        }
        let (b, done_b) = engine.lookup_b(&mut sys, core, &t, &fk, None, now);
        if b != want {
            return Some(diverge(i, op, "LOOKUP_B", b, want));
        }
        if done_b <= now {
            return Some(format!("op {i} ({op}): LOOKUP_B completed acausally"));
        }
        let h = engine.lookup_nb(&mut sys, core, &t, &fk, None, dest, done_b);
        if h.result != want {
            return Some(diverge(i, op, "LOOKUP_NB", h.result, want));
        }
        let (word, done_s) = engine.snapshot_read(&mut sys, core, dest, h.result_at);
        if HaloEngine::decode_nb(word) != Some(want) {
            return Some(diverge(
                i,
                op,
                "SNAPSHOT_READ decode",
                HaloEngine::decode_nb(word),
                Some(want),
            ));
        }
        now = done_s.max(h.result_at) + Cycles(16);
        sys.hw_unlock_expired(now);

        if audit_enabled() {
            if let Some(v) = audit_system(&sys, now)
                .into_iter()
                .chain(audit_cuckoo(&t, sys.data_mut()))
                .next()
            {
                return Some(format!("op {i} ({op}): audit violation: {v}"));
            }
        }
    }
    sys.hw_unlock_expired(now);
    if let Some(v) = audit_system(&sys, now)
        .into_iter()
        .chain(audit_cuckoo(&t, sys.data_mut()))
        .chain(audit_table_placement(&t, &sys))
        .next()
    {
        return Some(format!("final audit violation: {v}"));
    }
    None
}

/// A deliberately broken cuckoo "implementation" for the mutation smoke
/// check: `Remove` clears the bucket entry directly through the layout
/// (as a buggy implementation would) without releasing the key-value
/// slot or fixing the length bookkeeping — exactly the occupancy-leak
/// bug class the oracle must catch and shrink to a tiny trace.
#[must_use]
pub fn buggy_cuckoo_driver(ops: &[Op]) -> Option<String> {
    let mut mem = SimMemory::new();
    let mut t = CuckooTable::create(&mut mem, 1 << 10, KEY_LEN);
    let mut model: HashMap<u16, u64> = HashMap::new();
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Insert(k, v) => {
                if t.insert(&mut mem, &key(k), v).is_err() {
                    return Some(format!("op {i} ({op}): insert rejected with headroom"));
                }
                model.insert(k, v);
            }
            Op::Remove(k) => {
                // The bug: clear the entry, leak the slot and the length.
                let fk = key(k);
                let (b1, b2) = bucket_pair(&fk, t.meta().buckets);
                let sig = signature(hash_key(&fk, SEED_PRIMARY));
                'found: for b in [b1, b2] {
                    for e in 0..ENTRIES_PER_BUCKET {
                        let (s, idx) = t.meta().read_entry(&mem, b, e);
                        if s == sig && t.meta().read_kv_key(&mem, idx) == fk {
                            t.meta().clear_entry(&mut mem, b, e);
                            break 'found;
                        }
                    }
                }
                model.remove(&k);
            }
            Op::Lookup(k) | Op::Move(k) => {
                if matches!(op, Op::Move(_)) {
                    t.cuckoo_move(&mut mem, &key(k));
                }
                let got = t.lookup(&mem, &key(k));
                let want = model.get(&k).copied();
                if got != want {
                    return Some(diverge(i, op, "lookup", got, want));
                }
            }
        }
        if t.len() != model.len() {
            return Some(diverge(i, op, "len", t.len(), model.len()));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_sim::point_seed;

    #[test]
    fn generator_is_deterministic_per_seed() {
        let seed = point_seed("oracle.gen", 0);
        let a = gen_ops(&mut SplitMix64::new(seed), 50, 128);
        let b = gen_ops(&mut SplitMix64::new(seed), 50, 128);
        assert_eq!(a, b);
        let c = gen_ops(&mut SplitMix64::new(seed ^ 1), 50, 128);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn drivers_pass_a_quick_stream() {
        let mut rng = SplitMix64::new(point_seed("oracle.smoke", 0));
        let ops = gen_ops(&mut rng, 40, 64);
        for backend in TableBackend::all() {
            assert_eq!(exact_driver(backend, &ops), None, "{}", backend.name());
        }
        assert_eq!(sfh_driver(&ops), None);
        assert_eq!(tcam_driver(&ops), None);
    }

    /// The trait-level driver accepts every backend, including the
    /// cuckoo table (whose specialized driver additionally checks
    /// free-slot accounting and cuckoo moves).
    #[test]
    fn generic_driver_covers_the_cuckoo_backend() {
        let mut rng = SplitMix64::new(point_seed("oracle.generic", 0));
        let ops = gen_ops(&mut rng, 60, 64);
        let mut mem = SimMemory::new();
        let mut t = CuckooTable::create(&mut mem, 1 << 10, KEY_LEN);
        assert_eq!(flow_table_driver(&mut mem, &mut t, &ops), None);
    }

    #[test]
    fn buggy_driver_diverges_on_insert_then_remove() {
        let ops = [Op::Insert(3, 7), Op::Remove(3)];
        assert!(buggy_cuckoo_driver(&ops).is_some(), "leak must be caught");
        assert_eq!(
            exact_driver(TableBackend::Cuckoo, &ops),
            None,
            "real table must pass"
        );
    }
}
