//! The invariant auditor: non-perturbing walks over the simulated
//! cache hierarchy and the table layout, asserting the structural
//! properties the paper's design leans on. Every check returns
//! [`Violation`]s instead of panicking so harnesses can fold audit
//! results into shrinkable divergence messages.

use halo_datapath::ExactTable;
use halo_mem::{LineAddr, LineState, MemorySystem, SimMemory, SliceId};
use halo_sim::Cycle;
use halo_tables::{
    bucket_pair, hash_key, signature, CuckooTable, EmomaTable, FlowTable, TableMeta,
    ENTRIES_PER_BUCKET, FILTER_SLOTS, SEED_PRIMARY,
};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// One broken invariant found by an audit walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Short stable name of the invariant (e.g. `"inclusion"`).
    pub invariant: &'static str,
    /// Human-readable specifics: which line/bucket/core and how.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant `{}` violated: {}",
            self.invariant, self.detail
        )
    }
}

fn violation(invariant: &'static str, detail: String) -> Violation {
    Violation { invariant, detail }
}

/// Audits the coherence-structural invariants of a [`MemorySystem`]:
///
/// * **placement** — every LLC-resident line sits in its home slice's
///   array (static address interleaving, paper §3).
/// * **inclusion** — every L1/L2-resident line is also LLC-resident
///   (the inclusive-LLC model back-invalidation must maintain).
/// * **directory** — every private-cache holder has its sharer bit set
///   in the LLC directory. Sharer masks are conservatively stale (a
///   clean private eviction does not notify the LLC), so the check is
///   holders ⊆ sharers, never equality.
/// * **single-owner** — at most one core holds a line Modified.
/// * **modified-llc** — a line Modified in a core's L1 or L2 is
///   Modified in the LLC too, with that core in its sharer mask.
/// * **lock-expired** — no lock is held past its release cycle; call
///   [`MemorySystem::hw_unlock_expired`] with `now` before auditing.
///   The lock and its release cycle live in the line's LLC way, so a
///   lock cannot disagree with its line or outlive its eviction.
///
/// The walk uses read-only iterators and perturbs no LRU or counter
/// state, so it can run between every op of a harness.
#[must_use]
pub fn audit_system(sys: &MemorySystem, now: Cycle) -> Vec<Violation> {
    let mut out = Vec::new();
    let cfg = sys.config();

    // LLC pass: placement, expired locks, and a residency/directory
    // index for the private-cache pass (built once; everything after is
    // O(1) probes).
    let mut llc: HashMap<LineAddr, (usize, u16, LineState)> = HashMap::new();
    for s in 0..cfg.slices {
        for (line, m) in sys.llc_slice_lines(SliceId(s)) {
            let home = sys.home_slice(line);
            if home.0 != s {
                out.push(violation(
                    "placement",
                    format!("line {line:?} resident in slice {s}, homed on {}", home.0),
                ));
            }
            if let Some((prev, ..)) = llc.insert(line, (s, m.sharers, m.state)) {
                out.push(violation(
                    "placement",
                    format!("line {line:?} resident in slices {prev} and {s}"),
                ));
            }
            if let Some(release) = m.lock_release().filter(|&r| r <= now) {
                out.push(violation(
                    "lock-expired",
                    format!("lock on {line:?} expired at {release:?}, now {now:?}"),
                ));
            }
        }
    }

    // Private-cache pass: inclusion, directory, single-owner,
    // modified-llc.
    let mut owner: HashMap<LineAddr, usize> = HashMap::new();
    for c in 0..cfg.cores {
        let core = halo_mem::CoreId(c);
        let private = sys
            .l1_lines(core)
            .map(|l| ("L1", l))
            .chain(sys.l2_lines(core).map(|l| ("L2", l)));
        for (level, (line, m)) in private {
            match llc.get(&line) {
                None => out.push(violation(
                    "inclusion",
                    format!("core {c} {level} holds {line:?} absent from the LLC"),
                )),
                Some(&(_, sharers, llc_state)) => {
                    let sharer = sharers & (1 << c) != 0;
                    if !sharer {
                        out.push(violation(
                            "directory",
                            format!("core {c} {level} holds {line:?} without its sharer bit"),
                        ));
                    }
                    if m.state == LineState::Modified
                        && (llc_state != LineState::Modified || !sharer)
                    {
                        out.push(violation(
                            "modified-llc",
                            format!(
                                "core {c} {level} holds {line:?} Modified, LLC has it \
                                 {llc_state:?} with sharers {sharers:#b}"
                            ),
                        ));
                    }
                }
            }
            if m.state == LineState::Modified {
                if let Some(&prev) = owner.get(&line) {
                    if prev != c {
                        out.push(violation(
                            "single-owner",
                            format!("line {line:?} Modified in cores {prev} and {c}"),
                        ));
                    }
                } else {
                    owner.insert(line, c);
                }
            }
        }
    }
    out
}

/// Walks every live bucket entry of a cuckoo-family layout, checking
/// the invariants all variants share — **signature** (stored signature
/// matches the resident key, never the reserved `0`) and **bucket**
/// (the entry sits in one of the key's two candidate buckets) — and
/// returns the live entries as `(bucket, entry, kv_slot)` for the
/// caller's structure-specific checks.
fn walk_cuckoo_entries(
    meta: &TableMeta,
    mem: &mut SimMemory,
    out: &mut Vec<Violation>,
) -> Vec<(u64, usize, u32)> {
    let mut live = Vec::new();
    for b in 0..meta.buckets {
        for e in 0..ENTRIES_PER_BUCKET {
            let (sig, idx) = meta.read_entry(mem, b, e);
            if sig == 0 {
                continue;
            }
            live.push((b, e, idx));
            let key = meta.read_kv_key(mem, idx);
            let want = signature(hash_key(&key, SEED_PRIMARY));
            if sig != want {
                out.push(violation(
                    "signature",
                    format!("bucket {b} entry {e}: stored sig {sig:#x}, key hashes to {want:#x}"),
                ));
            }
            let (b1, b2) = bucket_pair(&key, meta.buckets);
            if b != b1 && b != b2 {
                out.push(violation(
                    "bucket",
                    format!("entry for key in bucket {b}, candidates are {b1}/{b2}"),
                ));
            }
        }
    }
    live
}

/// Shared bookkeeping checks over a cuckoo-family walk: **kv-aliased**
/// (no kv slot referenced twice, beyond the transient duplicates held
/// by in-flight two-phase moves) and **live-count** (live entries equal
/// `len` plus in-flight moves; `len + free == capacity`).
#[allow(clippy::too_many_arguments)] // a plain bag of counters
fn check_cuckoo_accounting(
    live: &[(u64, usize, u32)],
    len: usize,
    free_slots: usize,
    capacity: usize,
    moves_in_flight: usize,
    out: &mut Vec<Violation>,
) {
    let mut slot_refs: HashMap<u32, u32> = HashMap::new();
    for &(_, _, idx) in live {
        *slot_refs.entry(idx).or_insert(0) += 1;
    }
    let aliased = slot_refs.values().filter(|&&n| n > 1).count();
    if aliased > moves_in_flight {
        out.push(violation(
            "kv-aliased",
            format!(
                "{aliased} kv slots multiply referenced, only {moves_in_flight} moves in flight"
            ),
        ));
    }
    if live.len() != len + moves_in_flight {
        out.push(violation(
            "live-count",
            format!(
                "{} live entries, len {len} + {moves_in_flight} in-flight moves",
                live.len()
            ),
        ));
    }
    if len + free_slots != capacity {
        out.push(violation(
            "live-count",
            format!("len {len} + free {free_slots} != capacity {capacity}"),
        ));
    }
}

/// Audits a [`CuckooTable`]'s layout against its bookkeeping:
///
/// * **signature** — every live entry's stored signature matches its
///   key (and is never the reserved empty marker `0`).
/// * **bucket** — every live entry sits in one of its key's two
///   candidate buckets.
/// * **kv-aliased** — no two bucket entries reference the same
///   key-value slot, except the single transient duplicate a two-phase
///   [`cuckoo_move_begin`](CuckooTable::cuckoo_move_begin) holds.
/// * **live-count** — live bucket entries equal `len()` plus in-flight
///   moves, and `len() + free_slots() == capacity()`.
/// * **filter-exact** — on a table with Cuckoo++ presence filters
///   ([`has_presence_filter`](CuckooTable::has_presence_filter)), every
///   filter counter equals the number of keys whose primary bucket it
///   is that are currently stored in their secondary bucket. In-flight
///   two-phase moves perturb counters by one each (the filter is
///   adjusted at `begin`, the duplicate entry pair resolves at
///   `commit`/`abort`), so the check tolerates a total absolute drift
///   of `moves_in_flight()`.
#[must_use]
pub fn audit_cuckoo(table: &CuckooTable, mem: &mut SimMemory) -> Vec<Violation> {
    let mut out = Vec::new();
    let meta = *table.meta();
    let live = walk_cuckoo_entries(&meta, mem, &mut out);
    check_cuckoo_accounting(
        &live,
        table.len(),
        table.free_slots(),
        table.capacity(),
        table.moves_in_flight(),
        &mut out,
    );
    if !table.has_presence_filter() {
        return out;
    }

    // Recompute every presence filter from the live entries. A pending
    // p->s move holds copies in both buckets; counting the secondary
    // copy matches the begin-time increment, while the extra primary
    // copy is invisible to the filter — but a pending s->p move's
    // secondary copy recomputes one above the already-decremented
    // filter, hence the in-flight tolerance on total drift.
    let mut expect: HashMap<(u64, usize), i64> = HashMap::new();
    let mut counted: HashSet<u32> = HashSet::new();
    for &(b, _, idx) in &live {
        let key = meta.read_kv_key(mem, idx);
        let (b1, _) = bucket_pair(&key, meta.buckets);
        if b != b1 && counted.insert(idx) {
            *expect
                .entry((b1, CuckooTable::filter_index(&key)))
                .or_insert(0) += 1;
        }
    }
    let mut drift = 0i64;
    for b in 0..meta.buckets {
        for fi in 0..FILTER_SLOTS {
            let got = i64::from(table.filter_count(mem, b, fi));
            let want = expect.get(&(b, fi)).copied().unwrap_or(0);
            if got != want {
                drift += (got - want).abs();
                if table.moves_in_flight() == 0 {
                    out.push(violation(
                        "filter-exact",
                        format!(
                            "bucket {b} filter slot {fi}: counter {got}, {want} displaced keys"
                        ),
                    ));
                }
            }
        }
    }
    if table.moves_in_flight() > 0 && drift > table.moves_in_flight() as i64 {
        out.push(violation(
            "filter-exact",
            format!(
                "total filter drift {drift} exceeds {} in-flight moves",
                table.moves_in_flight()
            ),
        ));
    }
    out
}

/// Audits an [`EmomaTable`]: all the cuckoo-family checks plus the
/// steering machinery —
///
/// * **residency** — the control-plane residency of every live kv slot
///   matches the bucket its entry actually sits in (the duplicate
///   entries of in-flight moves are tolerated, `moves_in_flight()`
///   mismatches at most);
/// * **steering** — every secondary-resident key is CBF-positive and
///   every primary-resident key CBF-negative, the invariant that makes
///   the single steered bucket access exact;
/// * **cbf-exact** — every counting-Bloom-filter counter equals the
///   number of contributions from secondary-resident keys;
/// * **tracked** — the per-counter lists of primary-resident slots
///   (the cascade-fixup candidates) match a recomputation from scratch.
#[must_use]
pub fn audit_emoma(table: &EmomaTable, mem: &mut SimMemory) -> Vec<Violation> {
    let mut out = Vec::new();
    let meta = *table.meta();
    let live = walk_cuckoo_entries(&meta, mem, &mut out);
    check_cuckoo_accounting(
        &live,
        table.len(),
        table.free_slots(),
        table.capacity(),
        table.moves_in_flight(),
        &mut out,
    );

    let mut residency_mismatches = 0usize;
    let mut slots: HashSet<u32> = HashSet::new();
    for &(b, e, idx) in &live {
        slots.insert(idx);
        let key = meta.read_kv_key(mem, idx);
        let (b1, _) = bucket_pair(&key, meta.buckets);
        let expect = if b == b1 { 1 } else { 2 };
        if table.slot_residency(idx) != expect {
            residency_mismatches += 1;
            if table.moves_in_flight() == 0 {
                out.push(violation(
                    "residency",
                    format!(
                        "bucket {b} entry {e} slot {idx}: residency {}, bucket implies {expect}",
                        table.slot_residency(idx)
                    ),
                ));
            }
        }
    }
    if residency_mismatches > table.moves_in_flight() {
        out.push(violation(
            "residency",
            format!(
                "{residency_mismatches} residency mismatches, only {} moves in flight",
                table.moves_in_flight()
            ),
        ));
    }

    // Steering + filter recomputation over distinct live slots (a
    // pending move's duplicate pair is one slot): residency is adjusted
    // at move `begin` together with the filter, so these are exact even
    // mid-move.
    let mut expect_cbf = vec![0u16; table.cbf_counters().len()];
    let mut expect_tracked: HashMap<usize, Vec<u32>> = HashMap::new();
    for &idx in &slots {
        let key = meta.read_kv_key(mem, idx);
        match table.slot_residency(idx) {
            2 => {
                if !table.cbf_positive(&key) {
                    out.push(violation(
                        "steering",
                        format!("secondary-resident slot {idx} is CBF-negative (stranded)"),
                    ));
                }
                for i in table.cbf_indices(&key) {
                    expect_cbf[i] += 1;
                }
            }
            1 => {
                if table.cbf_positive(&key) {
                    out.push(violation(
                        "steering",
                        format!("primary-resident slot {idx} is CBF-positive (stranded)"),
                    ));
                }
                for i in table.cbf_indices(&key) {
                    expect_tracked.entry(i).or_default().push(idx);
                }
            }
            r => out.push(violation(
                "residency",
                format!("live slot {idx} marked residency {r}"),
            )),
        }
    }
    if table.cbf_counters() != &expect_cbf[..] {
        let diffs = table
            .cbf_counters()
            .iter()
            .zip(&expect_cbf)
            .filter(|(a, b)| a != b)
            .count();
        out.push(violation(
            "cbf-exact",
            format!("{diffs} CBF counters diverge from the live-slot recomputation"),
        ));
    }
    for i in 0..table.cbf_counters().len() {
        let mut got: Vec<u32> = table.tracked_slots(i).to_vec();
        let mut want = expect_tracked.remove(&i).unwrap_or_default();
        got.sort_unstable();
        want.sort_unstable();
        if got != want {
            out.push(violation(
                "tracked",
                format!("counter {i}: tracked slots {got:?}, recomputation says {want:?}"),
            ));
        }
    }
    out
}

/// Runs the structural auditor of whichever table `t` holds:
/// [`audit_cuckoo`] (with its filter check on a Cuckoo++ table) or
/// [`audit_emoma`].
#[must_use]
pub fn audit_exact(t: &ExactTable, mem: &mut SimMemory) -> Vec<Violation> {
    match t {
        ExactTable::Cuckoo(c) => audit_cuckoo(c, mem),
        ExactTable::Emoma(e) => audit_emoma(e, mem),
    }
}

/// Audits that every line of `table` the LLC currently holds sits on
/// the CHA slice the address-interleaving promises — the property HALO
/// leans on to co-locate each accelerator with its slice's share of the
/// table (paper §3.2). Generic over [`FlowTable`] via
/// [`warm_lines`](FlowTable::warm_lines), so every backend is covered;
/// tables outside simulated memory report no lines and audit clean.
#[must_use]
pub fn audit_table_placement<T: FlowTable + ?Sized>(
    table: &T,
    sys: &MemorySystem,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut resident: HashMap<LineAddr, usize> = HashMap::new();
    for s in 0..sys.config().slices {
        for (line, _) in sys.llc_slice_lines(SliceId(s)) {
            resident.insert(line, s);
        }
    }
    for addr in table.warm_lines() {
        let line = addr.line();
        if let Some(&s) = resident.get(&line) {
            let home = sys.home_slice(line);
            if home.0 != s {
                out.push(violation(
                    "placement",
                    format!(
                        "table line {line:?} cached in slice {s}, promised to CHA {}",
                        home.0
                    ),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_mem::{AccessKind, Addr, CoreId, MachineConfig};
    use halo_sim::Cycles;
    use halo_tables::FlowKey;

    #[test]
    fn healthy_system_audits_clean() {
        let mut sys = MemorySystem::new(MachineConfig::small());
        let mut now = Cycle(0);
        for i in 0..64u64 {
            let core = CoreId((i % 4) as usize);
            let kind = if i % 3 == 0 {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            let out = sys.access(core, Addr(i * 64), kind, now);
            now = out.complete + Cycles(1);
        }
        assert_eq!(audit_system(&sys, now), vec![]);
    }

    #[test]
    fn expired_lock_is_flagged_until_pruned() {
        let mut sys = MemorySystem::new(MachineConfig::small());
        let out = sys.access(CoreId(0), Addr(0x40), AccessKind::Load, Cycle(0));
        sys.hw_lock(Addr(0x40).line(), out.complete + Cycles(10));
        assert_eq!(audit_system(&sys, out.complete), vec![]);
        let later = out.complete + Cycles(100);
        let found = audit_system(&sys, later);
        assert!(
            found.iter().any(|v| v.invariant == "lock-expired"),
            "missed expiry: {found:?}"
        );
        sys.hw_unlock_expired(later);
        assert_eq!(audit_system(&sys, later), vec![]);
    }

    #[test]
    fn cuckoo_audit_accepts_real_table_and_in_flight_move() {
        let mut mem = SimMemory::new();
        let mut t = CuckooTable::create(&mut mem, 1 << 6, 13);
        for i in 0..100u64 {
            t.insert(&mut mem, &FlowKey::synthetic(i, 13), i).unwrap();
        }
        assert_eq!(audit_cuckoo(&t, &mut mem), vec![]);
        let mv = t
            .cuckoo_move_begin(&mut mem, &FlowKey::synthetic(42, 13))
            .expect("movable key");
        assert_eq!(audit_cuckoo(&t, &mut mem), vec![], "transient dup allowed");
        t.cuckoo_move_commit(&mut mem, mv);
        assert_eq!(audit_cuckoo(&t, &mut mem), vec![]);
    }

    #[test]
    fn cuckoo_pp_audit_accepts_table_and_catches_stale_filter() {
        let mut mem = SimMemory::new();
        let mut t = CuckooTable::with_presence_filter(&mut mem, 1 << 6, 13);
        for i in 0..200u64 {
            t.insert(&mut mem, &FlowKey::synthetic(i, 13), i).unwrap();
        }
        assert_eq!(audit_cuckoo(&t, &mut mem), vec![]);
        let mv = t
            .cuckoo_move_begin(&mut mem, &FlowKey::synthetic(42, 13))
            .expect("movable key");
        let mid = audit_cuckoo(&t, &mut mem);
        assert_eq!(mid, vec![], "in-flight move must stay within tolerance");
        t.cuckoo_move_commit(&mut mem, mv);
        assert_eq!(audit_cuckoo(&t, &mut mem), vec![]);
        // Corrupt one filter byte behind the table's back.
        let addr = t.meta().bucket_addr(3) + halo_tables::FILTER_OFF;
        let stale = mem.read_u8(addr);
        mem.write_u8(addr, stale.wrapping_add(1));
        let found = audit_cuckoo(&t, &mut mem);
        assert!(
            found.iter().any(|v| v.invariant == "filter-exact"),
            "missed stale filter: {found:?}"
        );
    }

    #[test]
    fn emoma_audit_accepts_table_and_catches_stranded_key() {
        let mut mem = SimMemory::new();
        let mut t = EmomaTable::create(&mut mem, 1 << 6, 13);
        for i in 0..200u64 {
            t.insert(&mut mem, &FlowKey::synthetic(i, 13), i).unwrap();
        }
        assert_eq!(audit_emoma(&t, &mut mem), vec![]);
        // Displace a key, audit mid-move and after.
        let k = FlowKey::synthetic(42, 13);
        if let Some(mv) = t.cuckoo_move_begin(&mut mem, &k) {
            assert_eq!(audit_emoma(&t, &mut mem), vec![], "pending move tolerated");
            t.cuckoo_move_commit(&mut mem, mv);
        }
        assert_eq!(audit_emoma(&t, &mut mem), vec![]);
    }

    #[test]
    fn corrupted_signature_is_caught() {
        let mut mem = SimMemory::new();
        let mut t = CuckooTable::create(&mut mem, 1 << 6, 13);
        t.insert(&mut mem, &FlowKey::synthetic(5, 13), 5).unwrap();
        'corrupt: for b in 0..t.meta().buckets {
            for e in 0..ENTRIES_PER_BUCKET {
                let (sig, idx) = t.meta().read_entry(&mem, b, e);
                if sig != 0 {
                    t.meta().write_entry(&mut mem, b, e, sig ^ 0x5555, idx);
                    break 'corrupt;
                }
            }
        }
        let found = audit_cuckoo(&t, &mut mem);
        assert!(
            found.iter().any(|v| v.invariant == "signature"),
            "missed corruption: {found:?}"
        );
    }
}
