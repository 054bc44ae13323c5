//! The one core-access walk: L1 → L2 → home LLC slice → DRAM.
//!
//! [`access`] holds every timing formula and every request-level stat
//! of a core-initiated access, for both executors: the classic
//! [`MemorySystem`](crate::MemorySystem) and an epoch shard
//! ([`EpochCore`](crate::EpochCore)). The walk never asks which one it
//! runs on. Everything that differs sits behind [`Hierarchy`], whose
//! epoch implementation is the complete list of the epoch executor's
//! deviations (DESIGN.md §13).

use crate::addr::{Addr, CoreId, LineAddr, SliceId};
use crate::cache::{CacheArray, Eviction, LineMeta, LineState};
use crate::config::MachineConfig;
use crate::system::{ring_hops, slice_hash, AccessKind, AccessOutcome, HitLevel, MemStatIds};
use halo_sim::{BankedResource, Cycle, Cycles, Resource, StatId, Stats};

/// One core's private caches and their ports.
pub(crate) struct Private<'a> {
    pub(crate) l1d: &'a mut CacheArray,
    pub(crate) l2: &'a mut CacheArray,
    pub(crate) l1_port: &'a mut BankedResource,
    pub(crate) l2_port: &'a mut Resource,
}

/// A transition of a line's home directory entry caused by `core`. The
/// classic system applies it to the live LLC at once; an epoch shard
/// applies it to its window overlay and logs it for replay at the
/// barrier, where the live system applies it again.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LlcEvent {
    /// A private store hit: the line becomes Modified and `core` a
    /// sharer.
    Touch(LineAddr),
    /// A store upgrade from a non-exclusive private copy: the line
    /// becomes `core`'s alone, Modified; the other sharers lose theirs.
    Upgrade(LineAddr),
    /// A private refill from L2: `core` joins the sharers.
    FillSharer(LineAddr),
    /// A request that reached the LLC (hit or fill): a load joins the
    /// sharers, a store takes the line exclusively, Modified.
    Access(LineAddr, AccessKind),
}

impl LlcEvent {
    /// The line whose directory entry changes.
    pub(crate) fn line(self) -> LineAddr {
        match self {
            LlcEvent::Touch(l)
            | LlcEvent::Upgrade(l)
            | LlcEvent::FillSharer(l)
            | LlcEvent::Access(l, _) => l,
        }
    }

    /// Applies the transition to `meta`; returns the other cores whose
    /// private copies it revokes.
    pub(crate) fn apply(self, core: CoreId, meta: &mut LineMeta) -> u64 {
        let me: u16 = 1 << core.0;
        match self {
            LlcEvent::Touch(_) => {
                meta.state = LineState::Modified;
                meta.sharers |= me;
            }
            LlcEvent::FillSharer(_) | LlcEvent::Access(_, AccessKind::Load) => meta.sharers |= me,
            LlcEvent::Upgrade(_) | LlcEvent::Access(_, AccessKind::Store) => {
                let revoked = meta.sharers & !me;
                meta.sharers = me;
                meta.state = LineState::Modified;
                return u64::from(revoked);
            }
        }
        0
    }
}

/// The state a core access walks over: the config and stats, then one
/// method for each point where the classic system and an epoch shard
/// differ.
pub(crate) trait Hierarchy {
    /// The machine configuration.
    fn cfg(&self) -> &MachineConfig;
    /// The stats sink and its pre-registered handles.
    fn counters(&mut self) -> (&mut Stats, &MemStatIds);
    /// Core `core`'s private caches and ports.
    fn private(&mut self, core: CoreId) -> Private<'_>;
    /// The LLC slice ports and the DRAM channels.
    fn uncore(&mut self) -> (&mut [Resource], &mut BankedResource);
    /// Probes the home directory for `line` from `core`: `None` on a
    /// miss, else whether a remote dirty copy must be pulled (and is
    /// hereby downgraded) and the sharer mask.
    fn probe(&mut self, core: CoreId, slice: SliceId, line: LineAddr) -> Option<(bool, u64)>;
    /// Allocates `line` in its home slice after a miss (Shared, no
    /// sharers).
    fn allocate(&mut self, slice: SliceId, line: LineAddr);
    /// The release cycle of a HALO lock a store to `line` at `now` must
    /// wait for, if one is still held.
    fn prune_lock(&mut self, line: LineAddr, now: Cycle) -> Option<Cycle>;
    /// Drops `line` from the private caches of every core in `mask`.
    fn invalidate(&mut self, mask: u64, line: LineAddr);
    /// Applies a directory transition; returns the cores it revokes.
    fn transition(&mut self, core: CoreId, ev: LlcEvent) -> u64;

    /// Bumps the counter `pick` selects.
    #[inline]
    fn count(&mut self, pick: impl FnOnce(&MemStatIds) -> StatId) {
        let (stats, ids) = self.counters();
        stats.inc(pick(ids));
    }
}

/// The DRAM channel serving `line`.
#[inline]
pub(crate) fn dram_channel(line: LineAddr) -> usize {
    (line.0 ^ (line.0 >> 9)) as usize
}

/// Round-trip wire delay between `core`'s ring stop and `slice`.
#[inline]
pub(crate) fn wire(cfg: &MachineConfig, core: CoreId, slice: SliceId) -> Cycles {
    let n = cfg.slices;
    Cycles(2 * ring_hops(core.0 % n, slice.0, n) * cfg.hop_latency.0)
}

/// A timed access from `core`: the one L1 → L2 → LLC → DRAM walk.
#[inline]
pub(crate) fn access<H: Hierarchy>(
    h: &mut H,
    core: CoreId,
    addr: Addr,
    kind: AccessKind,
    at: Cycle,
) -> AccessOutcome {
    let line = addr.line();
    let store = kind == AccessKind::Store;
    h.count(|i| if store { i.mem_store } else { i.mem_load });

    let p = h.private(core);
    let t_l1 = p.l1_port.serve(line.0 as usize, at);
    if let Some(way) = p.l1d.lookup_way(line) {
        let state = p.l1d.way_mut(way, line).state;
        h.count(|i| i.l1d_hit);
        let mut t = t_l1;
        if store {
            if state != LineState::Modified {
                t = upgrade(h, core, line, t);
            }
            // An upgrade revokes only other cores' copies, so `way`
            // still holds the line.
            let p = h.private(core);
            p.l1d.way_mut(way, line).state = LineState::Modified;
            if let Some(m) = p.l2.peek_mut(line) {
                m.state = LineState::Modified;
            }
            h.transition(core, LlcEvent::Touch(line));
        }
        return AccessOutcome {
            complete: t,
            level: HitLevel::L1,
        };
    }
    h.count(|i| i.l1d_miss);

    let p = h.private(core);
    let t_l2 = p.l2_port.serve(at).max(t_l1);
    if let Some(state) = p.l2.lookup(line).map(|m| m.state) {
        h.count(|i| i.l2_hit);
        let mut t = t_l2;
        if !store {
            h.transition(core, LlcEvent::FillSharer(line));
        } else if state != LineState::Modified {
            t = upgrade(h, core, line, t);
        } else {
            h.transition(core, LlcEvent::Touch(line));
        }
        fill_private(h, core, line, kind);
        return AccessOutcome {
            complete: t,
            level: HitLevel::L2,
        };
    }
    h.count(|i| i.l2_miss);

    let slice = slice_hash(line, h.cfg().slices);
    let wire = wire(h.cfg(), core, slice);
    let t_llc = h.uncore().0[slice.0].serve(t_l2 + wire);
    let (t, level) = if let Some((remote_dirty, sharers)) = h.probe(core, slice, line) {
        h.count(|i| i.llc_hit);
        let mut t = t_llc;
        let mut level = HitLevel::Llc;
        if store {
            t = lock_wait(h, line, t);
        }
        if remote_dirty {
            h.count(|i| i.llc_dirty_snoop);
            t += h.cfg().dirty_snoop_latency;
            level = HitLevel::LlcRemoteDirty;
        }
        if store {
            t = invalidate_sharers(h, sharers & !(1 << core.0), line, slice, t);
        }
        (t, level)
    } else {
        h.count(|i| i.llc_miss);
        let t = h.uncore().1.serve(dram_channel(line), t_llc);
        h.count(|i| i.dram_access);
        h.allocate(slice, line);
        (t, HitLevel::Dram)
    };
    fill_private(h, core, line, kind);
    h.transition(core, LlcEvent::Access(line, kind));
    AccessOutcome { complete: t, level }
}

/// A store's wait for a HALO lock: a held lock re-issues the
/// snoop-invalidate 4 cycles after its release.
fn lock_wait<H: Hierarchy>(h: &mut H, line: LineAddr, t: Cycle) -> Cycle {
    match h.prune_lock(line, t) {
        Some(release) => {
            h.count(|i| i.store_lock_retry);
            release + Cycles(4)
        }
        None => t,
    }
}

/// Store upgrade from a non-exclusive private copy: a directory round
/// trip that takes the line exclusively and invalidates the other
/// sharers.
fn upgrade<H: Hierarchy>(h: &mut H, core: CoreId, line: LineAddr, at: Cycle) -> Cycle {
    let slice = slice_hash(line, h.cfg().slices);
    let t = at + wire(h.cfg(), core, slice) + Cycles(h.cfg().llc_latency.0 / 2);
    let t = lock_wait(h, line, t);
    let revoked = h.transition(core, LlcEvent::Upgrade(line));
    invalidate_sharers(h, revoked, line, slice, t)
}

/// Invalidates `line` in the private caches of every core in `mask`,
/// issued from `slice` at `at`: one coherence-invalidation stat, done
/// when the farthest sharer has acknowledged.
pub(crate) fn invalidate_sharers<H: Hierarchy>(
    h: &mut H,
    mask: u64,
    line: LineAddr,
    slice: SliceId,
    at: Cycle,
) -> Cycle {
    if mask == 0 {
        return at;
    }
    h.count(|i| i.coherence_invalidation);
    h.invalidate(mask, line);
    let mut t = at;
    let mut rest = mask;
    while rest != 0 {
        let c = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        t = t.max(at + wire(h.cfg(), CoreId(c), slice));
    }
    t
}

/// Fills `line` into `core`'s L2 and L1 (Modified for a store; a copy
/// already there is upgraded in place). Dirty victims write back.
pub(crate) fn fill_private<H: Hierarchy>(
    h: &mut H,
    core: CoreId,
    line: LineAddr,
    kind: AccessKind,
) {
    let victim = fill(h.private(core).l2, line, kind);
    write_back(h, victim);
    let victim = fill(h.private(core).l1d, line, kind);
    write_back(h, victim);
}

fn fill(arr: &mut CacheArray, line: LineAddr, kind: AccessKind) -> Eviction {
    match (arr.peek_mut(line), kind) {
        (None, AccessKind::Load) => arr.insert(line, LineState::Shared),
        (None, AccessKind::Store) => arr.insert(line, LineState::Modified),
        (Some(m), AccessKind::Store) => {
            m.state = LineState::Modified;
            Eviction::None
        }
        (Some(_), AccessKind::Load) => Eviction::None,
    }
}

/// A private victim: a dirty one writes back. Its LLC copy is already
/// Modified (every private store marks it so) and the data itself stays
/// authoritative in `SimMemory`, so only the count changes. A clean one
/// leaves the sharer mask conservatively stale, as real directories do;
/// the dirty-owner probe re-checks private tags.
fn write_back<H: Hierarchy>(h: &mut H, ev: Eviction) {
    if matches!(ev, Eviction::Dirty { .. }) {
        h.count(|i| i.private_writeback);
    }
}
