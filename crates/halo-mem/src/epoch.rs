//! Deterministic epoch/window parallel execution of the memory system.
//!
//! The classic [`MemorySystem`] interleaves all simulated cores on one
//! host thread. This module shards it so simulated cores can run on real
//! OS threads inside a bounded cycle window (an *epoch*) and still
//! produce output byte-identical to the single-threaded run of the same
//! epoch schedule (DESIGN.md §13):
//!
//! * [`MemorySystem::epoch_split`] hands each core an [`EpochCore`]: an
//!   exclusive `&mut` view of that core's private L1/L2 and ports, a
//!   frozen shared snapshot of the LLC directory ([`LlcView`]) and data
//!   store, and a line-granular copy-on-write overlay ([`CowMem`]) for
//!   its writes.
//! * Inside the window each core runs freely. A timed access is the
//!   same walk the classic system runs (`walk::access`); the
//!   `Hierarchy` implementation on [`EpochCore`] is the list of what
//!   differs: the frozen directory, the window-local port clones, no
//!   lock check, timing-only invalidations, and directory transitions
//!   that land in an overlay and are logged as [`LlcEvent`]s.
//! * At the barrier, [`MemorySystem::epoch_merge`] replays each core's
//!   event log through the live transitions and flushes each core's
//!   memory delta against the master state **in fixed core order**,
//!   single-threaded.
//!
//! A core's window is therefore a pure function of (frozen snapshot,
//! its own private state, its inputs); the fan-out only chooses
//! *which host thread* evaluates each pure function, so any thread count
//! yields the same bytes.
//!
//! The traits [`MemCtx`] (byte-addressed backing store: real
//! [`SimMemory`] or a [`CowMem`] overlay) and [`CoreMem`] (the surface
//! the simulated-core model needs: timed access + data + config) are the
//! seams that let `halo-cpu`/`halo-datapath` run unchanged against
//! either the classic system or an epoch shard.

use crate::addr::{Addr, CoreId, LineAddr, SliceId, CACHE_LINE};
use crate::cache::{CacheArray, Eviction, LineMeta, LineState};
use crate::config::MachineConfig;
use crate::memory::SimMemory;
use crate::system::{slice_hash, AccessKind, AccessOutcome, MemStatIds, MemorySystem};
use crate::walk::{self, Hierarchy, LlcEvent, Private};
use halo_sim::{BankedResource, Cycle, Resource, Stats};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

/// A byte-addressed backing store: the seam between table/EMC code and
/// whether it runs against the real [`SimMemory`] or a per-core
/// [`CowMem`] overlay inside an epoch window.
pub trait MemCtx {
    /// Reads `buf.len()` bytes starting at `addr`.
    fn read_bytes(&self, addr: Addr, buf: &mut [u8]);
    /// Writes `data` starting at `addr`.
    fn write_bytes(&mut self, addr: Addr, data: &[u8]);

    /// Reads a little-endian `u64`.
    fn read_u64(&self, addr: Addr) -> u64 {
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b);
        u64::from_le_bytes(b)
    }
    /// Writes a little-endian `u64`.
    fn write_u64(&mut self, addr: Addr, v: u64) {
        self.write_bytes(addr, &v.to_le_bytes());
    }
    /// Reads a little-endian `u32`.
    fn read_u32(&self, addr: Addr) -> u32 {
        let mut b = [0u8; 4];
        self.read_bytes(addr, &mut b);
        u32::from_le_bytes(b)
    }
    /// Writes a little-endian `u32`.
    fn write_u32(&mut self, addr: Addr, v: u32) {
        self.write_bytes(addr, &v.to_le_bytes());
    }
    /// Reads a little-endian `u16`.
    fn read_u16(&self, addr: Addr) -> u16 {
        let mut b = [0u8; 2];
        self.read_bytes(addr, &mut b);
        u16::from_le_bytes(b)
    }
    /// Writes a little-endian `u16`.
    fn write_u16(&mut self, addr: Addr, v: u16) {
        self.write_bytes(addr, &v.to_le_bytes());
    }
    /// Reads one byte.
    fn read_u8(&self, addr: Addr) -> u8 {
        let mut b = [0u8; 1];
        self.read_bytes(addr, &mut b);
        b[0]
    }
    /// Writes one byte.
    fn write_u8(&mut self, addr: Addr, v: u8) {
        self.write_bytes(addr, &[v]);
    }
}

impl MemCtx for SimMemory {
    #[inline]
    fn read_bytes(&self, addr: Addr, buf: &mut [u8]) {
        SimMemory::read_bytes(self, addr, buf);
    }
    fn write_bytes(&mut self, addr: Addr, data: &[u8]) {
        SimMemory::write_bytes(self, addr, data);
    }
}

/// A line-granular copy-on-write overlay over a frozen [`SimMemory`].
///
/// Reads fall through to the base for untouched lines; the first write
/// to a line copies it into the private delta. At the epoch barrier the
/// delta is flushed to the master store in sorted line order
/// ([`CowMem::into_sorted_delta`]), so the flush order is independent of
/// the order the core produced the writes in.
#[derive(Debug)]
pub struct CowMem<'a> {
    base: &'a SimMemory,
    delta: HashMap<u64, [u8; CACHE_LINE as usize]>,
}

impl<'a> CowMem<'a> {
    /// Creates an empty overlay over `base`.
    #[must_use]
    pub fn new(base: &'a SimMemory) -> Self {
        CowMem {
            base,
            delta: HashMap::new(),
        }
    }

    /// The frozen base store.
    #[must_use]
    pub fn base(&self) -> &'a SimMemory {
        self.base
    }

    /// Number of lines copied into the private delta.
    #[must_use]
    pub fn dirty_lines(&self) -> usize {
        self.delta.len()
    }

    /// Consumes the overlay, returning its dirty lines sorted by line
    /// index (deterministic flush order for the barrier merge).
    #[must_use]
    pub fn into_sorted_delta(self) -> Vec<(u64, [u8; CACHE_LINE as usize])> {
        let mut v: Vec<_> = self.delta.into_iter().collect();
        v.sort_unstable_by_key(|&(line, _)| line);
        v
    }
}

impl MemCtx for CowMem<'_> {
    fn read_bytes(&self, addr: Addr, buf: &mut [u8]) {
        let mut pos = addr.0;
        let mut done = 0usize;
        while done < buf.len() {
            let off = (pos % CACHE_LINE) as usize;
            let n = (CACHE_LINE as usize - off).min(buf.len() - done);
            match self.delta.get(&(pos / CACHE_LINE)) {
                Some(line) => buf[done..done + n].copy_from_slice(&line[off..off + n]),
                None => self.base.read_bytes(Addr(pos), &mut buf[done..done + n]),
            }
            pos += n as u64;
            done += n;
        }
    }

    fn write_bytes(&mut self, addr: Addr, data: &[u8]) {
        let base = self.base;
        let mut pos = addr.0;
        let mut done = 0usize;
        while done < data.len() {
            let off = (pos % CACHE_LINE) as usize;
            let n = (CACHE_LINE as usize - off).min(data.len() - done);
            let line = self.delta.entry(pos / CACHE_LINE).or_insert_with(|| {
                let mut b = [0u8; CACHE_LINE as usize];
                base.read_bytes(Addr((pos / CACHE_LINE) * CACHE_LINE), &mut b);
                b
            });
            line[off..off + n].copy_from_slice(&data[done..done + n]);
            pos += n as u64;
            done += n;
        }
    }
}

/// The memory-system surface the simulated core model executes against:
/// implemented by the classic [`MemorySystem`] and by a per-thread
/// [`EpochCore`] shard.
pub trait CoreMem {
    /// The byte store functional reads/writes go through.
    type Data: MemCtx;

    /// Mutable access to the byte store (untimed functional access).
    fn data_mut(&mut self) -> &mut Self::Data;
    /// The frozen master store (epoch mode) or the live store (classic):
    /// read-only structures shared across cores within a window.
    fn base(&self) -> &SimMemory;
    /// The machine configuration.
    fn config(&self) -> &MachineConfig;
    /// Performs a timed access from `core`.
    fn access(&mut self, core: CoreId, addr: Addr, kind: AccessKind, at: Cycle) -> AccessOutcome;
    /// Whether span tracing is on (always off inside epoch shards).
    fn trace_enabled(&self) -> bool;
    /// Records a span on behalf of a component (no-op when disabled).
    fn trace_span(&mut self, component: &'static str, op: &'static str, start: Cycle, end: Cycle);
    /// The whole live machine, for work that needs more than one core's
    /// view (HALO accelerator dispatch); `None` inside epoch shards.
    fn live(&mut self) -> Option<&mut MemorySystem> {
        None
    }
}

impl CoreMem for MemorySystem {
    type Data = SimMemory;

    #[inline]
    fn data_mut(&mut self) -> &mut SimMemory {
        MemorySystem::data_mut(self)
    }
    #[inline]
    fn base(&self) -> &SimMemory {
        self.data()
    }
    fn config(&self) -> &MachineConfig {
        MemorySystem::config(self)
    }
    #[inline]
    fn access(&mut self, core: CoreId, addr: Addr, kind: AccessKind, at: Cycle) -> AccessOutcome {
        MemorySystem::access(self, core, addr, kind, at)
    }
    #[inline]
    fn trace_enabled(&self) -> bool {
        MemorySystem::trace_enabled(self)
    }
    #[inline]
    fn trace_span(&mut self, component: &'static str, op: &'static str, start: Cycle, end: Cycle) {
        MemorySystem::trace_span(self, component, op, start, end);
    }
    #[inline]
    fn live(&mut self) -> Option<&mut MemorySystem> {
        Some(self)
    }
}

/// A frozen snapshot of the LLC directory plus a window-local overlay.
///
/// Probes consult the overlay first, then `peek` the frozen base arrays
/// (no LRU perturbation). The overlay models no capacity or eviction —
/// within one window the LLC is treated as unbounded; real install and
/// eviction happen at replay (a documented, deterministic deviation).
#[derive(Debug)]
struct LlcView<'a> {
    base: &'a [CacheArray],
    slices: usize,
    overlay: HashMap<u64, LineMeta>,
    /// Lines whose remote dirty owner was already charged (and logically
    /// downgraded) within this window.
    snooped: HashSet<u64>,
}

impl<'a> LlcView<'a> {
    fn new(base: &'a [CacheArray], slices: usize) -> Self {
        LlcView {
            base,
            slices,
            overlay: HashMap::new(),
            snooped: HashSet::new(),
        }
    }

    /// Current metadata of `line` as this window sees it.
    fn probe(&self, line: LineAddr) -> Option<LineMeta> {
        if let Some(m) = self.overlay.get(&line.0) {
            return Some(m.clone());
        }
        let slice = slice_hash(line, self.slices);
        self.base[slice.0].peek(line).cloned()
    }

    /// Mutable overlay entry for `line`, copied from the frozen base on
    /// first touch; `None` if the line is resident nowhere.
    fn entry(&mut self, line: LineAddr) -> Option<&mut LineMeta> {
        match self.overlay.entry(line.0) {
            Entry::Occupied(e) => Some(e.into_mut()),
            Entry::Vacant(e) => {
                let slice = slice_hash(line, self.slices);
                Some(e.insert(self.base[slice.0].peek(line)?.clone()))
            }
        }
    }
}

/// The per-core state handed to a worker thread for one epoch window:
/// exclusive private caches and ports, cloned contention-free uncore
/// ports, the frozen LLC view, a [`CowMem`] overlay, and the event log.
///
/// Produced by [`MemorySystem::epoch_split`]; turn into a
/// [`WindowOutcome`] with [`EpochCore::finish`] once the window's work
/// is done.
#[derive(Debug)]
pub struct EpochCore<'a> {
    core: CoreId,
    cfg: &'a MachineConfig,
    mem: CowMem<'a>,
    l1d: &'a mut CacheArray,
    l2: &'a mut CacheArray,
    l1_port: &'a mut BankedResource,
    l2_port: &'a mut Resource,
    /// Window-local clones: slice-port and DRAM contention from other
    /// cores is not modeled *within* a window (documented deviation; the
    /// clone is discarded at the barrier).
    slice_port: Vec<Resource>,
    dram: BankedResource,
    llc: LlcView<'a>,
    stats: Stats,
    ids: MemStatIds,
    events: Vec<LlcEvent>,
}

/// Everything a window produced, detached from the borrows of the
/// [`MemorySystem`]: the event log, the memory delta, and the stat
/// deltas. Collect these after the thread scope ends and feed them to
/// [`MemorySystem::epoch_merge`].
#[derive(Debug)]
pub struct WindowOutcome {
    core: CoreId,
    events: Vec<LlcEvent>,
    delta: Vec<(u64, [u8; CACHE_LINE as usize])>,
    stats: Stats,
}

impl WindowOutcome {
    /// The simulated core this outcome belongs to.
    #[must_use]
    pub fn core(&self) -> CoreId {
        self.core
    }
}

impl EpochCore<'_> {
    /// The simulated core this shard executes.
    #[must_use]
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// Detaches the window's observable effects for the barrier merge.
    #[must_use]
    pub fn finish(self) -> WindowOutcome {
        WindowOutcome {
            core: self.core,
            events: self.events,
            delta: self.mem.into_sorted_delta(),
            stats: self.stats,
        }
    }
}

/// The epoch executor's deviations from the classic walk, one per
/// method: a window reads the directory as frozen at the split and
/// writes it only through its overlay and event log.
impl Hierarchy for EpochCore<'_> {
    #[inline]
    fn cfg(&self) -> &MachineConfig {
        self.cfg
    }

    #[inline]
    fn counters(&mut self) -> (&mut Stats, &MemStatIds) {
        (&mut self.stats, &self.ids)
    }

    /// The shard's own core, borrowed exclusively from the master.
    #[inline]
    fn private(&mut self, core: CoreId) -> Private<'_> {
        debug_assert_eq!(core, self.core, "epoch shard driven by a foreign core");
        Private {
            l1d: self.l1d,
            l2: self.l2,
            l1_port: self.l1_port,
            l2_port: self.l2_port,
        }
    }

    /// Window-local clones: other cores' slice-port and DRAM contention
    /// is not modelled within a window.
    #[inline]
    fn uncore(&mut self) -> (&mut [Resource], &mut BankedResource) {
        (&mut self.slice_port, &mut self.dram)
    }

    /// The frozen view (no LRU update). Other cores' private tags are
    /// unreachable from a shard, so the directory stands in for them: a
    /// Modified line that another core shares has a remote dirty owner,
    /// charged once per line per window (`snooped`). Replay downgrades
    /// the real owner.
    fn probe(&mut self, core: CoreId, _slice: SliceId, line: LineAddr) -> Option<(bool, u64)> {
        let m = self.llc.probe(line)?;
        let remote = m.state == LineState::Modified
            && m.sharers & !(1 << core.0) != 0
            && self.llc.snooped.insert(line.0);
        Some((remote, u64::from(m.sharers)))
    }

    /// An overlay entry with no capacity: the real install and its
    /// eviction happen at replay.
    fn allocate(&mut self, _slice: SliceId, line: LineAddr) {
        self.llc
            .overlay
            .insert(line.0, LineMeta::new(LineState::Shared, 0, 0));
    }

    /// No lock check: `epoch_split` refuses a system holding locks, and
    /// a window takes none.
    fn prune_lock(&mut self, _line: LineAddr, _now: Cycle) -> Option<Cycle> {
        None
    }

    /// Timing only: the other cores' copies are invalidated at replay.
    fn invalidate(&mut self, _mask: u64, _line: LineAddr) {}

    /// Applied to the overlay and logged for replay.
    #[inline]
    fn transition(&mut self, core: CoreId, ev: LlcEvent) -> u64 {
        self.events.push(ev);
        self.llc
            .entry(ev.line())
            .map_or(0, |meta| ev.apply(core, meta))
    }
}

impl<'a> CoreMem for EpochCore<'a> {
    type Data = CowMem<'a>;

    fn data_mut(&mut self) -> &mut CowMem<'a> {
        &mut self.mem
    }
    fn base(&self) -> &SimMemory {
        self.mem.base()
    }
    fn config(&self) -> &MachineConfig {
        self.cfg
    }
    #[inline]
    fn access(&mut self, core: CoreId, addr: Addr, kind: AccessKind, at: Cycle) -> AccessOutcome {
        walk::access(self, core, addr, kind, at)
    }
    fn trace_enabled(&self) -> bool {
        false
    }
    fn trace_span(&mut self, _c: &'static str, _o: &'static str, _s: Cycle, _e: Cycle) {}
}

impl MemorySystem {
    /// Splits the system into one [`EpochCore`] shard per simulated core
    /// (the first `cores` of them) for one epoch window. Each shard
    /// borrows that core's private caches and ports exclusively and sees
    /// the LLC directory and data store frozen at this instant.
    ///
    /// Shards are [`Send`], so they can be moved into a
    /// [`std::thread::scope`]; while they live, the system itself is
    /// inaccessible (the borrow checker enforces the barrier).
    ///
    /// # Panics
    ///
    /// Panics if `cores` exceeds the configured core count, if tracing
    /// is enabled, or if hardware locks are held (epoch mode covers the
    /// software datapath only; callers fall back to the classic
    /// sequential path otherwise).
    pub fn epoch_split(&mut self, cores: usize) -> Vec<EpochCore<'_>> {
        assert!(cores <= self.cfg.cores, "core out of range");
        assert!(
            !self.tracer.is_enabled(),
            "epoch mode does not support span tracing"
        );
        assert!(
            self.llc.iter().all(|slice| slice.locked_lines() == 0),
            "epoch mode does not support in-flight hardware locks"
        );
        let cfg = &self.cfg;
        let mem = &self.mem;
        let llc = &self.llc[..];
        let ids = self.ids;
        let stats_proto = {
            let mut s = self.stats.clone();
            s.clear();
            s
        };
        let slice_port = self.slice_port.clone();
        let dram = self.dram.clone();
        self.l1d
            .iter_mut()
            .zip(self.l2.iter_mut())
            .zip(self.l1_port.iter_mut())
            .zip(self.l2_port.iter_mut())
            .take(cores)
            .enumerate()
            .map(|(i, (((l1d, l2), l1_port), l2_port))| EpochCore {
                core: CoreId(i),
                cfg,
                mem: CowMem::new(mem),
                l1d,
                l2,
                l1_port,
                l2_port,
                slice_port: slice_port.clone(),
                dram: dram.clone(),
                llc: LlcView::new(llc, cfg.slices),
                stats: stats_proto.clone(),
                ids,
                events: Vec::new(),
            })
            .collect()
    }

    /// Merges the outcomes of one epoch window back into the master
    /// state, replaying each core's event log and flushing its memory
    /// delta **in ascending core order**, single-threaded. Outcomes may
    /// arrive in any order; they are sorted here, so the merge result is
    /// independent of thread scheduling.
    pub fn epoch_merge(&mut self, mut outcomes: Vec<WindowOutcome>) {
        outcomes.sort_by_key(|o| o.core.0);
        for out in outcomes {
            for &ev in &out.events {
                self.replay(out.core, ev);
            }
            for (line, bytes) in out.delta {
                self.mem.write_bytes(Addr(line * CACHE_LINE), &bytes);
            }
            self.stats.merge(&out.stats);
        }
    }

    /// Applies one deferred shared-state transition to the master LLC
    /// and the *other* cores' private caches, through the same
    /// directory probe and transitions the classic walk uses. An
    /// `Access` re-probes the master (LRU bump, dirty-owner downgrade
    /// against the real private tags) or installs the line. All
    /// request-level stats were already counted inside the window; only
    /// eviction effects discovered here (writebacks, back-invalidations),
    /// which the window cannot see, are counted at replay — replay runs
    /// in fixed order, so the counts stay deterministic.
    fn replay(&mut self, core: CoreId, ev: LlcEvent) {
        if let LlcEvent::Access(line, _) = ev {
            let slice = self.home_slice(line);
            if self.probe(core, slice, line).is_none() {
                let victim = self.llc[slice.0].insert(line, LineState::Shared);
                self.replay_llc_eviction(victim);
            }
        }
        let revoked = self.transition(core, ev);
        self.invalidate(revoked, ev.line());
    }

    /// Inclusive-eviction handling at replay. Eviction stats are counted
    /// here (not in the window, which cannot observe master evictions);
    /// replay order is fixed, so the counts are thread-count-invariant.
    ///
    /// Unlike the classic `handle_llc_eviction`, this scans every core's
    /// private caches instead of the victim's sharers: a core replayed
    /// later in this merge already holds its window fills, but its
    /// `FillSharer` events have not been replayed yet, so the directory
    /// does not list it.
    fn replay_llc_eviction(&mut self, ev: Eviction) {
        let victim = match ev {
            Eviction::None => return,
            Eviction::Clean { line, .. } => line,
            Eviction::Dirty { line, .. } => {
                self.stats.inc(self.ids.llc_writeback);
                line
            }
        };
        let mut invalidated = false;
        for c in 0..self.cfg.cores {
            if self.l1d[c].invalidate(victim).is_some() {
                invalidated = true;
            }
            if self.l2[c].invalidate(victim).is_some() {
                invalidated = true;
            }
        }
        if invalidated {
            self.stats.inc(self.ids.llc_back_inval);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemorySystem {
        MemorySystem::new(MachineConfig::small())
    }

    const fn assert_send<T: Send>() {}
    const _: () = assert_send::<EpochCore<'_>>();
    const _: () = assert_send::<WindowOutcome>();

    #[test]
    fn cow_mem_reads_through_and_overlays_writes() {
        let mut base = SimMemory::new();
        let a = base.alloc_lines(256);
        base.write_u64(a, 11);
        base.write_u64(a + 64, 22);
        let mut cow = CowMem::new(&base);
        assert_eq!(cow.read_u64(a), 11);
        cow.write_u64(a, 99);
        cow.write_u8(a + 70, 7);
        assert_eq!(cow.read_u64(a), 99, "write visible through overlay");
        assert_eq!(cow.read_u64(a + 64), 22 | (7 << 48), "partial-line CoW");
        assert_eq!(cow.dirty_lines(), 2);
        let delta = cow.into_sorted_delta();
        assert_eq!(delta.len(), 2);
        assert!(delta[0].0 < delta[1].0, "delta sorted by line");
        assert_eq!(base.read_u64(a), 11, "base untouched until merge");
    }

    #[test]
    fn cow_mem_crosses_line_boundaries() {
        let mut base = SimMemory::new();
        let a = base.alloc_lines(256);
        let mut cow = CowMem::new(&base);
        let data: Vec<u8> = (0..100u8).collect();
        cow.write_bytes(a + 30, &data);
        let mut back = vec![0u8; 100];
        cow.read_bytes(a + 30, &mut back);
        assert_eq!(back, data);
        assert_eq!(cow.dirty_lines(), 3, "spans three lines");
    }

    /// Two cores, two threads vs. inline: the merged master state and
    /// stats must not depend on which host thread ran which shard.
    #[test]
    fn two_core_window_is_thread_invariant() {
        let run = |threaded: bool| -> (Vec<u64>, Vec<bool>) {
            let mut s = sys();
            let base = s.data_mut().alloc_lines(64 * 64);
            let mut fleet = s.epoch_split(2);
            let work = |shard: &mut EpochCore<'_>, salt: u64| {
                let core = shard.core();
                let mut t = Cycle(0);
                for i in 0..120u64 {
                    let kind = if (i + salt).is_multiple_of(4) {
                        AccessKind::Store
                    } else {
                        AccessKind::Load
                    };
                    t = shard
                        .access(core, base + ((i * 7 + salt) % 40) * 64, kind, t)
                        .complete;
                }
            };
            if threaded {
                std::thread::scope(|scope| {
                    for (i, shard) in fleet.iter_mut().enumerate() {
                        scope.spawn(move || work(shard, i as u64));
                    }
                });
            } else {
                // Reverse order on purpose: merge must not care.
                for (i, shard) in fleet.iter_mut().enumerate().rev() {
                    work(shard, i as u64);
                }
            }
            let out: Vec<_> = fleet.into_iter().map(EpochCore::finish).collect();
            s.epoch_merge(out);
            let counters = [
                "mem.load",
                "mem.store",
                "l1d.hit",
                "llc.hit",
                "llc.miss",
                "dram.access",
                "coherence.invalidation",
            ]
            .iter()
            .map(|k| s.stats().counter(k))
            .collect();
            let residency = (0..40u64)
                .flat_map(|i| {
                    let a = base + i * 64;
                    [s.in_llc(a), s.in_l1(CoreId(0), a), s.in_l1(CoreId(1), a)]
                })
                .collect();
            (counters, residency)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn window_writes_reach_master_only_at_merge() {
        let mut s = sys();
        let a = s.data_mut().alloc_lines(64);
        s.data_mut().write_u64(a, 5);
        let mut fleet = s.epoch_split(1);
        fleet[0].data_mut().write_u64(a, 42);
        assert_eq!(fleet[0].data_mut().read_u64(a), 42);
        let out: Vec<_> = fleet.into_iter().map(EpochCore::finish).collect();
        s.epoch_merge(out);
        assert_eq!(s.data_mut().read_u64(a), 42);
    }
}
