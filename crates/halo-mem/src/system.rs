//! The simulated memory system: private L1D/L2 per core, a NUCA LLC of
//! per-slice arrays fronted by CHAs, a ring interconnect, DRAM channels,
//! a sharer directory, and the HALO hardware lock bits.
//!
//! Timing follows the latency + occupancy model of
//! [`halo_sim::Resource`]; content state (which line is cached where, in
//! what state) is tracked exactly.

use crate::addr::{Addr, CoreId, LineAddr, SliceId};
use crate::cache::{CacheArray, Eviction, LineMeta, LineState};
use crate::config::MachineConfig;
use crate::memory::SimMemory;
use crate::walk::{self, Hierarchy, LlcEvent, Private};
use halo_sim::{BankedResource, Cycle, Cycles, Resource, StatId, Stats, Tracer};

/// Kind of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A read.
    Load,
    /// A write (obtains ownership, dirties the line).
    Store,
}

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HitLevel {
    /// Private L1 data cache.
    L1,
    /// Private L2.
    L2,
    /// LLC (clean or LLC-owned).
    Llc,
    /// LLC, but the line had to be pulled out of a remote core's private
    /// cache in Modified state (expensive core-to-core transfer).
    LlcRemoteDirty,
    /// Main memory.
    Dram,
}

/// Result of a timed memory access.
#[derive(Debug, Clone, Copy)]
pub struct AccessOutcome {
    /// Cycle at which the data is available / the store is ordered.
    pub complete: Cycle,
    /// The level that satisfied the access.
    pub level: HitLevel,
}

/// The full simulated memory hierarchy.
///
/// # Examples
///
/// ```
/// use halo_mem::{AccessKind, MachineConfig, MemorySystem, Addr, CoreId};
/// use halo_sim::Cycle;
///
/// let mut sys = MemorySystem::new(MachineConfig::small());
/// let a = sys.data_mut().alloc(64, 64);
/// // Cold access misses everywhere and goes to DRAM...
/// let cold = sys.access(CoreId(0), a, AccessKind::Load, Cycle(0));
/// // ...the refill leaves the line in L1, so a re-access hits.
/// let warm = sys.access(CoreId(0), a, AccessKind::Load, cold.complete);
/// assert!(warm.complete - cold.complete < cold.complete - Cycle(0));
/// ```
#[derive(Debug)]
pub struct MemorySystem {
    pub(crate) cfg: MachineConfig,
    pub(crate) mem: SimMemory,
    pub(crate) l1d: Vec<CacheArray>,
    pub(crate) l2: Vec<CacheArray>,
    pub(crate) llc: Vec<CacheArray>,
    pub(crate) l1_port: Vec<BankedResource>,
    pub(crate) l2_port: Vec<Resource>,
    pub(crate) slice_port: Vec<Resource>,
    pub(crate) dram: BankedResource,
    pub(crate) stats: Stats,
    pub(crate) ids: MemStatIds,
    /// Cycle-attribution sink (DESIGN.md §10). Off by default; every
    /// instrumented path checks [`Tracer::is_enabled`] first, so the
    /// disabled cost is one branch per access.
    pub(crate) tracer: Tracer,
}

/// Span op name for an access satisfied at `level` (core-initiated).
#[inline]
fn level_op(level: HitLevel) -> &'static str {
    match level {
        HitLevel::L1 => "l1",
        HitLevel::L2 => "l2",
        HitLevel::Llc => "llc",
        HitLevel::LlcRemoteDirty => "llc_dirty",
        HitLevel::Dram => "dram",
    }
}

/// Span op name for an accelerator-initiated access satisfied at
/// `level` (the CHA-side fast path; L1/L2 are unreachable from there).
#[inline]
fn accel_level_op(level: HitLevel) -> &'static str {
    match level {
        HitLevel::L1 | HitLevel::L2 => "accel_private",
        HitLevel::Llc => "accel_llc",
        HitLevel::LlcRemoteDirty => "accel_llc_dirty",
        HitLevel::Dram => "accel_dram",
    }
}

/// Pre-registered [`StatId`] handles for every counter the memory
/// system bumps, resolved once at construction so the access hot path
/// never performs a string lookup. `Stats::clear` zeroes values but
/// keeps registrations, so these handles survive `clear_stats`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemStatIds {
    pub(crate) mem_load: StatId,
    pub(crate) mem_store: StatId,
    pub(crate) l1d_hit: StatId,
    pub(crate) l1d_miss: StatId,
    pub(crate) l2_hit: StatId,
    pub(crate) l2_miss: StatId,
    pub(crate) llc_hit: StatId,
    pub(crate) llc_miss: StatId,
    pub(crate) dram_access: StatId,
    pub(crate) store_lock_retry: StatId,
    pub(crate) llc_dirty_snoop: StatId,
    pub(crate) mem_snapshot_read: StatId,
    pub(crate) accel_access: StatId,
    pub(crate) accel_llc_hit: StatId,
    pub(crate) accel_llc_miss: StatId,
    pub(crate) hw_lock_set: StatId,
    pub(crate) dma_write: StatId,
    pub(crate) flush_private: StatId,
    pub(crate) fault_force_evict: StatId,
    pub(crate) llc_writeback: StatId,
    pub(crate) llc_back_inval: StatId,
    pub(crate) private_writeback: StatId,
    pub(crate) coherence_invalidation: StatId,
}

impl MemStatIds {
    fn register(stats: &mut Stats) -> Self {
        MemStatIds {
            mem_load: stats.counter_id("mem.load"),
            mem_store: stats.counter_id("mem.store"),
            l1d_hit: stats.counter_id("l1d.hit"),
            l1d_miss: stats.counter_id("l1d.miss"),
            l2_hit: stats.counter_id("l2.hit"),
            l2_miss: stats.counter_id("l2.miss"),
            llc_hit: stats.counter_id("llc.hit"),
            llc_miss: stats.counter_id("llc.miss"),
            dram_access: stats.counter_id("dram.access"),
            store_lock_retry: stats.counter_id("store.lock_retry"),
            llc_dirty_snoop: stats.counter_id("llc.dirty_snoop"),
            mem_snapshot_read: stats.counter_id("mem.snapshot_read"),
            accel_access: stats.counter_id("accel.access"),
            accel_llc_hit: stats.counter_id("accel.llc_hit"),
            accel_llc_miss: stats.counter_id("accel.llc_miss"),
            hw_lock_set: stats.counter_id("hw_lock.set"),
            dma_write: stats.counter_id("dma.write"),
            flush_private: stats.counter_id("flush.private"),
            fault_force_evict: stats.counter_id("fault.force_evict"),
            llc_writeback: stats.counter_id("llc.writeback"),
            llc_back_inval: stats.counter_id("llc.back_inval"),
            private_writeback: stats.counter_id("private.writeback"),
            coherence_invalidation: stats.counter_id("coherence.invalidation"),
        }
    }
}

/// Hops between two ring stops of an `n`-stop bidirectional ring.
#[inline]
pub(crate) fn ring_hops(a: usize, b: usize, n: usize) -> u64 {
    let d = a.abs_diff(b);
    d.min(n - d) as u64
}

/// The Intel-style address hash assigning a line to its home slice.
#[inline]
pub(crate) fn slice_hash(line: LineAddr, slices: usize) -> SliceId {
    let h = line.0 ^ (line.0 >> 7) ^ (line.0 >> 17);
    SliceId((h as usize) % slices)
}

impl MemorySystem {
    /// Builds a cold memory system for `cfg`. Each cache array
    /// allocates its storage on its first fill.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` has more than 16 cores: the LLC directory keeps a
    /// 16-bit sharer mask per line.
    #[must_use]
    pub fn new(cfg: MachineConfig) -> Self {
        assert!(
            cfg.cores <= u16::BITS as usize,
            "{} cores do not fit the 16-bit LLC sharer mask",
            cfg.cores
        );
        let l1d = (0..cfg.cores).map(|_| CacheArray::new(cfg.l1d)).collect();
        let l2 = (0..cfg.cores).map(|_| CacheArray::new(cfg.l2)).collect();
        let llc = (0..cfg.slices)
            .map(|_| CacheArray::new(cfg.llc_slice))
            .collect();
        // Two load + one store pipe per cycle on modern cores: model as
        // three address-interleaved L1 banks.
        let l1_port = (0..cfg.cores)
            .map(|_| BankedResource::new("l1d", 3, cfg.l1_latency, Cycles(1)))
            .collect();
        let l2_port = (0..cfg.cores)
            .map(|_| Resource::new("l2", cfg.l2_latency, Cycles(2)))
            .collect();
        let slice_port = (0..cfg.slices)
            .map(|_| Resource::new("llc-slice", cfg.llc_latency, Cycles(2)))
            .collect();
        let dram =
            BankedResource::new("dram-chan", cfg.dram_channels, cfg.dram_latency, Cycles(12));
        let mut stats = Stats::new();
        let ids = MemStatIds::register(&mut stats);
        MemorySystem {
            cfg,
            mem: SimMemory::new(),
            l1d,
            l2,
            llc,
            l1_port,
            l2_port,
            slice_port,
            dram,
            stats,
            ids,
            tracer: Tracer::off(),
        }
    }

    /// The machine configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Immutable access to the backing data store (reads of absent pages
    /// return zeros without materializing them).
    #[must_use]
    pub fn data(&self) -> &SimMemory {
        &self.mem
    }

    /// Mutable access to the backing data store (functional reads and
    /// writes that should not be timed, e.g. table construction).
    pub fn data_mut(&mut self) -> &mut SimMemory {
        &mut self.mem
    }

    /// Collected statistics.
    #[must_use]
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Clears collected statistics (cache contents are preserved).
    pub fn clear_stats(&mut self) {
        self.stats.clear();
    }

    /// The cycle-attribution tracer (histograms + span ring buffer).
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Enables span recording with the given ring-buffer capacity
    /// (see [`Tracer::enable`]).
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.tracer.enable(capacity);
    }

    /// Whether tracing is on. Components owning no tracer of their own
    /// (core model, engine, vswitch) check this before assembling span
    /// arguments.
    #[inline]
    #[must_use]
    pub fn trace_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// Records a span on behalf of another component (no-op while
    /// tracing is off).
    #[inline]
    pub fn trace_span(
        &mut self,
        component: &'static str,
        op: &'static str,
        start: Cycle,
        end: Cycle,
    ) {
        self.tracer.span(component, op, start, end);
    }

    /// The home LLC slice of a line (Intel-style address hash).
    #[must_use]
    pub fn home_slice(&self, line: LineAddr) -> SliceId {
        slice_hash(line, self.cfg.slices)
    }

    /// Ring-hop distance between a core and a slice (core `i` sits at ring
    /// stop `i % slices`).
    #[must_use]
    pub fn hops(&self, core: CoreId, slice: SliceId) -> u64 {
        let n = self.cfg.slices;
        ring_hops(core.0 % n, slice.0, n)
    }

    // ------------------------------------------------------------------
    // Core-initiated accesses
    // ------------------------------------------------------------------

    /// Performs a timed core access to `addr`.
    ///
    /// Updates cache contents, the directory, and statistics; returns the
    /// completion time and the satisfying level.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[inline]
    pub fn access(
        &mut self,
        core: CoreId,
        addr: Addr,
        kind: AccessKind,
        at: Cycle,
    ) -> AccessOutcome {
        assert!(core.0 < self.cfg.cores, "core out of range");
        let out = walk::access(self, core, addr, kind, at);
        if self.tracer.is_enabled() {
            self.tracer
                .span("mem", level_op(out.level), at, out.complete);
        }
        out
    }

    /// A coherence-neutral snapshot read (the `SNAPSHOT_READ` instruction):
    /// reads the line wherever it is *without* changing any ownership
    /// state and without filling private caches, so the line stays put in
    /// the LLC for the accelerator to keep writing results into.
    pub fn snapshot_read(&mut self, core: CoreId, addr: Addr, at: Cycle) -> AccessOutcome {
        let out = self.snapshot_read_untraced(core, addr, at);
        if self.tracer.is_enabled() {
            self.tracer.span("mem", "snapshot_read", at, out.complete);
        }
        out
    }

    fn snapshot_read_untraced(&mut self, core: CoreId, addr: Addr, at: Cycle) -> AccessOutcome {
        let line = addr.line();
        self.stats.inc(self.ids.mem_snapshot_read);
        // L1 hit still possible and fastest.
        let t_l1 = self.l1_port[core.0].serve(line.0 as usize, at);
        if self.l1d[core.0].peek(line).is_some() {
            return AccessOutcome {
                complete: t_l1,
                level: HitLevel::L1,
            };
        }
        if self.l2[core.0].peek(line).is_some() {
            let t = self.l2_port[core.0].serve(at).max(t_l1);
            return AccessOutcome {
                complete: t,
                level: HitLevel::L2,
            };
        }
        let slice = self.home_slice(line);
        let wire = walk::wire(&self.cfg, core, slice);
        let t_llc = self.slice_port[slice.0].serve(at + self.cfg.l2_latency + wire);
        if self.llc[slice.0].peek(line).is_some() {
            // No sharer update, no private fill: ownership unchanged.
            return AccessOutcome {
                complete: t_llc,
                level: HitLevel::Llc,
            };
        }
        let t_dram = self.dram.serve(walk::dram_channel(line), t_llc);
        self.llc_install_untracked(slice, line);
        AccessOutcome {
            complete: t_dram,
            level: HitLevel::Dram,
        }
    }

    // ------------------------------------------------------------------
    // Accelerator-initiated accesses (from a CHA)
    // ------------------------------------------------------------------

    /// Performs a timed access issued by the accelerator attached to
    /// `slice`'s CHA. Near-cache accesses to the local slice skip the
    /// core-side interconnect round trip entirely.
    #[inline]
    pub fn accel_access(
        &mut self,
        from: SliceId,
        addr: Addr,
        kind: AccessKind,
        at: Cycle,
    ) -> AccessOutcome {
        let out = self.accel_access_untraced(from, addr, kind, at);
        if self.tracer.is_enabled() {
            self.tracer
                .span("mem", accel_level_op(out.level), at, out.complete);
        }
        out
    }

    /// Hints the host lines of the home LLC slice's tag set for `addr`,
    /// ahead of an accelerator access (or hardware lock) of it. The far
    /// stage of a staged search: issue it several accesses ahead.
    ///
    /// Hints change no simulated state (DESIGN.md §9 item 10): no LRU
    /// rank, counter, stat, lock or line moves.
    #[inline]
    pub fn prefetch_llc_set(&self, addr: Addr) {
        let line = addr.line();
        self.llc[self.home_slice(line).0].prefetch_set(line);
    }

    /// Hints the host line of `addr`'s LLC metadata, if the line is
    /// resident. The near stage: it scans the tag set, so issue it a
    /// few accesses ahead and after [`prefetch_llc_set`](Self::prefetch_llc_set).
    /// Changes no simulated state.
    #[inline]
    pub fn prefetch_llc_way(&self, addr: Addr) {
        let line = addr.line();
        self.llc[self.home_slice(line).0].prefetch_way(line);
    }

    fn accel_access_untraced(
        &mut self,
        from: SliceId,
        addr: Addr,
        kind: AccessKind,
        at: Cycle,
    ) -> AccessOutcome {
        let line = addr.line();
        self.stats.inc(self.ids.accel_access);
        let home = self.home_slice(line);
        let t_arr = if home == from {
            // Local slice: short CHA-internal path (no interconnect
            // round trip), still subject to slice-port occupancy.
            self.slice_port[home.0].serve_with_latency(at, self.cfg.accel_local_latency)
        } else {
            // CHA-to-CHA transfer: the request rides the ring to the
            // home CHA and the data rides back, but both stay on the
            // uncore fast path (no core-side queueing), so the array
            // access itself is the short CHA-internal one.
            let wire = Cycles(ring_hops(from.0, home.0, self.cfg.slices) * self.cfg.hop_latency.0);
            self.slice_port[home.0].serve_with_latency(at + wire, self.cfg.accel_local_latency)
        };

        if let Some((dirty_owner, sharers)) = self.llc_probe(home, line) {
            self.stats.inc(self.ids.accel_llc_hit);
            let mut t = t_arr;
            let mut level = HitLevel::Llc;
            if let Some(owner) = dirty_owner {
                self.stats.inc(self.ids.llc_dirty_snoop);
                t += self.cfg.dirty_snoop_latency;
                level = HitLevel::LlcRemoteDirty;
                self.downgrade_owner(owner, line);
            }
            if kind == AccessKind::Store {
                // Invalidate core copies before the accelerator writes.
                if let Some(meta) = self.llc[home.0].peek_mut(line) {
                    meta.sharers = 0;
                    meta.state = LineState::Modified;
                }
                t = walk::invalidate_sharers(self, sharers, line, home, t);
            }
            return AccessOutcome { complete: t, level };
        }
        self.stats.inc(self.ids.accel_llc_miss);
        let t_dram = self.dram.serve(walk::dram_channel(line), t_arr);
        self.llc_install_untracked(home, line);
        if kind == AccessKind::Store {
            if let Some(meta) = self.llc[home.0].peek_mut(line) {
                meta.state = LineState::Modified;
            }
        }
        AccessOutcome {
            complete: t_dram,
            level: HitLevel::Dram,
        }
    }

    // ------------------------------------------------------------------
    // HALO hardware lock bits
    // ------------------------------------------------------------------

    /// Sets the hardware lock bit on `line` until `until`. Overlapping
    /// locks extend the release time.
    ///
    /// The lock lives in the line's LLC way. A line that is not in the
    /// LLC therefore holds nothing, just as an LLC eviction drops the
    /// lock of its victim. The accelerator locks the lines its query has
    /// just touched, so such a line is normally still resident.
    #[inline]
    pub fn hw_lock(&mut self, line: LineAddr, until: Cycle) {
        let slice = self.home_slice(line);
        self.llc[slice.0].lock(line, until);
        self.stats.inc(self.ids.hw_lock_set);
    }

    /// Clears every lock bit whose release time has passed: a linear
    /// pass over each LLC slice that still holds a lock.
    pub fn hw_unlock_expired(&mut self, now: Cycle) {
        for slice in &mut self.llc {
            slice.unlock_expired(now);
        }
    }

    /// Returns the release time of the lock on `line`, if held.
    #[must_use]
    pub fn lock_release(&self, line: LineAddr) -> Option<Cycle> {
        let slice = self.home_slice(line);
        self.llc[slice.0].peek(line)?.lock_release()
    }

    // ------------------------------------------------------------------
    // Placement / warm-up helpers for experiments
    // ------------------------------------------------------------------

    /// Installs the line containing `addr` into the LLC (untimed), as a
    /// warm-up convenience.
    pub fn warm_llc(&mut self, addr: Addr) {
        let line = addr.line();
        let slice = self.home_slice(line);
        if self.llc[slice.0].peek(line).is_none() {
            self.llc_install_untracked(slice, line);
        }
    }

    /// Installs the line containing `addr` into `core`'s private caches
    /// and the LLC (untimed warm-up).
    pub fn warm_private(&mut self, core: CoreId, addr: Addr) {
        self.warm_llc(addr);
        let line = addr.line();
        walk::fill_private(self, core, line, AccessKind::Load);
        self.transition(core, LlcEvent::FillSharer(line));
    }

    /// Models a DDIO packet delivery: the NIC DMA-writes the line
    /// containing `addr` directly into the LLC (Intel Data Direct I/O),
    /// invalidating any stale private-cache copies. Untimed: DMA happens
    /// off the critical path.
    ///
    /// Only the directory's sharers are probed: the cores holding a line
    /// are a subset of its sharers (see `handle_llc_eviction`), and a
    /// line absent from the LLC is held by no core, by inclusion.
    pub fn dma_write(&mut self, addr: Addr) {
        let line = addr.line();
        let slice = self.home_slice(line);
        let resident = self.llc[slice.0].peek(line).map(|m| u64::from(m.sharers));
        let sharers = resident.unwrap_or(0);
        debug_assert!(
            (0..self.cfg.cores).all(|c| sharers & (1 << c) != 0
                || (self.l1d[c].peek(line).is_none() && self.l2[c].peek(line).is_none())),
            "DMA line {line} held by a core outside its sharers {sharers:#b}"
        );
        let mut rest = sharers;
        while rest != 0 {
            let c = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            self.l1d[c].invalidate(line);
            self.l2[c].invalidate(line);
        }
        if resident.is_none() {
            self.llc_install_untracked(slice, line);
        }
        if let Some(meta) = self.llc[slice.0].peek_mut(line) {
            meta.state = LineState::Modified;
            meta.sharers = 0;
        }
        self.stats.inc(self.ids.dma_write);
    }

    /// Drops every line from `core`'s private caches. Sharer masks in the
    /// directory are left conservatively stale, as on a clean private
    /// eviction; the dirty-owner probe re-checks private tags, so
    /// correctness is unaffected.
    pub fn flush_private(&mut self, core: CoreId) {
        self.l1d[core.0].clear();
        self.l2[core.0].clear();
        self.stats.inc(self.ids.flush_private);
    }

    /// Drops all cached state everywhere (data is unaffected).
    pub fn flush_all(&mut self) {
        for c in &mut self.l1d {
            c.clear();
        }
        for c in &mut self.l2 {
            c.clear();
        }
        for c in &mut self.llc {
            c.clear();
        }
    }

    /// Fraction of `core`'s L1D currently valid.
    #[must_use]
    pub fn l1_occupancy(&self, core: CoreId) -> f64 {
        let c = &self.l1d[core.0];
        c.resident() as f64 / c.capacity_lines() as f64
    }

    /// Hit/miss counters of one core's L1D.
    #[must_use]
    pub fn l1_hit_miss(&self, core: CoreId) -> (u64, u64) {
        (self.l1d[core.0].hits(), self.l1d[core.0].misses())
    }

    /// Whether the line containing `addr` is present in any LLC slice.
    #[must_use]
    pub fn in_llc(&self, addr: Addr) -> bool {
        let line = addr.line();
        self.llc[self.home_slice(line).0].peek(line).is_some()
    }

    /// Whether the line containing `addr` is in `core`'s L1D.
    #[must_use]
    pub fn in_l1(&self, core: CoreId, addr: Addr) -> bool {
        self.l1d[core.0].peek(addr.line()).is_some()
    }

    // ------------------------------------------------------------------
    // Audit and fault-injection hooks (halo-check)
    // ------------------------------------------------------------------

    /// Lines resident in `core`'s L1D (audit walk; no side effects).
    pub fn l1_lines(&self, core: CoreId) -> impl Iterator<Item = (LineAddr, &LineMeta)> + '_ {
        self.l1d[core.0].iter_lines()
    }

    /// Lines resident in `core`'s L2 (audit walk; no side effects).
    pub fn l2_lines(&self, core: CoreId) -> impl Iterator<Item = (LineAddr, &LineMeta)> + '_ {
        self.l2[core.0].iter_lines()
    }

    /// Lines resident in one LLC slice (audit walk; no side effects).
    pub fn llc_slice_lines(
        &self,
        slice: SliceId,
    ) -> impl Iterator<Item = (LineAddr, &LineMeta)> + '_ {
        self.llc[slice.0].iter_lines()
    }

    /// Currently held hardware locks as `(line, release cycle)` pairs
    /// (a walk over every LLC slice).
    pub fn held_locks(&self) -> impl Iterator<Item = (LineAddr, Cycle)> + '_ {
        self.llc
            .iter()
            .flat_map(CacheArray::iter_lines)
            .filter_map(|(line, m)| Some((line, m.lock_release()?)))
    }

    /// Forcibly evicts the line containing `addr` from the LLC and every
    /// private cache, releasing any hardware lock on it — the
    /// adversarial-eviction hook used by the `halo-check` fault injector.
    /// Bookkeeping matches a natural capacity eviction (back-invalidation
    /// plus lock release); data in [`SimMemory`] is untouched.
    pub fn force_evict(&mut self, addr: Addr) {
        let line = addr.line();
        for c in 0..self.cfg.cores {
            self.l1d[c].invalidate(line);
            self.l2[c].invalidate(line);
        }
        let slice = self.home_slice(line);
        self.llc[slice.0].invalidate(line);
        self.stats.inc(self.ids.fault_force_evict);
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Probe the LLC directory with an LRU-updating lookup: `None` on a
    /// miss, else (dirty private owner, sharer mask). The owner is a
    /// sharer whose L1 or L2 holds the line Modified, checked against
    /// the real private tags since sharer masks over-approximate.
    pub(crate) fn llc_probe(
        &mut self,
        slice: SliceId,
        line: LineAddr,
    ) -> Option<(Option<CoreId>, u64)> {
        let sharers = u64::from(self.llc[slice.0].lookup(line)?.sharers);
        let modified = |m: &LineMeta| m.state == LineState::Modified;
        let dirty_owner = (0..self.cfg.cores)
            .filter(|&c| sharers & (1 << c) != 0)
            .find(|&c| {
                self.l1d[c].peek(line).is_some_and(modified)
                    || self.l2[c].peek(line).is_some_and(modified)
            })
            .map(CoreId);
        Some((dirty_owner, sharers))
    }

    fn llc_install_untracked(&mut self, slice: SliceId, line: LineAddr) {
        let ev = self.llc[slice.0].insert(line, LineState::Shared);
        self.handle_llc_eviction(ev);
    }

    /// Inclusive LLC: back-invalidates the victim's private copies.
    ///
    /// Only the directory's sharers are probed. Every path that fills a
    /// private cache sets the core's sharer bit, and only paths that
    /// also drop the core's copies clear it, so the cores holding a line
    /// are always a subset of its sharers (stale bits from silent
    /// private evictions only over-approximate). Probing the other cores
    /// would find nothing. Epoch replay cannot rely on this; see
    /// `replay_llc_eviction`.
    fn handle_llc_eviction(&mut self, ev: Eviction) {
        let (victim, sharers) = match ev {
            Eviction::None => return,
            Eviction::Clean { line, sharers } => (line, sharers),
            Eviction::Dirty { line, sharers } => {
                self.stats.inc(self.ids.llc_writeback);
                (line, sharers)
            }
        };
        debug_assert!(
            (0..self.cfg.cores).all(|c| sharers & (1 << c) != 0
                || (self.l1d[c].peek(victim).is_none() && self.l2[c].peek(victim).is_none())),
            "LLC victim {victim} held by a core outside its sharers {sharers:#b}"
        );
        let mut invalidated = false;
        let mut rest = sharers;
        while rest != 0 {
            let c = rest.trailing_zeros() as usize;
            rest &= rest - 1;
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

    pub(crate) fn downgrade_owner(&mut self, owner: CoreId, line: LineAddr) {
        if let Some(m) = self.l1d[owner.0].peek_mut(line) {
            m.state = LineState::Shared;
        }
        if let Some(m) = self.l2[owner.0].peek_mut(line) {
            m.state = LineState::Shared;
        }
        let slice = self.home_slice(line);
        if let Some(meta) = self.llc[slice.0].peek_mut(line) {
            meta.state = LineState::Modified; // LLC now holds latest data
        }
    }
}

/// The live hierarchy: every transition lands at once.
impl Hierarchy for MemorySystem {
    #[inline]
    fn cfg(&self) -> &MachineConfig {
        &self.cfg
    }

    #[inline]
    fn counters(&mut self) -> (&mut Stats, &MemStatIds) {
        (&mut self.stats, &self.ids)
    }

    #[inline]
    fn private(&mut self, core: CoreId) -> Private<'_> {
        Private {
            l1d: &mut self.l1d[core.0],
            l2: &mut self.l2[core.0],
            l1_port: &mut self.l1_port[core.0],
            l2_port: &mut self.l2_port[core.0],
        }
    }

    #[inline]
    fn uncore(&mut self) -> (&mut [Resource], &mut BankedResource) {
        (&mut self.slice_port, &mut self.dram)
    }

    /// The LRU-updating directory lookup; a remote dirty owner is found
    /// in the real private tags and downgraded to Shared.
    fn probe(&mut self, core: CoreId, slice: SliceId, line: LineAddr) -> Option<(bool, u64)> {
        let (owner, sharers) = self.llc_probe(slice, line)?;
        let remote = owner.filter(|&o| o != core);
        if let Some(owner) = remote {
            self.downgrade_owner(owner, line);
        }
        Some((remote.is_some(), sharers))
    }

    /// A real insert, back-invalidating the victim's sharers.
    fn allocate(&mut self, slice: SliceId, line: LineAddr) {
        self.llc_install_untracked(slice, line);
    }

    /// Drops the lock if it has expired by `now`, clearing the line's
    /// lock bit.
    fn prune_lock(&mut self, line: LineAddr, now: Cycle) -> Option<Cycle> {
        let slice = self.home_slice(line);
        self.llc[slice.0].release_expired(line, now)
    }

    fn invalidate(&mut self, mask: u64, line: LineAddr) {
        let mut rest = mask;
        while rest != 0 {
            let c = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            self.l1d[c].invalidate(line);
            self.l2[c].invalidate(line);
        }
    }

    #[inline]
    fn transition(&mut self, core: CoreId, ev: LlcEvent) -> u64 {
        let line = ev.line();
        let slice = self.home_slice(line);
        self.llc[slice.0]
            .peek_mut(line)
            .map_or(0, |meta| ev.apply(core, meta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemorySystem {
        MemorySystem::new(MachineConfig::small())
    }

    #[test]
    fn cold_miss_goes_to_dram_then_l1() {
        let mut s = sys();
        let a = s.data_mut().alloc(64, 64);
        let first = s.access(CoreId(0), a, AccessKind::Load, Cycle(0));
        assert_eq!(first.level, HitLevel::Dram);
        let second = s.access(CoreId(0), a, AccessKind::Load, first.complete);
        assert_eq!(second.level, HitLevel::L1);
        assert!(second.complete - first.complete <= Cycles(8));
    }

    #[test]
    fn llc_hit_after_warm() {
        let mut s = sys();
        let a = s.data_mut().alloc(64, 64);
        s.warm_llc(a);
        let out = s.access(CoreId(1), a, AccessKind::Load, Cycle(0));
        assert_eq!(out.level, HitLevel::Llc);
        assert!(s.in_l1(CoreId(1), a), "refill should populate L1");
    }

    #[test]
    fn remote_dirty_costs_core_to_core_transfer() {
        let mut s = sys();
        let a = s.data_mut().alloc(64, 64);
        // Core 0 writes the line, making it Modified in its private cache.
        let w = s.access(CoreId(0), a, AccessKind::Store, Cycle(0));
        // Core 1 then reads it: must pay the dirty-snoop penalty.
        let r = s.access(CoreId(1), a, AccessKind::Load, w.complete);
        assert_eq!(r.level, HitLevel::LlcRemoteDirty);
        assert!(
            (r.complete - w.complete).0 >= s.config().dirty_snoop_latency.0,
            "dirty transfer under-priced"
        );
    }

    #[test]
    fn accel_local_access_is_faster_than_core_access() {
        let mut s = sys();
        let a = s.data_mut().alloc(64, 64);
        s.warm_llc(a);
        let line = a.line();
        let home = s.home_slice(line);
        let accel = s.accel_access(home, a, AccessKind::Load, Cycle(0));
        s.flush_all();
        let mut s2 = sys();
        let a2 = s2.data_mut().alloc(64, 64);
        s2.warm_llc(a2);
        let core = s2.access(CoreId(0), a2, AccessKind::Load, Cycle(0));
        assert!(
            accel.complete < core.complete,
            "near-cache access {:?} should beat core access {:?}",
            accel.complete,
            core.complete
        );
    }

    #[test]
    fn hw_lock_delays_store() {
        let mut s = sys();
        let a = s.data_mut().alloc(64, 64);
        s.warm_llc(a);
        s.hw_lock(a.line(), Cycle(500));
        let w = s.access(CoreId(0), a, AccessKind::Store, Cycle(0));
        assert!(w.complete >= Cycle(500), "store must wait for lock");
        assert_eq!(s.stats().counter("store.lock_retry"), 1);
    }

    #[test]
    fn hw_lock_expires() {
        let mut s = sys();
        let a = s.data_mut().alloc(64, 64);
        s.warm_llc(a);
        s.hw_lock(a.line(), Cycle(100));
        s.hw_unlock_expired(Cycle(101));
        assert!(s.lock_release(a.line()).is_none());
        let w = s.access(CoreId(0), a, AccessKind::Store, Cycle(200));
        assert_eq!(s.stats().counter("store.lock_retry"), 0);
        assert!(w.complete < Cycle(500));
    }

    #[test]
    fn store_invalidates_other_sharers() {
        let mut s = sys();
        let a = s.data_mut().alloc(64, 64);
        let r0 = s.access(CoreId(0), a, AccessKind::Load, Cycle(0));
        let _r1 = s.access(CoreId(1), a, AccessKind::Load, r0.complete);
        assert!(s.in_l1(CoreId(1), a));
        let w = s.access(CoreId(0), a, AccessKind::Store, Cycle(10_000));
        let _ = w;
        assert!(!s.in_l1(CoreId(1), a), "sharer copy must be invalidated");
    }

    #[test]
    fn snapshot_read_does_not_fill_private() {
        let mut s = sys();
        let a = s.data_mut().alloc(64, 64);
        s.warm_llc(a);
        let out = s.snapshot_read(CoreId(0), a, Cycle(0));
        assert_eq!(out.level, HitLevel::Llc);
        assert!(!s.in_l1(CoreId(0), a), "snapshot must not pollute L1");
        assert!(s.in_llc(a), "line must stay in LLC");
    }

    #[test]
    fn working_set_larger_than_l1_misses() {
        let mut s = sys();
        let l1_cap = s.config().l1d.capacity;
        let n = (l1_cap / 64) * 4; // 4x L1 capacity in lines
        let base = s.data_mut().alloc(n * 64, 64);
        // Two passes; second pass should still miss L1 heavily.
        let mut t = Cycle(0);
        for pass in 0..2 {
            for i in 0..n {
                let out = s.access(CoreId(0), base + i * 64, AccessKind::Load, t);
                t = out.complete;
            }
            if pass == 0 {
                s.clear_stats();
            }
        }
        let (h, m) = (s.stats().counter("l1d.hit"), s.stats().counter("l1d.miss"));
        assert!(
            m > h,
            "thrashing working set should mostly miss L1: {h} hits {m} misses"
        );
    }

    #[test]
    fn dram_when_llc_overflows() {
        let mut s = sys();
        let llc_cap = s.config().llc_capacity();
        let n = (llc_cap / 64) * 2;
        let base = s.data_mut().alloc(n * 64, 64);
        let mut t = Cycle(0);
        for i in 0..n {
            let out = s.access(CoreId(0), base + i * 64, AccessKind::Load, t);
            t = out.complete;
        }
        s.clear_stats();
        // Re-stream: most accesses must reach DRAM again.
        let mut dram = 0u64;
        for i in 0..n {
            let out = s.access(CoreId(0), base + i * 64, AccessKind::Load, t);
            t = out.complete;
            if out.level == HitLevel::Dram {
                dram += 1;
            }
        }
        assert!(dram > n / 2, "streaming 2x LLC should hit DRAM: {dram}/{n}");
    }

    #[test]
    fn dma_write_places_line_in_llc_and_invalidates_private() {
        let mut s = sys();
        let a = s.data_mut().alloc_lines(64);
        // Cores 0 and 1 cache the line privately, in L1 and L2.
        let holders = [CoreId(0), CoreId(1)];
        for c in holders {
            s.access(c, a, AccessKind::Load, Cycle(0));
            assert!(s.in_l1(c, a));
            assert!(s.l2[c.0].peek(a.line()).is_some());
        }
        // NIC delivers fresh packet data.
        s.dma_write(a);
        for c in holders {
            assert!(!s.in_l1(c, a), "stale L1 copy of {c:?} must go");
            assert!(
                s.l2[c.0].peek(a.line()).is_none(),
                "stale L2 copy of {c:?} must go"
            );
        }
        assert!(s.in_llc(a), "DDIO places the line in the LLC");
        assert_eq!(s.stats().counter("dma.write"), 1);
    }

    #[test]
    fn snapshot_read_from_dram_installs_in_llc_only() {
        let mut s = sys();
        let a = s.data_mut().alloc_lines(64);
        let out = s.snapshot_read(CoreId(0), a, Cycle(0));
        assert_eq!(out.level, HitLevel::Dram);
        assert!(s.in_llc(a));
        assert!(!s.in_l1(CoreId(0), a));
        // Second snapshot hits the LLC.
        let out2 = s.snapshot_read(CoreId(0), a, out.complete);
        assert_eq!(out2.level, HitLevel::Llc);
    }

    #[test]
    fn snapshot_read_prefers_private_copies() {
        let mut s = sys();
        let a = s.data_mut().alloc_lines(64);
        let r = s.access(CoreId(0), a, AccessKind::Load, Cycle(0));
        let out = s.snapshot_read(CoreId(0), a, r.complete);
        assert_eq!(out.level, HitLevel::L1);
    }

    #[test]
    fn flush_private_forces_llc_reload() {
        let mut s = sys();
        let a = s.data_mut().alloc_lines(64);
        let r = s.access(CoreId(0), a, AccessKind::Load, Cycle(0));
        s.flush_private(CoreId(0));
        assert!(!s.in_l1(CoreId(0), a));
        let r2 = s.access(CoreId(0), a, AccessKind::Load, r.complete);
        assert!(r2.level == HitLevel::Llc || r2.level == HitLevel::LlcRemoteDirty);
    }

    #[test]
    fn accel_store_makes_llc_line_modified_and_invalidates_sharers() {
        let mut s = sys();
        let a = s.data_mut().alloc_lines(64);
        let r = s.access(CoreId(1), a, AccessKind::Load, Cycle(0));
        assert!(s.in_l1(CoreId(1), a));
        let home = s.home_slice(a.line());
        let w = s.accel_access(home, a, AccessKind::Store, r.complete);
        assert!(w.complete > r.complete);
        assert!(
            !s.in_l1(CoreId(1), a),
            "accelerator store must invalidate core copies"
        );
    }

    #[test]
    fn l1_occupancy_reports_fill() {
        let mut s = sys();
        assert_eq!(s.l1_occupancy(CoreId(0)), 0.0);
        let base = s.data_mut().alloc_lines(64 * 16);
        let mut t = Cycle(0);
        for i in 0..16u64 {
            t = s
                .access(CoreId(0), base + i * 64, AccessKind::Load, t)
                .complete;
        }
        assert!(s.l1_occupancy(CoreId(0)) > 0.0);
    }

    #[test]
    fn clear_stats_preserves_cache_contents() {
        let mut s = sys();
        let a = s.data_mut().alloc_lines(64);
        s.access(CoreId(0), a, AccessKind::Load, Cycle(0));
        s.clear_stats();
        assert_eq!(s.stats().counter("l1d.miss"), 0);
        assert!(s.in_l1(CoreId(0), a), "contents must survive stat reset");
    }

    #[test]
    fn slice_hash_spreads_lines() {
        let s = sys();
        let mut counts = vec![0u32; s.config().slices];
        for i in 0..4096u64 {
            counts[s.home_slice(LineAddr(i)).0] += 1;
        }
        for &c in &counts {
            assert!(c > 512 && c < 1536, "imbalanced slice hash: {c}");
        }
    }

    #[test]
    fn force_evict_clears_all_levels_and_locks() {
        let mut s = sys();
        let a = s.data_mut().alloc_lines(64);
        s.data_mut().write_u64(a, 0xDEAD);
        s.access(CoreId(0), a, AccessKind::Load, Cycle(0));
        s.hw_lock(a.line(), Cycle(1_000_000));
        assert!(s.in_l1(CoreId(0), a) && s.in_llc(a));
        s.force_evict(a);
        assert!(!s.in_l1(CoreId(0), a), "private copy must go");
        assert!(!s.in_llc(a), "LLC copy must go");
        assert!(s.lock_release(a.line()).is_none(), "lock must release");
        assert_eq!(s.held_locks().count(), 0);
        // Data survives: the next access refills from DRAM.
        assert_eq!(s.data_mut().read_u64(a), 0xDEAD);
        let r = s.access(CoreId(0), a, AccessKind::Load, Cycle(0));
        assert_eq!(r.level, HitLevel::Dram);
    }

    #[test]
    fn audit_walks_see_resident_lines() {
        let mut s = sys();
        let a = s.data_mut().alloc_lines(64);
        s.access(CoreId(2), a, AccessKind::Store, Cycle(0));
        let line = a.line();
        assert!(s.l1_lines(CoreId(2)).any(|(l, _)| l == line));
        assert!(s.l2_lines(CoreId(2)).any(|(l, _)| l == line));
        let home = s.home_slice(line);
        assert!(s.llc_slice_lines(home).any(|(l, _)| l == line));
        // The walk is side-effect free: counters unchanged.
        let (h, m) = s.l1_hit_miss(CoreId(2));
        let _ = s.l1_lines(CoreId(2)).count();
        assert_eq!((h, m), s.l1_hit_miss(CoreId(2)));
    }

    #[test]
    fn tracing_is_off_by_default_and_attributes_hit_levels() {
        let mut s = sys();
        let a = s.data_mut().alloc_lines(64);
        s.access(CoreId(0), a, AccessKind::Load, Cycle(0));
        assert!(!s.trace_enabled());
        assert!(s.tracer().is_empty(), "no spans while tracing is off");

        s.enable_tracing(1024);
        let warm = s.access(CoreId(0), a, AccessKind::Load, Cycle(100));
        assert_eq!(warm.level, HitLevel::L1);
        let h = s.tracer().histogram("mem", "l1").expect("l1 span class");
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), (warm.complete - Cycle(100)).0);

        let b = s.data_mut().alloc_lines(64);
        let cold = s.access(CoreId(0), b, AccessKind::Load, warm.complete);
        assert_eq!(cold.level, HitLevel::Dram);
        assert_eq!(s.tracer().histogram("mem", "dram").unwrap().count(), 1);

        // Snapshot reads and accelerator accesses get their own classes.
        let c = s.data_mut().alloc_lines(64);
        s.warm_llc(c);
        s.snapshot_read(CoreId(1), c, Cycle(0));
        assert_eq!(
            s.tracer()
                .histogram("mem", "snapshot_read")
                .unwrap()
                .count(),
            1
        );
        let home = s.home_slice(c.line());
        s.accel_access(home, c, AccessKind::Load, Cycle(0));
        assert_eq!(s.tracer().histogram("mem", "accel_llc").unwrap().count(), 1);

        // The exporter sees every span recorded above.
        let json = s.tracer().to_chrome_trace();
        assert!(json.contains("\"name\":\"snapshot_read\""));
        assert!(json.contains("\"name\":\"accel_llc\""));
    }

    #[test]
    fn idle_cores_never_allocate_private_arrays() {
        let mut s = MemorySystem::new(MachineConfig::default());
        let base = s.data_mut().alloc_lines(4096);
        let mut t = Cycle(0);
        for i in 0..4096u64 {
            let kind = if i % 5 == 0 {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            t = s
                .access(CoreId(0), base + (i * 7 % 4096) * 64, kind, t)
                .complete;
            s.dma_write(base + i * 64);
        }
        s.force_evict(base);
        s.flush_private(CoreId(3));
        assert!(s.l1d[0].is_allocated() && s.l2[0].is_allocated());
        for c in 1..s.config().cores {
            assert!(!s.l1d[c].is_allocated(), "core {c} L1");
            assert!(!s.l2[c].is_allocated(), "core {c} L2");
        }
    }

    #[test]
    #[should_panic(expected = "16-bit LLC sharer mask")]
    fn more_than_sixteen_cores_are_refused() {
        let _ = MemorySystem::new(MachineConfig {
            cores: 17,
            ..MachineConfig::default()
        });
    }

    #[test]
    fn hops_symmetric_and_bounded() {
        let s = sys();
        let n = s.config().slices;
        for c in 0..s.config().cores {
            for sl in 0..n {
                let h = s.hops(CoreId(c), SliceId(sl));
                assert!(h <= (n / 2) as u64);
            }
        }
        assert_eq!(s.hops(CoreId(0), SliceId(0)), 0);
    }

    /// Everything a hint could disturb: every counter, each LLC slice's
    /// resident lines with their state, LRU tick and lock.
    fn observable(s: &MemorySystem) -> (Vec<(String, u64)>, Vec<Vec<String>>) {
        let counters = s
            .stats()
            .counters()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        let slices = (0..s.config().slices)
            .map(|sl| {
                s.llc_slice_lines(SliceId(sl))
                    .map(|(l, m)| {
                        format!(
                            "{l} {:?} {} {} {:?}",
                            m.state,
                            m.lru,
                            m.sharers,
                            m.lock_release()
                        )
                    })
                    .collect()
            })
            .collect();
        (counters, slices)
    }

    #[test]
    fn llc_hints_change_no_simulated_state() {
        // Two identical systems run the same accesses; one also hints
        // every line, resident or not, before and between them. A
        // working set of 4x the LLC keeps sets full, so any LRU or lock
        // disturbance would change a later victim and show up below.
        let (mut hinted, mut plain) = (sys(), sys());
        let llc = hinted.config().llc_capacity();
        let base = hinted.data_mut().alloc_lines(4 * llc);
        plain.data_mut().alloc_lines(4 * llc);
        let mut rng = halo_sim::SplitMix64::new(0x41);
        let never_written = Addr(base.0 + 8 * llc);
        for step in 0..20_000u64 {
            let a = base + rng.below(4 * llc / 64) * 64;
            let at = Cycle(step * 7);
            for probe in [a, a + 64 * 97, never_written, Addr(u64::MAX - 7)] {
                hinted.prefetch_llc_set(probe);
                hinted.prefetch_llc_way(probe);
                hinted.data().prefetch(probe);
            }
            let from = SliceId(rng.below(hinted.config().slices as u64) as usize);
            let kind = if rng.chance(0.2) {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            let (x, y) = if rng.chance(0.5) {
                (
                    hinted.accel_access(from, a, kind, at),
                    plain.accel_access(from, a, kind, at),
                )
            } else {
                let core = CoreId(rng.below(hinted.config().cores as u64) as usize);
                (
                    hinted.access(core, a, kind, at),
                    plain.access(core, a, kind, at),
                )
            };
            assert_eq!((x.complete, x.level), (y.complete, y.level), "step {step}");
            if rng.chance(0.3) {
                hinted.hw_lock(a.line(), at + Cycles(500));
                plain.hw_lock(a.line(), at + Cycles(500));
            }
        }
        assert_eq!(observable(&hinted), observable(&plain));
        assert_eq!(
            hinted.data().resident_pages(),
            plain.data().resident_pages()
        );
        assert!(
            hinted.held_locks().count() > 0,
            "some locks are held at the end"
        );
    }
}
