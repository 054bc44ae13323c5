//! Set-associative cache arrays with LRU replacement and per-line
//! coherence metadata.
//!
//! The arrays track *presence and state only*; data always lives in
//! [`SimMemory`](crate::SimMemory). That is sufficient because the timing
//! model cares about where a line is, not about duplicating its bytes.
//!
//! # Layout
//!
//! Each array is a split flat structure (DESIGN.md §9): a dense tag
//! array (`u64` per way, [`TAG_INVALID`] marking empty ways) that the
//! probe loops scan with plain integer compares, and a parallel
//! [`LineMeta`] array holding the coherence state of valid ways. The
//! probe path therefore touches the minimum number of host cache lines
//! and carries no `Option` branching — the same discipline the paper's
//! bucket layouts apply to the simulated machine.
//!
//! Both arrays are allocated on the first fill, so the private caches
//! of cores a run never drives cost no host memory; until then every
//! probe misses.

use crate::addr::LineAddr;
use crate::config::CacheGeometry;
use halo_sim::{hint, Cycle};

/// Tag value marking an invalid (empty) way. Line addresses are byte
/// addresses shifted right by 6, so no reachable line collides with it.
const TAG_INVALID: u64 = u64::MAX;

/// Coherence state of a cached line (MESI without the E optimization:
/// lines enter S on reads and M on writes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Shared, clean.
    Shared,
    /// Modified, dirty.
    Modified,
}

/// Metadata for one cached line. The line's address lives in the tag
/// array; iterate with [`CacheArray::iter_lines`] to see it.
///
/// Sixteen bytes aligned to its size, so four ways' metadata share one
/// host cache line and none straddles two.
#[derive(Debug, Clone)]
#[repr(align(16))]
pub struct LineMeta {
    /// Release cycle of the HALO hardware lock; meaningful only while
    /// `locked`.
    lock_until: Cycle,
    /// LRU stamp: larger is more recent. Stamps are compared only
    /// within one set, which lets the array renumber them before its
    /// tick overflows (DESIGN.md §9 item 9).
    pub lru: u32,
    /// Bitmask of cores holding the line (LLC directory only). Sixteen
    /// bits, so a machine has at most 16 cores.
    pub sharers: u16,
    /// Coherence state.
    pub state: LineState,
    /// HALO hardware lock bit (LLC only): set while an accelerator query
    /// holds the line; modifications are refused until cleared.
    locked: bool,
}

// 795k ways carry one of these each on the default machine; a larger
// meta shows up directly in the simulator's resident memory.
const _: () = assert!(std::mem::size_of::<LineMeta>() == 16);

impl LineMeta {
    /// Placeholder stored behind invalid tags.
    fn invalid() -> Self {
        LineMeta::new(LineState::Shared, 0, 0)
    }

    /// Metadata of a freshly filled, unlocked line.
    pub(crate) fn new(state: LineState, lru: u32, sharers: u16) -> Self {
        LineMeta {
            lock_until: Cycle(0),
            lru,
            sharers,
            state,
            locked: false,
        }
    }

    /// Release cycle of the hardware lock on this line, if held.
    #[must_use]
    pub fn lock_release(&self) -> Option<Cycle> {
        self.locked.then_some(self.lock_until)
    }
}

/// What happened to a victim on insertion. A displaced line carries
/// its directory sharers mask, so an inclusive cache back-invalidates
/// only the cores that may hold a copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eviction {
    /// No line was displaced.
    None,
    /// A clean line was silently dropped.
    Clean {
        /// The victim line.
        line: LineAddr,
        /// The victim's sharers mask (LLC directory only; 0 elsewhere).
        sharers: u64,
    },
    /// A dirty line must be written back.
    Dirty {
        /// The victim line.
        line: LineAddr,
        /// The victim's sharers mask (LLC directory only; 0 elsewhere).
        sharers: u64,
    },
}

/// Tags per 64-byte host cache line.
const HOST_LINE_TAGS: usize = 8;

/// Host alignment of the tag array, in tags: 128 bytes, one 16-way set.
const TAG_ALIGN: usize = 16;

/// A tag array whose first tag sits on a 128-byte host boundary, so a
/// 16-way set (128 bytes) spans two host cache lines rather than three,
/// and an 8-way set one rather than two. The allocator places large
/// vectors 16 bytes past a page boundary, so the buffer carries a few
/// tags of slack and the array starts at the first aligned one. Derefs
/// to the `len` tags proper; the default is the empty, unallocated
/// array.
#[derive(Debug, Default)]
struct Tags {
    buf: Vec<u64>,
    off: usize,
    len: usize,
}

impl Tags {
    fn new(len: usize) -> Self {
        let buf = vec![TAG_INVALID; len + TAG_ALIGN - 1];
        let align_bytes = TAG_ALIGN * std::mem::size_of::<u64>();
        let off = buf.as_ptr().addr().wrapping_neg() % align_bytes / std::mem::size_of::<u64>();
        Tags { buf, off, len }
    }
}

impl Clone for Tags {
    fn clone(&self) -> Self {
        if self.len == 0 {
            return Tags::default();
        }
        // A fresh buffer has its own alignment, so re-derive the offset.
        let mut t = Tags::new(self.len);
        t.copy_from_slice(self);
        t
    }
}

impl std::ops::Deref for Tags {
    type Target = [u64];
    #[inline]
    fn deref(&self) -> &[u64] {
        &self.buf[self.off..self.off + self.len]
    }
}

impl std::ops::DerefMut for Tags {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u64] {
        &mut self.buf[self.off..self.off + self.len]
    }
}

/// A set-associative array with strict-LRU replacement.
///
/// LRU stamps are `u32`. Before the tick would pass `u32::MAX`, every
/// set's valid ways are renumbered `1..=k` in stamp order and the tick
/// restarts from the largest new stamp, which leaves every later victim
/// choice unchanged (DESIGN.md §9 item 9).
#[derive(Debug, Clone)]
pub struct CacheArray {
    sets: usize,
    ways: usize,
    /// `sets * ways` tags; [`TAG_INVALID`] = invalid way. Probed first.
    /// Empty until the first [`insert`](Self::insert).
    tags: Tags,
    /// Parallel per-way metadata; meaningful only where the tag is valid.
    /// Empty until the first insert, like `tags`.
    meta: Vec<LineMeta>,
    tick: u32,
    hits: u64,
    misses: u64,
    /// Live count of valid ways (kept in sync by insert/invalidate/clear
    /// so occupancy reads never rescan the whole array).
    resident: usize,
    /// Live count of valid ways holding a hardware lock, kept the same
    /// way so a lock-free array is recognised without a scan.
    locked: usize,
}

impl CacheArray {
    /// Builds an empty array from a geometry. No tag or metadata storage
    /// is allocated until the first [`insert`](Self::insert).
    #[must_use]
    pub fn new(geom: CacheGeometry) -> Self {
        CacheArray {
            sets: geom.sets(),
            ways: geom.ways,
            tags: Tags::default(),
            meta: Vec::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            resident: 0,
            locked: 0,
        }
    }

    /// Whether the tag and metadata storage exists yet.
    #[cfg(test)]
    pub(crate) fn is_allocated(&self) -> bool {
        !self.meta.is_empty()
    }

    fn set_index(&self, line: LineAddr) -> usize {
        // Mix upper bits in so that power-of-two strides (hash-table
        // buckets) don't all collide on the same set.
        let h = line.0 ^ (line.0 >> 13);
        (h as usize) & (self.sets - 1)
    }

    fn set_range(&self, line: LineAddr) -> std::ops::Range<usize> {
        let s = self.set_index(line);
        s * self.ways..(s + 1) * self.ways
    }

    /// Scans one set's tags for `line`, returning the way index. An
    /// array not yet allocated has no tags, so the set is absent and
    /// the probe misses.
    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        let range = self.set_range(line);
        self.tags
            .get(range.clone())?
            .iter()
            .position(|&t| t == line.0)
            .map(|w| range.start + w)
    }

    /// Advances the LRU tick, renumbering first if it would overflow.
    #[inline]
    fn next_tick(&mut self) -> u32 {
        if self.tick == u32::MAX {
            self.renumber();
        }
        self.tick += 1;
        self.tick
    }

    /// Renumbers each set's valid ways `1..=k` in their current stamp
    /// order and restarts the tick from the largest new stamp. Exact:
    /// victim choice compares stamps only within one set, valid stamps
    /// are unique, and every later stamp exceeds every renumbered one.
    #[cold]
    fn renumber(&mut self) {
        let mut top = 0;
        let mut order = Vec::with_capacity(self.ways);
        for (tags, meta) in self
            .tags
            .chunks(self.ways)
            .zip(self.meta.chunks_mut(self.ways))
        {
            order.clear();
            order.extend((0..self.ways).filter(|&w| tags[w] != TAG_INVALID));
            order.sort_unstable_by_key(|&w| meta[w].lru);
            for (stamp, &w) in (1..).zip(&order) {
                meta[w].lru = stamp;
            }
            top = top.max(order.len());
        }
        self.tick = u32::try_from(top).expect("set wider than u32 stamps");
    }

    /// Allocates the tag and metadata storage, all ways invalid.
    #[cold]
    fn allocate(&mut self) {
        let slots = self.capacity_lines();
        self.tags = Tags::new(slots);
        self.meta = vec![LineMeta::invalid(); slots];
    }

    /// Looks up `line`, updating LRU and hit/miss counters. Returns a
    /// mutable reference to the line's metadata on hit.
    pub fn lookup(&mut self, line: LineAddr) -> Option<&mut LineMeta> {
        let i = self.lookup_way(line)?;
        Some(&mut self.meta[i])
    }

    /// [`lookup`](Self::lookup), returning the way that holds `line` so
    /// a caller can update its metadata later through
    /// [`way_mut`](Self::way_mut) without scanning the set again.
    #[inline]
    pub(crate) fn lookup_way(&mut self, line: LineAddr) -> Option<usize> {
        let tick = self.next_tick();
        match self.find(line) {
            Some(i) => {
                self.hits += 1;
                self.meta[i].lru = tick;
                Some(i)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// The metadata of `way`, which must still hold `line` (no insert or
    /// invalidate of this array since [`lookup_way`](Self::lookup_way)
    /// resolved it).
    #[inline]
    pub(crate) fn way_mut(&mut self, way: usize, line: LineAddr) -> &mut LineMeta {
        debug_assert_eq!(self.tags[way], line.0, "way {way} no longer holds {line}");
        &mut self.meta[way]
    }

    /// Hints the host lines of the tag set `line` maps to, ahead of a
    /// probe of `line`. Touches no LRU state, counter or line.
    #[inline]
    pub(crate) fn prefetch_set(&self, line: LineAddr) {
        let Some(set) = self.tags.get(self.set_range(line)) else {
            return;
        };
        for tags in set.chunks(HOST_LINE_TAGS) {
            hint::prefetch(&tags[0]);
        }
    }

    /// Hints the host line of `line`'s metadata, if `line` is resident.
    /// Scans the tag set, so it pays once that set is in the host cache
    /// (after [`prefetch_set`](Self::prefetch_set)). Touches no LRU
    /// state, counter or line.
    #[inline]
    pub(crate) fn prefetch_way(&self, line: LineAddr) {
        if let Some(i) = self.find(line) {
            hint::prefetch(&self.meta[i]);
        }
    }

    /// Checks presence without perturbing LRU or counters.
    #[must_use]
    pub fn peek(&self, line: LineAddr) -> Option<&LineMeta> {
        self.find(line).map(|i| &self.meta[i])
    }

    /// Mutable peek without LRU/counter side effects.
    pub fn peek_mut(&mut self, line: LineAddr) -> Option<&mut LineMeta> {
        self.find(line).map(|i| &mut self.meta[i])
    }

    /// Inserts `line` (which must not be present), evicting the LRU way if
    /// the set is full. Locked lines are never chosen as victims.
    pub fn insert(&mut self, line: LineAddr, state: LineState) -> Eviction {
        debug_assert!(self.peek(line).is_none(), "double insert of {line}");
        debug_assert!(line.0 != TAG_INVALID, "line collides with the invalid tag");
        if self.meta.is_empty() {
            self.allocate();
        }
        let tick = self.next_tick();
        let range = self.set_range(line);
        let meta = LineMeta::new(state, tick, 0);
        // One pass over the set: take the first free way, tracking the
        // LRU victim among unlocked ways (and among all ways as the
        // all-locked fallback; strict `<` keeps the lowest-index
        // tie-break of the old min_by_key scan).
        let mut victim_unlocked: Option<usize> = None;
        let mut victim_any = range.start;
        let mut best_unlocked = u32::MAX;
        let mut best_any = u32::MAX;
        for i in range {
            if self.tags[i] == TAG_INVALID {
                self.tags[i] = line.0;
                self.meta[i] = meta;
                self.resident += 1;
                return Eviction::None;
            }
            let m = &self.meta[i];
            if m.lru < best_any {
                best_any = m.lru;
                victim_any = i;
            }
            if !m.locked && m.lru < best_unlocked {
                best_unlocked = m.lru;
                victim_unlocked = Some(i);
            }
        }
        // Pathological case: every way locked. Fall back to raw LRU —
        // the timing model will have serialized those queries anyway.
        let victim = victim_unlocked.unwrap_or(victim_any);
        let line = LineAddr(std::mem::replace(&mut self.tags[victim], line.0));
        let old = std::mem::replace(&mut self.meta[victim], meta);
        self.locked -= usize::from(old.locked);
        let sharers = u64::from(old.sharers);
        match old.state {
            LineState::Modified => Eviction::Dirty { line, sharers },
            LineState::Shared => Eviction::Clean { line, sharers },
        }
    }

    /// Removes `line` if present, returning its metadata.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<LineMeta> {
        let i = self.find(line)?;
        self.tags[i] = TAG_INVALID;
        self.resident -= 1;
        let old = std::mem::replace(&mut self.meta[i], LineMeta::invalid());
        self.locked -= usize::from(old.locked);
        Some(old)
    }

    /// Sets the hardware lock on `line` until `until`; a lock already
    /// held only ever extends (`max`). A line that is not resident holds
    /// nothing.
    pub(crate) fn lock(&mut self, line: LineAddr, until: Cycle) {
        let Some(i) = self.find(line) else {
            return;
        };
        let m = &mut self.meta[i];
        if m.locked {
            m.lock_until = m.lock_until.max(until);
        } else {
            m.locked = true;
            m.lock_until = until;
            self.locked += 1;
        }
    }

    /// Releases the lock on `line` if it has expired by `now`. Returns
    /// the release cycle of a lock that is still held, if any.
    pub(crate) fn release_expired(&mut self, line: LineAddr, now: Cycle) -> Option<Cycle> {
        let i = self.find(line)?;
        let m = &mut self.meta[i];
        let release = m.lock_release()?;
        if release > now {
            return Some(release);
        }
        m.locked = false;
        self.locked -= 1;
        None
    }

    /// Releases every lock that has expired by `now`: one linear pass
    /// over the array, skipped outright while no way is locked.
    pub(crate) fn unlock_expired(&mut self, now: Cycle) {
        debug_assert_eq!(
            self.locked,
            self.iter_lines().filter(|(_, m)| m.locked).count(),
            "live lock counter out of sync with the lock bits"
        );
        if self.locked == 0 {
            return;
        }
        for (&t, m) in self.tags.iter().zip(&mut self.meta) {
            if t != TAG_INVALID && m.locked && m.lock_until <= now {
                m.locked = false;
                self.locked -= 1;
            }
        }
    }

    /// Number of resident lines holding a hardware lock (O(1): kept
    /// live by insert/invalidate/clear and the lock operations, and
    /// cross-checked against a full scan by every
    /// [`unlock_expired`](Self::unlock_expired) under debug assertions).
    pub(crate) fn locked_lines(&self) -> usize {
        self.locked
    }

    /// Hit count since construction.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count since construction.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of valid lines currently resident (O(1): maintained live
    /// by insert/invalidate/clear).
    #[must_use]
    pub fn resident(&self) -> usize {
        debug_assert_eq!(
            self.resident,
            self.tags.iter().filter(|&&t| t != TAG_INVALID).count(),
            "live occupancy counter out of sync with tag array"
        );
        self.resident
    }

    /// Iterates over every resident line and its metadata without
    /// perturbing LRU state or hit/miss counters (for invariant audits).
    pub fn iter_lines(&self) -> impl Iterator<Item = (LineAddr, &LineMeta)> + '_ {
        self.tags
            .iter()
            .zip(&self.meta)
            .filter(|(&t, _)| t != TAG_INVALID)
            .map(|(&t, m)| (LineAddr(t), m))
    }

    /// Total capacity in lines.
    #[must_use]
    pub fn capacity_lines(&self) -> usize {
        self.sets * self.ways
    }

    /// Drops all lines and counters.
    pub fn clear(&mut self) {
        self.tags.fill(TAG_INVALID);
        self.hits = 0;
        self.misses = 0;
        self.resident = 0;
        self.locked = 0;
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheArray {
        // 2 sets x 2 ways of 64B lines = 256B.
        CacheArray::new(CacheGeometry {
            capacity: 256,
            ways: 2,
        })
    }

    /// Two distinct lines that map to the same set of `c`.
    fn same_set_lines(c: &CacheArray) -> (LineAddr, LineAddr, LineAddr) {
        let base = LineAddr(1);
        let mut found = Vec::new();
        for i in 2..1000 {
            let cand = LineAddr(i);
            if c.set_index(cand) == c.set_index(base) {
                found.push(cand);
                if found.len() == 2 {
                    break;
                }
            }
        }
        (base, found[0], found[1])
    }

    #[test]
    fn hit_after_insert() {
        let mut c = tiny();
        assert!(c.lookup(LineAddr(5)).is_none());
        c.insert(LineAddr(5), LineState::Shared);
        assert!(c.lookup(LineAddr(5)).is_some());
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        let (a, b, d) = same_set_lines(&c);
        c.insert(a, LineState::Shared);
        c.insert(b, LineState::Shared);
        // Touch `a` so `b` becomes LRU.
        assert!(c.lookup(a).is_some());
        let ev = c.insert(d, LineState::Shared);
        assert_eq!(
            ev,
            Eviction::Clean {
                line: b,
                sharers: 0
            }
        );
        assert!(c.peek(a).is_some());
        assert!(c.peek(b).is_none());
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny();
        let (a, b, d) = same_set_lines(&c);
        c.insert(a, LineState::Modified);
        c.insert(b, LineState::Shared);
        assert!(c.lookup(b).is_some()); // make `a` LRU
        let ev = c.insert(d, LineState::Shared);
        assert_eq!(
            ev,
            Eviction::Dirty {
                line: a,
                sharers: 0
            }
        );
    }

    #[test]
    fn eviction_carries_victim_sharers() {
        let mut c = tiny();
        let (a, b, d) = same_set_lines(&c);
        c.insert(a, LineState::Shared);
        c.peek_mut(a).unwrap().sharers = 0b1010;
        c.insert(b, LineState::Shared);
        let ev = c.insert(d, LineState::Shared);
        assert_eq!(
            ev,
            Eviction::Clean {
                line: a,
                sharers: 0b1010
            }
        );
        // The new line starts with an empty mask.
        assert_eq!(c.peek(d).unwrap().sharers, 0);
    }

    #[test]
    fn locked_lines_survive_eviction() {
        let mut c = tiny();
        let (a, b, d) = same_set_lines(&c);
        c.insert(a, LineState::Shared);
        c.lock(a, Cycle(100));
        c.insert(b, LineState::Shared);
        // `a` is LRU but locked, so `b` must be the victim.
        let ev = c.insert(d, LineState::Shared);
        assert_eq!(
            ev,
            Eviction::Clean {
                line: b,
                sharers: 0
            }
        );
        assert!(c.peek(a).is_some());
    }

    #[test]
    fn all_locked_set_falls_back_to_raw_lru() {
        let mut c = tiny();
        let (a, b, d) = same_set_lines(&c);
        c.insert(a, LineState::Shared);
        c.insert(b, LineState::Shared);
        c.lock(a, Cycle(100));
        c.lock(b, Cycle(100));
        // `a` was inserted first, so it is the raw-LRU fallback victim.
        let ev = c.insert(d, LineState::Shared);
        assert_eq!(
            ev,
            Eviction::Clean {
                line: a,
                sharers: 0
            }
        );
        assert!(c.peek(d).is_some());
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny();
        c.insert(LineAddr(9), LineState::Modified);
        let meta = c.invalidate(LineAddr(9)).unwrap();
        assert_eq!(meta.state, LineState::Modified);
        assert!(c.peek(LineAddr(9)).is_none());
        assert!(c.invalidate(LineAddr(9)).is_none());
    }

    #[test]
    fn peek_does_not_count() {
        let mut c = tiny();
        c.insert(LineAddr(1), LineState::Shared);
        let (h, m) = (c.hits(), c.misses());
        let _ = c.peek(LineAddr(1));
        let _ = c.peek(LineAddr(2));
        assert_eq!((c.hits(), c.misses()), (h, m));
    }

    #[test]
    fn resident_tracks_occupancy() {
        let mut c = tiny();
        assert_eq!(c.resident(), 0);
        c.insert(LineAddr(1), LineState::Shared);
        c.insert(LineAddr(2), LineState::Shared);
        assert_eq!(c.resident(), 2);
        assert_eq!(c.capacity_lines(), 4);
        c.clear();
        assert_eq!(c.resident(), 0);
    }

    #[test]
    fn resident_counter_survives_eviction_and_invalidate_churn() {
        let mut c = tiny();
        let (a, b, d) = same_set_lines(&c);
        c.insert(a, LineState::Shared);
        c.insert(b, LineState::Shared);
        // Set full: inserting `d` replaces a way, so occupancy is flat.
        c.insert(d, LineState::Shared);
        assert_eq!(c.resident(), 2);
        c.invalidate(d);
        assert_eq!(c.resident(), 1);
        // `resident()` cross-checks the live counter against a full
        // recount under debug assertions, so reaching here means the
        // bookkeeping matched at every step.
    }

    #[test]
    fn iter_lines_sees_exactly_the_resident_lines() {
        let mut c = tiny();
        c.insert(LineAddr(1), LineState::Shared);
        c.insert(LineAddr(2), LineState::Modified);
        c.invalidate(LineAddr(1));
        let lines: Vec<LineAddr> = c.iter_lines().map(|(l, _)| l).collect();
        assert_eq!(lines, vec![LineAddr(2)]);
    }

    #[test]
    fn lock_extends_and_releases_only_when_expired() {
        let mut c = tiny();
        c.lock(LineAddr(7), Cycle(100));
        assert_eq!(c.locked_lines(), 0, "an absent line holds nothing");
        c.insert(LineAddr(7), LineState::Shared);
        c.lock(LineAddr(7), Cycle(100));
        c.lock(LineAddr(7), Cycle(50));
        assert_eq!(
            c.peek(LineAddr(7)).unwrap().lock_release(),
            Some(Cycle(100))
        );
        assert_eq!(c.release_expired(LineAddr(7), Cycle(99)), Some(Cycle(100)));
        assert_eq!(c.release_expired(LineAddr(7), Cycle(100)), None);
        assert_eq!(c.peek(LineAddr(7)).unwrap().lock_release(), None);
        assert_eq!(c.locked_lines(), 0);
        // A fresh lock after release starts from its own release time.
        c.lock(LineAddr(7), Cycle(20));
        assert_eq!(c.peek(LineAddr(7)).unwrap().lock_release(), Some(Cycle(20)));
    }

    #[test]
    fn unlock_expired_sweeps_exactly_the_expired() {
        let mut c = CacheArray::new(CacheGeometry {
            capacity: 64 * 64,
            ways: 4,
        });
        for i in 0..40u64 {
            c.insert(LineAddr(i), LineState::Shared);
        }
        let held: Vec<u64> = (0..40).filter(|&i| c.peek(LineAddr(i)).is_some()).collect();
        for &i in &held {
            c.lock(LineAddr(i), Cycle(i * 10));
        }
        c.unlock_expired(Cycle(245));
        for &i in &held {
            let rel = c.peek(LineAddr(i)).unwrap().lock_release();
            assert_eq!(rel.is_some(), i * 10 > 245, "line {i}");
        }
        let live = held.iter().filter(|&&i| i * 10 > 245).count();
        assert_eq!(c.locked_lines(), live);
    }

    #[test]
    fn locked_counter_follows_eviction_invalidate_and_clear() {
        let mut c = tiny();
        let (a, b, d) = same_set_lines(&c);
        c.insert(a, LineState::Shared);
        c.insert(b, LineState::Shared);
        c.lock(a, Cycle(10));
        c.lock(b, Cycle(10));
        assert_eq!(c.locked_lines(), 2);
        // All ways locked: the raw-LRU victim takes its lock with it.
        c.insert(d, LineState::Shared);
        assert_eq!(c.locked_lines(), 1);
        c.invalidate(b);
        assert_eq!(c.locked_lines(), 0);
        c.lock(d, Cycle(10));
        c.clear();
        assert_eq!(c.locked_lines(), 0);
        c.insert(d, LineState::Shared);
        assert_eq!(
            c.peek(d).unwrap().lock_release(),
            None,
            "refill is unlocked"
        );
        // The sweep cross-checks the live counter under debug assertions.
        c.unlock_expired(Cycle(0));
    }

    #[test]
    fn hints_leave_lru_counters_and_locks_alone() {
        let mut c = tiny();
        let (a, b, d) = same_set_lines(&c);
        c.insert(a, LineState::Shared);
        c.insert(b, LineState::Shared);
        c.lock(a, Cycle(100));
        // Touch `a` so `b` is the LRU victim of the full set.
        assert!(c.lookup(a).is_some());
        let before = (c.hits(), c.misses(), c.resident(), c.locked_lines());
        for line in [a, b, d, LineAddr(u64::MAX >> 6)] {
            c.prefetch_set(line);
            c.prefetch_way(line);
        }
        assert_eq!(
            (c.hits(), c.misses(), c.resident(), c.locked_lines()),
            before
        );
        assert_eq!(c.peek(a).unwrap().lock_release(), Some(Cycle(100)));
        assert_eq!(c.peek(b).unwrap().lock_release(), None);
        let ev = c.insert(d, LineState::Shared);
        assert_eq!(
            ev,
            Eviction::Clean {
                line: b,
                sharers: 0
            },
            "a hinted way must not become most recently used"
        );
    }

    #[test]
    fn tag_sets_start_on_host_line_boundaries() {
        for ways in [4, 8, 16] {
            let mut c = CacheArray::new(CacheGeometry {
                capacity: 64 * 64 * ways as u64,
                ways,
            });
            c.insert(LineAddr(1), LineState::Shared);
            for arr in [c.clone(), c] {
                let set_bytes = ways * std::mem::size_of::<u64>();
                assert_eq!(
                    arr.tags.as_ptr().addr() % set_bytes.min(128),
                    0,
                    "{ways} ways"
                );
                assert_eq!(arr.meta.as_ptr().addr() % 16, 0);
                assert_eq!(arr.tags.len(), arr.capacity_lines());
            }
        }
    }

    #[test]
    fn storage_is_allocated_on_first_fill() {
        let mut c = tiny();
        let fresh = c.clone();
        assert!(!c.is_allocated());
        // Every read of an unallocated array misses or yields nothing.
        assert!(c.lookup(LineAddr(5)).is_none());
        assert!(c.peek(LineAddr(5)).is_none());
        assert!(c.peek_mut(LineAddr(5)).is_none());
        assert!(c.invalidate(LineAddr(5)).is_none());
        assert_eq!(c.release_expired(LineAddr(5), Cycle(0)), None);
        c.lock(LineAddr(5), Cycle(9));
        c.prefetch_set(LineAddr(5));
        c.prefetch_way(LineAddr(5));
        c.unlock_expired(Cycle(10));
        c.clear();
        assert_eq!(c.iter_lines().count(), 0);
        assert_eq!(
            (c.resident(), c.locked_lines(), c.capacity_lines()),
            (0, 0, 4)
        );
        assert!(!c.is_allocated(), "reads must not allocate");
        assert!(!fresh.is_allocated(), "a clone stays unallocated");
        c.insert(LineAddr(5), LineState::Shared);
        assert!(c.is_allocated());
        assert!(c.peek(LineAddr(5)).is_some());
    }

    #[test]
    fn renumbering_keeps_the_lru_victim() {
        let mut c = tiny();
        let (a, b, d) = same_set_lines(&c);
        c.tick = u32::MAX - 3;
        c.insert(a, LineState::Shared);
        c.insert(b, LineState::Shared);
        // Touch `a` with the last stamp below the wrap, so `b` is LRU.
        assert!(c.lookup(a).is_some());
        assert_eq!(c.peek(a).unwrap().lru, u32::MAX);
        let ev = c.insert(d, LineState::Shared);
        assert_eq!(
            ev,
            Eviction::Clean {
                line: b,
                sharers: 0
            }
        );
        // The insert renumbered `b`, `a` to 1, 2 and stamped `d` with
        // the tick after the largest renumbered stamp.
        assert_eq!(c.peek(a).unwrap().lru, 2);
        assert_eq!(c.peek(d).unwrap().lru, 3);
    }
}
