//! Differential test of [`CacheArray`] against a reference copy of the
//! array before its metadata was packed: `u64` LRU ticks that never
//! wrap, a 32-byte metadata record with a `u64` sharer mask, and
//! storage allocated at construction.
//!
//! Seeded op streams drive both arrays side by side with the new
//! array's tick started a few hundred below `u32::MAX` and pushed back
//! there after every renumbering, so each stream renumbers many times.
//! (Jumping the tick forward is what a run of missing lookups does; it
//! keeps every stamp below the tick.) Every return value, victim and
//! counter must agree, and after every op so must each way's tag,
//! state, sharers, lock and the order of LRU stamps within its set.

use super::{CacheArray, Eviction, LineState, TAG_INVALID};
use crate::addr::LineAddr;
use crate::config::CacheGeometry;
use halo_sim::{Cycle, SplitMix64};

/// The metadata record of the reference array.
#[derive(Debug, Clone)]
struct RefMeta {
    lock_until: Cycle,
    state: LineState,
    lru: u64,
    sharers: u64,
    locked: bool,
}

const _: () = assert!(std::mem::size_of::<RefMeta>() == 32);

impl RefMeta {
    fn new(state: LineState, lru: u64) -> Self {
        RefMeta {
            lock_until: Cycle(0),
            state,
            lru,
            sharers: 0,
            locked: false,
        }
    }

    fn lock_release(&self) -> Option<Cycle> {
        self.locked.then_some(self.lock_until)
    }
}

/// The reference array: strict LRU over unbounded ticks, eager storage.
struct RefArray {
    sets: usize,
    ways: usize,
    tags: Vec<u64>,
    meta: Vec<RefMeta>,
    tick: u64,
    hits: u64,
    misses: u64,
    resident: usize,
    locked: usize,
}

impl RefArray {
    fn new(geom: CacheGeometry) -> Self {
        let slots = geom.sets() * geom.ways;
        RefArray {
            sets: geom.sets(),
            ways: geom.ways,
            tags: vec![TAG_INVALID; slots],
            meta: vec![RefMeta::new(LineState::Shared, 0); slots],
            tick: 0,
            hits: 0,
            misses: 0,
            resident: 0,
            locked: 0,
        }
    }

    fn set_range(&self, line: LineAddr) -> std::ops::Range<usize> {
        let s = ((line.0 ^ (line.0 >> 13)) as usize) & (self.sets - 1);
        s * self.ways..(s + 1) * self.ways
    }

    fn find(&self, line: LineAddr) -> Option<usize> {
        self.set_range(line).find(|&i| self.tags[i] == line.0)
    }

    fn lookup(&mut self, line: LineAddr) -> Option<&mut RefMeta> {
        self.tick += 1;
        match self.find(line) {
            Some(i) => {
                self.hits += 1;
                self.meta[i].lru = self.tick;
                Some(&mut self.meta[i])
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn peek(&self, line: LineAddr) -> Option<&RefMeta> {
        self.find(line).map(|i| &self.meta[i])
    }

    fn peek_mut(&mut self, line: LineAddr) -> Option<&mut RefMeta> {
        self.find(line).map(|i| &mut self.meta[i])
    }

    fn insert(&mut self, line: LineAddr, state: LineState) -> Eviction {
        self.tick += 1;
        let meta = RefMeta::new(state, self.tick);
        let range = self.set_range(line);
        if let Some(i) = range.clone().find(|&i| self.tags[i] == TAG_INVALID) {
            self.tags[i] = line.0;
            self.meta[i] = meta;
            self.resident += 1;
            return Eviction::None;
        }
        let victim = range
            .clone()
            .filter(|&i| !self.meta[i].locked)
            .min_by_key(|&i| self.meta[i].lru)
            .unwrap_or_else(|| range.min_by_key(|&i| self.meta[i].lru).unwrap());
        let line = LineAddr(std::mem::replace(&mut self.tags[victim], line.0));
        let old = std::mem::replace(&mut self.meta[victim], meta);
        self.locked -= usize::from(old.locked);
        let sharers = old.sharers;
        match old.state {
            LineState::Modified => Eviction::Dirty { line, sharers },
            LineState::Shared => Eviction::Clean { line, sharers },
        }
    }

    fn invalidate(&mut self, line: LineAddr) -> Option<RefMeta> {
        let i = self.find(line)?;
        self.tags[i] = TAG_INVALID;
        self.resident -= 1;
        let old = std::mem::replace(&mut self.meta[i], RefMeta::new(LineState::Shared, 0));
        self.locked -= usize::from(old.locked);
        Some(old)
    }

    fn lock(&mut self, line: LineAddr, until: Cycle) {
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

    fn release_expired(&mut self, line: LineAddr, now: Cycle) -> Option<Cycle> {
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

    fn unlock_expired(&mut self, now: Cycle) {
        for (&t, m) in self.tags.iter().zip(&mut self.meta) {
            if t != TAG_INVALID && m.locked && m.lock_until <= now {
                m.locked = false;
                self.locked -= 1;
            }
        }
    }

    fn clear(&mut self) {
        self.tags.fill(TAG_INVALID);
        self.hits = 0;
        self.misses = 0;
        self.resident = 0;
        self.locked = 0;
    }

    /// Whether `line`'s set is full with every way locked, and whether
    /// it has an invalid way below a valid one.
    fn set_shape(&self, line: LineAddr) -> (bool, bool) {
        let range = self.set_range(line);
        let valid = |i: usize| self.tags[i] != TAG_INVALID;
        let all_locked = range.clone().all(|i| valid(i) && self.meta[i].locked);
        let hole = range
            .clone()
            .any(|i| !valid(i) && range.clone().any(|j| j > i && valid(j)));
        (all_locked, hole)
    }
}

/// A lock-release snapshot and the fields both metadata records share.
fn view_new(m: &super::LineMeta) -> (LineState, u64, Option<Cycle>) {
    (m.state, u64::from(m.sharers), m.lock_release())
}

fn view_ref(m: &RefMeta) -> (LineState, u64, Option<Cycle>) {
    (m.state, m.sharers, m.lock_release())
}

/// Each way's rank by LRU stamp within its set (`None` for invalid
/// ways): equal ranks mean equal victim choices from here on.
fn lru_ranks(tags: &[u64], stamps: &[u64], ways: usize) -> Vec<Option<usize>> {
    let mut out = Vec::with_capacity(tags.len());
    for (set_tags, set_stamps) in tags.chunks(ways).zip(stamps.chunks(ways)) {
        for (w, &t) in set_tags.iter().enumerate() {
            out.push((t != TAG_INVALID).then(|| {
                (0..ways)
                    .filter(|&o| set_tags[o] != TAG_INVALID && set_stamps[o] < set_stamps[w])
                    .count()
            }));
        }
    }
    out
}

/// Compares the whole observable state of both arrays.
fn assert_same_state(new: &CacheArray, r: &RefArray, ctx: &str) {
    assert_eq!(
        (new.hits(), new.misses(), new.resident(), new.locked_lines()),
        (r.hits, r.misses, r.resident, r.locked),
        "{ctx}: counters"
    );
    let lines: Vec<_> = new.iter_lines().map(|(l, m)| (l, view_new(m))).collect();
    let want: Vec<_> = r
        .tags
        .iter()
        .zip(&r.meta)
        .filter(|(&t, _)| t != TAG_INVALID)
        .map(|(&t, m)| (LineAddr(t), view_ref(m)))
        .collect();
    assert_eq!(lines, want, "{ctx}: resident lines");
    if new.is_allocated() {
        assert_eq!(&new.tags[..], &r.tags[..], "{ctx}: way placement");
        let stamps: Vec<u64> = new.meta.iter().map(|m| u64::from(m.lru)).collect();
        let ref_stamps: Vec<u64> = r.meta.iter().map(|m| m.lru).collect();
        assert_eq!(
            lru_ranks(&new.tags, &stamps, new.ways),
            lru_ranks(&r.tags, &ref_stamps, r.ways),
            "{ctx}: LRU order within sets"
        );
    } else {
        assert_eq!(r.resident, 0, "{ctx}: unallocated array with lines");
    }
}

/// What one stream exercised, so a test can insist on coverage.
#[derive(Debug, Default)]
struct Coverage {
    renumbers: usize,
    all_locked_inserts: usize,
    hole_inserts: usize,
    evictions: usize,
}

/// Runs `ops` seeded ops against both arrays of geometry `ways` x
/// `sets`, comparing after every op.
fn run_stream(ways: usize, sets: usize, seed: u64, ops: usize) -> Coverage {
    let geom = CacheGeometry {
        capacity: (64 * ways * sets) as u64,
        ways,
    };
    let mut new = CacheArray::new(geom);
    let mut r = RefArray::new(geom);
    let mut rng = SplitMix64::new(seed);
    let mut cov = Coverage::default();
    // Three lines per way keep sets full and evicting; a few distinct
    // high bits exercise the set-index mix.
    let pool = (3 * ways * sets) as u64;
    let pick = |rng: &mut SplitMix64| LineAddr(1 + rng.below(pool) + (rng.below(4) << 13));
    let mut now = 0u64;
    new.tick = u32::MAX - 300;
    for op in 0..ops {
        let ctx = format!("ways {ways} sets {sets} seed {seed} op {op}");
        let before = new.tick;
        let storm = (op / 1_000) % 2 == 1;
        let line = pick(&mut rng);
        match rng.below(100) {
            0..=24 => {
                let got = new.lookup(line).map(|m| view_new(m));
                let want = r.lookup(line).map(|m| view_ref(m));
                assert_eq!(got, want, "{ctx}: lookup {line}");
            }
            25..=29 => {
                assert_eq!(
                    new.peek(line).map(view_new),
                    r.peek(line).map(view_ref),
                    "{ctx}: peek {line}"
                );
            }
            30..=34 => {
                let mask = rng.next_u32() as u16;
                let got = new.peek_mut(line).map(|m| m.sharers = mask).is_some();
                let want = r
                    .peek_mut(line)
                    .map(|m| m.sharers = u64::from(mask))
                    .is_some();
                assert_eq!(got, want, "{ctx}: peek_mut {line}");
            }
            35..=59 => {
                if r.peek(line).is_some() {
                    continue;
                }
                let state = if rng.chance(0.3) {
                    LineState::Modified
                } else {
                    LineState::Shared
                };
                let (all_locked, hole) = r.set_shape(line);
                cov.all_locked_inserts += usize::from(all_locked);
                cov.hole_inserts += usize::from(hole);
                let ev = new.insert(line, state);
                assert_eq!(ev, r.insert(line, state), "{ctx}: insert {line}");
                cov.evictions += usize::from(ev != Eviction::None);
            }
            60..=69 => {
                assert_eq!(
                    new.invalidate(line).as_ref().map(view_new),
                    r.invalidate(line).as_ref().map(view_ref),
                    "{ctx}: invalidate {line}"
                );
            }
            70..=84 => {
                // Lock mostly resident lines. Every other thousand ops
                // is a storm of long locks and a stopped clock, so whole
                // sets end up locked.
                let way = rng.below(r.tags.len() as u64) as usize;
                let line = match r.tags[way] {
                    TAG_INVALID => line,
                    t => LineAddr(t),
                };
                let hold = if storm { 4_000 } else { 400 };
                let until = Cycle(now + rng.below(hold));
                new.lock(line, until);
                r.lock(line, until);
            }
            85..=91 => {
                let at = Cycle(now + rng.below(50));
                assert_eq!(
                    new.release_expired(line, at),
                    r.release_expired(line, at),
                    "{ctx}: release_expired {line}"
                );
            }
            92..=98 => {
                if !storm {
                    now += rng.below(40);
                }
                new.unlock_expired(Cycle(now));
                r.unlock_expired(Cycle(now));
            }
            _ => {
                if rng.chance(0.03) {
                    new.clear();
                    r.clear();
                }
            }
        }
        if new.tick < before {
            cov.renumbers += 1;
            new.tick = u32::MAX - rng.below(300) as u32;
        }
        assert_same_state(&new, &r, &ctx);
    }
    cov
}

#[test]
fn packed_array_matches_the_unpacked_reference() {
    for ways in [1, 2, 4, 8, 16] {
        for seed in 1..=4u64 {
            let cov = run_stream(ways, 4, seed * 0x9e37 + ways as u64, 6_000);
            let ctx = format!("ways {ways} seed {seed}: {cov:?}");
            assert!(cov.renumbers >= 5, "{ctx}");
            assert!(cov.evictions > 0, "{ctx}");
            assert!(cov.all_locked_inserts > 0, "{ctx}");
            if ways > 1 {
                assert!(cov.hole_inserts > 0, "{ctx}");
            }
        }
    }
}
