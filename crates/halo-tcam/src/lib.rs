//! # halo-tcam
//!
//! Functional and timing models of ternary content-addressable memory
//! (TCAM) and its SRAM-emulated variant — the "fastest but expensive"
//! baselines the paper compares HALO against (§5.1, §6.1, §6.4).
//!
//! A TCAM matches a search key against *every* stored entry in parallel;
//! each entry is a `(value, care-mask, priority)` triple where mask bits
//! of 0 are wildcards. Lookups complete in a few clock cycles regardless
//! of occupancy; the cost is enormous static power and die area
//! (quantified by `halo-power`). Updates, in contrast, are expensive:
//! priority ordering forces entry shuffling (§1).
//!
//! # Examples
//!
//! ```
//! use halo_tcam::{TcamEntry, TcamTable};
//!
//! let mut tcam = TcamTable::new(64, 4);
//! // Match any key whose first byte is 0x0a (rest wildcarded).
//! tcam.insert(TcamEntry::new(&[0x0a, 0, 0, 0], &[0xff, 0, 0, 0], 10, 77)).unwrap();
//! assert_eq!(tcam.lookup(&[0x0a, 1, 2, 3]), Some(77));
//! assert_eq!(tcam.lookup(&[0x0b, 1, 2, 3]), None);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use halo_sim::{Cycle, Cycles, Resource};
use std::fmt;

/// One ternary rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcamEntry {
    value: Vec<u8>,
    mask: Vec<u8>,
    /// Higher wins when multiple entries match.
    priority: u32,
    /// The action/result returned on match.
    action: u64,
}

impl TcamEntry {
    /// Builds an entry; `mask` bits of 0 are "don't care".
    ///
    /// # Panics
    ///
    /// Panics if `value` and `mask` lengths differ or are empty.
    #[must_use]
    pub fn new(value: &[u8], mask: &[u8], priority: u32, action: u64) -> Self {
        assert_eq!(value.len(), mask.len(), "value/mask length mismatch");
        assert!(!value.is_empty(), "empty TCAM entry");
        TcamEntry {
            value: value.iter().zip(mask).map(|(v, m)| v & m).collect(),
            mask: mask.to_vec(),
            priority,
            action,
        }
    }

    /// An exact-match entry (mask all ones).
    #[must_use]
    pub fn exact(value: &[u8], priority: u32, action: u64) -> Self {
        TcamEntry::new(value, &vec![0xff; value.len()], priority, action)
    }

    /// Whether `key` matches this entry (key may be longer; extra bytes
    /// are ignored, matching how rules cover header prefixes).
    #[must_use]
    pub fn matches(&self, key: &[u8]) -> bool {
        if key.len() < self.value.len() {
            return false;
        }
        self.value
            .iter()
            .zip(&self.mask)
            .zip(key)
            .all(|((v, m), k)| k & m == *v)
    }

    /// The entry's priority.
    #[must_use]
    pub fn priority(&self) -> u32 {
        self.priority
    }

    /// The entry's action value.
    #[must_use]
    pub fn action(&self) -> u64 {
        self.action
    }

    /// Entry width in bytes.
    #[must_use]
    pub fn width(&self) -> usize {
        self.value.len()
    }
}

/// Error: the TCAM array is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcamFullError;

impl fmt::Display for TcamFullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TCAM array full")
    }
}

impl std::error::Error for TcamFullError {}

/// A TCAM array: fully parallel ternary match with priority resolution.
#[derive(Debug)]
pub struct TcamTable {
    entries: Vec<TcamEntry>,
    capacity: usize,
    port: Resource,
    lookups: u64,
    /// Entry moves performed by updates (the expensive part of TCAM
    /// management, §1 / [67]).
    update_moves: u64,
}

impl TcamTable {
    /// Creates a TCAM holding up to `capacity` entries with a
    /// `lookup_latency`-cycle match (paper: "a few clock cycles").
    #[must_use]
    pub fn new(capacity: usize, lookup_latency: u64) -> Self {
        TcamTable {
            entries: Vec::new(),
            capacity,
            port: Resource::pipelined("tcam", Cycles(lookup_latency)),
            lookups: 0,
            update_moves: 0,
        }
    }

    /// Installed entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are installed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Capacity in entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lookups performed (for energy accounting).
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Entry moves caused by priority-ordered insertion.
    #[must_use]
    pub fn update_moves(&self) -> u64 {
        self.update_moves
    }

    /// Inserts an entry, keeping the array sorted by descending priority
    /// (physical order = match precedence in real TCAMs, so insertion
    /// shifts lower-priority entries — counted in
    /// [`update_moves`](Self::update_moves)).
    ///
    /// # Errors
    ///
    /// Returns [`TcamFullError`] when at capacity.
    pub fn insert(&mut self, entry: TcamEntry) -> Result<(), TcamFullError> {
        if self.entries.len() >= self.capacity {
            return Err(TcamFullError);
        }
        let pos = self
            .entries
            .partition_point(|e| e.priority >= entry.priority);
        self.update_moves += (self.entries.len() - pos) as u64;
        self.entries.insert(pos, entry);
        Ok(())
    }

    /// Functional lookup: the highest-priority matching action.
    pub fn lookup(&mut self, key: &[u8]) -> Option<u64> {
        self.lookups += 1;
        self.entries
            .iter()
            .find(|e| e.matches(key))
            .map(|e| e.action)
    }

    /// Timed lookup: result plus completion cycle (pipelined, so
    /// back-to-back lookups sustain one per cycle).
    pub fn lookup_timed(&mut self, key: &[u8], at: Cycle) -> (Option<u64>, Cycle) {
        let r = self.lookup(key);
        (r, self.port.serve(at))
    }

    /// Removes all entries matching `action`; returns how many.
    pub fn remove_action(&mut self, action: u64) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.action != action);
        before - self.entries.len()
    }

    /// Non-counting functional match: the highest-priority matching
    /// action without bumping the lookup energy counter. The immutable
    /// probe behind the [`FlowTable`](halo_tables::FlowTable) facade.
    #[must_use]
    pub fn match_key(&self, key: &[u8]) -> Option<u64> {
        self.entries
            .iter()
            .find(|e| e.matches(key))
            .map(|e| e.action)
    }

    /// Removes the exact-match entry for `key` (mask all ones, value ==
    /// `key`), returning its action if one was installed.
    pub fn remove_exact(&mut self, key: &[u8]) -> Option<u64> {
        let pos = self
            .entries
            .iter()
            .position(|e| e.value == key && e.mask.iter().all(|&m| m == 0xff))?;
        Some(self.entries.remove(pos).action)
    }
}

/// The TCAM as an exact-match [`FlowTable`] backend: flows are installed
/// as all-ones-mask entries at priority 0, so the array doubles as the
/// EMC/MegaFlow slot in backend comparisons (§6.4). The TCAM lives
/// outside simulated memory, so traces carry no memory steps and there
/// is nothing for the accelerator to dispatch against
/// (`meta_addr() == None`).
impl halo_tables::FlowTable for TcamTable {
    fn meta_addr(&self) -> Option<halo_mem::Addr> {
        None
    }

    fn len(&self) -> usize {
        TcamTable::len(self)
    }

    fn capacity(&self) -> usize {
        TcamTable::capacity(self)
    }

    fn insert(
        &mut self,
        _mem: &mut halo_mem::SimMemory,
        key: &halo_tables::FlowKey,
        value: u64,
    ) -> Result<(), halo_tables::TableFullError> {
        if self.remove_exact(key.as_bytes()).is_none() && self.entries.len() >= self.capacity {
            return Err(halo_tables::TableFullError);
        }
        self.insert(TcamEntry::exact(key.as_bytes(), 0, value))
            .map_err(|_| halo_tables::TableFullError)
    }

    fn remove(
        &mut self,
        _mem: &mut halo_mem::SimMemory,
        key: &halo_tables::FlowKey,
    ) -> Option<u64> {
        self.remove_exact(key.as_bytes())
    }

    fn lookup_traced(
        &self,
        _mem: &halo_mem::SimMemory,
        key: &halo_tables::FlowKey,
        _software_locking: bool,
    ) -> halo_tables::LookupTrace {
        halo_tables::LookupTrace {
            result: self.match_key(key.as_bytes()),
            steps: Vec::new(),
        }
    }

    fn warm_lines(&self) -> Vec<halo_mem::Addr> {
        Vec::new()
    }
}

/// An SRAM-emulated TCAM (Z-TCAM style, [75–77]): the rule set is
/// partitioned into sub-tables held in SRAM blocks searched in a short
/// pipeline. Functionally identical to TCAM; slightly higher latency,
/// substantially lower power/area (see `halo-power`).
#[derive(Debug)]
pub struct SramTcam {
    inner: TcamTable,
    stages: u64,
}

impl SramTcam {
    /// Creates an SRAM-TCAM with `capacity` entries, a `base_latency`
    /// match stage, and `stages` pipeline stages (lookup latency =
    /// `base_latency * stages`).
    #[must_use]
    pub fn new(capacity: usize, base_latency: u64, stages: u64) -> Self {
        SramTcam {
            inner: TcamTable::new(capacity, base_latency * stages),
            stages,
        }
    }

    /// Pipeline depth.
    #[must_use]
    pub fn stages(&self) -> u64 {
        self.stages
    }

    /// Installed entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether no entries are installed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Lookups performed.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.inner.lookups()
    }

    /// Inserts an entry.
    ///
    /// # Errors
    ///
    /// Returns [`TcamFullError`] when at capacity.
    pub fn insert(&mut self, entry: TcamEntry) -> Result<(), TcamFullError> {
        self.inner.insert(entry)
    }

    /// Functional lookup.
    pub fn lookup(&mut self, key: &[u8]) -> Option<u64> {
        self.inner.lookup(key)
    }

    /// Timed lookup.
    pub fn lookup_timed(&mut self, key: &[u8], at: Cycle) -> (Option<u64>, Cycle) {
        self.inner.lookup_timed(key, at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_and_wildcard_matching() {
        let mut t = TcamTable::new(16, 4);
        t.insert(TcamEntry::exact(&[1, 2, 3, 4], 5, 100)).unwrap();
        t.insert(TcamEntry::new(&[1, 0, 0, 0], &[0xff, 0, 0, 0], 1, 200))
            .unwrap();
        // Exact entry wins on its key (higher priority).
        assert_eq!(t.lookup(&[1, 2, 3, 4]), Some(100));
        // Wildcard catches the rest of the 1.x.x.x space.
        assert_eq!(t.lookup(&[1, 9, 9, 9]), Some(200));
        assert_eq!(t.lookup(&[2, 2, 3, 4]), None);
    }

    #[test]
    fn priority_resolution_prefers_higher() {
        let mut t = TcamTable::new(16, 4);
        t.insert(TcamEntry::new(&[1, 0], &[0xff, 0], 1, 10))
            .unwrap();
        t.insert(TcamEntry::new(&[1, 2], &[0xff, 0xff], 9, 20))
            .unwrap();
        assert_eq!(t.lookup(&[1, 2]), Some(20));
    }

    #[test]
    fn insertion_order_does_not_affect_result() {
        let mk = |order: &[usize]| {
            let entries = [
                TcamEntry::new(&[1, 0], &[0xff, 0], 1, 10),
                TcamEntry::new(&[1, 2], &[0xff, 0xff], 9, 20),
                TcamEntry::new(&[0, 0], &[0, 0], 0, 30),
            ];
            let mut t = TcamTable::new(16, 4);
            for &i in order {
                t.insert(entries[i].clone()).unwrap();
            }
            t.lookup(&[1, 2])
        };
        assert_eq!(mk(&[0, 1, 2]), mk(&[2, 1, 0]));
        assert_eq!(mk(&[1, 0, 2]), Some(20));
    }

    #[test]
    fn update_moves_accumulate() {
        let mut t = TcamTable::new(16, 4);
        // Insert ascending priorities: each insert shifts all others.
        for p in 0..8 {
            t.insert(TcamEntry::exact(&[p as u8], p, u64::from(p)))
                .unwrap();
        }
        assert!(t.update_moves() > 0, "priority inserts must shuffle");
    }

    #[test]
    fn capacity_enforced() {
        let mut t = TcamTable::new(2, 4);
        t.insert(TcamEntry::exact(&[1], 0, 1)).unwrap();
        t.insert(TcamEntry::exact(&[2], 0, 2)).unwrap();
        assert_eq!(t.insert(TcamEntry::exact(&[3], 0, 3)), Err(TcamFullError));
    }

    #[test]
    fn lookup_latency_constant_and_pipelined() {
        let mut t = TcamTable::new(1024, 4);
        for i in 0..100u64 {
            t.insert(TcamEntry::exact(&i.to_le_bytes(), 0, i)).unwrap();
        }
        let (_, t1) = t.lookup_timed(&0u64.to_le_bytes(), Cycle(0));
        let (_, t2) = t.lookup_timed(&1u64.to_le_bytes(), Cycle(0));
        assert_eq!(t1, Cycle(4));
        assert_eq!(t2, Cycle(5), "pipelined: next result one cycle later");
    }

    #[test]
    fn sram_tcam_matches_tcam_functionally() {
        let mut a = TcamTable::new(64, 4);
        let mut b = SramTcam::new(64, 4, 2);
        for p in 0..10u32 {
            let e = TcamEntry::new(&[p as u8, 0], &[0xff, 0], p, u64::from(p) * 7);
            a.insert(e.clone()).unwrap();
            b.insert(e).unwrap();
        }
        for k in 0..20u8 {
            assert_eq!(a.lookup(&[k, 3]), b.lookup(&[k, 3]));
        }
        // But SRAM-TCAM is slower per lookup.
        let (_, ta) = a.lookup_timed(&[1, 1], Cycle(0));
        let (_, tb) = b.lookup_timed(&[1, 1], Cycle(0));
        assert!(tb > ta);
    }

    #[test]
    fn remove_action_deletes() {
        let mut t = TcamTable::new(16, 4);
        t.insert(TcamEntry::exact(&[1], 0, 42)).unwrap();
        t.insert(TcamEntry::exact(&[2], 0, 42)).unwrap();
        assert_eq!(t.remove_action(42), 2);
        assert!(t.is_empty());
    }

    #[test]
    fn tcam_is_a_flow_table() {
        use halo_tables::{FlowKey, FlowTable};
        let mut mem = halo_mem::SimMemory::new();
        let mut t = TcamTable::new(4, 4);
        let k = FlowKey::synthetic(7, 13);
        let dyn_probe = |t: &TcamTable, mem: &mut halo_mem::SimMemory, k: &FlowKey| {
            let dt: &dyn FlowTable = t;
            dt.lookup_traced(mem, k, true)
        };
        assert_eq!(dyn_probe(&t, &mut mem, &k).result, None);
        FlowTable::insert(&mut t, &mut mem, &k, 11).unwrap();
        // Update in place: no second entry, new value.
        FlowTable::insert(&mut t, &mut mem, &k, 12).unwrap();
        assert_eq!(TcamTable::len(&t), 1);
        let tr = dyn_probe(&t, &mut mem, &k);
        assert_eq!(tr.result, Some(12));
        assert!(tr.steps.is_empty(), "TCAM is not in simulated memory");
        assert_eq!(t.lookups(), 0, "trait probes must not count energy");
        assert_eq!(FlowTable::remove(&mut t, &mut mem, &k), Some(12));
        assert!(t.is_empty());
        // Capacity still enforced for distinct keys.
        for id in 0..4u64 {
            FlowTable::insert(&mut t, &mut mem, &FlowKey::synthetic(id, 13), id).unwrap();
        }
        assert!(FlowTable::insert(&mut t, &mut mem, &FlowKey::synthetic(9, 13), 9).is_err());
    }

    #[test]
    fn short_key_never_matches() {
        let mut t = TcamTable::new(16, 4);
        t.insert(TcamEntry::exact(&[1, 2, 3, 4], 0, 1)).unwrap();
        assert_eq!(t.lookup(&[1, 2]), None);
    }
}
