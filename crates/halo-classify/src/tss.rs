//! Tuple space search (TSS): the MegaFlow and OpenFlow layers of the
//! OVS datapath (Fig. 2a).
//!
//! Each *tuple* is one wildcard pattern plus a cuckoo hash table of the
//! rules sharing that pattern. Classifying a packet means masking its
//! miniflow with each tuple's pattern and probing that tuple's table:
//!
//! * **MegaFlow** ([`SearchMode::FirstMatch`]) returns at the first
//!   matching tuple;
//! * **OpenFlow** ([`SearchMode::HighestPriority`]) probes every tuple
//!   and keeps the highest-priority match.

use crate::mask::WildcardMask;
use halo_mem::SimMemory;
use halo_tables::{CuckooTable, FlowKey, FlowTable, LookupTrace, TableFullError};

/// How many tuples ahead [`TupleSpace::classify_traced`] hints its
/// probes' buckets into the host cache (chosen by measurement).
const WALK_AHEAD: usize = 4;

/// Search semantics of a tuple space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// Return the first matching tuple (MegaFlow layer).
    FirstMatch,
    /// Probe all tuples; return the highest-priority match (OpenFlow
    /// layer).
    ///
    /// Priority ties are broken deterministically toward the *lowest
    /// tuple index* ([`RuleMatch::beats`]), independent of probe order.
    /// The tie-break is part of the search contract: alternative
    /// wildcard backends that probe in a different order must reproduce
    /// the same decision, or backend comparisons diverge on ties.
    HighestPriority,
}

/// A successful classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleMatch {
    /// Index of the tuple that matched (for non-TSS wildcard backends:
    /// the probe slot that produced the match).
    pub tuple: usize,
    /// Rule priority (meaningful under [`SearchMode::HighestPriority`]).
    pub priority: u16,
    /// The rule's action value (48 bits).
    pub action: u64,
}

impl RuleMatch {
    /// The deterministic [`SearchMode::HighestPriority`] ordering:
    /// `self` displaces `incumbent` iff it has strictly higher
    /// priority, or equal priority and a lower tuple index — i.e. the
    /// winner is max by (priority desc, tuple index asc), regardless of
    /// the order the tuples were probed in.
    #[must_use]
    pub fn beats(&self, incumbent: &RuleMatch) -> bool {
        self.priority > incumbent.priority
            || (self.priority == incumbent.priority && self.tuple < incumbent.tuple)
    }
}

/// The action value `action` does not fit the 48-bit action field of an
/// encoded rule (the upper 16 bits hold the priority).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActionRangeError {
    /// The out-of-range action.
    pub action: u64,
}

impl std::fmt::Display for ActionRangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "action {:#x} does not fit in 48 bits", self.action)
    }
}

impl std::error::Error for ActionRangeError {}

/// Why a rule could not be installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleError {
    /// The action value does not fit in 48 bits.
    ActionRange(ActionRangeError),
    /// The tuple's table cannot place the masked key.
    Full(TableFullError),
}

impl std::fmt::Display for RuleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuleError::ActionRange(e) => e.fmt(f),
            RuleError::Full(_) => write!(f, "tuple table full"),
        }
    }
}

impl std::error::Error for RuleError {}

impl From<ActionRangeError> for RuleError {
    fn from(e: ActionRangeError) -> Self {
        RuleError::ActionRange(e)
    }
}

impl From<TableFullError> for RuleError {
    fn from(e: TableFullError) -> Self {
        RuleError::Full(e)
    }
}

/// Encodes priority + action into a table value, reporting oversized
/// actions as a typed error instead of aborting the datapath.
///
/// # Errors
///
/// Returns [`ActionRangeError`] if `action` needs more than 48 bits.
pub fn try_encode_rule(priority: u16, action: u64) -> Result<u64, ActionRangeError> {
    if action >= (1 << 48) {
        return Err(ActionRangeError { action });
    }
    Ok((u64::from(priority) << 48) | action)
}

/// Encodes priority + action into a table value.
///
/// # Panics
///
/// Panics if `action` does not fit in 48 bits; fallible callers (rule
/// installation paths) should go through [`try_encode_rule`].
#[must_use]
pub fn encode_rule(priority: u16, action: u64) -> u64 {
    try_encode_rule(priority, action).unwrap_or_else(|e| panic!("{e}"))
}

/// Decodes a table value into `(priority, action)`.
#[must_use]
pub fn decode_rule(value: u64) -> (u16, u64) {
    ((value >> 48) as u16, value & ((1 << 48) - 1))
}

/// One wildcard tuple: a mask plus its rule table. Generic over the
/// table backend (defaulting to the DPDK-style [`CuckooTable`]) so
/// alternative exact-match designs slot in without touching the search
/// logic.
#[derive(Debug)]
pub struct Tuple<T: FlowTable = CuckooTable> {
    mask: WildcardMask,
    table: T,
}

impl<T: FlowTable> Tuple<T> {
    /// Builds a tuple from a mask and a pre-sized rule table.
    #[must_use]
    pub fn from_parts(mask: WildcardMask, table: T) -> Self {
        Tuple { mask, table }
    }

    /// The tuple's wildcard mask.
    #[must_use]
    pub fn mask(&self) -> &WildcardMask {
        &self.mask
    }

    /// The tuple's rule table.
    #[must_use]
    pub fn table(&self) -> &T {
        &self.table
    }

    /// Number of rules installed in this tuple.
    #[must_use]
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the tuple holds no rules.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

/// A tuple space: an ordered list of wildcard tuples.
///
/// # Examples
///
/// ```
/// use halo_classify::{distinct_masks, PacketHeader, SearchMode, TupleSpace};
/// use halo_mem::SimMemory;
///
/// let mut mem = SimMemory::new();
/// let mut tss = TupleSpace::new(&mut mem, distinct_masks(2), 1024, SearchMode::FirstMatch);
/// let pkt = PacketHeader::synthetic(7);
/// tss.insert_rule(&mut mem, 1, &pkt.miniflow(), 5, 0xAA).unwrap();
/// let hit = tss.classify(&mut mem, &pkt.miniflow()).unwrap();
/// assert_eq!(hit.tuple, 1);
/// assert_eq!(hit.action, 0xAA);
/// ```
#[derive(Debug)]
pub struct TupleSpace<T: FlowTable = CuckooTable> {
    tuples: Vec<Tuple<T>>,
    mode: SearchMode,
}

impl TupleSpace {
    /// Creates a cuckoo-backed tuple space with one tuple per mask, each
    /// sized for `entries_per_tuple` rules.
    pub fn new(
        mem: &mut SimMemory,
        masks: Vec<WildcardMask>,
        entries_per_tuple: usize,
        mode: SearchMode,
    ) -> Self {
        let tuples = masks
            .into_iter()
            .map(|mask| Tuple {
                mask,
                table: CuckooTable::with_capacity_for(
                    mem,
                    entries_per_tuple,
                    0.85,
                    crate::packet::MINIFLOW_LEN,
                ),
            })
            .collect();
        TupleSpace { tuples, mode }
    }
}

impl<T: FlowTable> TupleSpace<T> {
    /// Assembles a tuple space from pre-built tuples (any [`FlowTable`]
    /// backend), searched in the given order.
    #[must_use]
    pub fn from_tuples(tuples: Vec<Tuple<T>>, mode: SearchMode) -> Self {
        TupleSpace { tuples, mode }
    }

    /// The tuples, in search order.
    #[must_use]
    pub fn tuples(&self) -> &[Tuple<T>] {
        &self.tuples
    }

    /// Search semantics.
    #[must_use]
    pub fn mode(&self) -> SearchMode {
        self.mode
    }

    /// Total rules across tuples.
    #[must_use]
    pub fn total_rules(&self) -> usize {
        self.tuples.iter().map(Tuple::len).sum()
    }

    /// Appends a pre-built tuple to the search order, returning its
    /// index. This is how range-capable frontends grow the space one
    /// tuple per newly-seen mask, the way OVS creates a MegaFlow tuple
    /// on first use of a wildcard pattern.
    pub fn push_tuple(&mut self, tuple: Tuple<T>) -> usize {
        self.tuples.push(tuple);
        self.tuples.len() - 1
    }

    /// Index of the tuple carrying exactly `mask`, if one exists.
    #[must_use]
    pub fn tuple_with_mask(&self, mask: &WildcardMask) -> Option<usize> {
        self.tuples.iter().position(|t| t.mask() == mask)
    }

    /// Installs a rule in tuple `tuple_idx`: the rule matches any key
    /// whose masked bytes equal `key & mask`. If a rule for the same
    /// masked key already exists it is overwritten **and reported**:
    /// the replaced rule's `(priority, action)` comes back as
    /// `Ok(Some(..))`, so churn accounting and differential oracles
    /// observe the replacement instead of silently losing a rule.
    ///
    /// # Errors
    ///
    /// Returns [`RuleError::ActionRange`] if `action` needs more than
    /// 48 bits, [`RuleError::Full`] if the tuple's table is full. The
    /// space is unchanged on error.
    ///
    /// # Panics
    ///
    /// Panics if `tuple_idx` is out of range.
    pub fn insert_rule(
        &mut self,
        mem: &mut SimMemory,
        tuple_idx: usize,
        key: &FlowKey,
        priority: u16,
        action: u64,
    ) -> Result<Option<(u16, u64)>, RuleError> {
        let value = try_encode_rule(priority, action)?;
        let tuple = &mut self.tuples[tuple_idx];
        let masked = tuple.mask.apply(key);
        let replaced = tuple.table.lookup(mem, &masked).map(decode_rule);
        tuple.table.insert(mem, &masked, value)?;
        Ok(replaced)
    }

    /// Removes the rule matching `key & mask` from tuple `tuple_idx`
    /// (flow expiry under churn). Returns the removed rule's
    /// `(priority, action)`, or `None` if no such rule was installed.
    ///
    /// # Panics
    ///
    /// Panics if `tuple_idx` is out of range.
    pub fn remove_rule(
        &mut self,
        mem: &mut SimMemory,
        tuple_idx: usize,
        key: &FlowKey,
    ) -> Option<(u16, u64)> {
        let tuple = &mut self.tuples[tuple_idx];
        let masked = tuple.mask.apply(key);
        tuple.table.remove(mem, &masked).map(decode_rule)
    }

    /// Functional classification.
    #[must_use]
    pub fn classify(&self, mem: &SimMemory, key: &FlowKey) -> Option<RuleMatch> {
        self.classify_traced(mem, key, false).0
    }

    /// Classification returning both the result and the per-tuple lookup
    /// traces actually performed (in probe order). Under
    /// [`SearchMode::FirstMatch`] probing stops at the first hit; under
    /// [`SearchMode::HighestPriority`] every tuple is probed.
    #[must_use]
    pub fn classify_traced(
        &self,
        mem: &SimMemory,
        key: &FlowKey,
        software_locking: bool,
    ) -> (Option<RuleMatch>, Vec<(usize, LookupTrace)>) {
        let mut probes = Vec::with_capacity(self.tuples.len());
        let mut best: Option<RuleMatch> = None;
        // Staged walk: hint tuple i + WALK_AHEAD's buckets while tuple
        // i is probed, so their host cache misses overlap. Each tuple's
        // masked key waits in slot `i % WALK_AHEAD` from its hint to its
        // probe, so the key is masked once per tuple.
        let mut staged = [*key; WALK_AHEAD];
        for (slot, ahead) in staged.iter_mut().zip(&self.tuples) {
            *slot = ahead.mask.apply(key);
            ahead.table.prefetch(mem, slot);
        }
        for (i, tuple) in self.tuples.iter().enumerate() {
            let slot = &mut staged[i % WALK_AHEAD];
            let masked = *slot;
            if let Some(ahead) = self.tuples.get(i + WALK_AHEAD) {
                *slot = ahead.mask.apply(key);
                ahead.table.prefetch(mem, slot);
            }
            let tr = tuple.table.lookup_traced(mem, &masked, software_locking);
            let result = tr.result;
            probes.push((i, tr));
            if let Some(v) = result {
                let (priority, action) = decode_rule(v);
                let m = RuleMatch {
                    tuple: i,
                    priority,
                    action,
                };
                match self.mode {
                    SearchMode::FirstMatch => return (Some(m), probes),
                    SearchMode::HighestPriority => {
                        // Explicit deterministic tie-break: (priority
                        // desc, tuple index asc), not probe order.
                        if best.is_none_or(|b| m.beats(&b)) {
                            best = Some(m);
                        }
                    }
                }
            }
        }
        (best, probes)
    }

    /// Reference classification by linear scan over every tuple (no hash
    /// tables): the oracle for property tests.
    #[must_use]
    pub fn classify_linear(&self, mem: &SimMemory, key: &FlowKey) -> Option<RuleMatch> {
        let mut best: Option<RuleMatch> = None;
        for (i, tuple) in self.tuples.iter().enumerate() {
            let masked = tuple.mask.apply(key);
            if let Some(v) = tuple.table.lookup(mem, &masked) {
                let (priority, action) = decode_rule(v);
                let m = RuleMatch {
                    tuple: i,
                    priority,
                    action,
                };
                match self.mode {
                    SearchMode::FirstMatch => return Some(m),
                    SearchMode::HighestPriority => {
                        // Same explicit tie-break as the hashed search.
                        if best.is_none_or(|b| m.beats(&b)) {
                            best = Some(m);
                        }
                    }
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::distinct_masks;
    use crate::packet::PacketHeader;

    fn key(id: u64) -> FlowKey {
        PacketHeader::synthetic(id).miniflow()
    }

    #[test]
    fn rule_encoding_roundtrip() {
        for (p, a) in [(0u16, 0u64), (9, 0xABCD), (u16::MAX, (1 << 48) - 1)] {
            assert_eq!(decode_rule(encode_rule(p, a)), (p, a));
        }
    }

    #[test]
    fn first_match_returns_earliest_tuple() {
        let mut mem = SimMemory::new();
        let mut tss = TupleSpace::new(&mut mem, distinct_masks(3), 256, SearchMode::FirstMatch);
        let k = key(7);
        // Install the same flow in tuples 1 and 2.
        tss.insert_rule(&mut mem, 1, &k, 1, 100).unwrap();
        tss.insert_rule(&mut mem, 2, &k, 9, 200).unwrap();
        let m = tss.classify(&mem, &k).unwrap();
        assert_eq!(m.tuple, 1, "MegaFlow stops at the first match");
        assert_eq!(m.action, 100);
    }

    #[test]
    fn highest_priority_searches_all() {
        let mut mem = SimMemory::new();
        let mut tss = TupleSpace::new(
            &mut mem,
            distinct_masks(3),
            256,
            SearchMode::HighestPriority,
        );
        let k = key(7);
        tss.insert_rule(&mut mem, 1, &k, 1, 100).unwrap();
        tss.insert_rule(&mut mem, 2, &k, 9, 200).unwrap();
        let m = tss.classify(&mem, &k).unwrap();
        assert_eq!(m.tuple, 2, "OpenFlow picks the highest priority");
        assert_eq!(m.action, 200);
    }

    #[test]
    fn wildcard_rule_catches_many_flows() {
        let mut mem = SimMemory::new();
        let masks = vec![WildcardMask::exact().any_src_port().any_dst_port()];
        let mut tss = TupleSpace::new(&mut mem, masks, 256, SearchMode::FirstMatch);
        let base = PacketHeader::synthetic(3);
        tss.insert_rule(&mut mem, 0, &base.miniflow(), 0, 42)
            .unwrap();
        // Same 5-tuple except ports: still matches.
        let mut other = base;
        other.src_port = base.src_port.wrapping_add(100);
        other.dst_port = base.dst_port.wrapping_add(100);
        let m = tss.classify(&mem, &other.miniflow()).unwrap();
        assert_eq!(m.action, 42);
    }

    #[test]
    fn miss_probes_every_tuple() {
        let mut mem = SimMemory::new();
        let tss = TupleSpace::new(&mut mem, distinct_masks(5), 256, SearchMode::FirstMatch);
        let (m, probes) = tss.classify_traced(&mem, &key(1), false);
        assert!(m.is_none());
        assert_eq!(probes.len(), 5);
    }

    #[test]
    fn first_match_stops_probing_early() {
        let mut mem = SimMemory::new();
        let mut tss = TupleSpace::new(&mut mem, distinct_masks(5), 256, SearchMode::FirstMatch);
        let k = key(7);
        tss.insert_rule(&mut mem, 0, &k, 0, 1).unwrap();
        let (_, probes) = tss.classify_traced(&mem, &k, false);
        assert_eq!(probes.len(), 1);
    }

    #[test]
    fn linear_scan_agrees_with_hashed_search() {
        let mut mem = SimMemory::new();
        let mut tss = TupleSpace::new(
            &mut mem,
            distinct_masks(8),
            512,
            SearchMode::HighestPriority,
        );
        for id in 0..200u64 {
            let tuple = (id % 8) as usize;
            tss.insert_rule(&mut mem, tuple, &key(id), (id % 16) as u16, id)
                .unwrap();
        }
        for id in 0..300u64 {
            let k = key(id);
            assert_eq!(
                tss.classify(&mem, &k),
                tss.classify_linear(&mem, &k),
                "divergence at id {id}"
            );
        }
    }

    #[test]
    fn remove_rule_roundtrips_and_misses_cleanly() {
        let mut mem = SimMemory::new();
        let mut tss = TupleSpace::new(&mut mem, distinct_masks(3), 256, SearchMode::FirstMatch);
        let k = key(7);
        tss.insert_rule(&mut mem, 1, &k, 5, 100).unwrap();
        assert_eq!(tss.total_rules(), 1);
        assert_eq!(tss.remove_rule(&mut mem, 1, &k), Some((5, 100)));
        assert_eq!(tss.total_rules(), 0);
        assert!(tss.classify(&mem, &k).is_none(), "expired rule hit");
        assert_eq!(tss.remove_rule(&mut mem, 1, &k), None, "double expiry");
        // Removal is per-tuple: the same key in another tuple survives.
        tss.insert_rule(&mut mem, 0, &k, 1, 11).unwrap();
        tss.insert_rule(&mut mem, 2, &k, 2, 22).unwrap();
        assert_eq!(tss.remove_rule(&mut mem, 0, &k), Some((1, 11)));
        assert_eq!(tss.classify(&mem, &k).unwrap().action, 22);
    }

    /// The tuple space is generic over its table backend: the SFH
    /// baseline drops into the MegaFlow slot and classifies identically
    /// to the cuckoo default on the same rule set.
    #[test]
    fn sfh_backend_classifies_like_cuckoo() {
        use halo_tables::SfhTable;
        let mut mem = SimMemory::new();
        let mut cuckoo = TupleSpace::new(&mut mem, distinct_masks(3), 256, SearchMode::FirstMatch);
        let tuples = distinct_masks(3)
            .into_iter()
            .map(|mask| {
                Tuple::from_parts(
                    mask,
                    SfhTable::with_capacity_for(&mut mem, 256, crate::packet::MINIFLOW_LEN),
                )
            })
            .collect();
        let mut sfh: TupleSpace<SfhTable> = TupleSpace::from_tuples(tuples, SearchMode::FirstMatch);
        for id in 0..60u64 {
            let tuple = (id % 3) as usize;
            cuckoo
                .insert_rule(&mut mem, tuple, &key(id), 0, id)
                .unwrap();
            sfh.insert_rule(&mut mem, tuple, &key(id), 0, id).unwrap();
        }
        for id in 0..90u64 {
            assert_eq!(
                cuckoo.classify(&mem, &key(id)),
                sfh.classify(&mem, &key(id)),
                "backends diverged at id {id}"
            );
        }
    }

    /// Re-inserting a rule whose masked key collides with an installed
    /// rule overwrites it — and the replacement is *reported*, not
    /// swallowed: churn accounting must see the evicted rule.
    #[test]
    fn insert_reports_masked_key_replacement() {
        let mut mem = SimMemory::new();
        let masks = vec![WildcardMask::exact().any_src_port()];
        let mut tss = TupleSpace::new(&mut mem, masks, 256, SearchMode::FirstMatch);
        let base = PacketHeader::synthetic(11);
        let mut other = base;
        other.src_port = base.src_port.wrapping_add(77);
        // Fresh insert: nothing replaced.
        assert_eq!(
            tss.insert_rule(&mut mem, 0, &base.miniflow(), 4, 100)
                .unwrap(),
            None
        );
        // Distinct header, same masked key: in-place overwrite, and the
        // old (priority, action) comes back.
        assert_eq!(
            tss.insert_rule(&mut mem, 0, &other.miniflow(), 9, 200)
                .unwrap(),
            Some((4, 100))
        );
        assert_eq!(tss.total_rules(), 1, "replacement must not grow the space");
        assert_eq!(tss.classify(&mem, &base.miniflow()).unwrap().action, 200);
    }

    /// A churn-style insert/remove/re-insert cycle over one masked key:
    /// every transition's return value reflects what was really there.
    #[test]
    fn replacement_is_observable_under_churn() {
        let mut mem = SimMemory::new();
        let mut tss = TupleSpace::new(&mut mem, distinct_masks(2), 256, SearchMode::FirstMatch);
        let k = key(3);
        for round in 0..5u64 {
            let expect_prev = if round == 0 {
                None
            } else {
                Some(((round - 1) as u16, round - 1))
            };
            assert_eq!(
                tss.insert_rule(&mut mem, 1, &k, round as u16, round)
                    .unwrap(),
                expect_prev,
                "round {round}"
            );
        }
        assert_eq!(tss.remove_rule(&mut mem, 1, &k), Some((4, 4)));
        assert_eq!(tss.insert_rule(&mut mem, 1, &k, 0, 9).unwrap(), None);
    }

    /// Equal-priority rules resolve to the lowest tuple index — pinned
    /// so a backend probing in another order cannot legally differ.
    #[test]
    fn equal_priority_tie_breaks_to_lowest_tuple() {
        let mut mem = SimMemory::new();
        let mut tss = TupleSpace::new(
            &mut mem,
            distinct_masks(4),
            256,
            SearchMode::HighestPriority,
        );
        let k = key(7);
        // Insert in descending tuple order so insertion order cannot
        // accidentally produce the right answer.
        tss.insert_rule(&mut mem, 3, &k, 5, 300).unwrap();
        tss.insert_rule(&mut mem, 1, &k, 5, 100).unwrap();
        tss.insert_rule(&mut mem, 2, &k, 5, 200).unwrap();
        let m = tss.classify(&mem, &k).unwrap();
        assert_eq!((m.tuple, m.action), (1, 100), "lowest tuple wins ties");
        assert_eq!(tss.classify_linear(&mem, &k), Some(m), "oracle agrees");
        // And a strictly higher priority still beats a lower tuple.
        tss.insert_rule(&mut mem, 2, &k, 6, 999).unwrap();
        assert_eq!(tss.classify(&mem, &k).unwrap().action, 999);
    }

    /// `RuleMatch::beats` is exactly (priority desc, tuple asc).
    #[test]
    fn beats_orders_by_priority_then_tuple() {
        let m = |tuple, priority| RuleMatch {
            tuple,
            priority,
            action: 0,
        };
        assert!(m(5, 9).beats(&m(0, 8)));
        assert!(!m(0, 8).beats(&m(5, 9)));
        assert!(m(1, 7).beats(&m(2, 7)));
        assert!(!m(2, 7).beats(&m(1, 7)));
        assert!(!m(2, 7).beats(&m(2, 7)), "a match never beats itself");
    }

    /// Oversized actions surface as a typed error through `insert_rule`
    /// instead of aborting, and the boundary values behave.
    #[test]
    fn action_range_is_a_typed_error() {
        assert_eq!(
            try_encode_rule(1, (1 << 48) - 1),
            Ok((1 << 48) | ((1 << 48) - 1))
        );
        assert_eq!(
            try_encode_rule(1, 1 << 48),
            Err(ActionRangeError { action: 1 << 48 })
        );
        assert_eq!(
            try_encode_rule(0, u64::MAX),
            Err(ActionRangeError { action: u64::MAX })
        );
        let mut mem = SimMemory::new();
        let mut tss = TupleSpace::new(&mut mem, distinct_masks(2), 256, SearchMode::FirstMatch);
        let k = key(1);
        assert_eq!(
            tss.insert_rule(&mut mem, 0, &k, 1, 1 << 48),
            Err(RuleError::ActionRange(ActionRangeError { action: 1 << 48 }))
        );
        assert_eq!(tss.total_rules(), 0, "failed insert must not install");
        tss.insert_rule(&mut mem, 0, &k, 1, (1 << 48) - 1).unwrap();
        assert_eq!(tss.classify(&mem, &k).unwrap().action, (1 << 48) - 1);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn infallible_encode_still_panics() {
        let _ = encode_rule(0, 1 << 48);
    }

    #[test]
    fn push_tuple_extends_search_order() {
        let mut mem = SimMemory::new();
        let mut tss = TupleSpace::new(&mut mem, distinct_masks(2), 64, SearchMode::HighestPriority);
        let mask = WildcardMask::exact().any_proto();
        assert_eq!(tss.tuple_with_mask(&mask), None);
        let table = CuckooTable::with_capacity_for(&mut mem, 64, 0.85, crate::packet::MINIFLOW_LEN);
        let idx = tss.push_tuple(Tuple::from_parts(mask.clone(), table));
        assert_eq!(idx, 2);
        assert_eq!(tss.tuple_with_mask(&mask), Some(idx));
        let k = key(9);
        tss.insert_rule(&mut mem, idx, &k, 3, 33).unwrap();
        assert_eq!(tss.classify(&mem, &k).unwrap().tuple, idx);
    }

    #[test]
    fn total_rules_counts_across_tuples() {
        let mut mem = SimMemory::new();
        let mut tss = TupleSpace::new(&mut mem, distinct_masks(4), 256, SearchMode::FirstMatch);
        for id in 0..40u64 {
            tss.insert_rule(&mut mem, (id % 4) as usize, &key(id), 0, id)
                .unwrap();
        }
        // Wildcard masks can merge distinct flows into one rule, so the
        // total is at most 40 but must be positive.
        let total = tss.total_rules();
        assert!(total > 0 && total <= 40);
        assert!(!tss.tuples().is_empty());
    }
}
