//! Wildcard-table backend selection: the [`WildcardTable`] seam the
//! MegaFlow/OpenFlow layer sits behind, mirroring what
//! [`FlowTable`](halo_tables::FlowTable) did for exact match.
//!
//! Every wildcard backend answers the same questions — install/remove a
//! masked or range rule, classify a key, expose the traced probes and
//! the per-probe table addresses HALO dispatch needs — so the datapath
//! ([`crate::LookupExecutor::search`], [`crate::DatapathCore`]), the
//! vswitch, and the multicore PMD loop can select the wildcard
//! implementation at runtime exactly the way
//! [`TableBackend`](crate::TableBackend)/[`ExactTable`](crate::ExactTable)
//! selects exact-match backends:
//!
//! * [`WildcardBackend::Tss`] — tuple space search ([`TssRangeTable`]
//!   wrapping a [`TupleSpace`]): one hash probe per distinct mask;
//!   range rules are installed via prefix expansion
//!   ([`RangeRule::tss_expansion`]), so range-heavy rulesets multiply
//!   both the mask count and the entry count.
//! * [`WildcardBackend::Rvh`] — range-vector hashing ([`RvhTable`]):
//!   a constant [`RVH_VECTORS`](halo_classify::RVH_VECTORS) marker
//!   probes per classification regardless of ruleset shape.
//!
//! Adding a backend means implementing [`WildcardTable`] and adding a
//! [`WildcardBackend`] variant — see DESIGN.md §14.

use std::collections::HashMap;

use halo_classify::{
    FieldRange, PrefixRule, RangeRule, RuleError, RuleMatch, RvhTable, SearchMode, Tuple,
    TupleSpace, WildcardMask, MINIFLOW_LEN, NUM_FIELDS,
};
use halo_mem::{Addr, SimMemory};
use halo_tables::{FlowKey, FlowTable, LookupTrace, TableFullError};

use crate::backend::{ExactTable, TableBackend};

/// Why a wildcard-rule operation failed. The table is unchanged in
/// every case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WildcardError {
    /// The action does not fit the 48-bit encodable range.
    ActionRange(halo_classify::ActionRangeError),
    /// A backing table cannot place the rule.
    Full(TableFullError),
    /// A masked insert named a mask no tuple carries (the tuple space
    /// fixes its masks at construction).
    UnknownMask,
    /// The table cannot express this rule form: range rules on a
    /// [`SearchMode::FirstMatch`] tuple space, whose early exit could
    /// return a lower-priority expansion element.
    UnsupportedRanges,
}

impl std::fmt::Display for WildcardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WildcardError::ActionRange(e) => write!(f, "{e}"),
            WildcardError::Full(_) => write!(f, "wildcard table full"),
            WildcardError::UnknownMask => write!(f, "no tuple carries this mask"),
            WildcardError::UnsupportedRanges => {
                write!(f, "backend cannot express range rules")
            }
        }
    }
}

impl std::error::Error for WildcardError {}

impl From<RuleError> for WildcardError {
    fn from(e: RuleError) -> Self {
        match e {
            RuleError::ActionRange(a) => WildcardError::ActionRange(a),
            RuleError::Full(t) => WildcardError::Full(t),
        }
    }
}

impl From<TableFullError> for WildcardError {
    fn from(e: TableFullError) -> Self {
        WildcardError::Full(e)
    }
}

/// An object-safe wildcard classification table: the MegaFlow/OpenFlow
/// slot every backend plugs into.
///
/// Rules arrive in two forms — `(mask, key)` pairs (the native tuple
/// space vocabulary) and [`RangeRule`]s (per-field intervals) — and a
/// backend may support either or both. Classification resolves on
/// (priority desc, then the backend's pinned deterministic tie-break);
/// differential drivers use unique priorities so backends cannot
/// legally diverge.
pub trait WildcardTable: std::fmt::Debug {
    /// Stable backend name (figure rows and JSON).
    fn name(&self) -> &'static str;

    /// Number of installed rules.
    fn rules(&self) -> usize;

    /// Hash probes a single classification performs (the tuple count
    /// for TSS, the vector count for RVH).
    fn probes(&self) -> usize;

    /// Installs a masked rule, returning the `(priority, action)` it
    /// replaced if the masked key was already installed.
    ///
    /// # Errors
    ///
    /// [`WildcardError::UnknownMask`] if no probe slot carries `mask`,
    /// [`WildcardError::ActionRange`] / [`WildcardError::Full`] from
    /// the backing table. The table is unchanged on error.
    fn insert_masked(
        &mut self,
        mem: &mut SimMemory,
        mask: &WildcardMask,
        key: &FlowKey,
        priority: u16,
        action: u64,
    ) -> Result<Option<(u16, u64)>, WildcardError>;

    /// Removes the masked rule, returning its `(priority, action)` if
    /// it was installed.
    fn remove_masked(
        &mut self,
        mem: &mut SimMemory,
        mask: &WildcardMask,
        key: &FlowKey,
    ) -> Option<(u16, u64)>;

    /// Installs a range rule, returning the `(priority, action)` of the
    /// identically-shaped rule it replaced, if any.
    ///
    /// # Errors
    ///
    /// [`WildcardError::UnsupportedRanges`] when the table cannot
    /// express range rules (a first-match TSS table); otherwise as
    /// [`Self::insert_masked`].
    fn insert_range(
        &mut self,
        mem: &mut SimMemory,
        rule: &RangeRule,
    ) -> Result<Option<(u16, u64)>, WildcardError>;

    /// Removes the range rule with exactly these intervals, returning
    /// its `(priority, action)` if it was installed.
    fn remove_range(&mut self, mem: &mut SimMemory, rule: &RangeRule) -> Option<(u16, u64)>;

    /// Functional classification.
    fn classify(&self, mem: &SimMemory, key: &FlowKey) -> Option<RuleMatch> {
        self.classify_traced(mem, key, false).0
    }

    /// Classification returning the per-probe lookup traces actually
    /// performed, in probe order — the contract
    /// [`crate::LookupExecutor::search`] prices.
    fn classify_traced(
        &self,
        mem: &SimMemory,
        key: &FlowKey,
        software_locking: bool,
    ) -> (Option<RuleMatch>, Vec<(usize, LookupTrace)>);

    /// The dispatchable metadata-line address of probe slot `probe`
    /// (what HALO's `RAX` implicit operand holds). `None` when the slot
    /// has no in-memory table.
    fn probe_meta_addr(&self, probe: usize) -> Option<Addr>;

    /// The optimistic-lock version counter of probe slot `probe`, when
    /// the backing table models one.
    fn probe_version_addr(&self, probe: usize) -> Option<Addr>;

    /// Every simulated-memory line the table occupies (LLC warming and
    /// footprint accounting).
    fn memory_lines(&self) -> Vec<Addr>;
}

/// Tuple space search with range-rule support via prefix expansion.
///
/// Masked rules pass straight through to the wrapped [`TupleSpace`].
/// A [`RangeRule`] is decomposed into aligned prefixes per field and
/// cross-producted ([`RangeRule::tss_expansion`]); each expansion
/// element is installed in the tuple carrying its mask (created on
/// first use, the way OVS grows MegaFlow tuples). Expansions of
/// different rules can share an element, so each element records its
/// *owners* — the live rules whose own expansion contains it — and the
/// installed entry carries the highest-priority owner (ties to the
/// earliest-installed rule). Removing a rule re-derives each of its
/// elements from the owners left.
///
/// Range rules need [`SearchMode::HighestPriority`]: every rule
/// matching a key owns exactly one element containing that key, so the
/// maximum over all probed tuples is the best matching rule.
/// [`SearchMode::FirstMatch`] would stop at the first tuple that hits
/// and could return a lower-priority owner, so a first-match table
/// rejects range rules with [`WildcardError::UnsupportedRanges`].
///
/// Mixing masked-rule and range-rule APIs on one instance is not
/// supported (the shadow bookkeeping only tracks range rules); the
/// drivers use one vocabulary per table, as the vswitch does.
#[derive(Debug)]
pub struct TssRangeTable {
    space: TupleSpace<ExactTable>,
    backend: TableBackend,
    entries_per_tuple: usize,
    /// Every installed range rule, in insertion order (stable indices —
    /// removal leaves `None`).
    shadow: Vec<Option<RangeRule>>,
    live_ranges: usize,
    /// Owners per installed expansion entry: the `shadow` indices of
    /// the live rules whose expansion contains it, in install order. An
    /// entry exists in the tuple tables iff it has an owner, and its
    /// value is the best owner's — so removing a rule hands an entry
    /// down to the rules still owning it instead of leaking it as a
    /// stale match.
    entries: HashMap<(WildcardMask, FlowKey), Vec<usize>>,
}

impl TssRangeTable {
    /// Builds a range-capable tuple space with one tuple per mask in
    /// `masks` (each sized for `entries_per_tuple` rules of the chosen
    /// exact-match backend); further tuples grow on demand as range
    /// expansions introduce new masks.
    #[must_use]
    pub fn with_masks(
        mem: &mut SimMemory,
        backend: TableBackend,
        masks: &[WildcardMask],
        entries_per_tuple: usize,
        mode: SearchMode,
    ) -> Self {
        let tuples = masks
            .iter()
            .map(|mask| {
                Tuple::from_parts(
                    mask.clone(),
                    backend.build(mem, entries_per_tuple, 0.85, MINIFLOW_LEN),
                )
            })
            .collect();
        TssRangeTable {
            space: TupleSpace::from_tuples(tuples, mode),
            backend,
            entries_per_tuple,
            shadow: Vec::new(),
            live_ranges: 0,
            entries: HashMap::new(),
        }
    }

    /// The tuple carrying `mask`, created if absent.
    fn ensure_tuple(&mut self, mem: &mut SimMemory, mask: &WildcardMask) -> usize {
        if let Some(i) = self.space.tuple_with_mask(mask) {
            return i;
        }
        let table = self
            .backend
            .build(mem, self.entries_per_tuple, 0.85, MINIFLOW_LEN);
        self.space
            .push_tuple(Tuple::from_parts(mask.clone(), table))
    }

    /// Re-derives the table entry for one owned expansion element:
    /// installs the highest-priority owner's `(priority, action)` (ties
    /// to the earliest-installed owner).
    fn refresh_element(
        &mut self,
        mem: &mut SimMemory,
        p: &PrefixRule,
    ) -> Result<(), WildcardError> {
        // Owners are in install order and `max_by_key` keeps the last
        // maximum, so scanning them reversed ties to the earliest.
        let best = self.entries[&(p.mask.clone(), p.key)]
            .iter()
            .rev()
            .map(|&i| self.shadow[i].expect("owners are live"))
            .max_by_key(|r| r.priority)
            .expect("an installed element has an owner");
        let idx = self.ensure_tuple(mem, &p.mask);
        self.space
            .insert_rule(mem, idx, &p.key, best.priority, best.action)
            .map(|_| ())
            .map_err(WildcardError::from)
    }

    /// Releases rule `owner`'s ownership of an expansion element: drops
    /// the table entry outright when no live rule's expansion contains
    /// it anymore, otherwise re-derives it from the remaining owners.
    fn release_element(&mut self, mem: &mut SimMemory, p: &PrefixRule, owner: usize) {
        let key = (p.mask.clone(), p.key);
        let owners = self.entries.get_mut(&key).expect("releasing a live entry");
        owners.retain(|&o| o != owner);
        if owners.is_empty() {
            self.entries.remove(&key);
            if let Some(idx) = self.space.tuple_with_mask(&p.mask) {
                self.space.remove_rule(mem, idx, &p.key);
            }
        } else {
            // The entry survives, so refresh cannot fail: the slot
            // already exists and is overwritten in place.
            let _ = self.refresh_element(mem, p);
        }
    }

    /// The index of the live shadow rule with exactly these ranges.
    fn find_shadow(&self, ranges: &[FieldRange; NUM_FIELDS]) -> Option<usize> {
        self.shadow
            .iter()
            .position(|s| s.is_some_and(|r| r.ranges == *ranges))
    }
}

impl WildcardTable for TssRangeTable {
    fn name(&self) -> &'static str {
        "tss"
    }

    fn rules(&self) -> usize {
        if self.live_ranges > 0 {
            self.live_ranges
        } else {
            self.space.total_rules()
        }
    }

    fn probes(&self) -> usize {
        self.space.tuples().len()
    }

    fn insert_masked(
        &mut self,
        mem: &mut SimMemory,
        mask: &WildcardMask,
        key: &FlowKey,
        priority: u16,
        action: u64,
    ) -> Result<Option<(u16, u64)>, WildcardError> {
        let idx = self
            .space
            .tuple_with_mask(mask)
            .ok_or(WildcardError::UnknownMask)?;
        Ok(self.space.insert_rule(mem, idx, key, priority, action)?)
    }

    fn remove_masked(
        &mut self,
        mem: &mut SimMemory,
        mask: &WildcardMask,
        key: &FlowKey,
    ) -> Option<(u16, u64)> {
        let idx = self.space.tuple_with_mask(mask)?;
        self.space.remove_rule(mem, idx, key)
    }

    fn insert_range(
        &mut self,
        mem: &mut SimMemory,
        rule: &RangeRule,
    ) -> Result<Option<(u16, u64)>, WildcardError> {
        if self.space.mode() == SearchMode::FirstMatch {
            return Err(WildcardError::UnsupportedRanges);
        }
        halo_classify::try_encode_rule(rule.priority, rule.action)
            .map_err(RuleError::from)
            .map_err(WildcardError::from)?;
        if let Some(i) = self.find_shadow(&rule.ranges) {
            // Identical shape: replace in place (same expansion, same
            // ownerships), then refresh every element — the best owner
            // may have changed.
            let old = self.shadow[i].expect("found shadow is live");
            self.shadow[i] = Some(*rule);
            for p in rule.tss_expansion() {
                self.refresh_element(mem, &p)?;
            }
            return Ok(Some((old.priority, old.action)));
        }
        let owner = self.shadow.len();
        self.shadow.push(Some(*rule));
        self.live_ranges += 1;
        let expansion = rule.tss_expansion();
        for (done, p) in expansion.iter().enumerate() {
            self.entries
                .entry((p.mask.clone(), p.key))
                .or_default()
                .push(owner);
            if let Err(e) = self.refresh_element(mem, p) {
                // Unwind: drop the rule and release the ownerships
                // already taken, so the invariant (entry = best of its
                // live owners) holds again.
                self.shadow.pop();
                self.live_ranges -= 1;
                for q in &expansion[..=done] {
                    self.release_element(mem, q, owner);
                }
                return Err(e);
            }
        }
        Ok(None)
    }

    fn remove_range(&mut self, mem: &mut SimMemory, rule: &RangeRule) -> Option<(u16, u64)> {
        let i = self.find_shadow(&rule.ranges)?;
        let old = self.shadow[i].take().expect("found shadow is live");
        self.live_ranges -= 1;
        for p in old.tss_expansion() {
            self.release_element(mem, &p, i);
        }
        Some((old.priority, old.action))
    }

    fn classify_traced(
        &self,
        mem: &SimMemory,
        key: &FlowKey,
        software_locking: bool,
    ) -> (Option<RuleMatch>, Vec<(usize, LookupTrace)>) {
        self.space.classify_traced(mem, key, software_locking)
    }

    fn probe_meta_addr(&self, probe: usize) -> Option<Addr> {
        self.space
            .tuples()
            .get(probe)
            .and_then(|t| t.table().meta_addr())
    }

    fn probe_version_addr(&self, probe: usize) -> Option<Addr> {
        self.space
            .tuples()
            .get(probe)
            .and_then(|t| FlowTable::version_addr(t.table()))
    }

    fn memory_lines(&self) -> Vec<Addr> {
        self.space
            .tuples()
            .iter()
            .flat_map(|t| t.table().warm_lines())
            .collect()
    }
}

impl WildcardTable for RvhTable {
    fn name(&self) -> &'static str {
        "rvh"
    }

    fn rules(&self) -> usize {
        self.len()
    }

    fn probes(&self) -> usize {
        RvhTable::probes(self)
    }

    fn insert_masked(
        &mut self,
        mem: &mut SimMemory,
        mask: &WildcardMask,
        key: &FlowKey,
        priority: u16,
        action: u64,
    ) -> Result<Option<(u16, u64)>, WildcardError> {
        // RVH has no mask vocabulary of its own: prefix masks convert
        // losslessly to ranges.
        let rule = RangeRule::from_masked_key(mask, key, priority, action)
            .ok_or(WildcardError::UnknownMask)?;
        Ok(RvhTable::insert(self, mem, &rule)?)
    }

    fn remove_masked(
        &mut self,
        mem: &mut SimMemory,
        mask: &WildcardMask,
        key: &FlowKey,
    ) -> Option<(u16, u64)> {
        let rule = RangeRule::from_masked_key(mask, key, 0, 0)?;
        RvhTable::remove(self, mem, &rule.ranges)
    }

    fn insert_range(
        &mut self,
        mem: &mut SimMemory,
        rule: &RangeRule,
    ) -> Result<Option<(u16, u64)>, WildcardError> {
        Ok(RvhTable::insert(self, mem, rule)?)
    }

    fn remove_range(&mut self, mem: &mut SimMemory, rule: &RangeRule) -> Option<(u16, u64)> {
        RvhTable::remove(self, mem, &rule.ranges)
    }

    fn classify_traced(
        &self,
        mem: &SimMemory,
        key: &FlowKey,
        software_locking: bool,
    ) -> (Option<RuleMatch>, Vec<(usize, LookupTrace)>) {
        RvhTable::classify_traced(self, mem, key, software_locking)
    }

    fn probe_meta_addr(&self, probe: usize) -> Option<Addr> {
        RvhTable::probe_meta_addr(self, probe)
    }

    fn probe_version_addr(&self, probe: usize) -> Option<Addr> {
        RvhTable::probe_version_addr(self, probe)
    }

    fn memory_lines(&self) -> Vec<Addr> {
        RvhTable::memory_lines(self)
    }
}

/// Which wildcard-table implementation backs the MegaFlow/OpenFlow
/// layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WildcardBackend {
    /// Tuple space search (the OVS baseline; ranges via expansion).
    #[default]
    Tss,
    /// Range-vector hashing (constant marker probes).
    Rvh,
}

impl WildcardBackend {
    /// Every selectable backend, in ablation order.
    #[must_use]
    pub fn all() -> [WildcardBackend; 2] {
        [WildcardBackend::Tss, WildcardBackend::Rvh]
    }

    /// Stable display name (figure rows and JSON).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WildcardBackend::Tss => "tss",
            WildcardBackend::Rvh => "rvh",
        }
    }

    /// Builds a wildcard table of this backend: one tuple per mask of
    /// `entries_per_tuple` exact-backend entries for TSS, marker tables
    /// sized for the same total rule budget for RVH.
    #[must_use]
    pub fn build(
        self,
        mem: &mut SimMemory,
        exact: TableBackend,
        masks: &[WildcardMask],
        entries_per_tuple: usize,
        mode: SearchMode,
    ) -> WildcardMatcher {
        match self {
            WildcardBackend::Tss => WildcardMatcher::Tss(TssRangeTable::with_masks(
                mem,
                exact,
                masks,
                entries_per_tuple,
                mode,
            )),
            WildcardBackend::Rvh => WildcardMatcher::Rvh(Box::new(RvhTable::with_capacity(
                mem,
                entries_per_tuple * masks.len().max(1),
            ))),
        }
    }
}

/// A runtime-selected wildcard table: the concrete backend behind one
/// enum so configs carry a [`WildcardBackend`] instead of a type
/// parameter. Implements [`WildcardTable`] by delegation.
#[derive(Debug)]
pub enum WildcardMatcher {
    /// Tuple space search with range expansion.
    Tss(TssRangeTable),
    /// Range-vector hash (boxed: its fixed vector array dwarfs the
    /// TSS variant).
    Rvh(Box<RvhTable>),
}

impl WildcardMatcher {
    /// Which backend this matcher is.
    #[must_use]
    pub fn backend(&self) -> WildcardBackend {
        match self {
            WildcardMatcher::Tss(_) => WildcardBackend::Tss,
            WildcardMatcher::Rvh(_) => WildcardBackend::Rvh,
        }
    }
}

impl WildcardTable for WildcardMatcher {
    fn name(&self) -> &'static str {
        match self {
            WildcardMatcher::Tss(t) => t.name(),
            WildcardMatcher::Rvh(t) => WildcardTable::name(t.as_ref()),
        }
    }

    fn rules(&self) -> usize {
        match self {
            WildcardMatcher::Tss(t) => WildcardTable::rules(t),
            WildcardMatcher::Rvh(t) => WildcardTable::rules(t.as_ref()),
        }
    }

    fn probes(&self) -> usize {
        match self {
            WildcardMatcher::Tss(t) => WildcardTable::probes(t),
            WildcardMatcher::Rvh(t) => WildcardTable::probes(t.as_ref()),
        }
    }

    fn insert_masked(
        &mut self,
        mem: &mut SimMemory,
        mask: &WildcardMask,
        key: &FlowKey,
        priority: u16,
        action: u64,
    ) -> Result<Option<(u16, u64)>, WildcardError> {
        match self {
            WildcardMatcher::Tss(t) => t.insert_masked(mem, mask, key, priority, action),
            WildcardMatcher::Rvh(t) => t.insert_masked(mem, mask, key, priority, action),
        }
    }

    fn remove_masked(
        &mut self,
        mem: &mut SimMemory,
        mask: &WildcardMask,
        key: &FlowKey,
    ) -> Option<(u16, u64)> {
        match self {
            WildcardMatcher::Tss(t) => t.remove_masked(mem, mask, key),
            WildcardMatcher::Rvh(t) => t.remove_masked(mem, mask, key),
        }
    }

    fn insert_range(
        &mut self,
        mem: &mut SimMemory,
        rule: &RangeRule,
    ) -> Result<Option<(u16, u64)>, WildcardError> {
        match self {
            WildcardMatcher::Tss(t) => t.insert_range(mem, rule),
            WildcardMatcher::Rvh(t) => WildcardTable::insert_range(t.as_mut(), mem, rule),
        }
    }

    fn remove_range(&mut self, mem: &mut SimMemory, rule: &RangeRule) -> Option<(u16, u64)> {
        match self {
            WildcardMatcher::Tss(t) => t.remove_range(mem, rule),
            WildcardMatcher::Rvh(t) => WildcardTable::remove_range(t.as_mut(), mem, rule),
        }
    }

    fn classify_traced(
        &self,
        mem: &SimMemory,
        key: &FlowKey,
        software_locking: bool,
    ) -> (Option<RuleMatch>, Vec<(usize, LookupTrace)>) {
        match self {
            WildcardMatcher::Tss(t) => t.classify_traced(mem, key, software_locking),
            WildcardMatcher::Rvh(t) => {
                WildcardTable::classify_traced(t.as_ref(), mem, key, software_locking)
            }
        }
    }

    fn probe_meta_addr(&self, probe: usize) -> Option<Addr> {
        match self {
            WildcardMatcher::Tss(t) => WildcardTable::probe_meta_addr(t, probe),
            WildcardMatcher::Rvh(t) => WildcardTable::probe_meta_addr(t.as_ref(), probe),
        }
    }

    fn probe_version_addr(&self, probe: usize) -> Option<Addr> {
        match self {
            WildcardMatcher::Tss(t) => WildcardTable::probe_version_addr(t, probe),
            WildcardMatcher::Rvh(t) => WildcardTable::probe_version_addr(t.as_ref(), probe),
        }
    }

    fn memory_lines(&self) -> Vec<Addr> {
        match self {
            WildcardMatcher::Tss(t) => WildcardTable::memory_lines(t),
            WildcardMatcher::Rvh(t) => WildcardTable::memory_lines(t.as_ref()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_classify::{distinct_masks, PacketHeader, FIELDS};

    fn range_rule(id: u64, lo: u64, hi: u64, priority: u16, action: u64) -> RangeRule {
        let mut rule =
            RangeRule::exact_flow(&PacketHeader::synthetic(id).miniflow(), priority, action);
        rule.ranges[3] = FieldRange::span(lo, hi);
        rule
    }

    /// Both backends build through the selector, accept both rule
    /// vocabularies (prefix-mask rules convert for RVH), and classify
    /// identically on unique-priority rules.
    #[test]
    fn both_backends_serve_both_vocabularies() {
        for backend in WildcardBackend::all() {
            let mut mem = SimMemory::new();
            let masks = distinct_masks(4);
            let mut w = backend.build(
                &mut mem,
                TableBackend::Cuckoo,
                &masks,
                256,
                SearchMode::HighestPriority,
            );
            assert_eq!(w.backend(), backend);
            let pkt = PacketHeader::synthetic(5);
            let key = pkt.miniflow();
            assert_eq!(
                w.insert_masked(&mut mem, &masks[1], &key, 3, 30).unwrap(),
                None,
                "{}",
                backend.name()
            );
            let hit = w
                .classify(&mem, &key)
                .unwrap_or_else(|| panic!("{}: no match", backend.name()));
            assert_eq!((hit.priority, hit.action), (3, 30));
            // Masked replacement reports the incumbent.
            assert_eq!(
                w.insert_masked(&mut mem, &masks[1], &key, 4, 40).unwrap(),
                Some((3, 30))
            );
            assert_eq!(w.remove_masked(&mut mem, &masks[1], &key), Some((4, 40)));
            assert_eq!(w.classify(&mem, &key), None);
            // Range rules.
            let rule = range_rule(5, 1_000, 1_999, 7, 70);
            assert_eq!(w.insert_range(&mut mem, &rule).unwrap(), None);
            assert_eq!(
                w.classify(&mem, &rule.point_key()).map(|m| m.action),
                Some(70)
            );
            assert_eq!(w.remove_range(&mut mem, &rule), Some((7, 70)));
            assert_eq!(w.classify(&mem, &rule.point_key()), None);
            assert_eq!(WildcardTable::rules(&w), 0);
        }
    }

    /// Overlapping range rules resolve by priority on both backends —
    /// including after the higher-priority rule is removed (the TSS
    /// expansion's covering-winner bookkeeping must re-expose the
    /// shadowed rule).
    #[test]
    fn overlap_resolution_survives_removal() {
        for backend in WildcardBackend::all() {
            let mut mem = SimMemory::new();
            let mut w = backend.build(
                &mut mem,
                TableBackend::Cuckoo,
                &distinct_masks(2),
                512,
                SearchMode::HighestPriority,
            );
            let wide = range_rule(9, 0, 65_535, 2, 200);
            let narrow = {
                let mut r = wide;
                r.ranges[3] = FieldRange::span(1_000, 1_099);
                r.priority = 8;
                r.action = 800;
                r
            };
            w.insert_range(&mut mem, &wide).unwrap();
            w.insert_range(&mut mem, &narrow).unwrap();
            let mut bytes = [0u8; MINIFLOW_LEN];
            bytes.copy_from_slice(wide.point_key().as_bytes());
            FIELDS[3].write(&mut bytes, 1_050);
            let key = FlowKey::from_bytes(&bytes);
            assert_eq!(
                w.classify(&mem, &key).map(|m| m.action),
                Some(800),
                "{}: narrow high-priority wins",
                backend.name()
            );
            assert_eq!(w.remove_range(&mut mem, &narrow), Some((8, 800)));
            assert_eq!(
                w.classify(&mem, &key).map(|m| m.action),
                Some(200),
                "{}: wide rule re-exposed after removal",
                backend.name()
            );
            // Removing the last covering rule must not leave stale
            // entries from the earlier overlap behind.
            assert_eq!(w.remove_range(&mut mem, &wide), Some((2, 200)));
            assert_eq!(
                w.classify(&mem, &key),
                None,
                "{}: no rule left, no match",
                backend.name()
            );
            assert_eq!(WildcardTable::rules(&w), 0);
        }
    }

    /// Range-heavy rulesets need far fewer probes on RVH than on TSS:
    /// the headline claim the ablation figure quantifies.
    #[test]
    fn rvh_probes_fewer_buckets_on_ranges() {
        let mut mem = SimMemory::new();
        let mut tss = WildcardBackend::Tss.build(
            &mut mem,
            TableBackend::Cuckoo,
            &[],
            512,
            SearchMode::HighestPriority,
        );
        let mut rvh = WildcardBackend::Rvh.build(
            &mut mem,
            TableBackend::Cuckoo,
            &[],
            512,
            SearchMode::HighestPriority,
        );
        for id in 0..40u64 {
            let rule = range_rule(id, 1_000 + id * 13, 1_700 + id * 29, id as u16, id);
            tss.insert_range(&mut mem, &rule).unwrap();
            rvh.insert_range(&mut mem, &rule).unwrap();
        }
        assert!(
            WildcardTable::probes(&rvh) < WildcardTable::probes(&tss),
            "rvh {} probes vs tss {}",
            WildcardTable::probes(&rvh),
            WildcardTable::probes(&tss)
        );
        // And they agree functionally (unique priorities).
        for id in 0..40u64 {
            let key = range_rule(id, 1_000 + id * 13, 1_700 + id * 29, id as u16, id).point_key();
            assert_eq!(
                tss.classify(&mem, &key).map(|m| (m.priority, m.action)),
                rvh.classify(&mem, &key).map(|m| (m.priority, m.action)),
                "flow {id}"
            );
        }
    }

    /// A first-match TSS table rejects range rules before touching
    /// memory (its early exit could serve a lower-priority expansion
    /// element); RVH has no early exit and accepts them in either mode.
    #[test]
    fn first_match_tss_rejects_range_rules() {
        let mut mem = SimMemory::new();
        let masks = distinct_masks(2);
        let rule = range_rule(4, 1_000, 1_999, 5, 50);
        let mut tss = WildcardBackend::Tss.build(
            &mut mem,
            TableBackend::Cuckoo,
            &masks,
            64,
            SearchMode::FirstMatch,
        );
        let probes = WildcardTable::probes(&tss);
        assert_eq!(
            tss.insert_range(&mut mem, &rule),
            Err(WildcardError::UnsupportedRanges)
        );
        assert_eq!(WildcardTable::rules(&tss), 0);
        assert_eq!(WildcardTable::probes(&tss), probes, "no tuple grown");
        assert_eq!(tss.classify(&mem, &rule.point_key()), None);
        let mut rvh = WildcardBackend::Rvh.build(
            &mut mem,
            TableBackend::Cuckoo,
            &masks,
            64,
            SearchMode::FirstMatch,
        );
        assert_eq!(rvh.insert_range(&mut mem, &rule).unwrap(), None);
        assert_eq!(
            rvh.classify(&mem, &rule.point_key()).map(|m| m.action),
            Some(50)
        );
    }

    /// A masked insert for a mask no tuple carries is a typed error on
    /// TSS and converts transparently on RVH.
    #[test]
    fn unknown_mask_behaviour_per_backend() {
        let mut mem = SimMemory::new();
        let masks = distinct_masks(2);
        let key = PacketHeader::synthetic(1).miniflow();
        let foreign = distinct_masks(8)[7].clone();
        let mut tss = WildcardBackend::Tss.build(
            &mut mem,
            TableBackend::Cuckoo,
            &masks,
            64,
            SearchMode::FirstMatch,
        );
        assert_eq!(
            tss.insert_masked(&mut mem, &foreign, &key, 1, 1),
            Err(WildcardError::UnknownMask)
        );
        let mut rvh = WildcardBackend::Rvh.build(
            &mut mem,
            TableBackend::Cuckoo,
            &masks,
            64,
            SearchMode::FirstMatch,
        );
        assert_eq!(
            rvh.insert_masked(&mut mem, &foreign, &key, 1, 1).unwrap(),
            None,
            "prefix masks always convert to ranges"
        );
        assert_eq!(rvh.classify(&mem, &key).map(|m| m.action), Some(1));
    }
}
