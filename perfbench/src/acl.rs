//! `acl_halo_nb`: HALO `LOOKUP_NB` over tuple-space search on an
//! ACL-style range ruleset (the paper's Fig. 11 mechanism).
//!
//! A `RulesetShape::AclMix` ruleset goes into the TSS wildcard backend
//! under `SearchMode::HighestPriority` (prefix expansion turns its
//! ranges into ~130 tuples). Each lookup is `classify_traced` followed
//! by `LookupExecutor::search` on `LookupBackend::HaloNonBlocking`, over
//! `ruleset_traffic` keys of which `hit` land inside a rule. Every
//! `update_every` lookups one rule is removed or a removed one
//! re-inserted, so rule writes run beside the reads. The EMC, the
//! vswitch phases and the epoch executor are bypassed.
//!
//! The rebuilt path replaces `LookupExecutor::search` with its
//! non-blocking arm written out (one `HaloEngine::dispatch` per probe,
//! one `snapshot_read` per destination line), so both engine calls are
//! spans.

use std::time::Instant;

use halo_accel::{AcceleratorConfig, HaloEngine};
use halo_classify::{RangeRule, SearchMode};
use halo_datapath::{
    LookupBackend, LookupExecutor, NbRegion, TableBackend, WildcardBackend, WildcardMatcher,
    WildcardTable,
};
use halo_mem::{CoreId, MachineConfig, MemorySystem};
use halo_nf::{generate_ruleset, ruleset_traffic, RulesetShape};
use halo_sim::{Cycle, Cycles, SplitMix64};
use halo_tables::{hash_key, FlowKey, SEED_PRIMARY};

use crate::harness::{ns_since, stats_digest, MemCounts, Round, Runner, Workload};
use crate::spans::{Layer, Spans};

/// Size parameters of the workload.
#[derive(Debug, Clone, Copy)]
pub struct AclHaloNb {
    /// Rules in the generated ruleset.
    pub rules: usize,
    /// Entries per TSS tuple.
    pub capacity: usize,
    /// Share of lookup keys sampled inside a rule.
    pub hit: f64,
    /// Lookups between two rule updates.
    pub update_every: u64,
    /// Lookups per round.
    pub round_lookups: usize,
}

impl AclHaloNb {
    /// The benchmark's configuration.
    pub const FULL: AclHaloNb = AclHaloNb {
        rules: 1024,
        capacity: 1 << 12,
        hit: 0.7,
        update_every: 64,
        round_lookups: 512,
    };
}

/// The core the lookups run on.
const CORE: CoreId = CoreId(0);

/// The workload state; the library path and the rebuilt path differ
/// only in how a search is timed, so they share it.
#[derive(Debug)]
pub struct Acl {
    shape: AclHaloNb,
    /// Whether searches take the rebuilt, span-timed path.
    rebuilt: bool,
    sys: MemorySystem,
    table: WildcardMatcher,
    exec: LookupExecutor,
    nb: NbRegion,
    engine: HaloEngine,
    ruleset: Vec<RangeRule>,
    /// Indices into `ruleset` of installed rules: the reference's view.
    live: Vec<usize>,
    /// Indices into `ruleset` of removed rules.
    removed: Vec<usize>,
    updates: SplitMix64,
    traffic_seed: u64,
    rounds: u64,
    lookups: u64,
    clock: Cycle,
    first: Option<FirstRound>,
}

/// Simulated counts of the first round.
#[derive(Debug, Clone, Copy, Default)]
struct FirstRound {
    lookups: u64,
    probes: u64,
    dispatches: u64,
    snapshots: u64,
    mem: MemCounts,
}

impl Acl {
    fn new(shape: AclHaloNb, seed: u64, rebuilt: bool) -> Self {
        let mut sys = MemorySystem::new(MachineConfig::default());
        let ruleset = generate_ruleset(RulesetShape::AclMix, shape.rules, seed);
        let mut table = WildcardBackend::Tss.build(
            sys.data_mut(),
            TableBackend::Cuckoo,
            &[],
            shape.capacity,
            SearchMode::HighestPriority,
        );
        for rule in &ruleset {
            let replaced = table
                .insert_range(sys.data_mut(), rule)
                .expect("generated ruleset fits the table");
            assert!(replaced.is_none(), "generated rules have distinct shapes");
        }
        for a in table.memory_lines() {
            sys.warm_llc(a);
        }
        let exec = LookupExecutor::new(&mut sys, CORE, LookupBackend::HaloNonBlocking);
        exec.warm_scratch(&mut sys);
        let nb = NbRegion::allocate(sys.data_mut(), table.probes().max(1));
        let exec = exec.with_nb_region(nb);
        let engine = HaloEngine::new(&sys, AcceleratorConfig::default());
        Acl {
            shape,
            rebuilt,
            sys,
            table,
            exec,
            nb,
            engine,
            live: (0..ruleset.len()).collect(),
            removed: Vec::new(),
            ruleset,
            updates: SplitMix64::new(seed ^ 0x7570_6461_7465),
            traffic_seed: seed ^ 0x5ca1_ab1e,
            rounds: 0,
            lookups: 0,
            clock: Cycle::ZERO,
            first: None,
        }
    }

    /// Reference classification: a linear scan over the live rules for
    /// the highest (priority, action).
    fn reference(&self, key: &FlowKey) -> Option<(u16, u64)> {
        self.live
            .iter()
            .map(|&i| &self.ruleset[i])
            .filter(|r| r.matches(key))
            .map(|r| (r.priority, r.action))
            .max()
    }

    /// One rule update: re-insert a removed rule or remove a live one,
    /// with equal odds when both are possible. Returns whether the
    /// table reported what the reference expects.
    fn update(&mut self, spans: &mut Spans) -> bool {
        let reinsert =
            !self.removed.is_empty() && (self.live.is_empty() || self.updates.chance(0.5));
        if reinsert {
            let i = self
                .removed
                .swap_remove(self.updates.below(self.removed.len() as u64) as usize);
            spans.enter(Layer::Insert);
            let got = self
                .table
                .insert_range(self.sys.data_mut(), &self.ruleset[i]);
            spans.exit();
            self.live.push(i);
            matches!(got, Ok(None))
        } else {
            let i = self
                .live
                .swap_remove(self.updates.below(self.live.len() as u64) as usize);
            spans.enter(Layer::Remove);
            let got = self
                .table
                .remove_range(self.sys.data_mut(), &self.ruleset[i]);
            spans.exit();
            self.removed.push(i);
            let r = &self.ruleset[i];
            got == Some((r.priority, r.action))
        }
    }

    /// `LookupExecutor::search`'s non-blocking arm, written out so each
    /// engine call is a span: every probe issued as `LOOKUP_NB` into its
    /// own destination slot, one cycle apart, then one `SNAPSHOT_READ`
    /// per destination line.
    fn search_rebuilt(
        &mut self,
        spans: &mut Spans,
        key: &FlowKey,
        probes: &[(usize, halo_tables::LookupTrace)],
        at: Cycle,
        first: &mut FirstRound,
    ) -> Cycle {
        let h = hash_key(key, SEED_PRIMARY);
        let mut finish = at;
        for (slot, (i, tr)) in probes.iter().enumerate() {
            let table_addr = self
                .table
                .probe_meta_addr(*i)
                .expect("TSS tuples live in simulated memory");
            spans.enter(Layer::Dispatch);
            let out = self.engine.dispatch(
                &mut self.sys,
                CORE,
                table_addr,
                tr,
                h ^ (*i as u64),
                None,
                Some(self.nb.dest(slot)),
                at + Cycles(slot as u64),
            );
            spans.exit();
            first.dispatches += 1;
            finish = finish.max(out.complete);
        }
        let lines = (probes.len() as u64).div_ceil(NbRegion::SLOTS_PER_LINE as u64);
        for l in 0..lines {
            spans.enter(Layer::Snapshot);
            let (_, snap) = self
                .engine
                .snapshot_read(&mut self.sys, CORE, self.nb.line(l), finish);
            spans.exit();
            first.snapshots += 1;
            finish = snap;
        }
        finish
    }
}

impl Runner for Acl {
    fn round(&mut self, spans: &mut Spans) -> Round {
        let t0 = Instant::now();
        let mem_before = MemCounts::read(&self.sys);
        let mut counts = FirstRound::default();
        let keys = ruleset_traffic(
            &self.ruleset,
            self.shape.round_lookups,
            self.shape.hit,
            self.traffic_seed ^ self.rounds,
        );
        self.rounds += 1;
        let start = self.clock;
        let (mut failed, mut updates, mut ref_ns) = (0u64, 0u64, 0u64);
        let mut gaps = Vec::with_capacity(keys.len());
        for key in &keys {
            spans.set_op(self.lookups);
            spans.enter(Layer::Walk);
            let (m, probes) = self.table.classify_traced(self.sys.data(), key, false);
            spans.exit();
            counts.probes += probes.len() as u64;
            let done = if self.rebuilt {
                self.search_rebuilt(spans, key, &probes, self.clock, &mut counts)
            } else {
                self.exec.search(
                    &mut self.sys,
                    Some(&mut self.engine),
                    &self.table,
                    key,
                    &probes,
                    self.clock,
                )
            };
            gaps.push((done - self.clock).0);
            self.clock = done;
            self.lookups += 1;

            let r0 = Instant::now();
            spans.enter(Layer::Reference);
            if m.map(|m| (m.priority, m.action)) != self.reference(key) {
                failed += 1;
            }
            spans.exit();
            ref_ns += ns_since(r0);

            if self.lookups.is_multiple_of(self.shape.update_every) {
                updates += 1;
                if !self.update(spans) {
                    failed += 1;
                }
            }
        }
        if self.first.is_none() {
            counts.lookups = keys.len() as u64;
            counts.mem = MemCounts::read(&self.sys).since(mem_before);
            self.first = Some(counts);
        }
        let mut fingerprint = vec![
            self.clock.0,
            self.table.rules() as u64,
            self.table.probes() as u64,
        ];
        fingerprint.extend(stats_digest(&self.sys));
        Round {
            ops: keys.len() as u64,
            attempted: keys.len() as u64 + updates,
            failed,
            busy_ns: ns_since(t0).saturating_sub(ref_ns),
            cycles: (self.clock - start).0,
            gaps,
            fingerprint,
        }
    }
}

impl Workload for AclHaloNb {
    type Plain = Acl;
    type Rebuilt = Acl;

    fn setup_plain(&self, seed: u64) -> Acl {
        Acl::new(*self, seed, false)
    }

    fn setup_rebuilt(&self, seed: u64) -> Acl {
        Acl::new(*self, seed, true)
    }

    fn setup_reps(&self) -> usize {
        5
    }

    fn threads(&self) -> usize {
        1
    }

    fn per_layer(&self, _plain: &Acl, rebuilt: &Acl, spans: &Spans) -> Vec<(&'static str, f64)> {
        let f = rebuilt.first.unwrap_or_default();
        let lookups = f.lookups.max(1) as f64;
        let mut m = vec![
            ("datapath.walk_ns", spans.ns_per_call(Layer::Walk)),
            ("datapath.probes_per_lookup", f.probes as f64 / lookups),
            ("datapath.insert_ns", spans.ns_per_call(Layer::Insert)),
            ("datapath.remove_ns", spans.ns_per_call(Layer::Remove)),
            ("accel.dispatch_ns", spans.ns_per_call(Layer::Dispatch)),
            ("accel.dispatches_per_lookup", f.dispatches as f64 / lookups),
            (
                "accel.snapshot_reads_per_lookup",
                f.snapshots as f64 / lookups,
            ),
        ];
        m.extend(f.mem.metrics(f.lookups));
        m
    }
}
