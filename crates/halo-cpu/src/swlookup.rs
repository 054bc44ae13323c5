//! Software hash-table lookup as an x86-64 micro-op program.
//!
//! Table 1 of the paper profiles a single DPDK cuckoo lookup at ~210
//! instructions: 36.2% loads, 11.8% stores, 21.0% arithmetic, 30.9%
//! others (control flow etc.). Only a handful of those loads touch the
//! table itself; the rest hit stack/packet-local state that stays in L1.
//! [`build_sw_lookup`] reproduces exactly this mix around the *real*
//! table accesses recorded in a [`LookupTrace`], so the core model prices
//! software lookups with both the right instruction count and the right
//! cache behaviour.

use crate::uop::{Program, UopId};
use halo_mem::{Addr, CoreId, MemorySystem, CACHE_LINE};
use halo_tables::{LookupTrace, TraceStep};

/// Instruction budget of one software lookup (Table 1).
pub const SW_LOOKUP_INSTRUCTIONS: usize = 210;
/// Load fraction of the budget.
pub const SW_LOAD_FRACTION: f64 = 0.362;
/// Store fraction of the budget.
pub const SW_STORE_FRACTION: f64 = 0.118;
/// Arithmetic fraction of the budget.
pub const SW_ARITH_FRACTION: f64 = 0.210;

/// A per-thread scratch region modeling the stack and packet-local
/// working set: a few cache lines cycled round-robin, so after warm-up
/// every access is an L1 hit (unless a co-runner evicts them — which is
/// exactly the interference effect of Fig. 12).
#[derive(Debug, Clone)]
pub struct Scratch {
    base: Addr,
    lines: u64,
    cursor: u64,
    /// Host-side buffer for the lookup builder's dependency frontier,
    /// kept here so [`build_sw_lookup_into`] allocates nothing per call.
    frontier: Vec<UopId>,
}

impl Scratch {
    /// Number of scratch lines per thread (a realistic stack frame +
    /// packet working set; 16 lines = 1 KiB).
    pub const LINES: u64 = 16;

    /// Allocates a scratch region in `sys`'s memory.
    pub fn new(sys: &mut MemorySystem) -> Self {
        let base = sys.data_mut().alloc_lines(Self::LINES * CACHE_LINE);
        Scratch {
            base,
            lines: Self::LINES,
            cursor: 0,
            frontier: Vec::with_capacity(16),
        }
    }

    /// Pre-loads every scratch line into `core`'s private caches.
    pub fn warm(&self, sys: &mut MemorySystem, core: CoreId) {
        for i in 0..self.lines {
            sys.warm_private(core, self.base + i * CACHE_LINE);
        }
    }

    /// The next scratch address (round-robin over lines, staggered
    /// within the line so consecutive uses differ).
    #[allow(clippy::should_implement_trait)] // not an Iterator: never ends, no Item
    pub fn next(&mut self) -> Addr {
        let line = self.cursor % self.lines;
        let off = (self.cursor / self.lines * 8) % CACHE_LINE;
        self.cursor += 1;
        self.base + line * CACHE_LINE + off
    }

    /// Base address of the region.
    #[must_use]
    pub fn base(&self) -> Addr {
        self.base
    }
}

/// Builds the micro-op program for one software lookup.
///
/// * `trace` — the table accesses the lookup performs (from
///   [`halo_tables::CuckooTable::lookup_traced`] or the SFH equivalent).
/// * `scratch` — the thread's stack/local region for filler accesses.
/// * `key_addr` — where the key bytes live (packet buffer); `None` if the
///   key is already in registers.
///
/// The returned program contains [`SW_LOOKUP_INSTRUCTIONS`] micro-ops in
/// the measured mix (plus or minus rounding), with the dataflow spine
/// `key → hash → bucket → signature compare → key-value → key compare`
/// serialized exactly as the algorithm requires.
pub fn build_sw_lookup(
    trace: &LookupTrace,
    scratch: &mut Scratch,
    key_addr: Option<Addr>,
) -> Program {
    let mut p = Program::with_label("sw_lookup");
    build_sw_lookup_into(trace, scratch, key_addr, &mut p);
    p
}

/// Builds the same program as [`build_sw_lookup`] into a caller-owned
/// buffer, so per-packet hot paths can reuse one allocation across
/// lookups. The buffer is cleared first; its label is set to
/// `"sw_lookup"`.
pub fn build_sw_lookup_into(
    trace: &LookupTrace,
    scratch: &mut Scratch,
    key_addr: Option<Addr>,
    p: &mut Program,
) {
    p.clear();
    p.set_label("sw_lookup");
    let budget_loads = (SW_LOOKUP_INSTRUCTIONS as f64 * SW_LOAD_FRACTION).round() as usize;
    let budget_stores = (SW_LOOKUP_INSTRUCTIONS as f64 * SW_STORE_FRACTION).round() as usize;
    let budget_arith = (SW_LOOKUP_INSTRUCTIONS as f64 * SW_ARITH_FRACTION).round() as usize;
    let budget_other = SW_LOOKUP_INSTRUCTIONS - budget_loads - budget_stores - budget_arith;

    let mut loads = 0usize;
    let mut stores = 0usize;
    let mut arith = 0usize;
    let mut other = 0usize;

    // `last` is the dataflow spine's current frontier: the prologue
    // loads, then the key, then each trace step's result. Its buffer is
    // borrowed from `scratch` and handed back at the end.
    let mut last = std::mem::take(&mut scratch.frontier);
    last.clear();

    // --- Prologue: function entry, packet bookkeeping (filler). -------
    for _ in 0..10 {
        let id = p.load(scratch.next(), &[]);
        loads += 1;
        last.push(id);
    }
    for _ in 0..6 {
        p.store(scratch.next(), &[]);
        stores += 1;
    }
    p.compute_run(1, 14);
    other += 14;

    // --- Key fetch. ----------------------------------------------------
    if let Some(a) = key_addr {
        let id = p.load(a, &[]);
        loads += 1;
        set_one(&mut last, id);
    }

    // --- Walk the trace, building the dataflow spine. ------------------
    // `last` is reused in place (`set_one`), so the walk allocates
    // nothing per step.
    let mut hash_done: Option<UopId> = None;
    for step in &trace.steps {
        match *step {
            TraceStep::LoadMeta(a) => {
                // Metadata is read early and independently of the key.
                let id = p.load(a, &[]);
                loads += 1;
                last.push(id);
            }
            TraceStep::SoftLock(a) => {
                // Optimistic-lock version check: the version load is
                // followed by an acquire fence that serializes the
                // pipeline (the 13.1% locking overhead of §3.4).
                let v = p.load(a, &[]);
                loads += 1;
                let fence = p.compute(6, &[v]);
                arith += 1;
                let b = p.compute(1, &[fence]); // branch on version
                other += 1;
                last.push(b);
            }
            TraceStep::Hash => {
                // A serial mix chain over the key words: ~12 dependent
                // multiply/xor/shift stages.
                let mut h = p.compute(3, &last);
                arith += 1;
                for i in 0..11 {
                    let lat = if i % 3 == 0 { 3 } else { 1 };
                    h = p.compute(lat, &[h]);
                    arith += 1;
                }
                hash_done = Some(h);
                set_one(&mut last, h);
            }
            TraceStep::LoadBucket(a) => {
                // Bucket fetches depend on the hash, not on each other:
                // DPDK prefetches both candidate buckets.
                let dep = if hash_done.is_some() {
                    hash_done.as_slice()
                } else {
                    &last
                };
                let id = p.load(a, dep);
                loads += 1;
                set_one(&mut last, id);
            }
            TraceStep::CompareSigs => {
                // SIMD signature compare + mask extraction + branch.
                let c1 = p.compute(1, &last);
                let c2 = p.compute(1, &[c1]);
                arith += 2;
                let br = p.compute(1, &[c2]);
                other += 1;
                set_one(&mut last, br);
            }
            TraceStep::LoadKv(a) => {
                let id = p.load(a, &last);
                loads += 1;
                set_one(&mut last, id);
            }
            TraceStep::CompareKey => {
                let c1 = p.compute(1, &last);
                let c2 = p.compute(1, &[c1]);
                arith += 2;
                let br = p.compute(1, &[c2]);
                other += 1;
                set_one(&mut last, br);
            }
            TraceStep::LoadKey(a) => {
                let id = p.load(a, &[]);
                loads += 1;
                last.push(id);
            }
            TraceStep::StoreResult(a) => {
                p.store(a, &last);
                stores += 1;
            }
        }
    }

    // --- Epilogue + filler to reach the measured mix. -------------------
    // Remaining loads/stores hit the scratch region (stack spills,
    // table-handle fields, rte_mbuf bookkeeping); remaining arithmetic
    // and control flow execute independently alongside.
    while loads < budget_loads {
        p.load(scratch.next(), &[]);
        loads += 1;
    }
    while stores < budget_stores {
        p.store(scratch.next(), &[]);
        stores += 1;
    }
    p.compute_run(
        1,
        budget_arith.saturating_sub(arith) + budget_other.saturating_sub(other),
    );
    // Result epilogue: a couple of dependent ops after the spine.
    let fin = p.compute(1, &last);
    p.store(scratch.next(), &[fin]);
    scratch.frontier = last;
}

/// Replaces a dependency frontier with the single uop `id`, keeping
/// the buffer's allocation.
fn set_one(frontier: &mut Vec<UopId>, id: UopId) {
    frontier.clear();
    frontier.push(id);
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_mem::MachineConfig;
    use halo_tables::{CuckooTable, FlowKey};

    fn traced_lookup(locking: bool) -> (MemorySystem, LookupTrace, Scratch) {
        let mut sys = MemorySystem::new(MachineConfig::small());
        let mut table = CuckooTable::create(sys.data_mut(), 256, 13);
        for id in 0..100 {
            table
                .insert(sys.data_mut(), &FlowKey::synthetic(id, 13), id)
                .unwrap();
        }
        let tr = table.lookup_traced(sys.data_mut(), &FlowKey::synthetic(5, 13), locking);
        let scratch = Scratch::new(&mut sys);
        (sys, tr, scratch)
    }

    /// FNV-1a over every uop's kind and dependency list.
    fn program_digest(p: &Program) -> u64 {
        use crate::uop::UopKind;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| h = (h ^ x).wrapping_mul(0x0100_0000_01b3);
        for (kind, deps) in p.uops() {
            match kind {
                UopKind::Compute { latency } => {
                    eat(0);
                    eat(latency);
                }
                UopKind::Load { addr } => {
                    eat(1);
                    eat(addr.0);
                }
                UopKind::Store { addr } => {
                    eat(2);
                    eat(addr.0);
                }
            }
            eat(deps.len() as u64);
            for &d in deps {
                eat(u64::from(d));
            }
        }
        h
    }

    /// The emitted programs (every uop kind, address and dependency
    /// list) are pinned to digests of the original builder, which
    /// allocated fresh frontier vectors per trace step. Covers real
    /// cuckoo traces with and without locking and a synthetic trace
    /// with every step kind, including a bucket load before any hash.
    #[test]
    fn emitted_programs_are_pinned() {
        use TraceStep::*;
        let synthetic = LookupTrace {
            result: Some(7),
            steps: vec![
                LoadBucket(Addr(0x2000)),
                LoadMeta(Addr(0x2040)),
                SoftLock(Addr(0x2080)),
                LoadKey(Addr(0x20c0)),
                Hash,
                LoadBucket(Addr(0x3000)),
                LoadBucket(Addr(0x3040)),
                CompareSigs,
                LoadKv(Addr(0x3080)),
                CompareKey,
                LoadMeta(Addr(0x30c0)),
                StoreResult(Addr(0x3100)),
                Hash,
                LoadKv(Addr(0x3140)),
                CompareKey,
            ],
        };
        let mut digests = Vec::new();
        for key in [None, Some(Addr(0x1_0040))] {
            for locking in [false, true] {
                let (_sys, tr, mut scratch) = traced_lookup(locking);
                digests.push(program_digest(&build_sw_lookup(&tr, &mut scratch, key)));
            }
            let (_sys, _, mut scratch) = traced_lookup(false);
            digests.push(program_digest(&build_sw_lookup(
                &synthetic,
                &mut scratch,
                key,
            )));
        }
        assert_eq!(
            digests,
            [
                0x7c93_6341_533a_cca4,
                0xa080_2346_75c3_cf85,
                0xac05_0d2c_53dc_4e34,
                0x607d_085b_9b9e_b6a7,
                0x365f_e2b5_2f05_a3d2,
                0x7c46_b240_80df_3256,
            ]
        );
    }

    #[test]
    fn program_matches_table1_mix() {
        let (_sys, tr, mut scratch) = traced_lookup(true);
        let p = build_sw_lookup(&tr, &mut scratch, None);
        let (l, s, c) = p.mix();
        let total = p.len();
        // Within a few uops of the 210 budget (epilogue adds 2).
        assert!(
            (SW_LOOKUP_INSTRUCTIONS..=SW_LOOKUP_INSTRUCTIONS + 8).contains(&total),
            "total {total}"
        );
        let lf = l as f64 / total as f64;
        let sf = s as f64 / total as f64;
        let cf = c as f64 / total as f64;
        assert!((lf - SW_LOAD_FRACTION).abs() < 0.03, "load frac {lf}");
        assert!((sf - SW_STORE_FRACTION).abs() < 0.03, "store frac {sf}");
        // computes = arithmetic + others
        assert!((cf - (1.0 - SW_LOAD_FRACTION - SW_STORE_FRACTION)).abs() < 0.04);
    }

    #[test]
    fn spine_contains_real_table_addresses() {
        let (_sys, tr, mut scratch) = traced_lookup(false);
        let p = build_sw_lookup(&tr, &mut scratch, None);
        let table_addrs: Vec<_> = tr.addresses().collect();
        let prog_addrs: Vec<_> = p
            .uops()
            .filter_map(|(kind, _)| match kind {
                crate::uop::UopKind::Load { addr } => Some(addr),
                _ => None,
            })
            .collect();
        for a in table_addrs {
            assert!(prog_addrs.contains(&a), "missing table access {a}");
        }
    }

    #[test]
    fn scratch_round_robins_within_bounds() {
        let mut sys = MemorySystem::new(MachineConfig::small());
        let mut s = Scratch::new(&mut sys);
        let base = s.base();
        for _ in 0..100 {
            let a = s.next();
            assert!(a.0 >= base.0);
            assert!(a.0 < base.0 + Scratch::LINES * CACHE_LINE);
        }
    }

    #[test]
    fn locking_trace_is_longer() {
        let (_sys, tr_plain, mut s1) = traced_lookup(false);
        let (_sys2, tr_lock, mut s2) = traced_lookup(true);
        let p_plain = build_sw_lookup(&tr_plain, &mut s1, None);
        let p_lock = build_sw_lookup(&tr_lock, &mut s2, None);
        // Same budget, but the locking variant has more *real* (version
        // line) loads in its spine.
        let real = |p: &Program, tr: &LookupTrace| {
            let addrs: Vec<_> = tr.addresses().collect();
            p.uops()
                .filter(|(kind, _)| match *kind {
                    crate::uop::UopKind::Load { addr } => addrs.contains(&addr),
                    _ => false,
                })
                .count()
        };
        assert!(real(&p_lock, &tr_lock) > real(&p_plain, &tr_plain));
    }
}

/// Builds a DPDK-style *bulk* lookup program: `traces` lookups software-
/// pipelined so that each lookup's bucket/kv fetches are prefetched
/// while the previous lookups compute (`rte_hash_lookup_bulk`). The
/// program issues all hash chains first, then all bucket loads (which
/// can miss concurrently, bounded by the MSHRs), then the key-value
/// probes — trading instruction count for memory-level parallelism.
pub fn build_sw_lookup_bulk(traces: &[&LookupTrace], scratch: &mut Scratch) -> Program {
    let mut p = Program::with_label("sw_lookup_bulk");
    // Shared prologue (function entry, loop setup).
    for _ in 0..8 {
        p.load(scratch.next(), &[]);
    }
    p.compute_run(1, 10);

    // Stage 1: hash every key (independent chains overlap on the ALUs).
    let mut hash_ids: Vec<UopId> = Vec::with_capacity(traces.len());
    for _ in traces {
        let mut h = p.compute(3, &[]);
        for i in 0..11 {
            let lat = if i % 3 == 0 { 3 } else { 1 };
            h = p.compute(lat, &[h]);
        }
        hash_ids.push(h);
    }

    // Stage 2: prefetch + load every lookup's bucket lines (independent
    // across lookups -> MLP).
    let mut bucket_ids: Vec<Vec<UopId>> = Vec::with_capacity(traces.len());
    for (li, tr) in traces.iter().enumerate() {
        let mut ids = Vec::new();
        for step in &tr.steps {
            if let TraceStep::LoadBucket(a) = *step {
                ids.push(p.load(a, &[hash_ids[li]]));
            }
        }
        bucket_ids.push(ids);
    }

    // Stage 3: signature compares + key-value probes per lookup.
    for (li, tr) in traces.iter().enumerate() {
        let mut last: Vec<UopId> = bucket_ids[li].clone();
        for step in &tr.steps {
            match *step {
                TraceStep::CompareSigs | TraceStep::CompareKey => {
                    let c = p.compute(1, &last);
                    let b = p.compute(1, &[c]);
                    last = vec![b];
                }
                TraceStep::LoadKv(a) => {
                    let id = p.load(a, &last);
                    last = vec![id];
                }
                TraceStep::SoftLock(a) => {
                    let v = p.load(a, &[]);
                    let f = p.compute(6, &[v]);
                    last.push(f);
                }
                TraceStep::LoadMeta(a) => {
                    p.load(a, &[]);
                }
                _ => {}
            }
        }
        // Result store per lookup.
        p.store(scratch.next(), &last);
    }

    // Per-lookup loop bookkeeping (smaller than the scalar path's
    // per-call overhead: that is the point of the bulk API).
    p.compute_run(1, traces.len() * 20);
    for _ in 0..traces.len() * 6 {
        p.load(scratch.next(), &[]);
    }
    p
}

#[cfg(test)]
mod bulk_tests {
    use super::*;
    use halo_mem::{MachineConfig, MemorySystem};
    use halo_tables::CuckooTable;

    #[test]
    fn bulk_beats_scalar_on_llc_resident_tables() {
        use crate::core::CoreModel;
        use halo_mem::CoreId;
        use halo_sim::Cycle;
        use halo_tables::FlowKey;

        let mut sys = MemorySystem::new(MachineConfig::default());
        let mut table = CuckooTable::with_capacity_for(sys.data_mut(), 20_000, 0.8, 13);
        for id in 0..20_000u64 {
            let _ = table.insert(sys.data_mut(), &FlowKey::synthetic(id, 13), id);
        }
        for a in table.all_lines().collect::<Vec<_>>() {
            sys.warm_llc(a);
        }
        let mut scratch = Scratch::new(&mut sys);
        scratch.warm(&mut sys, CoreId(0));
        let mut core = CoreModel::new(CoreId(0), sys.config());

        // Scalar: 8 sequential lookups.
        let mut t = Cycle(0);
        let start = t;
        for id in 0..8u64 {
            let tr = table.lookup_traced(sys.data_mut(), &FlowKey::synthetic(id * 7, 13), true);
            let prog = build_sw_lookup(&tr, &mut scratch, None);
            t = core.run(&prog, &mut sys, t).finish;
        }
        let scalar = (t - start).0;

        // Bulk: the same 8 in one pipelined program.
        let traces: Vec<_> = (0..8u64)
            .map(|id| table.lookup_traced(sys.data_mut(), &FlowKey::synthetic(id * 7, 13), true))
            .collect();
        let refs: Vec<&LookupTrace> = traces.iter().collect();
        let prog = build_sw_lookup_bulk(&refs, &mut scratch);
        let r = core.run(&prog, &mut sys, Cycle(0));
        let bulk = (r.finish - r.start).0;

        assert!(
            bulk * 10 < scalar * 9,
            "bulk ({bulk}) should beat 8 scalar lookups ({scalar}) by >10%"
        );
        // Results unchanged.
        for tr in &traces {
            assert!(tr.result.is_some());
        }
    }
}
