//! Property-based tests over the core data structures and invariants of
//! the reproduction.
//!
//! These used to run under `proptest`; that pulled a crates.io
//! dependency into every build, which broke the tier-1 verify on
//! network-restricted machines. They now drive the same properties from
//! the workspace's own [`SplitMix64`] with seeds derived via
//! [`point_seed`], so case generation is fully deterministic and
//! dependency-free. The default case count keeps `cargo test -q` fast;
//! build with `--features slow-tests` to multiply it.

use halo_nfv::check::audit_system;
use halo_nfv::classify::{
    distinct_masks, DecisionTree, PacketHeader, SearchMode, TupleSpace, WildcardMask,
};
use halo_nfv::kvstore::KvStore;
use halo_nfv::mem::{
    AccessKind, Addr, CacheGeometry, CoreId, LineAddr, MachineConfig, MemorySystem, SimMemory,
    SliceId,
};
use halo_nfv::sim::{point_seed, Cycle, Cycles, OutstandingWindow, Resource, SplitMix64};
use halo_nfv::tables::{CuckooTable, FlowKey, SfhTable, ENTRIES_PER_BUCKET};
use halo_nfv::tcam::{TcamEntry, TcamTable};
use std::collections::HashMap;

/// Cases per property: modest by default, paper-scale with the
/// `slow-tests` feature.
const CASES: u64 = if cfg!(feature = "slow-tests") { 64 } else { 12 };

/// One deterministic RNG per case of a named property.
fn case_rngs(property: &str) -> impl Iterator<Item = SplitMix64> + '_ {
    (0..CASES).map(move |i| SplitMix64::new(point_seed(property, i)))
}

/// Uniform length in `[lo, hi)`.
fn len_in(rng: &mut SplitMix64, lo: u64, hi: u64) -> usize {
    (lo + rng.below(hi - lo)) as usize
}

/// Operations for model-based testing of the cuckoo table.
#[derive(Debug, Clone, Copy)]
enum TableOp {
    Insert(u16, u64),
    Remove(u16),
    Lookup(u16),
    Move(u16),
}

fn table_op(rng: &mut SplitMix64) -> TableOp {
    let k = rng.next_u32() as u16;
    match rng.below(4) {
        0 => TableOp::Insert(k, rng.next_u64()),
        1 => TableOp::Remove(k),
        2 => TableOp::Lookup(k),
        _ => TableOp::Move(k),
    }
}

/// The cuckoo table behaves exactly like a HashMap under arbitrary
/// interleavings of insert/remove/lookup/cuckoo-move.
#[test]
fn cuckoo_matches_hashmap_model() {
    for mut rng in case_rngs("properties.cuckoo_model") {
        let ops = len_in(&mut rng, 1, 300);
        let mut mem = SimMemory::new();
        let mut table = CuckooTable::create(&mut mem, 1 << 12, 13); // 32K slots
        let mut model: HashMap<u16, u64> = HashMap::new();
        for _ in 0..ops {
            match table_op(&mut rng) {
                TableOp::Insert(k, v) => {
                    let key = FlowKey::synthetic(u64::from(k), 13);
                    // Plenty of headroom: inserts must succeed.
                    table.insert(&mut mem, &key, v).expect("table has room");
                    model.insert(k, v);
                }
                TableOp::Remove(k) => {
                    let key = FlowKey::synthetic(u64::from(k), 13);
                    let got = table.remove(&mut mem, &key);
                    assert_eq!(got, model.remove(&k));
                }
                TableOp::Lookup(k) => {
                    let key = FlowKey::synthetic(u64::from(k), 13);
                    assert_eq!(table.lookup(&mem, &key), model.get(&k).copied());
                }
                TableOp::Move(k) => {
                    let key = FlowKey::synthetic(u64::from(k), 13);
                    table.cuckoo_move(&mut mem, &key);
                    // A move must never change lookup results.
                    assert_eq!(table.lookup(&mem, &key), model.get(&k).copied());
                }
            }
            assert_eq!(table.len(), model.len());
        }
    }
}

/// Every key a cuckoo insert accepted stays retrievable, even at very
/// high fill where displacement chains get long.
#[test]
fn cuckoo_high_occupancy_no_loss() {
    for mut rng in case_rngs("properties.cuckoo_high_occupancy") {
        let mut mem = SimMemory::new();
        let mut table = CuckooTable::create(&mut mem, 64, 13); // 512 slots
        let mut accepted = Vec::new();
        for _ in 0..512 {
            let id = rng.next_u64() % 100_000;
            let key = FlowKey::synthetic(id, 13);
            if table.insert(&mut mem, &key, id).is_ok() {
                accepted.push((key, id));
            }
        }
        for (key, id) in &accepted {
            assert_eq!(table.lookup(&mem, key), Some(*id));
        }
    }
}

/// SFH and cuckoo agree on every key both accepted.
#[test]
fn sfh_agrees_with_cuckoo() {
    for mut rng in case_rngs("properties.sfh_vs_cuckoo") {
        let n = len_in(&mut rng, 1, 200);
        let ids: Vec<u64> = (0..n).map(|_| rng.below(50_000)).collect();
        let mut mem = SimMemory::new();
        let mut cuckoo = CuckooTable::create(&mut mem, 1 << 10, 13);
        let mut sfh = SfhTable::create(&mut mem, 1 << 12, 13);
        for &id in &ids {
            let key = FlowKey::synthetic(id, 13);
            let c = cuckoo.insert(&mut mem, &key, id).is_ok();
            let s = sfh.insert(&mut mem, &key, id).is_ok();
            if c && s {
                assert_eq!(cuckoo.lookup(&mem, &key), sfh.lookup(&mem, &key));
            }
        }
    }
}

/// Tuple-space search equals the linear-scan oracle for arbitrary rule
/// sets and probes (both FirstMatch and HighestPriority).
#[test]
fn tss_equals_linear_oracle() {
    for mut rng in case_rngs("properties.tss_oracle") {
        let nrules = len_in(&mut rng, 0, 150);
        let rules: Vec<(u64, usize, u16)> = (0..nrules)
            .map(|_| (rng.below(5_000), rng.below(8) as usize, rng.below(8) as u16))
            .collect();
        let nprobes = len_in(&mut rng, 1, 100);
        let probes: Vec<u64> = (0..nprobes).map(|_| rng.below(5_000)).collect();
        let mode = if rng.chance(0.5) {
            SearchMode::FirstMatch
        } else {
            SearchMode::HighestPriority
        };
        let mut mem = SimMemory::new();
        let mut tss = TupleSpace::new(&mut mem, distinct_masks(8), 256, mode);
        for (i, &(flow, tuple, prio)) in rules.iter().enumerate() {
            let key = PacketHeader::synthetic(flow).miniflow();
            let _ = tss.insert_rule(&mut mem, tuple, &key, prio, i as u64);
        }
        for &flow in &probes {
            let key = PacketHeader::synthetic(flow).miniflow();
            assert_eq!(tss.classify(&mem, &key), tss.classify_linear(&mem, &key));
        }
    }
}

/// A TCAM with only exact entries behaves like a map; wildcard entries
/// only ever *add* matches, never remove them.
#[test]
fn tcam_exact_entries_are_a_map() {
    for mut rng in case_rngs("properties.tcam_map") {
        let n = len_in(&mut rng, 1, 100);
        let ids: Vec<u64> = (0..n).map(|_| rng.below(1_000)).collect();
        let mut tcam = TcamTable::new(2_048, 4);
        let mut model = HashMap::new();
        for &id in &ids {
            let key = FlowKey::synthetic(id, 13);
            if tcam.insert(TcamEntry::exact(key.as_bytes(), 1, id)).is_ok() {
                model.entry(id).or_insert(id);
            }
        }
        for &id in &ids {
            let key = FlowKey::synthetic(id, 13);
            assert_eq!(tcam.lookup(key.as_bytes()), model.get(&id).copied());
        }
        // Adding a catch-all cannot shadow higher-priority exacts.
        let width = FlowKey::synthetic(0, 13).len();
        tcam.insert(TcamEntry::new(
            &vec![0u8; width],
            &vec![0u8; width],
            0,
            u64::MAX,
        ))
        .unwrap();
        for &id in &ids {
            let key = FlowKey::synthetic(id, 13);
            assert_eq!(tcam.lookup(key.as_bytes()), model.get(&id).copied());
        }
    }
}

/// Masking is idempotent: applying a mask twice equals once, for every
/// wildcard combination.
#[test]
fn mask_idempotent() {
    for mut rng in case_rngs("properties.mask_idempotent") {
        let flow = rng.next_u64();
        for (wild_src, wild_dst) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut mask = WildcardMask::exact();
            if wild_src {
                mask = mask.any_src_port();
            }
            if wild_dst {
                mask = mask.any_dst_port();
            }
            let key = PacketHeader::synthetic(flow).miniflow();
            let once = mask.apply(&key);
            let twice = mask.apply(&once);
            assert_eq!(once, twice);
        }
    }
}

/// Timed memory accesses never corrupt data: whatever was written
/// functionally reads back after arbitrary access sequences.
#[test]
fn timed_accesses_preserve_data() {
    for mut rng in case_rngs("properties.timed_accesses") {
        let nwrites = len_in(&mut rng, 1, 40);
        let writes: Vec<(u64, u64)> = (0..nwrites)
            .map(|_| (rng.below(64), rng.next_u64()))
            .collect();
        let ntouches = len_in(&mut rng, 0, 60);
        let touches: Vec<(usize, u64)> = (0..ntouches)
            .map(|_| (rng.below(4) as usize, rng.below(64)))
            .collect();
        let mut sys = MemorySystem::new(MachineConfig::small());
        let base = sys.data_mut().alloc_lines(64 * 64);
        let mut model = HashMap::new();
        for &(slot, value) in &writes {
            sys.data_mut().write_u64(base + slot * 64, value);
            model.insert(slot, value);
        }
        let mut t = Cycle(0);
        for &(core, slot) in &touches {
            let kind = if slot % 2 == 0 {
                AccessKind::Load
            } else {
                AccessKind::Store
            };
            let out = sys.access(CoreId(core), base + slot * 64, kind, t);
            assert!(out.complete >= t);
            t = out.complete;
        }
        for (&slot, &value) in &model {
            assert_eq!(sys.data_mut().read_u64(base + slot * 64), value);
        }
    }
}

/// Resource reservations never overlap and never start before the
/// request arrives.
#[test]
fn resource_reservations_are_causal() {
    for mut rng in case_rngs("properties.resource_causal") {
        let n = len_in(&mut rng, 1, 200);
        let arrivals: Vec<u64> = (0..n).map(|_| rng.below(10_000)).collect();
        let occupancy = 1 + rng.below(7);
        let mut r = Resource::new("p", Cycles(occupancy), Cycles(occupancy));
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for &a in &arrivals {
            let done = r.serve(Cycle(a));
            let start = done.0 - occupancy;
            assert!(start >= a, "service before arrival");
            spans.push((start, done.0));
        }
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlapping reservations {w:?}");
        }
    }
}

/// `Resource`'s compaction threshold (intervals kept before the oldest
/// are folded into the floor); the reference below must use the same.
const MAX_INTERVALS: usize = 256;

/// Reference copy of the general `Resource` reservation walk, with no
/// tail fast path: binary-search past intervals that end at or before
/// the request, walk for the first gap, insert, merge touching
/// neighbours, compact.
struct RefResource {
    latency: u64,
    occupancy: u64,
    intervals: Vec<(u64, u64)>,
    floor: u64,
    served: u64,
    busy: u64,
}

impl RefResource {
    fn new(latency: u64, occupancy: u64) -> Self {
        RefResource {
            latency,
            occupancy,
            intervals: Vec::new(),
            floor: 0,
            served: 0,
            busy: 0,
        }
    }

    fn reserve(&mut self, at: u64) -> u64 {
        let need = self.occupancy;
        let mut start = at.max(self.floor);
        let first = self.intervals.partition_point(|&(_, e)| e <= start);
        let mut insert_at = self.intervals.len();
        for (i, &(s, e)) in self.intervals.iter().enumerate().skip(first) {
            if start + need <= s {
                insert_at = i;
                break;
            }
            if start < e {
                start = e;
            }
        }
        self.intervals.insert(insert_at, (start, start + need));
        if insert_at + 1 < self.intervals.len()
            && self.intervals[insert_at].1 >= self.intervals[insert_at + 1].0
        {
            let next = self.intervals.remove(insert_at + 1);
            self.intervals[insert_at].1 = self.intervals[insert_at].1.max(next.1);
        }
        if insert_at > 0 && self.intervals[insert_at - 1].1 >= self.intervals[insert_at].0 {
            let cur = self.intervals.remove(insert_at);
            self.intervals[insert_at - 1].1 = self.intervals[insert_at - 1].1.max(cur.1);
        }
        if self.intervals.len() > MAX_INTERVALS {
            let drop = self.intervals.len() - MAX_INTERVALS / 2;
            self.floor = self.intervals[drop - 1].1;
            self.intervals.drain(..drop);
        }
        self.served += 1;
        self.busy += need;
        start
    }

    fn next_free(&self) -> u64 {
        self.intervals.last().map_or(self.floor, |&(_, e)| e)
    }
}

/// `Resource` (with its tail fast path) schedules exactly like the
/// general reservation walk. Arrivals are placed relative to the last
/// busy interval — before it, inside it, at its end, just after it, or
/// behind the compaction floor. Each case makes at least
/// `6 * MAX_INTERVALS` reservations and keeps going until the model has
/// compacted twice, so floor bumps run too; a case that cannot reach two
/// compactions within `MAX_STEPS` fails.
#[test]
fn resource_tail_path_matches_reference_walk() {
    const MIN_STEPS: usize = 6 * MAX_INTERVALS;
    const MAX_STEPS: usize = 64 * MAX_INTERVALS;
    for mut rng in case_rngs("properties.resource_tail_differential") {
        let occupancy = 1 + rng.below(8);
        let latency = occupancy + rng.below(20);
        let mut r = Resource::new("diff", Cycles(latency), Cycles(occupancy));
        let mut model = RefResource::new(latency, occupancy);
        let mut compactions = 0;
        let mut step = 0;
        while step < MIN_STEPS || compactions < 2 {
            assert!(
                step < MAX_STEPS,
                "only {compactions} compactions in {MAX_STEPS} steps"
            );
            let (last_start, last_end) = model.intervals.last().copied().unwrap_or((0, 0));
            let at = match rng.below(10) {
                // Somewhere before the last interval (gap filling).
                0 | 1 => rng.below(last_start + 1),
                // Inside the last interval.
                2 | 3 => last_start + rng.below(last_end - last_start + 1),
                // Exactly at its end.
                4 => last_end,
                // Behind the floor: bumped to it.
                5 => model.floor.saturating_sub(rng.below(4)),
                // After it, leaving a gap so intervals accumulate.
                _ => last_end + 1 + rng.below(3 * occupancy),
            };
            let floor_before = model.floor;
            let (got, want) = if rng.chance(0.2) {
                let lat = Cycles(1 + rng.below(40));
                (
                    r.serve_with_latency(Cycle(at), lat),
                    model.reserve(at) + lat.0,
                )
            } else {
                (r.serve(Cycle(at)), model.reserve(at) + model.latency)
            };
            compactions += u64::from(model.floor != floor_before);
            assert_eq!(got, Cycle(want), "step {step}: arrival {at}");
            assert_eq!(r.served(), model.served);
            assert_eq!(r.busy(), Cycles(model.busy));
            assert_eq!(r.next_free(), Cycle(model.next_free()));
            step += 1;
        }
        assert!(compactions >= 2, "only {compactions} compactions");
    }
}

/// Reference copy of the `Vec` + `retain` outstanding window.
struct RefWindow {
    capacity: usize,
    inflight: Vec<u64>,
    stalls: u64,
}

impl RefWindow {
    fn acquire(&mut self, at: u64) -> u64 {
        self.inflight.retain(|&c| c > at);
        if self.inflight.len() < self.capacity {
            return at;
        }
        let (idx, &earliest) = self
            .inflight
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| **c)
            .expect("window full implies non-empty");
        self.inflight.swap_remove(idx);
        self.stalls += 1;
        earliest.max(at)
    }

    fn drain_time(&self, at: u64) -> u64 {
        self.inflight.iter().copied().fold(at, u64::max)
    }
}

/// `OutstandingWindow` (a sorted ring of completion times) agrees with
/// a `Vec` + `retain` window on every acquisition, the stall count and
/// the drain time, with arrivals that mostly advance but sometimes step
/// back, and completion times that tie, expire early, run long, land
/// before every outstanding one (front insertion) or tie the earliest.
/// The first cases pin the capacities at the ring's edges: 1, 2, a
/// power of two, one between powers of two, and 32.
#[test]
fn outstanding_window_matches_reference() {
    const PINNED: [usize; 5] = [1, 2, 16, 20, 32];
    for (case, mut rng) in case_rngs("properties.window_differential").enumerate() {
        let capacity = PINNED
            .get(case)
            .copied()
            .unwrap_or_else(|| 1 + rng.below(32) as usize);
        let mut w = OutstandingWindow::new(capacity);
        let mut model = RefWindow {
            capacity,
            inflight: Vec::new(),
            stalls: 0,
        };
        let (mut fronts, mut ties) = (0u32, 0u32);
        // Rarer jumps for wider windows, so every capacity fills up.
        let jumps = 8 * capacity as u64;
        let mut t = 0u64;
        for step in 0..2000 {
            t = match rng.below(jumps) {
                0 => t.saturating_sub(rng.below(30)),
                1 => t + rng.below(200),
                _ => t + rng.below(3),
            };
            let issue = w.acquire(Cycle(t));
            assert_eq!(issue, Cycle(model.acquire(t)), "step {step}: at {t}");
            // Everything still outstanding completes after `issue`.
            let earliest = model.inflight.iter().copied().min();
            let done = match (rng.below(8), earliest) {
                (0, Some(e)) if e > issue.0 => {
                    fronts += 1;
                    issue.0 + rng.below(e - issue.0)
                }
                (1, Some(e)) => {
                    ties += 1;
                    e
                }
                _ => issue.0 + [1, 4, 14, 60, 250][rng.below(5) as usize],
            };
            w.commit(Cycle(done));
            model.inflight.push(done);
            assert_eq!(w.stalls(), model.stalls);
            let probe = t + rng.below(300);
            assert_eq!(w.drain_time(Cycle(probe)), Cycle(model.drain_time(probe)));
        }
        assert!(model.stalls > 0, "capacity {capacity} never stalled");
        assert!(
            capacity == 1 || (fronts > 0 && ties > 0),
            "capacity {capacity}: {fronts} front insertions, {ties} ties"
        );
    }
}

/// The key-value store behaves like a HashMap under arbitrary
/// set/get/delete interleavings.
#[test]
fn kvstore_matches_hashmap_model() {
    for mut rng in case_rngs("properties.kvstore_model") {
        let nops = len_in(&mut rng, 1, 120);
        let mut sys = MemorySystem::new(MachineConfig::small());
        let mut kv = KvStore::new(&mut sys, 4096);
        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        for _ in 0..nops {
            let op = rng.below(3);
            let kid = rng.below(64);
            let vlen = rng.below(40);
            let key = format!("key-{kid}").into_bytes();
            match op {
                0 => {
                    let value = vec![kid as u8; vlen as usize + 1];
                    kv.set(&mut sys, &key, &value).unwrap();
                    model.insert(key, value);
                }
                1 => {
                    assert_eq!(kv.get(&mut sys, &key), model.get(&key).cloned());
                }
                _ => {
                    let existed = kv.delete(&mut sys, &key);
                    assert_eq!(existed, model.remove(&key).is_some());
                }
            }
            assert_eq!(kv.len(), model.len());
        }
    }
}

/// Tree lookups agree with a sorted-map oracle for arbitrary key sets
/// and probes.
#[test]
fn tree_matches_btreemap() {
    use std::collections::BTreeMap;
    for mut rng in case_rngs("properties.tree_oracle") {
        let n = len_in(&mut rng, 1, 300);
        let inserts: Vec<(u64, u64)> = (0..n).map(|_| (rng.below(5_000), rng.next_u64())).collect();
        let nprobes = len_in(&mut rng, 1, 100);
        let probes: Vec<u64> = (0..nprobes).map(|_| rng.below(5_000)).collect();
        let mut mem = SimMemory::new();
        let entries: Vec<(FlowKey, u64)> = inserts
            .iter()
            .map(|&(id, v)| (FlowKey::synthetic(id, 16), v))
            .collect();
        let mut model: BTreeMap<FlowKey, u64> = BTreeMap::new();
        for (k, v) in &entries {
            model.insert(*k, *v);
        }
        let tree = DecisionTree::build(&mut mem, &entries);
        assert_eq!(tree.len(), model.len());
        for &id in &probes {
            let k = FlowKey::synthetic(id, 16);
            assert_eq!(tree.lookup(&mut mem, &k), model.get(&k).copied());
        }
    }
}

/// The flow-register estimate is within a usable error bound in the
/// calibrated range (up to 2x the bit count, several packets/flow).
#[test]
fn flow_register_error_bounded() {
    use halo_nfv::accel::FlowRegister;
    for mut rng in case_rngs("properties.flow_register") {
        let flows = 1 + rng.below(63);
        let mut reg = FlowRegister::new(32);
        let hashes: Vec<u64> = (0..flows).map(|_| rng.next_u64()).collect();
        for _ in 0..8 {
            for &h in &hashes {
                reg.observe(h);
            }
        }
        if !reg.saturated() {
            let est = reg.estimate();
            // Single-trial linear counting over 32 bits: generous bound.
            assert!(
                (est - flows as f64).abs() <= 0.5 * flows as f64 + 4.0,
                "estimate {est} for {flows} flows"
            );
        }
    }
}

/// Streaming Zipf rank-frequency: averaged per rank, every hotter
/// octave of ranks draws samples at least as often as the next colder
/// one, for exponents on both sides of the closed-form/binary-search
/// split inside [`StreamZipf`](halo_nfv::sim::StreamZipf).
#[test]
fn stream_zipf_rank_frequency_is_monotone() {
    use halo_nfv::sim::StreamZipf;
    for mut rng in case_rngs("properties.zipf_monotone") {
        let n = 1usize << (8 + rng.below(5)); // 256..4096 ranks
        let theta = 0.6 + rng.next_f64() * 0.8; // crosses theta = 1
        let z = StreamZipf::new(n, theta);
        let octaves = n.ilog2() as usize + 1;
        let mut counts = vec![0u64; octaves];
        const SAMPLES: u64 = 30_000;
        for _ in 0..SAMPLES {
            let r = z.sample(&mut rng);
            assert!(r < n, "rank {r} out of [0, {n})");
            counts[(r + 1).ilog2() as usize] += 1;
        }
        let per_rank: Vec<f64> = counts
            .iter()
            .enumerate()
            .map(|(b, &c)| {
                let lo = (1usize << b) - 1;
                let width = ((1usize << b).min(n - lo)).max(1);
                c as f64 / width as f64
            })
            .collect();
        for b in 0..octaves - 1 {
            // Only compare octaves with enough mass to be statistically
            // stable; the expected ratio between neighbours is 2^theta.
            if counts[b] >= 64 && counts[b + 1] >= 64 {
                assert!(
                    per_rank[b] > per_rank[b + 1],
                    "theta {theta:.2}, n {n}: octave {b} per-rank {} !> {}",
                    per_rank[b],
                    per_rank[b + 1]
                );
            }
        }
    }
}

/// Alpha sensitivity: raising the Zipf exponent strictly concentrates
/// mass on the top ranks (same RNG seed, same rank universe).
#[test]
fn stream_zipf_alpha_controls_skew() {
    use halo_nfv::sim::StreamZipf;
    for mut rng in case_rngs("properties.zipf_alpha") {
        let n = 4096;
        let seed = rng.next_u64();
        let top16 = |theta: f64| -> u64 {
            let z = StreamZipf::new(n, theta);
            let mut r = SplitMix64::new(seed);
            (0..20_000).filter(|_| z.sample(&mut r) < 16).count() as u64
        };
        let (flat, mid, steep) = (top16(0.2), top16(0.8), top16(1.3));
        assert!(
            flat < mid && mid < steep,
            "top-16 mass must grow with theta: {flat} / {mid} / {steep}"
        );
    }
}

/// Churn conservation: the streaming engine replaces expired flows in
/// place, so the live set never drifts from the configured flow count,
/// arrivals and expiries stay paired (at most one expiry in flight),
/// and every emitted packet belongs to the live set.
#[test]
fn streaming_churn_conserves_the_live_set() {
    use halo_nfv::datapath::TrafficEvent;
    use halo_nfv::nf::{StreamConfig, StreamingTrafficGen};
    for mut rng in case_rngs("properties.churn_conserve") {
        let flows = 64 + rng.below(700) as usize;
        let mut cfg = StreamConfig::churn(flows);
        cfg.churn_per_packet = rng.next_f64() * 0.3;
        let mut gen = StreamingTrafficGen::new(cfg, rng.next_u64());
        for _ in 0..1_500 {
            let ev = gen.next_event();
            if let TrafficEvent::Packet(f) = ev {
                assert!(gen.live_flows().contains(&f), "packet from dead flow {f}");
            }
            assert_eq!(gen.live_count(), flows, "live set drifted");
            let in_flight = gen.arrivals() - gen.expiries();
            assert!(in_flight <= 1, "unpaired churn: {in_flight} in flight");
        }
    }
}

/// Streaming sweeps are byte-identical at any `--jobs` level: a sweep
/// whose points each render a generator sub-stream merges to the same
/// text under one worker and many.
#[test]
fn streaming_sweeps_are_jobs_invariant() {
    use halo_nfv::nf::{StreamConfig, StreamingTrafficGen};
    use halo_nfv::sim::{SweepPoint, SweepRunner};

    #[derive(Debug, Clone, Copy)]
    struct StreamDigestPoint {
        flows: usize,
        seed: u64,
    }
    impl SweepPoint for StreamDigestPoint {
        type Row = String;
        fn run(&self) -> String {
            let mut gen = StreamingTrafficGen::new(StreamConfig::churn(self.flows), self.seed);
            (0..200).fold(String::new(), |mut s, _| {
                use std::fmt::Write;
                write!(s, "{:?};", gen.next_event()).unwrap();
                s
            })
        }
        fn label(&self) -> String {
            format!("stream/{}", self.flows)
        }
    }

    let points = || -> Vec<StreamDigestPoint> {
        (0..6)
            .map(|i| StreamDigestPoint {
                flows: 100 + 37 * i as usize,
                seed: point_seed("properties.stream_jobs", i),
            })
            .collect()
    };
    let a = SweepRunner::new("stream-jobs-1", 1).quiet().run(points());
    let b = SweepRunner::new("stream-jobs-4", 4).quiet().run(points());
    assert_eq!(a, b, "merged stream digests diverged across jobs levels");
}

/// Test-only copy of the hash-map page store `SimMemory` used before its
/// page directory became a `Vec` indexed by page number.
struct RefPagedMem {
    pages: HashMap<u64, Box<[u8]>>,
}

impl RefPagedMem {
    const PAGE_SHIFT: u64 = 16;
    const PAGE_SIZE: u64 = 1 << Self::PAGE_SHIFT;

    fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        let mut pos = addr;
        let mut done = 0usize;
        while done < buf.len() {
            let in_page = (Self::PAGE_SIZE - (pos % Self::PAGE_SIZE)) as usize;
            let n = in_page.min(buf.len() - done);
            let off = (pos % Self::PAGE_SIZE) as usize;
            match self.pages.get(&(pos >> Self::PAGE_SHIFT)) {
                Some(page) => buf[done..done + n].copy_from_slice(&page[off..off + n]),
                None => buf[done..done + n].fill(0),
            }
            pos += n as u64;
            done += n;
        }
    }

    fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        let mut pos = addr;
        let mut done = 0usize;
        while done < data.len() {
            let in_page = (Self::PAGE_SIZE - (pos % Self::PAGE_SIZE)) as usize;
            let n = in_page.min(data.len() - done);
            let off = (pos % Self::PAGE_SIZE) as usize;
            let page = self
                .pages
                .entry(pos >> Self::PAGE_SHIFT)
                .or_insert_with(|| vec![0u8; Self::PAGE_SIZE as usize].into_boxed_slice());
            page[off..off + n].copy_from_slice(&data[done..done + n]);
            pos += n as u64;
            done += n;
        }
    }
}

/// `SimMemory`'s indexed page directory reads back exactly what the
/// old hash-map store does under seeded write/read sequences: spans that
/// cross page boundaries, sparse pages far above the dense region, and
/// reads of pages never written (which must neither materialize a page
/// nor change `resident_pages()`).
#[test]
fn sim_memory_matches_hash_map_page_store() {
    const PAGE: u64 = RefPagedMem::PAGE_SIZE;
    for mut rng in case_rngs("properties.sim_memory_pages") {
        let mut mem = SimMemory::new();
        let mut model = RefPagedMem {
            pages: HashMap::new(),
        };
        let addr_of = |rng: &mut SplitMix64| -> u64 {
            match rng.below(4) {
                // Dense region, as the bump allocator hands out.
                0 => rng.below(8 * PAGE),
                // Just below a page boundary, so spans cross it.
                1 => (1 + rng.below(64)) * PAGE - 1 - rng.below(100),
                // Sparse high pages, far past everything else.
                2 => (1 << 30) + rng.below(64) * (1 << 24) + rng.below(PAGE),
                // Pages that are mostly never written.
                _ => rng.below(1 << 34),
            }
        };
        for step in 0..400 {
            let addr = addr_of(&mut rng);
            let len = [1, 2, 4, 8, 13, 64, 200, 3000][rng.below(8) as usize];
            if rng.below(3) == 0 {
                let data: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
                mem.write_bytes(Addr(addr), &data);
                model.write_bytes(addr, &data);
            } else {
                let before = mem.resident_pages();
                let mut got = vec![0xAAu8; len];
                let mut want = vec![0x55u8; len];
                mem.read_bytes(Addr(addr), &mut got);
                model.read_bytes(addr, &mut want);
                assert_eq!(got, want, "step {step}: read {len} bytes at {addr:#x}");
                assert_eq!(
                    mem.resident_pages(),
                    before,
                    "step {step}: a read grew memory"
                );
            }
            assert_eq!(mem.resident_pages(), model.pages.len(), "step {step}");
        }
        // Scalar reads of untouched pages past the directory's end are
        // zero and stay free.
        let before = mem.resident_pages();
        assert_eq!(mem.read_u64(Addr(1 << 40)), 0);
        assert_eq!(mem.read_u8(Addr(u64::MAX - 7)), 0);
        assert_eq!(mem.resident_pages(), before);
        // Every page the model holds reads back byte-identical in full.
        for &page in model.pages.keys() {
            let mut got = vec![0u8; PAGE as usize];
            let mut want = vec![0u8; PAGE as usize];
            mem.read_bytes(Addr(page * PAGE), &mut got);
            model.read_bytes(page * PAGE, &mut want);
            assert_eq!(got, want, "page {page}");
        }
    }
}

/// `TableMeta::read_bucket` (one line read) decodes exactly what eight
/// `read_entry` calls return, on random buckets of a populated table.
#[test]
fn read_bucket_matches_per_entry_reads() {
    for mut rng in case_rngs("properties.read_bucket") {
        let mut mem = SimMemory::new();
        let buckets = 1 << (2 + rng.below(6));
        let key_len = [4, 13, 40, 64][rng.below(4) as usize];
        let mut t = CuckooTable::create(&mut mem, buckets, key_len);
        let fill = len_in(&mut rng, 0, t.capacity() as u64);
        for _ in 0..fill {
            let _ = t.insert(&mut mem, &FlowKey::synthetic(rng.next_u64(), key_len), 7);
        }
        for _ in 0..64 {
            let b = rng.below(buckets);
            let (sigs, idxs) = t.meta().read_bucket(&mem, b);
            for e in 0..ENTRIES_PER_BUCKET {
                assert_eq!(
                    (sigs[e], idxs[e]),
                    t.meta().read_entry(&mem, b, e),
                    "bucket {b} entry {e}"
                );
            }
        }
    }
}

/// LLC eviction stress on a machine whose LLC is smaller than one
/// core's L2, so nearly every fill evicts a line some core still holds.
/// Loads, stores, accelerator accesses, snapshot reads, warm-ups,
/// private flushes and DMA writes from every core interleave at random.
/// In debug builds `MemorySystem` asserts at every LLC eviction that no
/// core outside the victim's directory sharers holds it (the invariant
/// that lets back-invalidation probe only the sharers); the full
/// halo-check system audit runs throughout.
///
/// Every accelerator access also takes the HALO hardware lock on its
/// line with a random release. A model of the held locks drops a lock
/// when its line leaves the LLC, when a sweep releases it, or when a
/// core store finds it expired, and must equal `held_locks()` after
/// every step. A locked line may only be evicted from a set whose other
/// ways are all locked too.
#[test]
fn llc_eviction_stress_keeps_holders_within_sharers() {
    const WAYS: usize = 4;
    let mut locked_evictions = 0u64;
    for mut rng in case_rngs("properties.llc_eviction_stress") {
        let cfg = MachineConfig {
            llc_slice: CacheGeometry {
                capacity: 2 * 1024,
                ways: WAYS,
            },
            ..MachineConfig::small()
        };
        let (cores, slices) = (cfg.cores, cfg.slices);
        let sets = cfg.llc_slice.sets() as u64;
        let mut sys = MemorySystem::new(cfg);
        // The LLC way group of a line: its home slice and, within it,
        // its set (this mirrors `CacheArray`'s set hash).
        let way_group = |sys: &MemorySystem, l: u64| {
            (sys.home_slice(LineAddr(l)), (l ^ (l >> 13)) & (sets - 1))
        };
        let lines = 1024u64;
        let base = sys.data_mut().alloc_lines(lines * 64);
        let mut locks: HashMap<u64, Cycle> = HashMap::new();
        let mut t = Cycle(0);
        for step in 0..3000 {
            let a = base + rng.below(lines) * 64;
            let line = a.line();
            let core = CoreId(rng.below(cores as u64) as usize);
            let kind = if rng.below(3) == 0 {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            let op = rng.below(16);
            t = match op {
                0..=8 => sys.access(core, a, kind, t).complete,
                9 | 10 => {
                    let from = SliceId(rng.below(slices as u64) as usize);
                    let done = sys.accel_access(from, a, kind, t).complete;
                    let until = done + Cycles(rng.below(20_000));
                    sys.hw_lock(line, until);
                    let held = locks.entry(line.0).or_insert(until);
                    *held = (*held).max(until);
                    done
                }
                11 => sys.snapshot_read(core, a, t).complete,
                12 | 13 => {
                    sys.warm_private(core, a);
                    t
                }
                14 => {
                    sys.dma_write(a);
                    t
                }
                _ => {
                    if rng.below(8) == 0 {
                        sys.flush_private(core);
                    } else {
                        sys.warm_llc(a);
                    }
                    t
                }
            };
            // A core store releases a lock it finds expired, and only then.
            if op <= 8 && kind == AccessKind::Store {
                if let Some(&rel) = locks.get(&line.0) {
                    match sys.lock_release(line) {
                        Some(now_rel) => assert_eq!(now_rel, rel, "step {step}"),
                        None => {
                            assert!(rel <= t, "step {step}: store released a live lock");
                            locks.remove(&line.0);
                        }
                    }
                }
            }
            let evicted: Vec<u64> = locks
                .keys()
                .copied()
                .filter(|&l| !sys.in_llc(LineAddr(l).base()))
                .collect();
            for l in evicted {
                locks.remove(&l);
                locked_evictions += 1;
                let group = way_group(&sys, l);
                let locked_mates = locks
                    .keys()
                    .filter(|&&m| way_group(&sys, m) == group)
                    .count();
                assert!(
                    locked_mates >= WAYS - 1,
                    "step {step}: locked line {l:#x} evicted beside an unlocked way"
                );
            }
            let mut held: Vec<(u64, Cycle)> = sys.held_locks().map(|(l, r)| (l.0, r)).collect();
            let mut want: Vec<(u64, Cycle)> = locks.iter().map(|(&l, &r)| (l, r)).collect();
            held.sort_unstable();
            want.sort_unstable();
            assert_eq!(
                held, want,
                "step {step}: held locks diverged from the model"
            );
            if step % 100 == 99 {
                sys.hw_unlock_expired(t);
                locks.retain(|_, &mut rel| rel > t);
                let violations = audit_system(&sys, t);
                assert!(violations.is_empty(), "step {step}: {violations:?}");
            }
        }
        let stats = sys.stats();
        assert!(
            stats.counter("llc.back_inval") > 100,
            "too few back-invalidations"
        );
        assert!(stats.counter("llc.writeback") > 0, "no dirty LLC evictions");
    }
    assert!(locked_evictions > 0, "no locked line was ever evicted");
}
