//! Latency + occupancy timing primitives.
//!
//! The simulator uses the classic "latency and occupancy" discrete-time
//! model: each hardware structure (cache bank, CHA ingress port, hash
//! unit, DRAM channel) is a [`Resource`] that serves requests in order.
//! A request arriving at time `t` occupies the resource for its
//! *occupancy* (initiation interval) and completes after its *latency*.
//! Pipelined units have occupancy < latency; unpipelined ones have
//! occupancy == latency.

use crate::cycle::{Cycle, Cycles};

/// A single-server, in-order resource with configurable initiation
/// interval (occupancy) per request.
///
/// # Examples
///
/// ```
/// use halo_sim::{Cycle, Cycles, Resource};
///
/// // A fully pipelined unit: 3-cycle latency, new request every cycle.
/// let mut unit = Resource::pipelined("hash", Cycles(3));
/// let a = unit.serve(Cycle(0));
/// let b = unit.serve(Cycle(0));
/// assert_eq!(a, Cycle(3));
/// assert_eq!(b, Cycle(4)); // issued one cycle later
/// ```
#[derive(Debug, Clone)]
pub struct Resource {
    name: &'static str,
    latency: Cycles,
    occupancy: Cycles,
    /// Reserved busy intervals `[start, end)`, sorted and disjoint.
    ///
    /// Interval tracking (rather than a scalar `next_free`) keeps the
    /// model causal when *independent* requesters reserve the resource
    /// out of program order: a request arriving earlier in simulated
    /// time slots into any idle gap instead of queueing behind
    /// later-in-time reservations made by an earlier `serve` call.
    intervals: Vec<(u64, u64)>,
    /// Times before this are compacted away; requests arriving earlier
    /// are conservatively bumped to it.
    floor: u64,
    served: u64,
    busy: Cycles,
}

/// Intervals retained before compaction kicks in.
const MAX_INTERVALS: usize = 256;

impl Resource {
    /// Creates a resource with independent latency and occupancy.
    ///
    /// # Panics
    ///
    /// Panics if `occupancy` is zero (a zero initiation interval would
    /// admit unbounded throughput).
    #[must_use]
    pub fn new(name: &'static str, latency: Cycles, occupancy: Cycles) -> Self {
        assert!(occupancy.0 > 0, "resource {name} with zero occupancy");
        Resource {
            name,
            latency,
            occupancy,
            intervals: Vec::new(),
            floor: 0,
            served: 0,
            busy: Cycles::ZERO,
        }
    }

    /// A fully pipelined resource: one new request per cycle, `latency`
    /// cycles to complete each.
    #[must_use]
    pub fn pipelined(name: &'static str, latency: Cycles) -> Self {
        Resource::new(name, latency, Cycles(1))
    }

    /// An unpipelined resource: busy for the whole `latency`.
    #[must_use]
    pub fn unpipelined(name: &'static str, latency: Cycles) -> Self {
        Resource::new(name, latency, latency)
    }

    /// Reserves the first idle window of `self.occupancy` cycles at or
    /// after `at`, returning its start.
    #[inline]
    fn reserve(&mut self, at: Cycle) -> Cycle {
        let need = self.occupancy.0;
        let mut start = at.0.max(self.floor);
        // Tail fast path. The intervals are sorted and disjoint, so when
        // the request starts at or after the last interval's start, every
        // earlier interval ends at or before `start` and only the last
        // one can delay it: the general walk would bump `start` to the
        // last interval's end at most, then append or merge. Doing that
        // directly skips the search, the insert and the merge removes.
        // Dependent chains and same-cycle bursts (several loads per
        // cycle on one bank) arrive this way almost always.
        match self.intervals.last_mut() {
            Some(last) if start >= last.0 => {
                start = start.max(last.1);
                if start == last.1 {
                    last.1 += need;
                } else {
                    self.intervals.push((start, start + need));
                    self.compact();
                }
            }
            _ => start = self.reserve_gap(start),
        }
        self.served += 1;
        self.busy += self.occupancy;
        Cycle(start)
    }

    /// The general reservation for a request starting no earlier than
    /// `start`: the first gap in the interval list that fits it. Only
    /// out-of-order arrivals (before the last interval starts) and the
    /// first request after a reset come here.
    #[inline(never)]
    fn reserve_gap(&mut self, mut start: u64) -> u64 {
        let need = self.occupancy.0;
        // Walk the intervals that can still delay the request, from the
        // first one ending after `start`, looking for a gap.
        let first = self.first_ending_after(start);
        let mut at = self.intervals.len();
        for (i, &(s, e)) in self.intervals.iter().enumerate().skip(first) {
            if start + need <= s {
                at = i;
                break;
            }
            start = start.max(e);
        }
        let end = start + need;
        // The new reservation lies between intervals `at - 1` and `at`,
        // touching each at most at one end. A touched neighbour grows in
        // place; only a reservation touching neither is inserted.
        let joins_prev = at > 0 && self.intervals[at - 1].1 == start;
        let joins_next = at < self.intervals.len() && self.intervals[at].0 == end;
        match (joins_prev, joins_next) {
            (true, true) => {
                self.intervals[at - 1].1 = self.intervals[at].1;
                self.intervals.remove(at);
            }
            (true, false) => self.intervals[at - 1].1 = end,
            (false, true) => self.intervals[at].0 = start,
            (false, false) => {
                self.intervals.insert(at, (start, end));
                self.compact();
            }
        }
        start
    }

    /// Index of the first interval ending after `t`. Intervals ending at
    /// or before `t` satisfy neither the gap test nor the bump test of
    /// [`reserve_gap`](Self::reserve_gap), so they are skipped. Out-of-
    /// order arrivals land near the tail, so gallop back from it and
    /// binary-search only the last bracket.
    fn first_ending_after(&self, t: u64) -> usize {
        let n = self.intervals.len();
        let mut hi = n;
        let mut step = 1;
        while hi > 0 {
            let lo = hi.saturating_sub(step);
            if self.intervals[lo].1 <= t {
                return lo + 1 + self.intervals[lo + 1..hi].partition_point(|&(_, e)| e <= t);
            }
            hi = lo;
            step *= 2;
        }
        0
    }

    /// Compacts old history: requests rarely arrive far in the past.
    fn compact(&mut self) {
        if self.intervals.len() > MAX_INTERVALS {
            let drop = self.intervals.len() - MAX_INTERVALS / 2;
            self.floor = self.intervals[drop - 1].1;
            self.intervals.drain(..drop);
        }
    }

    /// Serves a request arriving at `at`; returns its completion time.
    ///
    /// The request occupies the first idle window of `occupancy` cycles
    /// at or after `at` and completes `latency` cycles after it starts
    /// service.
    #[inline]
    pub fn serve(&mut self, at: Cycle) -> Cycle {
        self.reserve(at) + self.latency
    }

    /// Like [`serve`](Self::serve) but with a request-specific latency
    /// (occupancy still fixed); used where service time depends on the
    /// request (e.g. DRAM row hit vs miss).
    #[inline]
    pub fn serve_with_latency(&mut self, at: Cycle, latency: Cycles) -> Cycle {
        self.reserve(at) + latency
    }

    /// The earliest time a new request could start service if it
    /// arrived now (end of the last reservation).
    #[must_use]
    pub fn next_free(&self) -> Cycle {
        Cycle(self.intervals.last().map_or(self.floor, |&(_, e)| e))
    }

    /// Whether a request arriving at `at` would have to wait.
    #[must_use]
    pub fn is_busy_at(&self, at: Cycle) -> bool {
        let need = self.occupancy.0;
        let t = at.0;
        if t < self.floor {
            return true;
        }
        self.intervals
            .iter()
            .any(|&(s, e)| t >= s.saturating_sub(need - 1) && t < e)
    }

    /// Number of requests served so far.
    #[must_use]
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Total busy time accumulated.
    #[must_use]
    pub fn busy(&self) -> Cycles {
        self.busy
    }

    /// Utilization in `[0, 1]` over the window ending at `now`.
    #[must_use]
    pub fn utilization(&self, now: Cycle) -> f64 {
        if now.0 == 0 {
            0.0
        } else {
            (self.busy.0 as f64 / now.0 as f64).min(1.0)
        }
    }

    /// The resource's diagnostic name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Resets the resource to idle at time zero (statistics cleared).
    pub fn reset(&mut self) {
        self.intervals.clear();
        self.floor = 0;
        self.served = 0;
        self.busy = Cycles::ZERO;
    }
}

/// A bank-interleaved resource: `n` identical servers, requests routed by
/// an explicit bank index (e.g. address-hashed LLC banks).
#[derive(Debug, Clone)]
pub struct BankedResource {
    banks: Vec<Resource>,
}

impl BankedResource {
    /// Creates `n` identical banks.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `occupancy` is zero.
    #[must_use]
    pub fn new(name: &'static str, n: usize, latency: Cycles, occupancy: Cycles) -> Self {
        assert!(n > 0, "banked resource with zero banks");
        BankedResource {
            banks: (0..n)
                .map(|_| Resource::new(name, latency, occupancy))
                .collect(),
        }
    }

    /// Serves a request on bank `bank % n`.
    #[inline]
    pub fn serve(&mut self, bank: usize, at: Cycle) -> Cycle {
        let n = self.banks.len();
        self.banks[bank % n].serve(at)
    }

    /// Number of banks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.banks.len()
    }

    /// Always false (constructed non-empty).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Total requests served across banks.
    #[must_use]
    pub fn served(&self) -> u64 {
        self.banks.iter().map(Resource::served).sum()
    }

    /// Resets all banks.
    pub fn reset(&mut self) {
        for b in &mut self.banks {
            b.reset();
        }
    }
}

/// A token-limited window, modeling structures that cap the number of
/// simultaneously outstanding operations (MSHRs, scoreboard slots,
/// load/store-queue entries).
///
/// Completion times are tracked so a new acquisition at time `t` blocks
/// until the earliest outstanding operation has completed.
#[derive(Debug, Clone)]
pub struct OutstandingWindow {
    capacity: usize,
    /// Completion times of in-flight operations in ascending order: the
    /// `len` slots from `head` of a power-of-two ring. Only the multiset
    /// of times matters to [`acquire`](Self::acquire) and
    /// [`drain_time`](Self::drain_time), so keeping it sorted answers
    /// both exactly: the earliest is the front, the latest the tail.
    ring: Box<[Cycle]>,
    /// `ring.len() - 1`.
    mask: usize,
    head: usize,
    len: usize,
    stalls: u64,
}

impl OutstandingWindow {
    /// Creates a window admitting at most `capacity` concurrent operations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity window");
        let slots = capacity.next_power_of_two();
        OutstandingWindow {
            capacity,
            ring: vec![Cycle::ZERO; slots].into_boxed_slice(),
            mask: slots - 1,
            head: 0,
            len: 0,
            stalls: 0,
        }
    }

    /// The `i`th earliest outstanding completion (`i < len`).
    #[inline]
    fn nth(&self, i: usize) -> Cycle {
        self.ring[(self.head + i) & self.mask]
    }

    /// Removes and returns the earliest outstanding completion.
    #[inline]
    fn pop_front(&mut self) -> Cycle {
        let c = self.ring[self.head];
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
        c
    }

    /// Acquires a slot for an operation arriving at `at`; returns the time
    /// the slot becomes available (>= `at`). The caller must then
    /// [`commit`](Self::commit) the operation's completion time.
    #[inline]
    pub fn acquire(&mut self, at: Cycle) -> Cycle {
        // Drop entries that completed by `at`.
        while self.len > 0 && self.nth(0) <= at {
            self.pop_front();
        }
        if self.len < self.capacity {
            return at;
        }
        // Must wait for the earliest completion (later than `at`, since
        // everything up to `at` was just dropped).
        self.stalls += 1;
        self.pop_front()
    }

    /// Registers the completion time of an operation whose slot was
    /// acquired. Completions mostly arrive in order, so the sorted
    /// insert walks back from the tail and usually stops at once.
    #[inline]
    pub fn commit(&mut self, completes_at: Cycle) {
        debug_assert!(
            self.len < self.capacity,
            "commit without an acquired slot: window of {} already holds {}",
            self.capacity,
            self.len
        );
        let mut i = self.len;
        while i > 0 {
            let prev = self.nth(i - 1);
            if prev <= completes_at {
                break;
            }
            self.ring[(self.head + i) & self.mask] = prev;
            i -= 1;
        }
        self.ring[(self.head + i) & self.mask] = completes_at;
        self.len += 1;
    }

    /// The completion time of the last outstanding operation, i.e. when
    /// the window fully drains (`at` if already empty).
    #[must_use]
    pub fn drain_time(&self, at: Cycle) -> Cycle {
        match self.len {
            0 => at,
            n => at.max(self.nth(n - 1)),
        }
    }

    /// Number of times acquisition had to wait for a completion.
    #[must_use]
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Maximum concurrent operations.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Clears all in-flight state.
    pub fn reset(&mut self) {
        self.head = 0;
        self.len = 0;
        self.stalls = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_resource_overlaps() {
        let mut r = Resource::pipelined("p", Cycles(10));
        assert_eq!(r.serve(Cycle(0)), Cycle(10));
        assert_eq!(r.serve(Cycle(0)), Cycle(11));
        assert_eq!(r.serve(Cycle(0)), Cycle(12));
        assert_eq!(r.served(), 3);
    }

    #[test]
    fn unpipelined_resource_serializes() {
        let mut r = Resource::unpipelined("u", Cycles(10));
        assert_eq!(r.serve(Cycle(0)), Cycle(10));
        assert_eq!(r.serve(Cycle(0)), Cycle(20));
    }

    #[test]
    fn idle_resource_serves_immediately() {
        let mut r = Resource::pipelined("p", Cycles(5));
        r.serve(Cycle(0));
        assert!(!r.is_busy_at(Cycle(100)));
        assert_eq!(r.serve(Cycle(100)), Cycle(105));
    }

    #[test]
    fn variable_latency_service() {
        let mut r = Resource::new("dram", Cycles(100), Cycles(4));
        assert_eq!(r.serve_with_latency(Cycle(0), Cycles(50)), Cycle(50));
        assert_eq!(r.serve_with_latency(Cycle(0), Cycles(50)), Cycle(54));
    }

    #[test]
    fn banked_resource_routes_by_bank() {
        let mut b = BankedResource::new("bank", 2, Cycles(10), Cycles(10));
        assert_eq!(b.serve(0, Cycle(0)), Cycle(10));
        assert_eq!(b.serve(1, Cycle(0)), Cycle(10)); // different bank, no wait
        assert_eq!(b.serve(2, Cycle(0)), Cycle(20)); // wraps to bank 0
        assert_eq!(b.served(), 3);
    }

    #[test]
    fn window_limits_concurrency() {
        let mut w = OutstandingWindow::new(2);
        let t0 = w.acquire(Cycle(0));
        assert_eq!(t0, Cycle(0));
        w.commit(Cycle(100));
        let t1 = w.acquire(Cycle(0));
        assert_eq!(t1, Cycle(0));
        w.commit(Cycle(50));
        // Window full; next acquire waits for earliest completion (50).
        let t2 = w.acquire(Cycle(0));
        assert_eq!(t2, Cycle(50));
        assert_eq!(w.stalls(), 1);
    }

    #[test]
    fn window_drain_time() {
        let mut w = OutstandingWindow::new(4);
        w.acquire(Cycle(0));
        w.commit(Cycle(30));
        w.acquire(Cycle(0));
        w.commit(Cycle(70));
        assert_eq!(w.drain_time(Cycle(0)), Cycle(70));
        assert_eq!(w.drain_time(Cycle(80)), Cycle(80));
    }

    #[test]
    fn window_expires_completed_entries() {
        let mut w = OutstandingWindow::new(1);
        w.acquire(Cycle(0));
        w.commit(Cycle(10));
        // At time 20 the previous op has completed; no stall.
        assert_eq!(w.acquire(Cycle(20)), Cycle(20));
        assert_eq!(w.stalls(), 0);
    }

    #[test]
    fn out_of_order_requests_fill_gaps() {
        let mut r = Resource::new("port", Cycles(26), Cycles(2));
        // A late-in-time request reserved first...
        let late = r.serve(Cycle(100));
        assert_eq!(late, Cycle(126));
        // ...must not delay an earlier-in-time independent request.
        let early = r.serve(Cycle(10));
        assert_eq!(early, Cycle(36), "early request should use the idle gap");
    }

    #[test]
    fn gap_too_small_is_skipped() {
        let mut r = Resource::new("u", Cycles(4), Cycles(4));
        r.serve(Cycle(0)); // busy [0,4)
        r.serve(Cycle(6)); // busy [6,10)
                           // A request at 3 needs 4 idle cycles; gap [4,6) is too small.
        let done = r.serve(Cycle(3));
        assert_eq!(done, Cycle(14), "must start at 10");
    }

    #[test]
    fn compaction_keeps_working() {
        let mut r = Resource::pipelined("p", Cycles(1));
        for i in 0..2000u64 {
            r.serve(Cycle(i * 3));
        }
        // Still serves correctly after compaction.
        let done = r.serve(Cycle(10_000));
        assert_eq!(done, Cycle(10_001));
        assert_eq!(r.served(), 2001);
    }

    /// The interval bookkeeping of `Resource::reserve` as it was before
    /// `reserve_gap` galloped and merged in place: a binary search for
    /// the first interval that can delay the request, an insert, then
    /// merge removes.
    struct OldReserve {
        need: u64,
        intervals: Vec<(u64, u64)>,
        floor: u64,
    }

    impl OldReserve {
        fn reserve(&mut self, at: u64) -> u64 {
            let need = self.need;
            let mut start = at.max(self.floor);
            match self.intervals.last_mut() {
                Some(last) if start >= last.0 => {
                    start = start.max(last.1);
                    if start == last.1 {
                        last.1 += need;
                    } else {
                        self.intervals.push((start, start + need));
                        self.compact();
                    }
                    return start;
                }
                _ => {}
            }
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
            self.compact();
            start
        }

        fn compact(&mut self) {
            if self.intervals.len() > MAX_INTERVALS {
                let drop = self.intervals.len() - MAX_INTERVALS / 2;
                self.floor = self.intervals[drop - 1].1;
                self.intervals.drain(..drop);
            }
        }
    }

    #[test]
    fn gap_reservations_match_the_insert_and_merge_walk() {
        use crate::rng::SplitMix64;
        let (mut merged_both, mut merged_prev, mut merged_next, mut compactions) = (0, 0, 0, 0);
        for seed in 0..24u64 {
            let mut rng = SplitMix64::new(0x6a11_0900 + seed);
            let need = 1 + rng.below(4);
            let latency = need + rng.below(30);
            let mut r = Resource::new("gap", Cycles(latency), Cycles(need));
            let mut old = OldReserve {
                need,
                intervals: Vec::new(),
                floor: 0,
            };
            // Arrivals drift forward with out-of-order jitter, on a grid
            // of the occupancy half the time so gaps fill exactly and
            // reservations touch both neighbours.
            let mut clock = 0u64;
            for step in 0..4000 {
                clock += rng.below(3 * need);
                let mut at = clock.saturating_sub(rng.below(40 * need));
                if rng.chance(0.5) {
                    at -= at % need;
                }
                let before = old.intervals.clone();
                let floor = old.floor;
                let want = old.reserve(at);
                let got = r.serve(Cycle(at));
                assert_eq!(
                    got,
                    Cycle(want + latency),
                    "seed {seed} step {step} at {at}"
                );
                assert_eq!(
                    r.intervals, old.intervals,
                    "seed {seed} step {step} at {at}"
                );
                assert_eq!(r.floor, old.floor, "seed {seed} step {step}");
                // Classify the gap-path steps by what they did to the list.
                let gap_path = before.last().is_some_and(|l| at.max(floor) < l.0);
                if old.floor != floor {
                    compactions += 1;
                } else if gap_path && old.intervals.len() + 1 == before.len() {
                    merged_both += 1;
                } else if gap_path && old.intervals.len() == before.len() {
                    let pairs = || before.iter().zip(&old.intervals);
                    merged_prev += usize::from(pairs().any(|(b, o)| b.0 == o.0 && b.1 < o.1));
                    merged_next += usize::from(pairs().any(|(b, o)| o.0 < b.0));
                }
            }
        }
        assert!(compactions > 0, "no compaction");
        assert!(merged_both > 0, "no two-sided merge");
        assert!(merged_prev > 0, "no merge into the previous interval");
        assert!(merged_next > 0, "no merge into the next interval");
    }

    #[test]
    fn utilization_bounded() {
        let mut r = Resource::unpipelined("u", Cycles(10));
        r.serve(Cycle(0));
        assert!((r.utilization(Cycle(20)) - 0.5).abs() < 1e-12);
        assert_eq!(r.utilization(Cycle::ZERO), 0.0);
    }
}
