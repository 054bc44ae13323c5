//! Micro-op programs: small dependency DAGs of compute and memory
//! operations, the unit of work the core model schedules.

use halo_mem::Addr;

/// Index of a micro-op within its [`Program`].
pub type UopId = u32;

/// The operation a micro-op performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UopKind {
    /// An ALU/branch/other non-memory operation with a fixed execution
    /// latency (1 for simple ALU, 3–5 for multiplies).
    Compute {
        /// Execution latency in cycles.
        latency: u64,
    },
    /// A load from simulated memory.
    Load {
        /// The byte address read.
        addr: Addr,
    },
    /// A store to simulated memory.
    Store {
        /// The byte address written.
        addr: Addr,
    },
}

/// One micro-op: an operation plus the range of its program's
/// dependency pool holding the earlier micro-ops whose results it
/// consumes (read them with [`Program::deps`]).
#[derive(Debug, Clone, Copy)]
pub struct Uop {
    /// What the op does.
    pub kind: UopKind,
    /// `[dep_start, dep_end)` in the owning program's dependency pool.
    dep_start: u32,
    dep_end: u32,
}

/// A dependency DAG of micro-ops in program order.
///
/// # Examples
///
/// ```
/// use halo_cpu::Program;
/// use halo_mem::Addr;
///
/// let mut p = Program::new();
/// let k = p.load(Addr(64), &[]);
/// let h = p.compute(3, &[k]);     // hash depends on the key load
/// let b = p.load(Addr(128), &[h]); // bucket fetch depends on the hash
/// let _ = p.compute(1, &[b]);
/// assert_eq!(p.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Program {
    uops: Vec<Uop>,
    /// Every uop's dependencies, back to back in program order; each
    /// uop records its own range. One pool per program (instead of one
    /// `Vec` per uop) keeps building allocation-free once warm.
    deps: Vec<UopId>,
    /// Trace label: the op-class name spans recorded for this program
    /// carry (static so the tracer can intern it without allocating).
    label: &'static str,
}

impl Default for Program {
    fn default() -> Self {
        Program::with_label("program")
    }
}

impl Program {
    /// Creates an empty program.
    #[must_use]
    pub fn new() -> Self {
        Program::default()
    }

    /// Creates an empty program with a trace label.
    #[must_use]
    pub fn with_label(label: &'static str) -> Self {
        Program {
            uops: Vec::new(),
            deps: Vec::new(),
            label,
        }
    }

    /// Sets the trace label.
    pub fn set_label(&mut self, label: &'static str) {
        self.label = label;
    }

    /// Empties the program while keeping its uop and dependency
    /// allocations, so a caller can rebuild into the same buffer on
    /// every packet without touching the allocator. The label is
    /// preserved.
    pub fn clear(&mut self) {
        self.uops.clear();
        self.deps.clear();
    }

    /// The trace label spans for this program are recorded under.
    #[must_use]
    pub fn label(&self) -> &'static str {
        self.label
    }

    fn push(&mut self, kind: UopKind, deps: &[UopId]) -> UopId {
        let id = self.uops.len() as UopId;
        for &d in deps {
            assert!(d < id, "dependency on a later uop");
        }
        self.deps.extend_from_slice(deps);
        self.push_uop(kind)
    }

    /// Appends a uop whose dependencies are the pool entries added since
    /// the previous uop.
    fn push_uop(&mut self, kind: UopKind) -> UopId {
        let id = self.uops.len() as UopId;
        let dep_start = self.uops.last().map_or(0, |u| u.dep_end);
        self.uops.push(Uop {
            kind,
            dep_start,
            dep_end: self.deps.len() as u32,
        });
        id
    }

    /// Appends a compute uop.
    pub fn compute(&mut self, latency: u64, deps: &[UopId]) -> UopId {
        self.push(UopKind::Compute { latency }, deps)
    }

    /// Appends a load uop.
    pub fn load(&mut self, addr: Addr, deps: &[UopId]) -> UopId {
        self.push(UopKind::Load { addr }, deps)
    }

    /// Appends a store uop.
    pub fn store(&mut self, addr: Addr, deps: &[UopId]) -> UopId {
        self.push(UopKind::Store { addr }, deps)
    }

    /// Appends every uop of `other`, shifting its dependencies, and makes
    /// its roots depend on `after` (sequencing two logical operations).
    /// Returns the id of `other`'s last uop (or `after`'s last element /
    /// 0-sized fallback if `other` is empty).
    pub fn append(&mut self, other: &Program, after: &[UopId]) -> Option<UopId> {
        let base = self.uops.len() as UopId;
        for uop in &other.uops {
            let deps = other.deps_of(uop);
            if deps.is_empty() {
                self.deps.extend_from_slice(after);
            } else {
                self.deps.extend(deps.iter().map(|d| d + base));
            }
            self.push_uop(uop.kind);
        }
        if other.uops.is_empty() {
            None
        } else {
            Some(self.uops.len() as UopId - 1)
        }
    }

    /// The micro-ops in program order.
    #[must_use]
    pub fn uops(&self) -> &[Uop] {
        &self.uops
    }

    /// The dependencies of uop `i` (indices of earlier uops).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn deps(&self, i: usize) -> &[UopId] {
        self.deps_of(&self.uops[i])
    }

    /// The dependencies of `uop`, which must belong to this program.
    pub(crate) fn deps_of(&self, uop: &Uop) -> &[UopId] {
        &self.deps[uop.dep_start as usize..uop.dep_end as usize]
    }

    /// Number of micro-ops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// Whether the program is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }

    /// Counts of (loads, stores, computes).
    #[must_use]
    pub fn mix(&self) -> (usize, usize, usize) {
        let mut l = 0;
        let mut s = 0;
        let mut c = 0;
        for u in &self.uops {
            match u.kind {
                UopKind::Load { .. } => l += 1,
                UopKind::Store { .. } => s += 1,
                UopKind::Compute { .. } => c += 1,
            }
        }
        (l, s, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_mix() {
        let mut p = Program::new();
        let a = p.load(Addr(64), &[]);
        let b = p.compute(1, &[a]);
        p.store(Addr(128), &[b]);
        assert_eq!(p.mix(), (1, 1, 1));
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }

    #[test]
    #[should_panic(expected = "dependency on a later uop")]
    fn forward_dependency_rejected() {
        let mut p = Program::new();
        p.compute(1, &[5]);
    }

    #[test]
    fn append_rebases_dependencies() {
        let mut head = Program::new();
        let root = head.compute(1, &[]);
        let mut tail = Program::new();
        let t0 = tail.load(Addr(64), &[]);
        tail.compute(1, &[t0]);
        let last = head.append(&tail, &[root]).unwrap();
        assert_eq!(last, 2);
        // tail's root now depends on head's root.
        assert_eq!(head.deps(1), [root]);
        // tail's second op depends on the rebased first.
        assert_eq!(head.deps(2), [1]);
        assert!(head.deps(0).is_empty());
    }

    #[test]
    fn append_rebases_several_dependencies() {
        let mut head = Program::new();
        let r0 = head.compute(1, &[]);
        let r1 = head.load(Addr(64), &[]);
        let mut tail = Program::new();
        let a = tail.load(Addr(128), &[]);
        let b = tail.compute(1, &[]);
        let c = tail.compute(3, &[a, b]);
        tail.store(Addr(192), &[a, b, c]);
        assert_eq!(head.append(&tail, &[r0, r1]), Some(5));
        // Both of tail's roots take the whole `after` list...
        assert_eq!(head.deps(2), [r0, r1]);
        assert_eq!(head.deps(3), [r0, r1]);
        // ...and multi-dependency uops keep every edge, shifted by 2.
        assert_eq!(head.deps(4), [2, 3]);
        assert_eq!(head.deps(5), [2, 3, 4]);
        let kinds: Vec<UopKind> = head.uops().iter().map(|u| u.kind).collect();
        assert_eq!(kinds[5], UopKind::Store { addr: Addr(192) });
    }

    /// Builds a fixed program with a mix of dependency shapes.
    fn build_mixed(p: &mut Program) {
        let mut last = p.load(Addr(64), &[]);
        for i in 0..50u64 {
            let l = p.load(Addr(64 * (i + 2)), &[]);
            let c = p.compute(1, &[last, l]);
            last = p.compute(3, &[c]);
            p.store(Addr(64), &[last, l, c]);
        }
    }

    #[test]
    fn rebuilding_after_clear_keeps_capacities() {
        let mut p = Program::with_label("rebuild");
        build_mixed(&mut p);
        let first: Vec<(UopKind, Vec<UopId>)> = (0..p.len())
            .map(|i| (p.uops()[i].kind, p.deps(i).to_vec()))
            .collect();
        let caps = (p.uops.capacity(), p.deps.capacity());
        for _ in 0..3 {
            p.clear();
            assert!(p.is_empty());
            build_mixed(&mut p);
            assert_eq!((p.uops.capacity(), p.deps.capacity()), caps);
        }
        assert_eq!(p.label(), "rebuild");
        let again: Vec<(UopKind, Vec<UopId>)> = (0..p.len())
            .map(|i| (p.uops()[i].kind, p.deps(i).to_vec()))
            .collect();
        assert_eq!(again, first);
    }

    #[test]
    fn append_empty_returns_none() {
        let mut head = Program::new();
        head.compute(1, &[]);
        assert!(head.append(&Program::new(), &[0]).is_none());
    }
}
