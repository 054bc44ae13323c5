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

/// One program entry: a micro-op plus the range of its program's
/// dependency pool holding the earlier micro-ops whose results it
/// consumes, or a run of `count` dependency-free compute uops
/// ([`Program::compute_run`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    /// What each uop of the entry does.
    pub(crate) kind: UopKind,
    /// `[dep_start, dep_end)` in the owning program's dependency pool;
    /// empty for a run.
    dep_start: u32,
    dep_end: u32,
    /// Uops the entry stands for: 1, or a run's length (only
    /// dependency-free computes form runs).
    pub(crate) count: u32,
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
/// p.compute_run(1, 10);           // independent filler: uops 4..14
/// assert_eq!(p.len(), 14);
/// ```
#[derive(Debug, Clone)]
pub struct Program {
    entries: Vec<Entry>,
    /// Every uop's dependencies, back to back in program order; each
    /// entry records its own range. One pool per program (instead of
    /// one `Vec` per uop) keeps building allocation-free once warm.
    deps: Vec<UopId>,
    /// Number of uops (runs count every member).
    len: usize,
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
            entries: Vec::new(),
            deps: Vec::new(),
            len: 0,
            label,
        }
    }

    /// Sets the trace label.
    pub fn set_label(&mut self, label: &'static str) {
        self.label = label;
    }

    /// Empties the program while keeping its entry and dependency
    /// allocations, so a caller can rebuild into the same buffer on
    /// every packet without touching the allocator. The label is
    /// preserved.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.deps.clear();
        self.len = 0;
    }

    /// The trace label spans for this program are recorded under.
    #[must_use]
    pub fn label(&self) -> &'static str {
        self.label
    }

    #[inline]
    fn push(&mut self, kind: UopKind, deps: &[UopId]) -> UopId {
        let id = self.len as UopId;
        for &d in deps {
            assert!(d < id, "dependency on a later uop");
        }
        let dep_start = self.deps.len() as u32;
        self.deps.extend_from_slice(deps);
        self.entries.push(Entry {
            kind,
            dep_start,
            dep_end: self.deps.len() as u32,
            count: 1,
        });
        self.len += 1;
        id
    }

    /// Appends a compute uop.
    #[inline]
    pub fn compute(&mut self, latency: u64, deps: &[UopId]) -> UopId {
        self.push(UopKind::Compute { latency }, deps)
    }

    /// Appends `count` dependency-free compute uops of `latency` cycles
    /// as one entry: the same uops, ids and timing as `count` calls of
    /// `compute(latency, &[])`, but [`CoreModel::run`] schedules the
    /// whole run at once. A run of 0 appends nothing.
    ///
    /// [`CoreModel::run`]: crate::CoreModel::run
    ///
    /// # Panics
    ///
    /// Panics if `count` does not fit in a `u32`.
    #[inline]
    pub fn compute_run(&mut self, latency: u64, count: usize) {
        if count == 0 {
            return;
        }
        let at = self.deps.len() as u32;
        self.entries.push(Entry {
            kind: UopKind::Compute { latency },
            dep_start: at,
            dep_end: at,
            count: u32::try_from(count).expect("run length fits in a u32"),
        });
        self.len += count;
    }

    /// Appends a load uop.
    #[inline]
    pub fn load(&mut self, addr: Addr, deps: &[UopId]) -> UopId {
        self.push(UopKind::Load { addr }, deps)
    }

    /// Appends a store uop.
    #[inline]
    pub fn store(&mut self, addr: Addr, deps: &[UopId]) -> UopId {
        self.push(UopKind::Store { addr }, deps)
    }

    /// Every uop's kind and dependencies in program order, one item per
    /// uop (a run yields each of its members).
    pub fn uops(&self) -> impl Iterator<Item = (UopKind, &[UopId])> + '_ {
        self.entries
            .iter()
            .flat_map(|e| std::iter::repeat_n((e.kind, self.deps_of(e)), e.count as usize))
    }

    /// The program's entries in order, for the scheduler.
    pub(crate) fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// The dependencies of uop `i` (indices of earlier uops). A scan
    /// over the entries, so O(entries) per call: to walk a whole
    /// program use [`Program::uops`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn deps(&self, i: usize) -> &[UopId] {
        let mut end = 0;
        let entry = self
            .entries
            .iter()
            .find(|e| {
                end += e.count as usize;
                i < end
            })
            .expect("uop index within the program");
        self.deps_of(entry)
    }

    /// The dependencies of `entry`, which must belong to this program.
    #[inline]
    pub(crate) fn deps_of(&self, entry: &Entry) -> &[UopId] {
        &self.deps[entry.dep_start as usize..entry.dep_end as usize]
    }

    /// Number of micro-ops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the program is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Counts of (loads, stores, computes).
    #[must_use]
    pub fn mix(&self) -> (usize, usize, usize) {
        let mut l = 0;
        let mut s = 0;
        let mut c = 0;
        for e in &self.entries {
            let n = e.count as usize;
            match e.kind {
                UopKind::Load { .. } => l += n,
                UopKind::Store { .. } => s += n,
                UopKind::Compute { .. } => c += n,
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
    fn runs_read_as_one_uop_per_member() {
        let mut p = Program::new();
        p.compute_run(1, 3);
        p.compute_run(2, 0);
        let l = p.load(Addr(64), &[]);
        assert_eq!(l, 3, "uop ids count run members");
        p.compute_run(4, 2);
        let c = p.compute(1, &[l]);
        assert_eq!(c, 6);
        assert_eq!(p.len(), 7);
        assert_eq!(p.mix(), (1, 0, 6));
        let kinds: Vec<UopKind> = p.uops().map(|(k, _)| k).collect();
        assert_eq!(kinds.len(), 7);
        assert_eq!(kinds[2], UopKind::Compute { latency: 1 });
        assert_eq!(kinds[4], UopKind::Compute { latency: 4 });
        assert_eq!(kinds[5], UopKind::Compute { latency: 4 });
        for i in (0..6).filter(|&i| i != 3) {
            assert!(p.deps(i).is_empty(), "uop {i}");
        }
        assert_eq!(p.deps(6), [l]);
        let mut empty = Program::new();
        empty.compute_run(1, 0);
        assert!(empty.is_empty());
    }

    /// Builds a fixed program with a mix of dependency shapes.
    fn build_mixed(p: &mut Program) {
        let mut last = p.load(Addr(64), &[]);
        for i in 0..50u64 {
            let l = p.load(Addr(64 * (i + 2)), &[]);
            let c = p.compute(1, &[last, l]);
            last = p.compute(3, &[c]);
            p.store(Addr(64), &[last, l, c]);
            p.compute_run(1, i as usize % 3);
        }
    }

    #[test]
    fn rebuilding_after_clear_keeps_capacities() {
        let mut p = Program::with_label("rebuild");
        build_mixed(&mut p);
        let listing = |p: &Program| -> Vec<(UopKind, Vec<UopId>)> {
            p.uops().map(|(k, d)| (k, d.to_vec())).collect()
        };
        let first = listing(&p);
        let caps = (p.entries.capacity(), p.deps.capacity());
        for _ in 0..3 {
            p.clear();
            assert!(p.is_empty());
            build_mixed(&mut p);
            assert_eq!((p.entries.capacity(), p.deps.capacity()), caps);
        }
        assert_eq!(p.label(), "rebuild");
        assert_eq!(listing(&p), first);
    }
}
