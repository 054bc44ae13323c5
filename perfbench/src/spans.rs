//! In-memory span recording for the traced run.
//!
//! Every span is a host-time interval around one call into a layer's
//! public API, opened and closed from the benchmark's own code. Spans
//! nest: a span's *self time* is its duration minus the time its child
//! spans cover, so the self times of all layers plus the time no span
//! covers (the remainder) add up to the traced wall time exactly.
//!
//! Aggregates (calls, total and self nanoseconds per layer) cover the
//! whole run; the first [`RAW_CAP`] spans are also kept verbatim, with
//! their parent and the operation they belong to, and written out when
//! the run ends.

use std::fmt::Write as _;
use std::time::Instant;

use halo_mem::{AccessKind, AccessOutcome, CoreId, CoreMem, MachineConfig, SimMemory};
use halo_sim::Cycle;

/// A layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `StreamingTrafficGen::next_event` (halo-nf).
    Gen,
    /// The vswitch packet path outside its child layers: packet-ring
    /// delivery and phase-program assembly (halo-vswitch).
    Vswitch,
    /// `Emc::lookup_traced` (halo-classify).
    Emc,
    /// `WildcardTable::classify_traced` (halo-datapath).
    Walk,
    /// `WildcardTable::insert_range` / `insert_masked` (halo-datapath).
    Insert,
    /// `WildcardTable::remove_range` / `remove_masked` (halo-datapath).
    Remove,
    /// Per-core EMC invalidation and revalidator stores on a control
    /// event (halo-datapath / halo-mem).
    Control,
    /// `build_sw_lookup_into` (halo-cpu).
    ProgBuild,
    /// `CoreModel::run` via `LookupExecutor::run` (halo-cpu).
    CoreRun,
    /// `MemorySystem::access` / `EpochCore::access` (halo-mem).
    MemAccess,
    /// `HaloEngine::dispatch` (halo-accel).
    Dispatch,
    /// `HaloEngine::snapshot_read` (halo-accel).
    Snapshot,
    /// `MemorySystem::epoch_split` (halo-mem).
    EpochSplit,
    /// `MemorySystem::epoch_merge` (halo-mem).
    EpochMerge,
    /// One window's per-core execution between split and merge
    /// (halo-vswitch's epoch runner).
    WindowExec,
    /// The benchmark's own reference checks.
    Reference,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 16;

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Gen,
        Layer::Vswitch,
        Layer::Emc,
        Layer::Walk,
        Layer::Insert,
        Layer::Remove,
        Layer::Control,
        Layer::ProgBuild,
        Layer::CoreRun,
        Layer::MemAccess,
        Layer::Dispatch,
        Layer::Snapshot,
        Layer::EpochSplit,
        Layer::EpochMerge,
        Layer::WindowExec,
        Layer::Reference,
    ];

    /// Stable name, used in metric names and the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Gen => "nf.gen",
            Layer::Vswitch => "vswitch.pkt",
            Layer::Emc => "classify.emc",
            Layer::Walk => "datapath.walk",
            Layer::Insert => "datapath.insert",
            Layer::Remove => "datapath.remove",
            Layer::Control => "datapath.control",
            Layer::ProgBuild => "cpu.prog_build",
            Layer::CoreRun => "cpu.run",
            Layer::MemAccess => "mem.access",
            Layer::Dispatch => "accel.dispatch",
            Layer::Snapshot => "accel.snapshot_read",
            Layer::EpochSplit => "mem.epoch_split",
            Layer::EpochMerge => "mem.epoch_merge",
            Layer::WindowExec => "vswitch.window_exec",
            Layer::Reference => "bench.reference",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// Raw spans kept verbatim (the rest are aggregated only).
pub const RAW_CAP: usize = 20_000;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct RawSpan {
    layer: Layer,
    /// Index of the enclosing span in the raw list, if it was kept.
    parent: Option<u32>,
    /// The operation (packet or lookup) the span belongs to.
    op: u64,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug, Clone, Copy)]
struct Open {
    layer: Layer,
    start: Instant,
    child_ns: u64,
    raw: Option<u32>,
}

/// Per-layer aggregates.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Completed spans per layer.
    pub calls: [u64; LAYERS],
    /// Summed span durations per layer.
    pub total_ns: [u64; LAYERS],
    /// Summed self times per layer.
    pub self_ns: [u64; LAYERS],
    /// Summed durations of spans opened with no enclosing span.
    pub top_ns: u64,
}

/// The span recorder. A disabled recorder records nothing, so the
/// same rebuilt paths run untraced at the cost of one branch per call.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    stack: Vec<Open>,
    op: u64,
    raw: Vec<RawSpan>,
    /// Per-layer aggregates.
    pub totals: Totals,
}

impl Spans {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            stack: Vec::with_capacity(16),
            op: 0,
            raw: Vec::new(),
            totals: Totals::default(),
        }
    }

    /// Tags the following spans with operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span of `layer`.
    #[inline]
    pub fn enter(&mut self, layer: Layer) {
        if !self.on {
            return;
        }
        let start = Instant::now();
        let raw = (self.raw.len() < RAW_CAP).then(|| {
            self.raw.push(RawSpan {
                layer,
                parent: self.stack.last().and_then(|o| o.raw),
                op: self.op,
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: 0,
            });
            (self.raw.len() - 1) as u32
        });
        self.stack.push(Open {
            layer,
            start,
            child_ns: 0,
            raw,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = Instant::now();
        let open = self.stack.pop().expect("span exit without enter");
        let d = (end - open.start).as_nanos() as u64;
        let i = open.layer.idx();
        self.totals.calls[i] += 1;
        self.totals.total_ns[i] += d;
        self.totals.self_ns[i] += d.saturating_sub(open.child_ns);
        match self.stack.last_mut() {
            Some(parent) => parent.child_ns += d,
            None => self.totals.top_ns += d,
        }
        if let Some(r) = open.raw {
            self.raw[r as usize].end_ns = (end - self.origin).as_nanos() as u64;
        }
    }

    /// Times `f` as one span of `layer`.
    #[inline]
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.enter(layer);
        let r = f();
        self.exit();
        r
    }

    /// Mean host nanoseconds per call of `layer` (0 when the layer was
    /// never called).
    pub fn ns_per_call(&self, layer: Layer) -> f64 {
        let i = layer.idx();
        self.totals.total_ns[i] as f64 / self.totals.calls[i].max(1) as f64
    }

    /// Mean self nanoseconds per call of `layer`.
    pub fn self_per_call(&self, layer: Layer) -> f64 {
        let i = layer.idx();
        self.totals.self_ns[i] as f64 / self.totals.calls[i].max(1) as f64
    }

    /// Self time of `layer`.
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.totals.self_ns[layer.idx()]
    }

    /// The span file: aggregates plus the raw spans kept.
    pub fn to_json(&self, header: &str, wall_ns: u64) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"header\": \"{}\",", header.replace('"', "'"));
        let _ = writeln!(s, "  \"wall_ns\": {wall_ns},");
        let _ = writeln!(
            s,
            "  \"remainder_ns\": {},",
            wall_ns.saturating_sub(self.totals.top_ns)
        );
        s.push_str("  \"layers\": [\n");
        for (n, l) in Layer::ALL.iter().enumerate() {
            let i = l.idx();
            let _ = write!(
                s,
                "    {{\"layer\": \"{}\", \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                l.name(),
                self.totals.calls[i],
                self.totals.total_ns[i],
                self.totals.self_ns[i]
            );
            s.push_str(if n + 1 < LAYERS { ",\n" } else { "\n" });
        }
        s.push_str("  ],\n  \"spans\": [\n");
        for (n, r) in self.raw.iter().enumerate() {
            let parent = r
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "    {{\"id\": {n}, \"layer\": \"{}\", \"parent\": {parent}, \"op\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                r.layer.name(),
                r.op,
                r.start_ns,
                r.end_ns
            );
            s.push_str(if n + 1 < self.raw.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// A [`CoreMem`] wrapper that times every `access` as a
/// [`Layer::MemAccess`] span and counts the accesses.
pub struct TimedMem<'a, S: CoreMem> {
    /// The wrapped memory context.
    pub inner: &'a mut S,
    /// Where the spans go.
    pub spans: &'a mut Spans,
}

impl<S: CoreMem> CoreMem for TimedMem<'_, S> {
    type Data = S::Data;

    fn data_mut(&mut self) -> &mut S::Data {
        self.inner.data_mut()
    }
    fn base(&self) -> &SimMemory {
        self.inner.base()
    }
    fn config(&self) -> &MachineConfig {
        self.inner.config()
    }
    fn access(
        &mut self,
        core: CoreId,
        addr: halo_mem::Addr,
        kind: AccessKind,
        at: Cycle,
    ) -> AccessOutcome {
        self.spans.enter(Layer::MemAccess);
        let out = self.inner.access(core, addr, kind, at);
        self.spans.exit();
        out
    }
    fn trace_enabled(&self) -> bool {
        self.inner.trace_enabled()
    }
    fn trace_span(&mut self, component: &'static str, op: &'static str, start: Cycle, end: Cycle) {
        self.inner.trace_span(component, op, start, end);
    }
}
