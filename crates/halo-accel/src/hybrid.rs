//! Hybrid hardware/software execution (§4.6).
//!
//! When the active flow count is small, the whole working set fits in
//! the L1 cache and software lookups win (Fig. 9, leftmost sizes); when
//! it grows, the HALO path wins. The hybrid classifier watches the
//! linear-counting flow register and switches mode at a threshold
//! (64 flows in the paper's evaluation).

use crate::engine::HaloEngine;
use halo_cpu::{build_sw_lookup, CoreModel, Scratch};
use halo_mem::{CoreId, MemorySystem};
use halo_sim::Cycle;
use halo_tables::{hash_key, CuckooTable, FlowKey, SEED_PRIMARY};

/// Execution mode chosen by the hybrid controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Software cuckoo lookup on the core (small working sets).
    Software,
    /// HALO near-cache accelerator lookup.
    Halo,
}

/// Configuration of the hybrid controller.
#[derive(Debug, Clone, Copy)]
pub struct HybridConfig {
    /// Active-flow threshold below which software mode is used (the
    /// paper's evaluation settles on 64 flows).
    pub flow_threshold: f64,
    /// Queries per measurement window.
    pub window: u64,
    /// Bits in the controller's linear-counting register (the paper's
    /// hardware register is 32-bit; smaller registers saturate earlier).
    pub register_bits: usize,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            flow_threshold: 64.0,
            window: 256,
            register_bits: 32,
        }
    }
}

/// A classifier front-end that adaptively routes lookups to software or
/// to the HALO engine.
///
/// # Examples
///
/// ```
/// use halo_accel::{AcceleratorConfig, HaloEngine, HybridClassifier, HybridConfig, Mode};
/// use halo_mem::{CoreId, MachineConfig, MemorySystem};
/// use halo_sim::Cycle;
/// use halo_tables::{CuckooTable, FlowKey};
///
/// let mut sys = MemorySystem::new(MachineConfig::small());
/// let mut engine = HaloEngine::new(&sys, AcceleratorConfig::default());
/// let mut table = CuckooTable::create(sys.data_mut(), 64, 13);
/// let key = FlowKey::synthetic(1, 13);
/// table.insert(sys.data_mut(), &key, 10).unwrap();
///
/// let mut hybrid = HybridClassifier::new(&mut sys, CoreId(0), HybridConfig::default());
/// assert_eq!(hybrid.mode(), Mode::Software); // starts conservative
/// let (v, _t) = hybrid.lookup(&mut sys, &mut engine, &table, &key, Cycle(0));
/// assert_eq!(v, Some(10));
/// ```
#[derive(Debug)]
pub struct HybridClassifier {
    core: CoreId,
    core_model: CoreModel,
    scratch: Scratch,
    cfg: HybridConfig,
    mode: Mode,
    /// Software-side linear counter (sized by `cfg.register_bits`). The
    /// register's own observation count doubles as the window position,
    /// so there is exactly one notion of "queries this window".
    reg: crate::flowreg::FlowRegister,
    switches: u64,
    sw_lookups: u64,
    hw_lookups: u64,
}

impl HybridClassifier {
    /// Creates a hybrid front-end bound to `core`.
    pub fn new(sys: &mut MemorySystem, core: CoreId, cfg: HybridConfig) -> Self {
        let scratch = Scratch::new(sys);
        scratch.warm(sys, core);
        HybridClassifier {
            core,
            core_model: CoreModel::new(core, sys.config()),
            scratch,
            cfg,
            mode: Mode::Software,
            reg: crate::flowreg::FlowRegister::new(cfg.register_bits),
            switches: 0,
            sw_lookups: 0,
            hw_lookups: 0,
        }
    }

    /// The currently selected mode.
    #[must_use]
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Number of mode switches so far.
    #[must_use]
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// `(software lookups, HALO lookups)` executed.
    #[must_use]
    pub fn split(&self) -> (u64, u64) {
        (self.sw_lookups, self.hw_lookups)
    }

    /// Performs one lookup in the current mode, updating the flow
    /// register and re-evaluating the mode at window boundaries.
    /// Returns the value and the completion cycle.
    pub fn lookup(
        &mut self,
        sys: &mut MemorySystem,
        engine: &mut HaloEngine,
        table: &CuckooTable,
        key: &FlowKey,
        at: Cycle,
    ) -> (Option<u64>, Cycle) {
        let h = hash_key(key, SEED_PRIMARY);
        self.reg.observe(h);
        if self.reg.observations() >= self.cfg.window {
            // A saturated register means "at least as many flows as the
            // array can express" — its numeric estimate m·ln(m) can fall
            // *below* the threshold for small arrays (m=16 gives ~44.4
            // against the default 64), so check saturation first rather
            // than comparing the estimate.
            let saturated = self.reg.saturated();
            let est = self.reg.estimate_and_reset();
            let want = if saturated || est >= self.cfg.flow_threshold {
                Mode::Halo
            } else {
                Mode::Software
            };
            if want != self.mode {
                self.mode = want;
                self.switches += 1;
            }
        }
        match self.mode {
            Mode::Software => {
                self.sw_lookups += 1;
                let trace = table.lookup_traced(sys.data_mut(), key, true);
                let prog = build_sw_lookup(&trace, &mut self.scratch, None);
                let report = self.core_model.run(&prog, sys, at);
                (trace.result, report.finish)
            }
            Mode::Halo => {
                self.hw_lookups += 1;
                engine.lookup_b(sys, self.core, table, key, None, at)
            }
        }
    }

    /// Forces a mode (for experiments that pin the implementation).
    pub fn force_mode(&mut self, mode: Mode) {
        if mode != self.mode {
            self.mode = mode;
            self.switches += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AcceleratorConfig;
    use halo_mem::MachineConfig;

    fn setup(flows: u64) -> (MemorySystem, HaloEngine, CuckooTable, Vec<FlowKey>) {
        let mut sys = MemorySystem::new(MachineConfig::small());
        let engine = HaloEngine::new(&sys, AcceleratorConfig::default());
        let mut table = CuckooTable::with_capacity_for(sys.data_mut(), flows as usize, 0.8, 13);
        let keys: Vec<FlowKey> = (0..flows).map(|i| FlowKey::synthetic(i, 13)).collect();
        for (i, k) in keys.iter().enumerate() {
            table.insert(sys.data_mut(), k, i as u64).unwrap();
        }
        for a in table.all_lines().collect::<Vec<_>>() {
            sys.warm_llc(a);
        }
        (sys, engine, table, keys)
    }

    #[test]
    fn few_flows_stay_in_software_mode() {
        let (mut sys, mut engine, table, keys) = setup(8);
        let mut hy = HybridClassifier::new(&mut sys, CoreId(0), HybridConfig::default());
        let mut t = Cycle(0);
        for round in 0..100u64 {
            for k in &keys {
                let (_, done) = hy.lookup(&mut sys, &mut engine, &table, k, t);
                t = done;
            }
            let _ = round;
        }
        assert_eq!(hy.mode(), Mode::Software);
        assert_eq!(hy.split().1, 0, "no HALO lookups expected");
    }

    #[test]
    fn many_flows_switch_to_halo() {
        let (mut sys, mut engine, table, keys) = setup(512);
        let mut hy = HybridClassifier::new(&mut sys, CoreId(0), HybridConfig::default());
        let mut t = Cycle(0);
        for k in &keys {
            let (_, done) = hy.lookup(&mut sys, &mut engine, &table, k, t);
            t = done;
        }
        assert_eq!(hy.mode(), Mode::Halo);
        assert!(hy.switches() >= 1);
        assert!(hy.split().1 > 0);
    }

    #[test]
    fn lookups_stay_functionally_correct_across_switches() {
        let (mut sys, mut engine, table, keys) = setup(512);
        let mut hy = HybridClassifier::new(&mut sys, CoreId(0), HybridConfig::default());
        let mut t = Cycle(0);
        for (i, k) in keys.iter().enumerate() {
            let (v, done) = hy.lookup(&mut sys, &mut engine, &table, k, t);
            assert_eq!(v, Some(i as u64));
            t = done;
        }
    }

    /// Regression (saturation vs threshold): a 16-bit register's
    /// saturated estimate is 16·ln(16) ≈ 44.4, *below* the default
    /// 64-flow threshold. Before the saturation check, a window with far
    /// more flows than the register can express selected Software mode —
    /// exactly the regime where software lookups are slowest.
    #[test]
    fn saturated_small_register_forces_halo() {
        let (mut sys, mut engine, table, keys) = setup(512);
        let cfg = HybridConfig {
            register_bits: 16,
            ..HybridConfig::default()
        };
        // Confirm the premise: the saturated estimate is sub-threshold.
        let mut reg = crate::flowreg::FlowRegister::new(16);
        for i in 0..512u64 {
            reg.observe(hash_key(&FlowKey::synthetic(i, 13), SEED_PRIMARY));
        }
        assert!(reg.saturated());
        assert!(
            reg.estimate() < cfg.flow_threshold,
            "premise: saturated 16-bit estimate {} must sit below {}",
            reg.estimate(),
            cfg.flow_threshold
        );

        let mut hy = HybridClassifier::new(&mut sys, CoreId(0), cfg);
        let mut t = Cycle(0);
        for k in &keys {
            let (_, done) = hy.lookup(&mut sys, &mut engine, &table, k, t);
            t = done;
        }
        assert_eq!(
            hy.mode(),
            Mode::Halo,
            "saturation must mean 'many flows', not its numeric estimate"
        );
        assert!(hy.split().1 > 0, "HALO lookups expected after the switch");
    }

    /// Regression (window bookkeeping): the mode re-evaluates after
    /// *exactly* `window` lookups — the register's observation count is
    /// the only window position, so it cannot drift from the bits.
    #[test]
    fn mode_reevaluates_exactly_at_window_boundary() {
        let (mut sys, mut engine, table, keys) = setup(64);
        let cfg = HybridConfig {
            flow_threshold: 1.0, // any estimate >= 1 flips to Halo
            window: 8,
            ..HybridConfig::default()
        };
        let mut hy = HybridClassifier::new(&mut sys, CoreId(0), cfg);
        let mut t = Cycle(0);
        for k in keys.iter().take(7) {
            let (_, done) = hy.lookup(&mut sys, &mut engine, &table, k, t);
            t = done;
        }
        assert_eq!(hy.mode(), Mode::Software, "window not yet full at 7/8");
        assert_eq!(hy.switches(), 0);
        let (_, done) = hy.lookup(&mut sys, &mut engine, &table, &keys[7], t);
        t = done;
        assert_eq!(hy.mode(), Mode::Halo, "8th lookup closes the window");
        assert_eq!(hy.switches(), 1);
        // The next window starts empty: another 7 lookups stay put.
        for k in keys.iter().skip(8).take(7) {
            let (_, done) = hy.lookup(&mut sys, &mut engine, &table, k, t);
            t = done;
        }
        assert_eq!(hy.switches(), 1, "no re-evaluation mid-window");
    }

    #[test]
    fn force_mode_counts_as_switch() {
        let (mut sys, _engine, _table, _keys) = setup(8);
        let mut hy = HybridClassifier::new(&mut sys, CoreId(0), HybridConfig::default());
        hy.force_mode(Mode::Halo);
        assert_eq!(hy.mode(), Mode::Halo);
        assert_eq!(hy.switches(), 1);
        hy.force_mode(Mode::Halo);
        assert_eq!(hy.switches(), 1);
    }
}
