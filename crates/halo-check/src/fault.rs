//! The fault injector: a seeded adversarial schedule over the full
//! engine stack. Between ordinary table ops it forces cache evictions
//! of table lines (dropping lock bits and directory state the hard
//! way), floods a shallow accelerator scoreboard to provoke queue
//! stalls, and preempts two-phase cuckoo moves mid-displacement with
//! lookups and evictions — then requires that the differential oracle
//! still agrees and the invariant auditor finds nothing.
//!
//! The schedule drives an [`ExactTable`](halo_datapath::ExactTable) of
//! any [`TableBackend`], so the same adversary attacks the baseline
//! cuckoo table, the presence-filtered Cuckoo++ table, and the
//! CBF-steered EMOMA table — each checked by its own structural auditor.

use halo_accel::{AcceleratorConfig, HaloEngine};
use halo_datapath::TableBackend;
use halo_mem::{Addr, CoreId, MachineConfig, MemorySystem};
use halo_sim::{Cycle, Cycles, SplitMix64};
use halo_tables::{FlowKey, FlowTable};
use std::collections::HashMap;

use crate::audit::{audit_exact, audit_system, audit_table_placement};
use crate::oracle::KEY_LEN;
use crate::{audit_enabled, Violation};

/// Parameters of one fault-injection run. Everything is derived from
/// `seed`, so a report is reproducible from its config alone.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// SplitMix64 seed driving the whole schedule.
    pub seed: u64,
    /// Number of top-level schedule steps.
    pub ops: usize,
    /// Key universe size.
    pub key_space: u16,
    /// Per-step probability of force-evicting a random table line.
    pub evict_chance: f64,
    /// Lookups issued back-to-back at one cycle in a stall burst
    /// (against a scoreboard of depth 4, so bursts must stall).
    pub stall_burst: usize,
    /// Engine lookups run inside each preempted move window, between
    /// `cuckoo_move_begin` and `cuckoo_move_commit`.
    pub move_window: usize,
    /// Table implementation under attack.
    pub backend: TableBackend,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            ops: 400,
            key_space: 512,
            evict_chance: 0.2,
            stall_burst: 24,
            move_window: 4,
            backend: TableBackend::Cuckoo,
        }
    }
}

/// What a fault-injection run did and found.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// Schedule steps executed.
    pub ops: usize,
    /// Table lines forcibly evicted (locks and residency dropped).
    pub forced_evictions: usize,
    /// Stall bursts issued.
    pub stall_bursts: usize,
    /// Scoreboard stalls the accelerators actually recorded.
    pub scoreboard_stalls: u64,
    /// Two-phase moves preempted by lookups/evictions mid-window.
    pub preempted_moves: usize,
    /// Invariant violations from the final audit (empty on success).
    pub violations: Vec<Violation>,
}

fn key(k: u16) -> FlowKey {
    FlowKey::synthetic(u64::from(k), KEY_LEN)
}

/// Runs the adversarial schedule described by `cfg` against the table
/// implementation `cfg.backend` selects.
///
/// # Errors
///
/// Returns a message naming the step and op if any lookup path
/// (software, `LOOKUP_B`, `LOOKUP_NB`, `SNAPSHOT_READ`) ever disagrees
/// with the model map, or if a per-op audit (when
/// [`audit_enabled`](crate::audit_enabled)) reports a violation.
/// Final-audit violations are returned in the report instead, so tests
/// can assert on them explicitly.
pub fn run_fault_injection(cfg: &FaultConfig) -> Result<FaultReport, String> {
    let mut sys = MemorySystem::new(MachineConfig::small());
    let mut t = cfg.backend.create(sys.data_mut(), 1 << 9, KEY_LEN);
    let mut rng = SplitMix64::new(cfg.seed);
    let accel_cfg = AcceleratorConfig {
        scoreboard_depth: 4,
        ..AcceleratorConfig::default()
    };
    let mut engine = HaloEngine::new(&sys, accel_cfg);
    let table_lines: Vec<Addr> = t.warm_lines();
    let dest = sys.data_mut().alloc_lines(64);
    let mut model: HashMap<u16, u64> = HashMap::new();
    let mut now = Cycle(0);
    let cores = sys.config().cores;

    let mut report = FaultReport {
        ops: cfg.ops,
        forced_evictions: 0,
        stall_bursts: 0,
        scoreboard_stalls: 0,
        preempted_moves: 0,
        violations: Vec::new(),
    };

    for i in 0..cfg.ops {
        if rng.chance(cfg.evict_chance) {
            let victim = table_lines[rng.below(table_lines.len() as u64) as usize];
            sys.force_evict(victim);
            report.forced_evictions += 1;
        }

        let k = rng.below(u64::from(cfg.key_space)) as u16;
        match rng.below(10) {
            0..=2 => {
                let v = rng.below(1 << 40);
                // Backends with placement constraints (EMOMA's cascade
                // budget) may reject a fresh insert; the model skips it
                // too. Updates of present keys must always succeed.
                if t.insert(sys.data_mut(), &key(k), v).is_ok() {
                    model.insert(k, v);
                } else if model.contains_key(&k) {
                    return Err(format!("step {i}: update of present key {k} rejected"));
                }
            }
            3 => {
                let got = t.remove(sys.data_mut(), &key(k));
                let want = model.remove(&k);
                if got != want {
                    return Err(format!(
                        "step {i}: remove({k}) returned {got:?}, oracle says {want:?}"
                    ));
                }
            }
            4 => {
                // Queue stall burst: flood one cycle with blocking
                // lookups; the depth-4 scoreboard must stall, and every
                // result must still match the oracle.
                report.stall_bursts += 1;
                let mut done = now;
                for j in 0..cfg.stall_burst {
                    let bk = rng.below(u64::from(cfg.key_space)) as u16;
                    let (got, d) =
                        engine.lookup_b(&mut sys, CoreId(j % cores), &t, &key(bk), None, now);
                    let want = model.get(&bk).copied();
                    if got != want {
                        return Err(format!(
                            "step {i}: burst lookup({bk}) returned {got:?}, oracle says {want:?}"
                        ));
                    }
                    done = done.max(d);
                }
                now = done;
            }
            5 => {
                // Mid-displacement preemption: begin a two-phase move,
                // then hammer the moving key (and bystanders) through
                // the engine and optionally evict a table line before
                // committing. Only lookups may enter the window — the
                // hardware lock bit is what serializes writers on real
                // HALO.
                if let Some(mv) = t.cuckoo_move_begin(sys.data_mut(), &key(k)) {
                    report.preempted_moves += 1;
                    for w in 0..cfg.move_window {
                        if rng.chance(0.5) {
                            let victim = table_lines[rng.below(table_lines.len() as u64) as usize];
                            sys.force_evict(victim);
                            report.forced_evictions += 1;
                        }
                        let probe = if w % 2 == 0 {
                            k
                        } else {
                            rng.below(u64::from(cfg.key_space)) as u16
                        };
                        let want = model.get(&probe).copied();
                        let sw = t.lookup(sys.data_mut(), &key(probe));
                        let (hw, d) = engine.lookup_b(
                            &mut sys,
                            CoreId(w % cores),
                            &t,
                            &key(probe),
                            None,
                            now,
                        );
                        if sw != want || hw != want {
                            return Err(format!(
                                "step {i}: mid-move lookup({probe}) sw {sw:?} hw {hw:?}, \
                                 oracle says {want:?}"
                            ));
                        }
                        now = d;
                    }
                    t.cuckoo_move_commit(sys.data_mut(), mv);
                    let got = t.lookup(sys.data_mut(), &key(k));
                    let want = model.get(&k).copied();
                    if got != want {
                        return Err(format!(
                            "step {i}: post-commit lookup({k}) returned {got:?}, \
                             oracle says {want:?}"
                        ));
                    }
                }
            }
            _ => {
                let want = model.get(&k).copied();
                let (b, done_b) =
                    engine.lookup_b(&mut sys, CoreId(i % cores), &t, &key(k), None, now);
                let h =
                    engine.lookup_nb(&mut sys, CoreId(i % cores), &t, &key(k), None, dest, done_b);
                let (word, done_s) =
                    engine.snapshot_read(&mut sys, CoreId(i % cores), dest, h.result_at);
                if b != want || h.result != want || HaloEngine::decode_nb(word) != Some(want) {
                    return Err(format!(
                        "step {i}: lookup({k}) B {b:?} NB {:?} snapshot {:?}, oracle says {want:?}",
                        h.result,
                        HaloEngine::decode_nb(word)
                    ));
                }
                now = done_s.max(h.result_at);
            }
        }

        // Software cross-check after every step, faults and all.
        let sw = t.lookup(sys.data_mut(), &key(k));
        let want = model.get(&k).copied();
        if sw != want {
            return Err(format!(
                "step {i}: post-step lookup({k}) returned {sw:?}, oracle says {want:?}"
            ));
        }

        now += Cycles(8);
        sys.hw_unlock_expired(now);
        if audit_enabled() {
            if let Some(v) = audit_system(&sys, now)
                .into_iter()
                .chain(audit_exact(&t, sys.data_mut()))
                .next()
            {
                return Err(format!("step {i}: audit violation: {v}"));
            }
        }
    }

    sys.hw_unlock_expired(now);
    report.scoreboard_stalls = engine
        .accelerators()
        .iter()
        .map(halo_accel::HaloAccelerator::scoreboard_stalls)
        .sum();
    report.violations = audit_system(&sys, now);
    report.violations.extend(audit_exact(&t, sys.data_mut()));
    report.violations.extend(audit_table_placement(&t, &sys));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_sim::point_seed;

    #[test]
    fn default_schedule_survives_faults() {
        let cfg = FaultConfig {
            seed: point_seed("fault.smoke", 0),
            ops: 120,
            ..FaultConfig::default()
        };
        let report = run_fault_injection(&cfg).expect("oracle must agree under faults");
        assert!(report.forced_evictions > 0, "schedule never evicted");
        assert_eq!(report.violations, vec![], "auditor found violations");
    }

    #[test]
    fn every_backend_survives_faults() {
        for (i, backend) in TableBackend::all().into_iter().enumerate() {
            let cfg = FaultConfig {
                seed: point_seed("fault.backends", i as u64),
                ops: 120,
                backend,
                ..FaultConfig::default()
            };
            let report = run_fault_injection(&cfg)
                .unwrap_or_else(|e| panic!("{} diverged under faults: {e}", backend.name()));
            assert!(
                report.forced_evictions > 0,
                "{} schedule never evicted",
                backend.name()
            );
            assert_eq!(
                report.violations,
                vec![],
                "auditor found violations on {}",
                backend.name()
            );
        }
    }

    #[test]
    fn report_is_reproducible_from_config() {
        let cfg = FaultConfig {
            seed: point_seed("fault.repro", 0),
            ops: 80,
            ..FaultConfig::default()
        };
        let a = run_fault_injection(&cfg).unwrap();
        let b = run_fault_injection(&cfg).unwrap();
        assert_eq!(a.forced_evictions, b.forced_evictions);
        assert_eq!(a.stall_bursts, b.stall_bursts);
        assert_eq!(a.preempted_moves, b.preempted_moves);
        assert_eq!(a.scoreboard_stalls, b.scoreboard_stalls);
    }
}
