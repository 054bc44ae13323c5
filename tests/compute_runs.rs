//! `Program::compute_run` against the per-uop builder: a run of `n`
//! dependency-free computes must schedule exactly like `n` calls of
//! `compute(latency, &[])`, on the classic memory system and on an
//! epoch shard, including when a ROB predecessor binds a member.

use halo_nfv::cpu::{CoreModel, ExecReport, Program, UopId};
use halo_nfv::mem::{Addr, CoreId, CoreMem, EpochCore, MachineConfig, MemorySystem};
use halo_nfv::sim::{Cycle, SplitMix64};

/// One step of a generated program.
#[derive(Debug, Clone)]
enum Op {
    Load(Addr, Vec<UopId>),
    Store(Addr, Vec<UopId>),
    Compute(u64, Vec<UopId>),
    /// `count` dependency-free computes of the given latency.
    Run(u64, usize),
}

impl Op {
    fn uops(&self) -> usize {
        match self {
            Op::Run(_, n) => *n,
            _ => 1,
        }
    }
}

/// Lines in the data region: 4 MiB, four times the small machine's
/// LLC, so cold loads go to DRAM and their completions bind the ROB.
const LINES: u64 = 1 << 16;

/// A seeded program: runs first and last, latencies 1-60 (above
/// `rob / issue_width` = 48 a run's own members bind the ROB), run
/// lengths 0, 1, short, and longer than the ROB, between loads, stores
/// and dependent computes over hot lines and lines beyond L2.
fn generate(rng: &mut SplitMix64, base: Addr) -> Vec<Op> {
    let pieces = 2 + rng.below(40);
    let mut ops = Vec::new();
    let mut len = 0usize;
    for piece in 0..pieces {
        let run = piece == 0 || piece + 1 == pieces || rng.below(3) == 0;
        let op = if run {
            let latency = match rng.below(3) {
                0 => 1 + rng.below(60),
                1 => 47 + rng.below(4),
                _ => 1,
            };
            let count = match rng.below(5) {
                0 => 0,
                1 => 1,
                2 => 2 + rng.below(40),
                3 => 193 + rng.below(300),
                _ => 2 + rng.below(8),
            };
            Op::Run(latency, count as usize)
        } else {
            let deps: Vec<UopId> = (0..rng.below(4).min(len as u64))
                .map(|_| (len - 1 - rng.below(len.min(8) as u64) as usize) as UopId)
                .collect();
            let line = if rng.below(2) == 0 {
                rng.below(32)
            } else {
                rng.below(LINES)
            };
            let addr = base + line * 64;
            match rng.below(4) {
                0 => Op::Store(addr, deps),
                1 => Op::Compute(1 + rng.below(60), deps),
                _ => Op::Load(addr, deps),
            }
        };
        len += op.uops();
        ops.push(op);
    }
    ops
}

/// Builds `ops` into `p`, runs as `compute_run` entries or uop by uop.
fn build(ops: &[Op], runs: bool, p: &mut Program) {
    p.clear();
    for op in ops {
        match op {
            Op::Load(a, deps) => {
                p.load(*a, deps);
            }
            Op::Store(a, deps) => {
                p.store(*a, deps);
            }
            Op::Compute(lat, deps) => {
                p.compute(*lat, deps);
            }
            Op::Run(lat, n) if runs => p.compute_run(*lat, *n),
            Op::Run(lat, n) => {
                for _ in 0..*n {
                    p.compute(*lat, &[]);
                }
            }
        }
    }
}

/// What one side of the comparison observed.
#[derive(Debug, PartialEq)]
struct Outcome {
    reports: Vec<ExecReport>,
    ready_at: Cycle,
    stats: String,
}

fn stats(sys: &MemorySystem) -> String {
    let mut rows: Vec<(String, u64)> = sys
        .stats()
        .counters()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    rows.sort();
    format!("{rows:?}")
}

/// Runs `programs` back to back on core 0 of `mem`, each issued at a
/// seeded time that may fall before the core's ready time.
fn drive<M: CoreMem>(
    core: &mut CoreModel,
    mem: &mut M,
    programs: &[Vec<Op>],
    runs: bool,
    seed: u64,
) -> Vec<ExecReport> {
    let mut rng = SplitMix64::new(seed);
    let mut p = Program::new();
    programs
        .iter()
        .map(|ops| {
            build(ops, runs, &mut p);
            let at = Cycle((core.ready_at().0 + rng.below(200)).saturating_sub(100));
            core.run(&p, mem, at)
        })
        .collect()
}

/// One side on the classic system, then on a one-core epoch shard
/// merged back.
fn execute(programs: &[Vec<Op>], runs: bool, seed: u64) -> (Outcome, Outcome) {
    let mut sys = MemorySystem::new(MachineConfig::small());
    sys.data_mut().alloc_lines(64 * LINES);
    let mut core = CoreModel::new(CoreId(0), sys.config());
    let reports = drive(&mut core, &mut sys, programs, runs, seed);
    let classic = Outcome {
        reports,
        ready_at: core.ready_at(),
        stats: stats(&sys),
    };

    let mut sys = MemorySystem::new(MachineConfig::small());
    sys.data_mut().alloc_lines(64 * LINES);
    let mut shard_core = CoreModel::new(CoreId(0), sys.config());
    let mut fleet = sys.epoch_split(1);
    let reports = drive(&mut shard_core, &mut fleet[0], programs, runs, seed);
    let out = fleet.into_iter().map(EpochCore::finish).collect();
    sys.epoch_merge(out);
    let epoch = Outcome {
        reports,
        ready_at: shard_core.ready_at(),
        stats: stats(&sys),
    };
    (classic, epoch)
}

#[test]
fn runs_schedule_like_single_uops() {
    let base = MemorySystem::new(MachineConfig::small())
        .data_mut()
        .alloc_lines(64 * LINES);
    for seed in 0..24u64 {
        let mut rng = SplitMix64::new(0xc0de ^ seed);
        let programs: Vec<Vec<Op>> = (0..12).map(|_| generate(&mut rng, base)).collect();
        let (classic, epoch) = execute(&programs, true, seed);
        let (want_classic, want_epoch) = execute(&programs, false, seed);
        assert_eq!(
            classic, want_classic,
            "seed {seed}: classic system diverged"
        );
        assert_eq!(epoch, want_epoch, "seed {seed}: epoch shard diverged");
    }
}
