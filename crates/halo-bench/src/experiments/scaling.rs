//! Multi-core datapath scaling (the paper's "scalable packet
//! processing" claim): aggregate classification throughput as PMD
//! threads grow from 1 to 16 over a shared MegaFlow layer, software vs
//! HALO non-blocking, with and without rule churn from a revalidator.

use halo_accel::{AcceleratorConfig, HaloEngine};
use halo_mem::{MachineConfig, MemorySystem};
use halo_sim::{fmt_f64, point_seed, SweepPoint, SweepRunner, TextTable};
use halo_vswitch::{LookupBackend, MultiCoreDatapath, StreamReport};

/// One scaling data point.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    /// PMD threads.
    pub cores: usize,
    /// Lookup backend.
    pub backend: LookupBackend,
    /// Rule-churn interval (0 = none).
    pub churn: u64,
    /// The measured report.
    pub report: StreamReport,
}

fn measure(
    cores: usize,
    backend: LookupBackend,
    packets: u64,
    churn: u64,
    seed: u64,
) -> StreamReport {
    let mut sys = MemorySystem::new(MachineConfig::default());
    let mut engine = HaloEngine::new(&sys, AcceleratorConfig::default());
    let mut dp = MultiCoreDatapath::new(&mut sys, cores, 5, 4_000, backend, seed);
    let e = match backend {
        LookupBackend::Software => None,
        _ => Some(&mut engine),
    };
    dp.run(&mut sys, e, packets, churn)
}

/// One sweep point: a (cores, backend, churn) configuration with its
/// own simulated machine (each `MultiCoreDatapath` run is independent).
#[derive(Debug, Clone, Copy)]
struct ScalingSweep {
    cores: usize,
    backend: LookupBackend,
    churn: u64,
    packets: u64,
    seed: u64,
}

impl SweepPoint for ScalingSweep {
    type Row = ScalingPoint;

    fn run(&self) -> ScalingPoint {
        ScalingPoint {
            cores: self.cores,
            backend: self.backend,
            churn: self.churn,
            report: measure(
                self.cores,
                self.backend,
                self.packets,
                self.churn,
                self.seed,
            ),
        }
    }

    fn label(&self) -> String {
        format!(
            "{} cores, {:?}, churn {}",
            self.cores, self.backend, self.churn
        )
    }
}

/// Runs the scaling sweep on an explicit runner.
#[must_use]
pub fn run_with(quick: bool, runner: &SweepRunner) -> Vec<ScalingPoint> {
    let packets: u64 = if quick { 400 } else { 1500 };
    let core_counts: &[usize] = if quick { &[1, 4, 8] } else { &[1, 2, 4, 8, 16] };
    let mut points = Vec::new();
    for &cores in core_counts {
        for backend in [LookupBackend::Software, LookupBackend::HaloNonBlocking] {
            for churn in [0u64, 16] {
                points.push(ScalingSweep {
                    cores,
                    backend,
                    churn,
                    packets,
                    seed: point_seed("scaling", points.len() as u64),
                });
            }
        }
    }
    runner.run(points)
}

/// Runs the scaling sweep with default parallelism.
#[must_use]
pub fn run(quick: bool) -> Vec<ScalingPoint> {
    run_with(quick, &SweepRunner::from_env("scaling"))
}

/// Formats the sweep.
#[must_use]
pub fn table(points: &[ScalingPoint]) -> TextTable {
    let mut t = TextTable::new(vec![
        "cores",
        "backend",
        "churn",
        "throughput (pkts/kcy)",
        "dirty transfers",
    ]);
    for p in points {
        t.row(vec![
            p.cores.to_string(),
            format!("{:?}", p.backend),
            if p.churn == 0 {
                "none".into()
            } else {
                format!("1/{}", p.churn)
            },
            fmt_f64(p.report.throughput_per_kcy),
            p.report.dirty_transfers.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_shapes() {
        let pts = run(true);
        let get = |cores: usize, backend: LookupBackend, churn: u64| {
            pts.iter()
                .find(|p| p.cores == cores && p.backend == backend && p.churn == churn)
                .copied()
                .expect("point present")
        };
        // Both backends scale with cores.
        let sw1 = get(1, LookupBackend::Software, 0).report.throughput_per_kcy;
        let sw8 = get(8, LookupBackend::Software, 0).report.throughput_per_kcy;
        assert!(sw8 > 3.0 * sw1, "software should scale: {sw1} -> {sw8}");
        let nb1 = get(1, LookupBackend::HaloNonBlocking, 0)
            .report
            .throughput_per_kcy;
        let nb8 = get(8, LookupBackend::HaloNonBlocking, 0)
            .report
            .throughput_per_kcy;
        assert!(nb8 > 3.0 * nb1, "HALO should scale: {nb1} -> {nb8}");
        // HALO leads at every core count.
        for &c in &[1usize, 4, 8] {
            let sw = get(c, LookupBackend::Software, 0).report.throughput_per_kcy;
            let nb = get(c, LookupBackend::HaloNonBlocking, 0)
                .report
                .throughput_per_kcy;
            assert!(nb > sw, "HALO must lead at {c} cores: {nb} vs {sw}");
        }
        // Churn generates coherence traffic for the software datapath.
        let calm = get(8, LookupBackend::Software, 0).report.dirty_transfers;
        let churny = get(8, LookupBackend::Software, 16).report.dirty_transfers;
        assert!(churny >= calm, "churn traffic: {churny} vs {calm}");
    }
}
