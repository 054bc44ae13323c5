//! Fig. 9: single hash-table lookup throughput across table sizes and
//! occupancy rates, for all five approaches, normalized to software.

use crate::experiments::harness::{Approach, SingleTableWorkload};
use halo_sim::{fmt_f64, point_seed, SweepPoint, SweepRunner, TextTable};

/// One measured cell of Fig. 9.
#[derive(Debug, Clone, Copy)]
pub struct Fig9Cell {
    /// Table capacity in entries.
    pub entries: u64,
    /// Fill fraction.
    pub occupancy: f64,
    /// The approach measured.
    pub approach: Approach,
    /// Lookups per kilocycle.
    pub throughput: f64,
    /// Throughput normalized to software at the same size/occupancy.
    pub normalized: f64,
}

/// One sweep point: a (size, occupancy) group measuring all five
/// approaches over the same workload seed, so normalization to the
/// group's software throughput stays fair.
#[derive(Debug, Clone, Copy)]
struct Fig9Point {
    entries: u64,
    occupancy: f64,
    lookups: u64,
    seed: u64,
}

impl SweepPoint for Fig9Point {
    type Row = Vec<Fig9Cell>;

    fn run(&self) -> Vec<Fig9Cell> {
        let mut out = Vec::with_capacity(5);
        let mut sw_thr = 0.0;
        for approach in Approach::all() {
            let mut w = SingleTableWorkload::new(self.entries, self.occupancy, self.seed);
            let thr = w.throughput(approach, self.lookups);
            if approach == Approach::Software {
                sw_thr = thr;
            }
            out.push(Fig9Cell {
                entries: self.entries,
                occupancy: self.occupancy,
                approach,
                throughput: thr,
                normalized: if sw_thr > 0.0 { thr / sw_thr } else { 0.0 },
            });
        }
        out
    }

    fn label(&self) -> String {
        format!(
            "2^{} entries, {}% full",
            self.entries.trailing_zeros(),
            (self.occupancy * 100.0) as u32
        )
    }
}

/// Runs the sweep with the default parallelism (`HALO_JOBS`, then host
/// cores). `quick` restricts table sizes to <= 2^18 entries and fewer
/// lookups (the full sweep reaches the paper's 2^24).
#[must_use]
pub fn run(quick: bool) -> Vec<Fig9Cell> {
    // Full mode tops out at 2^21 entries (~150 MB of table, already
    // 5x the 32 MB LLC, i.e. deep in the paper's partially-cached
    // regime); the paper's 2^24 point costs ~15M inserts per approach
    // and adds no new cache regime — raise the constant if you want it.
    let sizes: Vec<u64> = if quick {
        vec![1 << 3, 1 << 6, 1 << 9, 1 << 12, 1 << 15, 1 << 18]
    } else {
        vec![1 << 3, 1 << 6, 1 << 9, 1 << 12, 1 << 15, 1 << 18, 1 << 21]
    };
    let lookups: u64 = if quick { 300 } else { 1000 };
    let mut points = Vec::new();
    for &entries in &sizes {
        // Sweep occupancy at a representative mid size; elsewhere use
        // the paper's common 50% fill to bound runtime.
        let occupancies: &[f64] = if entries == 1 << 12 && !quick {
            &[0.25, 0.5, 0.75, 0.9]
        } else if quick {
            &[0.5]
        } else {
            &[0.25, 0.9]
        };
        for &occ in occupancies {
            points.push(Fig9Point {
                entries,
                occupancy: occ,
                lookups,
                seed: point_seed("fig9", points.len() as u64),
            });
        }
    }
    SweepRunner::from_env("fig9")
        .run(points)
        .into_iter()
        .flatten()
        .collect()
}

/// A tiny deterministic slice of the sweep (2^3..2^9 entries at 50%
/// fill, 60 lookups each) for the tier-1 `SweepRunner` determinism
/// guard: it exercises the same point/merge path as the full sweep but
/// completes in well under a second, so it can be run at several job
/// counts and compared byte-for-byte.
#[must_use]
pub fn run_small_slice(runner: &SweepRunner) -> Vec<Fig9Cell> {
    let points: Vec<Fig9Point> = [1u64 << 3, 1 << 6, 1 << 9]
        .iter()
        .enumerate()
        .map(|(i, &entries)| Fig9Point {
            entries,
            occupancy: 0.5,
            lookups: 60,
            seed: point_seed("fig9", i as u64),
        })
        .collect();
    runner.run(points).into_iter().flatten().collect()
}

/// Formats the sweep as a table (one row per size/occupancy, one column
/// per approach, normalized to software — the paper's presentation).
#[must_use]
pub fn table(cells: &[Fig9Cell]) -> TextTable {
    let mut t = TextTable::new(vec![
        "entries",
        "occupancy",
        "Software",
        "HALO-B",
        "HALO-NB",
        "TCAM",
        "SRAM-TCAM",
    ]);
    let mut i = 0;
    while i < cells.len() {
        let group = &cells[i..(i + 5).min(cells.len())];
        let mut row = vec![
            format!("2^{}", group[0].entries.trailing_zeros()),
            format!("{}%", (group[0].occupancy * 100.0) as u32),
        ];
        for c in group {
            row.push(format!(
                "{} ({}x)",
                fmt_f64(c.throughput),
                fmt_f64(c.normalized)
            ));
        }
        t.row(row);
        i += 5;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick sweep reproduces the paper's qualitative claims:
    /// HALO 2-4x software on LLC-resident tables; software competitive
    /// at tiny tables; TCAM fastest everywhere.
    #[test]
    fn quick_sweep_shapes() {
        let cells = run(true);
        let get = |entries: u64, a: Approach| {
            cells
                .iter()
                .find(|c| c.entries == entries && c.approach == a)
                .copied()
                .expect("cell present")
        };
        // Large LLC-resident table: HALO wins clearly.
        let hb = get(1 << 15, Approach::HaloBlocking);
        assert!(
            hb.normalized > 1.8,
            "HALO-B at 2^15 only {}x",
            hb.normalized
        );
        assert!(hb.normalized < 6.0, "HALO-B implausible {}x", hb.normalized);
        // Tiny table: software within 40% of HALO (paper: software wins
        // below ~10 entries).
        let tiny = get(1 << 3, Approach::HaloBlocking);
        assert!(
            tiny.normalized < 1.6,
            "software should be competitive at 8 entries: {}x",
            tiny.normalized
        );
        // TCAM is the fastest approach at every size.
        for &e in &[1u64 << 3, 1 << 9, 1 << 15] {
            let tc = get(e, Approach::Tcam).throughput;
            for a in [
                Approach::Software,
                Approach::HaloBlocking,
                Approach::HaloNonBlocking,
            ] {
                assert!(tc >= get(e, a).throughput, "TCAM not fastest at {e}");
            }
        }
        // Non-blocking vs blocking for single-table lookups: the paper
        // reports NB <= 5.3% worse because its cores saturate the
        // accelerator in both modes; our single-core issue model lets
        // NB overlap queries, so NB lands modestly ahead instead
        // (documented divergence in EXPERIMENTS.md).
        let nb = get(1 << 15, Approach::HaloNonBlocking);
        let ratio = nb.throughput / hb.throughput;
        assert!(ratio > 0.8 && ratio < 5.5, "NB/B ratio {ratio} out of band");
    }
}
