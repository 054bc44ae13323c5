//! # halo-power
//!
//! Analytical on-die power and area models for the hardware flow
//! classification approaches the paper compares in §6.4 / Table 4.
//!
//! The paper derives these numbers with McPAT and CACTI plus the
//! Agrawal–Sherwood TCAM model; here the same quantities are produced by
//! a calibrated analytical model:
//!
//! * **TCAM** — calibrated to the paper's four Table-4 points
//!   (1 KB … 1 MB), log-log interpolated in between (TCAM power grows
//!   super-linearly with capacity because match-line energy scales with
//!   rows x width).
//! * **SRAM-TCAM** — ~45% less power and ~57% less area than TCAM of
//!   equal capacity (§6.4, following Z-TCAM).
//! * **HALO** — a fixed, tiny per-accelerator budget: 0.012 tiles,
//!   97.2 mW static, 1.76 nJ/query.
//!
//! # Examples
//!
//! ```
//! use halo_power::{halo_accelerator_model, tcam_model};
//!
//! let tcam_1mb = tcam_model(1 << 20);
//! let halo = halo_accelerator_model();
//! assert!(tcam_1mb.static_mw / halo.static_mw > 100.0);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

/// Power and area budget of one hardware block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerArea {
    /// Die area in "tiles" (the paper's unit: one tile = one core +
    /// private caches + LLC slice footprint).
    pub area_tiles: f64,
    /// Static (leakage) power in milliwatts.
    pub static_mw: f64,
    /// Dynamic energy per query in nanojoules.
    pub dynamic_nj_per_query: f64,
}

impl PowerArea {
    /// Total energy in joules for running `queries` lookups over
    /// `seconds` of wall-clock time.
    #[must_use]
    pub fn energy_joules(&self, seconds: f64, queries: f64) -> f64 {
        self.static_mw * 1e-3 * seconds + self.dynamic_nj_per_query * 1e-9 * queries
    }

    /// Queries per joule at a sustained `queries_per_sec` rate — the
    /// energy-efficiency metric behind the paper's "48.2x" claim.
    #[must_use]
    pub fn queries_per_joule(&self, queries_per_sec: f64) -> f64 {
        let watts = self.static_mw * 1e-3 + self.dynamic_nj_per_query * 1e-9 * queries_per_sec;
        queries_per_sec / watts
    }

    /// Scales the block by an integer count (e.g. 16 HALO accelerators).
    #[must_use]
    pub fn scaled(&self, n: u32) -> PowerArea {
        PowerArea {
            area_tiles: self.area_tiles * f64::from(n),
            static_mw: self.static_mw * f64::from(n),
            dynamic_nj_per_query: self.dynamic_nj_per_query,
        }
    }
}

/// The paper's Table 4 calibration points for TCAM:
/// `(capacity bytes, area tiles, static mW, dynamic nJ/query)`.
pub const TCAM_TABLE4: [(u64, f64, f64, f64); 4] = [
    (1 << 10, 0.001, 71.1, 0.04),
    (10 * (1 << 10), 0.066, 235.3, 0.37),
    (100 * (1 << 10), 1.044, 3850.5, 13.84),
    (1 << 20, 9.343, 26733.1, 84.82),
];

/// Per-accelerator HALO budget (Table 4).
#[must_use]
pub fn halo_accelerator_model() -> PowerArea {
    PowerArea {
        area_tiles: 0.012,
        static_mw: 97.2,
        dynamic_nj_per_query: 1.76,
    }
}

/// Whole-chip HALO budget for `slices` accelerators.
#[must_use]
pub fn halo_total(slices: u32) -> PowerArea {
    halo_accelerator_model().scaled(slices)
}

fn loglog_interp(capacity: f64, points: &[(f64, f64)]) -> f64 {
    debug_assert!(points.len() >= 2);
    let x = capacity.ln();
    // Clamp outside the calibrated range by extending the end segments.
    let seg = points
        .windows(2)
        .find(|w| capacity <= w[1].0)
        .unwrap_or(&points[points.len() - 2..]);
    let (x0, y0) = (seg[0].0.ln(), seg[0].1.ln());
    let (x1, y1) = (seg[1].0.ln(), seg[1].1.ln());
    let t = (x - x0) / (x1 - x0);
    (y0 + t * (y1 - y0)).exp()
}

/// TCAM power/area for an arbitrary capacity in bytes, interpolating the
/// Table 4 calibration points on a log-log scale.
///
/// # Panics
///
/// Panics if `capacity_bytes == 0`.
#[must_use]
pub fn tcam_model(capacity_bytes: u64) -> PowerArea {
    assert!(capacity_bytes > 0, "zero-capacity TCAM");
    let c = capacity_bytes as f64;
    let area: Vec<(f64, f64)> = TCAM_TABLE4.iter().map(|p| (p.0 as f64, p.1)).collect();
    let stat: Vec<(f64, f64)> = TCAM_TABLE4.iter().map(|p| (p.0 as f64, p.2)).collect();
    let dyn_: Vec<(f64, f64)> = TCAM_TABLE4.iter().map(|p| (p.0 as f64, p.3)).collect();
    PowerArea {
        area_tiles: loglog_interp(c, &area),
        static_mw: loglog_interp(c, &stat),
        dynamic_nj_per_query: loglog_interp(c, &dyn_),
    }
}

/// SRAM-TCAM: same functional capacity, ~45% lower power and ~57% lower
/// area than TCAM (§6.4).
#[must_use]
pub fn sram_tcam_model(capacity_bytes: u64) -> PowerArea {
    let t = tcam_model(capacity_bytes);
    PowerArea {
        area_tiles: t.area_tiles * (1.0 - 0.57),
        static_mw: t.static_mw * (1.0 - 0.45),
        dynamic_nj_per_query: t.dynamic_nj_per_query * (1.0 - 0.45),
    }
}

/// TCAM capacity (bytes) needed to store `rules` 5-tuple rules. The
/// paper notes 1 MB holds ~100 K 5-tuple rules, i.e. ~10 B/rule
/// (13 B key + mask, TCAM-encoded).
#[must_use]
pub fn tcam_capacity_for_rules(rules: u64) -> u64 {
    (rules * (1 << 20) / 100_000).max(1 << 10)
}

/// Energy-efficiency ratio of HALO (at `halo_qps`) versus a TCAM sized
/// for `rules` rules (at `tcam_qps`): how many times more queries per
/// joule HALO delivers.
#[must_use]
pub fn halo_vs_tcam_efficiency(slices: u32, halo_qps: f64, rules: u64, tcam_qps: f64) -> f64 {
    let halo = halo_total(slices).queries_per_joule(halo_qps);
    let tcam = tcam_model(tcam_capacity_for_rules(rules)).queries_per_joule(tcam_qps);
    halo / tcam
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_points_are_exact() {
        for &(cap, area, stat, dynq) in &TCAM_TABLE4 {
            let m = tcam_model(cap);
            assert!((m.area_tiles - area).abs() / area < 1e-9, "area at {cap}");
            assert!((m.static_mw - stat).abs() / stat < 1e-9, "static at {cap}");
            assert!(
                (m.dynamic_nj_per_query - dynq).abs() / dynq < 1e-9,
                "dynamic at {cap}"
            );
        }
    }

    #[test]
    fn interpolation_is_monotone() {
        let mut last = 0.0;
        for kb in [1u64, 2, 5, 10, 50, 100, 500, 1024] {
            let m = tcam_model(kb << 10);
            assert!(m.static_mw > last, "non-monotone at {kb}KB");
            last = m.static_mw;
        }
    }

    #[test]
    fn sram_tcam_discounts_match_paper() {
        let t = tcam_model(1 << 20);
        let s = sram_tcam_model(1 << 20);
        assert!((s.static_mw / t.static_mw - 0.55).abs() < 1e-9);
        assert!((s.area_tiles / t.area_tiles - 0.43).abs() < 1e-9);
    }

    #[test]
    fn halo_area_is_trivial_fraction() {
        // 16 accelerators: ~0.19 tiles on a 16-tile chip = ~1.2% (§6.4).
        let total = halo_total(16);
        assert!((total.area_tiles - 0.192).abs() < 1e-9);
        assert!(total.area_tiles / 16.0 < 0.02);
    }

    #[test]
    fn halo_beats_tcam_efficiency_by_large_factor() {
        // 100K rules => 1MB TCAM. Assume TCAM sustains 2.1 G lookups/s
        // (1/cycle) and HALO 16 accelerators sustain ~1 lookup / 40cy
        // each ~= 840 M/s.
        let ratio = halo_vs_tcam_efficiency(16, 840e6, 100_000, 2.1e9);
        assert!(
            ratio > 5.0 && ratio < 100.0,
            "efficiency ratio {ratio} out of plausible band (paper: up to 48.2x)"
        );
    }

    #[test]
    fn energy_accounting() {
        let m = halo_accelerator_model();
        // 1 second at zero queries: static only.
        let e = m.energy_joules(1.0, 0.0);
        assert!((e - 0.0972).abs() < 1e-9);
        // Adding queries adds dynamic energy.
        assert!(m.energy_joules(1.0, 1e9) > e);
    }

    #[test]
    fn capacity_for_rules_scales() {
        assert_eq!(tcam_capacity_for_rules(100_000), 1 << 20);
        assert!(tcam_capacity_for_rules(10) >= 1 << 10);
        assert!(tcam_capacity_for_rules(1_000_000) > tcam_capacity_for_rules(100_000));
    }

    #[test]
    fn scaled_multiplies_static_not_dynamic() {
        let one = halo_accelerator_model();
        let four = one.scaled(4);
        assert!((four.static_mw - 4.0 * one.static_mw).abs() < 1e-9);
        assert!((four.dynamic_nj_per_query - one.dynamic_nj_per_query).abs() < 1e-12);
    }
}
