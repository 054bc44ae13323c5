//! Machine configuration, calibrated to the paper's gem5 setup (Table 2)
//! and the latency observations of §3–§4.

use halo_sim::Cycles;

/// Geometry of one set-associative cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheGeometry {
    /// Number of sets given 64-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not yield a power-of-two, non-zero set
    /// count.
    #[must_use]
    pub fn sets(&self) -> usize {
        let lines = self.capacity / crate::addr::CACHE_LINE;
        let sets = lines as usize / self.ways;
        assert!(sets > 0 && sets.is_power_of_two(), "bad cache geometry");
        sets
    }
}

/// Full machine configuration.
///
/// Defaults reproduce the paper's simulated CPU (Table 2): 16 OoO cores at
/// 2.1 GHz, 32 KB 8-way L1D, 1 MB 16-way L2, 32 MB shared LLC in 16 NUCA
/// slices, 20 MSHRs, 128/128/192 LQ/SQ/ROB entries, DDR4-2400.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of cores (each with private L1D and L2). At most 16: the
    /// LLC directory keeps a 16-bit sharer mask per line, and
    /// [`MemorySystem::new`](crate::MemorySystem::new) refuses more.
    pub cores: usize,
    /// Number of NUCA LLC slices (= number of CHAs = number of HALO
    /// accelerators).
    pub slices: usize,
    /// Private L1 data cache geometry.
    pub l1d: CacheGeometry,
    /// Private (non-inclusive victim in Skylake; modeled private inclusive
    /// here) L2 geometry.
    pub l2: CacheGeometry,
    /// Geometry of *one* LLC slice.
    pub llc_slice: CacheGeometry,
    /// L1D hit latency.
    pub l1_latency: Cycles,
    /// L2 hit latency (total, from issue).
    pub l2_latency: Cycles,
    /// LLC slice array access latency (excluding interconnect hops).
    pub llc_latency: Cycles,
    /// Per-hop latency on the on-chip interconnect.
    pub hop_latency: Cycles,
    /// Average DRAM access latency.
    pub dram_latency: Cycles,
    /// Number of independent DRAM channels.
    pub dram_channels: usize,
    /// Extra latency to pull a Modified line out of a remote core's
    /// private cache (the paper's §3.4: "more than 100 cycles").
    pub dirty_snoop_latency: Cycles,
    /// Latency for a CHA-attached accelerator to reach its *local* slice
    /// array. The paper reports near-cache access is ~4.1x faster than a
    /// core reaching LLC.
    pub accel_local_latency: Cycles,
    /// Miss-status-holding registers per core (bounds memory-level
    /// parallelism).
    pub mshrs: usize,
    /// Reorder-buffer entries (bounds the OoO scheduling window).
    pub rob: usize,
    /// Load-queue entries.
    pub lq: usize,
    /// Store-queue entries.
    pub sq: usize,
    /// Issue width of the core (micro-ops per cycle).
    pub issue_width: usize,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            cores: 16,
            slices: 16,
            l1d: CacheGeometry {
                capacity: 32 * 1024,
                ways: 8,
            },
            l2: CacheGeometry {
                capacity: 1024 * 1024,
                ways: 16,
            },
            llc_slice: CacheGeometry {
                capacity: 2 * 1024 * 1024, // 32 MB / 16 slices
                ways: 16,
            },
            l1_latency: Cycles(4),
            l2_latency: Cycles(14),
            llc_latency: Cycles(34),
            hop_latency: Cycles(2),
            dram_latency: Cycles(200),
            dram_channels: 6,
            dirty_snoop_latency: Cycles(100),
            accel_local_latency: Cycles(10),
            mshrs: 20,
            rob: 192,
            lq: 128,
            sq: 128,
            issue_width: 4,
        }
    }
}

impl MachineConfig {
    /// A small machine (4 cores / 4 slices, scaled-down caches) for fast
    /// unit tests.
    #[must_use]
    pub fn small() -> Self {
        MachineConfig {
            cores: 4,
            slices: 4,
            l1d: CacheGeometry {
                capacity: 8 * 1024,
                ways: 4,
            },
            l2: CacheGeometry {
                capacity: 64 * 1024,
                ways: 8,
            },
            llc_slice: CacheGeometry {
                capacity: 256 * 1024,
                ways: 16,
            },
            ..MachineConfig::default()
        }
    }

    /// Average interconnect distance (in hops) between a core and a slice,
    /// assuming a bidirectional ring of `slices` stops: `slices / 4` on
    /// average.
    #[must_use]
    pub fn avg_hops(&self) -> u64 {
        (self.slices as u64 / 4).max(1)
    }

    /// Average uncore latency for a core to reach an LLC slice: array
    /// access plus average interconnect traversal (both directions folded
    /// into the hop count).
    #[must_use]
    pub fn avg_core_to_llc(&self) -> Cycles {
        Cycles(self.llc_latency.0 + 2 * self.avg_hops() * self.hop_latency.0)
    }

    /// Total LLC capacity across slices.
    #[must_use]
    pub fn llc_capacity(&self) -> u64 {
        self.llc_slice.capacity * self.slices as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table2() {
        let c = MachineConfig::default();
        assert_eq!(c.cores, 16);
        assert_eq!(c.slices, 16);
        assert_eq!(c.l1d.sets(), 64);
        assert_eq!(c.l2.sets(), 1024);
        assert_eq!(c.llc_slice.sets(), 2048);
        assert_eq!(c.llc_capacity(), 32 * 1024 * 1024);
        assert_eq!(c.mshrs, 20);
        assert_eq!(c.rob, 192);
    }

    #[test]
    fn llc_round_trip_near_paper_values() {
        let c = MachineConfig::default();
        // Core→LLC should land in the ~34-50 cycle band typical of
        // Skylake-SP uncore latencies.
        let l = c.avg_core_to_llc().0;
        assert!((30..=60).contains(&l), "core-to-llc {l}");
        // Accelerator-local access must be several times faster; the paper
        // reports 4.1x.
        assert!(l / c.accel_local_latency.0 >= 3);
    }

    #[test]
    fn small_config_is_consistent() {
        let c = MachineConfig::small();
        assert_eq!(c.l1d.sets(), 32);
        assert!(c.cores == 4 && c.slices == 4);
    }
}
