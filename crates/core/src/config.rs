//! Cluster configuration.

use radd_sim::CostParams;
use serde::{Deserialize, Serialize};

// The §7.2 spare-allocation policy is protocol state (the client machine
// decides degraded paths by it), so it lives in `radd-protocol`; re-exported
// here for configuration ergonomics and backwards compatibility.
pub use radd_protocol::SparePolicy;

/// Static configuration of a [`RaddCluster`].
///
/// [`RaddCluster`]: crate::RaddCluster
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RaddConfig {
    /// Group size `G`; the cluster has `G + 2` sites.
    pub group_size: usize,
    /// Physical block rows per site (ideally a multiple of `G + 2`).
    pub rows: u64,
    /// Disks per site `N`; `rows` must divide evenly across them.
    pub disks_per_site: usize,
    /// Block size in bytes.
    pub block_size: usize,
    /// Cost parameters for the operation ledger.
    pub cost: CostParams,
    /// Spare allocation policy.
    pub spare_policy: SparePolicy,
}

impl RaddConfig {
    /// The paper's evaluation shape: `G = 8` (10 sites), 10 disks per site,
    /// 4 KB blocks, Table-1 costs, one spare per parity block.
    pub fn paper_g8() -> RaddConfig {
        RaddConfig {
            group_size: 8,
            rows: 100, // 10 rows per disk × 10 disks
            disks_per_site: 10,
            block_size: 4096,
            cost: CostParams::paper_defaults(),
            spare_policy: SparePolicy::OnePerParity,
        }
    }

    /// A small cluster for unit tests: `G = 4` (6 sites, the Figure 1
    /// shape), 1 disk per site, tiny blocks.
    pub fn small_g4() -> RaddConfig {
        RaddConfig {
            group_size: 4,
            rows: 12,
            disks_per_site: 1,
            block_size: 64,
            cost: CostParams::paper_defaults(),
            spare_policy: SparePolicy::OnePerParity,
        }
    }

    /// Number of sites `G + 2`.
    pub fn num_sites(&self) -> usize {
        self.group_size + 2
    }

    /// Blocks per disk.
    pub fn blocks_per_disk(&self) -> u64 {
        self.rows / self.disks_per_site as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_shape() {
        let c = RaddConfig::paper_g8();
        assert_eq!(c.num_sites(), 10);
        assert_eq!(c.blocks_per_disk(), 10);
        assert_eq!(c.cost.local_read.as_millis(), 30);
    }

    #[test]
    fn spare_fraction_policy() {
        let p = SparePolicy::Fraction {
            numerator: 1,
            denominator: 4,
        };
        let spared: Vec<u64> = (0..12).filter(|&r| p.has_spare(r)).collect();
        assert_eq!(spared, vec![0, 4, 8]);
        assert!(SparePolicy::OnePerParity.has_spare(99));
        assert!(!SparePolicy::None.has_spare(0));
        // Space overhead at G = 8: full spares 25 %, none 12.5 %, half ~18.75 %.
        assert_eq!(SparePolicy::OnePerParity.space_overhead(8), 0.25);
        assert_eq!(SparePolicy::None.space_overhead(8), 0.125);
        assert_eq!(
            SparePolicy::Fraction {
                numerator: 1,
                denominator: 2
            }
            .space_overhead(8),
            0.1875
        );
    }

    #[test]
    fn small_shape() {
        let c = RaddConfig::small_g4();
        assert_eq!(c.num_sites(), 6);
        assert_eq!(c.blocks_per_disk(), 12);
    }
}
