//! Section 4: building RADD groups from sites with unequal disk systems.
//!
//! Eight machines with wildly different disk counts and sizes get carved
//! into uniform logical drives and assigned to groups, each group spanning
//! distinct sites — then one group is brought up as a live RADD and
//! exercised.
//!
//! ```sh
//! cargo run --example nonuniform_cluster
//! ```

use radd::layout::chunk_logical_drives;
use radd::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Heterogeneous fleet: blocks of capacity per site (per §4, disk *sizes*
    // reduce to counts by chunking into logical drives of B blocks).
    let blocks_per_site: [u64; 8] = [2400, 2400, 1800, 1800, 1200, 1200, 600, 600];
    let chunk = 600; // B = 600 blocks per logical drive
    let drives = chunk_logical_drives(&blocks_per_site, chunk)?;
    println!("logical drives per site (B = {chunk} blocks): {drives:?}");

    // Groups of G + 2 = 4 drives, all on distinct sites.
    let width = 4;
    let groups = assign_groups(&drives, width)?;
    println!("\n{} groups of {} drives:", groups.len(), width);
    for (i, g) in groups.iter().enumerate() {
        let members: Vec<String> = g
            .iter()
            .map(|d| format!("site{}#drive{}", d.site, d.drive))
            .collect();
        println!("  group {i}: {}", members.join(", "));
        // §4's guarantee: all drives of a group on different sites.
        let mut sites: Vec<_> = g.iter().map(|d| d.site).collect();
        sites.sort_unstable();
        sites.dedup();
        assert_eq!(sites.len(), width);
    }

    // Bring up group 0 as a live RADD: 4 sites, G = 2, 600 rows each.
    let cfg = RaddConfig {
        group_size: width - 2,
        rows: chunk,
        disks_per_site: 1,
        block_size: 512,
        cost: CostParams::paper_defaults(),
        spare_policy: SparePolicy::OnePerParity,
    };
    let mut cluster = RaddCluster::new(cfg)?;
    let payload = vec![0xAB; 512];
    for site in 0..width {
        cluster.write(Actor::Site(site), site, 0, &payload)?;
    }
    cluster.fail_site(1);
    let (got, receipt) = cluster.read(Actor::Client, 1, 0)?;
    assert_eq!(&got[..], &payload[..]);
    println!(
        "\ngroup 0 live: survived a site failure, read cost {} = {} ms",
        receipt.counts.formula(),
        receipt.latency.as_millis()
    );
    cluster.restore_site(1);
    cluster.run_recovery(1)?;
    cluster.verify_parity().expect("stripe invariant");
    println!("recovered and verified ✓");
    Ok(())
}
