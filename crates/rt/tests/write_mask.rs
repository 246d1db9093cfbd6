//! Writes given as change masks against live socket sites.
//!
//! A socket client sends a sparse rewrite of a block it wrote as the change
//! mask against what its write left there; the site takes it only while
//! that write is the last it applied to the block. These tests make the
//! base go stale the two ways a deployment does, another client writing
//! the block and a restart of the site, and check that the mask is refused
//! `StaleBase`, that the write then lands whole, and that every stripe's
//! parity is still the XOR of its data. Without the base check the first
//! would XOR the mask into the other client's block.

use radd_protocol::CoalescePolicy;
use radd_rt::SocketCluster;
use radd_storage::StorageSpec;
use std::time::Duration;

const G: usize = 2;
const ROWS: u64 = 8;
const BLOCK: usize = 4096;

/// `base` with `len` bytes from `at` changed.
fn sparse(base: &[u8], at: usize, len: usize) -> Vec<u8> {
    let mut new = base.to_vec();
    for b in &mut new[at..at + len] {
        *b = b.wrapping_add(0x11);
    }
    new
}

/// (sent as masks, sent as blocks, stale bases) of a client's snapshot.
fn paths(snapshot: &radd_obs::MachineSnapshot) -> (u64, u64, u64) {
    let m = &snapshot.metrics;
    (m.writes_as_masks, m.writes_as_blocks, m.stale_bases)
}

#[test]
fn a_block_another_client_wrote_is_written_whole() {
    let (mut cluster, mut extra) =
        SocketCluster::start_with(G, ROWS, BLOCK, 2, CoalescePolicy::Merge);
    let mut b = extra.remove(0);
    let x = vec![0xA1; BLOCK];
    cluster.client().write(0, 1, &x).expect("A writes");
    b.write(0, 1, &vec![0xB2; BLOCK]).expect("B writes");
    let x2 = sparse(&x, 128, 128);
    cluster.client().write(0, 1, &x2).expect("A rewrites");
    assert_eq!(paths(&cluster.client().obs_snapshot()), (1, 2, 1));
    assert_eq!(b.read(0, 1).expect("B reads"), x2);
    // A's whole write is its base now: the next sparse one is a mask.
    let x3 = sparse(&x2, 1000, 128);
    cluster.client().write(0, 1, &x3).expect("A rewrites again");
    assert_eq!(paths(&cluster.client().obs_snapshot()), (2, 2, 1));
    assert_eq!(b.read(0, 1).expect("B reads"), x3);
    cluster
        .quiesce(Duration::from_secs(10))
        .expect("parity acked");
    cluster.client().verify_parity().expect("parity holds");
    let site = cluster.obs_snapshot();
    let site0 = site.machine("site 0").expect("site 0's snapshot");
    assert_eq!(
        (site0.metrics.masks_applied, site0.metrics.masks_refused),
        (1, 1)
    );
    cluster.shutdown();
}

#[test]
fn a_restarted_site_takes_the_next_write_whole() {
    let dir = std::env::temp_dir().join(format!("radd-write-mask-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let storage = StorageSpec::Disk { dir: dir.clone() };
    let (mut cluster, _) =
        SocketCluster::start_durable(G, ROWS, BLOCK, 1, CoalescePolicy::Merge, &storage);
    let x = vec![0x3C; BLOCK];
    cluster.client().write(1, 0, &x).expect("write");
    let x2 = sparse(&x, 0, 64);
    cluster.client().write(1, 0, &x2).expect("a mask");
    cluster
        .quiesce(Duration::from_secs(10))
        .expect("parity acked");
    assert!(cluster.kill_restart_site(1), "a disk site restarts");
    let x3 = sparse(&x2, 4000, 96);
    cluster
        .client()
        .write(1, 0, &x3)
        .expect("after the restart");
    assert_eq!(paths(&cluster.client().obs_snapshot()), (2, 2, 1));
    assert_eq!(cluster.client().read(1, 0).expect("read"), x3);
    cluster
        .quiesce(Duration::from_secs(10))
        .expect("parity acked");
    cluster.client().verify_parity().expect("parity holds");
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
