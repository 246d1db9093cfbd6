//! Integration tests for the threaded cluster: the Section 3 protocol
//! under real concurrency.

use radd_node::NodeCluster;
use radd_protocol::ClientErr;

const BLOCK: usize = 64;

fn block(tag: u8) -> Vec<u8> {
    vec![tag; BLOCK]
}

#[test]
fn write_read_roundtrip_across_all_sites() {
    let mut cluster = NodeCluster::start(4, 12, BLOCK);
    for site in 0..cluster.num_sites() {
        let cap = cluster.client().geometry().data_capacity(site);
        for idx in 0..cap.min(4) {
            let data = vec![(site * 16 + idx as usize + 1) as u8; BLOCK];
            cluster.client().write(site, idx, &data).unwrap();
            assert_eq!(cluster.client().read(site, idx).unwrap(), data);
        }
    }
    cluster.client().verify_parity().unwrap();
    cluster.shutdown();
}

#[test]
fn degraded_read_reconstructs_from_survivors() {
    let mut cluster = NodeCluster::start(4, 12, BLOCK);
    let data = block(9);
    cluster.client().write(2, 0, &data).unwrap();
    cluster.kill_site(2);
    assert_eq!(cluster.client().read(2, 0).unwrap(), data, "reconstructed");
    // Second read comes from the installed spare.
    assert_eq!(cluster.client().read(2, 0).unwrap(), data, "spare-served");
    cluster.shutdown();
}

#[test]
fn write_while_down_survives_recovery() {
    let mut cluster = NodeCluster::start(4, 12, BLOCK);
    let v1 = block(1);
    let v2 = block(2);
    cluster.client().write(3, 1, &v1).unwrap();
    cluster.kill_site(3);
    cluster.client().write(3, 1, &v2).unwrap(); // W1' via the spare
    assert_eq!(cluster.client().read(3, 1).unwrap(), v2);
    cluster.revive_site(3);
    let drained = cluster.client().recover(3).unwrap();
    assert_eq!(drained, 1);
    assert_eq!(
        cluster.client().read(3, 1).unwrap(),
        v2,
        "served locally again"
    );
    cluster.client().verify_parity().unwrap();
    cluster.shutdown();
}

#[test]
fn untouched_blocks_survive_temporary_failure() {
    let mut cluster = NodeCluster::start(4, 12, BLOCK);
    let data = block(5);
    cluster.client().write(0, 2, &data).unwrap();
    cluster.kill_site(0);
    cluster.revive_site(0);
    cluster.client().recover(0).unwrap();
    assert_eq!(cluster.client().read(0, 2).unwrap(), data);
    cluster.shutdown();
}

#[test]
fn out_of_range_and_bad_size_rejected() {
    let mut cluster = NodeCluster::start(4, 12, BLOCK);
    let cap = cluster.client().geometry().data_capacity(0);
    assert_eq!(
        cluster.client().read(0, cap).unwrap_err(),
        ClientErr::OutOfRange
    );
    assert_eq!(
        cluster.client().write(0, 0, &[1, 2, 3]).unwrap_err(),
        ClientErr::BadSize
    );
    cluster.shutdown();
}

#[test]
fn paper_g8_shape_works_threaded() {
    let mut cluster = NodeCluster::start(8, 20, BLOCK);
    assert_eq!(cluster.num_sites(), 10);
    let data = block(7);
    cluster.client().write(5, 0, &data).unwrap();
    cluster.kill_site(5);
    assert_eq!(cluster.client().read(5, 0).unwrap(), data);
    cluster.revive_site(5);
    cluster.client().recover(5).unwrap();
    cluster.client().verify_parity().unwrap();
    cluster.shutdown();
}

#[test]
fn many_writes_keep_parity_consistent_under_concurrency() {
    // Writes to different sites proceed concurrently at the site threads
    // (each write is acked only after its parity ack), and the final state
    // must satisfy the stripe invariant.
    let mut cluster = NodeCluster::start(4, 12, BLOCK);
    for round in 0..5u8 {
        for site in 0..cluster.num_sites() {
            let data = vec![round * 40 + site as u8 + 1; BLOCK];
            cluster
                .client()
                .write(site, (round % 4) as u64, &data)
                .unwrap();
        }
    }
    cluster.client().verify_parity().unwrap();
    cluster.shutdown();
}

#[test]
fn concurrent_clients_on_distinct_blocks_stay_consistent() {
    // Two real client threads hammer different blocks concurrently; the
    // sites serialise their own disks and the parity stream stays
    // consistent because each data site computes its masks serially.
    let (mut cluster, mut extra) = NodeCluster::start_multi(4, 12, BLOCK, 2);
    let mut other = extra.remove(0);
    let writer = std::thread::spawn(move || {
        for round in 0..20u8 {
            for site in 0..3 {
                other
                    .write(site, 0, &[round.wrapping_mul(3) + 1; BLOCK])
                    .unwrap();
            }
        }
        other
    });
    for round in 0..20u8 {
        for site in 3..6 {
            cluster
                .client()
                .write(site, 1, &[round.wrapping_mul(5) + 2; BLOCK])
                .unwrap();
        }
    }
    writer.join().unwrap();
    cluster.client().verify_parity().unwrap();
    // Final contents are the last writes.
    for site in 0..3 {
        assert_eq!(
            cluster.client().read(site, 0).unwrap(),
            vec![19u8 * 3 + 1; BLOCK]
        );
    }
    for site in 3..6 {
        assert_eq!(
            cluster.client().read(site, 1).unwrap(),
            vec![19u8 * 5 + 2; BLOCK]
        );
    }
    cluster.shutdown();
}

#[test]
fn concurrent_clients_same_parity_site_interleave_safely() {
    // All writes in one physical row share a parity site; two clients
    // writing different data blocks of the same row exercise interleaved
    // parity updates at that one site. The stripe must stay consistent.
    let (mut cluster, mut extra) = NodeCluster::start_multi(4, 12, BLOCK, 2);
    let mut other = extra.remove(0);
    // Row 0: data sites are 2, 3, 4, 5 (parity 0, spare 1); indices 0 at
    // each of those sites map to row 0.
    let t = std::thread::spawn(move || {
        for round in 0..30u8 {
            other.write(2, 0, &[round + 1; BLOCK]).unwrap();
            other.write(4, 0, &[round + 101; BLOCK]).unwrap();
        }
        other
    });
    for round in 0..30u8 {
        cluster.client().write(3, 0, &[round + 51; BLOCK]).unwrap();
        cluster.client().write(5, 0, &[round + 151; BLOCK]).unwrap();
    }
    t.join().unwrap();
    cluster.client().verify_parity().unwrap();
    cluster.shutdown();
}
