//! End-to-end integration across crates: transactions over a failing
//! cluster, partitions, retransmission under message loss, storage managers feeding the
//! §3.4 comparison, and the threaded network substrate.

use radd::net::{PartitionMap, ThreadedNet};
use radd::prelude::*;
use std::time::Duration;

const BLOCK: usize = 256;

fn small_cluster() -> RaddCluster {
    let mut cfg = RaddConfig::small_g4();
    cfg.block_size = BLOCK;
    RaddCluster::new(cfg).unwrap()
}

#[test]
fn transactions_interleaved_with_failures_preserve_atomicity() {
    let mut cluster = small_cluster();
    let a0 = vec![10u8; BLOCK];
    let b0 = vec![20u8; BLOCK];
    // Committed base state.
    let mut t = DistributedTxn::begin(1);
    t.write(&mut cluster, Actor::Site(0), 0, 0, &a0).unwrap();
    t.write(&mut cluster, Actor::Site(1), 1, 0, &b0).unwrap();
    t.commit(&mut cluster).unwrap();

    // A transaction writes one leg, then aborts while a site is down:
    // the abort must undo through the spare.
    let mut t = DistributedTxn::begin(2);
    t.write(&mut cluster, Actor::Site(0), 0, 0, &vec![11u8; BLOCK])
        .unwrap();
    cluster.fail_site(0);
    t.abort(&mut cluster).unwrap();
    let (got, _) = cluster.read(Actor::Client, 0, 0).unwrap();
    assert_eq!(&got[..], &a0[..], "abort undone via the spare");

    cluster.restore_site(0);
    cluster.run_recovery(0).unwrap();
    cluster.verify_parity().unwrap();
    let (got, _) = cluster.read(Actor::Site(0), 0, 0).unwrap();
    assert_eq!(&got[..], &a0[..]);
}

#[test]
fn partition_then_heal_with_recovery() {
    let mut cluster = small_cluster();
    let data = vec![5u8; BLOCK];
    cluster.write(Actor::Site(4), 4, 0, &data).unwrap();

    // Isolate site 4: §5 single-failure-like. The majority writes "its"
    // block via the spare.
    cluster.set_partition(PartitionMap::isolate(6, 4));
    let newer = vec![6u8; BLOCK];
    cluster.write(Actor::Client, 4, 0, &newer).unwrap();
    assert!(matches!(
        cluster.read(Actor::Site(4), 4, 0),
        Err(RaddError::ActorIsolated { site: 4 })
    ));

    // Heal: the site rejoins as recovering (its local copy is stale) —
    // model via explicit state transition, then recover.
    cluster.set_partition(PartitionMap::connected(6));
    cluster.fail_site(4); // formally mark the stale period
    cluster.restore_site(4);
    cluster.run_recovery(4).unwrap();
    let (got, receipt) = cluster.read(Actor::Site(4), 4, 0).unwrap();
    assert_eq!(
        &got[..],
        &newer[..],
        "partition-era write visible after heal"
    );
    assert_eq!(receipt.counts.formula(), "R");
    cluster.verify_parity().unwrap();
}

#[test]
fn reliable_channel_gates_the_done_reply() {
    // §5 + §6: the slave may reply `done` only once its parity-update
    // messages are acknowledged; over a lossy network that takes
    // retransmissions (the site machines' own stop-and-wait), and a write
    // is acknowledged to the client only behind them.
    // 25% loss: inside what the client's 12-attempt ladder is sized for.
    let mut cluster = NodeCluster::start(4, 12, BLOCK);
    cluster.set_loss(250, 1234);
    for i in 0..10u64 {
        let (site, index) = ((i % 4) as usize, i / 4);
        cluster
            .client()
            .write(site, index, &vec![i as u8 + 1; BLOCK])
            .unwrap();
    }
    cluster.quiesce(Duration::from_secs(30)).unwrap();
    assert!(
        cluster.all_acked(),
        "retransmission drove everything through"
    );
    cluster.set_loss(0, 0);
    cluster.client().verify_parity().unwrap();
    assert!(cluster.dropped_messages() > 0, "the burst dropped messages");
    assert!(
        cluster.obs_snapshot().total_retransmits() > 0,
        "loss forced retransmissions"
    );
    cluster.shutdown();
}

#[test]
fn threaded_sites_serve_remote_reads() {
    // The crossbeam-backed network: one thread per site answering block
    // requests — real concurrency over the same substrate types.
    #[derive(Debug)]
    enum Msg {
        Read { block: u64, reply_to: usize },
        Value { block: u64, data: Vec<u8> },
        Stop,
    }
    use radd::blockdev::{BlockDevice, MemDisk};

    let n = 4;
    let (_control, mut endpoints) = ThreadedNet::<Msg>::new(n);
    let client = endpoints.remove(0);
    let mut handles = Vec::new();
    for ep in endpoints {
        handles.push(std::thread::spawn(move || {
            let mut disk = MemDisk::new(16, 64);
            for b in 0..16u64 {
                disk.write_block(b, &[ep.id() as u8 * 16 + b as u8; 64])
                    .unwrap();
            }
            loop {
                match ep.recv_timeout(Duration::from_secs(5)) {
                    Ok(inbound) => match inbound.payload {
                        Msg::Read { block, reply_to } => {
                            let data = disk.read_block(block).unwrap().to_vec();
                            ep.send(reply_to, Msg::Value { block, data }).unwrap();
                        }
                        Msg::Stop => return,
                        Msg::Value { .. } => unreachable!("sites never get replies"),
                    },
                    Err(_) => return,
                }
            }
        }));
    }
    // The client reads one block from every site.
    for site in 1..n {
        client
            .send(
                site,
                Msg::Read {
                    block: 3,
                    reply_to: 0,
                },
            )
            .unwrap();
    }
    let mut got = 0;
    while got < n - 1 {
        let m = client.recv_timeout(Duration::from_secs(5)).unwrap();
        if let Msg::Value { block, data } = m.payload {
            assert_eq!(block, 3);
            assert_eq!(data[0], m.src as u8 * 16 + 3);
            got += 1;
        }
    }
    for site in 1..n {
        client.send(site, Msg::Stop).unwrap();
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn storage_manager_over_radd_blocks_survives_site_loss() {
    // Compose the layers: a no-overwrite manager whose committed pages are
    // mirrored into a RADD cluster; the site dies; pages come back from
    // parity.
    let mut cluster = small_cluster();
    let mut store = NoOverwriteManager::new(8, BLOCK);
    let txn = store.begin().unwrap();
    for p in 0..4u64 {
        let page = vec![p as u8 + 1; BLOCK];
        store.write(txn, p, &page).unwrap();
        // Each stable version write is a RADD block write at site 2.
        cluster.write(Actor::Site(2), 2, p, &page).unwrap();
    }
    store.commit(txn).unwrap();

    cluster.disaster(2);
    for p in 0..4u64 {
        let (got, _) = cluster.read(Actor::Client, 2, p).unwrap();
        assert_eq!(&got[..], &store.committed(p).unwrap()[..], "page {p}");
    }
}

#[test]
fn group_assignment_feeds_real_clusters() {
    // §4 pipeline: heterogeneous fleet → logical drives → groups → one live
    // cluster per group.
    let drives = radd::layout::chunk_logical_drives(&[300, 300, 200, 200, 100, 100], 100).unwrap();
    let groups = assign_groups(&drives, 4).unwrap();
    assert_eq!(groups.len(), 3);
    for group in &groups {
        let cfg = RaddConfig {
            group_size: 2,
            rows: 12,
            disks_per_site: 1,
            block_size: 64,
            cost: CostParams::paper_defaults(),
            spare_policy: SparePolicy::OnePerParity,
        };
        let mut cluster = RaddCluster::new(cfg).unwrap();
        for site in 0..group.len() {
            cluster
                .write(Actor::Site(site), site, 0, &[site as u8 + 1; 64])
                .unwrap();
        }
        cluster.verify_parity().unwrap();
    }
}
