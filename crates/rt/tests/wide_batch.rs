//! A batch wider than the client's attempt budget, against a healthy site.
//!
//! The client ladder's `exchange_batch` keeps one attempt budget per site
//! for the whole batch. It once spent an attempt on every request it
//! *waited* for, timed out or not, and re-sent from the second one on: the
//! thirteenth entry for one site failed with a synthesised `Timeout`
//! although the site had answered everything, so `SocketClient::recover`
//! failed as soon as a spare site held more than `attempts` blocks for the
//! revived one, and most of a batch crossed the wire twice. The budget
//! counts expired windows only and a reply refills it. The ladder's unit
//! tests pin the rule on a scripted transport; this is the same drain over
//! real sockets.
//!
//! The batch is driven through the public surface: a recovery drain probes
//! every slot a spare site holds for the revived site in one wave, restores
//! them in a second and releases them in a third. With G = 1 every data
//! block of a site has the same spare site, so the waves are as wide as the
//! number of blocks written while the site was down.

use radd_net::RetryPolicy;
use radd_rt::SocketCluster;
use std::time::Duration;

const G: usize = 1;
const ROWS: u64 = 150;
const BLOCK: usize = 64;
const VICTIM: usize = 0;

fn payload(i: u64) -> Vec<u8> {
    vec![i as u8 + 1; BLOCK]
}

#[test]
fn recovery_drain_wider_than_the_attempt_budget_succeeds_without_resends() {
    let width = u64::from(RetryPolicy::CLIENT_ATTEMPT.attempts) * 3 + 4;
    let mut cluster = SocketCluster::start(G, ROWS, BLOCK);
    let geo = *cluster.client().geometry();
    assert!(geo.data_capacity(VICTIM) >= width);
    let spare_sites: std::collections::BTreeSet<usize> = (0..width)
        .map(|i| geo.spare_site(geo.data_to_physical(VICTIM, i)))
        .collect();
    assert_eq!(
        spare_sites.len(),
        1,
        "G = 1 puts every block of a site behind one spare site"
    );

    cluster.kill_site(VICTIM);
    for i in 0..width {
        cluster
            .client()
            .write(VICTIM, i, &payload(i))
            .unwrap_or_else(|e| panic!("degraded write {i}: {e}"));
    }
    cluster.quiesce(Duration::from_secs(10)).expect("quiesce");

    cluster.revive_site(VICTIM);
    let drained = cluster
        .client()
        .recover(VICTIM)
        .expect("a healthy spare site answers a drain of any width");
    assert_eq!(drained, width);
    for i in 0..width {
        assert_eq!(cluster.client().read(VICTIM, i).expect("read"), payload(i));
    }
    cluster.quiesce(Duration::from_secs(10)).expect("quiesce");
    cluster.client().verify_parity().expect("parity");

    let client = cluster.client().obs_snapshot();
    assert_eq!(
        client.metrics.retransmits, 0,
        "every site answered every pipelined request; nothing to resend"
    );
    cluster.shutdown();
}
