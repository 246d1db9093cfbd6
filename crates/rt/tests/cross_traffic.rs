//! Cross-traffic stress for the site lock, under a watchdog.
//!
//! A socket site handles a message on the reader thread that read it,
//! under the site lock, and sends the effects before it lets go
//! (DESIGN.md §12, "Thread model"). The benchmark never has more than two
//! callers, so this is where that design meets many: alone in its file,
//! because it loads the machine enough to upset the timing of anything
//! run beside it.

use radd_protocol::CoalescePolicy;
use radd_rt::SocketCluster;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// Twelve callers write full blocks to a few shared rows with the target
/// site rotating per op, so every site is at once a data site sending
/// parity updates and a parity site sending acks, to every other site, in
/// both directions, each under its own site lock. No write may fail, and
/// the whole run must end inside the wall bound.
#[test]
fn cross_traffic_from_twelve_callers_neither_deadlocks_nor_loses_a_write() {
    const CALLERS: usize = 12;
    const G: usize = 4;
    const BIG: usize = 256 * 1024;
    const SHARED_ROWS: u64 = 4;
    const WRITE_FOR: Duration = Duration::from_secs(3);
    const WALL_BOUND: Duration = Duration::from_secs(90);

    let (done_tx, done_rx) = mpsc::channel();
    thread::spawn(move || {
        let (mut cluster, callers) =
            SocketCluster::start_with(G, 48, BIG, CALLERS + 1, CoalescePolicy::Merge);
        let sites = cluster.num_sites();
        let workers: Vec<_> = callers
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                thread::spawn(move || {
                    let started = Instant::now();
                    let (mut ops, mut worst) = (0u64, Duration::ZERO);
                    while started.elapsed() < WRITE_FOR {
                        let site = (c + ops as usize) % sites;
                        let index = (c as u64 + ops / 7) % SHARED_ROWS;
                        let block = vec![(c as u8) ^ (ops as u8); BIG];
                        let asked = Instant::now();
                        client
                            .write(site, index, &block)
                            .unwrap_or_else(|e| panic!("caller {c} op {ops}: {e}"));
                        worst = worst.max(asked.elapsed());
                        ops += 1;
                    }
                    (ops, worst)
                })
            })
            .collect();
        let (mut ops, mut worst) = (0, Duration::ZERO);
        for w in workers {
            let (n, slowest) = w.join().expect("no write failed");
            ops += n;
            worst = worst.max(slowest);
        }
        cluster.quiesce(Duration::from_secs(30)).expect("quiesce");
        cluster.client().verify_parity().expect("parity");
        let obs = cluster.obs_snapshot();
        let busy: u64 = (obs.machines.iter())
            .map(|m| m.metrics.site_busy_arrivals)
            .sum();
        let timed: u64 = (obs.machines.iter())
            .flat_map(|m| &m.metrics.site_lock_wait_us)
            .map(|bucket| bucket.n)
            .sum();
        assert_eq!(timed, busy, "every busy arrival's wait lands in a bucket");
        cluster.shutdown();
        let _ = done_tx.send((ops, worst, busy));
    });
    let (ops, worst, busy) = done_rx
        .recv_timeout(WALL_BOUND)
        .expect("the run ended inside the wall bound with every write acknowledged");
    println!("{ops} writes from {CALLERS} callers, slowest {worst:?}, {busy} busy arrivals");
    assert!(ops > 0);
    assert!(
        busy > 0,
        "twelve callers never met at a site: the lock was not exercised"
    );
}
