//! End-to-end protocol tests for the RADD cluster, including exact checks
//! of the paper's Figure 3 operation-count formulas and Figure 4 latencies.

use radd_core::{
    Actor, OpCounts, RaddCluster, RaddConfig, RaddError, RecoveryReport, SiteState, SparePolicy,
};
use radd_net::PartitionMap;
use radd_protocol::loopback::{Hook, Loopback};
use radd_protocol::{
    ClientErr, ClientMachine, Dest, Effect, MemBlocks, Msg, MsgKind, ObsEvent, SiteMachine,
};

fn cluster_g4() -> RaddCluster {
    RaddCluster::new(RaddConfig::small_g4()).unwrap()
}

fn cluster_g8() -> RaddCluster {
    let mut cfg = RaddConfig::paper_g8();
    cfg.block_size = 256; // keep tests fast
    RaddCluster::new(cfg).unwrap()
}

fn block(cluster: &RaddCluster, tag: u8) -> Vec<u8> {
    vec![tag; cluster.config().block_size]
}

/// Run `site`'s recovery daemon from zeroed stats with machine traces on:
/// its report, the background counts it charged (it charges nothing in the
/// foreground), and how many `RestoreBlock`s the client machine sent `site`.
/// The daemon leaves no drain lock behind.
fn recover_traced(c: &mut RaddCluster, site: usize) -> (RecoveryReport, OpCounts, usize) {
    c.reset_stats();
    c.record_machine_traces(true);
    let report = c.run_recovery(site).unwrap();
    let restores = c.take_machine_traces()[0]
        .iter()
        .filter(|e| {
            matches!(e, ObsEvent::Send { to: Dest::Site(s), kind: MsgKind::RestoreBlock, .. }
                if *s == site)
        })
        .count();
    assert_eq!(c.ledger().foreground, OpCounts::ZERO);
    assert_eq!(
        c.locks().locked_blocks(),
        0,
        "a drain lock outlived recovery"
    );
    (report, c.ledger().background, restores)
}

// ---------------------------------------------------------------------
// Normal operation (Figure 3 rows 1–2)
// ---------------------------------------------------------------------

#[test]
fn no_failure_read_costs_r() {
    let mut c = cluster_g8();
    let data = block(&c, 7);
    c.write(Actor::Site(0), 0, 3, &data).unwrap();
    let (got, receipt) = c.read(Actor::Site(0), 0, 3).unwrap();
    assert_eq!(&got[..], &data[..]);
    assert_eq!(receipt.counts.formula(), "R");
    assert_eq!(receipt.latency.as_millis(), 30); // Figure 4
}

#[test]
fn no_failure_write_costs_w_plus_rw() {
    let mut c = cluster_g8();
    let receipt = c.write(Actor::Site(2), 2, 0, &block(&c, 9)).unwrap();
    assert_eq!(receipt.counts.formula(), "W+RW");
    assert_eq!(receipt.latency.as_millis(), 105); // Figure 4: 30 + 75
}

#[test]
fn write_then_read_roundtrip_all_sites() {
    let mut c = cluster_g4();
    for site in 0..6 {
        for idx in 0..c.data_capacity(site) {
            let data = vec![(site as u8) * 16 + idx as u8 + 1; c.config().block_size];
            c.write(Actor::Site(site), site, idx, &data).unwrap();
        }
    }
    for site in 0..6 {
        for idx in 0..c.data_capacity(site) {
            let want = vec![(site as u8) * 16 + idx as u8 + 1; c.config().block_size];
            let (got, _) = c.read(Actor::Site(site), site, idx).unwrap();
            assert_eq!(&got[..], &want[..], "site {site} idx {idx}");
        }
    }
    c.verify_parity().unwrap();
}

#[test]
fn parity_invariant_after_repeated_overwrites() {
    let mut c = cluster_g4();
    for round in 0..5u8 {
        for site in 0..6 {
            let data = vec![round.wrapping_mul(31).wrapping_add(site as u8); 64];
            c.write(Actor::Site(site), site, 1, &data).unwrap();
        }
        c.verify_parity().unwrap();
    }
}

#[test]
fn out_of_range_and_wrong_size_rejected() {
    let mut c = cluster_g4();
    let cap = c.data_capacity(0);
    assert!(matches!(
        c.read(Actor::Client, 0, cap).unwrap_err(),
        RaddError::OutOfRange { .. }
    ));
    assert!(matches!(
        c.write(Actor::Client, 0, 0, &[1, 2, 3]).unwrap_err(),
        RaddError::WrongBlockSize { .. }
    ));
}

// ---------------------------------------------------------------------
// Site failure (Figure 3 rows 6–7)
// ---------------------------------------------------------------------

#[test]
fn site_failure_first_read_costs_g_rr() {
    let mut c = cluster_g8();
    let data = block(&c, 5);
    c.write(Actor::Site(4), 4, 2, &data).unwrap();
    c.fail_site(4);
    c.reset_stats();
    let (got, receipt) = c.read(Actor::Client, 4, 2).unwrap();
    assert_eq!(&got[..], &data[..], "reconstruction recovers the data");
    assert_eq!(receipt.counts.formula(), "8*RR"); // G*RR with G = 8
    assert_eq!(receipt.latency.as_millis(), 600); // Figure 4
}

#[test]
fn site_failure_subsequent_read_uses_spare() {
    let mut c = cluster_g8();
    let data = block(&c, 5);
    c.write(Actor::Site(4), 4, 2, &data).unwrap();
    c.fail_site(4);
    c.read(Actor::Client, 4, 2).unwrap(); // reconstruct + install spare
    let (got, receipt) = c.read(Actor::Client, 4, 2).unwrap();
    assert_eq!(&got[..], &data[..]);
    assert_eq!(receipt.counts.formula(), "RR", "spare resolves the read");
}

#[test]
fn site_failure_write_costs_2_rw() {
    let mut c = cluster_g8();
    c.fail_site(4);
    let receipt = c.write(Actor::Client, 4, 2, &block(&c, 8)).unwrap();
    assert_eq!(receipt.counts.formula(), "2*RW");
    assert_eq!(receipt.latency.as_millis(), 150); // Figure 4
}

#[test]
fn down_site_write_then_read_sees_new_data() {
    let mut c = cluster_g4();
    let old = block(&c, 1);
    let new = block(&c, 2);
    c.write(Actor::Site(3), 3, 0, &old).unwrap();
    c.fail_site(3);
    c.write(Actor::Client, 3, 0, &new).unwrap();
    let (got, _) = c.read(Actor::Client, 3, 0).unwrap();
    assert_eq!(&got[..], &new[..]);
    c.verify_parity().unwrap();
}

#[test]
fn writes_survive_temporary_failure_and_recovery() {
    let mut c = cluster_g4();
    let v1 = block(&c, 1);
    let v2 = block(&c, 2);
    c.write(Actor::Site(2), 2, 1, &v1).unwrap();
    c.fail_site(2);
    c.write(Actor::Client, 2, 1, &v2).unwrap();
    c.restore_site(2);
    assert_eq!(c.site_state(2), SiteState::Recovering);
    let report = c.run_recovery(2).unwrap();
    assert_eq!(c.site_state(2), SiteState::Up);
    assert_eq!(report.spares_drained, 1);
    // The recovered site serves the new content locally.
    let (got, receipt) = c.read(Actor::Site(2), 2, 1).unwrap();
    assert_eq!(&got[..], &v2[..]);
    assert_eq!(receipt.counts.formula(), "R");
    c.verify_parity().unwrap();
}

// ---------------------------------------------------------------------
// Recovering state (Figure 3 row 5: previously reconstructed read)
// ---------------------------------------------------------------------

#[test]
fn recovering_read_of_spare_superseded_block_costs_r_plus_rr() {
    let mut c = cluster_g8();
    let v1 = block(&c, 1);
    let v2 = block(&c, 2);
    c.write(Actor::Site(3), 3, 0, &v1).unwrap();
    c.fail_site(3);
    c.write(Actor::Client, 3, 0, &v2).unwrap(); // lands in the spare
    c.restore_site(3);
    c.reset_stats();
    let (got, receipt) = c.read(Actor::Site(3), 3, 0).unwrap();
    assert_eq!(
        &got[..],
        &v2[..],
        "the spare supersedes the stale local block"
    );
    assert_eq!(receipt.counts.formula(), "R+RR"); // Figure 3 row 5
    assert_eq!(receipt.latency.as_millis(), 105); // Figure 4
}

#[test]
fn recovering_read_refreshes_local_block_as_side_effect() {
    let mut c = cluster_g4();
    let v2 = block(&c, 2);
    c.write(Actor::Site(3), 3, 0, &block(&c, 1)).unwrap();
    c.fail_site(3);
    c.write(Actor::Client, 3, 0, &v2).unwrap();
    c.restore_site(3);
    c.read(Actor::Site(3), 3, 0).unwrap();
    // Second read is now purely local.
    let (got, receipt) = c.read(Actor::Site(3), 3, 0).unwrap();
    assert_eq!(&got[..], &v2[..]);
    assert_eq!(receipt.counts.formula(), "R");
}

#[test]
fn recovering_read_of_untouched_block_is_local() {
    let mut c = cluster_g4();
    let v = block(&c, 9);
    c.write(Actor::Site(1), 1, 2, &v).unwrap();
    c.fail_site(1);
    c.restore_site(1);
    let (got, receipt) = c.read(Actor::Site(1), 1, 2).unwrap();
    assert_eq!(&got[..], &v[..]);
    // No spare exists: local read plus the free validity probe.
    assert_eq!(receipt.counts.formula(), "R");
}

#[test]
fn recovering_write_invalidates_spare() {
    let mut c = cluster_g4();
    let v2 = block(&c, 2);
    let v3 = block(&c, 3);
    c.write(Actor::Site(0), 0, 0, &block(&c, 1)).unwrap();
    c.fail_site(0);
    c.write(Actor::Client, 0, 0, &v2).unwrap(); // spare now valid
    c.restore_site(0);
    let receipt = c.write(Actor::Site(0), 0, 0, &v3).unwrap();
    assert_eq!(
        receipt.counts.formula(),
        "W+RW",
        "writes proceed as for up sites"
    );
    let (got, _) = c.read(Actor::Site(0), 0, 0).unwrap();
    assert_eq!(&got[..], &v3[..]);
    c.verify_parity().unwrap();
    // Recovery finds nothing left to drain.
    let report = c.run_recovery(0).unwrap();
    assert_eq!(report.spares_drained, 0);
}

// ---------------------------------------------------------------------
// Disk failure (Figure 3 rows 3–4)
// ---------------------------------------------------------------------

#[test]
fn disk_failure_read_costs_g_rr() {
    let mut c = cluster_g8();
    let data = block(&c, 6);
    c.write(Actor::Site(1), 1, 0, &data).unwrap();
    let row = c.geometry().data_to_physical(1, 0);
    let disk = (row / c.config().blocks_per_disk()) as usize;
    c.fail_disk(1, disk);
    assert_eq!(c.site_state(1), SiteState::Recovering);
    c.reset_stats();
    let (got, receipt) = c.read(Actor::Site(1), 1, 0).unwrap();
    assert_eq!(&got[..], &data[..]);
    assert_eq!(receipt.counts.formula(), "8*RR"); // Figure 3: G*RR
    assert_eq!(receipt.latency.as_millis(), 600);
}

#[test]
fn disk_failure_write_costs_2_rw() {
    let mut c = cluster_g8();
    let row = c.geometry().data_to_physical(1, 0);
    let disk = (row / c.config().blocks_per_disk()) as usize;
    c.fail_disk(1, disk);
    let receipt = c.write(Actor::Site(1), 1, 0, &block(&c, 3)).unwrap();
    assert_eq!(receipt.counts.formula(), "2*RW");
    assert_eq!(receipt.latency.as_millis(), 150);
}

#[test]
fn blocks_on_healthy_disks_unaffected_by_disk_failure() {
    let mut c = cluster_g8();
    // Site 1, two blocks on different disks.
    let i_failed = 0u64;
    let i_ok = c.data_capacity(1) - 1;
    let row_a = c.geometry().data_to_physical(1, i_failed);
    let row_b = c.geometry().data_to_physical(1, i_ok);
    let bpd = c.config().blocks_per_disk();
    assert_ne!(row_a / bpd, row_b / bpd, "pick blocks on distinct disks");
    let data = block(&c, 4);
    c.write(Actor::Site(1), 1, i_ok, &data).unwrap();
    c.fail_disk(1, (row_a / bpd) as usize);
    let (got, receipt) = c.read(Actor::Site(1), 1, i_ok).unwrap();
    assert_eq!(&got[..], &data[..]);
    assert_eq!(receipt.counts.formula(), "R", "healthy disk still local");
}

#[test]
fn disk_replacement_and_recovery_rebuilds_contents() {
    let mut c = cluster_g4();
    // Populate everything.
    for site in 0..6 {
        for idx in 0..c.data_capacity(site) {
            let data = vec![(site * 7 + idx as usize + 1) as u8; 64];
            c.write(Actor::Site(site), site, idx, &data).unwrap();
        }
    }
    // Site 2 loses its only disk.
    c.fail_disk(2, 0);
    c.replace_disk(2, 0);
    let (report, background, restores) = recover_traced(&mut c, 2);
    assert_eq!(report.spares_drained, 0);
    assert_eq!(report.data_reconstructed, 8);
    assert_eq!(report.parity_rebuilt, 2);
    // G = 4 source reads per rebuilt row, one local write per restore.
    assert_eq!(background, OpCounts::new(0, 10, 40, 0));
    // Every rebuilt row reaches the site through the protocol.
    assert_eq!(restores, 10);
    assert_eq!(c.site_state(2), SiteState::Up);
    for idx in 0..c.data_capacity(2) {
        let want = [(2 * 7 + idx as usize + 1) as u8; 64];
        let (got, receipt) = c.read(Actor::Site(2), 2, idx).unwrap();
        assert_eq!(&got[..], &want[..], "idx {idx}");
        assert_eq!(receipt.counts.formula(), "R");
    }
    c.verify_parity().unwrap();
}

#[test]
fn a_replaced_disk_forgets_its_own_rows_only() {
    let mut cfg = RaddConfig::small_g4();
    cfg.disks_per_site = 2; // rows 0..6 on disk 0, 6..12 on disk 1
    let mut c = RaddCluster::new(cfg).unwrap();
    for idx in 0..c.data_capacity(2) {
        c.write(Actor::Site(2), 2, idx, &block(&c, 1)).unwrap();
    }
    let valid = |c: &RaddCluster| -> Vec<u64> {
        (0..12)
            .filter(|&r| c.machine(2).block_uid(r).is_valid())
            .collect()
    };
    let kept: Vec<u64> = valid(&c).into_iter().filter(|&r| r < 6).collect();
    c.fail_disk(2, 1);
    c.replace_disk(2, 1);
    assert_eq!(valid(&c), kept);
    assert!(c.machine(2).invalid_rows().iter().copied().eq(6..12));
}

// ---------------------------------------------------------------------
// Disasters
// ---------------------------------------------------------------------

#[test]
fn disaster_recovery_restores_all_data() {
    let mut c = cluster_g4();
    for site in 0..6 {
        for idx in 0..c.data_capacity(site) {
            let data = vec![(site * 11 + idx as usize + 1) as u8; 64];
            c.write(Actor::Site(site), site, idx, &data).unwrap();
        }
    }
    c.disaster(5);
    // Data of the destroyed site stays readable (reconstruction)…
    let (got, _) = c.read(Actor::Client, 5, 0).unwrap();
    assert_eq!(&got[..], &vec![(5 * 11 + 1) as u8; 64][..]);
    // …and writable (spare).
    let newv = vec![0xEE; 64];
    c.write(Actor::Client, 5, 1, &newv).unwrap();
    // Restore on blank hardware and recover.
    c.restore_site(5);
    let (report, background, restores) = recover_traced(&mut c, 5);
    assert_eq!(report.spares_drained, 2);
    assert_eq!(report.data_reconstructed, 6);
    assert_eq!(report.parity_rebuilt, 2);
    // Two drained slots read at the spares, G = 4 source reads per rebuilt
    // row, one local write per restore.
    assert_eq!(background, OpCounts::new(0, 10, 34, 0));
    // Drained and rebuilt blocks alike reach the site as restores.
    assert_eq!(restores, 2 + 6 + 2);
    for idx in 0..c.data_capacity(5) {
        let want = if idx == 1 {
            newv.clone()
        } else {
            vec![(5 * 11 + idx as usize + 1) as u8; 64]
        };
        let (got, _) = c.read(Actor::Site(5), 5, idx).unwrap();
        assert_eq!(&got[..], &want[..], "idx {idx}");
    }
    c.verify_parity().unwrap();
}

#[test]
fn writes_to_other_sites_proceed_during_disaster() {
    let mut c = cluster_g4();
    c.disaster(0);
    for site in 1..6 {
        let receipt = c
            .write(Actor::Site(site), site, 0, &block(&c, site as u8))
            .unwrap();
        // Some rows have their parity at site 0 (down) — those writes pay
        // extra background work but still complete.
        assert!(receipt.counts.local_writes + receipt.counts.remote_writes >= 2);
    }
    c.restore_site(0);
    c.run_recovery(0).unwrap();
    c.verify_parity().unwrap();
    for site in 1..6 {
        let (got, _) = c.read(Actor::Site(site), site, 0).unwrap();
        assert_eq!(&got[..], &block(&c, site as u8)[..]);
    }
}

// ---------------------------------------------------------------------
// Multiple failures are refused, not corrupted
// ---------------------------------------------------------------------

#[test]
fn double_site_failure_is_detected() {
    let mut c = cluster_g4();
    c.write(Actor::Site(2), 2, 0, &block(&c, 1)).unwrap();
    c.fail_site(2);
    c.fail_site(3);
    let err = c.read(Actor::Client, 2, 0).unwrap_err();
    assert!(
        matches!(err, RaddError::MultipleFailure { .. }),
        "got {err:?}"
    );
}

#[test]
fn spare_conflict_between_two_failed_sites_is_detected() {
    // Two sites fail in sequence; the second one's block in the same row
    // would need the same spare.
    let mut c = cluster_g4();
    c.write(Actor::Site(2), 2, 0, &block(&c, 1)).unwrap();
    let row = c.geometry().data_to_physical(2, 0);
    // Find another data site in the same row.
    let other = *c
        .geometry()
        .data_sites(row)
        .iter()
        .find(|&&s| s != 2)
        .unwrap();
    let other_idx = c.geometry().physical_to_data(other, row).unwrap();
    c.fail_site(2);
    c.read(Actor::Client, 2, 0).unwrap(); // installs the spare for site 2
    c.restore_site(2);
    c.fail_site(other);
    let err = c.read(Actor::Client, other, other_idx).unwrap_err();
    assert!(
        matches!(err, RaddError::MultipleFailure { .. }),
        "got {err:?}"
    );
}

// ---------------------------------------------------------------------
// Spare policy ablation (§7.2)
// ---------------------------------------------------------------------

#[test]
fn no_spares_every_down_read_reconstructs() {
    let mut cfg = RaddConfig::small_g4();
    cfg.spare_policy = SparePolicy::None;
    let mut c = RaddCluster::new(cfg).unwrap();
    let data = block(&c, 2);
    c.write(Actor::Site(1), 1, 0, &data).unwrap();
    c.fail_site(1);
    for _ in 0..3 {
        let (got, receipt) = c.read(Actor::Client, 1, 0).unwrap();
        assert_eq!(&got[..], &data[..]);
        assert_eq!(
            receipt.counts.formula(),
            "4*RR",
            "no spare: G*RR every time"
        );
    }
}

#[test]
fn no_spares_down_writes_are_unavailable() {
    let mut cfg = RaddConfig::small_g4();
    cfg.spare_policy = SparePolicy::None;
    let mut c = RaddCluster::new(cfg).unwrap();
    c.fail_site(1);
    let err = c.write(Actor::Client, 1, 0, &block(&c, 1)).unwrap_err();
    assert!(matches!(err, RaddError::Unavailable { site: 1 }));
}

// ---------------------------------------------------------------------
// §3.3 UID validation under in-flight parity updates
// ---------------------------------------------------------------------

/// Holds every parity update while `hold` is set, acking its sender on the
/// parity site's behalf so the write completes: §3.3's update in flight.
#[derive(Default)]
struct Hold {
    hold: bool,
    held: Vec<(usize, usize, Msg)>,
}

impl Hook for Hold {
    fn handle(
        &mut self,
        site: usize,
        machine: &mut SiteMachine,
        blocks: &mut MemBlocks,
        src: usize,
        msg: Msg,
        out: &mut Vec<Effect>,
    ) {
        match msg {
            Msg::ParityUpdate { tag, .. } if self.hold => {
                out.push(Effect::send(Dest::Peer(src), Msg::Ack { tag }));
                self.held.push((site, src, msg));
            }
            _ => machine.handle(blocks, src, msg, out),
        }
    }
}

/// §3.3's window on a `G = 4` group's machines: data site `a` of row 0
/// writes `0xA5`s, data site `b` of the same row writes with its parity
/// update held, and `a` is believed down. Returns the client (validating
/// UIDs or not), the cascade, `a`, its index and `b`.
fn staged_race(validate: bool) -> (ClientMachine, Loopback<Hold>, usize, u64, usize) {
    let mut net = Loopback::new(4, 12, 64, Hold::default());
    let mut client = ClientMachine::new(4, 12, 64, SparePolicy::OnePerParity, validate, u16::MAX);
    let geo = *client.geometry();
    let (a, b) = (geo.data_sites(0)[0], geo.data_sites(0)[1]);
    let (ia, ib) = (
        geo.physical_to_data(a, 0).unwrap(),
        geo.physical_to_data(b, 0).unwrap(),
    );
    client.write(&mut net, a, ia, &[0xA5; 64]).unwrap();
    net.hook.hold = true;
    client.write(&mut net, b, ib, &[0x22; 64]).unwrap();
    assert_eq!(net.hook.held.len(), 1, "b's parity update is in flight");
    client.set_down(a, true);
    (client, net, a, ia, b)
}

#[test]
fn a_held_parity_update_makes_reconstruction_inconsistent_until_delivered() {
    let (mut client, mut net, a, ia, b) = staged_race(true);
    // Reconstructing `a` sees a data UID at `b` the parity array has not
    // recorded yet.
    assert_eq!(
        client.read(&mut net, a, ia),
        Err(ClientErr::Inconsistent { site: b })
    );
    // After the parity message lands, the retry succeeds (§3.3: "must be
    // retried").
    net.hook.hold = false;
    for (to, src, msg) in std::mem::take(&mut net.hook.held) {
        net.deliver(to, src, msg);
    }
    assert_eq!(&client.read(&mut net, a, ia).unwrap()[..], &[0xA5; 64]);
}

#[test]
fn disabling_uid_validation_returns_stale_garbage() {
    // The ablation: without §3.3 validation, reconstruction silently XORs a
    // new data block against an old parity block.
    let (mut client, mut net, a, ia, _) = staged_race(false);
    let got = client.read(&mut net, a, ia).unwrap();
    assert_ne!(
        &got[..],
        &[0xA5; 64],
        "unvalidated read returned stale data"
    );
}

// ---------------------------------------------------------------------
// §5 partitions
// ---------------------------------------------------------------------

#[test]
fn single_failure_like_partition_behaves_as_site_failure() {
    let mut c = cluster_g4();
    let data = block(&c, 4);
    c.write(Actor::Site(2), 2, 0, &data).unwrap();
    c.set_partition(PartitionMap::isolate(6, 2));
    // The majority reads the isolated site's data via reconstruction.
    let (got, receipt) = c.read(Actor::Client, 2, 0).unwrap();
    assert_eq!(&got[..], &data[..]);
    assert_eq!(receipt.counts.formula(), "4*RR");
    // The isolated site must cease processing.
    let err = c.read(Actor::Site(2), 2, 0).unwrap_err();
    assert!(matches!(err, RaddError::ActorIsolated { site: 2 }));
    // Healing restores normal operation.
    c.set_partition(PartitionMap::connected(6));
    let (_, receipt) = c.read(Actor::Site(2), 2, 0).unwrap();
    assert_eq!(receipt.counts.formula(), "R");
}

#[test]
fn multi_way_partition_blocks_everyone() {
    let mut c = cluster_g4();
    c.set_partition(PartitionMap::from_groups(vec![0, 0, 0, 1, 1, 1]));
    assert!(matches!(
        c.read(Actor::Client, 0, 0).unwrap_err(),
        RaddError::Blocked
    ));
    assert!(matches!(
        c.write(Actor::Site(1), 1, 0, &block(&c, 1)).unwrap_err(),
        RaddError::Blocked
    ));
}

// ---------------------------------------------------------------------
// Traffic accounting sanity (full §7.4 analysis lives in the bench)
// ---------------------------------------------------------------------

#[test]
fn small_edits_ship_small_parity_messages() {
    let mut cfg = RaddConfig::paper_g8();
    cfg.block_size = 4096;
    let mut c = RaddCluster::new(cfg).unwrap();
    let mut page = vec![0u8; 4096];
    c.write(Actor::Site(0), 0, 0, &page).unwrap();
    c.reset_stats();
    // A 100-byte record update.
    for b in &mut page[500..600] {
        *b = 0xAB;
    }
    c.write(Actor::Site(0), 0, 0, &page).unwrap();
    let bytes = c.traffic().parity_updates.bytes_sent;
    assert!(bytes < 200, "parity message was {bytes} bytes");
    assert!(
        (bytes as f64) < 0.05 * 4096.0,
        "§7.4: mask traffic ≪ block size"
    );
}

/// One degraded read is one reconstruction: every survivor of the row
/// serves exactly one `reconstruct` read, and the write that preceded it
/// applied its mask at the parity site. (`radd-obs` counts both off the
/// effect stream; there is no second tracing layer to ask.)
#[test]
fn a_degraded_read_is_one_reconstruction_in_obs() {
    let mut c = cluster_g4();
    c.record_obs(true);
    c.write(Actor::Site(1), 1, 0, &block(&c, 1)).unwrap();
    c.fail_site(1);
    c.read(Actor::Client, 1, 0).unwrap();
    let row = c.geometry().data_to_physical(1, 0);
    let (parity_site, spare_site) = (c.geometry().parity_site(row), c.geometry().spare_site(row));
    let snap = c.obs_snapshot().expect("obs is on");
    for s in (0..c.config().num_sites()).filter(|&s| s != 1 && s != spare_site) {
        let site = snap.machine(&format!("site {s}")).expect("site snapshot");
        assert_eq!(site.metrics.reads_named("reconstruct"), 1, "survivor {s}");
    }
    let parity = snap.machine(&format!("site {parity_site}")).unwrap();
    assert!(parity.metrics.writes_named("parity_apply") >= 1);
}
