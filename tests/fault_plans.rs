//! Acceptance tests for the fault-plan engine: seed-named plans are
//! bit-for-bit reproducible on the DES, injected corruption is reported
//! with a replayable seed and event prefix, and the §3.3 UID-validation
//! race is caught exactly when validation is enabled.

use radd::prelude::*;
use radd::protocol::loopback::{Hook, Loopback};
use radd::protocol::{ClientMachine, Dest, Effect, MemBlocks, Msg, SiteMachine};

/// CI's primary plan seed, spelled as a name (`seed_from_name` — the
/// string is not parseable hex, the mapping is an FNV-1a hash).
const NAMED_SEED: &str = "0xRADD0001";

fn des() -> CheckedCluster {
    CheckedCluster::new(RaddConfig::small_g4()).unwrap()
}

#[test]
fn named_seed_runs_identically_twice_on_the_des() {
    let seed = seed_from_name(NAMED_SEED);
    let plan = FaultPlan::generate(seed, &PlanShape::default());
    let r1 = run_plan(&mut des(), &plan).unwrap_or_else(|f| panic!("{f}"));
    let r2 = run_plan(&mut des(), &plan).unwrap_or_else(|f| panic!("{f}"));
    // Same event log, same invariant-check count, same everything: the
    // replay contract CI failure messages rely on.
    assert_eq!(r1, r2);
    assert_eq!(r1.seed, seed);
    assert_eq!(r1.applied, plan.events.len());
    assert!(r1.invariant_checks > 0);
}

#[test]
fn parity_corruption_is_caught_with_a_replayable_report() {
    let seed = seed_from_name(NAMED_SEED);
    let plan = FaultPlan::generate(seed, &PlanShape::default());
    let mut cc = des();

    // Run the whole plan (it winds down to a fully healthy cluster), then
    // flip one byte of a parity block behind the protocol's back. Healthy
    // matters: corruption injected mid-failure can be legitimately healed
    // by the plan's own recovery events (a spare stand-in draining over
    // it), which is the protocol working, not a missed detection.
    run_plan(&mut cc, &plan).unwrap_or_else(|f| panic!("{f}"));
    let row = 0;
    let parity_site = cc.cluster().geometry().parity_site(row);
    let mut block = cc.cluster_mut().raw_block(parity_site, row).to_vec();
    block[0] ^= 0xFF;
    cc.cluster_mut().corrupt_block(parity_site, row, &block);

    // The very next invariant sweep — here after a lone flush event —
    // must trip, and the report must be replayable.
    let failure = run_plan(
        &mut cc,
        &FaultPlan {
            seed,
            events: vec![FaultEvent::FlushParity],
        },
    )
    .expect_err("a corrupted parity block must not survive the invariant sweep");

    assert_eq!(failure.seed, seed, "the report names the plan seed");
    let msg = failure.to_string();
    assert!(
        msg.contains(&format!("{seed:#018x}")),
        "seed printed for replay: {msg}"
    );
    assert!(msg.contains("replay"), "replay instructions present: {msg}");
    // The event prefix up to the failure rides along, one line per event.
    assert_eq!(failure.event_log.len(), failure.failed_at + 1);

    // The failure embeds the observability snapshot: per-machine metric
    // counters plus each machine's last-N flight-recorder events. The plan
    // ran real load first, so the recorders are warm.
    let obs = failure
        .obs
        .as_ref()
        .expect("the DES driver embeds an obs snapshot into every PlanFailure");
    assert_eq!(
        obs.machines.len(),
        1 + cc.cluster().config().num_sites(),
        "one machine entry for the client plus one per site"
    );
    assert!(
        obs.total_flight_events() > 0,
        "flight recorders captured protocol events"
    );
    for m in &obs.machines {
        assert!(
            m.flight.len() <= DEFAULT_RING_CAP,
            "{}: the ring holds at most the last {DEFAULT_RING_CAP} events",
            m.name
        );
    }
    let client = obs.machine("client").expect("client machine present");
    assert!(
        client.metrics.sends_named("write") > 0,
        "the plan's writes show up in the client's send counters"
    );
    assert!(
        client.metrics.write_latency.count > 0,
        "DES write latencies (logical ledger microseconds) were recorded"
    );
    assert!(
        msg.contains("observability at failure"),
        "the report renders the snapshot: {msg}"
    );
    // The machine-readable dump round-trips through JSON export, and
    // write_dump lands it where CI's artifact upload looks. (Written on
    // success too — it doubles as the sample dump EXPERIMENTS.md quotes.)
    let json = failure.dump_json();
    assert!(json.contains("\"flight\""), "dump carries flight events");
    assert!(json.contains("\"retransmits\""), "dump carries metrics");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/fault_dumps");
    let path = failure
        .write_dump(&dir, "named_seed_parity_corruption")
        .expect("dump written");
    assert!(path.exists());
}

// ---------------------------------------------------------------------
// §3.3 UID-validation race
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

/// Stage the race on a `G = 4` group's machines: two data sites of one
/// row, the second's parity update held (applied nowhere yet) when the first
/// site fails. Reconstruction of the first site's block then XORs fresh
/// data with stale parity. Returns
/// `(client, cascade, victim_site, victim_index, written)`.
fn staged_race(uid_validation: bool) -> (ClientMachine, Loopback<Hold>, usize, u64, Vec<u8>) {
    let cfg = RaddConfig::small_g4();
    let (g, rows, bs) = (cfg.group_size, cfg.rows, cfg.block_size);
    let mut net = Loopback::new(g, rows, bs, Hold::default());
    let mut client = ClientMachine::new(g, rows, bs, cfg.spare_policy, uid_validation, u16::MAX);
    let geo = *client.geometry();
    let row = 0;
    let (a, b) = (geo.data_sites(row)[0], geo.data_sites(row)[1]);
    let ia = geo.physical_to_data(a, row).unwrap();
    let ib = geo.physical_to_data(b, row).unwrap();

    // Consistent baseline.
    let block_a = vec![0xA5u8; bs];
    client.write(&mut net, a, ia, &block_a).unwrap();
    client.write(&mut net, b, ib, &vec![0x11u8; bs]).unwrap();

    // The racing write: B's block changes locally (new UID), but the
    // parity update is held — the window §3.3 describes.
    net.hook.hold = true;
    client.write(&mut net, b, ib, &vec![0x22u8; bs]).unwrap();
    assert_eq!(net.hook.held.len(), 1, "update must still be in flight");

    // A fails inside the window; reading A now requires reconstruction.
    client.set_down(a, true);
    (client, net, a, ia, block_a)
}

#[test]
fn uid_validation_catches_the_inflight_parity_race() {
    let (mut client, mut net, a, ia, written) = staged_race(true);
    let err = client
        .read(&mut net, a, ia)
        .expect_err("§3.3 validation must refuse the stale reconstruction");
    assert!(
        matches!(err, ClientErr::Inconsistent { .. }),
        "expected Inconsistent, got {err}"
    );
    // Once the held update lands, the same reconstruction succeeds and
    // returns the true contents.
    net.hook.hold = false;
    for (to, src, msg) in std::mem::take(&mut net.hook.held) {
        net.deliver(to, src, msg);
    }
    assert_eq!(&client.read(&mut net, a, ia).unwrap()[..], &written[..]);
}

#[test]
fn disabling_uid_validation_reproduces_the_stale_reconstruction_anomaly() {
    let (mut client, mut net, a, ia, written) = staged_race(false);
    // The ablation: reconstruction "succeeds"...
    let got = client.read(&mut net, a, ia).unwrap();
    // ...but hands back bytes that were never written to A — the anomaly
    // the paper's UID machinery exists to prevent.
    assert_ne!(&got[..], &written[..], "anomaly must be observable");
}
