//! Hot paths of the sans-IO protocol machines, on the bare synchronous
//! cascade (`radd_protocol::loopback`): the no-failure write (client
//! machine + owner site + parity site) and the parity site's masked
//! read-modify-write. This is the per-block protocol overhead every runtime
//! pays before any disk or network cost.
//!
//! Each is a pair, plain and with the observability tap live, timed batch
//! by batch in one loop (`bench_pair`). Both sides of a pair are one
//! compiled body over one state, the tap switched on or off in it, so
//! their difference is the tap's cost and nothing else.
//! `scripts/bench_check.sh` gates the write's median ratio and the apply's
//! median added ns per tapped effect.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use radd_obs::{ClusterObs, MachineObs};
use radd_parity::{ChangeMask, Uid};
use radd_protocol::loopback::{Hook, Loopback};
use radd_protocol::obs::{obs_event, ObsEvent};
use radd_protocol::{
    ClientErr, ClientMachine, Effect, IoPurpose, MemBlocks, Msg, SiteMachine, SparePolicy,
};
use std::hint::black_box;

const G: usize = 8;
const ROWS: u64 = 100;
const BLOCK: usize = 4096;

/// The observability tap as a [`Hook`]: while `on`, every effect of every
/// handled message and every client send goes into the per-machine
/// observability layer.
struct Tap {
    obs: ClusterObs,
    on: bool,
}

impl Hook for Tap {
    fn handle(
        &mut self,
        site: usize,
        machine: &mut SiteMachine,
        blocks: &mut MemBlocks,
        src: usize,
        msg: Msg,
        out: &mut Vec<Effect>,
    ) {
        machine.handle(blocks, src, msg, out);
        if self.on {
            for eff in out.iter() {
                self.obs.site(site).effect(eff);
            }
        }
    }

    fn exchange(&mut self, site: usize, msg: &Msg, _background: bool) -> Result<(), ClientErr> {
        if self.on {
            let event = ObsEvent::client_send(site, msg, false);
            self.obs.client().event(event);
        }
        Ok(())
    }
}

/// A client and a group on the cascade, the tap off.
fn group() -> (ClientMachine, Loopback<Tap>) {
    let client = ClientMachine::new(G, ROWS, BLOCK, SparePolicy::OnePerParity, true, u16::MAX);
    let tap = Tap {
        obs: ClusterObs::new(G + 2),
        on: false,
    };
    (client, Loopback::new(G, ROWS, BLOCK, tap))
}

/// Parity site 0's half of a write to row 0 from site 2, with UID and tag
/// `raw`: decode the wire mask, read-modify-write the parity block, bump
/// the UID array, ack.
fn apply(machine: &mut SiteMachine, blocks: &mut MemBlocks, mask: &Bytes, raw: u64) -> Vec<Effect> {
    let mut out = Vec::new();
    let update = Msg::ParityUpdate {
        row: 0,
        mask_wire: black_box(mask.clone()),
        uid: Uid::from_raw(raw),
        from_site: 2,
        tag: raw,
    };
    machine.handle(blocks, 3, update, &mut out);
    out
}

fn bench_protocol(c: &mut Criterion) {
    let mut bench = c.benchmark_group("protocol_core");
    bench.throughput(Throughput::Bytes(BLOCK as u64));

    // The full W1–W4 healthy write: client request, owner's local write +
    // change-mask diff, parity update to the parity site, masked apply,
    // acks back. One data block flows per iteration. The tap records one
    // event per client send and one per site effect.
    let (mut client, mut net) = group();
    net.hook.on = true;
    client.write(&mut net, 3, 0, &[1; BLOCK]).unwrap();
    let machines = net.hook.obs.snapshot().machines;
    let events = machines.iter().map(|m| m.flight.len() as u64).sum();
    bench.bench_pair(
        "healthy_write_g8_4k",
        "healthy_write_g8_4k_obs",
        events,
        |p| {
            let (mut client, mut net) = group();
            let mut fill = 0u8;
            p.iter(|tap| {
                net.hook.on = tap;
                fill = fill.wrapping_add(1);
                let block = [fill; BLOCK];
                client
                    .write(&mut net, black_box(3), black_box(0), &block)
                    .unwrap();
            });
        },
    );

    // The parity site's half alone, fresh UIDs each iteration so the
    // idempotence guard never short-circuits the apply.
    let mask = ChangeMask::diff(&[0u8; BLOCK], &[0xA5u8; BLOCK]).encode();
    let blocks = || MemBlocks::new(ROWS, BLOCK);
    let applied = apply(
        &mut SiteMachine::new(0, G, ROWS, BLOCK),
        &mut blocks(),
        &mask,
        1,
    );
    let write = Effect::Write {
        row: 0,
        purpose: IoPurpose::ParityApply,
    };
    assert!(applied.contains(&write), "update refused: {applied:?}");
    let events = applied.iter().filter_map(obs_event).count() as u64;
    bench.bench_pair(
        "parity_apply_g8_4k",
        "parity_apply_g8_4k_obs",
        events,
        |p| {
            let (mut machine, mut blocks) = (SiteMachine::new(0, G, ROWS, BLOCK), blocks());
            let (mut obs, mut raw) = (MachineObs::new(), 0);
            p.iter(|tap| {
                raw += 1;
                let out = apply(&mut machine, &mut blocks, &mask, raw);
                if tap {
                    out.iter().for_each(|eff| obs.effect(eff));
                }
                out
            });
        },
    );

    bench.finish();
    export_obs_snapshot();
}

/// Drive a short observed workload and export its obs snapshot — JSON to
/// `target/obs_bench_snapshot.json`, a text summary to stdout — so every
/// bench run leaves a sample of what the observability layer sees (and
/// `scripts/bench_check.sh` can sanity-check the export end to end).
fn export_obs_snapshot() {
    let (mut client, mut net) = group();
    net.hook.on = true;
    for i in 0..100u8 {
        client
            .write(&mut net, (i as usize % G) + 2, 0, &[i; BLOCK])
            .unwrap();
    }
    let snap = net.hook.obs.snapshot();
    // Anchor on the manifest dir: cargo runs benches with the package as
    // cwd, but the artifact belongs in the workspace target dir.
    let path = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .join("target/obs_bench_snapshot.json");
    match std::fs::write(&path, snap.to_json()) {
        Ok(()) => println!(
            "obs snapshot: {} machines -> {}",
            snap.machines.len(),
            path.display()
        ),
        Err(e) => println!("obs snapshot: export failed: {e}"),
    }
    print!("{}", snap.render_text(2));
}

criterion_group!(benches, bench_protocol);
criterion_main!(benches);
