//! Hot paths of the sans-IO protocol machines, with no interpreter around
//! them: the no-failure write (client machine + owner site + parity site)
//! and the parity site's masked read-modify-write. This is the per-block
//! protocol overhead every runtime pays before any disk or network cost.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use radd_obs::{ClusterObs, MachineObs};
use radd_parity::{ChangeMask, Uid};
use radd_protocol::obs::ObsEvent;
use radd_protocol::{
    ClientErr, ClientIo, ClientMachine, Dest, Effect, MemBlocks, Msg, SiteMachine, SparePolicy,
};
use std::collections::VecDeque;
use std::hint::black_box;

const G: usize = 8;
const ROWS: u64 = 100;
const BLOCK: usize = 4096;

/// Minimal synchronous interpreter: machines + in-memory blocks, nothing
/// else. Effects other than sends are discarded unpriced. With `obs` set,
/// every effect is also tapped into the per-machine observability layer —
/// the `_obs` bench rows measure exactly that tap's overhead.
struct Net {
    sites: Vec<(SiteMachine, MemBlocks)>,
    obs: Option<ClusterObs>,
}

impl Net {
    fn new(observed: bool) -> Net {
        Net {
            sites: (0..G + 2)
                .map(|j| {
                    (
                        SiteMachine::new(j, G, ROWS, BLOCK),
                        MemBlocks::new(ROWS, BLOCK),
                    )
                })
                .collect(),
            obs: observed.then(|| ClusterObs::new(G + 2)),
        }
    }

    fn deliver(&mut self, dst: usize, src: usize, msg: Msg) -> Option<Msg> {
        let mut queue = VecDeque::new();
        queue.push_back((dst, src, msg));
        let mut reply = None;
        while let Some((d, s, m)) = queue.pop_front() {
            let (machine, blocks) = &mut self.sites[d];
            let mut out = Vec::new();
            machine.handle(blocks, s, m, &mut out);
            if let Some(obs) = &mut self.obs {
                for eff in &out {
                    obs.site(d).effect(eff);
                }
            }
            for eff in out {
                if let Effect::Send { to, msg: sm, .. } = eff {
                    match to {
                        Dest::Peer(0) => reply = Some(sm),
                        Dest::Peer(p) => queue.push_back((p - 1, d + 1, sm)),
                        Dest::Site(t) => queue.push_back((t, d + 1, sm)),
                    }
                }
            }
        }
        reply
    }
}

impl ClientIo for Net {
    fn exchange(&mut self, site: usize, msg: Msg, _background: bool) -> Result<Msg, ClientErr> {
        if let Some(obs) = &mut self.obs {
            obs.client().event(ObsEvent::client_send(site, &msg, false));
        }
        self.deliver(site, 0, msg)
            .ok_or(ClientErr::Unavailable { site })
    }
}

fn bench_protocol(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol_core");
    group.throughput(Throughput::Bytes(BLOCK as u64));

    // The full W1–W4 healthy write: client request, owner's local write +
    // change-mask diff, parity update to the parity site, masked apply,
    // acks back. One data block flows per iteration.
    group.bench_function("healthy_write_g8_4k", |bencher| {
        let mut net = Net::new(false);
        let mut client =
            ClientMachine::new(G, ROWS, BLOCK, SparePolicy::OnePerParity, true, u16::MAX);
        let mut fill = 0u8;
        bencher.iter(|| {
            fill = fill.wrapping_add(1);
            client
                .write(&mut net, black_box(3), black_box(0), &[fill; BLOCK])
                .unwrap();
        });
    });

    // The same write with the observability tap live on every machine:
    // dense counters plus a flight-ring record per effect. The gate in
    // scripts/bench_check.sh holds this row within OBS_TOLERANCE (5%) of
    // the plain row above — the tap must stay invisible at block scale.
    group.bench_function("healthy_write_g8_4k_obs", |bencher| {
        let mut net = Net::new(true);
        let mut client =
            ClientMachine::new(G, ROWS, BLOCK, SparePolicy::OnePerParity, true, u16::MAX);
        let mut fill = 0u8;
        bencher.iter(|| {
            fill = fill.wrapping_add(1);
            client
                .write(&mut net, black_box(3), black_box(0), &[fill; BLOCK])
                .unwrap();
        });
    });

    // The parity site's half alone: decode the wire mask, read-modify-write
    // the parity block, bump the UID array, ack. Fresh UIDs each iteration
    // so the idempotence guard never short-circuits the apply.
    group.bench_function("parity_apply_g8_4k", |bencher| {
        let mut machine = SiteMachine::new(1, G, ROWS, BLOCK); // parity site of row 0
        let mut blocks = MemBlocks::new(ROWS, BLOCK);
        let old = vec![0u8; BLOCK];
        let new = vec![0xA5u8; BLOCK];
        let mask_wire = ChangeMask::diff(&old, &new).encode();
        let mut raw = 0u64;
        bencher.iter(|| {
            raw += 1;
            let mut out = Vec::new();
            machine.handle(
                &mut blocks,
                3,
                Msg::ParityUpdate {
                    row: 0,
                    mask_wire: black_box(mask_wire.clone()),
                    uid: Uid::from_raw(raw),
                    from_site: 2,
                    tag: raw,
                },
                &mut out,
            );
            black_box(out);
        });
    });

    // The masked apply with the effect tap live.
    group.bench_function("parity_apply_g8_4k_obs", |bencher| {
        let mut machine = SiteMachine::new(1, G, ROWS, BLOCK);
        let mut blocks = MemBlocks::new(ROWS, BLOCK);
        let mut obs = MachineObs::new();
        let old = vec![0u8; BLOCK];
        let new = vec![0xA5u8; BLOCK];
        let mask_wire = ChangeMask::diff(&old, &new).encode();
        let mut raw = 0u64;
        bencher.iter(|| {
            raw += 1;
            let mut out = Vec::new();
            machine.handle(
                &mut blocks,
                3,
                Msg::ParityUpdate {
                    row: 0,
                    mask_wire: black_box(mask_wire.clone()),
                    uid: Uid::from_raw(raw),
                    from_site: 2,
                    tag: raw,
                },
                &mut out,
            );
            for eff in &out {
                obs.effect(eff);
            }
            black_box(out);
        });
    });

    group.finish();
    export_obs_snapshot();
}

/// Drive a short observed workload and export its obs snapshot — JSON to
/// `target/obs_bench_snapshot.json`, a text summary to stdout — so every
/// bench run leaves a sample of what the observability layer sees (and
/// `scripts/bench_check.sh` can sanity-check the export end to end).
fn export_obs_snapshot() {
    let mut net = Net::new(true);
    let mut client = ClientMachine::new(G, ROWS, BLOCK, SparePolicy::OnePerParity, true, u16::MAX);
    for i in 0..100u8 {
        client
            .write(&mut net, (i as usize % G) + 2, 0, &[i; BLOCK])
            .unwrap();
    }
    let snap = net.obs.expect("observed net").snapshot();
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
