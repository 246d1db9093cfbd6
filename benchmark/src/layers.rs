//! Per-layer timings: each layer's public functions called directly, on the
//! workload's own block size, write shape and row count.
//!
//! Every timing is the median of at least [`CALLS`] calls (fewer only where
//! one call takes milliseconds, and the metric's sample count says so).
//! Protocol timings run on memory stores so that storage is not in them;
//! storage timings run on a real `DiskBlocks` directory for disk workloads
//! and are 0 for memory workloads, where the store is a `Vec` and nothing
//! is logged.

use crate::inline::Inline;
use crate::load::Metric;
use crate::ops::{Payloads, Workload, WriteShape};
use crate::sut::{Shape, G};
use bytes::Bytes;
use radd_layout::Geometry;
use radd_obs::MachineObs;
use radd_parity::{xor_fold, ChangeMask};
use radd_protocol::{
    decode_msg, encode_msg, Blocks, ClientErr, ClientIo, ClientMachine, Dest, Effect, Msg,
    SparePolicy,
};
use radd_rt::frame::{read_frame, write_frame};
use radd_rt::{Frame, FrameDecoder};
use radd_storage::DiskBlocks;
use std::fs::OpenOptions;
use std::hint::black_box;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

/// Calls behind every nanosecond-scale median.
const CALLS: usize = 2000;
/// Commits behind every storage median (each one waits for the device).
const COMMITS: usize = 400;
/// Commits logged before a timed checkpoint or reopen.
const LOGGED_BEFORE_REOPEN: usize = 128;
const REPEATS_MS_SCALE: usize = 5;

fn median(mut v: Vec<f64>) -> f64 {
    crate::stats::sort(&mut v);
    crate::stats::quantile_sorted(&v, 0.5)
}

/// Median nanoseconds of `f`, each sample timing `batch` back-to-back calls.
fn median_ns(samples: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    let mut v = Vec::with_capacity(samples);
    for _ in 0..samples {
        let started = Instant::now();
        for _ in 0..batch {
            f();
        }
        v.push(started.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(v)
}

/// A `ClientIo` that answers at once, so `ClientMachine::write` times only
/// the machine's own step.
struct InstantAck;

impl ClientIo for InstantAck {
    fn exchange(&mut self, _site: usize, msg: Msg, _background: bool) -> Result<Msg, ClientErr> {
        Ok(Msg::WriteOk { tag: msg.tag() })
    }
}

pub fn measure(w: &Workload, seed: u64, data_root: &Path) -> Vec<Metric> {
    let shape = w.shape;
    let bs = shape.block_size;
    let payloads = Payloads::new(bs, seed);
    let mut out = Vec::new();
    let mut ns =
        |name: &str, value: f64, n: usize| out.push(Metric::new(name, "ns", value, n as u64));

    // One old/new pair in the workload's write shape.
    let old = {
        let mut b = Vec::new();
        payloads.fill(WriteShape::Full, 1, &[], &mut b);
        b
    };
    let mut new = Vec::new();
    payloads.fill(w.write, 2, &old, &mut new);

    // -- parity ---------------------------------------------------------
    let sources: Vec<Vec<u8>> = (0..G as u32)
        .map(|i| {
            let mut b = Vec::new();
            payloads.fill(WriteShape::Full, i, &[], &mut b);
            b
        })
        .collect();
    let views: Vec<&[u8]> = sources.iter().map(Vec::as_slice).collect();
    let mut acc = vec![0u8; bs];
    ns(
        "parity.xor_fold_ns",
        median_ns(CALLS, 1, || {
            xor_fold(black_box(&mut acc), black_box(&views))
        }),
        CALLS,
    );
    ns(
        "parity.mask_diff_ns",
        median_ns(CALLS, 1, || {
            black_box(ChangeMask::diff(black_box(&old), black_box(&new)).encode());
        }),
        CALLS,
    );
    let mask_wire = ChangeMask::diff(&old, &new).encode();
    let mut target = old.clone();
    ns(
        "parity.mask_apply_wire_ns",
        median_ns(CALLS, 1, || {
            black_box(ChangeMask::apply_wire(black_box(&mask_wire), &mut target));
        }),
        CALLS,
    );

    // -- layout ---------------------------------------------------------
    let geo = Geometry::new(G, shape.rows).expect("valid geometry");
    let capacity = geo.data_capacity(1);
    let mut index = 0u64;
    ns(
        "layout.locate_ns",
        median_ns(CALLS, 64, || {
            index = (index + 7) % capacity;
            let row = geo.data_to_physical(1, black_box(index));
            black_box((geo.parity_site(row), geo.spare_site(row)));
        }),
        CALLS * 64,
    );

    // -- protocol: codec, client step -------------------------------------
    let write_msg = Msg::Write {
        index: 3,
        data: Bytes::from(new.clone()),
        tag: 77,
    };
    let mut buf = Vec::with_capacity(bs + 64);
    ns(
        "protocol.codec_encode_ns",
        median_ns(CALLS, 1, || {
            buf.clear();
            encode_msg(black_box(&write_msg), &mut buf);
        }),
        CALLS,
    );
    let encoded = Bytes::from(buf.clone());
    ns(
        "protocol.codec_decode_ns",
        median_ns(CALLS, 1, || {
            black_box(decode_msg(black_box(&encoded)).expect("decodes"));
        }),
        CALLS,
    );
    let mut client =
        ClientMachine::new(G, shape.rows, bs, SparePolicy::OnePerParity, true, u16::MAX);
    ns(
        "protocol.client_step_ns",
        median_ns(CALLS, 1, || {
            client
                .write(&mut InstantAck, 1, 3, black_box(&new))
                .expect("instant ack");
        }),
        CALLS,
    );

    // -- protocol: the site machine, on state a preload built -------------
    let mem_shape = Shape {
        disk: false,
        ..shape
    };
    let mut cluster = Inline::new(mem_shape, data_root, false);
    let keys = shape.key_space();
    let mut block = Vec::new();
    for (i, &(site, index)) in keys.iter().enumerate() {
        payloads.fill(WriteShape::Full, i as u32, &[], &mut block);
        cluster.write(site, index, &block).expect("preload");
    }
    let site_a = 1usize;
    let ep_of = |site: usize| 1 + site;
    let (mut write_ns, mut parity_ns, mut read_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut effects_of_a_write = Vec::new();
    let (mut content, mut next) = (old.clone(), Vec::new());
    for i in 0..CALLS {
        let index = (i as u64 * 13) % capacity;
        let tag = (1u64 << 40) + i as u64;
        payloads.fill(w.write, i as u32 + 5, &content, &mut next);
        std::mem::swap(&mut content, &mut next);
        let msg = Msg::Write {
            index,
            data: Bytes::from(content.clone()),
            tag,
        };
        let mut out_a = Vec::new();
        let a = cluster.site_mut(site_a);
        let started = Instant::now();
        a.machine.handle(&mut a.store, 0, msg, &mut out_a);
        write_ns.push(started.elapsed().as_nanos() as f64);
        // Carry the parity update to its site and the ack back, as the
        // runtime would, so the next write finds the row idle.
        let (parity_site, update) = out_a
            .iter()
            .find_map(|e| match e {
                Effect::Send {
                    to: Dest::Site(s),
                    msg,
                    ..
                } => Some((*s, msg.clone())),
                _ => None,
            })
            .expect("a write sends a parity update");
        let mut out_p = Vec::new();
        let p = cluster.site_mut(parity_site);
        let started = Instant::now();
        p.machine
            .handle(&mut p.store, ep_of(site_a), update, &mut out_p);
        parity_ns.push(started.elapsed().as_nanos() as f64);
        let ack = out_p
            .iter()
            .find_map(|e| match e {
                Effect::Send { msg, .. } => Some(msg.clone()),
                _ => None,
            })
            .expect("a parity update is acked");
        let a = cluster.site_mut(site_a);
        let mut out_ack = Vec::new();
        a.machine
            .handle(&mut a.store, ep_of(parity_site), ack, &mut out_ack);
        let mut out_r = Vec::new();
        let started = Instant::now();
        a.machine.handle(
            &mut a.store,
            0,
            Msg::Read {
                index,
                tag: tag | (1 << 39),
            },
            &mut out_r,
        );
        read_ns.push(started.elapsed().as_nanos() as f64);
        if i == 0 {
            effects_of_a_write = out_a;
            effects_of_a_write.extend(out_p);
            effects_of_a_write.extend(out_ack);
        }
    }
    ns("protocol.site_handle_write_ns", median(write_ns), CALLS);
    ns("protocol.site_handle_parity_ns", median(parity_ns), CALLS);
    ns("protocol.site_handle_read_ns", median(read_ns), CALLS);
    let machine = &cluster.site_mut(site_a).machine;
    let snapshot = machine.durable_snapshot().encode();
    ns(
        "protocol.snapshot_encode_ns",
        median_ns(CALLS, 1, || {
            black_box(machine.durable_snapshot().encode());
        }),
        CALLS,
    );

    // -- obs --------------------------------------------------------------
    let mut obs = MachineObs::new();
    let effects = effects_of_a_write.len().max(1);
    ns(
        "obs.tap_ns_per_effect",
        median_ns(CALLS, 1, || {
            for e in &effects_of_a_write {
                obs.effect(black_box(e));
            }
        }) / effects as f64,
        CALLS * effects,
    );

    // -- rt: framing and one round trip between two threads ----------------
    let frame = Frame::Proto(write_msg.clone());
    let mut sink = Vec::with_capacity(bs + 64);
    ns(
        "rt.frame_encode_ns",
        median_ns(CALLS, 1, || {
            sink.clear();
            write_frame(&mut sink, black_box(&frame)).expect("write to a Vec");
        }),
        CALLS,
    );
    let framed = sink.clone();
    let mut dec = FrameDecoder::new();
    ns(
        "rt.frame_decode_ns",
        median_ns(CALLS, 1, || {
            dec.feed(black_box(&framed));
            black_box(dec.next_frame().expect("decodes").expect("one whole frame"));
        }),
        CALLS,
    );
    let rtt_ns = loopback_rtt_ns(Bytes::from(new.clone()));
    out.push(Metric::new(
        "rt.loopback_rtt_us",
        "us",
        rtt_ns / 1000.0,
        CALLS as u64,
    ));
    out.push(Metric::new(
        "parity.mask_wire_bytes",
        "B",
        mask_wire.len() as f64,
        1,
    ));
    out.push(Metric::new(
        "protocol.snapshot_bytes",
        "B",
        snapshot.len() as f64,
        1,
    ));

    // -- storage ------------------------------------------------------------
    out.extend(storage(
        shape,
        &new,
        &snapshot,
        &data_root.join("layers-store"),
    ));
    out
}

/// One `Read` request answered by a `ReadOk` carrying `block`, through
/// `write_frame`/`read_frame` on a loopback connection between two threads:
/// the transport's share of a read, without machines or inboxes.
fn loopback_rtt_ns(block: Bytes) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback listener");
    let addr = listener.local_addr().expect("address");
    let server = std::thread::spawn(move || {
        let (mut peer, _) = listener.accept().expect("accept");
        peer.set_nodelay(true).expect("nodelay");
        let mut dec = FrameDecoder::new();
        let mut scratch = vec![0u8; 64 * 1024];
        while let Ok(Some(Frame::Proto(Msg::Read { tag, .. }))) =
            read_frame(&mut peer, &mut dec, &mut scratch)
        {
            let reply = Frame::Proto(Msg::ReadOk {
                tag,
                data: block.clone(),
            });
            if write_frame(&mut peer, &reply).is_err() {
                break;
            }
        }
    });
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    let mut dec = FrameDecoder::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let mut tag = 0u64;
    let ns = median_ns(CALLS, 1, || {
        tag += 1;
        write_frame(&mut conn, &Frame::Proto(Msg::Read { index: 0, tag })).expect("send");
        black_box(read_frame(&mut conn, &mut dec, &mut scratch).expect("reply"));
    });
    drop(conn);
    server.join().expect("echo thread");
    ns
}

const STORAGE_NAMES: [(&str, &str); 8] = [
    ("storage.commit_ns", "ns"),
    ("storage.fdatasync_ns", "ns"),
    ("storage.read_ns", "ns"),
    ("storage.cold_read_ns", "ns"),
    ("storage.checkpoint_ms", "ms"),
    ("storage.reopen_ms", "ms"),
    ("storage.replayed_records", "count"),
    ("storage.commit_bytes", "B"),
];

/// `DiskBlocks` on its own: commit, the device floor under it, cached and
/// cold reads, checkpoint, reopen.
fn storage(shape: Shape, block: &[u8], snapshot: &[u8], dir: &Path) -> Vec<Metric> {
    if !shape.disk {
        return STORAGE_NAMES
            .iter()
            .map(|&(name, unit)| Metric::new(name, unit, 0.0, 0))
            .collect();
    }
    let _ = std::fs::remove_dir_all(dir);
    let open = || DiskBlocks::open(dir, shape.rows, shape.block_size).expect("open the store");
    let mut store = open();
    // Checkpoints are timed on their own below, not inside a commit.
    store.set_checkpoint_bytes(u64::MAX);
    let block = Bytes::copy_from_slice(block);
    let mut meta = snapshot.to_vec();
    let mut stamp = 0u64;
    let mut commit_one = |store: &mut DiskBlocks| {
        stamp += 1;
        store
            .write_owned(stamp % shape.rows, block.clone())
            .expect("in-range write");
        // A snapshot the size of the real one that differs from the last,
        // as the machine's does after every write.
        meta[..8].copy_from_slice(&stamp.to_le_bytes());
        let started = Instant::now();
        let forced = store.commit(|| meta.clone()).expect("commit");
        assert!(forced, "a staged block forces the log");
        started.elapsed().as_nanos() as f64
    };
    let wal_before = store.wal_bytes();
    let commit_ns: Vec<f64> = (0..COMMITS).map(|_| commit_one(&mut store)).collect();
    let commit_bytes = (store.wal_bytes() - wal_before) / COMMITS as u64;

    // The device floor: the same number of bytes appended to the
    // benchmark's own file and synced.
    let mut floor = OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("floor.probe"))
        .expect("open the floor file");
    let bytes = vec![0xC3u8; commit_bytes as usize];
    let fdatasync_ns = median_ns(COMMITS, 1, || {
        floor.write_all(&bytes).expect("append");
        floor.sync_data().expect("sync_data");
    });

    let read_ns = median_ns(CALLS, 1, || {
        black_box(store.read(black_box(5)).expect("cached read"));
    });

    // Checkpoint and reopen, each after the same number of logged commits.
    let (mut checkpoint_ms, mut reopen_ms, mut cold_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut replayed = 0usize;
    for _ in 0..REPEATS_MS_SCALE {
        for _ in 0..LOGGED_BEFORE_REOPEN {
            commit_one(&mut store);
        }
        let started = Instant::now();
        store.checkpoint().expect("checkpoint");
        checkpoint_ms.push(started.elapsed().as_secs_f64() * 1000.0);
        for _ in 0..LOGGED_BEFORE_REOPEN {
            commit_one(&mut store);
        }
        drop(store);
        let started = Instant::now();
        store = open();
        reopen_ms.push(started.elapsed().as_secs_f64() * 1000.0);
        store.set_checkpoint_bytes(u64::MAX);
        replayed = store.replayed_rows().len();
        // Rows the replay did not load are read through from blocks.dat.
        let replayed_rows: std::collections::BTreeSet<u64> =
            store.replayed_rows().iter().copied().collect();
        let untouched: Vec<u64> = (0..shape.rows)
            .filter(|r| !replayed_rows.contains(r))
            .take(64)
            .collect();
        for row in untouched {
            let started = Instant::now();
            black_box(store.read(row).expect("cold read"));
            cold_ns.push(started.elapsed().as_nanos() as f64);
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    let values = [
        (median(commit_ns), COMMITS),
        (fdatasync_ns, COMMITS),
        (read_ns, CALLS),
        (median(cold_ns.clone()), cold_ns.len()),
        (median(checkpoint_ms), REPEATS_MS_SCALE),
        (median(reopen_ms), REPEATS_MS_SCALE),
        (replayed as f64, 1),
        (commit_bytes as f64, COMMITS),
    ];
    STORAGE_NAMES
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, n))| Metric::new(name, unit, value, n as u64))
        .collect()
}
