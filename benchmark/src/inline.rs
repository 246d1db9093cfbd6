//! The traced replay: one thread that interprets the client and site
//! machines the way the socket runtime does, with a span around every call
//! into a layer.
//!
//! `radd_rt`'s interpreter spreads one operation over a caller thread, a
//! reader thread per connection and a site thread per site, so no span
//! recorded from outside can follow it. This file re-executes the same
//! public functions in the same order on one thread: `ClientMachine` with a
//! `ClientIo` that encodes (`encode_msg`), frames and writes
//! (`write_frame_payload`) to a real loopback connection, reads and checks
//! the frame on the other end (`FrameDecoder`), decodes (`Frame::decode`),
//! calls `SiteMachine::handle` on a real `SiteStore`, commits with the real
//! snapshot closure before interpreting effects (the WAL rule of
//! `server::run_site`), taps `MachineObs`, and delivers every `Effect::Send`
//! the same way until nothing is in flight. What it leaves out is exactly
//! what `radd_rt` adds around those calls (mutexes, the inbox channel,
//! thread hand-offs, timers), which is why the replayed total is smaller
//! than the live latency and the difference is reported as unaccounted.
//!
//! Calls the machines make themselves (`ChangeMask::diff`, `xor_fold`)
//! cannot be seen from here; `layers.rs` times them on the same shapes.

use crate::sut::{Shape, G, REBUILD_WAVE_ROWS, SITES};
use crate::trace::Tracer;
use bytes::Bytes;
use radd_obs::MachineObs;
use radd_protocol::obs::ObsEvent;
use radd_protocol::{
    encode_msg, BlockFault, Blocks, ClientErr, ClientIo, ClientMachine, CoalescePolicy, Dest,
    Effect, Msg, SiteMachine, SparePolicy,
};
use radd_rt::frame::write_frame_payload;
use radd_rt::{Frame, FrameDecoder};
use radd_storage::{SiteStore, StorageSpec};
use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::path::Path;

/// Endpoint numbering of a one-client cluster, as `radd_rt` assigns it.
const CLIENT_EP: usize = 0;
const EP_BASE: usize = 1;
/// First payload byte of a protocol frame (`radd_rt::frame`, type `1`).
const FRAME_TYPE_PROTO: u8 = 1;
const RECONSTRUCT_RETRIES: usize = 20;

/// Work one operation caused, counted where it happened.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCounts {
    /// Protocol messages that crossed a connection.
    pub msgs: u64,
    /// Bytes written to connections (frame headers included).
    pub frame_bytes: u64,
    /// `SiteStore::commit` calls that forced the log.
    pub commits: u64,
    /// Bytes the write-ahead logs grew by.
    pub wal_bytes: u64,
    /// Checkpoints a commit triggered.
    pub checkpoints: u64,
}

impl OpCounts {
    fn since(&self, earlier: &OpCounts) -> OpCounts {
        OpCounts {
            msgs: self.msgs - earlier.msgs,
            frame_bytes: self.frame_bytes - earlier.frame_bytes,
            commits: self.commits - earlier.commits,
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
            checkpoints: self.checkpoints - earlier.checkpoints,
        }
    }
}

pub struct Site {
    pub machine: SiteMachine,
    pub store: SiteStore,
    obs: MachineObs,
    down: bool,
}

/// Both ends of one loopback connection and the decoder behind each.
struct Conn {
    lo: TcpStream,
    hi: TcpStream,
    at_lo: FrameDecoder,
    at_hi: FrameDecoder,
}

impl Conn {
    fn open() -> Conn {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback listener");
        let lo = TcpStream::connect(listener.local_addr().expect("address")).expect("connect");
        let (hi, _) = listener.accept().expect("accept");
        lo.set_nodelay(true).expect("nodelay");
        hi.set_nodelay(true).expect("nodelay");
        Conn {
            lo,
            hi,
            at_lo: FrameDecoder::new(),
            at_hi: FrameDecoder::new(),
        }
    }
}

/// `Blocks` over a site's store with a span around every access, so storage
/// time inside `SiteMachine::handle` is not charged to the protocol.
struct SpannedStore<'a> {
    store: &'a mut SiteStore,
    tr: &'a mut Tracer,
}

impl Blocks for SpannedStore<'_> {
    fn read(&mut self, row: u64) -> Result<Bytes, BlockFault> {
        let s = self.tr.enter("storage.block_read");
        let r = self.store.read(row);
        self.tr.exit(s);
        r
    }
    fn write(&mut self, row: u64, data: &[u8]) -> Result<(), BlockFault> {
        let s = self.tr.enter("storage.block_write");
        let r = self.store.write(row, data);
        self.tr.exit(s);
        r
    }
    fn write_owned(&mut self, row: u64, data: Bytes) -> Result<(), BlockFault> {
        let s = self.tr.enter("storage.block_write");
        let r = self.store.write_owned(row, data);
        self.tr.exit(s);
        r
    }
}

/// Everything but the client machine: the `ClientIo` it drives.
struct Wire {
    tr: Tracer,
    sites: Vec<Site>,
    client_obs: MachineObs,
    conns: HashMap<(usize, usize), Conn>,
    in_flight: VecDeque<(usize, usize, Msg)>,
    counts: OpCounts,
    encode_buf: Vec<u8>,
    scratch: Vec<u8>,
}

impl Wire {
    /// Carry `msg` from endpoint `src` to endpoint `dst` over their
    /// connection: encode, frame, write, read, check, decode.
    fn hop(&mut self, src: usize, dst: usize, msg: &Msg) -> Msg {
        let s = self.tr.enter("protocol.codec_encode");
        self.encode_buf.clear();
        self.encode_buf.push(FRAME_TYPE_PROTO);
        encode_msg(msg, &mut self.encode_buf);
        self.tr.exit(s);

        let key = (src.min(dst), src.max(dst));
        let conn = self.conns.entry(key).or_insert_with(Conn::open);
        let (tx, rx, dec) = if src < dst {
            (&mut conn.lo, &mut conn.hi, &mut conn.at_hi)
        } else {
            (&mut conn.hi, &mut conn.lo, &mut conn.at_lo)
        };
        let s = self.tr.enter("rt.frame_write");
        write_frame_payload(tx, &self.encode_buf).expect("loopback write");
        self.tr.exit(s);
        self.counts.msgs += 1;
        self.counts.frame_bytes += (radd_rt::frame::FRAME_HEADER + self.encode_buf.len()) as u64;

        let s = self.tr.enter("rt.frame_read");
        let payload = loop {
            if let Some(p) = dec.next_payload().expect("a frame this file wrote") {
                break p;
            }
            let n = rx.read(&mut self.scratch).expect("loopback read");
            assert!(n > 0, "loopback connection closed mid-frame");
            dec.feed(&self.scratch[..n]);
        };
        self.tr.exit(s);

        let s = self.tr.enter("protocol.codec_decode");
        let frame = Frame::decode(&payload).expect("a frame this file encoded");
        self.tr.exit(s);
        match frame {
            Frame::Proto(m) => m,
            other => panic!("unexpected frame {other:?}"),
        }
    }

    /// One turn of `server::run_site` for site `site`: handle, commit, tap,
    /// send.
    fn deliver(&mut self, src: usize, site: usize, msg: Msg) {
        let Wire {
            tr, sites, counts, ..
        } = self;
        let st = &mut sites[site];
        if st.down {
            return;
        }
        let mut out = Vec::new();
        let s = tr.enter("protocol.site_handle");
        st.machine.handle(
            &mut SpannedStore {
                store: &mut st.store,
                tr,
            },
            src,
            msg,
            &mut out,
        );
        tr.exit(s);

        let wal_before = wal_len(&st.store);
        let s = tr.enter("storage.commit");
        let machine = &st.machine;
        let forced = st
            .store
            .commit(|| {
                let s = tr.enter("protocol.snapshot_encode");
                let snap = machine.durable_snapshot().encode();
                tr.exit(s);
                snap
            })
            .expect("durable commit");
        tr.exit(s);
        if forced {
            counts.commits += 1;
            let wal_after = wal_len(&st.store);
            if wal_after >= wal_before {
                counts.wal_bytes += wal_after - wal_before;
            } else {
                // The commit checkpointed and truncated the log; what it
                // appended first is no longer visible.
                counts.checkpoints += 1;
            }
        }

        let s = tr.enter("obs.tap");
        for eff in &out {
            st.obs.effect(eff);
        }
        tr.exit(s);
        for eff in out {
            if let Effect::Send { to, msg, .. } = eff {
                let dst = match to {
                    Dest::Site(s) => EP_BASE + s,
                    Dest::Peer(p) => p,
                };
                self.in_flight.push_back((EP_BASE + site, dst, msg));
            }
        }
    }
}

fn wal_len(store: &SiteStore) -> u64 {
    match store {
        SiteStore::Mem(_) => 0,
        SiteStore::Disk(d) => d.wal_bytes(),
    }
}

impl ClientIo for Wire {
    fn exchange(&mut self, site: usize, msg: Msg, _background: bool) -> Result<Msg, ClientErr> {
        let tag = msg.tag();
        let s = self.tr.enter("obs.tap");
        self.client_obs.event(ObsEvent::Send {
            to: Dest::Site(site),
            kind: msg.kind(),
            tag,
            wire: msg.wire_size() as u64,
            retransmit: false,
            replay: false,
        });
        self.tr.exit(s);
        self.in_flight.push_back((CLIENT_EP, EP_BASE + site, msg));
        let mut reply = None;
        while let Some((src, dst, msg)) = self.in_flight.pop_front() {
            let msg = self.hop(src, dst, &msg);
            if dst == CLIENT_EP {
                if msg.tag() == tag {
                    reply = Some(msg);
                }
            } else {
                self.deliver(src, dst - EP_BASE, msg);
            }
        }
        reply.ok_or(ClientErr::Timeout { site })
    }
}

/// A whole cluster on one thread.
pub struct Inline {
    client: ClientMachine,
    wire: Wire,
}

impl Inline {
    /// `data_dir`: root of the sites' durable stores when `shape.disk`.
    pub fn new(shape: Shape, data_dir: &Path, recording: bool) -> Inline {
        let spec = if shape.disk {
            StorageSpec::Disk {
                dir: data_dir.to_path_buf(),
            }
        } else {
            StorageSpec::Mem
        };
        let sites = (0..SITES)
            .map(|site| {
                let store = spec
                    .for_site(site)
                    .open(shape.rows, shape.block_size)
                    .expect("open the site store");
                let mut machine = SiteMachine::new(site, G, shape.rows, shape.block_size);
                machine.set_coalesce(CoalescePolicy::Merge);
                Site {
                    machine,
                    store,
                    obs: MachineObs::new(),
                    down: false,
                }
            })
            .collect();
        Inline {
            // The namespace `radd_rt` gives the client on endpoint 0.
            client: ClientMachine::new(
                G,
                shape.rows,
                shape.block_size,
                SparePolicy::OnePerParity,
                true,
                u16::MAX,
            ),
            wire: Wire {
                tr: Tracer::new(recording),
                sites,
                client_obs: MachineObs::new(),
                conns: HashMap::new(),
                in_flight: VecDeque::new(),
                counts: OpCounts::default(),
                encode_buf: Vec::new(),
                scratch: vec![0; 64 * 1024],
            },
        }
    }

    pub fn tracer(&self) -> &Tracer {
        &self.wire.tr
    }

    /// Site `site`'s machine and store, for `layers.rs` to time calls on
    /// state a real workload built.
    pub fn site_mut(&mut self, site: usize) -> &mut Site {
        &mut self.wire.sites[site]
    }

    /// Run `op` as one traced operation under a root span named `root`.
    fn op<T>(
        &mut self,
        root: &'static str,
        op: impl Fn(&mut ClientMachine, &mut Wire) -> Result<T, ClientErr>,
    ) -> Result<(T, OpCounts), String> {
        let before = self.wire.counts;
        self.wire.tr.next_op();
        let s = self.wire.tr.enter(root);
        let mut result = Err(ClientErr::Inconsistent { site: 0 });
        // `SocketClient` retries an inconsistent reconstruction; on one
        // thread nothing is ever in flight, so the first attempt settles it.
        for _ in 0..RECONSTRUCT_RETRIES {
            result = op(&mut self.client, &mut self.wire);
            if !matches!(result, Err(ClientErr::Inconsistent { .. })) {
                break;
            }
        }
        self.wire.tr.exit(s);
        match result {
            Ok(v) => Ok((v, self.wire.counts.since(&before))),
            Err(e) => Err(format!("{e:?}")),
        }
    }

    /// The root span says whether the operation took the degraded path.
    pub fn write(&mut self, site: usize, index: u64, data: &[u8]) -> Result<OpCounts, String> {
        let root = if self.client.is_down(site) {
            "protocol.client_degraded_write"
        } else {
            "protocol.client_write"
        };
        self.op(root, |m, io| m.write(io, site, index, data))
            .map(|((), c)| c)
    }

    pub fn read(&mut self, site: usize, index: u64) -> Result<(Vec<u8>, OpCounts), String> {
        let root = if self.client.is_down(site) {
            "protocol.client_degraded_read"
        } else {
            "protocol.client_read"
        };
        self.op(root, |m, io| m.read(io, site, index).map(|b| b.to_vec()))
    }

    /// Record spans from now on, or stop.
    pub fn set_recording(&mut self, on: bool) {
        self.wire.tr.set_recording(on);
    }

    /// The site stops answering and the client believes it down, or both
    /// are undone.
    pub fn set_down(&mut self, site: usize, down: bool) {
        self.wire.sites[site].down = down;
        self.client.set_down(site, down);
    }

    /// Rebuild a down site's blocks into the spares; blocks rebuilt.
    pub fn rebuild(&mut self, site: usize) -> Result<(u64, OpCounts), String> {
        self.op("protocol.client_rebuild", |m, io| {
            m.rebuild_member(io, site, REBUILD_WAVE_ROWS)
                .map(|r| r.blocks_rebuilt)
        })
    }

    /// Revive `site` and drain the spares back to it; blocks drained.
    pub fn recover(&mut self, site: usize) -> Result<(u64, OpCounts), String> {
        self.wire.sites[site].down = false;
        let drained = self.op("protocol.client_recover", |m, io| m.recover(io, site))?;
        self.client.set_down(site, false);
        Ok(drained)
    }
}
