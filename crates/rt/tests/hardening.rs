//! Server-hardening regressions: misbehaving connections must never take
//! a site down.
//!
//! The accept path hands every inbound connection to a reader thread that
//! parses frames defensively — a peer that disconnects mid-handshake,
//! ships a torn length prefix, or writes outright garbage costs the site
//! exactly one reader thread, never the site. These tests drive a live
//! site cluster through each abuse and then prove a well-formed client is
//! still served.
//!
//! What a well-framed message *says* is the site machine's to check: one
//! whose fields do not fit the geometry is refused on the wire, and the
//! site stays up.
//!
//! A reader thread handles what it reads under the site lock and sends the
//! effects while it holds it (DESIGN.md §12, "Thread model"), so one more
//! thing belongs here: a peer that stops *reading* costs the site a write
//! timeout and its own connection, nothing else. (`cross_traffic.rs` is
//! the other half: sites sending to each other under their locks.)

use bytes::Bytes;
use radd_layout::Geometry;
use radd_parity::{ChangeMask, Uid};
use radd_protocol::{CoalescePolicy, Msg, NackReason};
use radd_rt::frame::{read_frame, write_frame};
use radd_rt::net::WRITE_TIMEOUT;
use radd_rt::server::run_site;
use radd_rt::{
    Control, CtlClient, CtlRep, CtlReq, Frame, FrameDecoder, SiteConfig, SocketClient,
    SocketEndpoint,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

const G: usize = 1;
const ROWS: u64 = 8;
const BLOCK: usize = 64;
const EP_BASE: usize = 1;

type Sites = (
    Vec<SocketAddr>,
    Vec<mpsc::Sender<Control>>,
    Vec<thread::JoinHandle<()>>,
);

/// A bare G+2 site cluster on loopback, memory-backed.
fn spawn_sites() -> Sites {
    spawn_sites_with(EP_BASE, BLOCK)
}

fn spawn_sites_with(ep_base: usize, block_size: usize) -> Sites {
    let listeners: Vec<TcpListener> = (0..G + 2)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect();
    let (mut control, mut handles) = (Vec::new(), Vec::new());
    for (site, listener) in listeners.into_iter().enumerate() {
        let ep = SocketEndpoint::site(ep_base + site, ep_base, addrs.clone(), listener);
        let cfg = SiteConfig {
            site,
            group_size: G,
            rows: ROWS,
            block_size,
            ep_base,
            coalesce: CoalescePolicy::Merge,
            storage: radd_storage::StorageSpec::Mem,
        };
        let (tx, rx) = mpsc::channel();
        control.push(tx);
        handles.push(thread::spawn(move || run_site(cfg, &ep, &rx)));
    }
    (addrs, control, handles)
}

fn shutdown(control: &[mpsc::Sender<Control>], handles: Vec<thread::JoinHandle<()>>) {
    for tx in control {
        let _ = tx.send(Control::Shutdown);
    }
    for h in handles {
        h.join().expect("site thread");
    }
}

#[test]
fn a_mid_handshake_disconnect_leaves_the_site_serving() {
    let (addrs, control, handles) = spawn_sites();

    // Abuse 1: connect and vanish without ever sending a Hello.
    drop(TcpStream::connect(addrs[0]).expect("dial site 0"));

    // Abuse 2: disconnect mid-handshake — a length prefix promising a
    // 64-byte frame, then only half of it, then the connection dies.
    {
        let mut s = TcpStream::connect(addrs[0]).expect("dial site 0");
        s.write_all(&64u32.to_le_bytes()).expect("torn prefix");
        s.write_all(&[0xAB; 32]).expect("torn body");
    } // dropped here, mid-frame

    // Abuse 3: a complete frame's worth of garbage (checksum cannot
    // match), which must kill only that connection's reader.
    {
        let mut s = TcpStream::connect(addrs[0]).expect("dial site 0");
        let mut junk = Vec::new();
        junk.extend_from_slice(&16u32.to_le_bytes());
        junk.extend_from_slice(&[0x5A; 24]);
        s.write_all(&junk).expect("garbage frame");
        s.flush().expect("flush garbage");
        // Give the reader a moment to chew on it before disconnecting.
        thread::sleep(Duration::from_millis(50));
    }

    // The site must still serve a well-formed client end to end.
    let ep = SocketEndpoint::client(0, EP_BASE, addrs);
    let mut client = SocketClient::new(ep, G, ROWS, BLOCK);
    client
        .write(0, 1, &[0xCD; BLOCK])
        .expect("write still served");
    assert_eq!(
        client.read(0, 1).expect("read still served"),
        vec![0xCD; BLOCK]
    );
    drop(client);
    shutdown(&control, handles);
}

#[test]
fn an_oversized_length_prefix_only_costs_that_connection() {
    let (addrs, control, handles) = spawn_sites();

    // A length prefix far beyond the frame cap: the decoder must refuse
    // it (rather than attempt the allocation) and drop the connection.
    {
        let mut s = TcpStream::connect(addrs[0]).expect("dial site 0");
        s.write_all(&u32::MAX.to_le_bytes()).expect("huge prefix");
        s.flush().expect("flush prefix");
        thread::sleep(Duration::from_millis(50));
    }

    let ep = SocketEndpoint::client(0, EP_BASE, addrs);
    let mut client = SocketClient::new(ep, G, ROWS, BLOCK);
    client
        .write(0, 2, &[0xEE; BLOCK])
        .expect("write still served");
    assert_eq!(
        client.read(0, 2).expect("read still served"),
        vec![0xEE; BLOCK]
    );
    drop(client);
    shutdown(&control, handles);
}

#[test]
fn a_frame_with_the_serial_checksum_is_refused_and_the_site_serves_on() {
    use std::hash::Hasher;
    let (addrs, control, handles) = spawn_sites();

    // A peer connected before the stranger arrives, and served.
    let site_0 = addrs[0];
    let ep = SocketEndpoint::client(0, EP_BASE, addrs);
    let mut client = SocketClient::new(ep, G, ROWS, BLOCK);
    client.write(0, 1, &[0x11; BLOCK]).expect("write served");

    // A binary from before the laned checksum says Hello: a well-formed
    // payload under the one-lane `FxHash64` the frame check used to be.
    let mut payload = vec![0u8];
    payload.extend_from_slice(&7u64.to_le_bytes());
    let mut serial = radd_protocol::fasthash::FxHasher::default();
    serial.write(&payload);
    let mut old = TcpStream::connect(site_0).expect("dial site 0");
    old.write_all(&(payload.len() as u32).to_le_bytes())
        .expect("length");
    old.write_all(&serial.finish().to_le_bytes())
        .expect("check");
    old.write_all(&payload).expect("payload");

    // Refused: the site closes that connection (and says why on stderr).
    old.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    assert_eq!(
        old.read(&mut [0u8; 16]).expect("a close, not a timeout"),
        0,
        "the site answered a frame it should have refused"
    );

    // The peer that was there is served as before.
    assert_eq!(client.read(0, 1).expect("still served"), vec![0x11; BLOCK]);
    client.write(0, 2, &[0x22; BLOCK]).expect("write served");
    assert_eq!(client.read(0, 2).expect("read served"), vec![0x22; BLOCK]);
    drop(client);
    shutdown(&control, handles);
}

/// A header whose block piece lies outside the payload, and a `Hello` of
/// another wire version: each costs its own connection, the first from the
/// header alone, and the site serves on.
#[test]
fn hostile_block_bounds_and_a_foreign_version_cost_only_their_connection() {
    let (addrs, control, handles) = spawn_sites();
    let site_0 = addrs[0];
    let ep = SocketEndpoint::client(0, EP_BASE, addrs);
    let mut client = SocketClient::new(ep, G, ROWS, BLOCK);
    client.write(0, 1, &[0x33; BLOCK]).expect("write served");

    let mut hello = Vec::new();
    write_frame(&mut hello, &Frame::Hello { id: 7 }).expect("Vec write");
    let mut outside = hello.clone();
    // Block at byte 4 of a 10-byte payload, 4 GiB long.
    outside[12..16].copy_from_slice(&4u32.to_le_bytes());
    outside[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
    let mut foreign = hello;
    foreign[radd_rt::frame::FRAME_HEADER + 1] = radd_rt::frame::WIRE_VERSION + 1;
    for wire in [outside, foreign] {
        let mut stranger = TcpStream::connect(site_0).expect("dial site 0");
        stranger.write_all(&wire).expect("the frame");
        stranger
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        assert_eq!(
            stranger
                .read(&mut [0u8; 16])
                .expect("a close, not a timeout"),
            0,
            "the site kept a connection it should have closed"
        );
    }

    assert_eq!(client.read(0, 1).expect("still served"), vec![0x33; BLOCK]);
    drop(client);
    shutdown(&control, handles);
}

/// Well-framed parity updates whose fields do not fit: one from a site the
/// group does not have, one with a 3-byte mask. Both reach the machine
/// under the site lock, which must refuse them rather than panic there (a
/// panic under the lock takes the site down until a restart).
#[test]
fn a_parity_update_that_does_not_fit_is_refused_and_the_site_stays_up() {
    let (addrs, control, handles) = spawn_sites();
    let ep = SocketEndpoint::client(0, EP_BASE, addrs.clone());
    let mut client = SocketClient::new(ep, G, ROWS, BLOCK);
    client.write(0, 1, &[0x33; BLOCK]).expect("write served");

    // The written block's parity site, which now holds the row's UID array.
    let geo = Geometry::new(G, ROWS).expect("geometry");
    let row = geo.data_to_physical(0, 1);
    let parity = geo.parity_site(row);
    let mut stranger = TcpStream::connect(addrs[parity]).expect("dial the parity site");
    stranger
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    // An endpoint id no member or client of this cluster has.
    write_frame(&mut stranger, &Frame::Hello { id: 9 }).expect("hello");
    let mask = ChangeMask::diff(&[0; BLOCK], &[1; BLOCK]).encode();
    let bad = [
        (1, mask, 99, NackReason::OutOfRange),
        (2, Bytes::from(vec![1, 2, 3]), 0, NackReason::BadSize),
    ];
    for (tag, mask_wire, from_site, _) in &bad {
        let update = Msg::ParityUpdate {
            row,
            mask_wire: mask_wire.clone(),
            uid: Uid::from_raw(0xBAD),
            from_site: *from_site,
            tag: *tag,
        };
        write_frame(&mut stranger, &Frame::Proto(update)).expect("parity update");
    }
    let mut dec = FrameDecoder::new();
    for &(tag, _, _, reason) in &bad {
        let reply = read_frame(&mut stranger, &mut dec, &mut []).expect("a reply");
        assert_eq!(reply, Some(Frame::Proto(Msg::Nack { tag, reason })));
    }

    let mut ctl = CtlClient::connect(addrs[parity]).expect("control");
    assert_eq!(ctl.request(CtlReq::Ping), Ok(CtlRep::Pong { down: false }));
    assert_eq!(client.read(0, 1).expect("read served"), vec![0x33; BLOCK]);
    client.write(0, 1, &[0x44; BLOCK]).expect("write served");
    assert_eq!(client.read(0, 1).expect("read served"), vec![0x44; BLOCK]);
    drop(client);
    shutdown(&control, handles);
}

/// Writes given as change masks that do not fit, from a peer whose own
/// write is the block's base (so each gets past the base check to the mask
/// itself): a mask for a block of another length, a span past the block,
/// a block out of range and a base that is not the last write are each a
/// `Nack` on the wire, the block stays as the peer's write left it, and the
/// site serves on.
#[test]
fn a_write_mask_that_does_not_fit_is_refused_and_the_site_stays_up() {
    let (addrs, control, handles) = spawn_sites();
    let mut stranger = TcpStream::connect(addrs[0]).expect("dial site 0");
    stranger
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    write_frame(&mut stranger, &Frame::Hello { id: 0 }).expect("hello");
    let x = Bytes::from(vec![0x5A; BLOCK]);
    let write = Msg::Write {
        index: 1,
        data: x.clone(),
        tag: 1,
    };
    write_frame(&mut stranger, &Frame::Proto(write)).expect("write");
    let mut dec = FrameDecoder::new();
    let reply = read_frame(&mut stranger, &mut dec, &mut []).expect("a reply");
    assert_eq!(reply, Some(Frame::Proto(Msg::WriteOk { tag: 1 })));

    let other_length = ChangeMask::diff(&[0; 2 * BLOCK], &[1; 2 * BLOCK]).encode();
    let fits = ChangeMask::diff(&x, &[0x5B; BLOCK]).encode();
    // One span of four bytes two bytes before the block's end.
    let mut past_the_end = Vec::new();
    past_the_end.extend_from_slice(&(BLOCK as u32).to_le_bytes());
    past_the_end.extend_from_slice(&1u32.to_le_bytes());
    past_the_end.extend_from_slice(&(BLOCK as u32 - 2).to_le_bytes());
    past_the_end.extend_from_slice(&4u32.to_le_bytes());
    past_the_end.extend_from_slice(&[1; 4]);
    let bad = [
        (2, 1, 1, other_length, NackReason::BadSize),
        (3, 1, 1, Bytes::from(past_the_end), NackReason::BadSize),
        (4, 99, 1, fits.clone(), NackReason::OutOfRange),
        (5, 1, 77, fits, NackReason::StaleBase),
    ];
    for (tag, index, base_tag, mask_wire, _) in &bad {
        let mask = Msg::WriteMask {
            index: *index,
            base_tag: *base_tag,
            mask_wire: mask_wire.clone(),
            tag: *tag,
        };
        write_frame(&mut stranger, &Frame::Proto(mask)).expect("write mask");
    }
    for &(tag, _, _, _, reason) in &bad {
        let reply = read_frame(&mut stranger, &mut dec, &mut []).expect("a reply");
        assert_eq!(reply, Some(Frame::Proto(Msg::Nack { tag, reason })));
    }
    drop(stranger);

    let mut ctl = CtlClient::connect(addrs[0]).expect("control");
    assert_eq!(ctl.request(CtlReq::Ping), Ok(CtlRep::Pong { down: false }));
    let ep = SocketEndpoint::client(0, EP_BASE, addrs);
    let mut client = SocketClient::new(ep, G, ROWS, BLOCK);
    client.set_incarnation(1);
    assert_eq!(client.read(0, 1).expect("read served"), x.to_vec());
    client.write(0, 1, &[0x44; BLOCK]).expect("write served");
    assert_eq!(client.read(0, 1).expect("read served"), vec![0x44; BLOCK]);
    client.verify_parity().expect("parity holds");
    drop(client);
    shutdown(&control, handles);
}

/// A peer that asks for more than its socket buffers hold and never reads
/// a byte of it. The site's reader thread blocks writing a reply while it
/// holds the site lock; the write timeout must end that, forget the
/// connection, and leave the site serving everyone else. The stall is up
/// to two timeouts long: the `write` that was under way when the buffers
/// filled returns short after one, and only the next, which moves nothing,
/// fails after another. `STALL_BOUND` allows as much again for a loaded
/// machine; without the timeout the wait is the client's whole ladder and
/// then an error.
#[test]
fn a_peer_that_stops_reading_costs_one_write_timeout() {
    const BIG: usize = 256 * 1024;
    const CLIENTS: usize = 2;
    const STALL_BOUND: Duration = WRITE_TIMEOUT.saturating_mul(4);
    let (addrs, control, handles) = spawn_sites_with(CLIENTS, BIG);

    // The well-behaved client is connected and served first.
    let ep = SocketEndpoint::client(0, CLIENTS, addrs.clone());
    let mut client = SocketClient::new(ep, G, ROWS, BIG);
    client.write(0, 1, &vec![0x5C; BIG]).expect("write served");

    // 256 MiB of replies owed to a socket nobody reads: several times what
    // the two kernel buffers of a loopback connection may grow to (36 MiB
    // where this was written). The site gets as far as they let it.
    let mut deaf = TcpStream::connect(addrs[0]).expect("dial site 0");
    write_frame(&mut deaf, &Frame::Hello { id: 1 }).expect("hello");
    for tag in 1..=1024 {
        write_frame(&mut deaf, &Frame::Proto(Msg::Read { index: 1, tag })).expect("request");
    }

    // Asked while the site is filling those buffers or already stuck behind
    // them: one stall at most, then service as usual.
    thread::sleep(WRITE_TIMEOUT / 2);
    let asked = Instant::now();
    assert_eq!(client.read(0, 1).expect("read served"), vec![0x5C; BIG]);
    assert!(
        asked.elapsed() < STALL_BOUND,
        "a peer that stopped reading held the site for {:?}",
        asked.elapsed()
    );
    let (tx, rx) = mpsc::channel();
    control[0]
        .send(Control::QueryPending(tx))
        .expect("site alive");
    assert_eq!(rx.recv_timeout(STALL_BOUND), Ok(0));

    // The deaf peer's connection was given up, not left half-written: once
    // the stall has certainly timed out, what the peer finally reads ends
    // in a close. (Reading any sooner would un-stick the site instead.)
    thread::sleep(STALL_BOUND);
    deaf.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut sink = vec![0u8; 1 << 20];
    while deaf
        .read(&mut sink)
        .expect("data or a close, not a timeout")
        > 0
    {}

    drop(client);
    shutdown(&control, handles);
}
