//! Server-hardening regressions: misbehaving connections must never take
//! a site down.
//!
//! The accept path hands every inbound connection to a reader thread that
//! parses frames defensively — a peer that disconnects mid-handshake,
//! ships a torn length prefix, or writes outright garbage costs the site
//! exactly one reader thread, never the event loop. These tests drive a
//! live site cluster through each abuse and then prove a well-formed
//! client is still served.

use radd_protocol::CoalescePolicy;
use radd_rt::server::run_site;
use radd_rt::{Control, SiteConfig, SocketClient, SocketEndpoint};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

const G: usize = 1;
const ROWS: u64 = 8;
const BLOCK: usize = 64;
const EP_BASE: usize = 1;

/// A bare G+2 site cluster on loopback, memory-backed.
fn spawn_sites() -> (
    Vec<SocketAddr>,
    Vec<mpsc::Sender<Control>>,
    Vec<thread::JoinHandle<()>>,
) {
    let listeners: Vec<TcpListener> = (0..G + 2)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect();
    let (mut control, mut handles) = (Vec::new(), Vec::new());
    for (site, listener) in listeners.into_iter().enumerate() {
        let ep = SocketEndpoint::site(EP_BASE + site, EP_BASE, addrs.clone(), listener);
        let cfg = SiteConfig {
            site,
            group_size: G,
            rows: ROWS,
            block_size: BLOCK,
            ep_base: EP_BASE,
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
