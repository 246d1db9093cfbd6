//! A client endpoint owns no thread: it dials, writes and reads on its
//! caller's. One test, alone in its file, so the process's thread count
//! is this test's to read.

#![cfg(target_os = "linux")]

use radd_net::{Outbound, Transport};
use radd_protocol::Msg;
use radd_rt::SocketEndpoint;
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn a_client_endpoint_spawns_no_thread() {
    // Bare listeners: the kernel completes the dials from their backlog,
    // so nothing on this side needs a thread either.
    let listeners: Vec<TcpListener> = (0..3)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect();
    let before = threads();
    let client = SocketEndpoint::client(0, 1, addrs);
    for site in 0..3 {
        client.send(1 + site, &Msg::Read { index: 0, tag: 1 });
        assert!(client
            .recv_from(1 + site, Duration::from_millis(20))
            .is_none());
    }
    assert_eq!(threads(), before, "dialing or receiving started a thread");
    drop(client);
}
