//! The synchronous interpreter: `G + 2` site machines over their block
//! stores, and a delivery cascade.
//!
//! No network, no disk, no clock, no pricing: effects other than sends are
//! left to the [`Hook`]. This is the workspace's one synchronous cascade.
//! The machine-level property tests and the `recovery_path` bench stand
//! the machines on it over [`MemBlocks`] with no hook; the `protocol_core`
//! bench hangs the observability tap on it; the DES in `radd-core` is this
//! cascade over its disk arrays with one hook, which prices it (Figure 3),
//! counts its traffic, taps its traces, answers the buffer-pool old value
//! and takes §3.2's drain locks. The async interpreter in `radd-node`
//! interprets the same effect stream over real transports.
//!
//! A [`Hook`] sees every `handle` call and every client exchange, and may
//! refuse an exchange or answer [`ClientIo::old_value`]. It is a type
//! parameter, so a tap costs nothing where there is none: `Loopback<()>`'s
//! hook calls compile away.

use crate::client::{ClientErr, ClientIo};
use crate::effect::{Blocks, Dest, Effect, MemBlocks};
use crate::server::SiteMachine;
use crate::wire::Msg;
use std::collections::VecDeque;

/// What a [`Loopback`] user can hang on the interpreter.
pub trait Hook<B: Blocks = MemBlocks> {
    /// Site `site` is to handle `msg` from peer `src` (0 = the client,
    /// `1 + j` = site `j`). The default is the bare call; a hook may look
    /// at the machine before and after, tap or price `out`, deliver twice,
    /// or not deliver at all (nothing left in `out` = the message was
    /// swallowed). Only the sends in `out` are routed.
    fn handle(
        &mut self,
        _site: usize,
        machine: &mut SiteMachine,
        blocks: &mut B,
        src: usize,
        msg: Msg,
        out: &mut Vec<Effect>,
    ) {
        machine.handle(blocks, src, msg, out);
    }

    /// The client machine is about to exchange `msg` with `site`
    /// (`background`: recovery-daemon traffic). An `Err` refuses the
    /// exchange: the message is not delivered and the client sees the
    /// error.
    fn exchange(&mut self, _site: usize, _msg: &Msg, _background: bool) -> Result<(), ClientErr> {
        Ok(())
    }

    /// [`ClientIo::old_value`] of `site`'s block at `row`, with every site
    /// in view. The default has none, so the client fetches it.
    fn old_value(
        &mut self,
        _sites: &mut [(SiteMachine, B)],
        _site: usize,
        _row: u64,
    ) -> Option<Vec<u8>> {
        None
    }
}

/// No hook.
impl<B: Blocks> Hook<B> for () {}

/// `G + 2` site machines with their blocks, delivering synchronously.
#[derive(Debug)]
pub struct Loopback<H = (), B = MemBlocks> {
    /// Site `j`'s machine and its block store.
    pub sites: Vec<(SiteMachine, B)>,
    /// The hook, for reading back whatever it gathered.
    pub hook: H,
}

impl<H: Hook> Loopback<H> {
    /// Fresh, healthy sites for a group of size `g` with `rows` rows of
    /// `block_size` bytes each, in memory.
    pub fn new(g: usize, rows: u64, block_size: usize, hook: H) -> Loopback<H> {
        Loopback {
            sites: (0..g + 2)
                .map(|j| {
                    (
                        SiteMachine::new(j, g, rows, block_size),
                        MemBlocks::new(rows, block_size),
                    )
                })
                .collect(),
            hook,
        }
    }
}

impl<H: Hook<B>, B: Blocks> Loopback<H, B> {
    /// Deliver `msg` to site `dst` as peer `src` and run the cascade it
    /// starts to completion, in FIFO order. Returns the reply addressed to
    /// the client (peer 0), if the cascade produced one.
    pub fn deliver(&mut self, dst: usize, src: usize, msg: Msg) -> Option<Msg> {
        let mut queue = VecDeque::new();
        queue.push_back((dst, src, msg));
        let mut reply = None;
        while let Some((d, s, m)) = queue.pop_front() {
            let (machine, blocks) = &mut self.sites[d];
            let mut out = Vec::new();
            self.hook.handle(d, machine, blocks, s, m, &mut out);
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

impl<H: Hook<B>, B: Blocks> ClientIo for Loopback<H, B> {
    fn exchange(&mut self, site: usize, msg: Msg, background: bool) -> Result<Msg, ClientErr> {
        self.hook.exchange(site, &msg, background)?;
        self.deliver(site, 0, msg)
            .ok_or(ClientErr::Unavailable { site })
    }

    fn old_value(&mut self, site: usize, row: u64) -> Option<Vec<u8>> {
        self.hook.old_value(&mut self.sites, site, row)
    }
}
