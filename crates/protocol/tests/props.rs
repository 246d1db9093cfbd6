//! Property tests of the sans-IO machines, independent of any runtime.
//!
//! * **Idempotent parity application**: delivering the same `ParityUpdate`
//!   twice (a retransmission, §3.2's stop-and-wait) leaves the parity
//!   block and UID array exactly as after the first delivery, performs no
//!   block I/O, and answers from the reply cache.
//! * **No traffic to believed-down sites**: whatever the client machine is
//!   asked to do, it never exchanges a message with a site it believes
//!   down — degraded paths route around it (the whole point of §3.2).
//! * **Soundness of the commit skip**: over message sequences with
//!   duplicates, reads, acks, a failure, degraded traffic and the recovery
//!   drain, a handled message that leaves `durable_version` unchanged leaves
//!   the encoded durable snapshot byte-identical (what lets the site loops
//!   skip `commit`), and reads, acks and duplicate requests are among the
//!   messages that leave it unchanged (what makes the skip worth having).
//! * **Soundness of the patch**: over the same sequences, draining a
//!   machine's journal every few messages and applying what comes out to
//!   the encoding the previous drain left always lands on
//!   `durable_snapshot().encode()`, byte for byte, whether the drain was a
//!   patch, crossed a change of shape (a spare installed or taken, a parity
//!   row's first update, a row validated) or overflowed the journal. The
//!   live site asserts this in debug builds only; CI runs this file in
//!   release too.
//! * **A cache fill is not the read**: a reconstructed degraded read
//!   returns its block even when the spare never answers the fill.
//! * **Every belief reads the last write**: through healthy, down (the
//!   site's data blocks written into spares, its parity blocks stood in
//!   for by them), recovering (§3.2's spare-first reads and drain-first
//!   writes) and drained, every write succeeds, every read returns the
//!   block's last acknowledged write, and after the drain every stripe's
//!   parity is the XOR of its data.
//! * **A lost row is not masked against the blank**: a write to a row lost
//!   with its disk is refused; a client that believes the site recovering
//!   writes it W1' instead.
//! * **A parity stand-in is installed once**: a second install over it is
//!   refused, so a first touch that lost a race cannot overwrite the masks
//!   that already landed, and a client that meets the refusal writes on.
//! * **A reply block of the wrong size is refused**: a `ReadOk`, `BlockData`
//!   or `SpareState` whose block is a byte short or a byte long, or a parity
//!   site's `BlockData` whose UID array is a UID short, a UID long or
//!   absent, fails the client operation with `BadSize`, where it used to
//!   panic the client, reach the caller, or fold as if the missing slots
//!   were zero.

use bytes::Bytes;
use proptest::prelude::*;
use radd_layout::Geometry;
use radd_parity::{ChangeMask, Uid};
use radd_protocol::loopback::{Hook, Loopback};
use radd_protocol::wire::MsgKind;
use radd_protocol::{
    check_stripe_parity, Blocks, ClientErr, ClientMachine, Dest, DurableDelta, Effect, MemBlocks,
    Msg, NackReason, SiteMachine, SparePolicy,
};
use std::collections::BTreeMap;

const G: usize = 4;
const ROWS: u64 = 12;
const BLOCK: usize = 32;

// ---------------------------------------------------------------------
// (a) duplicated parity-update delivery is effect-free after the first
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn duplicate_parity_update_is_effect_free(
        row in 0..ROWS,
        old in proptest::collection::vec(any::<u8>(), BLOCK),
        new in proptest::collection::vec(any::<u8>(), BLOCK),
        uid_raw in 1u64..u64::MAX,
        from_peer_salt in 0usize..G,
    ) {
        let geo = Geometry::new(G, ROWS).unwrap();
        let parity_site = geo.parity_site(row);
        // Sender: any data site of the row.
        let from_site = geo.data_sites(row)[from_peer_salt % G];
        let mut machine = SiteMachine::new(parity_site, G, ROWS, BLOCK);
        let mut blocks = MemBlocks::new(ROWS, BLOCK);

        let msg = Msg::ParityUpdate {
            row,
            mask_wire: ChangeMask::diff(&old, &new).encode(),
            uid: Uid::from_raw(uid_raw),
            from_site,
            tag: 7,
        };
        let src_peer = from_site + 1;

        let mut first = Vec::new();
        machine.handle(&mut blocks, src_peer, msg.clone(), &mut first);
        let applied_block = Blocks::read(&mut blocks, row).unwrap();
        let applied_uid = machine.parity_uids().get(&row).cloned();

        let mut second = Vec::new();
        machine.handle(&mut blocks, src_peer, msg, &mut second);

        // No block I/O of any kind on the duplicate.
        prop_assert!(
            !second.iter().any(|e| matches!(e, Effect::Read { .. } | Effect::Write { .. })),
            "duplicate delivery touched blocks: {second:?}"
        );
        // Same ack, straight from the reply cache.
        prop_assert!(
            second.iter().any(|e| matches!(
                e,
                Effect::Send { msg: Msg::Ack { tag: 7 }, replay: true, .. }
            )),
            "duplicate delivery did not replay the cached ack: {second:?}"
        );
        // Parity block and UID bookkeeping byte-identical.
        prop_assert_eq!(Blocks::read(&mut blocks, row).unwrap(), applied_block);
        prop_assert_eq!(machine.parity_uids().get(&row).cloned(), applied_uid);
    }
}

// ---------------------------------------------------------------------
// (b) the client machine never exchanges with a believed-down site
// ---------------------------------------------------------------------

/// The hook that turns [`Loopback`] into both properties' checker. It
/// panics the moment the client exchanges with a believed-down site;
/// messages a site sends to a down peer are swallowed (the threaded
/// runtime's behaviour; they would retransmit until the peer returned);
/// and every `handle` is audited against the two rules the site loops
/// rely on: same version, same snapshot bytes; and the encoding a site
/// last drained to, plus what the next drain hands over, is the snapshot.
struct Audit {
    down: Vec<bool>,
    /// Deliver every message twice, back to back (the transport's
    /// adjacent duplication).
    duplicate: bool,
    /// Handled messages that left `durable_version` where it was.
    unchanged: u64,
    /// Each site's encoding as of its last drain (a store's committed
    /// blob) with the version it was drained at. A site is drained after
    /// every `drain_every`-th message handled anywhere, if its version
    /// moved: 1 is the live site's cadence, more lets one drain cover
    /// several messages, up to a journal overflow.
    blobs: Vec<(Vec<u8>, Option<u64>)>,
    drain_every: u64,
    handled: u64,
    /// Drains that came out as a (non-empty) patch / as a whole encoding.
    patches: u64,
    wholes: u64,
}

type Net = Loopback<Audit>;

fn net() -> Net {
    let audit = Audit {
        down: vec![false; G + 2],
        duplicate: false,
        unchanged: 0,
        blobs: vec![(Vec::new(), None); G + 2],
        drain_every: 1,
        handled: 0,
        patches: 0,
        wholes: 0,
    };
    Loopback::new(G, ROWS, BLOCK, audit)
}

impl Hook for Audit {
    fn handle(
        &mut self,
        d: usize,
        machine: &mut SiteMachine,
        blocks: &mut MemBlocks,
        s: usize,
        m: Msg,
        out: &mut Vec<Effect>,
    ) {
        if self.down[d] {
            return; // swallowed; a live sender would retransmit
        }
        let Audit {
            unchanged,
            blobs,
            drain_every,
            handled,
            patches,
            wholes,
            ..
        } = self;
        let (blob, drained_at) = &mut blobs[d];
        let mut handle_audited = |m: Msg, dup: bool, out: &mut Vec<Effect>| {
            let version = machine.durable_version();
            let snapshot = machine.durable_snapshot().encode();
            let changes_nothing = dup || matches!(m, Msg::Read { .. } | Msg::Ack { .. });
            let what = format!("{m:?}");
            machine.handle(blocks, s, m, out);
            if machine.durable_version() == version {
                *unchanged += 1;
                assert_eq!(
                    machine.durable_snapshot().encode(),
                    snapshot,
                    "site {d}: durable snapshot moved under an unchanged version by {what}"
                );
            } else {
                assert!(
                    !changes_nothing,
                    "site {d}: {what} (duplicate: {dup}) bumped the durable version"
                );
            }
            *handled += 1;
            if *handled % *drain_every == 0 && *drained_at != Some(machine.durable_version()) {
                *drained_at = Some(machine.durable_version());
                match machine.drain_durable(blob) {
                    DurableDelta::Patch(patch) => {
                        *patches += u64::from(!patch.is_empty());
                        patch.apply(blob);
                    }
                    DurableDelta::Whole(whole) => {
                        *wholes += 1;
                        *blob = whole;
                    }
                }
                assert_eq!(
                    *blob,
                    machine.durable_snapshot().encode(),
                    "site {d}: the drained encoding is not the snapshot after {what}"
                );
            }
        };
        if self.duplicate {
            handle_audited(m.clone(), false, out);
            // The duplicate's effects are replays (or nothing): a real
            // receiver drops them by tag, and so does this one.
            handle_audited(m, true, &mut Vec::new());
        } else {
            handle_audited(m, false, out);
        }
    }

    fn exchange(&mut self, site: usize, msg: &Msg, _background: bool) -> Result<(), ClientErr> {
        assert!(
            !self.down[site],
            "client machine sent {msg:?} to believed-down site {site}"
        );
        Ok(())
    }
}

#[derive(Debug, Clone)]
enum Op {
    Write { site: usize, index: u64, fill: u8 },
    Read { site: usize, index: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..G + 2, 0..8u64, any::<u8>()).prop_map(|(site, index, fill)| Op::Write {
            site,
            index,
            fill
        }),
        (0..G + 2, 0..8u64).prop_map(|(site, index)| Op::Read { site, index }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn client_never_contacts_a_believed_down_site(
        down_site in 0..G + 2,
        ops in proptest::collection::vec(arb_op(), 1..40),
    ) {
        let mut net = net();
        let mut client =
            ClientMachine::new(G, ROWS, BLOCK, SparePolicy::OnePerParity, true, u16::MAX);

        // Seed some healthy-state content first.
        for s in 0..G + 2 {
            let _ = client.write(&mut net, s, 0, &[s as u8 + 1; BLOCK]);
        }

        net.hook.down[down_site] = true;
        client.set_down(down_site, true);

        for op in &ops {
            // Errors (multiple-failure refusals, unavailable spares) are
            // legitimate protocol outcomes; the property is only that the
            // exchange assertion in `Audit` never fires.
            match *op {
                Op::Write { site, index, fill } => {
                    let _ = client.write(&mut net, site, index, &[fill; BLOCK]);
                }
                Op::Read { site, index } => {
                    let _ = client.read(&mut net, site, index);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// (c) an unchanged durable version means an unchanged durable snapshot
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn unchanged_durable_version_means_unchanged_snapshot(
        down_site in 0..G + 2,
        healthy in proptest::collection::vec(arb_op(), 1..24),
        degraded in proptest::collection::vec(arb_op(), 1..24),
        recovering in proptest::collection::vec(arb_op(), 1..24),
        after in proptest::collection::vec(arb_op(), 1..12),
        drain_every in 1u64..8,
    ) {
        let mut net = net();
        net.hook.duplicate = true;
        net.hook.drain_every = drain_every;
        let mut client =
            ClientMachine::new(G, ROWS, BLOCK, SparePolicy::OnePerParity, true, u16::MAX);
        // The checks live in `Audit`'s `handle`; outcomes of the
        // operations themselves are not the property.
        let run = |net: &mut Net, client: &mut ClientMachine, ops: &[Op]| {
            for op in ops {
                match *op {
                    Op::Write { site, index, fill } => {
                        let _ = client.write(net, site, index, &[fill; BLOCK]);
                    }
                    Op::Read { site, index } => {
                        let _ = client.read(net, site, index);
                    }
                }
            }
        };
        run(&mut net, &mut client, &healthy);

        net.hook.down[down_site] = true;
        client.set_down(down_site, true);
        run(&mut net, &mut client, &degraded);
        let _ = client.rebuild_member(&mut net, down_site, 4);

        net.hook.down[down_site] = false;
        client.set_recovering(down_site);
        run(&mut net, &mut client, &recovering);
        let _ = client.recover(&mut net, down_site);
        client.set_down(down_site, false);
        run(&mut net, &mut client, &after);

        // Every message was delivered twice, so at least every second
        // delivery must have taken the skip.
        prop_assert!(net.hook.unchanged > 0);
    }
}

/// What keeps the property above from passing vacuously: at the live
/// site's cadence a healthy write is a patch at its data site and at its
/// parity site (the first one to reach each is that site's first drain, or
/// the parity row's first array: whole), and a degraded write's spare
/// install is a change of shape.
#[test]
fn a_healthy_write_drains_to_patches_and_a_spare_install_to_a_whole_encoding() {
    let mut net = net();
    let mut client = ClientMachine::new(G, ROWS, BLOCK, SparePolicy::OnePerParity, true, u16::MAX);
    client.write(&mut net, 0, 0, &[1; BLOCK]).expect("healthy");
    assert_eq!((net.hook.patches, net.hook.wholes), (0, 2));
    client.write(&mut net, 0, 0, &[2; BLOCK]).expect("healthy");
    assert_eq!((net.hook.patches, net.hook.wholes), (2, 2));

    net.hook.down[0] = true;
    client.set_down(0, true);
    client.write(&mut net, 0, 0, &[3; BLOCK]).expect("degraded");
    assert_eq!(net.hook.patches, 3, "the parity update patches");
    // Every survivor was read for the reconstruction and has now made its
    // first drain; from here on a whole encoding is a change of shape.
    let wholes = net.hook.wholes;
    client.write(&mut net, 0, 0, &[4; BLOCK]).expect("degraded");
    assert_eq!(
        (net.hook.patches, net.hook.wholes),
        (4, wholes + 1),
        "the parity update patches, the spare re-install does not"
    );
}

/// The journal lists distinct fields up to its bound and says "shape" past
/// it: eight touched rows drain to a patch, a ninth to the whole encoding,
/// and both land on the snapshot. Touching one field many times is one
/// entry.
#[test]
fn a_journal_past_its_bound_drains_whole() {
    let mut machine = SiteMachine::new(1, G, 64, BLOCK);
    let DurableDelta::Whole(mut blob) = machine.drain_durable(&[]) else {
        panic!("a machine that was never drained has nothing to patch");
    };
    for (rows, patched) in [(8u64, true), (9, false)] {
        for _ in 0..3 {
            for row in 0..rows {
                let uid = Uid::from_raw(0x77 + row);
                machine.set_block_uid(row * 7, uid);
            }
        }
        match machine.drain_durable(&blob) {
            DurableDelta::Patch(patch) => {
                assert!(patched, "{rows} rows fit the journal");
                patch.apply(&mut blob);
            }
            DurableDelta::Whole(whole) => {
                assert!(!patched, "{rows} rows overflow the journal");
                blob = whole;
            }
        }
        assert_eq!(blob, machine.durable_snapshot().encode());
    }
    // A committed blob of another length (not this machine's last
    // encoding) is never patched.
    machine.mint_uid();
    assert!(matches!(
        machine.drain_durable(&blob[1..]),
        DurableDelta::Whole(_)
    ));
}

// ---------------------------------------------------------------------
// (e) a degraded read does not wait on its cache fill's answer
// ---------------------------------------------------------------------

/// Loses every `SpareInstall` on its way to the spare.
struct LoseInstalls;

impl Hook for LoseInstalls {
    fn handle(
        &mut self,
        _site: usize,
        machine: &mut SiteMachine,
        blocks: &mut MemBlocks,
        src: usize,
        msg: Msg,
        out: &mut Vec<Effect>,
    ) {
        if !matches!(msg, Msg::SpareInstall { .. }) {
            machine.handle(blocks, src, msg, out);
        }
    }
}

/// The read has its data once the fold checks out; the fill that caches
/// it in the spare is background work whose loss costs the next read a
/// reconstruction, not this read its answer (it once failed the read with
/// the spare's `Unavailable`, and on the socket runtime only after the
/// whole retry ladder).
#[test]
fn a_reconstructed_read_survives_a_lost_cache_fill() {
    let mut net = Loopback::new(G, ROWS, BLOCK, LoseInstalls);
    let mut client = ClientMachine::new(G, ROWS, BLOCK, SparePolicy::OnePerParity, true, u16::MAX);
    client.write(&mut net, 0, 0, &[7; BLOCK]).expect("healthy");
    client.set_down(0, true);
    for _ in 0..2 {
        let block = client.read(&mut net, 0, 0).expect("reconstructed");
        assert_eq!(&block[..], &[7; BLOCK]);
    }
}

// ---------------------------------------------------------------------
// (f) every belief about a site reads the last acknowledged write
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_belief_reads_the_last_acknowledged_write(
        site in 0..G + 2,
        healthy in proptest::collection::vec(arb_op(), 1..24),
        down in proptest::collection::vec(arb_op(), 1..24),
        recovering in proptest::collection::vec(arb_op(), 1..24),
        drained in proptest::collection::vec(arb_op(), 1..12),
    ) {
        let mut net = net();
        let mut client =
            ClientMachine::new(G, ROWS, BLOCK, SparePolicy::OnePerParity, true, u16::MAX);
        let geo = *client.geometry();
        // Acknowledged content per block; a block never written reads zero.
        let mut acked: BTreeMap<(usize, u64), Vec<u8>> = BTreeMap::new();
        let mut run = |net: &mut Net, client: &mut ClientMachine, ops: &[Op]| {
            for op in ops {
                match *op {
                    Op::Write { site, index, fill } => {
                        let data = vec![fill; BLOCK];
                        client.write(net, site, index, &data).expect("single failure");
                        acked.insert((site, index), data);
                    }
                    Op::Read { site, index } => {
                        let got = client.read(net, site, index).expect("single failure");
                        let want = acked.get(&(site, index)).cloned().unwrap_or(vec![0; BLOCK]);
                        assert_eq!(&got[..], &want[..], "read of ({site}, {index})");
                    }
                }
            }
        };
        run(&mut net, &mut client, &healthy);

        net.hook.down[site] = true;
        believe_down(&mut net, site, true);
        client.set_down(site, true);
        run(&mut net, &mut client, &down);

        net.hook.down[site] = false;
        believe_down(&mut net, site, false);
        client.set_recovering(site);
        run(&mut net, &mut client, &recovering);

        client.recover(&mut net, site).expect("drain");
        client.set_down(site, false);
        run(&mut net, &mut client, &drained);

        prop_assert_eq!(
            check_stripe_parity(&geo, &mut |s, row| {
                Blocks::read(&mut net.sites[s].1, row).ok().map(|b| b.to_vec())
            }),
            Ok(())
        );
    }
}

/// Tell every site but `site` to believe it down (or back), as the
/// harnesses do before they tell the client.
fn believe_down<H>(net: &mut Loopback<H>, site: usize, down: bool) {
    for (s, (machine, _)) in net.sites.iter_mut().enumerate() {
        if s != site {
            machine.set_peer_down(site, down);
        }
    }
}

// ---------------------------------------------------------------------
// (g) a write to a lost row is refused, not masked against the blank
// ---------------------------------------------------------------------

/// A row lost with its disk holds a blank block and no UID: a change mask
/// taken against it would corrupt the row's parity. The site refuses the
/// write (it once acknowledged it), and a client that believes the site
/// recovering writes the block W1' into the spare instead, from where the
/// next read drains it back.
#[test]
fn a_write_to_a_lost_row_is_refused_and_a_recovering_one_goes_w1_prime() {
    let mut net = Loopback::new(G, ROWS, BLOCK, ());
    let mut client = ClientMachine::new(G, ROWS, BLOCK, SparePolicy::OnePerParity, true, u16::MAX);
    client.write(&mut net, 0, 0, &[7; BLOCK]).expect("healthy");
    let row = client.geometry().data_to_physical(0, 0);
    let (machine, blocks) = &mut net.sites[0];
    machine.forget_rows(row..row + 1);
    Blocks::write(blocks, row, &[0; BLOCK]).unwrap();

    let err = client.write(&mut net, 0, 0, &[9; BLOCK]).unwrap_err();
    assert!(
        err.is_refusal(),
        "a lost row must refuse the write: {err:?}"
    );
    assert_eq!(
        &Blocks::read(&mut net.sites[0].1, row).unwrap()[..],
        &[0; BLOCK]
    );

    client.set_recovering(0);
    client.write(&mut net, 0, 0, &[9; BLOCK]).expect("W1'");
    let spare = client.geometry().spare_site(row);
    assert!(
        net.sites[spare].0.spare_valid(row),
        "the spare took the write"
    );
    assert_eq!(&client.read(&mut net, 0, 0).unwrap()[..], &[9; BLOCK]);
    assert!(
        !net.sites[spare].0.spare_valid(row),
        "the read drained it back"
    );
    assert_eq!(client.recover(&mut net, 0), Ok(0));
    client.set_down(0, false);
    assert_eq!(&client.read(&mut net, 0, 0).unwrap()[..], &[9; BLOCK]);
    let geo = *client.geometry();
    check_stripe_parity(&geo, &mut |s, row| {
        Blocks::read(&mut net.sites[s].1, row)
            .ok()
            .map(|b| b.to_vec())
    })
    .unwrap();
}

// ---------------------------------------------------------------------
// (h) a parity stand-in is installed once
// ---------------------------------------------------------------------

/// Keeps the first `SpareInstall` it sees, and answers the next
/// `SpareProbe` as if the spare were free once `free_once` is set.
#[derive(Default)]
struct Race {
    install: Option<Msg>,
    free_once: bool,
}

impl Hook for Race {
    fn handle(
        &mut self,
        _site: usize,
        machine: &mut SiteMachine,
        blocks: &mut MemBlocks,
        src: usize,
        msg: Msg,
        out: &mut Vec<Effect>,
    ) {
        if let (Msg::SpareProbe { tag, .. }, true) = (&msg, self.free_once) {
            self.free_once = false;
            let free = Msg::SpareState {
                tag: *tag,
                slot: None,
            };
            return out.push(Effect::send(Dest::Peer(src), free));
        }
        if matches!(msg, Msg::SpareInstall { .. }) && self.install.is_none() {
            self.install = Some(msg.clone());
        }
        machine.handle(blocks, src, msg, out);
    }
}

/// Two first touches race while a row's parity site is down: both saw the
/// spare free, one installed and its write's W2 landed on the stand-in.
/// The other's install, folded from the row as it was before that write,
/// is refused; delivered, it would have overwritten the mask that landed.
/// A client that meets the refusal reads it as "already built" and writes.
#[test]
fn a_parity_stand_in_is_installed_once() {
    let mut net = Loopback::new(G, ROWS, BLOCK, Race::default());
    let mut client = ClientMachine::new(G, ROWS, BLOCK, SparePolicy::OnePerParity, true, u16::MAX);
    let geo = *client.geometry();
    let row = geo.data_to_physical(0, 0);
    let (parity, spare) = (geo.parity_site(row), geo.spare_site(row));
    let other = geo.data_sites(row)[1];
    let other_index = geo.physical_to_data(other, row).unwrap();
    client.write(&mut net, 0, 0, &[1; BLOCK]).expect("healthy");

    believe_down(&mut net, parity, true);
    client.set_down(parity, true);
    client
        .write(&mut net, 0, 0, &[2; BLOCK])
        .expect("first touch");
    // The other first touch's install: the same fold, its own request.
    let Some(Msg::SpareInstall {
        row,
        for_site,
        data,
        content,
        ..
    }) = net.hook.install.take()
    else {
        panic!("the first touch installed");
    };
    let late = Msg::SpareInstall {
        row,
        for_site,
        data,
        content,
        tag: u64::MAX,
    };
    let refused = net.deliver(spare, 0, late);
    assert!(
        matches!(
            refused,
            Some(Msg::Nack {
                reason: NackReason::Conflict,
                ..
            })
        ),
        "a second parity stand-in was installed: {refused:?}"
    );

    net.hook.free_once = true;
    client
        .write(&mut net, other, other_index, &[3; BLOCK])
        .expect("a refused first touch writes on");

    believe_down(&mut net, parity, false);
    client.set_recovering(parity);
    assert_eq!(client.recover(&mut net, parity), Ok(1));
    client.set_down(parity, false);
    check_stripe_parity(&geo, &mut |s, row| {
        Blocks::read(&mut net.sites[s].1, row)
            .ok()
            .map(|b| b.to_vec())
    })
    .unwrap();
    assert_eq!(&client.read(&mut net, 0, 0).unwrap()[..], &[2; BLOCK]);
    assert_eq!(
        &client.read(&mut net, other, other_index).unwrap()[..],
        &[3; BLOCK]
    );
}

// ---------------------------------------------------------------------
// (i) a reply block that is not a block long is refused
// ---------------------------------------------------------------------

/// How [`Resize`] misshapes a reply.
#[derive(Debug, Clone, Copy)]
enum Misfit {
    /// The block a byte short (`false`) or a byte long (`true`).
    Block(bool),
    /// The parity UID array a UID short or long (`Some`, as for
    /// [`Misfit::Block`]), or taken away (`None`).
    Uids(Option<bool>),
}

/// Misshapes, as `misfit` says, every reply of kind `kind` that a site
/// sends the client.
struct Resize {
    kind: MsgKind,
    misfit: Misfit,
}

impl Hook for Resize {
    fn handle(
        &mut self,
        _site: usize,
        machine: &mut SiteMachine,
        blocks: &mut MemBlocks,
        src: usize,
        msg: Msg,
        out: &mut Vec<Effect>,
    ) {
        machine.handle(blocks, src, msg, out);
        for eff in out.iter_mut() {
            let Effect::Send {
                to: Dest::Peer(0),
                msg,
                ..
            } = eff
            else {
                continue;
            };
            if msg.kind() != self.kind {
                continue;
            }
            match (self.misfit, msg) {
                (Misfit::Block(longer), Msg::ReadOk { data, .. } | Msg::BlockData { data, .. }) => {
                    *data = Bytes::from(resized(data.to_vec(), longer));
                }
                (
                    Misfit::Block(longer),
                    Msg::SpareState {
                        slot: Some(slot), ..
                    },
                ) => {
                    slot.data = Bytes::from(resized(slot.data.to_vec(), longer));
                }
                (Misfit::Uids(by), Msg::BlockData { parity_uids, .. }) => {
                    if let Some(uids) = parity_uids.take() {
                        *parity_uids = by.map(|longer| resized(uids, longer));
                    }
                }
                _ => {}
            }
        }
    }
}

/// `v` one element longer (a copy of its first) or one shorter.
fn resized<T: Clone>(mut v: Vec<T>, longer: bool) -> Vec<T> {
    if longer {
        v.push(v[0].clone());
    } else {
        v.pop();
    }
    v
}

/// Each reply that carries a block to the client, a byte short and a byte
/// long: `ReadOk` to a healthy read, `BlockData` to a reconstruction's
/// source reads, and `SpareState` to the probe a degraded read makes of a
/// spare that holds a redirected write. Then the parity site's `BlockData`
/// to a reconstruction, its UID array a UID short, a UID long and absent.
/// Each is `BadSize`; a short `BlockData` once panicked `xor_fold`, a
/// short slot `ChangeMask::diff`, a short `ReadOk` reached the caller, a
/// short or absent array was folded as if the missing slots were zero and
/// a long one was taken.
#[test]
fn a_reply_block_of_the_wrong_size_is_refused() {
    let blocks = [MsgKind::ReadOk, MsgKind::BlockData, MsgKind::SpareState]
        .into_iter()
        .flat_map(|kind| [false, true].map(|longer| (kind, Misfit::Block(longer))));
    let uids = [Some(false), Some(true), None].map(|by| (MsgKind::BlockData, Misfit::Uids(by)));
    for (kind, misfit) in blocks.chain(uids) {
        let mut net = Loopback::new(G, ROWS, BLOCK, Resize { kind, misfit });
        let mut client =
            ClientMachine::new(G, ROWS, BLOCK, SparePolicy::OnePerParity, true, u16::MAX);
        client.write(&mut net, 0, 0, &[7; BLOCK]).expect("healthy");
        let got = match kind {
            MsgKind::ReadOk => client.read(&mut net, 0, 0),
            MsgKind::BlockData => {
                client.set_down(0, true);
                client.read(&mut net, 0, 0)
            }
            _ => {
                client.set_down(0, true);
                client.write(&mut net, 0, 0, &[9; BLOCK]).expect("W1'");
                client.read(&mut net, 0, 0)
            }
        };
        assert_eq!(got, Err(ClientErr::BadSize), "{kind:?}, {misfit:?}");
    }
}

/// Answers the client's `SpareDrainList` at site `lister` with `rows`, and
/// counts the `SpareProbe`s the client then sends.
struct ListRows {
    lister: usize,
    rows: Vec<u64>,
    probes: usize,
}

impl Hook for ListRows {
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
        for eff in out.iter_mut() {
            if let Effect::Send {
                msg: Msg::SpareRows { rows, .. },
                ..
            } = eff
            {
                if site == self.lister {
                    rows.clone_from(&self.rows);
                }
            }
        }
    }

    fn exchange(&mut self, _site: usize, msg: &Msg, _background: bool) -> Result<(), ClientErr> {
        self.probes += usize::from(matches!(msg, Msg::SpareProbe { .. }));
        Ok(())
    }
}

/// A recovery takes no spare list on trust: one that names a row the
/// cluster does not have, a row twice, or a row whose spare is another
/// site is refused as `BadSize` before a single probe leaves. (Before,
/// each named row was probed; one frame can name about two million.) A
/// list of the replying site's own rows is probed as it says.
#[test]
fn a_spare_list_that_does_not_fit_is_refused_before_any_probe() {
    let geo = Geometry::new(G, ROWS).expect("geometry");
    let (revived, lister) = (0, 1);
    let own = (0..ROWS)
        .find(|&r| geo.spare_site(r) == lister)
        .expect("the lister spares a row");
    let other = (0..ROWS)
        .find(|&r| geo.spare_site(r) != lister)
        .expect("another site spares a row");
    let bad = [vec![ROWS], vec![own, u64::MAX], vec![own, own], vec![other]];
    for rows in bad {
        let hook = ListRows {
            lister,
            rows: rows.clone(),
            probes: 0,
        };
        let mut net = Loopback::new(G, ROWS, BLOCK, hook);
        let mut client =
            ClientMachine::new(G, ROWS, BLOCK, SparePolicy::OnePerParity, true, u16::MAX);
        assert_eq!(
            client.recover(&mut net, revived),
            Err(ClientErr::BadSize),
            "{rows:?}"
        );
        assert_eq!(net.hook.probes, 0, "{rows:?} was probed");
    }
    let hook = ListRows {
        lister,
        rows: vec![own],
        probes: 0,
    };
    let mut net = Loopback::new(G, ROWS, BLOCK, hook);
    let mut client = ClientMachine::new(G, ROWS, BLOCK, SparePolicy::OnePerParity, true, u16::MAX);
    assert_eq!(client.recover(&mut net, revived), Ok(0), "nothing to drain");
    assert_eq!(net.hook.probes, 1);
}
