//! Writes given as change masks (`Msg::WriteMask`), on the sans-IO
//! machines over the synchronous cascade.
//!
//! * **A rewrite goes as its mask**: a client that wrote a block sends its
//!   next sparse write of it as a mask, a dense rewrite whole, and either
//!   way the block and its parity are what a whole write leaves.
//! * **Any mix lands as the same writes sent whole**: over random
//!   sequences of sparse and dense writes, with another writer's blocks
//!   landing between a client's writes now and then, every store and
//!   every parity block is byte-identical to a cluster that was sent every
//!   write whole.
//! * **Every way a base goes stale is refused**: another writer, a
//!   recovery drain restoring the row, a restart of the site, and a
//!   duplicated mask re-executed after the reply cache forgot it are each
//!   refused `StaleBase`, and the client's write then lands whole. Without
//!   the base check each of these would XOR a mask into a block it was not
//!   taken against.
//! * **A hostile mask is a `Nack`**: one for another block length, one with
//!   a span past the block, one cut short and one for a block out of range
//!   are refused before anything is staged, and never panic the site.

use bytes::Bytes;
use proptest::prelude::*;
use radd_layout::Geometry;
use radd_parity::ChangeMask;
use radd_protocol::loopback::Loopback;
use radd_protocol::{
    check_stripe_parity, Blocks, ClientMachine, Effect, MemBlocks, Msg, MsgKind, NackReason,
    SiteMachine, SparePolicy,
};

const G: usize = 4;
const ROWS: u64 = 12;
const BLOCK: usize = 64;

fn client() -> ClientMachine {
    ClientMachine::new(G, ROWS, BLOCK, SparePolicy::OnePerParity, true, u16::MAX)
}

fn block(net: &mut Loopback, site: usize, row: u64) -> Vec<u8> {
    Blocks::read(&mut net.sites[site].1, row).unwrap().to_vec()
}

fn parity_holds(net: &mut Loopback) {
    let geo = Geometry::new(G, ROWS).unwrap();
    check_stripe_parity(&geo, &mut |s, row| {
        Blocks::read(&mut net.sites[s].1, row)
            .ok()
            .map(|b| b.to_vec())
    })
    .expect("every stripe's parity is the XOR of its data");
}

/// `base` with `len` bytes from `at` changed.
fn sparse(base: &[u8], at: usize, len: usize, step: u8) -> Vec<u8> {
    let mut new = base.to_vec();
    for b in &mut new[at..at + len] {
        *b = b.wrapping_add(step);
    }
    new
}

/// The kinds of the client's requests to `site`, in order.
fn sent(client: &mut ClientMachine, site: usize) -> Vec<MsgKind> {
    client
        .take_trace()
        .into_iter()
        .filter_map(|e| match e {
            radd_protocol::ObsEvent::Send {
                to: radd_protocol::Dest::Site(s),
                kind,
                ..
            } if s == site => Some(kind),
            _ => None,
        })
        .collect()
}

#[test]
fn a_sparse_rewrite_goes_as_its_mask_and_a_dense_one_whole() {
    let mut net = Loopback::new(G, ROWS, BLOCK, ());
    let mut c = client();
    c.record_trace();
    let first = vec![0x11; BLOCK];
    c.write(&mut net, 0, 2, &first).unwrap();
    let second = sparse(&first, 10, 8, 3);
    c.write(&mut net, 0, 2, &second).unwrap();
    let third = vec![0x22; BLOCK];
    c.write(&mut net, 0, 2, &third).unwrap();
    let fourth = sparse(&third, 40, 4, 9);
    c.write(&mut net, 0, 2, &fourth).unwrap();
    assert_eq!(
        sent(&mut c, 0),
        [
            MsgKind::Write,
            MsgKind::WriteMask,
            MsgKind::Write,
            MsgKind::WriteMask
        ]
    );
    assert_eq!(c.write_paths(), (2, 2, 0));
    assert_eq!(net.sites[0].0.write_masks(), (2, 0));
    let row = Geometry::new(G, ROWS).unwrap().data_to_physical(0, 2);
    assert_eq!(block(&mut net, 0, row), fourth);
    assert_eq!(c.read(&mut net, 0, 2).unwrap(), fourth);
    parity_holds(&mut net);
}

/// The same writes delivered whole, tag by tag, as peer 0.
fn write_whole(net: &mut Loopback, site: usize, index: u64, data: &[u8], tag: u64) {
    let msg = Msg::Write {
        index,
        data: Bytes::copy_from_slice(data),
        tag,
    };
    assert!(matches!(
        net.deliver(site, 0, msg),
        Some(Msg::WriteOk { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Each step writes block `(site, index)`: a sparse change of `len`
    /// bytes at `at` over what it holds, or (`len == 0`) a dense rewrite;
    /// `other` writes it whole from another writer first, which the
    /// client's image does not see.
    #[test]
    fn any_mix_of_mask_and_block_writes_lands_as_the_same_writes_sent_whole(
        steps in proptest::collection::vec(
            (0usize..G + 2, 0u64..2, 0usize..BLOCK, 0usize..12, any::<u8>(), any::<bool>()),
            1..40,
        ),
    ) {
        let (mut masked, mut whole) = (Loopback::new(G, ROWS, BLOCK, ()), Loopback::new(G, ROWS, BLOCK, ()));
        let mut c = client();
        let geo = Geometry::new(G, ROWS).unwrap();
        // Other writers' tags stay clear of the client's, as another
        // endpoint's would.
        let other_tag = |n: usize| (1 << 40) | n as u64;
        for (n, &(site, index, at, len, step, other)) in steps.iter().enumerate() {
            let row = geo.data_to_physical(site, index);
            let current = block(&mut whole, site, row);
            if other {
                let theirs = sparse(&current, 0, BLOCK, step ^ 0x5A);
                write_whole(&mut masked, site, index, &theirs, other_tag(n));
                write_whole(&mut whole, site, index, &theirs, other_tag(n));
            }
            let current = block(&mut whole, site, row);
            let new = if len == 0 {
                sparse(&current, 0, BLOCK, step | 1)
            } else {
                sparse(&current, at.min(BLOCK - len), len, step | 1)
            };
            c.write(&mut masked, site, index, &new).unwrap();
            write_whole(&mut whole, site, index, &new, other_tag(1000 + n));
        }
        for s in 0..G + 2 {
            for row in 0..ROWS {
                prop_assert_eq!(block(&mut masked, s, row), block(&mut whole, s, row));
            }
        }
        parity_holds(&mut masked);
        let (masks, blocks, stale) = c.write_paths();
        prop_assert_eq!(masks + blocks, steps.len() as u64 + stale);
    }
}

/// Client A writes a block, client B writes it whole, and A's sparse write
/// against its own image is refused `StaleBase` and lands whole.
#[test]
fn another_writer_between_two_writes_makes_the_base_stale() {
    let mut net = Loopback::new(G, ROWS, BLOCK, ());
    let (mut a, mut b) = (client(), client());
    b.set_incarnation(1);
    let x = vec![0x31; BLOCK];
    a.write(&mut net, 1, 0, &x).unwrap();
    let y = vec![0x47; BLOCK];
    b.write(&mut net, 1, 0, &y).unwrap();
    let x2 = sparse(&x, 5, 6, 1);
    a.write(&mut net, 1, 0, &x2).unwrap();
    assert_eq!(a.write_paths(), (1, 2, 1), "mask refused, then sent whole");
    assert_eq!(net.sites[1].0.write_masks(), (0, 1));
    assert_eq!(a.read(&mut net, 1, 0).unwrap(), x2);
    parity_holds(&mut net);
    // The whole write is A's base now: its next sparse write is a mask.
    let x3 = sparse(&x2, 30, 2, 7);
    a.write(&mut net, 1, 0, &x3).unwrap();
    assert_eq!(a.write_paths(), (2, 2, 1));
    assert_eq!(b.read(&mut net, 1, 0).unwrap(), x3);
    parity_holds(&mut net);
}

/// A's image of a block is older than what a recovery drain restores to
/// the row (B's write went into the spare while it believed the site
/// down): the restore clears the site's base, so A's mask is refused.
#[test]
fn a_recovery_drain_of_the_row_makes_the_base_stale() {
    let mut net = Loopback::new(G, ROWS, BLOCK, ());
    let (mut a, mut b) = (client(), client());
    b.set_incarnation(1);
    let x = vec![0x0F; BLOCK];
    a.write(&mut net, 2, 1, &x).unwrap();
    b.set_down(2, true);
    let z = vec![0x70; BLOCK];
    b.write(&mut net, 2, 1, &z).unwrap();
    b.set_recovering(2);
    assert_eq!(b.recover(&mut net, 2).unwrap(), 1, "the spare drained back");
    b.set_down(2, false);
    let x2 = sparse(&x, 0, 3, 2);
    a.write(&mut net, 2, 1, &x2).unwrap();
    assert_eq!(a.write_paths(), (1, 2, 1));
    assert_eq!(a.read(&mut net, 2, 1).unwrap(), x2);
    parity_holds(&mut net);
}

/// A restart loses the site's bases with the rest of its volatile state.
#[test]
fn a_restart_of_the_site_makes_the_base_stale() {
    let mut net = Loopback::new(G, ROWS, BLOCK, ());
    let mut c = client();
    let x = vec![0x5C; BLOCK];
    c.write(&mut net, 3, 1, &x).unwrap();
    let durable = net.sites[3].0.durable_snapshot();
    net.sites[3].0 = SiteMachine::restore_durable(durable);
    let x2 = sparse(&x, 60, 4, 1);
    c.write(&mut net, 3, 1, &x2).unwrap();
    assert_eq!(c.write_paths(), (1, 2, 1));
    assert_eq!(net.sites[3].0.write_masks(), (0, 1));
    assert_eq!(c.read(&mut net, 3, 1).unwrap(), x2);
    parity_holds(&mut net);
}

/// A mask delivered twice, the second time after the site's reply cache
/// has forgotten the first: re-executing it would XOR it in again and undo
/// the write. Its base is no longer the block's last write, so it is
/// refused.
#[test]
fn a_duplicated_mask_after_its_reply_is_forgotten_is_refused() {
    let mut net = Loopback::new(G, ROWS, BLOCK, ());
    let x = vec![0x21; BLOCK];
    write_whole(&mut net, 0, 1, &x, 1);
    let x2 = sparse(&x, 8, 8, 4);
    let mask = Msg::WriteMask {
        index: 1,
        base_tag: 1,
        mask_wire: ChangeMask::diff(&x, &x2).encode(),
        tag: 2,
    };
    assert!(matches!(
        net.deliver(0, 0, mask.clone()),
        Some(Msg::WriteOk { tag: 2 })
    ));
    net.sites[0].0.evict_replies();
    assert_eq!(
        net.deliver(0, 0, mask),
        Some(Msg::Nack {
            tag: 2,
            reason: NackReason::StaleBase
        })
    );
    let row = Geometry::new(G, ROWS).unwrap().data_to_physical(0, 1);
    assert_eq!(block(&mut net, 0, row), x2);
    parity_holds(&mut net);
}

/// Masks that do not fit are refused with nothing staged: no block write,
/// no parity update, the block as it was and its base still good.
#[test]
fn a_hostile_write_mask_is_a_nack_and_never_a_panic() {
    let geo = Geometry::new(G, ROWS).unwrap();
    let mut machine = SiteMachine::new(0, G, ROWS, BLOCK);
    let mut blocks = MemBlocks::new(ROWS, BLOCK);
    let src = 7;
    let mut out = Vec::new();
    let x = Bytes::from(vec![0x66; BLOCK]);
    let write = Msg::Write {
        index: 1,
        data: x.clone(),
        tag: 1,
    };
    machine.handle(&mut blocks, src, write, &mut out);
    let row = geo.data_to_physical(0, 1);
    let fits = ChangeMask::diff(&x, &sparse(&x, 4, 4, 1)).encode();
    let other_length = ChangeMask::diff(&[0; 2 * BLOCK], &[1; 2 * BLOCK]).encode();
    let mut past_the_end = fits.to_vec();
    past_the_end[8..12].copy_from_slice(&(BLOCK as u32 - 2).to_le_bytes());
    let cut_short = fits.slice(0..fits.len() - 1);
    let capacity = geo.data_capacity(0);
    let hostile = [
        (1, other_length, 1, NackReason::BadSize),
        (1, Bytes::from(past_the_end), 2, NackReason::BadSize),
        (1, cut_short, 3, NackReason::BadSize),
        (1, Bytes::from(vec![0xFF; 3]), 4, NackReason::BadSize),
        (capacity, fits.clone(), 5, NackReason::OutOfRange),
        (u64::MAX, fits.clone(), 6, NackReason::OutOfRange),
    ];
    for (index, mask_wire, n, reason) in hostile {
        let tag = 10 + n;
        let mut out = Vec::new();
        let msg = Msg::WriteMask {
            index,
            base_tag: 1,
            mask_wire,
            tag,
        };
        machine.handle(&mut blocks, src, msg, &mut out);
        let refused = Msg::Nack { tag, reason };
        assert!(
            matches!(&out[..], [Effect::Send { msg, .. }] if *msg == refused),
            "case {n}: {out:?}"
        );
        assert_eq!(Blocks::read(&mut blocks, row).unwrap(), x, "case {n}");
    }
    assert_eq!(machine.write_masks(), (0, 4));
    // Out-of-range indices never reach the mask counters; the base stands,
    // and a mask that fits it is applied.
    let mut out = Vec::new();
    let msg = Msg::WriteMask {
        index: 1,
        base_tag: 1,
        mask_wire: fits,
        tag: 20,
    };
    machine.handle(&mut blocks, src, msg, &mut out);
    assert!(out
        .iter()
        .any(|e| matches!(e, Effect::DeferAck { tag: 20, .. })));
    assert_eq!(Blocks::read(&mut blocks, row).unwrap(), sparse(&x, 4, 4, 1));
    assert_eq!(machine.write_masks(), (1, 4));
}
