//! The fault switchboard: §5's lost messages and partitions, plus
//! duplicates, decided once per protocol message by the endpoint that
//! sends it.
//!
//! Both async runtimes consult one [`FaultState`]: the sends of the
//! threaded runtime's [`ThreadedEndpoint`](crate::ThreadedEndpoint) and the
//! socket runtime's protocol sends ask it for a [`Verdict`] before they
//! write, with their own id as the source. Handshakes and control traffic
//! never ask, so they are never faulted. A [`Verdict::Duplicate`] goes out directly
//! behind its original on the same channel or connection, which keeps
//! per-pair FIFO.
//!
//! Loss and duplication are decided from one counter hashed with the seed,
//! so a `(seed, permille)` pair faults a reproducible *fraction* of the
//! traffic; which messages are hit depends on thread interleaving, which
//! is fine: the reliable layers above must converge for any pattern below
//! certainty. The switchboard takes no lock: every field is an atomic, so
//! it adds nothing to any runtime's lock order.

use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU64, Ordering};
use std::sync::Arc;

/// Salt separating the duplication decision stream from the loss stream:
/// both hash the same counter, but a message's duplication verdict must
/// not be a function of its loss verdict.
const DUP_SALT: u64 = 0x00D0_00D0_00D0_00D0;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What becomes of one protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Send it once.
    Forward,
    /// Send nothing; the sender is not told.
    Drop,
    /// Send it twice, back to back.
    Duplicate,
}

/// One cluster's fault switchboard, shared by every endpoint of it.
#[derive(Debug)]
pub struct FaultState {
    /// Loss probability per message, in 1/1000 units (0 = off).
    loss_permille: AtomicU16,
    /// Duplication probability per surviving message, in 1/1000 units.
    dup_permille: AtomicU16,
    seed: AtomicU64,
    /// One decision counter for the whole cluster.
    counter: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    /// Partition flags by endpoint id; a message drops when either end is
    /// partitioned.
    partitioned: Box<[AtomicBool]>,
}

impl FaultState {
    /// A fault-free switchboard for endpoint ids `0..endpoints`.
    pub fn new(endpoints: usize) -> Arc<FaultState> {
        Arc::new(FaultState {
            loss_permille: AtomicU16::new(0),
            dup_permille: AtomicU16::new(0),
            seed: AtomicU64::new(0),
            counter: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            partitioned: (0..endpoints).map(|_| AtomicBool::new(false)).collect(),
        })
    }

    /// Start dropping roughly `permille`/1000 of protocol messages, seeded;
    /// `0` turns loss off. Loss is *silent*: the sender sees success, the
    /// message never arrives — what timer-based retransmission must absorb.
    pub fn set_loss(&self, permille: u16, seed: u64) {
        assert!(
            permille < 1000,
            "loss probability must stay below certainty"
        );
        self.seed.store(seed, Ordering::Relaxed);
        self.loss_permille.store(permille, Ordering::Relaxed);
    }

    /// Start sending roughly `permille`/1000 of the surviving protocol
    /// messages twice — a stale retransmission arriving behind the
    /// original, which the receiving machines must treat idempotently.
    pub fn set_duplication(&self, permille: u16, seed: u64) {
        assert!(permille < 1000, "duplicating every message would livelock");
        self.seed.store(seed, Ordering::Relaxed);
        self.dup_permille.store(permille, Ordering::Relaxed);
    }

    /// Cut endpoint `ep` off from everyone (messages to or from it drop),
    /// or reconnect it.
    ///
    /// # Panics
    ///
    /// If `ep` is not below the `endpoints` this switchboard was made for.
    pub fn set_partitioned(&self, ep: usize, partitioned: bool) {
        self.partitioned[ep].store(partitioned, Ordering::Relaxed);
    }

    /// Protocol messages dropped by loss injection so far (a partition's
    /// drops are not counted: the partition is state the caller set).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Protocol messages duplicated so far.
    pub fn duplicated(&self) -> u64 {
        self.duplicated.load(Ordering::Relaxed)
    }

    fn is_partitioned(&self, ep: usize) -> bool {
        self.partitioned
            .get(ep)
            .is_some_and(|p| p.load(Ordering::Relaxed))
    }

    /// The verdict on one protocol message from endpoint `src` to `dst`.
    pub fn verdict(&self, src: usize, dst: usize) -> Verdict {
        if self.is_partitioned(src) || self.is_partitioned(dst) {
            return Verdict::Drop;
        }
        let loss = u64::from(self.loss_permille.load(Ordering::Relaxed));
        let dup = u64::from(self.dup_permille.load(Ordering::Relaxed));
        if loss == 0 && dup == 0 {
            return Verdict::Forward;
        }
        let seed = self.seed.load(Ordering::Relaxed);
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        if loss > 0 && splitmix64(seed ^ n) % 1000 < loss {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return Verdict::Drop;
        }
        if dup > 0 && splitmix64(seed ^ DUP_SALT ^ n) % 1000 < dup {
            self.duplicated.fetch_add(1, Ordering::Relaxed);
            return Verdict::Duplicate;
        }
        Verdict::Forward
    }
}
