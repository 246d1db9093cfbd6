//! The four workloads and the operation streams generated for them.
//!
//! A stream is made up front from `--seed`; the cluster only ever sees the
//! operations. Keys come from the repository's own `AccessSampler` (through
//! `sut::KeySampler`), payloads from a small pool of random blocks made by
//! this file.

use crate::sut::{KeySampler, Shape};

/// What a write changes in its block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WriteShape {
    /// Every byte: the change mask is as long as the block.
    Full,
    /// This many bytes at one offset: a sparse change mask.
    Sparse(usize),
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Phases {
    /// Each round: the timed mix on a healthy cluster, then a site fails and
    /// is rebuilt.
    Healthy,
    /// Each round: a site fails and is rebuilt, then the timed mix with the
    /// site still down and its blocks served from the spares.
    FailRebuild,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    pub read_share: f64,
    pub zipf_theta: Option<f64>,
    pub write: WriteShape,
    pub phases: Phases,
    /// Clusters set up, measured and torn down per run: fewer where the
    /// preload waits for a device.
    pub rounds: usize,
}

const KIB: usize = 1024;

/// Rows are sized so that preloading every data block stays a small part of
/// a run, and on disk so that a run still ends in time when the device has
/// one of its slow spells (ten times its usual latency, for minutes): 4092
/// data blocks at 4 KiB in memory, 2046 on disk, 2040 at 64 KiB.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "write_disk_4k",
        shape: Shape {
            rows: 512,
            block_size: 4 * KIB,
            disk: true,
        },
        read_share: 0.2,
        zipf_theta: None,
        write: WriteShape::Full,
        phases: Phases::Healthy,
        rounds: 4,
    },
    Workload {
        name: "mixed_mem_4k",
        shape: Shape {
            rows: 1024,
            block_size: 4 * KIB,
            disk: false,
        },
        read_share: 0.8,
        zipf_theta: Some(0.99),
        write: WriteShape::Sparse(128),
        phases: Phases::Healthy,
        rounds: 6,
    },
    Workload {
        name: "mixed_mem_64k",
        shape: Shape {
            rows: 512,
            block_size: 64 * KIB,
            disk: false,
        },
        read_share: 0.8,
        zipf_theta: Some(0.99),
        write: WriteShape::Full,
        phases: Phases::Healthy,
        rounds: 6,
    },
    Workload {
        name: "fail_rebuild_disk_4k",
        shape: Shape {
            rows: 512,
            block_size: 4 * KIB,
            disk: true,
        },
        read_share: 0.5,
        zipf_theta: None,
        write: WriteShape::Full,
        phases: Phases::FailRebuild,
        rounds: 4,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One operation: `key` ranks into the issuing caller's own key list and
/// `payload` numbers the content a write stores.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub read: bool,
    pub key: u32,
    pub payload: u32,
}

/// `count` operations over `n_keys` keys for caller `caller`.
pub fn op_stream(w: &Workload, n_keys: usize, seed: u64, caller: usize, count: usize) -> Vec<Op> {
    let stream_seed = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(caller as u64 + 1);
    let mut keys = KeySampler::new(w.zipf_theta, n_keys as u64, stream_seed);
    let read_permille = (w.read_share * 1000.0).round() as u64;
    (0..count)
        .map(|i| {
            let key = keys.next_rank() as u32;
            Op {
                read: keys.below(1000) < read_permille,
                key,
                payload: i as u32,
            }
        })
        .collect()
}

/// Block contents, cheap to make per operation: a pool of random blocks
/// made once from the seed, stamped with the payload number.
pub struct Payloads {
    pool: Vec<Vec<u8>>,
    block_size: usize,
}

/// Prime, so that consecutive payload numbers written to one block almost
/// never reuse a pool entry (which would make a full rewrite look sparse).
const POOL_BLOCKS: usize = 13;

impl Payloads {
    pub fn new(block_size: usize, seed: u64) -> Payloads {
        let mut x = seed | 1;
        let pool = (0..POOL_BLOCKS)
            .map(|_| {
                let mut block = Vec::with_capacity(block_size);
                while block.len() < block_size {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    block.extend_from_slice(&x.to_le_bytes());
                }
                block.truncate(block_size);
                block
            })
            .collect();
        Payloads { pool, block_size }
    }

    /// Put into `out` what write number `payload` stores over `current`.
    pub fn fill(&self, shape: WriteShape, payload: u32, current: &[u8], out: &mut Vec<u8>) {
        out.clear();
        match shape {
            WriteShape::Full => {
                out.extend_from_slice(&self.pool[payload as usize % POOL_BLOCKS]);
                out[..4].copy_from_slice(&payload.to_le_bytes());
            }
            WriteShape::Sparse(len) => {
                out.extend_from_slice(current);
                let at = (payload as usize).wrapping_mul(len) % (self.block_size - len);
                let step = 1 + (payload % 251) as u8;
                for b in &mut out[at..at + len] {
                    *b = b.wrapping_add(step);
                }
            }
        }
    }
}
