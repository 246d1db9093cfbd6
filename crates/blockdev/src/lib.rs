//! # radd-blockdev — the disk substrate
//!
//! The paper's sites each own "some number, N, physical disks each with B
//! blocks". This crate provides that hardware in simulation:
//!
//! * [`BlockDevice`] — the minimal trait every algorithm layer programs
//!   against (read/write a fixed-size block).
//! * [`MemDisk`] — an in-memory disk with operation counters; unwritten
//!   blocks read as zeros, matching a freshly formatted drive (and making
//!   the XOR-parity algebra work without explicit initialisation).
//! * [`DiskArray`] — a site's array of N disks with flat block addressing,
//!   per-disk **failure injection** (a failed disk errors every access) and
//!   **replacement** (a blank spare swapped in, contents lost) — the events
//!   behind the paper's "disk failure" rows.
//!
//! The CRC-32 the WAL storage manager checks its records with lives in
//! `radd_parity::crc32`, beside the carry-less-multiply kernel it uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod device;
pub mod mem;
pub mod stats;

pub use array::DiskArray;
pub use device::{BlockDevice, DevError};
pub use mem::MemDisk;
pub use stats::DevStats;
