//! # radd-parity — parity mathematics for RAID and RADD
//!
//! The two formulas the entire paper rests on:
//!
//! * **(1) parity update** — `parity' = parity XOR (new XOR old)`: toggling a
//!   data bit toggles the corresponding parity bit. The `new XOR old` term is
//!   the **change mask** shipped to the parity site in write step W3.
//! * **(2) reconstruction** — `failed = XOR { other blocks in the group }`.
//!
//! Modules:
//!
//! * [`xor`] — XOR primitives over runtime-dispatched SIMD kernels.
//! * [`kernels`] — the kernels themselves (AVX2/SSE2/NEON/scalar) plus the
//!   k-way fold used by reconstruction.
//! * [`mask`] — change masks, held as their run-length wire encoding
//!   (Section 7.4 argues masks make RADD's bandwidth comparable to a hot
//!   standby's).
//! * [`uid`] — globally unique identifiers and the per-parity-block UID
//!   array used for consistency validation (§3.3). The validated
//!   reconstruction itself is `radd_protocol::ClientMachine::reconstruct`:
//!   one [`xor_fold`] over the `G` survivors, then the UID check.

// The SIMD kernels and `xor_extend`'s `set_len` over the bytes one of them
// wrote are this workspace's only unsafe code; every unsafe operation must
// sit in its own `unsafe {}` block with a `// SAFETY:` justification.
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod kernels;
pub mod mask;
pub mod uid;
pub mod xor;

pub use mask::ChangeMask;
pub use uid::{Uid, UidArray, UidGen};
pub use xor::{xor_bytes, xor_extend, xor_fold, xor_in_place, xor_many};
