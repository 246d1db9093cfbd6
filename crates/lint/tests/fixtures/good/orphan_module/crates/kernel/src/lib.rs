#![forbid(unsafe_code)]
//! Fixture crate root: `queue` has a caller in `examples/`.

pub mod queue;

pub use queue::{drain, Queue};
