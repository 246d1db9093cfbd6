#![forbid(unsafe_code)]
//! Fixture crate root: `queue` is named by its own file, by this crate's
//! tests and by the re-export below, and by nothing else.

pub mod queue;

pub use queue::{drain, Queue};
