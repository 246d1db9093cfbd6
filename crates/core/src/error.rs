//! Error type for RADD operations.

use radd_blockdev::DevError;
use radd_layout::{DataIndex, SiteId};
use std::fmt;

/// Why a RADD operation could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaddError {
    /// The data index is past the site's data capacity.
    OutOfRange {
        /// Requested data index.
        index: DataIndex,
        /// Data blocks per site.
        capacity: u64,
    },
    /// Payload length does not match the cluster block size.
    WrongBlockSize {
        /// Bytes supplied.
        got: usize,
        /// Cluster block size.
        expected: usize,
    },
    /// The current network partition is not single-failure-like, so the
    /// system must block (§5).
    Blocked,
    /// The acting site is isolated by a partition and must cease processing
    /// (§5: "as long as the singleton site ceases processing, consistency is
    /// guaranteed").
    ActorIsolated {
        /// The isolated acting site.
        site: SiteId,
    },
    /// A second failure overlaps the first; the paper's algorithms survive
    /// single failures only ("No attempt is made to survive multiple
    /// failures").
    MultipleFailure {
        /// Human-readable description of the conflicting failures.
        detail: String,
    },
    /// A §3.3 UID mismatch during reconstruction: a parity update is still
    /// in flight, so the read "was not consistent and must be retried".
    InconsistentRead {
        /// The site whose UID disagreed with the parity array.
        site: SiteId,
    },
    /// The operation cannot be served until the failed site is repaired —
    /// e.g. a down-site write with [`SparePolicy::None`], where there is no
    /// spare block to absorb it (§7.2's lower-availability configuration).
    ///
    /// [`SparePolicy::None`]: crate::SparePolicy::None
    Unavailable {
        /// The site whose repair the operation must wait for.
        site: SiteId,
    },
    /// Underlying device error that the protocols could not route around.
    Device(DevError),
    /// Configuration rejected at construction time.
    BadConfig(String),
}

impl RaddError {
    /// Is this a legitimate refusal under some failure or partition
    /// scenario (the data is unreachable right now, not wrong), as opposed
    /// to a broken guarantee? Wider than `ClientErr::is_refusal`: this
    /// surface can be blocked by a partition and can read mid-update.
    pub fn is_refusal(&self) -> bool {
        matches!(
            self,
            RaddError::MultipleFailure { .. }
                | RaddError::Blocked
                | RaddError::ActorIsolated { .. }
                | RaddError::Unavailable { .. }
                | RaddError::InconsistentRead { .. }
        )
    }
}

impl fmt::Display for RaddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaddError::OutOfRange { index, capacity } => {
                write!(f, "data index {index} out of range (capacity {capacity})")
            }
            RaddError::WrongBlockSize { got, expected } => {
                write!(f, "payload of {got} bytes, block size is {expected}")
            }
            RaddError::Blocked => write!(
                f,
                "network partition is a multiple failure; blocking until reconnection"
            ),
            RaddError::ActorIsolated { site } => {
                write!(
                    f,
                    "site {site} is isolated by a partition and must cease processing"
                )
            }
            RaddError::MultipleFailure { detail } => {
                write!(f, "multiple simultaneous failures not survivable: {detail}")
            }
            RaddError::InconsistentRead { site } => write!(
                f,
                "UID mismatch at site {site} during reconstruction; retry after parity settles"
            ),
            RaddError::Unavailable { site } => {
                write!(
                    f,
                    "data at site {site} unavailable until the failure is repaired"
                )
            }
            RaddError::Device(e) => write!(f, "device error: {e}"),
            RaddError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
        }
    }
}

impl std::error::Error for RaddError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RaddError::Device(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DevError> for RaddError {
    fn from(e: DevError) -> Self {
        RaddError::Device(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_specifics() {
        let e = RaddError::OutOfRange {
            index: 9,
            capacity: 8,
        };
        assert!(e.to_string().contains('9'));
        assert!(RaddError::Blocked.to_string().contains("partition"));
        assert!(RaddError::InconsistentRead { site: 2 }
            .to_string()
            .contains("retry"));
    }

    #[test]
    fn device_error_converts_and_sources() {
        use std::error::Error;
        let e: RaddError = DevError::Failed { disk: 1 }.into();
        assert!(e.source().is_some());
    }
}
