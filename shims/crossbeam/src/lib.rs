//! Offline stand-in for `crossbeam`.
//!
//! Only the `channel` module is provided, implemented over
//! `std::sync::mpsc`. The workspace uses MPSC topology exclusively (each
//! receiver is owned by one site thread), so std's channels carry the exact
//! semantics needed: unbounded buffering, `Sender: Clone`, timeout receives
//! and disconnect detection.

/// Multi-producer channels (std-backed subset of `crossbeam-channel`).
pub mod channel {
    use std::sync::mpsc;
    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError};
    use std::time::Duration;

    /// The sending half of a channel.
    #[derive(Debug)]
    pub struct Sender<T> {
        inner: mpsc::Sender<T>,
    }

    // Derived Clone would require T: Clone; the sender handle itself is
    // always cloneable.
    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            Sender {
                inner: self.inner.clone(),
            }
        }
    }

    impl<T> Sender<T> {
        /// Send a value; errors only when every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.inner.send(value)
        }
    }

    /// The receiving half of a channel.
    #[derive(Debug)]
    pub struct Receiver<T> {
        inner: mpsc::Receiver<T>,
    }

    impl<T> Receiver<T> {
        /// Block until a value arrives or all senders are gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.inner.recv()
        }

        /// Block up to `timeout` for a value.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.inner.recv_timeout(timeout)
        }

        /// Take a value if one is already queued.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.inner.try_recv()
        }

        /// Iterate, blocking, until all senders disconnect.
        pub fn iter(&self) -> mpsc::Iter<'_, T> {
            self.inner.iter()
        }
    }

    /// Create an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender { inner: tx }, Receiver { inner: rx })
    }

    /// Create a bounded channel (std `sync_channel`).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        // std's sync_channel sender is a different type; wrap via a relay is
        // overkill for a shim — the workspace only uses unbounded channels,
        // so bounded simply degrades to unbounded buffering.
        let _ = cap;
        unbounded()
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::time::Duration;

    #[test]
    fn send_recv_across_threads() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        std::thread::spawn(move || tx2.send(7u32).unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(2)).unwrap(), 7);
    }

    #[test]
    fn timeout_and_disconnect() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)).unwrap_err(),
            RecvTimeoutError::Timeout
        );
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)).unwrap_err(),
            RecvTimeoutError::Disconnected
        );
    }

    #[test]
    fn try_recv_nonblocking() {
        let (tx, rx) = unbounded();
        assert!(rx.try_recv().is_err());
        tx.send(1i32).unwrap();
        assert_eq!(rx.try_recv().unwrap(), 1);
    }
}
