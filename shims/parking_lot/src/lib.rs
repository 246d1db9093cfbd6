//! Offline stand-in for `parking_lot`.
//!
//! Wraps `std::sync` primitives behind `parking_lot`'s non-poisoning API:
//! `lock()`/`read()`/`write()` return guards directly instead of a
//! `LockResult`. A poisoned std lock (a panic while held) is recovered
//! rather than propagated, matching parking_lot's behaviour of not having
//! poisoning at all.
//!
//! Unlike the real crate, this shim carries an opt-in **lockdep** layer
//! (`src/lockdep.rs`, armed by `RADD_LOCKDEP=1`): every lock joins a
//! global acquisition-order graph and an AB/BA ordering inversion panics
//! with a two-chain witness at the moment the second order is *observed*
//! — no actual deadlock or special scheduler needed. Guards are therefore
//! thin wrappers (deref to the inner guard) rather than type aliases, so
//! releases can pop the thread's held-lock stack.

mod lockdep;

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync;

/// A mutual exclusion primitive (non-poisoning `lock()`).
#[derive(Debug)]
pub struct Mutex<T: ?Sized> {
    dep: lockdep::LockClass,
    inner: sync::Mutex<T>,
}

/// A guard returned by [`Mutex::lock`]. Dropping it unlocks (and pops the
/// lockdep held-stack entry when the detector is armed).
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    _dep: Option<lockdep::Held>,
    inner: sync::MutexGuard<'a, T>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Display> fmt::Display for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T> Mutex<T> {
    /// Create a new mutex.
    pub fn new(value: T) -> Mutex<T> {
        Mutex {
            dep: lockdep::LockClass::new::<T>(),
            inner: sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let dep = self.dep.acquire("Mutex");
        MutexGuard {
            _dep: dep,
            inner: self.inner.lock().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard {
            _dep: self.dep.acquire_try("Mutex"),
            inner,
        })
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// A reader-writer lock (non-poisoning `read()`/`write()`).
#[derive(Debug)]
pub struct RwLock<T: ?Sized> {
    dep: lockdep::LockClass,
    inner: sync::RwLock<T>,
}

/// A shared guard returned by [`RwLock::read`].
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T: ?Sized> {
    _dep: Option<lockdep::Held>,
    inner: sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized + fmt::Display> fmt::Display for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// An exclusive guard returned by [`RwLock::write`].
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    _dep: Option<lockdep::Held>,
    inner: sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Display> fmt::Display for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T> RwLock<T> {
    /// Create a new reader-writer lock.
    pub fn new(value: T) -> RwLock<T> {
        RwLock {
            dep: lockdep::LockClass::new::<T>(),
            inner: sync::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> RwLock<T> {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let dep = self.dep.acquire("RwLock");
        RwLockReadGuard {
            _dep: dep,
            inner: self.inner.read().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Acquire exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let dep = self.dep.acquire("RwLock");
        RwLockWriteGuard {
            _dep: dep,
            inner: self.inner.write().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_basics() {
        let m = Mutex::new(3);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 4);
        assert_eq!(m.into_inner(), 4);
    }

    #[test]
    fn rwlock_basics() {
        let l = RwLock::new(vec![false; 2]);
        l.write()[1] = true;
        assert!(l.read()[1]);
        assert!(!l.read()[0]);
    }

    #[test]
    fn try_variants_and_defaults() {
        let m: Mutex<u32> = Mutex::default();
        {
            let _g = m.lock();
            // Same-thread second try_lock must not succeed (std semantics;
            // a same-instance relock would self-deadlock if blocking).
            assert!(m.try_lock().is_none());
        }
        assert_eq!(*m.try_lock().expect("uncontended"), 0);
        let l: RwLock<u32> = RwLock::default();
        assert_eq!(*l.read(), 0);
    }
}
