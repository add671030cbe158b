//! Vendored shim for the subset of
//! [parking_lot](https://crates.io/crates/parking_lot) this workspace uses:
//! `Mutex` and `RwLock` with the parking_lot calling convention (guards
//! returned directly, no poison `Result`s). Backed by the std primitives; a
//! poisoned std lock (possible only if a panic escaped while holding it) is
//! propagated as a panic here too.

use std::ops::{Deref, DerefMut};

/// Mutex with parking_lot's panic-free locking API.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// Creates a mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: self.inner.lock().expect("parking_lot shim: mutex poisoned"),
        }
    }
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

/// Reader-writer lock with parking_lot's panic-free API.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a lock protecting `value`.
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read guard.
    pub fn read(&self) -> std::sync::RwLockReadGuard<'_, T> {
        self.inner
            .read()
            .expect("parking_lot shim: rwlock poisoned")
    }

    /// Acquires an exclusive write guard.
    pub fn write(&self) -> std::sync::RwLockWriteGuard<'_, T> {
        self.inner
            .write()
            .expect("parking_lot shim: rwlock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_round_trip_across_threads() {
        let lock = Arc::new(Mutex::new(0usize));
        let lock2 = Arc::clone(&lock);
        std::thread::spawn(move || *lock2.lock() += 1)
            .join()
            .unwrap();
        *lock.lock() += 1;
        assert_eq!(*lock.lock(), 2);
    }

    #[test]
    fn rwlock_allows_many_readers() {
        let lock = RwLock::new(5usize);
        {
            let a = lock.read();
            let b = lock.read();
            assert_eq!(*a + *b, 10);
        }
        *lock.write() = 7;
        assert_eq!(*lock.read(), 7);
    }
}
