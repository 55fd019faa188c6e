//! Lock-order discipline: named mutex/condvar wrappers with an optional
//! runtime acquisition-order checker.
//!
//! Every mutex in the pipeline's concurrent surfaces (`sched`,
//! `telemetry`, and the server's connection queue, stage store and stage
//! cache) is a [`Mutex`] from this module, constructed with a stable name.
//! The workspace declares a total acquisition order over those names
//! (ascending rank — see `docs/ANALYSIS.md` and the static table in
//! `jigsaw-analyze`):
//!
//! | rank | lock |
//! |-----:|------|
//! | 5 | `dist.queue` |
//! | 10 | `server.conn_queue` |
//! | 15 | `server.stage_store` |
//! | 20 | `cache.inner` |
//! | 30 | `sched.state` |
//! | 40 | `sched.cell.slot` |
//! | 50 | `cache.flight.slot` |
//! | 60 | `telemetry.counters` |
//! | 61 | `telemetry.histograms` |
//!
//! With the `lockcheck` feature **off** (the default), the wrappers are
//! thin newtypes over [`std::sync::Mutex`]/[`std::sync::Condvar`]: no
//! bookkeeping, no atomics, nothing on the lock path beyond the std call.
//!
//! With `lockcheck` **on**, every acquisition records an edge
//! `held → acquired` (with both `#[track_caller]` call sites) in a
//! process-global lock-order graph and keeps a per-thread stack of live
//! guards. The first acquisition that closes a cycle in that graph — the
//! classic ABBA deadlock shape — panics immediately, naming both
//! acquisition sites, instead of deadlocking some unlucky future run.
//! CI exercises the concurrency suites once with the feature enabled.
//!
//! Poisoning: [`Mutex::lock`] is infallible and panics (naming the lock)
//! if the mutex is poisoned. Job and connection panics are contained by
//! `catch_unwind` fault barriers *outside* every critical section, so a
//! poisoned lock here means a bug in this workspace's own locking code,
//! not a recoverable condition — there is no caller that could do
//! anything sensible with a `PoisonError`.

pub use imp::{Condvar, Mutex, MutexGuard};

#[cfg(not(feature = "lockcheck"))]
mod imp {
    use std::fmt;
    use std::ops::{Deref, DerefMut};
    use std::sync::{self, WaitTimeoutResult};
    use std::time::Duration;

    /// A named mutex. With `lockcheck` off this is a transparent wrapper
    /// over [`std::sync::Mutex`]; the name only serves panic messages.
    pub struct Mutex<T> {
        name: &'static str,
        inner: sync::Mutex<T>,
    }

    impl<T> Mutex<T> {
        /// Wraps `value` under the lock named `name` (the name must match
        /// the declared workspace lock-order table).
        pub const fn new(name: &'static str, value: T) -> Self {
            Self { name, inner: sync::Mutex::new(value) }
        }

        /// Acquires the lock. Infallible: poisoning panics with the lock
        /// name (see the module docs for why poisoning is unrecoverable
        /// here).
        pub fn lock(&self) -> MutexGuard<'_, T> {
            match self.inner.lock() {
                Ok(inner) => MutexGuard { inner },
                // analyze:allow(panic-reach, poisoning means a sibling thread already panicked; fail-fast is the lockcheck contract)
                Err(_) => panic!("lock `{}` poisoned", self.name),
            }
        }

        /// The lock's declared name.
        pub const fn name(&self) -> &'static str {
            self.name
        }
    }

    impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Mutex").field("name", &self.name).field("inner", &self.inner).finish()
        }
    }

    /// Guard returned by [`Mutex::lock`].
    pub struct MutexGuard<'a, T> {
        inner: sync::MutexGuard<'a, T>,
    }

    impl<T> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    /// Condvar paired with a [`Mutex`] from this module.
    #[derive(Debug, Default)]
    pub struct Condvar {
        inner: sync::Condvar,
    }

    impl Condvar {
        /// New condvar.
        #[must_use]
        pub const fn new() -> Self {
            Self { inner: sync::Condvar::new() }
        }

        /// Blocks until notified. Infallible; poisoning panics.
        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
            match self.inner.wait(guard.inner) {
                Ok(inner) => MutexGuard { inner },
                // analyze:allow(panic-reach, poisoning means a sibling thread already panicked; fail-fast is the lockcheck contract)
                Err(_) => panic!("lock poisoned during condvar wait"),
            }
        }

        /// Blocks until notified or `dur` elapses. Infallible; poisoning
        /// panics.
        pub fn wait_timeout<'a, T>(
            &self,
            guard: MutexGuard<'a, T>,
            dur: Duration,
        ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
            match self.inner.wait_timeout(guard.inner, dur) {
                Ok((inner, timeout)) => (MutexGuard { inner }, timeout),
                // analyze:allow(panic-reach, poisoning means a sibling thread already panicked; fail-fast is the lockcheck contract)
                Err(_) => panic!("lock poisoned during condvar wait"),
            }
        }

        /// Wakes one waiter.
        pub fn notify_one(&self) {
            self.inner.notify_one();
        }

        /// Wakes every waiter.
        pub fn notify_all(&self) {
            self.inner.notify_all();
        }
    }
}

#[cfg(feature = "lockcheck")]
mod imp {
    use std::cell::RefCell;
    use std::fmt;
    use std::ops::{Deref, DerefMut};
    use std::panic::Location;
    use std::sync::{self, OnceLock, WaitTimeoutResult};
    use std::time::Duration;

    /// One observed ordering: `from` was held when `to` was acquired,
    /// with the call sites of both acquisitions.
    #[derive(Clone, Copy)]
    struct Edge {
        from: &'static str,
        from_site: &'static Location<'static>,
        to: &'static str,
        to_site: &'static Location<'static>,
    }

    /// The process-global lock-order graph. A plain edge list: the
    /// workspace has well under a dozen named locks, so linear scans beat
    /// any map — and keep this module free of hash-map iteration-order
    /// concerns.
    fn graph() -> &'static sync::Mutex<Vec<Edge>> {
        static GRAPH: OnceLock<sync::Mutex<Vec<Edge>>> = OnceLock::new();
        GRAPH.get_or_init(|| sync::Mutex::new(Vec::new()))
    }

    thread_local! {
        /// Stack of locks the current thread holds, in acquisition order.
        static HELD: RefCell<Vec<(&'static str, &'static Location<'static>)>> =
            const { RefCell::new(Vec::new()) };
    }

    /// Whether the graph (plus the candidate edge) contains a path
    /// `from → … → to`.
    fn reachable(edges: &[Edge], from: &'static str, to: &'static str) -> bool {
        if from == to {
            return true;
        }
        let mut visited: Vec<&'static str> = vec![from];
        let mut frontier = vec![from];
        while let Some(node) = frontier.pop() {
            for e in edges.iter().filter(|e| e.from == node) {
                if e.to == to {
                    return true;
                }
                if !visited.contains(&e.to) {
                    visited.push(e.to);
                    frontier.push(e.to);
                }
            }
        }
        false
    }

    /// Records `held → acquiring` edges for every lock on the calling
    /// thread's stack and panics if one of them closes a cycle.
    ///
    /// The panic is raised only after the graph guard is released, so a
    /// detected cycle never poisons the checker itself (a test can catch
    /// the panic and the process keeps checking).
    fn before_acquire(acquiring: &'static str, site: &'static Location<'static>) {
        let held: Vec<(&'static str, &'static Location<'static>)> =
            HELD.with(|h| h.borrow().clone());
        if held.is_empty() {
            return;
        }
        let mut cycle: Option<String> = None;
        {
            let mut edges = match graph().lock() {
                Ok(g) => g,
                // analyze:allow(panic-reach, poisoning means a sibling thread already panicked; fail-fast is the lockcheck contract)
                Err(_) => panic!("lockcheck graph poisoned"),
            };
            for (from, from_site) in held {
                if from == acquiring {
                    // Recursive acquisition of the same named lock would
                    // deadlock std::sync::Mutex outright; report it as a
                    // self-cycle.
                    cycle = Some(format!(
                        "lock-order cycle: `{acquiring}` acquired at {site} while \
                         already held by this thread (acquired at {from_site})"
                    ));
                    break;
                }
                if edges.iter().any(|e| e.from == from && e.to == acquiring) {
                    continue;
                }
                if reachable(&edges, acquiring, from) {
                    let prior = edges
                        .iter()
                        .find(|e| e.from == acquiring && reachable(&edges, e.to, from))
                        .or_else(|| edges.iter().find(|e| e.from == acquiring))
                        .copied();
                    let prior_note = prior.map_or_else(String::new, |e| {
                        format!(
                            "; the reverse order was established by `{}` (acquired at {}) \
                             held while acquiring `{}` at {}",
                            e.from, e.from_site, e.to, e.to_site
                        )
                    });
                    cycle = Some(format!(
                        "lock-order cycle: acquiring `{acquiring}` at {site} while \
                         holding `{from}` (acquired at {from_site}){prior_note}"
                    ));
                    break;
                }
                edges.push(Edge { from, from_site, to: acquiring, to_site: site });
            }
        }
        if let Some(message) = cycle {
            // analyze:allow(panic-reach, a lock-order cycle is a programming bug the checker exists to fail fast on; no request data decides it)
            panic!("{message}");
        }
    }

    fn push_held(name: &'static str, site: &'static Location<'static>) {
        HELD.with(|h| h.borrow_mut().push((name, site)));
    }

    /// Pops the most recent entry for `name` (guards can drop out of
    /// stack order, so this is a positional remove, not a stack pop).
    fn pop_held(name: &'static str) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(at) = held.iter().rposition(|(n, _)| *n == name) {
                held.remove(at);
            }
        });
    }

    /// A named mutex whose every acquisition feeds the lock-order graph.
    pub struct Mutex<T> {
        name: &'static str,
        inner: sync::Mutex<T>,
    }

    impl<T> Mutex<T> {
        /// Wraps `value` under the lock named `name` (the name must match
        /// the declared workspace lock-order table).
        pub const fn new(name: &'static str, value: T) -> Self {
            Self { name, inner: sync::Mutex::new(value) }
        }

        /// Acquires the lock, recording the acquisition in the calling
        /// thread's held-stack and the global order graph.
        ///
        /// # Panics
        ///
        /// Panics — naming both acquisition sites — when this acquisition
        /// closes a cycle in the observed lock order, and on poisoning
        /// (see the module docs).
        #[track_caller]
        pub fn lock(&self) -> MutexGuard<'_, T> {
            let site = Location::caller();
            before_acquire(self.name, site);
            let inner = match self.inner.lock() {
                Ok(inner) => inner,
                // analyze:allow(panic-reach, poisoning means a sibling thread already panicked; fail-fast is the lockcheck contract)
                Err(_) => panic!("lock `{}` poisoned", self.name),
            };
            push_held(self.name, site);
            MutexGuard { inner: Some(inner), name: self.name }
        }

        /// The lock's declared name.
        pub const fn name(&self) -> &'static str {
            self.name
        }
    }

    impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Mutex").field("name", &self.name).field("inner", &self.inner).finish()
        }
    }

    /// Guard returned by [`Mutex::lock`]; dropping it pops the held-stack
    /// entry.
    pub struct MutexGuard<'a, T> {
        /// `None` only transiently while a condvar wait has released the
        /// lock (the guard is consumed by value there) — a live guard in
        /// user hands always holds `Some`.
        inner: Option<sync::MutexGuard<'a, T>>,
        name: &'static str,
    }

    impl<T> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            match self.inner.as_ref() {
                Some(inner) => inner,
                None => unreachable!("guard used after condvar consumed it"),
            }
        }
    }

    impl<T> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            match self.inner.as_mut() {
                Some(inner) => inner,
                None => unreachable!("guard used after condvar consumed it"),
            }
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            if self.inner.take().is_some() {
                pop_held(self.name);
            }
        }
    }

    /// Condvar paired with a [`Mutex`] from this module. Waiting releases
    /// the lock, so the held-stack entry is popped for the duration of
    /// the wait and re-pushed (at the wait site) on wakeup.
    #[derive(Debug, Default)]
    pub struct Condvar {
        inner: sync::Condvar,
    }

    impl Condvar {
        /// New condvar.
        #[must_use]
        pub const fn new() -> Self {
            Self { inner: sync::Condvar::new() }
        }

        /// Blocks until notified.
        ///
        /// # Panics
        ///
        /// Panics on poisoning, and on a lock-order cycle at re-acquisition.
        #[track_caller]
        pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
            let site = Location::caller();
            let name = guard.name;
            let Some(inner) = guard.inner.take() else {
                // analyze:allow(panic-reach, the guard's inner slot is only taken here; reuse cannot happen)
                unreachable!("guard used after condvar consumed it")
            };
            pop_held(name);
            drop(guard);
            let inner = match self.inner.wait(inner) {
                Ok(inner) => inner,
                // analyze:allow(panic-reach, poisoning means a sibling thread already panicked; fail-fast is the lockcheck contract)
                Err(_) => panic!("lock `{name}` poisoned during condvar wait"),
            };
            before_acquire(name, site);
            push_held(name, site);
            MutexGuard { inner: Some(inner), name }
        }

        /// Blocks until notified or `dur` elapses.
        ///
        /// # Panics
        ///
        /// Panics on poisoning, and on a lock-order cycle at re-acquisition.
        #[track_caller]
        pub fn wait_timeout<'a, T>(
            &self,
            mut guard: MutexGuard<'a, T>,
            dur: Duration,
        ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
            let site = Location::caller();
            let name = guard.name;
            let Some(inner) = guard.inner.take() else {
                // analyze:allow(panic-reach, the guard's inner slot is only taken here; reuse cannot happen)
                unreachable!("guard used after condvar consumed it")
            };
            pop_held(name);
            drop(guard);
            let (inner, timeout) = match self.inner.wait_timeout(inner, dur) {
                Ok(pair) => pair,
                // analyze:allow(panic-reach, poisoning means a sibling thread already panicked; fail-fast is the lockcheck contract)
                Err(_) => panic!("lock `{name}` poisoned during condvar wait"),
            };
            before_acquire(name, site);
            push_held(name, site);
            (MutexGuard { inner: Some(inner), name }, timeout)
        }

        /// Wakes one waiter.
        pub fn notify_one(&self) {
            self.inner.notify_one();
        }

        /// Wakes every waiter.
        pub fn notify_all(&self) {
            self.inner.notify_all();
        }
    }
}
