//! Deterministic parallel iteration primitives shared by the whole
//! workspace.
//!
//! Two rules make every parallel path in this repository bit-identical to
//! its serial counterpart:
//!
//! 1. **Work is split the same way at every thread count.** Sharded
//!    operations cut their input into fixed-size chunks of [`SHARD_SIZE`]
//!    entries — never into "one chunk per worker" — so the floating-point
//!    accumulation tree does not depend on how many workers happen to be
//!    available.
//! 2. **Results merge in input order.** [`fan_out`] returns results in the
//!    order the work items were submitted, regardless of which worker
//!    finished first.
//!
//! [`fan_out`] is the single fan-out engine: the executor's trajectory
//! batches, `jigsaw_core`'s CPM subset mode and the sharded Bayesian
//! reconstruction all go through it. It runs on `std::thread::scope`, so
//! closures may borrow the caller's stack and every worker is joined
//! before it returns.

use std::panic::resume_unwind;
use std::sync::Mutex;

/// Number of entries per shard for sharded PMF operations.
///
/// The value is a constant of the algorithm, **not** a tuning knob tied to
/// the worker count: partial results are produced per shard and merged in
/// shard order, so keeping the shard layout fixed is what makes the output
/// independent of the thread count down to the last ulp.
pub const SHARD_SIZE: usize = 4096;

/// Applies `f` to every item on a team of scoped worker threads and returns
/// the results in input order.
///
/// `threads` follows the executor's `RunConfig::threads` convention: `0`
/// uses all available cores, `1` runs serially inline, `n` uses exactly `n`
/// workers (an explicit count wins even beyond the core count). No more
/// workers than items are ever spawned. Workers pull items from one shared
/// queue, so uneven items balance dynamically. Because results keep input
/// order and `f` receives no shared mutable state, the output is identical
/// for every setting.
///
/// # Panics
///
/// If `f` panics on any item, the panic is re-raised on the calling thread
/// with its original payload, exactly as the serial path would raise it.
pub fn fan_out<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    // Short inputs return before the core count is queried: on Linux that
    // query reads cgroup files, and single-shard calls are frequent.
    let workers = match (threads, items.len()) {
        (1, _) | (_, 0 | 1) => 1,
        (0, n) => std::thread::available_parallelism().map_or(1, usize::from).min(n),
        (t, n) => t.min(n),
    };
    if workers == 1 {
        return items.into_iter().map(f).collect();
    }

    let queue = Mutex::new(items.into_iter().enumerate());
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        // A panicking worker never holds the lock, so the
                        // queue cannot be poisoned.
                        let next = queue.lock().expect("queue poisoned").next();
                        match next {
                            Some((i, item)) => out.push((i, f(item))),
                            None => break,
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_matches_serial_at_every_thread_setting() {
        let square = |x: u64| x * x;
        let expected: Vec<u64> = (0..100).map(square).collect();
        for threads in [0, 1, 2, 7] {
            assert_eq!(fan_out((0..100).collect(), threads, square), expected);
        }
        // Fewer items than workers, and no items at all.
        assert_eq!(fan_out(vec![3, 4, 5], 8, square), vec![9, 16, 25]);
        assert!(fan_out(Vec::new(), 8, square).is_empty());
    }

    #[test]
    fn fan_out_reraises_a_worker_panic_with_its_original_message() {
        for threads in [1, 2, 0] {
            let caught = std::panic::catch_unwind(|| {
                fan_out((0..8).collect(), threads, |x: u64| {
                    if x == 5 {
                        panic!("item {x} failed");
                    }
                    x
                })
            })
            .expect_err("item 5 panics");
            let message = caught.downcast_ref::<String>().map(String::as_str);
            assert_eq!(message, Some("item 5 failed"), "threads = {threads}");
        }
    }
}
