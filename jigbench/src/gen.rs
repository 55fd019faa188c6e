//! Seeded input generation. Everything a workload feeds the program is
//! derived here from the `--seed` argument, so the same seed always gives
//! the same inputs.

/// SplitMix64: a tiny, well-mixed generator. Inputs only need to be
/// reproducible and spread out, not cryptographic.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound >= 1`), by rejection so every value
    /// is equally likely.
    pub fn below(&mut self, bound: u64) -> u64 {
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let x = self.next_u64();
            if x < zone {
                return x % bound;
            }
        }
    }
}

/// A value derived from the run seed and a named purpose, so independent
/// inputs (job seeds, the request stream, …) never share a stream.
pub fn derive(seed: u64, purpose: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325_u64;
    for b in purpose.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
    }
    SplitMix::new(seed ^ h).next_u64()
}

/// The small programs the `serve-mix` stream draws from.
pub const SERVE_PROGRAMS: usize = 3;

/// Share of `serve-mix` requests that repeat an earlier digest, in percent.
pub const REPEAT_PERCENT: u64 = 50;

/// Share of `serve-mix` requests on the Interactive lane, in percent.
pub const INTERACTIVE_PERCENT: u64 = 25;

/// How far back a repeat may reach, in distinct jobs. Twice the server's
/// cache capacity, so about half the repeats still sit in the cache and
/// the rest were spilled and must be rehydrated.
pub const REPEAT_WINDOW: usize = 8;

/// One distinct `serve-mix` job: which program, and the experiment seed
/// its `JigsawConfig` carries. Two requests with equal keys have equal
/// digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobKey {
    pub program: usize,
    pub job_seed: u64,
}

/// One request of the `serve-mix` stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeRequest {
    /// Position in the stream.
    pub index: u64,
    pub key: JobKey,
    /// Whether the key was requested before in the stream.
    pub repeat: bool,
    /// Interactive lane (otherwise Sweep).
    pub interactive: bool,
}

/// The `serve-mix` request stream: an endless, seed-determined sequence.
/// Clients pull from one shared stream, so which client sends a request
/// varies from run to run but the sequence never does.
#[derive(Debug, Clone)]
pub struct ServeStream {
    rng: SplitMix,
    next_index: u64,
    /// Distinct keys in first-request order.
    issued: Vec<JobKey>,
}

impl ServeStream {
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SplitMix::new(derive(seed, "serve-mix stream")),
            next_index: 0,
            issued: Vec::new(),
        }
    }

    /// Distinct keys issued so far, in first-request order.
    #[cfg(test)]
    fn issued(&self) -> &[JobKey] {
        &self.issued
    }

    pub fn next_request(&mut self) -> ServeRequest {
        let index = self.next_index;
        self.next_index += 1;
        let repeat = !self.issued.is_empty() && self.rng.below(100) < REPEAT_PERCENT;
        let interactive = self.rng.below(100) < INTERACTIVE_PERCENT;
        let key = if repeat {
            let window = self.issued.len().min(REPEAT_WINDOW);
            let back = self.rng.below(window as u64) as usize;
            self.issued[self.issued.len() - 1 - back]
        } else {
            let key = JobKey {
                program: self.rng.below(SERVE_PROGRAMS as u64) as usize,
                // Index-derived, so every fresh key is new.
                job_seed: derive(self.rng.next_u64(), "job") ^ index,
            };
            self.issued.push(key);
            key
        };
        ServeRequest { index, key, repeat, interactive }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(seed: u64, n: usize) -> Vec<ServeRequest> {
        let mut s = ServeStream::new(seed);
        (0..n).map(|_| s.next_request()).collect()
    }

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(take(7, 5000), take(7, 5000));
        assert_ne!(take(7, 200), take(8, 200));
    }

    #[test]
    fn repeats_reference_earlier_keys_and_fresh_keys_are_new() {
        let mut seen = std::collections::BTreeSet::new();
        for r in take(42, 5000) {
            assert_eq!(r.repeat, seen.contains(&r.key), "request {}", r.index);
            seen.insert(r.key);
        }
    }

    #[test]
    fn shares_match_the_configured_mix() {
        let reqs = take(3, 20_000);
        let share = |f: fn(&ServeRequest) -> bool| {
            100.0 * reqs.iter().filter(|r| f(r)).count() as f64 / reqs.len() as f64
        };
        let repeat = share(|r| r.repeat);
        let interactive = share(|r| r.interactive);
        assert!((repeat - REPEAT_PERCENT as f64).abs() < 2.0, "repeat share {repeat}");
        assert!((interactive - INTERACTIVE_PERCENT as f64).abs() < 2.0, "{interactive}");
        let programs: std::collections::BTreeSet<usize> =
            reqs.iter().map(|r| r.key.program).collect();
        assert_eq!(programs.len(), SERVE_PROGRAMS);
    }

    #[test]
    fn repeats_stay_inside_the_window() {
        let mut s = ServeStream::new(11);
        for _ in 0..3000 {
            let r = s.next_request();
            if r.repeat {
                let pos = s.issued().iter().position(|k| *k == r.key).unwrap();
                assert!(s.issued().len() - pos <= REPEAT_WINDOW);
            }
        }
    }

    #[test]
    fn derive_separates_purposes() {
        assert_ne!(derive(1, "a"), derive(1, "b"));
        assert_ne!(derive(1, "a"), derive(2, "a"));
        assert_eq!(derive(9, "x"), derive(9, "x"));
    }
}
