//! A distributed-sweep worker: one `jigsaw-server` process that serves
//! shard frames until a peer sends `Shutdown`.
//!
//! The binary exists so the distributed test battery
//! (`tests/dist_determinism.rs`) can spawn *real* worker processes —
//! scatter/merge bit-identity is only a theorem worth having if it holds
//! across process boundaries, not just across threads. On startup the
//! worker binds a free loopback port and prints a single `PORT=<n>` line to
//! stdout; the spawner parses that line to learn the address.
//!
//! ```text
//! jigsaw-worker [--handlers N]
//! ```

use std::io::Write;
use std::process::ExitCode;

use jigsaw_repro::server::server::{serve, ServerConfig};

fn main() -> ExitCode {
    let mut handlers = 2_usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--handlers" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => handlers = n.max(1),
                None => {
                    eprintln!("jigsaw-worker: --handlers needs a non-negative integer");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("jigsaw-worker: unknown argument {other:?}");
                eprintln!("usage: jigsaw-worker [--handlers N]");
                return ExitCode::FAILURE;
            }
        }
    }

    let spill = std::env::temp_dir().join(format!("jigsaw-worker-{}", std::process::id()));
    let handle = match serve(&ServerConfig::new(&spill).with_handlers(handlers)) {
        Ok(handle) => handle,
        Err(error) => {
            eprintln!("jigsaw-worker: bind failed: {error}");
            return ExitCode::FAILURE;
        }
    };

    // The one line the spawner contractually parses.
    println!("PORT={}", handle.addr().port());
    let _ = std::io::stdout().flush();

    handle.wait();
    let _ = std::fs::remove_dir_all(&spill);
    ExitCode::SUCCESS
}
