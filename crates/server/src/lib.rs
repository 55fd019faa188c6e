#![forbid(unsafe_code)]
//! JigSaw as a service: a concurrent reconstruction job server with a
//! content-addressed stage cache.
//!
//! The repo's pipeline is deterministic and content-addressable — the same
//! `(program, device, config)` triple always produces the same bytes, and
//! the persist layer already names that triple with an FNV digest
//! (`jigsaw_core::persist::config_digest`). This crate turns those two
//! facts into a serving layer:
//!
//! * [`protocol`] — length-delimited job frames over TCP, reusing the
//!   exact `jigsaw_pmf::codec` wire types the archives use, with a
//!   checksum span that provably catches any single-bit flip after the
//!   magic (`docs/FORMAT.md` §6).
//! * [`cache`] — the content-addressed result cache: concurrent identical
//!   submissions *coalesce* on one in-flight computation, completed
//!   entries serve from memory under an LRU capacity bound, and eviction
//!   spills the served response as a checksummed `JobResult` frame so a
//!   resubmission *rehydrates* from disk instead of recomputing.
//! * [`server`] — the threaded accept loop, panic fault barrier, and
//!   cooperative shutdown.
//! * [`client`] — a blocking client, plus the raw hooks the concurrency
//!   and fuzz test batteries drive.
//! * [`dist`] — the wire side of distributed CPM sweeps: shards of a
//!   checkpointed `SubsetsSelected` scatter to worker processes as shard
//!   frames and merge back bit-identically (`jigsaw_core::dist` owns the
//!   planning/retry/merge algebra).
//!
//! Responses are bit-identical to a solo `jigsaw_core::run_jigsaw` call:
//! the server runs the same staged pipeline, stage replay is deterministic
//! at every thread count, and the encoded result excludes wall clocks.
//!
//! # Examples
//!
//! ```no_run
//! use jigsaw_circuit::bench;
//! use jigsaw_core::JigsawConfig;
//! use jigsaw_device::Device;
//! use jigsaw_server::client::Client;
//! use jigsaw_server::server::{serve, ServerConfig};
//!
//! let handle = serve(&ServerConfig::new("/tmp/jigsaw-spill")).expect("bind");
//! let mut client = Client::connect(handle.addr()).expect("connect");
//! let result = client
//!     .submit(bench::ghz(8).circuit(), &Device::toronto(), &JigsawConfig::jigsaw(16_384))
//!     .expect("reconstructed");
//! println!("reconstructed {} outcomes", result.output.support_size());
//! handle.shutdown();
//! ```

pub mod cache;
pub mod client;
pub mod dist;
pub mod protocol;
pub mod server;

pub use cache::{CacheMetrics, Outcome, StageCache};
pub use client::{Client, ClientError};
pub use dist::{run_distributed, RemoteRunner};
pub use protocol::{
    decode_submit, ErrorCode, Frame, FrameKind, JobRejection, JobRequest, ProtocolError,
};
pub use server::{serve, ServerConfig, ServerHandle};
