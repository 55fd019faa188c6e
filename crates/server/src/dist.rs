//! The wire side of distributed CPM sweeps: a [`ShardRunner`] that ships
//! shards to remote worker processes over the protocol's shard frames
//! (`docs/FORMAT.md` §7).
//!
//! `jigsaw_core::dist` owns the sweep algebra — planning, retry, merge —
//! against an abstract [`ShardRunner`]. This module supplies the runner
//! that crosses a process boundary: [`RemoteRunner`] connects to one
//! worker address per shard, sends a `SubmitShard` that names the
//! checkpointed stage by its config digest, and decodes the worker's
//! `ShardResult` back into the [`ShardPartial`] the driver merges.
//!
//! A worker keeps the stages it has been sent, so a sweep ships its stage
//! once per worker, not once per shard. When the worker does not hold the
//! stage (first contact, a restarted worker, an evicted stage) it answers
//! with the typed [`ErrorCode::StageMissing`], and the runner resends that
//! shard with the stage inline, once, on the same connection. The driver
//! keeps no record of which worker holds what, and a miss is neither a
//! failed attempt nor a retry.
//!
//! Connecting per shard (rather than holding one long-lived stream) is a
//! deliberate fault-tolerance choice: a worker killed mid-shard surfaces
//! as a connection error on exactly the attempt it ate, the driver
//! requeues that shard for a surviving worker, and the retried attempt
//! starts on a fresh socket with no half-read framing state. Because
//! per-CPM seeds are pinned by CPM index, the retry produces the same
//! bytes the dead worker would have — the merged result is bit-identical
//! no matter how many workers die (as long as one survives).

use std::net::SocketAddr;

use jigsaw_core::dist::{self, DistConfig, DistError, Shard, ShardRequest, ShardRunner};
use jigsaw_core::pipeline::SubsetsSelected;
use jigsaw_core::sched::Priority;
use jigsaw_core::JigsawResult;
use jigsaw_pmf::ShardPartial;

use crate::client::{Client, ClientError};
use crate::protocol::ErrorCode;

/// A [`ShardRunner`] that executes shards on a remote worker process.
///
/// One runner wraps one worker address; the sweep driver owns one runner
/// per worker and feeds each from the shared shard queue. Every shard is
/// a fresh connection — see the module docs for why.
#[derive(Debug, Clone)]
pub struct RemoteRunner {
    addr: SocketAddr,
}

impl RemoteRunner {
    /// A runner targeting the worker at `addr`.
    #[must_use]
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr }
    }
}

impl ShardRunner for RemoteRunner {
    fn run_shard(
        &mut self,
        stage: &SubsetsSelected,
        shard: &Shard,
        priority: Priority,
    ) -> Result<ShardPartial, String> {
        let mut client = Client::connect(self.addr)
            .map_err(|e| format!("worker {} unreachable: {e}", self.addr))?;
        let digest = stage.config_digest();
        let mut request = ShardRequest { shard: *shard, priority, stage: None };
        let reply = match client.submit_shard(digest, &request) {
            Err(ClientError::Rejected(r)) if r.code == ErrorCode::StageMissing => {
                request.stage = Some(stage);
                client.submit_shard(digest, &request)
            }
            reply => reply,
        };
        reply.map_err(|e| format!("worker {} failed shard {}: {e}", self.addr, shard.index))
    }
}

/// Runs a distributed sweep over the workers at `addrs` and merges their
/// partials into the [`JigsawResult`] a solo `run_jigsaw` would produce —
/// bit-identical regardless of worker count, shard size, completion order
/// or which worker ran which shard.
///
/// # Errors
///
/// [`DistError::NoWorkers`] for an empty address list; otherwise the
/// sweep's retry/watchdog surface (`ShardFailed`, `Timeout`, `Merge`).
pub fn run_distributed(
    stage: &SubsetsSelected,
    addrs: &[SocketAddr],
    config: &DistConfig,
) -> Result<JigsawResult, DistError> {
    let runners: Vec<Box<dyn ShardRunner>> = addrs
        .iter()
        .map(|&addr| Box::new(RemoteRunner::new(addr)) as Box<dyn ShardRunner>)
        .collect();
    dist::run_sharded(stage, runners, config)
}
