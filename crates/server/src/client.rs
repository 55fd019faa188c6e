//! A blocking client for the job server.
//!
//! [`Client::submit`] is the whole protocol for most callers: frame the
//! request, read one reply, decode. The raw layers
//! ([`Client::submit_bytes`], [`Client::send_raw`], [`Client::read_frame`])
//! exist for the test battery — bit-identity assertions compare raw
//! response payloads, and the fuzz suite writes deliberately corrupt
//! bytes.

use std::fmt;
use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};

use jigsaw_circuit::Circuit;
use jigsaw_core::{JigsawConfig, JigsawResult};
use jigsaw_device::Device;
use jigsaw_pmf::codec::decode_from_slice;

use crate::protocol::{Frame, FrameKind, JobRejection, JobRequest, ProtocolError};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Protocol(ProtocolError),
    /// The server refused the job with a typed rejection.
    Rejected(JobRejection),
    /// The server replied with a frame kind the call did not expect.
    UnexpectedFrame(FrameKind),
    /// The server closed the connection before replying.
    Closed,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Protocol(e) => write!(f, "protocol failure: {e}"),
            Self::Rejected(r) => write!(f, "server rejected the job: {r}"),
            Self::UnexpectedFrame(kind) => write!(f, "unexpected reply frame {kind:?}"),
            Self::Closed => write!(f, "server closed the connection before replying"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Protocol(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        Self::Protocol(e)
    }
}

/// A blocking connection to a job server.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Ok(Self { stream: TcpStream::connect(addr)? })
    }

    /// Submits one job and decodes the reconstructed result.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] carries the server's typed refusal; other
    /// variants are transport/framing failures.
    pub fn submit(
        &mut self,
        program: &Circuit,
        device: &Device,
        config: &JigsawConfig,
    ) -> Result<JigsawResult, ClientError> {
        let payload = self.submit_bytes(program, device, config)?;
        let result = decode_from_slice(&payload).map_err(ProtocolError::Codec)?;
        Ok(result)
    }

    /// Submits one job and returns the *raw encoded* result payload —
    /// the bytes bit-identity tests compare.
    ///
    /// # Errors
    ///
    /// Same surface as [`Self::submit`].
    pub fn submit_bytes(
        &mut self,
        program: &Circuit,
        device: &Device,
        config: &JigsawConfig,
    ) -> Result<Vec<u8>, ClientError> {
        self.submit_request(&JobRequest::new(program.clone(), device.clone(), config.clone()))
    }

    /// Submits a fully specified [`JobRequest`] — the path that exposes the
    /// scheduling lane ([`JobRequest::priority`]) — returning the raw
    /// encoded result payload.
    ///
    /// # Errors
    ///
    /// Same surface as [`Self::submit`]; a saturated server surfaces as
    /// [`ClientError::Rejected`] carrying
    /// [`ErrorCode::Overloaded`](crate::protocol::ErrorCode::Overloaded).
    pub fn submit_request(&mut self, request: &JobRequest) -> Result<Vec<u8>, ClientError> {
        Frame::submit(request).write_to(&mut self.stream)?;
        let reply = self.expect_frame()?;
        match reply.kind {
            FrameKind::JobResult => Ok(reply.payload),
            FrameKind::JobError => {
                let rejection = decode_from_slice(&reply.payload).map_err(ProtocolError::Codec)?;
                Err(ClientError::Rejected(rejection))
            }
            kind => Err(ClientError::UnexpectedFrame(kind)),
        }
    }

    /// Submits one distributed-sweep shard and decodes the worker's
    /// partial. The caller (normally the sweep driver in
    /// `crate::dist`) is responsible for merging partials in shard-index
    /// order.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] carries the worker's typed
    /// [`JobRejection`]; other variants are transport/framing failures —
    /// including [`ClientError::Closed`] when the worker dies mid-shard.
    pub fn submit_shard(
        &mut self,
        request: &jigsaw_core::dist::ShardRequest,
    ) -> Result<jigsaw_pmf::ShardPartial, ClientError> {
        Frame::submit_shard(request).write_to(&mut self.stream)?;
        let reply = self.expect_frame()?;
        match reply.kind {
            FrameKind::ShardResult => {
                let partial = decode_from_slice(&reply.payload).map_err(ProtocolError::Codec)?;
                Ok(partial)
            }
            FrameKind::ShardError => {
                let rejection = decode_from_slice(&reply.payload).map_err(ProtocolError::Codec)?;
                Err(ClientError::Rejected(rejection))
            }
            kind => Err(ClientError::UnexpectedFrame(kind)),
        }
    }

    /// Fetches the server's metrics exposition text.
    ///
    /// # Errors
    ///
    /// Transport/framing failures, or an unexpected reply kind.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        Frame::empty(FrameKind::MetricsRequest).write_to(&mut self.stream)?;
        let reply = self.expect_frame()?;
        match reply.kind {
            FrameKind::MetricsText => Ok(String::from_utf8_lossy(&reply.payload).into_owned()),
            kind => Err(ClientError::UnexpectedFrame(kind)),
        }
    }

    /// Asks the server to shut down and waits for the acknowledgement.
    ///
    /// # Errors
    ///
    /// Transport/framing failures, or an unexpected reply kind.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        Frame::empty(FrameKind::Shutdown).write_to(&mut self.stream)?;
        let reply = self.expect_frame()?;
        match reply.kind {
            FrameKind::ShutdownAck => Ok(()),
            kind => Err(ClientError::UnexpectedFrame(kind)),
        }
    }

    /// Writes raw bytes to the connection verbatim (fuzz-test hook).
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Reads one reply frame; `None` when the server closed cleanly.
    ///
    /// # Errors
    ///
    /// Propagates framing failures.
    pub fn read_frame(&mut self) -> Result<Option<Frame>, ProtocolError> {
        Frame::read_from(&mut self.stream)
    }

    fn expect_frame(&mut self) -> Result<Frame, ClientError> {
        self.read_frame()?.ok_or(ClientError::Closed)
    }
}
