//! A small blocking client for the rt3-serve protocol, used by the load
//! generator, the integration tests and anything else that wants to talk
//! to the server without hand-rolling frames.

use crate::protocol::{
    read_frame, write_frame, ClientFrame, InferResponse, ProtocolError, ServerFrame, MAX_FRAME_LEN,
};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// What one blocking infer call resolved to.
#[derive(Debug, Clone, PartialEq)]
pub enum InferOutcome {
    /// The request resolved with a status (completion, reject or drop).
    Resolved(InferResponse),
    /// The server closed the conversation with a terminal code (battery
    /// dead, shutdown, protocol error) instead of answering.
    Terminal(u8),
}

/// A blocking connection to an rt3-serve server.
pub struct ServeClient {
    stream: TcpStream,
}

impl ServeClient {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// Sets the socket's read and write deadlines (`None` waits forever).
    /// A blocking [`ServeClient::infer`] whose response does not arrive in
    /// time then fails with a timeout error
    /// ([`ProtocolError::is_timeout`]) instead of hanging — what the load
    /// generator's retry policy keys on.
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn set_timeouts(
        &mut self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> io::Result<()> {
        self.stream.set_read_timeout(read)?;
        self.stream.set_write_timeout(write)
    }

    /// Connects to `addr`, retrying until `timeout` elapses — servers
    /// started in another process need a moment to bind.
    ///
    /// # Errors
    ///
    /// The last connect error once the timeout is exhausted.
    pub fn connect_retry(addr: SocketAddr, timeout: Duration) -> io::Result<Self> {
        let deadline = Instant::now() + timeout;
        loop {
            match Self::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    /// Sends one inference request and blocks for its resolution. With one
    /// outstanding request per connection (the closed-loop discipline) the
    /// next frame on the stream is always this request's response.
    ///
    /// # Errors
    ///
    /// Protocol or socket errors, including the server disconnecting
    /// without a response.
    pub fn infer(
        &mut self,
        id: u64,
        deadline_budget_ms: f64,
        payload: &[u8],
    ) -> Result<InferOutcome, ProtocolError> {
        let body = ClientFrame::encode_infer(id, deadline_budget_ms, payload);
        write_frame(&mut self.stream, &body)?;
        match self.read_server_frame()? {
            ServerFrame::Infer(response) => Ok(InferOutcome::Resolved(response)),
            ServerFrame::Terminal(code) => Ok(InferOutcome::Terminal(code)),
            ServerFrame::Metrics(_) | ServerFrame::Obs(_) => Err(ProtocolError::Malformed(
                "non-infer response to an infer request",
            )),
        }
    }

    /// Requests the live telemetry snapshot and blocks for the JSONL text.
    ///
    /// # Errors
    ///
    /// Protocol or socket errors; a terminal frame is reported as a
    /// malformed conversation.
    pub fn metrics(&mut self) -> Result<String, ProtocolError> {
        write_frame(&mut self.stream, &ClientFrame::encode_metrics())?;
        match self.read_server_frame()? {
            ServerFrame::Metrics(jsonl) => Ok(jsonl),
            ServerFrame::Infer(_) | ServerFrame::Terminal(_) | ServerFrame::Obs(_) => Err(
                ProtocolError::Malformed("unexpected response to a metrics request"),
            ),
        }
    }

    /// Turns this connection into a streaming subscriber: sends
    /// `REQ_SUBSCRIBE` and blocks for the catch-up chunk (the server's full
    /// retained obs snapshot as JSONL). Subsequent chunks — one per governor
    /// window — arrive via [`ServeClient::next_obs`]. A subscribed
    /// connection is a dedicated push channel; do not interleave infer or
    /// metrics calls on it.
    ///
    /// # Errors
    ///
    /// Protocol or socket errors; a terminal frame is reported as a
    /// malformed conversation.
    pub fn subscribe(&mut self) -> Result<String, ProtocolError> {
        write_frame(&mut self.stream, &ClientFrame::encode_subscribe())?;
        self.next_obs()
    }

    /// Blocks for the next pushed obs chunk on a subscribed connection.
    /// Honors the read timeout set via [`ServeClient::set_timeouts`].
    ///
    /// # Errors
    ///
    /// Protocol or socket errors; a terminal or non-obs frame is reported
    /// as a malformed conversation.
    pub fn next_obs(&mut self) -> Result<String, ProtocolError> {
        match self.read_server_frame()? {
            ServerFrame::Obs(chunk) => Ok(chunk),
            ServerFrame::Infer(_) | ServerFrame::Terminal(_) | ServerFrame::Metrics(_) => Err(
                ProtocolError::Malformed("unexpected frame on a subscribed connection"),
            ),
        }
    }

    fn read_server_frame(&mut self) -> Result<ServerFrame, ProtocolError> {
        let body = read_frame(&mut self.stream, MAX_FRAME_LEN)?.ok_or_else(|| {
            ProtocolError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection without a response",
            ))
        })?;
        ServerFrame::decode(&body)
    }
}
