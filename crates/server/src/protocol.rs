//! The wire protocol: little-endian, length-prefixed binary frames.
//!
//! Every frame is a `u32` byte length followed by that many body bytes;
//! the first body byte is the opcode. The full layout (and the drain
//! semantics built on top of it) is documented in DESIGN.md §10.
//!
//! Client → server:
//!
//! | opcode | frame                                                        |
//! |--------|--------------------------------------------------------------|
//! | `0x01` | infer: `id: u64`, `deadline_budget_ms: f64`, `payload_len: u32`, payload bytes |
//! | `0x02` | metrics: empty                                               |
//! | `0x03` | subscribe: empty — turns the connection into a push channel  |
//!
//! Server → client:
//!
//! | opcode | frame                                                        |
//! |--------|--------------------------------------------------------------|
//! | `0x81` | infer response: `id: u64`, `status: u8`, `level_pos: u32`, `queue_ms: f64`, `infer_ms: f64` |
//! | `0x82` | metrics response: JSONL bytes (the `TelemetrySnapshot` export) |
//! | `0x83` | obs chunk: JSONL bytes — one window's series/alert delta, pushed per window to subscribers |
//! | `0x8F` | terminal: `code: u8` — the connection is being closed by the server |

use std::io::{self, Read, Write};

/// Client→server inference request.
pub const OP_INFER: u8 = 0x01;
/// Client→server metrics-snapshot request.
pub const OP_METRICS: u8 = 0x02;
/// Client→server subscription request: the connection becomes a dedicated
/// streaming channel receiving one obs chunk per server window.
pub const OP_SUBSCRIBE: u8 = 0x03;
/// Server→client inference response.
pub const OP_INFER_RESP: u8 = 0x81;
/// Server→client metrics response.
pub const OP_METRICS_RESP: u8 = 0x82;
/// Server→client observability chunk pushed to subscribers.
pub const OP_OBS: u8 = 0x83;
/// Server→client terminal frame: the server is closing this connection.
pub const OP_TERMINAL: u8 = 0x8F;

/// Largest frame body the server and [`crate::ServeClient`] accept: it
/// bounds each connection's read buffer.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Terminal code: the battery died — the server drains and refuses new
/// connections.
pub const TERMINAL_BATTERY_DEAD: u8 = 1;
/// Terminal code: the server is shutting down.
pub const TERMINAL_SHUTDOWN: u8 = 2;
/// Terminal code: this connection violated the protocol and is dropped
/// (other connections are unaffected).
pub const TERMINAL_PROTOCOL_ERROR: u8 = 3;
/// Terminal code: this connection sat idle (or mid-frame) past the
/// server's read timeout and is being reaped — how hung peers are kept
/// from pinning connection threads forever.
pub const TERMINAL_IDLE_TIMEOUT: u8 = 4;

/// How a request resolved, carried in the infer-response frame. Every
/// submitted request resolves to exactly one of these — backpressure is an
/// explicit code, never a silent TCP stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Served within its deadline.
    Completed = 0,
    /// Served, but after its deadline passed.
    CompletedLate = 1,
    /// Turned away at admission: the bounded queue was full.
    RejectedQueueFull = 2,
    /// Turned away at admission: the backlog-aware estimate says the
    /// deadline cannot be met.
    RejectedCertainMiss = 3,
    /// Admitted but dropped because the battery died before service.
    DroppedDead = 4,
    /// Refused because the server is draining after battery death.
    Draining = 5,
    /// Admitted but dropped because the server shut down.
    DroppedShutdown = 6,
}

impl Status {
    /// Decodes a wire byte.
    pub fn from_u8(raw: u8) -> Option<Self> {
        match raw {
            0 => Some(Status::Completed),
            1 => Some(Status::CompletedLate),
            2 => Some(Status::RejectedQueueFull),
            3 => Some(Status::RejectedCertainMiss),
            4 => Some(Status::DroppedDead),
            5 => Some(Status::Draining),
            6 => Some(Status::DroppedShutdown),
            _ => None,
        }
    }

    /// Whether the request actually ran (as opposed to being rejected or
    /// dropped).
    pub fn served(self) -> bool {
        matches!(self, Status::Completed | Status::CompletedLate)
    }
}

/// What went wrong while reading a frame.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying socket failed (including a disconnect mid-frame).
    Io(io::Error),
    /// The length prefix exceeds the negotiated maximum frame size.
    FrameTooLarge {
        /// Announced body length.
        len: u32,
        /// Maximum the receiver accepts.
        max: u32,
    },
    /// The frame body does not parse as any known message.
    Malformed(&'static str),
    /// The opcode byte is not one this side understands.
    UnknownOpcode(u8),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "socket error: {e}"),
            ProtocolError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            ProtocolError::Malformed(what) => write!(f, "malformed frame: {what}"),
            ProtocolError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
        }
    }
}

impl ProtocolError {
    /// Whether this is a socket timeout (the deadline set with
    /// `set_read_timeout` / `set_write_timeout` expired). Platforms
    /// disagree on the error kind — Unix reports `WouldBlock`, Windows
    /// `TimedOut` — so both count.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            ProtocolError::Io(e)
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
        )
    }
}

impl std::error::Error for ProtocolError {}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

/// Reads one length-prefixed frame body. Returns `Ok(None)` on a clean
/// end-of-stream at a frame boundary (the peer closed the connection);
/// a disconnect mid-frame is an [`ProtocolError::Io`] error.
///
/// # Errors
///
/// [`ProtocolError::FrameTooLarge`] when the announced length exceeds
/// `max_len`, [`ProtocolError::Io`] on socket failure.
pub fn read_frame<R: Read>(reader: &mut R, max_len: u32) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        match reader.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(ProtocolError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "disconnect inside a length prefix",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(prefix);
    if len > max_len {
        return Err(ProtocolError::FrameTooLarge { len, max: max_len });
    }
    let mut body = vec![0u8; len as usize];
    reader.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Writes one frame (length prefix + body) with a single `write_all` so a
/// frame is never torn by interleaved writers sharing the socket.
///
/// # Errors
///
/// Propagates the socket error.
pub fn write_frame<W: Write>(writer: &mut W, body: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(body);
    writer.write_all(&frame)
}

/// A parsed client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientFrame {
    /// One inference request. The payload is opaque to the server — only
    /// its size is carried through (it stands in for the request tensor).
    Infer {
        /// Client-chosen request id, echoed back on the response. Ids only
        /// need to be unique per connection.
        id: u64,
        /// Relative deadline: the request must complete within this many
        /// milliseconds of its arrival.
        deadline_budget_ms: f64,
        /// Size of the opaque payload that followed.
        payload_len: u32,
    },
    /// Request for a live telemetry snapshot (the `/metrics` analogue).
    Metrics,
    /// Turn this connection into a push channel: the server answers with a
    /// catch-up obs chunk (the full retained series/alert history) and then
    /// pushes one chunk per window. A subscribed connection sends nothing
    /// further; it just reads.
    Subscribe,
}

impl ClientFrame {
    /// Parses a frame body.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Malformed`] / [`ProtocolError::UnknownOpcode`] when
    /// the body is not a valid client message.
    pub fn decode(body: &[u8]) -> Result<Self, ProtocolError> {
        let (&op, rest) = body
            .split_first()
            .ok_or(ProtocolError::Malformed("empty frame body"))?;
        match op {
            OP_INFER => {
                if rest.len() < 20 {
                    return Err(ProtocolError::Malformed("infer header truncated"));
                }
                let id = u64::from_le_bytes(rest[0..8].try_into().expect("8 bytes"));
                let deadline_budget_ms =
                    f64::from_le_bytes(rest[8..16].try_into().expect("8 bytes"));
                let payload_len = u32::from_le_bytes(rest[16..20].try_into().expect("4 bytes"));
                if rest.len() - 20 != payload_len as usize {
                    return Err(ProtocolError::Malformed("payload length mismatch"));
                }
                if !deadline_budget_ms.is_finite() || deadline_budget_ms <= 0.0 {
                    return Err(ProtocolError::Malformed(
                        "deadline budget must be positive and finite",
                    ));
                }
                Ok(ClientFrame::Infer {
                    id,
                    deadline_budget_ms,
                    payload_len,
                })
            }
            OP_METRICS => {
                if !rest.is_empty() {
                    return Err(ProtocolError::Malformed("metrics request carries a body"));
                }
                Ok(ClientFrame::Metrics)
            }
            OP_SUBSCRIBE => {
                if !rest.is_empty() {
                    return Err(ProtocolError::Malformed("subscribe request carries a body"));
                }
                Ok(ClientFrame::Subscribe)
            }
            other => Err(ProtocolError::UnknownOpcode(other)),
        }
    }

    /// Encodes an infer-request body (without the length prefix).
    pub fn encode_infer(id: u64, deadline_budget_ms: f64, payload: &[u8]) -> Vec<u8> {
        let mut body = Vec::with_capacity(21 + payload.len());
        body.push(OP_INFER);
        body.extend_from_slice(&id.to_le_bytes());
        body.extend_from_slice(&deadline_budget_ms.to_le_bytes());
        body.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        body.extend_from_slice(payload);
        body
    }

    /// Encodes a metrics-request body (without the length prefix).
    pub fn encode_metrics() -> Vec<u8> {
        vec![OP_METRICS]
    }

    /// Encodes a subscribe-request body (without the length prefix).
    pub fn encode_subscribe() -> Vec<u8> {
        vec![OP_SUBSCRIBE]
    }
}

/// One resolved inference request as seen on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferResponse {
    /// The client's request id, echoed back.
    pub id: u64,
    /// How the request resolved.
    pub status: Status,
    /// Governor level position the request was served at (the admission
    /// level for rejects).
    pub level_pos: u32,
    /// Milliseconds the request waited in the queue (0 for rejects).
    pub queue_ms: f64,
    /// Milliseconds of (batched) service time charged (0 for rejects).
    pub infer_ms: f64,
}

impl InferResponse {
    /// Encodes the response body (without the length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(30);
        body.push(OP_INFER_RESP);
        body.extend_from_slice(&self.id.to_le_bytes());
        body.push(self.status as u8);
        body.extend_from_slice(&self.level_pos.to_le_bytes());
        body.extend_from_slice(&self.queue_ms.to_le_bytes());
        body.extend_from_slice(&self.infer_ms.to_le_bytes());
        body
    }
}

/// A parsed server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerFrame {
    /// One resolved inference request.
    Infer(InferResponse),
    /// The JSONL telemetry snapshot.
    Metrics(String),
    /// One pushed observability chunk: JSONL series points and alert
    /// transitions for a window (or the catch-up history right after
    /// subscribing).
    Obs(String),
    /// The server is closing this connection; the code is one of the
    /// `TERMINAL_*` constants.
    Terminal(u8),
}

impl ServerFrame {
    /// Parses a frame body.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Malformed`] / [`ProtocolError::UnknownOpcode`] when
    /// the body is not a valid server message.
    pub fn decode(body: &[u8]) -> Result<Self, ProtocolError> {
        let (&op, rest) = body
            .split_first()
            .ok_or(ProtocolError::Malformed("empty frame body"))?;
        match op {
            OP_INFER_RESP => {
                if rest.len() != 29 {
                    return Err(ProtocolError::Malformed("infer response length"));
                }
                let id = u64::from_le_bytes(rest[0..8].try_into().expect("8 bytes"));
                let status = Status::from_u8(rest[8])
                    .ok_or(ProtocolError::Malformed("unknown status code"))?;
                let level_pos = u32::from_le_bytes(rest[9..13].try_into().expect("4 bytes"));
                let queue_ms = f64::from_le_bytes(rest[13..21].try_into().expect("8 bytes"));
                let infer_ms = f64::from_le_bytes(rest[21..29].try_into().expect("8 bytes"));
                Ok(ServerFrame::Infer(InferResponse {
                    id,
                    status,
                    level_pos,
                    queue_ms,
                    infer_ms,
                }))
            }
            OP_METRICS_RESP => {
                let text = String::from_utf8(rest.to_vec())
                    .map_err(|_| ProtocolError::Malformed("metrics response is not UTF-8"))?;
                Ok(ServerFrame::Metrics(text))
            }
            OP_OBS => {
                let text = String::from_utf8(rest.to_vec())
                    .map_err(|_| ProtocolError::Malformed("obs chunk is not UTF-8"))?;
                Ok(ServerFrame::Obs(text))
            }
            OP_TERMINAL => {
                if rest.len() != 1 {
                    return Err(ProtocolError::Malformed("terminal frame length"));
                }
                Ok(ServerFrame::Terminal(rest[0]))
            }
            other => Err(ProtocolError::UnknownOpcode(other)),
        }
    }

    /// Encodes a metrics-response body (without the length prefix).
    pub fn encode_metrics(jsonl: &str) -> Vec<u8> {
        let mut body = Vec::with_capacity(1 + jsonl.len());
        body.push(OP_METRICS_RESP);
        body.extend_from_slice(jsonl.as_bytes());
        body
    }

    /// Encodes an obs-chunk body (without the length prefix).
    pub fn encode_obs(jsonl: &str) -> Vec<u8> {
        let mut body = Vec::with_capacity(1 + jsonl.len());
        body.push(OP_OBS);
        body.extend_from_slice(jsonl.as_bytes());
        body
    }

    /// Encodes a terminal body (without the length prefix).
    pub fn encode_terminal(code: u8) -> Vec<u8> {
        vec![OP_TERMINAL, code]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infer_request_round_trips() {
        let body = ClientFrame::encode_infer(42, 250.0, &[1, 2, 3]);
        assert_eq!(
            ClientFrame::decode(&body).unwrap(),
            ClientFrame::Infer {
                id: 42,
                deadline_budget_ms: 250.0,
                payload_len: 3,
            }
        );
    }

    #[test]
    fn infer_response_round_trips() {
        let resp = InferResponse {
            id: 7,
            status: Status::CompletedLate,
            level_pos: 3,
            queue_ms: 12.5,
            infer_ms: 48.0,
        };
        assert_eq!(
            ServerFrame::decode(&resp.encode()).unwrap(),
            ServerFrame::Infer(resp)
        );
    }

    #[test]
    fn subscribe_and_obs_round_trip() {
        let body = ClientFrame::encode_subscribe();
        assert_eq!(ClientFrame::decode(&body).unwrap(), ClientFrame::Subscribe);
        let chunk = "{\"type\":\"series\",\"name\":\"miss_rate\",\"t_s\":3,\"value\":0.5}\n";
        assert_eq!(
            ServerFrame::decode(&ServerFrame::encode_obs(chunk)).unwrap(),
            ServerFrame::Obs(chunk.to_string())
        );
    }

    #[test]
    fn malformed_bodies_are_rejected_not_panicked() {
        assert!(ClientFrame::decode(&[]).is_err());
        assert!(ClientFrame::decode(&[OP_INFER, 1, 2]).is_err());
        assert!(ClientFrame::decode(&[0x77]).is_err());
        assert!(ClientFrame::decode(&[OP_SUBSCRIBE, 1]).is_err());
        assert!(ServerFrame::decode(&[OP_OBS, 0xFF, 0xFE]).is_err());
        // payload length disagreeing with the frame length
        let mut body = ClientFrame::encode_infer(1, 100.0, &[0; 4]);
        body.truncate(body.len() - 1);
        assert!(ClientFrame::decode(&body).is_err());
        // non-positive and non-finite deadline budgets
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let body = ClientFrame::encode_infer(1, bad, &[]);
            assert!(ClientFrame::decode(&body).is_err());
        }
        assert!(ServerFrame::decode(&[OP_INFER_RESP, 0]).is_err());
        assert!(ServerFrame::decode(&[OP_TERMINAL]).is_err());
    }

    #[test]
    fn frame_io_round_trips_and_enforces_the_size_limit() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor, 1024).unwrap().as_deref(),
            Some(&b"hello"[..])
        );
        assert!(read_frame(&mut cursor, 1024).unwrap().is_none());

        let mut oversized = Vec::new();
        oversized.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = std::io::Cursor::new(oversized);
        assert!(matches!(
            read_frame(&mut cursor, 1024),
            Err(ProtocolError::FrameTooLarge { .. })
        ));
    }
}
