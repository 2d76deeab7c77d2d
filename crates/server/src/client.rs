//! A minimal blocking DKNP client: connect + handshake, then synchronous
//! request/response rounds. This is the one client — behind `dkindex
//! client`, the net gate's load generator and the judged benchmark — and
//! it returns decoded [`Frame`]s so callers see exactly what the server
//! said, including [`Frame::Shed`] and [`Frame::Error`], which are
//! answers, not transport failures. Whether and when to retry is the
//! caller's decision under the rules of PROTOCOL.md §5.2 and §8.

use crate::protocol::{self, DecodeError, ErrorCode, Frame};
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Per-operation I/O deadline applied by [`NetClient::connect`]: the TCP
/// connect, every read and every write must individually complete within
/// this window or the call fails typed ([`ConnectError::TimedOut`] during
/// connect/handshake, `io::ErrorKind::TimedOut`/`WouldBlock` afterwards).
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Why a connection attempt failed to produce a usable client.
#[derive(Debug)]
pub enum ConnectError {
    /// Transport-level failure (refused, reset).
    Io(io::Error),
    /// The TCP connect or the HELLO/WELCOME handshake did not complete
    /// within the I/O deadline. Safe to retry with backoff — no request
    /// was admitted.
    TimedOut,
    /// The server shed the connection at the door (accept queue full,
    /// PROTOCOL.md §5.1 reason 1). Retry after the hinted backoff.
    Shed {
        /// Server backoff hint.
        retry_after_ms: u32,
    },
    /// The server answered the handshake with a typed refusal
    /// (PROTOCOL.md §6 — e.g. unsupported version). Retrying unchanged is
    /// pointless.
    Refused {
        /// Failure class.
        code: ErrorCode,
        /// Server diagnostic.
        message: String,
    },
    /// The peer spoke something that is not DKNP version 1.
    Protocol(String),
}

impl std::fmt::Display for ConnectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnectError::Io(err) => write!(f, "connect failed: {err}"),
            ConnectError::TimedOut => write!(f, "connect or handshake timed out"),
            ConnectError::Shed { retry_after_ms } => {
                write!(f, "connection shed (accept queue full); retry after {retry_after_ms} ms")
            }
            ConnectError::Refused { code, message } => {
                write!(f, "handshake refused ({code:?}): {message}")
            }
            ConnectError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ConnectError {}

/// A connected, handshaken DKNP client.
pub struct NetClient {
    stream: TcpStream,
    epoch_at_welcome: u64,
}

impl NetClient {
    /// Connect to `addr` and perform the HELLO/WELCOME handshake
    /// (PROTOCOL.md §2). The TCP connect to each resolved address, and
    /// every subsequent read and write, must individually finish within
    /// [`DEFAULT_IO_TIMEOUT`].
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<NetClient, ConnectError> {
        let mut stream = connect_stream(addr)?;
        stream.set_read_timeout(Some(DEFAULT_IO_TIMEOUT)).map_err(classify_io)?;
        stream.set_write_timeout(Some(DEFAULT_IO_TIMEOUT)).map_err(classify_io)?;
        #[expect(
            clippy::let_underscore_must_use,
            reason = "latency tuning only: the protocol is correct with Nagle's algorithm on"
        )]
        let _ = stream.set_nodelay(true);
        write_frame(
            &mut stream,
            &Frame::Hello {
                version: protocol::VERSION,
            },
        )
        .map_err(classify_io)?;
        match read_frame(&mut stream).map_err(classify_io)? {
            Frame::Welcome { version, epoch } if version == protocol::VERSION => Ok(NetClient {
                stream,
                epoch_at_welcome: epoch,
            }),
            Frame::Welcome { version, .. } => Err(ConnectError::Protocol(format!(
                "server answered WELCOME with version {version}"
            ))),
            Frame::Shed { retry_after_ms, .. } => Err(ConnectError::Shed { retry_after_ms }),
            Frame::Error { code, message } => Err(ConnectError::Refused { code, message }),
            other => Err(ConnectError::Protocol(format!(
                "expected WELCOME, got opcode 0x{:02X}",
                other.opcode()
            ))),
        }
    }

    /// The epoch id the server reported at WELCOME time.
    pub fn epoch_at_welcome(&self) -> u64 {
        self.epoch_at_welcome
    }

    /// One QUERY round (PROTOCOL.md §3.1). `budget` 0 requests the server
    /// default.
    pub fn query(&mut self, text: &str, budget: u32) -> io::Result<Frame> {
        self.round(&Frame::Query {
            budget,
            text: text.to_string(),
        })
    }

    /// One UPDATE round (PROTOCOL.md §3.2).
    pub fn update(&mut self, from: u64, to: u64) -> io::Result<Frame> {
        self.round(&Frame::Update { from, to })
    }

    /// One PING round (PROTOCOL.md §3.3).
    pub fn ping(&mut self) -> io::Result<Frame> {
        self.round(&Frame::Ping)
    }

    /// One STATS round (PROTOCOL.md §3.4).
    pub fn stats(&mut self) -> io::Result<Frame> {
        self.round(&Frame::Stats)
    }

    fn round(&mut self, request: &Frame) -> io::Result<Frame> {
        write_frame(&mut self.stream, request)?;
        read_frame(&mut self.stream)
    }
}

/// Resolve `addr` and try each address under the connect deadline; the
/// last failure is the one reported.
fn connect_stream<A: ToSocketAddrs>(addr: A) -> Result<TcpStream, ConnectError> {
    let mut last =
        io::Error::new(io::ErrorKind::InvalidInput, "address resolved to no socket addresses");
    for resolved in addr.to_socket_addrs().map_err(ConnectError::Io)? {
        match TcpStream::connect_timeout(&resolved, DEFAULT_IO_TIMEOUT) {
            Ok(stream) => return Ok(stream),
            Err(err) => last = err,
        }
    }
    Err(classify_io(last))
}

/// Map deadline expiry (reported as `TimedOut` or, on some platforms,
/// `WouldBlock`) to the typed variant; everything else stays transport.
fn classify_io(err: io::Error) -> ConnectError {
    if matches!(err.kind(), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock) {
        ConnectError::TimedOut
    } else {
        ConnectError::Io(err)
    }
}

fn write_frame(stream: &mut TcpStream, frame: &Frame) -> io::Result<()> {
    stream.write_all(&protocol::encode(frame))
}

fn read_frame(stream: &mut TcpStream) -> io::Result<Frame> {
    let mut header = [0u8; 4];
    stream.read_exact(&mut header)?;
    let length = protocol::check_length(u32::from_le_bytes(header)).map_err(invalid_data)?;
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body)?;
    protocol::decode_body(&body).map_err(invalid_data)
}

fn invalid_data(err: DecodeError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, err.to_string())
}
