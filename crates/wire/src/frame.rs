//! Length-prefixed framing over a `TcpStream`.
//!
//! One frame = `u32` little-endian length (of tag + payload), one tag
//! byte, payload bytes. [`FrameConn`] is the workspace's only sanctioned
//! raw-socket-read site: every read enforces the [`MAX_FRAME_LEN`]
//! length cap and runs under a mandatory socket read timeout, so a
//! malicious length prefix cannot allocate unbounded memory and a
//! silent peer cannot wedge the reader. The analyzer's `wire-bounded`
//! rule keeps raw reads out of every other network module.

use crate::msg::Message;
use crate::{WireError, MAX_FRAME_LEN, WIRE_VERSION};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A framed, timeout-guarded connection.
pub struct FrameConn {
    stream: TcpStream,
}

impl FrameConn {
    /// Wraps an accepted or connected stream. The read timeout is
    /// mandatory — `FrameConn` refuses to read from an unbounded socket —
    /// and the same bound is applied to writes: a peer that stops
    /// draining its receive window must not wedge a sender forever
    /// (server handlers send replies while holding a cluster read guard;
    /// an unbounded `write_all` there would wedge every writer waiting
    /// on that lock, and parking_lot's writer preference then wedges new
    /// readers too).
    pub fn new(stream: TcpStream, read_timeout: Duration) -> Result<FrameConn, WireError> {
        if read_timeout.is_zero() {
            return Err(WireError::permanent(
                "a frame connection requires a nonzero read timeout",
            ));
        }
        stream.set_read_timeout(Some(read_timeout))?;
        stream.set_write_timeout(Some(read_timeout))?;
        // Frames are small and latency-sensitive; Nagle only hurts here.
        stream.set_nodelay(true)?;
        Ok(FrameConn { stream })
    }

    /// Dials `addr` and wraps the stream.
    pub fn connect(addr: &str, read_timeout: Duration) -> Result<FrameConn, WireError> {
        let stream = TcpStream::connect(addr)?;
        FrameConn::new(stream, read_timeout)
    }

    /// Adjusts the read timeout mid-connection (e.g. the controller
    /// widens it while waiting on a whole workload execution). The write
    /// timeout keeps its construction-time bound: waiting longer for a
    /// slow *computation* is fine, waiting longer on a peer that stopped
    /// draining its window is not.
    pub fn set_read_timeout(&mut self, read_timeout: Duration) -> Result<(), WireError> {
        if read_timeout.is_zero() {
            return Err(WireError::permanent("read timeout must be nonzero"));
        }
        self.stream.set_read_timeout(Some(read_timeout))?;
        Ok(())
    }

    /// Sends one message as one frame.
    pub fn send(&mut self, msg: &Message) -> Result<(), WireError> {
        let payload = msg.encode_payload();
        let len = payload.len() as u64 + 1;
        if len > MAX_FRAME_LEN as u64 {
            return Err(WireError::permanent(format!(
                "refusing to send oversized frame: {len} > {MAX_FRAME_LEN}"
            )));
        }
        let mut buf = Vec::with_capacity(5 + payload.len());
        buf.extend_from_slice(&(len as u32).to_le_bytes());
        buf.push(msg.tag());
        buf.extend_from_slice(&payload);
        self.stream.write_all(&buf)?;
        self.stream.flush()?;
        Ok(())
    }

    /// Receives one frame and decodes it. The length prefix is validated
    /// against [`MAX_FRAME_LEN`] *before* any allocation.
    pub fn recv(&mut self) -> Result<Message, WireError> {
        let mut len_bytes = [0u8; 4];
        // Sanctioned raw read: bounded by the 4-byte buffer and the
        // connection's mandatory read timeout (enforced in `new`).
        self.stream.read_exact(&mut len_bytes)?;
        let len = u32::from_le_bytes(len_bytes);
        if len == 0 {
            return Err(WireError::permanent("zero-length frame"));
        }
        if len > MAX_FRAME_LEN {
            return Err(WireError::permanent(format!(
                "frame length {len} exceeds cap {MAX_FRAME_LEN}"
            )));
        }
        let mut body = vec![0u8; len as usize];
        self.stream.read_exact(&mut body)?;
        Message::decode(body[0], &body[1..])
    }

    /// Sends `msg` and waits for the reply — the client-side RPC shape.
    pub fn request(&mut self, msg: &Message) -> Result<Message, WireError> {
        self.send(msg)?;
        self.recv()
    }

    /// Client side of the versioned handshake: sends `Hello` and
    /// validates the `HelloAck`. A version mismatch is permanent.
    pub fn client_handshake(&mut self, role: u8) -> Result<(), WireError> {
        let reply = self.request(&Message::Hello {
            version: WIRE_VERSION,
            role,
        })?;
        match reply {
            Message::HelloAck { version } if version == WIRE_VERSION => Ok(()),
            Message::HelloAck { version } => Err(WireError::permanent(format!(
                "version mismatch: peer speaks v{version}, this build speaks v{WIRE_VERSION}"
            ))),
            Message::Err { message, .. } => Err(WireError::permanent(format!(
                "handshake rejected: {message}"
            ))),
            other => Err(WireError::permanent(format!(
                "expected HelloAck, got {}",
                other.name()
            ))),
        }
    }

    /// Server side of the handshake: expects `Hello`, answers `HelloAck`
    /// (or an `Err` frame on version skew). Returns the client's role.
    pub fn server_handshake(&mut self) -> Result<u8, WireError> {
        match self.recv()? {
            Message::Hello { version, role } if version == WIRE_VERSION => {
                self.send(&Message::HelloAck {
                    version: WIRE_VERSION,
                })?;
                Ok(role)
            }
            Message::Hello { version, .. } => {
                let err = WireError::permanent(format!(
                    "version mismatch: client speaks v{version}, this build speaks v{WIRE_VERSION}"
                ));
                // Best-effort notification; the connection is done anyway.
                let _ = self.send(&Message::Err {
                    transient: false,
                    message: err.message.clone(),
                });
                Err(err)
            }
            other => Err(WireError::permanent(format!(
                "expected Hello, got {}",
                other.name()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    fn pair() -> (FrameConn, FrameConn) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = thread::spawn(move || {
            FrameConn::connect(&addr.to_string(), Duration::from_secs(5)).expect("connect")
        });
        let (server, _) = listener.accept().expect("accept");
        let server = FrameConn::new(server, Duration::from_secs(5)).expect("wrap");
        (server, client.join().expect("client thread"))
    }

    #[test]
    fn frames_round_trip_over_loopback() {
        let (mut server, mut client) = pair();
        client
            .send(&Message::Put {
                key: b"k1".to_vec(),
                value: vec![7; 1024],
            })
            .expect("send");
        match server.recv().expect("recv") {
            Message::Put { key, value } => {
                assert_eq!(key, b"k1");
                assert_eq!(value.len(), 1024);
            }
            other => panic!("unexpected {other:?}"),
        }
        server.send(&Message::Ok).expect("reply");
        assert!(matches!(client.recv().expect("ok"), Message::Ok));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let (server, mut client) = pair();
        let mut raw = server.stream;
        raw.write_all(&u32::MAX.to_le_bytes()).expect("write len");
        raw.write_all(&[0x03]).expect("write tag");
        raw.flush().expect("flush");
        let err = client.recv().expect_err("oversized frame must fail");
        assert!(!err.is_transient(), "length-cap violation is permanent");
        assert!(err.message.contains("cap"));
    }

    #[test]
    fn handshake_agrees_on_version() {
        let (mut server, mut client) = pair();
        let server_side = thread::spawn(move || server.server_handshake().expect("server side"));
        client.client_handshake(2).expect("client side");
        assert_eq!(server_side.join().expect("join"), 2);
    }

    #[test]
    fn read_times_out_instead_of_hanging() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client =
            FrameConn::connect(&addr.to_string(), Duration::from_millis(50)).expect("connect");
        let (_held_open, _) = listener.accept().expect("accept");
        let err = client.recv().expect_err("silent peer must time out");
        assert!(err.is_transient(), "timeout is retryable: {err}");
    }

    #[test]
    fn zero_timeout_is_refused() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let raw = thread::spawn(move || TcpStream::connect(addr).expect("dial"));
        let (accepted, _) = listener.accept().expect("accept");
        assert!(FrameConn::new(accepted, Duration::ZERO).is_err());
        drop(raw.join().expect("join"));
    }
}
