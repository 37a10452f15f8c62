//! Per-connection RESP sessions.
//!
//! The server core ([`crate::Server`]) is a pure command dispatcher; this
//! module adds the per-connection byte-stream state the serving front end
//! ([`crate::reactor`]) decodes through. The robustness contract:
//!
//! * a malformed RESP frame (undecodable byte stream) gets a RESP error reply
//!   and closes **only that connection** — framing is lost, so the session
//!   cannot safely resynchronise;
//! * a well-framed but non-command value (e.g. a bare integer) gets an error
//!   reply and the session stays open — framing is intact;
//! * EOF mid-command is a clean close, not an error.

use crate::module::Reply;
use crate::resp::RespValue;
use crate::server::Server;
use bytes::BytesMut;

/// What the session wants done with its connection after consuming input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// Keep reading from the connection.
    Open,
    /// Close this connection (after flushing the returned replies).
    Close,
}

/// One client connection's incremental RESP state.
///
/// Bytes arrive in arbitrary chunks; the session buffers partial commands and
/// executes every complete one, so pipelining works for free. Replies are
/// encoded into a **reusable per-session output buffer** — one allocation's
/// capacity amortized over the connection's lifetime instead of a fresh `Vec`
/// per read plus a fresh `Bytes` per command.
#[derive(Debug, Default)]
pub struct Session {
    buf: BytesMut,
    out: Vec<u8>,
}

impl Session {
    /// Creates a session with an empty receive buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds freshly received bytes, executing every complete command against
    /// `server`. Returns the concatenated RESP replies to write back (borrowed
    /// from the session's reusable buffer — consumed before the next feed) and
    /// whether the connection must close.
    pub fn feed(&mut self, server: &mut Server, data: &[u8]) -> (&[u8], SessionStatus) {
        self.buf.extend_from_slice(data);
        self.out.clear();
        loop {
            match RespValue::decode(&mut self.buf) {
                Ok(None) => return (&self.out, SessionStatus::Open),
                Ok(Some(value)) => {
                    let reply = match value.into_command() {
                        Ok(parts) => server.execute(&parts),
                        Err(e) => Reply::Error(format!("ERR {e}")),
                    };
                    Server::encode_reply_into(&reply, &mut self.out);
                }
                Err(e) => {
                    // Byte-stream framing is lost: reply, then drop only this
                    // session. The listener and every other session live on.
                    let reply = Reply::Error(format!("ERR protocol error: {e}"));
                    Server::encode_reply_into(&reply, &mut self.out);
                    return (&self.out, SessionStatus::Close);
                }
            }
        }
    }

    /// Appends freshly received bytes without executing anything — the
    /// decode-only half of [`Session::feed`], for dispatchers (the reactor)
    /// that route commands instead of executing them inline.
    pub fn push_bytes(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Decodes the next complete RESP value buffered by
    /// [`Session::push_bytes`]. `Ok(None)` means more bytes are needed;
    /// `Err` means framing is lost and the connection must close after an
    /// error reply.
    pub fn next_value(&mut self) -> Result<Option<RespValue>, String> {
        RespValue::decode(&mut self.buf)
    }

    /// Whether an EOF now would cut a command in half (bytes are buffered but
    /// no complete value arrived). Either way the close is clean.
    pub fn eof_mid_command(&self) -> bool {
        !self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(parts: &[&str]) -> Vec<u8> {
        RespValue::command(parts).encode().to_vec()
    }

    #[test]
    fn session_executes_pipelined_commands_from_split_chunks() {
        let mut server = Server::new();
        let mut session = Session::new();
        let mut bytes = wire(&["SET", "k", "v"]);
        bytes.extend_from_slice(&wire(&["GET", "k"]));
        let (head, tail) = bytes.split_at(bytes.len() - 5);

        let (replies, status) = session.feed(&mut server, head);
        assert_eq!(status, SessionStatus::Open);
        assert_eq!(replies, b"+OK\r\n", "first command completes early");
        assert!(session.eof_mid_command(), "second command is half-buffered");

        let (replies, status) = session.feed(&mut server, tail);
        assert_eq!(status, SessionStatus::Open);
        assert_eq!(replies, b"$1\r\nv\r\n");
        assert!(!session.eof_mid_command());
    }

    #[test]
    fn malformed_frame_gets_error_reply_and_closes_only_that_session() {
        let mut server = Server::new();
        let mut session = Session::new();
        let (replies, status) = session.feed(&mut server, b"?garbage\r\n");
        assert_eq!(status, SessionStatus::Close);
        assert!(replies.starts_with(b"-ERR protocol error"));

        // The server itself is unharmed: a fresh session still works.
        let mut session2 = Session::new();
        let (replies, status) = session2.feed(&mut server, &wire(&["PING"]));
        assert_eq!(status, SessionStatus::Open);
        assert_eq!(replies, b"+PONG\r\n");
    }

    #[test]
    fn well_framed_non_command_keeps_the_session_open() {
        let mut server = Server::new();
        let mut session = Session::new();
        let (replies, status) = session.feed(&mut server, b":42\r\n");
        assert_eq!(status, SessionStatus::Open, "framing intact: stay open");
        assert!(replies.starts_with(b"-ERR"));
        let (replies, _) = session.feed(&mut server, &wire(&["PING"]));
        assert_eq!(replies, b"+PONG\r\n");
    }

    #[test]
    fn eof_mid_command_is_reported() {
        let mut server = Server::new();
        let mut session = Session::new();
        let bytes = wire(&["SET", "k", "v"]);
        let (replies, status) = session.feed(&mut server, &bytes[..bytes.len() - 3]);
        assert_eq!(status, SessionStatus::Open);
        assert!(replies.is_empty());
        assert!(session.eof_mid_command());
    }
}
