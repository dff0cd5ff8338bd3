//! Length-prefixed JSON framing for the compile-service wire protocol.
//!
//! One frame is a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8 JSON (rendered and parsed by [`crate::json`], so the
//! protocol layer shares the zero-dependency JSON surface with the trace
//! emitters). Framing keeps the stream self-synchronizing for well-behaved
//! peers while letting the reader reject pathological input *before*
//! buffering it: a length above the negotiated cap is refused without
//! reading the payload.
//!
//! The reader distinguishes the failure modes a server must treat
//! differently:
//!
//! - [`FrameError::Closed`] — EOF exactly at a frame boundary: the peer
//!   hung up cleanly; a session loop ends without error.
//! - [`FrameError::Truncated`] — EOF inside a header or payload: the peer
//!   died mid-frame; tear the session down, nothing after it is parseable.
//! - [`FrameError::TooLarge`] — declared length above the cap; the
//!   connection is still framed, so a structured error response is safe.
//! - [`FrameError::Parse`] — the payload was delivered whole but is not
//!   valid JSON; also safe to answer with a structured error.
//! - [`FrameError::Io`] — transport error; tear the session down.

use std::io::{Read, Write};

use crate::json::{self, Json};

/// Default payload cap: 16 MiB. Large enough for any workload source or
/// trace document in the corpus by orders of magnitude, small enough that
/// a hostile length prefix cannot balloon the daemon's memory.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// EOF at a frame boundary: a clean close, not an error.
    Closed,
    /// EOF inside a header or payload: the peer vanished mid-frame.
    Truncated,
    /// The header declared `got` bytes but the cap is `max`.
    TooLarge {
        /// Declared payload length.
        got: u32,
        /// Enforced cap.
        max: u32,
    },
    /// The payload is not valid JSON.
    Parse(String),
    /// Transport error.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated => write!(f, "connection closed mid-frame"),
            FrameError::TooLarge { got, max } => {
                write!(f, "frame of {got} bytes exceeds the {max}-byte cap")
            }
            FrameError::Parse(e) => write!(f, "frame payload is not valid JSON: {e}"),
            FrameError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl FrameError {
    /// True for the errors a still-framed connection can answer with a
    /// structured error response ([`FrameError::TooLarge`] after the
    /// oversized payload is drained is *not* recoverable — we never read
    /// it — so it is answered and then the session closes).
    pub fn is_clean_close(&self) -> bool {
        matches!(self, FrameError::Closed)
    }
}

/// Writes one frame: 4-byte big-endian length, then the compact JSON
/// rendering of `payload`. The payload is rendered behind a placeholder
/// header in one buffer, so the frame leaves in a single `write_all` and
/// the peer never wakes on a header alone.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_frame(w: &mut impl Write, payload: &Json) -> std::io::Result<()> {
    let mut frame = String::from("\0\0\0\0");
    payload.write(&mut frame);
    let mut frame = frame.into_bytes();
    let len = frame.len() as u64 - 4;
    debug_assert!(len <= u32::MAX as u64, "frame payload over 4 GiB");
    frame[..4].copy_from_slice(&(len as u32).to_be_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Reads exactly `buf.len()` bytes. `Ok(0)` means EOF before the first
/// byte; `Err(Truncated)` means EOF after at least one byte.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(0)
                } else {
                    Err(FrameError::Truncated)
                }
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(filled)
}

/// Reads one frame, enforcing `max_len` on the declared payload length
/// before any payload byte is buffered.
///
/// # Errors
///
/// See [`FrameError`] for the taxonomy.
pub fn read_frame_with_limit(r: &mut impl Read, max_len: u32) -> Result<Json, FrameError> {
    let mut header = [0u8; 4];
    if read_exact_or_eof(r, &mut header)? == 0 {
        return Err(FrameError::Closed);
    }
    let len = u32::from_be_bytes(header);
    if len > max_len {
        return Err(FrameError::TooLarge {
            got: len,
            max: max_len,
        });
    }
    let mut body = vec![0u8; len as usize];
    if read_exact_or_eof(r, &mut body)? != body.len() && !body.is_empty() {
        return Err(FrameError::Truncated);
    }
    json::parse_bytes(&body).map_err(FrameError::Parse)
}

/// [`read_frame_with_limit`] at the default [`MAX_FRAME_LEN`] cap.
///
/// # Errors
///
/// See [`FrameError`].
pub fn read_frame(r: &mut impl Read) -> Result<Json, FrameError> {
    read_frame_with_limit(r, MAX_FRAME_LEN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn round_trip(v: &Json) -> Json {
        let mut buf = Vec::new();
        write_frame(&mut buf, v).unwrap();
        read_frame(&mut Cursor::new(buf)).unwrap()
    }

    #[test]
    fn frames_round_trip() {
        let v = Json::obj(vec![
            ("cmd", Json::Str("compile".into())),
            ("id", Json::Int(7)),
            ("nested", Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        assert_eq!(round_trip(&v), v);
        // Several frames on one stream read back in order.
        let mut buf = Vec::new();
        for i in 0..3 {
            write_frame(&mut buf, &Json::Int(i)).unwrap();
        }
        let mut c = Cursor::new(buf);
        for i in 0..3 {
            assert_eq!(read_frame(&mut c).unwrap(), Json::Int(i));
        }
        assert!(matches!(read_frame(&mut c), Err(FrameError::Closed)));
    }

    #[test]
    fn eof_at_boundary_is_clean_close() {
        let err = read_frame(&mut Cursor::new(Vec::new())).unwrap_err();
        assert!(err.is_clean_close());
    }

    #[test]
    fn eof_inside_header_or_payload_is_truncated() {
        // Two of four header bytes.
        let err = read_frame(&mut Cursor::new(vec![0, 0])).unwrap_err();
        assert!(matches!(err, FrameError::Truncated));
        // Complete header, half the payload.
        let mut buf = Vec::new();
        write_frame(&mut buf, &Json::Str("hello world".into())).unwrap();
        buf.truncate(buf.len() - 5);
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, FrameError::Truncated), "{err}");
    }

    #[test]
    fn oversized_length_is_rejected_before_buffering() {
        let mut buf = (MAX_FRAME_LEN + 1).to_be_bytes().to_vec();
        buf.extend_from_slice(b"irrelevant");
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        match err {
            FrameError::TooLarge { got, max } => {
                assert_eq!(got, MAX_FRAME_LEN + 1);
                assert_eq!(max, MAX_FRAME_LEN);
            }
            other => panic!("expected TooLarge, got {other}"),
        }
        // A tighter per-call limit applies too.
        let mut small = 100u32.to_be_bytes().to_vec();
        small.extend_from_slice(&[b'x'; 100]);
        assert!(matches!(
            read_frame_with_limit(&mut Cursor::new(small), 10),
            Err(FrameError::TooLarge { got: 100, max: 10 })
        ));
    }

    #[test]
    fn invalid_json_payload_is_a_parse_error() {
        let body = b"{not json";
        let mut buf = (body.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(body);
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, FrameError::Parse(_)), "{err}");
    }

    #[test]
    fn empty_payload_parses_as_error_not_panic() {
        // A zero-length frame is delivered whole but holds no JSON value.
        let buf = 0u32.to_be_bytes().to_vec();
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, FrameError::Parse(_)));
    }
}
