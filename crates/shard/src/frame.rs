//! Length-prefixed, CRC-framed message transport for the worker pipes.
//!
//! Every message between the supervisor and a shard worker travels as one
//! frame over the child's stdin/stdout pipe:
//!
//! ```text
//! magic  u32 LE  = 0x4E46_5331  ("NFS1")
//! len    u32 LE  payload byte count, <= MAX_FRAME
//! crc    u32 LE  CRC-32 (IEEE 802.3, reflected) of the payload
//! payload [len bytes]
//! ```
//!
//! The frame layer is deliberately paranoid: a worker that dies mid-write,
//! a pipe that delivers garbage, or a bit flip in transit must surface as a
//! typed [`FrameError`] — never a panic, never a silently corrupted
//! message. The CRC is the cross-process twin of the checkpoint store's
//! payload checksum (DESIGN.md §9): pipes are reliable in theory, but the
//! supervisor treats every inbound byte as attacker-grade untrusted input
//! because a half-dead worker can emit anything.

use nofis_prob::checksum::crc32;
use std::io::{Read, Write};

/// Frame magic: "NFS1" as a little-endian u32. A mismatch means the stream
/// is not positioned at a frame boundary (garbage output, desync) and the
/// connection is unrecoverable.
pub const MAGIC: u32 = 0x4E46_5331;

/// Hard cap on a frame payload (16 MiB). A garbage length word must not be
/// able to make the reader allocate unbounded memory.
pub const MAX_FRAME: usize = 16 << 20;

/// Typed failure of the frame transport. Every variant maps to a distinct
/// supervisor reaction, but all of them condemn the worker connection.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying pipe failed mid-header or mid-payload.
    Io(std::io::Error),
    /// The stream ended cleanly before a full frame (worker exit/death).
    Eof,
    /// Header bytes arrived but the magic word is wrong — the stream is
    /// desynchronized or the peer wrote garbage.
    BadMagic(u32),
    /// The length word exceeds [`MAX_FRAME`].
    Oversized(usize),
    /// The stream ended inside a frame (death mid-write).
    Truncated,
    /// The payload arrived but its CRC-32 does not match the header.
    CrcMismatch {
        /// Checksum the header promised.
        expected: u32,
        /// Checksum of the bytes actually received.
        actual: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame transport error: {e}"),
            FrameError::Eof => write!(f, "stream closed before a frame header"),
            FrameError::BadMagic(m) => {
                write!(f, "bad frame magic {m:#010x} (expected {MAGIC:#010x})")
            }
            FrameError::Oversized(n) => {
                write!(f, "frame payload of {n} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::Truncated => write!(f, "stream closed inside a frame"),
            FrameError::CrcMismatch { expected, actual } => write!(
                f,
                "frame CRC mismatch: header promised {expected:#010x}, payload hashes to {actual:#010x}"
            ),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Writes one frame (header + payload). Does not flush — callers flush
/// after the last frame of a logical message exchange.
///
/// # Errors
///
/// [`FrameError::Oversized`] when the payload exceeds [`MAX_FRAME`];
/// [`FrameError::Io`] when the pipe fails.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME {
        return Err(FrameError::Oversized(payload.len()));
    }
    let mut header = [0u8; 12];
    header[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4..8].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[8..12].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&header).map_err(FrameError::Io)?;
    w.write_all(payload).map_err(FrameError::Io)?;
    Ok(())
}

/// Reads one frame's payload into `buf` (cleared and resized).
///
/// # Errors
///
/// [`FrameError::Eof`] when the stream ends cleanly at a frame boundary
/// (the peer shut down); every other variant means the connection is
/// corrupt and must be condemned.
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<(), FrameError> {
    let mut header = [0u8; 12];
    read_exact_or(r, &mut header, FrameError::Eof)?;
    let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::Oversized(len));
    }
    let expected = u32::from_le_bytes(header[8..12].try_into().unwrap());
    buf.clear();
    buf.resize(len, 0);
    read_exact_or(r, buf, FrameError::Truncated)?;
    let actual = crc32(buf);
    if actual != expected {
        return Err(FrameError::CrcMismatch { expected, actual });
    }
    Ok(())
}

/// `read_exact` that distinguishes "stream ended before the first byte"
/// (mapped to `on_eof`, except mid-buffer which is always [`Truncated`])
/// from genuine I/O failure.
fn read_exact_or(r: &mut impl Read, buf: &mut [u8], on_eof: FrameError) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 {
                    on_eof
                } else {
                    FrameError::Truncated
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_a_frame() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello shard").unwrap();
        let mut buf = Vec::new();
        read_frame(&mut &wire[..], &mut buf).unwrap();
        assert_eq!(buf, b"hello shard");
    }

    #[test]
    fn empty_payload_roundtrips() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"").unwrap();
        let mut buf = vec![1, 2, 3];
        read_frame(&mut &wire[..], &mut buf).unwrap();
        assert!(buf.is_empty());
    }

    #[test]
    fn clean_eof_is_typed() {
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut &[][..], &mut buf),
            Err(FrameError::Eof)
        ));
    }

    #[test]
    fn death_mid_frame_is_truncated() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"some payload").unwrap();
        for cut in 1..wire.len() {
            let mut buf = Vec::new();
            let err = read_frame(&mut &wire[..cut], &mut buf).unwrap_err();
            assert!(
                matches!(err, FrameError::Truncated),
                "cut at {cut}: expected Truncated, got {err}"
            );
        }
    }

    #[test]
    fn corrupt_payload_is_crc_mismatch() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload under test").unwrap();
        let last = wire.len() - 1;
        wire[last] ^= 0x40;
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut &wire[..], &mut buf),
            Err(FrameError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn garbage_magic_is_rejected() {
        let wire = [0xAAu8; 64];
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut &wire[..], &mut buf),
            Err(FrameError::BadMagic(_))
        ));
    }

    #[test]
    fn oversized_length_word_does_not_allocate() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC.to_le_bytes());
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut &wire[..], &mut buf),
            Err(FrameError::Oversized(_))
        ));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
