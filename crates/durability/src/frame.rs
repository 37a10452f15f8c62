//! The batch frame layer shared by the AOF and the snapshot format.
//!
//! A log file is an 8-byte magic header followed by self-delimiting frames:
//!
//! ```text
//! [len: u32 LE][crc32(payload): u32 LE][payload: len bytes]
//! ```
//!
//! Frames are opaque here — the op log packs graph ops into them, the kvstore
//! packs commands, the snapshot packs per-shard record sections. The scanner
//! walks frames front-to-back and classifies the first invalid position: in
//! [`RecoveryMode::TolerateTornTail`] (the default) everything from a torn or
//! corrupt frame onward is dropped and the caller truncates the file at the
//! last valid frame; [`RecoveryMode::Strict`] turns the same positions into
//! [`DurabilityError::Corrupt`].

use crate::crc::crc32;
use crate::io::{DurabilityError, Result};

/// Magic header of a graph op log.
pub const AOF_MAGIC: &[u8; 8] = b"CKGRAOF1";
/// Magic header of a snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"CKGRSNP1";

/// Frames above this payload size are rejected as corruption — a garbage
/// length field must not trigger a multi-gigabyte allocation.
pub const MAX_FRAME_LEN: u32 = 1 << 28;

/// Per-frame overhead: length + checksum.
pub const FRAME_HEADER_LEN: usize = 8;

/// How replay treats an invalid position in the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryMode {
    /// Accept every valid leading frame and drop the torn/corrupt tail
    /// (truncate-at-last-valid-frame). The default: a crash mid-append leaves
    /// exactly this shape.
    #[default]
    TolerateTornTail,
    /// Any invalid byte is an error — for operators who prefer to stop and
    /// inspect rather than silently drop a tail.
    Strict,
}

/// Appends one framed `payload` to `out`.
pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) {
    debug_assert!(payload.len() <= MAX_FRAME_LEN as usize);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// What a frame scan established about the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Number of valid frames visited.
    pub frames: u64,
    /// Absolute offset just past the last valid frame. The file is truncated
    /// here before appending resumes.
    pub valid_len: u64,
    /// Bytes dropped after `valid_len` (0 when the file ends cleanly).
    pub dropped_bytes: u64,
}

/// Result of validating a file's magic header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderState {
    /// Zero-length file: a log that was never started.
    Empty,
    /// Magic matches; frames begin at offset 8.
    Valid,
    /// The file holds a strict prefix of the magic — a crash tore the very
    /// first write. Only reported in [`RecoveryMode::TolerateTornTail`];
    /// recovery treats the log as empty.
    TornHeader,
}

/// Validates the magic header of `bytes`.
pub fn check_header(
    bytes: &[u8],
    magic: &[u8; 8],
    mode: RecoveryMode,
    path: &str,
) -> Result<HeaderState> {
    if bytes.is_empty() {
        return Ok(HeaderState::Empty);
    }
    if bytes.len() < magic.len() {
        return if bytes == &magic[..bytes.len()] && mode == RecoveryMode::TolerateTornTail {
            Ok(HeaderState::TornHeader)
        } else {
            Err(DurabilityError::Corrupt {
                path: path.to_string(),
                offset: 0,
                detail: "truncated magic header".to_string(),
            })
        };
    }
    if &bytes[..magic.len()] != magic {
        return Err(DurabilityError::Corrupt {
            path: path.to_string(),
            offset: 0,
            detail: format!(
                "bad magic: expected {:02x?}, found {:02x?}",
                magic,
                &bytes[..magic.len()]
            ),
        });
    }
    Ok(HeaderState::Valid)
}

/// Scans frames in `bytes` starting at absolute offset `start`, calling
/// `visit` with each valid payload in order. See [`RecoveryMode`] for how the
/// first invalid position is treated.
pub fn scan_frames(
    bytes: &[u8],
    start: u64,
    mode: RecoveryMode,
    path: &str,
    mut visit: impl FnMut(&[u8]),
) -> Result<ScanOutcome> {
    let mut pos = start as usize;
    let mut frames = 0u64;
    let fail = |frames: u64, pos: usize, detail: String| -> Result<ScanOutcome> {
        match mode {
            RecoveryMode::TolerateTornTail => Ok(ScanOutcome {
                frames,
                valid_len: pos as u64,
                dropped_bytes: (bytes.len() - pos) as u64,
            }),
            RecoveryMode::Strict => Err(DurabilityError::Corrupt {
                path: path.to_string(),
                offset: pos as u64,
                detail,
            }),
        }
    };
    if pos > bytes.len() {
        return Err(DurabilityError::Corrupt {
            path: path.to_string(),
            offset: start,
            detail: format!("scan start {start} beyond file end {}", bytes.len()),
        });
    }
    loop {
        if pos == bytes.len() {
            return Ok(ScanOutcome {
                frames,
                valid_len: pos as u64,
                dropped_bytes: 0,
            });
        }
        if bytes.len() - pos < FRAME_HEADER_LEN {
            return fail(frames, pos, "torn frame header".to_string());
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
        let expect_crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len > MAX_FRAME_LEN {
            return fail(frames, pos, format!("frame length {len} exceeds limit"));
        }
        let body_start = pos + FRAME_HEADER_LEN;
        let body_end = body_start + len as usize;
        if body_end > bytes.len() {
            return fail(frames, pos, "torn frame body".to_string());
        }
        let payload = &bytes[body_start..body_end];
        if crc32(payload) != expect_crc {
            return fail(frames, pos, "frame checksum mismatch".to_string());
        }
        visit(payload);
        frames += 1;
        pos = body_end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = AOF_MAGIC.to_vec();
        for p in payloads {
            encode_frame(p, &mut out);
        }
        out
    }

    fn collect(bytes: &[u8], mode: RecoveryMode) -> (Vec<Vec<u8>>, ScanOutcome) {
        let mut seen = Vec::new();
        let outcome = scan_frames(bytes, 8, mode, "test", |p| seen.push(p.to_vec())).unwrap();
        (seen, outcome)
    }

    #[test]
    fn clean_log_round_trips() {
        let log = log_with(&[b"one", b"", b"three"]);
        assert_eq!(
            check_header(&log, AOF_MAGIC, RecoveryMode::Strict, "t").unwrap(),
            HeaderState::Valid
        );
        let (seen, outcome) = collect(&log, RecoveryMode::Strict);
        assert_eq!(seen, vec![b"one".to_vec(), b"".to_vec(), b"three".to_vec()]);
        assert_eq!(outcome.frames, 3);
        assert_eq!(outcome.valid_len, log.len() as u64);
        assert_eq!(outcome.dropped_bytes, 0);
    }

    #[test]
    fn torn_tail_is_truncated_at_every_cut_point() {
        let log = log_with(&[b"alpha", b"beta"]);
        let first_end = 8 + FRAME_HEADER_LEN + 5;
        // Cut the log at every byte: the scan must keep exactly the frames
        // wholly before the cut and report the rest dropped.
        for cut in 8..log.len() {
            let (seen, outcome) = collect(&log[..cut], RecoveryMode::TolerateTornTail);
            let expect_frames = usize::from(cut >= first_end) + usize::from(cut >= log.len());
            assert_eq!(seen.len(), expect_frames, "cut at {cut}");
            let expect_valid = if cut >= first_end { first_end } else { 8 };
            assert_eq!(outcome.valid_len as usize, expect_valid, "cut at {cut}");
            assert_eq!(
                outcome.dropped_bytes as usize,
                cut - expect_valid,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn strict_mode_errors_on_torn_tail() {
        let log = log_with(&[b"alpha"]);
        let torn = &log[..log.len() - 1];
        let err = scan_frames(torn, 8, RecoveryMode::Strict, "t", |_| {}).unwrap_err();
        assert!(matches!(err, DurabilityError::Corrupt { .. }));
    }

    #[test]
    fn checksum_mismatch_stops_the_scan() {
        let mut log = log_with(&[b"alpha", b"beta"]);
        let flip = 8 + FRAME_HEADER_LEN; // first payload byte
        log[flip] ^= 0xFF;
        let (seen, outcome) = collect(&log, RecoveryMode::TolerateTornTail);
        assert!(seen.is_empty());
        assert_eq!(outcome.valid_len, 8);
        assert!(
            scan_frames(&log, 8, RecoveryMode::Strict, "t", |_| {}).is_err(),
            "strict mode must error"
        );
    }

    #[test]
    fn garbage_length_is_rejected_not_allocated() {
        let mut log = AOF_MAGIC.to_vec();
        log.extend_from_slice(&u32::MAX.to_le_bytes());
        log.extend_from_slice(&[0u8; 4]);
        let (seen, outcome) = collect(&log, RecoveryMode::TolerateTornTail);
        assert!(seen.is_empty());
        assert_eq!(outcome.valid_len, 8);
    }

    #[test]
    fn header_states() {
        assert_eq!(
            check_header(b"", AOF_MAGIC, RecoveryMode::Strict, "t").unwrap(),
            HeaderState::Empty
        );
        assert_eq!(
            check_header(
                &AOF_MAGIC[..3],
                AOF_MAGIC,
                RecoveryMode::TolerateTornTail,
                "t"
            )
            .unwrap(),
            HeaderState::TornHeader
        );
        assert!(check_header(&AOF_MAGIC[..3], AOF_MAGIC, RecoveryMode::Strict, "t").is_err());
        assert!(check_header(b"NOTMAGIC", AOF_MAGIC, RecoveryMode::TolerateTornTail, "t").is_err());
        assert!(check_header(SNAPSHOT_MAGIC, AOF_MAGIC, RecoveryMode::Strict, "t").is_err());
    }

    #[test]
    fn scan_from_mid_file_frame_boundary_resumes_cleanly() {
        let log = log_with(&[b"alpha", b"beta", b"gamma"]);
        let second_start = 8 + FRAME_HEADER_LEN + 5;
        let mut seen = Vec::new();
        let outcome = scan_frames(&log, second_start as u64, RecoveryMode::Strict, "t", |p| {
            seen.push(p.to_vec())
        })
        .unwrap();
        assert_eq!(seen, vec![b"beta".to_vec(), b"gamma".to_vec()]);
        assert_eq!(outcome.frames, 2);
    }

    #[test]
    fn scan_start_beyond_end_is_an_error_in_both_modes() {
        let log = log_with(&[b"alpha"]);
        for mode in [RecoveryMode::TolerateTornTail, RecoveryMode::Strict] {
            assert!(scan_frames(&log, log.len() as u64 + 1, mode, "t", |_| {}).is_err());
        }
    }
}
