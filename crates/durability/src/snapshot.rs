//! Point-in-time snapshots: one container of checksummed sections for every
//! durable state.
//!
//! ```text
//! [magic "CKGRSNP1"][section_count: u32 LE][crc32(section_count): u32 LE]
//! [section frame]*                     -- one checksummed frame per section
//! ```
//!
//! The container treats sections as opaque; the state encodes and decodes
//! them. A graph engine writes one section per shard, each `varint
//! record_count` followed by records `varint source, varint target, varint
//! weight, varint multiplicity` ([`encode_records`]) — so a `Sharded<G>`
//! encodes them in parallel (`par_map_shards`) and a serial graph writes
//! exactly one. The kvstore writes one section holding its RDB image. The
//! file is committed with the temp-file + atomic-rename dance; the reader is
//! always strict — a snapshot that fails any checksum, or whose sections the
//! state rejects, is rejected wholesale and the store falls back to an older
//! generation (or a full AOF replay).

use graph_api::EdgeRecord;

use crate::crc::crc32;
use crate::frame::{
    check_header, encode_frame, scan_frames, HeaderState, RecoveryMode, SNAPSHOT_MAGIC,
};
use crate::io::{DurabilityError, DurableFile, Result, Vfs};
use crate::oplog::{read_varint, write_varint};

/// Encodes one shard's records as a section payload (pre-framing).
pub fn encode_records(records: &[EdgeRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + records.len() * 6);
    write_varint(&mut out, records.len() as u64);
    for r in records {
        write_varint(&mut out, r.source);
        write_varint(&mut out, r.target);
        write_varint(&mut out, r.weight);
        write_varint(&mut out, u64::from(r.multiplicity));
    }
    out
}

/// Decodes a section payload back into records. `None` on malformed bytes.
pub fn decode_records(payload: &[u8]) -> Option<Vec<EdgeRecord>> {
    let mut pos = 0usize;
    let count = usize::try_from(read_varint(payload, &mut pos)?).ok()?;
    let mut out = Vec::with_capacity(count.min(payload.len()));
    for _ in 0..count {
        let source = read_varint(payload, &mut pos)?;
        let target = read_varint(payload, &mut pos)?;
        let weight = read_varint(payload, &mut pos)?;
        let multiplicity = u32::try_from(read_varint(payload, &mut pos)?).ok()?;
        out.push(EdgeRecord {
            source,
            target,
            weight,
            multiplicity,
        });
    }
    (pos == payload.len()).then_some(out)
}

/// Assembles the full snapshot file image from encoded section payloads.
pub fn encode_snapshot(sections: &[Vec<u8>]) -> Vec<u8> {
    let body: usize = sections.iter().map(|s| s.len() + 8).sum();
    let mut out = Vec::with_capacity(16 + body);
    out.extend_from_slice(SNAPSHOT_MAGIC);
    let count = (sections.len() as u32).to_le_bytes();
    out.extend_from_slice(&count);
    out.extend_from_slice(&crc32(&count).to_le_bytes());
    for section in sections {
        encode_frame(section, &mut out);
    }
    out
}

/// Writes `sections` to `path` via `path_tmp` + fsync + atomic rename.
pub fn write_snapshot<V: Vfs>(
    vfs: &V,
    path: &str,
    tmp_path: &str,
    sections: &[Vec<u8>],
) -> Result<u64> {
    let image = encode_snapshot(sections);
    let mut file = vfs.create(tmp_path)?;
    file.write_all(&image)?;
    file.sync()?;
    drop(file);
    vfs.rename(tmp_path, path)?;
    Ok(image.len() as u64)
}

/// Reads and validates the snapshot container at `path`, returning each
/// section payload. Any corruption — header, count checksum, section
/// checksum, section count — is a typed error; the caller falls back to an
/// older generation. Decoding the payloads is the state's job
/// ([`crate::DurableState::load_sections`]).
pub fn read_snapshot<V: Vfs>(vfs: &V, path: &str) -> Result<Vec<Vec<u8>>> {
    let bytes = vfs.read(path)?;
    let corrupt = |offset: u64, detail: &str| DurabilityError::Corrupt {
        path: path.to_string(),
        offset,
        detail: detail.to_string(),
    };
    match check_header(&bytes, SNAPSHOT_MAGIC, RecoveryMode::Strict, path)? {
        HeaderState::Valid => {}
        HeaderState::Empty | HeaderState::TornHeader => {
            return Err(corrupt(0, "empty snapshot file"));
        }
    }
    if bytes.len() < 16 {
        return Err(corrupt(8, "truncated section header"));
    }
    let count_bytes: [u8; 4] = bytes[8..12].try_into().expect("4 bytes");
    let stored_crc = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    if crc32(&count_bytes) != stored_crc {
        return Err(corrupt(8, "section-count checksum mismatch"));
    }
    let section_count = u32::from_le_bytes(count_bytes) as usize;

    let mut sections = Vec::with_capacity(section_count);
    scan_frames(&bytes, 16, RecoveryMode::Strict, path, |payload| {
        sections.push(payload.to_vec())
    })?;
    if sections.len() != section_count {
        return Err(corrupt(
            16,
            &format!(
                "expected {section_count} sections, found {}",
                sections.len()
            ),
        ));
    }
    Ok(sections)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimVfs;

    fn records(n: u64) -> Vec<EdgeRecord> {
        (0..n)
            .map(|i| EdgeRecord {
                source: i * 3,
                target: i * 7 + 1,
                weight: i + 1,
                multiplicity: (i % 4 + 1) as u32,
            })
            .collect()
    }

    #[test]
    fn sections_round_trip() {
        let a = records(100);
        let b = records(0);
        let c = records(17);
        let sections = vec![encode_records(&a), encode_records(&b), encode_records(&c)];
        let vfs = SimVfs::new();
        let bytes = write_snapshot(&vfs, "snap", "snap.tmp", &sections).unwrap();
        assert!(bytes > 0);
        assert!(!vfs.exists("snap.tmp"));
        let back = read_snapshot(&vfs, "snap").unwrap();
        assert_eq!(back, sections);
        let decoded: Vec<_> = back.iter().map(|s| decode_records(s).unwrap()).collect();
        assert_eq!(decoded, vec![a, b, c]);
    }

    #[test]
    fn any_corrupt_byte_rejects_the_snapshot() {
        let sections = vec![encode_records(&records(50))];
        let vfs = SimVfs::new();
        write_snapshot(&vfs, "snap", "snap.tmp", &sections).unwrap();
        let len = vfs.len("snap").unwrap() as usize;
        // Flip every byte position in turn: the reader must reject each
        // mutant (bit flips never silently pass).
        for offset in 0..len {
            let vfs2 = SimVfs::new();
            write_snapshot(&vfs2, "snap", "snap.tmp", &sections).unwrap();
            vfs2.corrupt_byte("snap", offset);
            assert!(
                read_snapshot(&vfs2, "snap").is_err(),
                "flip at {offset} was accepted"
            );
        }
    }

    #[test]
    fn torn_snapshot_writes_are_rejected() {
        let sections = vec![encode_records(&records(30)), encode_records(&records(5))];
        let vfs = SimVfs::new();
        write_snapshot(&vfs, "snap", "snap.tmp", &sections).unwrap();
        let full = vfs.file_bytes("snap").unwrap();
        for cut in 0..full.len() {
            let vfs2 = SimVfs::new();
            vfs2.set_file("snap", full[..cut].to_vec());
            assert!(
                read_snapshot(&vfs2, "snap").is_err(),
                "cut at {cut} was accepted"
            );
        }
    }

    #[test]
    fn missing_file_is_a_typed_error() {
        let vfs = SimVfs::new();
        assert!(matches!(
            read_snapshot(&vfs, "nope").unwrap_err(),
            DurabilityError::Io { .. }
        ));
    }
}
