//! Checkpoint snapshots: a full logical image of the table, written
//! atomically so a crash leaves either the previous checkpoint or the new
//! one — never a torn file.
//!
//! A snapshot holds the *logical* record set (one entry per inserted
//! record, in insertion order), not the physical slice bytes: replaying
//! the records through an empty table rebuilds occupancy, auxiliary
//! fields, and overflow state with the table's own placement code. The
//! file is named `snap-<next_segment:08>.img`; WAL segments with index ≥
//! `next_segment` apply on top of it, older segments are garbage.
//!
//! Write protocol (the fsync points, see DESIGN.md sec 16), shared with
//! the table superblock through `storage::replace_file`: write to `*.tmp`,
//! `fsync` the file, rename over the final name, then `fsync` the
//! directory so the rename itself survives.

use std::path::{Path, PathBuf};

use super::{
    corrupt, crc32, dur_err, io_err, put_u128, put_u32, put_u64, replace_file, ByteReader,
    TableSpec, FORMAT_VERSION,
};
use crate::error::{DurabilityErrorKind, Result};
use crate::key::TernaryKey;
use crate::layout::Record;

const SNAPSHOT_MAGIC: &[u8; 8] = b"CARAMSNP";
const FLAG_FULL_SCAN: u8 = 1;
const FLAG_SORTED_SEEN: u8 = 1 << 1;

/// A checkpoint image: everything recovery needs besides the WAL tail.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// WAL segments with index ≥ this apply on top of the snapshot.
    pub next_segment: u64,
    /// Total records logged before the snapshot (monotone across the
    /// table's lifetime; informational).
    pub ops_logged: u64,
    /// Whether the table had entered full-scan mode (a delete happened).
    pub full_scan: bool,
    /// Whether any `insert_sorted` was logged — if so, physical placement
    /// was priority-significant and the restored table must full-scan.
    pub sorted_seen: bool,
    /// The spec the table was running under at checkpoint time (may
    /// differ from the creation spec after a reconfigure).
    pub spec: TableSpec,
    /// The logical record set in insertion order.
    pub records: Vec<Record>,
}

/// The file name of the snapshot covering segments below `next_segment`.
#[must_use]
pub fn snapshot_file_name(next_segment: u64) -> String {
    format!("snap-{next_segment:08}.img")
}

/// Parses `snap-<next_segment:08>.img`.
#[must_use]
pub fn parse_snapshot_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("snap-")?.strip_suffix(".img")?;
    if digits.len() != 8 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

impl Snapshot {
    fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(64 + self.records.len() * 44);
        put_u64(&mut body, self.next_segment);
        put_u64(&mut body, self.ops_logged);
        let mut flags = 0u8;
        if self.full_scan {
            flags |= FLAG_FULL_SCAN;
        }
        if self.sorted_seen {
            flags |= FLAG_SORTED_SEEN;
        }
        body.push(flags);
        let spec = self.spec.encode();
        #[allow(clippy::cast_possible_truncation)] // specs are tiny
        put_u32(&mut body, spec.len() as u32);
        body.extend_from_slice(&spec);
        put_u64(&mut body, self.records.len() as u64);
        for rec in &self.records {
            put_u32(&mut body, rec.key.bits());
            put_u128(&mut body, rec.key.value());
            put_u128(&mut body, rec.key.dont_care());
            put_u64(&mut body, rec.data);
        }
        let mut out = Vec::with_capacity(16 + body.len());
        out.extend_from_slice(SNAPSHOT_MAGIC);
        put_u32(&mut out, FORMAT_VERSION);
        put_u32(&mut out, crc32(&body));
        out.extend_from_slice(&body);
        out
    }

    fn decode(bytes: &[u8], name: &str) -> Result<Self> {
        if bytes.len() < 16 || &bytes[..8] != SNAPSHOT_MAGIC {
            return Err(corrupt(format!("{name}: bad snapshot magic")));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(dur_err(
                DurabilityErrorKind::FormatVersion,
                format!("{name}: snapshot version {version}, this build reads {FORMAT_VERSION}"),
            ));
        }
        let stored_crc = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        let body = &bytes[16..];
        if crc32(body) != stored_crc {
            return Err(corrupt(format!("{name}: snapshot checksum mismatch")));
        }
        let mut r = ByteReader::new(body, "snapshot");
        let next_segment = r.u64()?;
        let ops_logged = r.u64()?;
        let flags = r.u8()?;
        if flags & !(FLAG_FULL_SCAN | FLAG_SORTED_SEEN) != 0 {
            return Err(corrupt(format!(
                "{name}: unknown snapshot flags {flags:#x}"
            )));
        }
        let spec_len = r.u32()? as usize;
        let spec = TableSpec::decode(r.bytes(spec_len)?)?;
        let count = r.u64()?;
        let count = usize::try_from(count)
            .map_err(|_| corrupt(format!("{name}: snapshot claims {count} records")))?;
        if count.saturating_mul(44) > body.len() {
            return Err(corrupt(format!("{name}: snapshot claims {count} records")));
        }
        let mut records = Vec::with_capacity(count);
        for _ in 0..count {
            let bits = r.u32()?;
            let value = r.u128()?;
            let dont_care = r.u128()?;
            let data = r.u64()?;
            if bits == 0 || bits > 128 {
                return Err(corrupt(format!("{name}: record key width {bits}")));
            }
            let mask = if bits == 128 {
                u128::MAX
            } else {
                (1u128 << bits) - 1
            };
            if value & !mask != 0 || dont_care & !mask != 0 {
                return Err(corrupt(format!("{name}: record key overflows its width")));
            }
            records.push(Record::new(
                TernaryKey::ternary(value, dont_care, bits),
                data,
            ));
        }
        r.finish()?;
        Ok(Self {
            next_segment,
            ops_logged,
            full_scan: flags & FLAG_FULL_SCAN != 0,
            sorted_seen: flags & FLAG_SORTED_SEEN != 0,
            spec,
            records,
        })
    }

    /// Writes the snapshot into `dir` atomically through
    /// `storage::replace_file` (tmp + fsync + rename + directory fsync)
    /// and returns the final path.
    ///
    /// # Errors
    ///
    /// [`DurabilityErrorKind::Io`] on any file operation failure.
    pub fn write(&self, dir: &Path) -> Result<PathBuf> {
        replace_file(dir, &snapshot_file_name(self.next_segment), &self.encode())
    }

    /// Reads and validates the snapshot at `path`.
    ///
    /// # Errors
    ///
    /// [`DurabilityErrorKind::Io`] on read failure, `Corrupt` /
    /// `FormatVersion` on damage.
    pub fn read(path: &Path) -> Result<Self> {
        let bytes = std::fs::read(path).map_err(|e| io_err("read", path, &e))?;
        Self::decode(&bytes, &path.display().to_string())
    }
}

/// Lists the snapshots in `dir`, sorted by `next_segment`. `*.tmp`
/// leftovers from a crashed checkpoint are ignored (and are safe to
/// delete).
///
/// # Errors
///
/// [`DurabilityErrorKind::Io`] when the directory cannot be read.
pub fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| io_err("read dir", dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read dir entry in", dir, &e))?;
        if let Some(idx) = entry.file_name().to_str().and_then(parse_snapshot_name) {
            out.push((idx, entry.path()));
        }
    }
    out.sort_unstable_by_key(|(idx, _)| *idx);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::RecordLayout;
    use crate::probe::ProbePolicy;
    use crate::storage::IndexSpec;
    use crate::table::{Arrangement, OverflowPolicy, TableConfig};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("ca_ram_snap_{tag}_{}_{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn sample() -> Snapshot {
        Snapshot {
            next_segment: 3,
            ops_logged: 41,
            full_scan: true,
            sorted_seen: false,
            spec: TableSpec {
                config: TableConfig {
                    rows_log2: 4,
                    row_bits: 512,
                    layout: RecordLayout::new(32, true, 32),
                    arrangement: Arrangement::Horizontal(1),
                    probe: ProbePolicy::Linear,
                    overflow: OverflowPolicy::Probe { max_steps: 4 },
                },
                index: IndexSpec::RangeSelect { low: 28, count: 4 },
            },
            records: vec![
                Record::new(TernaryKey::binary(0xCAFE, 32), 1),
                Record::new(TernaryKey::ternary(0xAB00, 0xFF, 32), 2),
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let dir = temp_dir("roundtrip");
        let snap = sample();
        let path = snap.write(&dir).expect("write");
        assert_eq!(
            path.file_name().unwrap().to_str(),
            Some("snap-00000003.img")
        );
        let back = Snapshot::read(&path).expect("read");
        assert_eq!(back.next_segment, snap.next_segment);
        assert_eq!(back.ops_logged, snap.ops_logged);
        assert_eq!(back.full_scan, snap.full_scan);
        assert_eq!(back.sorted_seen, snap.sorted_seen);
        assert_eq!(back.records, snap.records);
        assert_eq!(back.spec.encode(), snap.spec.encode());
        let listed = list_snapshots(&dir).expect("list");
        assert_eq!(listed, vec![(3, path)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damage_is_typed_never_a_panic() {
        let dir = temp_dir("damage");
        let snap = sample();
        let path = snap.write(&dir).expect("write");
        let good = std::fs::read(&path).expect("read");
        // Every truncation fails cleanly.
        for cut in 0..good.len() {
            assert!(Snapshot::decode(&good[..cut], "t").is_err(), "cut {cut}");
        }
        // Every single-byte flip fails cleanly (the CRC covers the body,
        // the magic/version checks cover the head).
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert!(Snapshot::decode(&bad, "t").is_err(), "flip at {i}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tmp_files_are_ignored() {
        let dir = temp_dir("tmp");
        sample().write(&dir).expect("write");
        std::fs::write(dir.join("snap-00000009.img.tmp"), b"junk").expect("junk");
        let listed = list_snapshots(&dir).expect("list");
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].0, 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
