//! Durability subsystem: storage backends, write-ahead logging, snapshots,
//! and crash recovery (ROADMAP item 3).
//!
//! The paper's slice organization (Sec. 3.2) makes a slice the natural
//! persistence unit: a contiguous bit-packed array with fixed geometry.
//! This module layers durability on top of that observation:
//!
//! * [`StorageBackend`] — where a slice's words live: anonymous heap memory
//!   (today's behavior, zero cost on the hot path) or an mmap'd,
//!   page-aligned file with a checksummed superblock and explicit
//!   flush/sync (the `storage` cargo feature; raw Linux syscalls on
//!   `x86_64`/`aarch64`, a buffered-file region elsewhere).
//! * [`wal`] — an append-only segment writer with length-prefixed,
//!   CRC-framed records for every mutation, group-commit batching,
//!   segment rotation, and configurable fsync policy.
//! * [`snapshot`] — checkpoint images written tmp+rename with file and
//!   directory fsync, so a crash leaves either the old or the new
//!   checkpoint, never a torn one.
//! * [`DurableTable`] — a [`crate::table::CaRamTable`] wrapper that logs
//!   before acknowledging, checkpoints by snapshot+truncate, and recovers
//!   by loading the latest valid snapshot and replaying the WAL tail,
//!   tolerating a torn final record.
//! * [`crash`] — the verification harness: cut the log at every byte or
//!   record boundary mid-stream, recover, and diff the recovered table
//!   against the serially-replayed reference model.
//!
//! Formats are versioned and little-endian throughout; every frame that a
//! crash could tear carries a CRC-32 so recovery can tell "torn tail"
//! (expected, tolerated) from "corruption" (a typed error, never a panic).

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::error::{CaRamError, DurabilityErrorKind, Result};
use crate::index::{BitSelect, DjbHash, IndexGenerator, RangeSelect, XorFold};
use crate::layout::RecordLayout;
use crate::probe::ProbePolicy;
use crate::table::{Arrangement, CaRamTable, OverflowPolicy, TableConfig};

pub mod crash;
pub mod durable;
#[cfg(feature = "storage")]
pub mod mapped;
pub mod snapshot;
pub mod wal;

pub use crash::{crash_sweep, CrashSweepOptions, CrashSweepReport, CutGranularity};
pub use durable::{DurableOptions, DurableTable, TempDurableTable};
pub use snapshot::Snapshot;
pub use wal::{SyncPolicy, WalRecord, WalWriter};

/// Where a bit-packed array's words live.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StorageBackend {
    /// Anonymous heap memory — today's behavior, zero cost.
    Heap,
    /// An mmap'd, page-aligned file at the given path, with a checksummed
    /// superblock recording the array geometry. Requires the `storage`
    /// cargo feature; without it, constructors return a typed
    /// [`DurabilityErrorKind::Unsupported`] error.
    File {
        /// Backing file path (created if absent, validated if present).
        path: PathBuf,
    },
}

impl StorageBackend {
    /// Shorthand for the file-backed variant.
    #[must_use]
    pub fn file(path: impl Into<PathBuf>) -> Self {
        StorageBackend::File { path: path.into() }
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320)
// ---------------------------------------------------------------------------

const fn build_crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        #[allow(clippy::cast_possible_truncation)] // i < 256
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = build_crc32_table();

/// CRC-32 (IEEE) of `bytes` — the checksum framing every durable record.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Error helpers
// ---------------------------------------------------------------------------

pub(crate) fn dur_err(kind: DurabilityErrorKind, detail: impl Into<String>) -> CaRamError {
    CaRamError::Durability {
        kind,
        detail: detail.into(),
    }
}

pub(crate) fn io_err(what: &str, path: &Path, e: &std::io::Error) -> CaRamError {
    dur_err(
        DurabilityErrorKind::Io,
        format!("{what} {}: {e}", path.display()),
    )
}

pub(crate) fn corrupt(detail: impl Into<String>) -> CaRamError {
    dur_err(DurabilityErrorKind::Corrupt, detail)
}

/// Atomically and durably replaces `dir/name` with `bytes`, returning the
/// final path: write `name.tmp`, `fsync` it, rename it over `name`, then
/// `fsync` `dir` so the rename itself survives. A crash leaves either the
/// old file or the new one, never a torn one. Directory fsync is a
/// Linux-ism; where it fails the rename is still atomic, so that error is
/// ignored.
///
/// # Errors
///
/// [`DurabilityErrorKind::Io`] if creating, writing, syncing, or renaming
/// the temporary file fails.
pub(crate) fn replace_file(dir: &Path, name: &str, bytes: &[u8]) -> Result<PathBuf> {
    let tmp = dir.join(format!("{name}.tmp"));
    let path = dir.join(name);
    {
        let mut f = File::create(&tmp).map_err(|e| io_err("create", &tmp, &e))?;
        f.write_all(bytes).map_err(|e| io_err("write", &tmp, &e))?;
        f.sync_all().map_err(|e| io_err("sync", &tmp, &e))?;
    }
    std::fs::rename(&tmp, &path).map_err(|e| io_err(&format!("rename {name} into"), dir, &e))?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(path)
}

// ---------------------------------------------------------------------------
// Little-endian byte codec
// ---------------------------------------------------------------------------

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked little-endian reader over a byte buffer; every failure
/// is a typed [`DurabilityErrorKind::Corrupt`] error naming the context.
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    ctx: &'static str,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(buf: &'a [u8], ctx: &'static str) -> Self {
        Self { buf, pos: 0, ctx }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(|| {
            corrupt(format!(
                "{}: length overflow at offset {}",
                self.ctx, self.pos
            ))
        })?;
        if end > self.buf.len() {
            return Err(corrupt(format!(
                "{}: truncated at offset {} (need {n} bytes, {} left)",
                self.ctx,
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn u128(&mut self) -> Result<u128> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    pub(crate) fn finish(self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(corrupt(format!(
                "{}: {} trailing byte(s) after the last field",
                self.ctx,
                self.buf.len() - self.pos
            )))
        }
    }
}

// ---------------------------------------------------------------------------
// Serializable index generator spec
// ---------------------------------------------------------------------------

/// A serializable description of an index generator, so recovery can
/// rebuild the exact hash the table was created with. Covers the four
/// built-in generators; custom [`IndexGenerator`] impls cannot be made
/// durable (construct the table yourself and skip the superblock).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IndexSpec {
    /// [`RangeSelect::new`] — a contiguous field of `count` bits at `low`.
    RangeSelect {
        /// Lowest selected bit.
        low: u32,
        /// Field width; also the index width.
        count: u32,
    },
    /// [`DjbHash::new`] — the DJB string hash over `key_bytes` bytes.
    DjbHash {
        /// Index bits produced.
        index_bits: u32,
        /// Key bytes hashed.
        key_bytes: u32,
    },
    /// [`XorFold::new`] — XOR-fold the key to `index_bits` bits.
    XorFold {
        /// Index bits produced.
        index_bits: u32,
    },
    /// [`BitSelect::new`] — arbitrary key bit positions.
    BitSelect {
        /// Selected key bit positions, index bit `i` ← key bit
        /// `positions[i]`.
        positions: Vec<u32>,
    },
}

const INDEX_TAG_RANGE: u8 = 0;
const INDEX_TAG_DJB: u8 = 1;
const INDEX_TAG_XOR: u8 = 2;
const INDEX_TAG_BITSEL: u8 = 3;

impl IndexSpec {
    /// Validates the spec against the same invariants the generator
    /// constructors assert.
    ///
    /// # Errors
    ///
    /// [`CaRamError::BadConfig`] when a parameter is out of range.
    pub fn validate(&self) -> Result<()> {
        let bad = |msg: String| Err(CaRamError::BadConfig(msg));
        match self {
            IndexSpec::RangeSelect { low, count } => {
                if *count == 0 || *count >= 64 {
                    return bad(format!("index width must be in 1..=63 bits, got {count}"));
                }
                if u64::from(*low) + u64::from(*count) > 128 {
                    return bad(format!("bit field [{low}, {}) out of range", low + count));
                }
            }
            IndexSpec::DjbHash {
                index_bits,
                key_bytes,
            } => {
                if *index_bits == 0 || *index_bits >= 64 {
                    return bad(format!(
                        "index width must be in 1..=63 bits, got {index_bits}"
                    ));
                }
                if *key_bytes == 0 || *key_bytes > 16 {
                    return bad(format!("key must be 1..=16 bytes, got {key_bytes}"));
                }
            }
            IndexSpec::XorFold { index_bits } => {
                if *index_bits == 0 || *index_bits >= 64 {
                    return bad(format!(
                        "index width must be in 1..=63 bits, got {index_bits}"
                    ));
                }
            }
            IndexSpec::BitSelect { positions } => {
                if positions.is_empty() || positions.len() >= 64 {
                    return bad(format!(
                        "index width must be in 1..=63 bits, got {}",
                        positions.len()
                    ));
                }
                let mut seen = 0u128;
                for &p in positions {
                    if p >= 128 {
                        return bad(format!("bit position {p} out of range"));
                    }
                    if seen & (1 << p) != 0 {
                        return bad(format!("duplicate bit position {p}"));
                    }
                    seen |= 1 << p;
                }
            }
        }
        Ok(())
    }

    /// Builds the described generator.
    ///
    /// # Errors
    ///
    /// [`CaRamError::BadConfig`] when [`Self::validate`] fails.
    pub fn build(&self) -> Result<Box<dyn IndexGenerator>> {
        self.validate()?;
        Ok(match self {
            IndexSpec::RangeSelect { low, count } => Box::new(RangeSelect::new(*low, *count)),
            IndexSpec::DjbHash {
                index_bits,
                key_bytes,
            } => Box::new(DjbHash::new(*index_bits, *key_bytes)),
            IndexSpec::XorFold { index_bits } => Box::new(XorFold::new(*index_bits)),
            IndexSpec::BitSelect { positions } => Box::new(BitSelect::new(positions.clone())),
        })
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            IndexSpec::RangeSelect { low, count } => {
                out.push(INDEX_TAG_RANGE);
                put_u32(out, *low);
                put_u32(out, *count);
            }
            IndexSpec::DjbHash {
                index_bits,
                key_bytes,
            } => {
                out.push(INDEX_TAG_DJB);
                put_u32(out, *index_bits);
                put_u32(out, *key_bytes);
            }
            IndexSpec::XorFold { index_bits } => {
                out.push(INDEX_TAG_XOR);
                put_u32(out, *index_bits);
            }
            IndexSpec::BitSelect { positions } => {
                out.push(INDEX_TAG_BITSEL);
                #[allow(clippy::cast_possible_truncation)] // validated < 64
                put_u32(out, positions.len() as u32);
                for &p in positions {
                    put_u32(out, p);
                }
            }
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self> {
        let spec = match r.u8()? {
            INDEX_TAG_RANGE => IndexSpec::RangeSelect {
                low: r.u32()?,
                count: r.u32()?,
            },
            INDEX_TAG_DJB => IndexSpec::DjbHash {
                index_bits: r.u32()?,
                key_bytes: r.u32()?,
            },
            INDEX_TAG_XOR => IndexSpec::XorFold {
                index_bits: r.u32()?,
            },
            INDEX_TAG_BITSEL => {
                let n = r.u32()? as usize;
                if n >= 64 {
                    return Err(corrupt(format!("bit-select spec claims {n} positions")));
                }
                let mut positions = Vec::with_capacity(n);
                for _ in 0..n {
                    positions.push(r.u32()?);
                }
                IndexSpec::BitSelect { positions }
            }
            tag => return Err(corrupt(format!("unknown index generator tag {tag}"))),
        };
        spec.validate()
            .map_err(|e| corrupt(format!("index spec invalid: {e}")))?;
        Ok(spec)
    }
}

// ---------------------------------------------------------------------------
// Serializable table spec
// ---------------------------------------------------------------------------

/// On-disk format version shared by the superblock, WAL, and snapshots.
pub const FORMAT_VERSION: u32 = 1;

/// The full, serializable description of a table: its [`TableConfig`]
/// geometry plus the [`IndexSpec`] hash — everything recovery needs to
/// rebuild an empty table with identical placement behavior.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// Table geometry, layout, probing, and overflow policy.
    pub config: TableConfig,
    /// Index generator description.
    pub index: IndexSpec,
}

// The canonical byte encoding is total and injective over valid specs, so
// it doubles as the equality relation (`TableConfig` itself carries no
// `PartialEq`).
impl PartialEq for TableSpec {
    fn eq(&self, other: &Self) -> bool {
        self.encode() == other.encode()
    }
}

impl Eq for TableSpec {}

const ARR_TAG_HORIZONTAL: u8 = 0;
const ARR_TAG_VERTICAL: u8 = 1;
const ARR_TAG_GRID: u8 = 2;
const PROBE_TAG_LINEAR: u8 = 0;
const PROBE_TAG_SECOND_HASH: u8 = 1;
const OVF_TAG_PROBE: u8 = 0;
const OVF_TAG_PARALLEL: u8 = 1;
const OVF_TAG_VICTIM: u8 = 2;

impl TableSpec {
    /// Serializes the spec to the versioned little-endian byte format
    /// (DESIGN.md sec 16).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        put_u32(&mut out, FORMAT_VERSION);
        let c = &self.config;
        put_u32(&mut out, c.rows_log2);
        put_u32(&mut out, c.row_bits);
        put_u32(&mut out, c.layout.key_bits());
        out.push(u8::from(c.layout.is_ternary()));
        put_u32(&mut out, c.layout.data_bits());
        match c.arrangement {
            Arrangement::Horizontal(h) => {
                out.push(ARR_TAG_HORIZONTAL);
                put_u32(&mut out, h);
                put_u32(&mut out, 1);
            }
            Arrangement::Vertical(v) => {
                out.push(ARR_TAG_VERTICAL);
                put_u32(&mut out, 1);
                put_u32(&mut out, v);
            }
            Arrangement::Grid {
                horizontal,
                vertical,
            } => {
                out.push(ARR_TAG_GRID);
                put_u32(&mut out, horizontal);
                put_u32(&mut out, vertical);
            }
        }
        match c.probe {
            ProbePolicy::Linear => out.push(PROBE_TAG_LINEAR),
            ProbePolicy::SecondHash => out.push(PROBE_TAG_SECOND_HASH),
        }
        match c.overflow {
            OverflowPolicy::Probe { max_steps } => {
                out.push(OVF_TAG_PROBE);
                put_u32(&mut out, max_steps);
                put_u32(&mut out, 0);
            }
            OverflowPolicy::ParallelArea { capacity } => {
                out.push(OVF_TAG_PARALLEL);
                let cap = u64::try_from(capacity).unwrap_or(u64::MAX);
                put_u64(&mut out, cap);
            }
            OverflowPolicy::VictimSlice {
                rows_log2,
                row_bits,
            } => {
                out.push(OVF_TAG_VICTIM);
                put_u32(&mut out, rows_log2);
                put_u32(&mut out, row_bits);
            }
        }
        self.index.encode_into(&mut out);
        out
    }

    /// Deserializes a spec previously produced by [`Self::encode`].
    ///
    /// # Errors
    ///
    /// [`DurabilityErrorKind::FormatVersion`] on an unknown version,
    /// [`DurabilityErrorKind::Corrupt`] on truncation, unknown tags, or
    /// out-of-range parameters.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut r = ByteReader::new(bytes, "table spec");
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(dur_err(
                DurabilityErrorKind::FormatVersion,
                format!("table spec version {version}, this build reads {FORMAT_VERSION}"),
            ));
        }
        let rows_log2 = r.u32()?;
        let row_bits = r.u32()?;
        let key_bits = r.u32()?;
        let ternary = match r.u8()? {
            0 => false,
            1 => true,
            b => return Err(corrupt(format!("ternary flag must be 0 or 1, got {b}"))),
        };
        let data_bits = r.u32()?;
        if key_bits == 0 || key_bits > 128 || data_bits > 64 {
            return Err(corrupt(format!(
                "layout out of range: key_bits {key_bits}, data_bits {data_bits}"
            )));
        }
        let layout = RecordLayout::new(key_bits, ternary, data_bits);
        let arr_tag = r.u8()?;
        let h = r.u32()?;
        let v = r.u32()?;
        let arrangement = match arr_tag {
            ARR_TAG_HORIZONTAL => Arrangement::Horizontal(h),
            ARR_TAG_VERTICAL => Arrangement::Vertical(v),
            ARR_TAG_GRID => Arrangement::Grid {
                horizontal: h,
                vertical: v,
            },
            t => return Err(corrupt(format!("unknown arrangement tag {t}"))),
        };
        if h == 0 || v == 0 {
            return Err(corrupt(format!("arrangement factors {h}x{v} out of range")));
        }
        let probe = match r.u8()? {
            PROBE_TAG_LINEAR => ProbePolicy::Linear,
            PROBE_TAG_SECOND_HASH => ProbePolicy::SecondHash,
            t => return Err(corrupt(format!("unknown probe policy tag {t}"))),
        };
        let overflow = match r.u8()? {
            OVF_TAG_PROBE => {
                let max_steps = r.u32()?;
                let _reserved = r.u32()?;
                OverflowPolicy::Probe { max_steps }
            }
            OVF_TAG_PARALLEL => {
                let cap = r.u64()?;
                let capacity = usize::try_from(cap).map_err(|_| {
                    corrupt(format!("overflow capacity {cap} exceeds this platform"))
                })?;
                OverflowPolicy::ParallelArea { capacity }
            }
            OVF_TAG_VICTIM => OverflowPolicy::VictimSlice {
                rows_log2: r.u32()?,
                row_bits: r.u32()?,
            },
            t => return Err(corrupt(format!("unknown overflow policy tag {t}"))),
        };
        let index = IndexSpec::decode_from(&mut r)?;
        r.finish()?;
        Ok(TableSpec {
            config: TableConfig {
                rows_log2,
                row_bits,
                layout,
                arrangement,
                probe,
                overflow,
            },
            index,
        })
    }

    /// Builds an empty table from the spec.
    ///
    /// # Errors
    ///
    /// [`CaRamError::BadConfig`] when the spec is internally inconsistent
    /// (e.g. the index is narrower than the bucket count).
    pub fn build(&self) -> Result<CaRamTable> {
        CaRamTable::new(self.config.clone(), self.index.build()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    fn sample_spec() -> TableSpec {
        TableSpec {
            config: TableConfig {
                rows_log2: 6,
                row_bits: 512,
                layout: RecordLayout::new(32, true, 32),
                arrangement: Arrangement::Grid {
                    horizontal: 2,
                    vertical: 3,
                },
                probe: ProbePolicy::SecondHash,
                overflow: OverflowPolicy::ParallelArea { capacity: 256 },
            },
            index: IndexSpec::RangeSelect { low: 16, count: 8 },
        }
    }

    #[test]
    fn table_spec_roundtrip() {
        let spec = sample_spec();
        let bytes = spec.encode();
        let back = TableSpec::decode(&bytes).expect("decode");
        // TableConfig has no PartialEq; the byte encoding is the identity.
        assert_eq!(back.encode(), bytes);
        assert_eq!(back.index, spec.index);
        back.build().expect("buildable");
    }

    #[test]
    fn table_spec_roundtrip_all_variants() {
        let specs = [
            TableSpec {
                config: TableConfig {
                    rows_log2: 4,
                    row_bits: 256,
                    layout: RecordLayout::new(64, false, 16),
                    arrangement: Arrangement::Horizontal(2),
                    probe: ProbePolicy::Linear,
                    overflow: OverflowPolicy::Probe { max_steps: 7 },
                },
                index: IndexSpec::DjbHash {
                    index_bits: 4,
                    key_bytes: 8,
                },
            },
            TableSpec {
                config: TableConfig {
                    rows_log2: 5,
                    row_bits: 256,
                    layout: RecordLayout::new(24, true, 8),
                    arrangement: Arrangement::Vertical(2),
                    probe: ProbePolicy::Linear,
                    overflow: OverflowPolicy::VictimSlice {
                        rows_log2: 3,
                        row_bits: 256,
                    },
                },
                index: IndexSpec::XorFold { index_bits: 6 },
            },
            TableSpec {
                config: TableConfig {
                    rows_log2: 3,
                    row_bits: 256,
                    layout: RecordLayout::new(16, true, 8),
                    arrangement: Arrangement::Horizontal(1),
                    probe: ProbePolicy::Linear,
                    overflow: OverflowPolicy::Probe { max_steps: 0 },
                },
                index: IndexSpec::BitSelect {
                    positions: vec![0, 5, 9],
                },
            },
        ];
        for spec in specs {
            let bytes = spec.encode();
            let back = TableSpec::decode(&bytes).expect("decode");
            assert_eq!(back.encode(), bytes);
            assert_eq!(back.index, spec.index);
        }
    }

    #[test]
    fn table_spec_rejects_damage() {
        let bytes = sample_spec().encode();
        // Truncation at every prefix either errors or (never) panics.
        for cut in 0..bytes.len() {
            let err = TableSpec::decode(&bytes[..cut]).expect_err("truncated spec must fail");
            assert!(matches!(err, CaRamError::Durability { .. }));
        }
        // Trailing garbage is rejected.
        let mut long = bytes.clone();
        long.push(0);
        assert!(TableSpec::decode(&long).is_err());
        // A wrong version is a FormatVersion error, not Corrupt.
        let mut wrong = bytes;
        wrong[0] = 0xFF;
        match TableSpec::decode(&wrong) {
            Err(CaRamError::Durability { kind, .. }) => {
                assert_eq!(kind, DurabilityErrorKind::FormatVersion);
            }
            other => panic!("expected FormatVersion error, got {other:?}"),
        }
    }

    #[test]
    fn index_spec_validation() {
        assert!(IndexSpec::RangeSelect { low: 0, count: 0 }
            .validate()
            .is_err());
        assert!(IndexSpec::RangeSelect {
            low: 120,
            count: 10
        }
        .build()
        .is_err());
        assert!(IndexSpec::DjbHash {
            index_bits: 8,
            key_bytes: 17
        }
        .validate()
        .is_err());
        assert!(IndexSpec::XorFold { index_bits: 64 }.validate().is_err());
        assert!(IndexSpec::BitSelect { positions: vec![] }
            .validate()
            .is_err());
        assert!(IndexSpec::BitSelect {
            positions: vec![3, 3]
        }
        .validate()
        .is_err());
        assert!(IndexSpec::BitSelect {
            positions: vec![1, 2, 9]
        }
        .build()
        .is_ok());
        assert!(IndexSpec::RangeSelect { low: 16, count: 11 }
            .build()
            .is_ok());
    }
}
