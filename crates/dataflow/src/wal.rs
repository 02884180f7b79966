//! Append-only write-ahead log: framing, record codec, group commit.
//!
//! The durable layer (see [`crate::durable`]) logs every state mutation a
//! partition applies — entity creates and committed transaction writes —
//! plus `EpochCut` markers aligned with the Chandy–Lamport snapshot epochs,
//! into one append-only file per partition. This module owns the byte
//! format and the two halves of its contract:
//!
//! * **Writer** ([`WalWriter`]): length-prefixed, CRC-checksummed frames,
//!   appended with plain `write(2)` (no userspace buffering, so a process
//!   crash loses nothing the OS accepted) and group-committed under a
//!   configurable [`FsyncPolicy`]. The writer tracks `written_len` vs
//!   `synced_len`: only the synced prefix survives a *power-loss-style*
//!   fault (`se-chaos`'s torn/lost tail scripts); a plain process crash
//!   keeps everything written.
//! * **Reader** ([`read_wal`]): scans frames and **stops cleanly at the
//!   first length or checksum mismatch** — a torn tail truncates the log to
//!   its last valid prefix, it never panics and never silently skips over a
//!   bad frame to resync downstream (resyncing could resurrect records that
//!   a torn write was supposed to kill, breaking exactly-once).
//!
//! The record codec is hand-rolled binary (crates.io is unreachable, and
//! the vendored `serde_json` shim is serialize-only): entity classes, keys
//! and attribute names are encoded as *strings*, mirroring how the routing
//! layer hashes key text — symbol ids are process-local and meaningless on
//! disk. Decoding re-interns them.
//!
//! Frame layout, all integers little-endian:
//!
//! ```text
//! +----------+----------+------------------+
//! | len: u32 | crc: u32 | payload (len B)  |   crc = CRC-32 (IEEE) of payload
//! +----------+----------+------------------+
//! ```

use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use se_chaos::FsyncFaultAction;
use se_lang::{EntityRef, EntityState, Symbol, Value};

/// Frame header: `len` + `crc`, both `u32`.
pub const FRAME_HEADER: usize = 8;

/// Hard ceiling on a single record's payload (64 MiB). A corrupted length
/// prefix below this bound is caught by the CRC; above it we refuse the
/// frame outright instead of attempting a huge allocation.
pub const MAX_RECORD_LEN: u32 = 64 << 20;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected), table-driven.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Records.
// ---------------------------------------------------------------------------

/// When the WAL writer calls `fsync`.
///
/// Group commit: appends always hit the file immediately (they survive a
/// process crash); the policy only chooses when the *synced* prefix — the
/// part that survives power loss / torn-tail faults — advances.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync after every committed batch apply. Maximum durability, one
    /// `fsync` per batch per partition.
    EveryCommit,
    /// Sync at epoch cuts only (the default): an epoch is durable exactly
    /// when its cut record is, so recovery targets are always well-formed.
    #[default]
    OnEpoch,
    /// Sync every `n` appends, and at every epoch cut.
    EveryN(u32),
    /// Never sync. Nothing is durable against power loss; process crashes
    /// still keep everything written. Exists for benchmarks and for chaos
    /// scenarios that exercise the multi-round restore fallback.
    Never,
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::EveryCommit => write!(f, "every-commit"),
            FsyncPolicy::OnEpoch => write!(f, "on-epoch"),
            FsyncPolicy::EveryN(n) => write!(f, "every-{n}"),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

impl std::str::FromStr for FsyncPolicy {
    type Err = &'static str;

    /// Parses the spelling produced by `Display`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "every-commit" => Ok(FsyncPolicy::EveryCommit),
            "on-epoch" => Ok(FsyncPolicy::OnEpoch),
            "never" => Ok(FsyncPolicy::Never),
            other => other
                .strip_prefix("every-")
                .and_then(|n| n.parse::<u32>().ok())
                .filter(|n| *n >= 1)
                .map(FsyncPolicy::EveryN)
                .ok_or("expected every-commit|on-epoch|never|every-N (N >= 1)"),
        }
    }
}

/// One durable log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// First record of every (re)written log: the log's records begin
    /// immediately *after* the cut of `epoch` (0 = the beginning of time).
    /// Compaction rewrites the log with a higher base.
    BaseRef {
        /// Epoch whose cut precedes the first logged record.
        epoch: u64,
    },
    /// An entity was created with `state` (the control-plane path, which
    /// bypasses the batch commit pipeline).
    Create {
        /// The created entity.
        entity: EntityRef,
        /// Its full initial state.
        state: EntityState,
    },
    /// One committed transaction's writes, applied in `batch`.
    Commit {
        /// Batch the transaction committed in.
        batch: u64,
        /// Attribute writes per entity, in application order.
        writes: Vec<(EntityRef, Vec<(Symbol, Value)>)>,
    },
    /// Epoch `epoch`'s snapshot barrier passed this partition: every record
    /// before this marker is part of the epoch's durable changelog.
    EpochCut {
        /// The epoch that cut here.
        epoch: u64,
    },
    /// A live upgrade committed on this partition: every record after this
    /// marker executed under program `version`. Written at the end of the
    /// partition's migration pass, so replaying past it implies the
    /// migration's writes are already applied.
    VersionCut {
        /// The program version now active.
        version: u64,
    },
}

/// A record failed to decode (corrupt payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalDecodeError {
    /// What was being decoded when the bytes ran out or made no sense.
    pub context: &'static str,
}

impl std::fmt::Display for WalDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt WAL record ({})", self.context)
    }
}

impl std::error::Error for WalDecodeError {}

fn bad<T>(context: &'static str) -> Result<T, WalDecodeError> {
    Err(WalDecodeError { context })
}

// -- encoding helpers -------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Unit => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(3);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(4);
            put_str(out, s);
        }
        Value::Bytes(b) => {
            out.push(5);
            put_u32(out, b.len() as u32);
            out.extend_from_slice(b);
        }
        Value::List(items) => {
            out.push(6);
            put_u32(out, items.len() as u32);
            for item in items {
                put_value(out, item);
            }
        }
        Value::Map(map) => {
            out.push(7);
            put_u32(out, map.len() as u32);
            for (k, val) in map {
                put_str(out, k);
                put_value(out, val);
            }
        }
        Value::Ref(r) => {
            out.push(8);
            put_entity(out, r);
        }
    }
}

fn put_entity(out: &mut Vec<u8>, r: &EntityRef) {
    put_str(out, r.class.as_str());
    put_str(out, r.key.as_str());
}

// -- decoding helpers -------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WalDecodeError> {
        if self.buf.len() - self.pos < n {
            return bad(context);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, WalDecodeError> {
        Ok(self.take(1, context)?[0])
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, WalDecodeError> {
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().unwrap(),
        ))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, WalDecodeError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().unwrap(),
        ))
    }

    fn str(&mut self, context: &'static str) -> Result<&'a str, WalDecodeError> {
        let len = self.u32(context)? as usize;
        let bytes = self.take(len, context)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s),
            Err(_) => bad(context),
        }
    }

    fn value(&mut self) -> Result<Value, WalDecodeError> {
        match self.u8("value tag")? {
            0 => Ok(Value::Unit),
            1 => Ok(Value::Bool(self.u8("bool")? != 0)),
            2 => Ok(Value::Int(i64::from_le_bytes(
                self.take(8, "int")?.try_into().unwrap(),
            ))),
            3 => Ok(Value::Float(f64::from_bits(u64::from_le_bytes(
                self.take(8, "float")?.try_into().unwrap(),
            )))),
            4 => Ok(Value::Str(self.str("string")?.to_string())),
            5 => {
                let len = self.u32("bytes length")? as usize;
                Ok(Value::Bytes(self.take(len, "bytes")?.to_vec()))
            }
            6 => {
                let count = self.u32("list length")? as usize;
                // Bounded by remaining bytes: every element is ≥ 1 byte.
                if count > self.buf.len() - self.pos {
                    return bad("list length");
                }
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    items.push(self.value()?);
                }
                Ok(Value::List(items))
            }
            7 => {
                let count = self.u32("map length")? as usize;
                if count > self.buf.len() - self.pos {
                    return bad("map length");
                }
                let mut map = std::collections::BTreeMap::new();
                for _ in 0..count {
                    let k = self.str("map key")?.to_string();
                    let v = self.value()?;
                    map.insert(k, v);
                }
                Ok(Value::Map(map))
            }
            8 => Ok(Value::Ref(self.entity()?)),
            _ => bad("value tag"),
        }
    }

    fn entity(&mut self) -> Result<EntityRef, WalDecodeError> {
        let class = self.str("entity class")?;
        // Borrow gymnastics: both strings must outlive the intern calls.
        let class = class.to_string();
        let key = self.str("entity key")?;
        Ok(EntityRef::new(class.as_str(), key))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

impl WalRecord {
    /// Encodes the record payload (no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            WalRecord::BaseRef { epoch } => {
                out.push(0);
                put_u64(&mut out, *epoch);
            }
            WalRecord::Create { entity, state } => {
                out.push(1);
                put_entity(&mut out, entity);
                put_u32(&mut out, state.len() as u32);
                for (attr, value) in state.iter() {
                    put_str(&mut out, attr.as_str());
                    put_value(&mut out, value);
                }
            }
            WalRecord::Commit { batch, writes } => {
                out.push(2);
                put_u64(&mut out, *batch);
                put_u32(&mut out, writes.len() as u32);
                for (entity, attrs) in writes {
                    put_entity(&mut out, entity);
                    put_u32(&mut out, attrs.len() as u32);
                    for (attr, value) in attrs {
                        put_str(&mut out, attr.as_str());
                        put_value(&mut out, value);
                    }
                }
            }
            WalRecord::EpochCut { epoch } => {
                out.push(3);
                put_u64(&mut out, *epoch);
            }
            WalRecord::VersionCut { version } => {
                out.push(4);
                put_u64(&mut out, *version);
            }
        }
        out
    }

    /// Decodes a record payload. Fails (never panics) on any truncation,
    /// bad tag, or trailing garbage.
    pub fn decode(payload: &[u8]) -> Result<WalRecord, WalDecodeError> {
        let mut c = Cursor {
            buf: payload,
            pos: 0,
        };
        let record = match c.u8("record tag")? {
            0 => WalRecord::BaseRef {
                epoch: c.u64("base epoch")?,
            },
            1 => {
                let entity = c.entity()?;
                let count = c.u32("state length")? as usize;
                if count > payload.len() {
                    return bad("state length");
                }
                let mut state = EntityState::new();
                for _ in 0..count {
                    let attr = c.str("attr name")?.to_string();
                    let value = c.value()?;
                    state.insert(attr.as_str(), value);
                }
                WalRecord::Create { entity, state }
            }
            2 => {
                let batch = c.u64("commit batch")?;
                let count = c.u32("write count")? as usize;
                if count > payload.len() {
                    return bad("write count");
                }
                let mut writes = Vec::with_capacity(count);
                for _ in 0..count {
                    let entity = c.entity()?;
                    let attr_count = c.u32("attr count")? as usize;
                    if attr_count > payload.len() {
                        return bad("attr count");
                    }
                    let mut attrs = Vec::with_capacity(attr_count);
                    for _ in 0..attr_count {
                        let attr = c.str("attr name")?.to_string();
                        let value = c.value()?;
                        attrs.push((Symbol::from(attr.as_str()), value));
                    }
                    writes.push((entity, attrs));
                }
                WalRecord::Commit { batch, writes }
            }
            3 => WalRecord::EpochCut {
                epoch: c.u64("cut epoch")?,
            },
            4 => WalRecord::VersionCut {
                version: c.u64("cut version")?,
            },
            _ => return bad("record tag"),
        };
        if !c.done() {
            return bad("trailing bytes");
        }
        Ok(record)
    }

    /// Encodes the record as a complete frame (header + payload).
    pub fn encode_frame(&self) -> Vec<u8> {
        let payload = self.encode();
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        frame
    }
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

/// Appends framed records to a log file with group commit.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    written: u64,
    synced: u64,
    policy: FsyncPolicy,
    unsynced_appends: u32,
    /// Observability handle (noop unless attached via [`WalWriter::set_obs`]):
    /// times every buffered append (`wal_append`) and fsync (`wal_fsync`).
    obs: se_obs::Obs,
}

impl WalWriter {
    /// Creates (truncating) a fresh log at `path` whose first record is
    /// `BaseRef { epoch: base }`, synced so the base reference itself is
    /// never lost to a torn tail.
    pub fn create(path: &Path, base: u64, policy: FsyncPolicy) -> io::Result<Self> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        let mut w = WalWriter {
            file,
            path: path.to_path_buf(),
            written: 0,
            synced: 0,
            policy,
            unsynced_appends: 0,
            obs: se_obs::Obs::noop(),
        };
        w.append_raw(&WalRecord::BaseRef { epoch: base })?;
        w.force_sync()?;
        Ok(w)
    }

    /// Reopens an existing log for appending after recovery: truncates the
    /// file to `valid_len` (dropping any torn or post-recovery-point tail)
    /// and treats the retained prefix as synced.
    pub fn reopen(path: &Path, valid_len: u64, policy: FsyncPolicy) -> io::Result<Self> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        let mut file = file;
        file.seek(SeekFrom::Start(valid_len))?;
        file.sync_data()?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            written: valid_len,
            synced: valid_len,
            policy,
            unsynced_appends: 0,
            obs: se_obs::Obs::noop(),
        })
    }

    /// Attaches an observability handle; spans are recorded from then on.
    pub fn set_obs(&mut self, obs: se_obs::Obs) {
        self.obs = obs;
    }

    /// Correlation id for a record's spans: batch for commits, epoch for
    /// cuts and base refs, 0 for creates.
    fn record_span_id(record: &WalRecord) -> u64 {
        match record {
            WalRecord::Commit { batch, .. } => *batch,
            WalRecord::EpochCut { epoch } | WalRecord::BaseRef { epoch } => *epoch,
            WalRecord::VersionCut { version } => *version,
            WalRecord::Create { .. } => 0,
        }
    }

    fn append_raw(&mut self, record: &WalRecord) -> io::Result<()> {
        let t0 = self.obs.now_ns();
        let frame = record.encode_frame();
        self.file.write_all(&frame)?;
        self.written += frame.len() as u64;
        self.unsynced_appends += 1;
        self.obs.stage_span(
            se_obs::Stage::WalAppend,
            Self::record_span_id(record),
            t0,
            self.obs.now_ns(),
        );
        Ok(())
    }

    /// Appends one record and group-commits per the fsync policy. Epoch
    /// cuts sync under every policy except [`FsyncPolicy::Never`] — an
    /// epoch is durable exactly when its cut record is.
    ///
    /// `fault` is consulted only when a sync is actually attempted (so
    /// chaos scripts count *fsyncs*, not appends): it can stall the sync or
    /// fail it outright, in which case the write stays in the page cache
    /// and the synced prefix does not advance.
    pub fn append(
        &mut self,
        record: &WalRecord,
        fault: impl FnOnce() -> FsyncFaultAction,
    ) -> io::Result<()> {
        // Version cuts sync like epoch cuts: an upgrade is durable exactly
        // when its cut record is.
        let is_cut = matches!(
            record,
            WalRecord::EpochCut { .. } | WalRecord::VersionCut { .. }
        );
        self.append_raw(record)?;
        let should_sync = match self.policy {
            FsyncPolicy::EveryCommit => true,
            FsyncPolicy::OnEpoch => is_cut,
            FsyncPolicy::EveryN(n) => is_cut || self.unsynced_appends >= n,
            FsyncPolicy::Never => false,
        };
        if should_sync {
            match fault() {
                FsyncFaultAction::Fail => {}
                FsyncFaultAction::Slow { extra_us } => {
                    std::thread::sleep(std::time::Duration::from_micros(extra_us));
                    self.force_sync()?;
                }
                FsyncFaultAction::Proceed => self.force_sync()?,
            }
        }
        Ok(())
    }

    /// Unconditionally fsyncs and advances the synced prefix.
    pub fn force_sync(&mut self) -> io::Result<()> {
        let t0 = self.obs.now_ns();
        self.file.sync_data()?;
        self.synced = self.written;
        self.unsynced_appends = 0;
        // Span id: the byte offset the sync advanced the durable prefix to.
        self.obs
            .stage_span(se_obs::Stage::WalFsync, self.written, t0, self.obs.now_ns());
        Ok(())
    }

    /// Bytes written (survive a process crash).
    pub fn written_len(&self) -> u64 {
        self.written
    }

    /// Bytes fsynced (survive power loss / torn-tail faults).
    pub fn synced_len(&self) -> u64 {
        self.synced
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

// ---------------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------------

/// Result of scanning a log file.
#[derive(Debug)]
pub struct WalScan {
    /// Decoded records with the byte offset of the *end* of each frame
    /// (recovery truncates the log at the offset of its chosen epoch cut).
    pub records: Vec<(u64, WalRecord)>,
    /// Length of the valid prefix; anything beyond is a torn tail.
    pub valid_len: u64,
    /// Whether trailing bytes were discarded (torn/corrupt tail).
    pub truncated: bool,
}

/// Scans a WAL file, decoding every valid frame and stopping cleanly at the
/// first length mismatch, checksum mismatch, or undecodable payload.
///
/// `skip_crc` disables checksum verification — it exists **only** as the
/// `wal-no-crc` injected bug for the chaos self-test that proves corrupted
/// records are caught by the history checker; never set it otherwise.
pub fn read_wal(path: &Path, skip_crc: bool) -> io::Result<WalScan> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    let mut records = Vec::new();
    let mut pos = 0usize;
    let truncated = loop {
        if pos == buf.len() {
            break false; // clean EOF
        }
        if buf.len() - pos < FRAME_HEADER {
            break true; // torn header
        }
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_RECORD_LEN {
            break true; // corrupt length prefix
        }
        let len = len as usize;
        if buf.len() - pos - FRAME_HEADER < len {
            break true; // torn payload
        }
        let payload = &buf[pos + FRAME_HEADER..pos + FRAME_HEADER + len];
        if !skip_crc && crc32(payload) != crc {
            break true; // corrupt payload
        }
        match WalRecord::decode(payload) {
            Ok(record) => {
                pos += FRAME_HEADER + len;
                records.push((pos as u64, record));
            }
            Err(_) => break true, // decodable only with skip_crc + luck
        }
    };
    Ok(WalScan {
        records,
        valid_len: pos as u64,
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        let acct = EntityRef::new("Account", "a1");
        vec![
            WalRecord::BaseRef { epoch: 0 },
            WalRecord::Create {
                entity: acct,
                state: EntityState::from([("balance", Value::Int(100))]),
            },
            WalRecord::Commit {
                batch: 7,
                writes: vec![(
                    acct,
                    vec![
                        (Symbol::from("balance"), Value::Int(90)),
                        (
                            Symbol::from("tags"),
                            Value::List(vec![Value::Str("x".into())]),
                        ),
                    ],
                )],
            },
            WalRecord::EpochCut { epoch: 1 },
            WalRecord::VersionCut { version: 2 },
        ]
    }

    #[test]
    fn record_round_trip() {
        for record in sample_records() {
            let payload = record.encode();
            assert_eq!(WalRecord::decode(&payload).unwrap(), record);
        }
    }

    #[test]
    fn nested_value_round_trip() {
        let mut map = std::collections::BTreeMap::new();
        map.insert("k".to_string(), Value::List(vec![Value::Float(1.5)]));
        let record = WalRecord::Commit {
            batch: 1,
            writes: vec![(
                EntityRef::new("C", "k"),
                vec![
                    (Symbol::from("m"), Value::Map(map)),
                    (Symbol::from("r"), Value::Ref(EntityRef::new("D", "x"))),
                    (Symbol::from("b"), Value::Bytes(vec![0, 255, 3])),
                    (Symbol::from("u"), Value::Unit),
                    (Symbol::from("t"), Value::Bool(true)),
                ],
            )],
        };
        assert_eq!(WalRecord::decode(&record.encode()).unwrap(), record);
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut payload = WalRecord::EpochCut { epoch: 3 }.encode();
        payload.push(0);
        assert!(WalRecord::decode(&payload).is_err());
    }

    #[test]
    fn decode_rejects_truncation_at_every_length() {
        for record in sample_records() {
            let payload = record.encode();
            for cut in 0..payload.len() {
                // Must error, never panic or succeed on a proper prefix.
                assert!(
                    WalRecord::decode(&payload[..cut]).is_err(),
                    "prefix of length {cut} decoded"
                );
            }
        }
    }

    #[test]
    fn writer_then_scan_round_trips() {
        let dir = tempdir("wal-roundtrip");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 0, FsyncPolicy::EveryCommit).unwrap();
        for record in sample_records().into_iter().skip(1) {
            w.append(&record, || FsyncFaultAction::Proceed).unwrap();
        }
        assert_eq!(w.written_len(), w.synced_len());
        let scan = read_wal(&path, false).unwrap();
        assert!(!scan.truncated);
        assert_eq!(
            scan.records
                .iter()
                .map(|(_, r)| r.clone())
                .collect::<Vec<_>>(),
            sample_records()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_stops_cleanly() {
        let dir = tempdir("wal-torn");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 0, FsyncPolicy::Never).unwrap();
        for record in sample_records().into_iter().skip(1) {
            w.append(&record, || FsyncFaultAction::Proceed).unwrap();
        }
        let full = std::fs::metadata(&path).unwrap().len();
        // Cut the file at every possible length: the scan must never panic,
        // never invent records, and always return a prefix of the originals.
        let originals = sample_records();
        for keep in 0..full {
            let mut bytes = std::fs::read(&path).unwrap();
            bytes.truncate(keep as usize);
            let torn = dir.join("torn.log");
            std::fs::write(&torn, &bytes).unwrap();
            let scan = read_wal(&torn, false).unwrap();
            assert!(scan.valid_len <= keep);
            assert!(scan.records.len() <= originals.len());
            for (i, (_, r)) in scan.records.iter().enumerate() {
                assert_eq!(r, &originals[i], "record {i} mutated by tearing");
            }
            if keep < full {
                assert!(scan.truncated || scan.valid_len == keep);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bitflip_is_detected_by_crc_and_applied_without_it() {
        let dir = tempdir("wal-flip");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 0, FsyncPolicy::Never).unwrap();
        let record = WalRecord::Commit {
            batch: 1,
            writes: vec![(
                EntityRef::new("Account", "a"),
                vec![(Symbol::from("balance"), Value::Int(42))],
            )],
        };
        w.append(&record, || FsyncFaultAction::Proceed).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit in the last payload byte (the balance's MSB).
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        let honest = read_wal(&path, false).unwrap();
        // CRC catches the flip: the record vanishes, the log truncates to
        // the BaseRef prefix.
        assert!(honest.truncated);
        assert_eq!(honest.records.len(), 1);
        // With the checksum-skip bug injected, the flipped record decodes
        // and would be silently applied — the chaos self-test depends on
        // this exact asymmetry.
        let buggy = read_wal(&path, true).unwrap();
        assert_eq!(buggy.records.len(), 2);
        assert_ne!(buggy.records[1].1, record);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_policy_governs_synced_prefix() {
        let dir = tempdir("wal-sync");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 0, FsyncPolicy::Never).unwrap();
        let base_len = w.written_len();
        w.append(&WalRecord::EpochCut { epoch: 1 }, || {
            FsyncFaultAction::Proceed
        })
        .unwrap();
        assert_eq!(w.synced_len(), base_len, "Never must not sync even at cuts");
        let mut w = WalWriter::create(&path, 0, FsyncPolicy::OnEpoch).unwrap();
        w.append(
            &WalRecord::Create {
                entity: EntityRef::new("C", "k"),
                state: EntityState::new(),
            },
            || FsyncFaultAction::Proceed,
        )
        .unwrap();
        let after_create = w.synced_len();
        assert!(
            after_create < w.written_len(),
            "OnEpoch defers commit syncs"
        );
        w.append(&WalRecord::EpochCut { epoch: 1 }, || {
            FsyncFaultAction::Proceed
        })
        .unwrap();
        assert_eq!(w.synced_len(), w.written_len(), "cut syncs under OnEpoch");
        w.append(&WalRecord::EpochCut { epoch: 2 }, || FsyncFaultAction::Fail)
            .unwrap();
        assert!(
            w.synced_len() < w.written_len(),
            "a failed fsync must not advance the synced prefix"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_policy_parse_round_trips() {
        for policy in [
            FsyncPolicy::EveryCommit,
            FsyncPolicy::OnEpoch,
            FsyncPolicy::EveryN(8),
            FsyncPolicy::Never,
        ] {
            assert_eq!(policy.to_string().parse(), Ok(policy));
        }
        for junk in ["bogus", "every-0", "on_epoch"] {
            assert!(junk.parse::<FsyncPolicy>().is_err(), "{junk}");
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "se-wal-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}

#[cfg(test)]
mod proptests {
    //! Property tests for the record codec and the torn-tail reader
    //! contract: arbitrary records round-trip exactly, and a log damaged
    //! at any byte is read back as a clean prefix — never a panic, never a
    //! silently altered or skipped record.

    use super::*;
    use proptest::collection;
    use proptest::prelude::*;
    use proptest::sample;
    use se_lang::{EntityRef, EntityState, Symbol, Value};

    fn arb_name() -> BoxedStrategy<String> {
        // Symbols land in an interner; a small alphabet keeps its size
        // bounded across cases while still exercising multi-byte names.
        sample::select(vec![
            "a",
            "bee",
            "Sea",
            "d0",
            "entity-5",
            "véhicule",
            "ε",
            "k_9",
        ])
        .prop_map(str::to_string)
        .boxed()
    }

    fn arb_entity() -> BoxedStrategy<EntityRef> {
        (arb_name(), arb_name())
            .prop_map(|(class, key)| EntityRef::new(class.as_str(), key.as_str()))
            .boxed()
    }

    fn arb_value() -> BoxedStrategy<Value> {
        let leaf = prop_oneof![
            Just(Value::Unit),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            any::<f64>().prop_map(Value::Float),
            arb_name().prop_map(Value::Str),
            collection::vec(any::<u8>(), 0..24).prop_map(Value::Bytes),
            arb_entity().prop_map(Value::Ref),
        ];
        leaf.prop_recursive(3, 24, 4, |inner| {
            prop_oneof![
                collection::vec(inner.clone(), 0..4).prop_map(Value::List),
                collection::btree_map(arb_name(), inner, 0..4).prop_map(Value::Map),
            ]
        })
    }

    fn arb_state() -> BoxedStrategy<EntityState> {
        collection::btree_map(arb_name(), arb_value(), 0..6)
            .prop_map(|m| m.into_iter().collect())
            .boxed()
    }

    fn arb_record() -> BoxedStrategy<WalRecord> {
        prop_oneof![
            any::<u64>().prop_map(|epoch| WalRecord::BaseRef { epoch }),
            any::<u64>().prop_map(|epoch| WalRecord::EpochCut { epoch }),
            any::<u64>().prop_map(|version| WalRecord::VersionCut { version }),
            (arb_entity(), arb_state())
                .prop_map(|(entity, state)| WalRecord::Create { entity, state }),
            (
                any::<u64>(),
                collection::vec(
                    (
                        arb_entity(),
                        collection::vec((arb_name().prop_map(Symbol::from), arb_value()), 0..5)
                    ),
                    0..5
                )
            )
                .prop_map(|(batch, writes)| WalRecord::Commit { batch, writes }),
        ]
        .boxed()
    }

    /// Writes `records` into a fresh WAL file and returns its path.
    fn write_log(tag: &str, records: &[WalRecord]) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "se-wal-prop-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 7, FsyncPolicy::Never).unwrap();
        for r in records {
            w.append(r, || se_chaos::FsyncFaultAction::Proceed).unwrap();
        }
        w.force_sync().unwrap();
        path
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Arbitrary records survive encode → decode byte-exactly.
        #[test]
        fn record_codec_round_trips(record in arb_record()) {
            let payload = record.encode();
            let decoded = WalRecord::decode(&payload)
                .unwrap_or_else(|e| panic!("decode of own encoding failed: {e}"));
            prop_assert_eq!(&decoded, &record);
            // And through the framed on-disk path as well.
            let path = write_log("roundtrip", std::slice::from_ref(&record));
            let scan = read_wal(&path, false).unwrap();
            prop_assert!(!scan.truncated);
            prop_assert_eq!(scan.records.len(), 2, "BaseRef + the record");
            prop_assert_eq!(&scan.records[1].1, &record);
            std::fs::remove_dir_all(path.parent().unwrap()).ok();
        }

        /// A log truncated at ANY byte length reads back as a clean prefix
        /// of the original records: no panic, no partial record, no skip.
        #[test]
        fn truncated_tail_reads_as_clean_prefix(
            records in collection::vec(arb_record(), 1..5),
            cut_seed in any::<u64>(),
        ) {
            let path = write_log("trunc", &records);
            let full = std::fs::read(&path).unwrap();
            let scan = read_wal(&path, false).unwrap();
            prop_assert!(!scan.truncated);
            let original: Vec<WalRecord> =
                scan.records.iter().map(|(_, r)| r.clone()).collect();

            let cut = (cut_seed as usize) % (full.len() + 1);
            std::fs::write(&path, &full[..cut]).unwrap();
            let damaged = read_wal(&path, false).unwrap();
            prop_assert!(damaged.valid_len as usize <= cut);
            prop_assert!(damaged.records.len() <= original.len());
            for (got, want) in damaged.records.iter().zip(&original) {
                prop_assert_eq!(&got.1, want, "prefix must be unaltered");
            }
            std::fs::remove_dir_all(path.parent().unwrap()).ok();
        }

        /// A single flipped byte anywhere in the log never panics the
        /// reader and never alters a surviving record: the scan stops at
        /// or before the damaged frame and everything it does return is
        /// byte-identical to the original prefix.
        #[test]
        fn corrupted_byte_stops_cleanly(
            records in collection::vec(arb_record(), 1..5),
            pos_seed in any::<u64>(),
            bit in 0u8..8,
        ) {
            let path = write_log("flip", &records);
            let mut bytes = std::fs::read(&path).unwrap();
            let scan = read_wal(&path, false).unwrap();
            let original: Vec<WalRecord> =
                scan.records.iter().map(|(_, r)| r.clone()).collect();

            let pos = (pos_seed as usize) % bytes.len();
            bytes[pos] ^= 1 << bit;
            std::fs::write(&path, &bytes).unwrap();
            let damaged = read_wal(&path, false).unwrap();
            prop_assert!(damaged.records.len() <= original.len());
            for (i, (end, got)) in damaged.records.iter().enumerate() {
                // Any frame wholly before the flipped byte is untouched;
                // a frame at/after it may only survive if the scan stopped
                // first — which the zip against the original prefix plus
                // the CRC guarantee reduce to: surviving records match.
                prop_assert_eq!(got, &original[i], "record {i} ending at {end} altered");
            }
            std::fs::remove_dir_all(path.parent().unwrap()).ok();
        }
    }
}
