//! # Versioned on-disk snapshots of the report cache
//!
//! A snapshot file stores every completed `(Cell, EpochReport)` entry
//! of a [`GridService`](super::GridService) cache, so a later process
//! can warm-start instead of recomputing the grid. The format is
//! dependency-free (hand-rolled little-endian encoding, matching the
//! workspace's no-serde policy) and designed for **exact** round-trips:
//! every field — including `f64`s, which travel as IEEE-754 bit
//! patterns — decodes to the identical value, so tables rendered from
//! a loaded snapshot are byte-identical to a cold recompute.
//!
//! ## File layout (all integers little-endian)
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0  | 8 | magic `b"VSCPSNAP"` |
//! | 8  | 4 | format version ([`FORMAT_VERSION`]) |
//! | 12 | 8 | harness fingerprint ([`harness_fingerprint`]) |
//! | 20 | 8 | entry count |
//! | 28 | 8 | payload length in bytes |
//! | 36 | 8 | FNV-1a checksum of the payload |
//! | 44 | .. | payload: `entry count` encoded entries |
//!
//! Each entry is the cell key (enum tags as `u8`, batch/GPU count as
//! `u64`) followed by the [`EpochReport`] — stage timings, the
//! per-category API totals, and the complete steady-state iteration
//! trace as a *compact trace block* behind a one-byte tag (below).
//! Entries are stored sorted by their encoded cell key, so the snapshot
//! bytes are a canonical function of the cache *contents*, independent
//! of insertion order: save → load → re-save is byte-identical.
//!
//! ## Compact trace blocks (format v5)
//!
//! The iteration traces dominate snapshot size; before v5 the full
//! fig3 grid persisted ~40 MB, almost all of it absolute nanosecond
//! timestamps and per-iteration kernel labels repeated across
//! thousands of events. A v5 trace block stores, behind a `u32`
//! byte-length prefix, a varint *raw length* followed by an
//! LZSS-compressed image (below) of this inner layout:
//!
//! | field | encoding |
//! |---|---|
//! | string table | varint count, then per string (sorted ascending): varint shared-prefix length + varint suffix length + UTF-8 suffix bytes |
//! | event count | varint |
//! | per event: task id | varint |
//! | per event: label / category | varint indices into the string table |
//! | per event: resource | varint `0` = none, else table index + 1 |
//! | per event: start | varint delta vs the previous event's start (wrapping) |
//! | per event: duration | varint `end - start` in nanoseconds |
//!
//! Varints are LEB128 (7 data bits per byte, little-endian, high bit =
//! continuation). The string table interns every distinct
//! label/category/resource string in ascending byte order and
//! front-codes it: each string stores only its suffix after the
//! longest shared prefix with its predecessor, which collapses the
//! `itN/<kernel>@GPUk` families that dominate real traces. Start
//! timestamps are wrapping deltas against the previous event (small
//! for the sorted-by-start traces the simulator produces — but *any*
//! order round-trips exactly).
//!
//! The inner image is then compressed with a dependency-free LZSS
//! coder: tokens in groups of eight behind a control byte (bit = 1 →
//! match, 0 → literal), literals as raw bytes, matches as
//! varint distance (1-based, within the already-decoded output) +
//! varint `length - 4`, overlapping copies allowed. The compressor is
//! a pure function of the inner bytes (greedy longest-match over
//! deterministic hash chains), and the inner decoder accepts only the
//! canonical structural form — minimal-length varints, a strictly
//! ascending maximally-shared-prefix table with no unused strings, no
//! trailing bytes — so decode → re-encode reproduces every
//! writer-produced block byte-identically.
//!
//! The length prefix is what makes **lazy decoding** possible:
//! [`load_entries_lazy`] parses cells and scalar report fields eagerly
//! but holds each trace block as a [`LazyTrace`] — an offset window
//! into the loaded snapshot image — decoding events only when a trace
//! consumer actually touches that cell. A warm service answering
//! table-only sweeps never decodes a single event, and re-saving an
//! untouched entry copies the encoded block verbatim
//! ([`TraceOut::Raw`]), preserving byte-identity without a decode.
//!
//! ## The trace tag byte
//!
//! Every entry's trace block is preceded by a one-byte tag, always
//! `1`. Format v2 added the tag so *slim* entries (tag `0`) could omit
//! the trace; slim snapshots are retired, and the v5 layout keeps the
//! byte so existing files stay readable without a version bump. A tag
//! other than `1` is [`PersistError::Corrupted`]`("unknown trace tag")`,
//! which the warm-start path treats like any rejected file: a cold
//! recompute.
//!
//! ## Staleness policy
//!
//! A snapshot is only as valid as the simulator that produced it, so
//! two independent checks gate loading:
//!
//! * **Format version** — [`FORMAT_VERSION`] must be bumped whenever
//!   the encoding changes *or* when simulation semantics shift without
//!   a calibration change (e.g. a model-zoo or scheduler fix). A
//!   mismatch yields [`PersistError::UnsupportedVersion`].
//! * **Harness fingerprint** — a hash over the complete base
//!   [`Harness`] configuration (topology, kernel/API/NCCL cost models,
//!   host-dispatch costs, memory model, measurement protocol). Any
//!   calibration change produces a different fingerprint and the stale
//!   snapshot is rejected ([`PersistError::FingerprintMismatch`])
//!   rather than silently reused.
//!
//! Rejection is always typed and recoverable — truncated, corrupted,
//! wrong-version and wrong-fingerprint files return a [`PersistError`],
//! never panic — so callers fall back to an empty cache and recompute.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::Path;
use std::sync::Arc;

use voltascope_comm::CommMethod;
use voltascope_dnn::zoo::Workload;
use voltascope_sim::{IndexedEvent, SimSpan, SimTime, StringTable, TaskId, Trace};
use voltascope_train::{EpochReport, ScalingMode};

use crate::grid::{Cell, FaultScenario, Platform};
use crate::workloads::{self, WorkloadSel};
use crate::Harness;

/// Magic bytes opening every snapshot file.
pub const MAGIC: [u8; 8] = *b"VSCPSNAP";

/// Current snapshot format version. Bump on any encoding change *or*
/// any simulator-semantics change not captured by the harness
/// fingerprint (see the module docs' staleness policy).
///
/// Version history: 1 — initial format; 2 — per-entry trace tag
/// (slim snapshots, since retired: only tag `1` is read); 3 — data
/// workloads (tag 5 + spec name; zoo tags 0..=4 unchanged); 4 —
/// per-report critical chain (count + length-prefixed labels, after
/// the utilization field); 5 — compact trace blocks (length-prefixed,
/// varint-encoded, front-coded interned strings, delta timestamps,
/// LZSS-compressed) enabling lazy per-entry decode.
///
/// Strictly additive tag values (new fault scenarios, platforms or
/// workloads appended past the existing range) do **not** bump the
/// version: old files decode unchanged, and an old reader facing a new
/// tag fails loudly as `Corrupted`, which the load path treats as a
/// cold cache.
pub const FORMAT_VERSION: u32 = 5;

/// Size of the fixed header preceding the payload.
const HEADER_LEN: usize = 44;

/// Why a snapshot could not be written or read back.
#[derive(Debug)]
pub enum PersistError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`]: not a snapshot at all.
    BadMagic,
    /// The file is a snapshot, but of a format this build cannot read.
    UnsupportedVersion {
        /// Version found in the file header.
        found: u32,
    },
    /// The snapshot was produced under a different harness calibration.
    FingerprintMismatch {
        /// Fingerprint of the harness trying to load the snapshot.
        expected: u64,
        /// Fingerprint recorded in the file header.
        found: u64,
    },
    /// The file ends before the encoded data does.
    Truncated,
    /// The payload bytes do not hash to the header's checksum.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the payload as read.
        found: u64,
    },
    /// The payload is structurally invalid (bad enum tag, non-UTF-8
    /// string, duplicate cell, trailing bytes, ...).
    Corrupted(&'static str),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            PersistError::BadMagic => write!(f, "not a voltascope snapshot (bad magic)"),
            PersistError::UnsupportedVersion { found } => {
                write!(f, "unsupported snapshot version {found} (this build reads {FORMAT_VERSION})")
            }
            PersistError::FingerprintMismatch { expected, found } => write!(
                f,
                "snapshot fingerprint {found:#018x} does not match harness {expected:#018x} (stale calibration)"
            ),
            PersistError::Truncated => write!(f, "snapshot file is truncated"),
            PersistError::ChecksumMismatch { expected, found } => write!(
                f,
                "snapshot payload checksum {found:#018x} does not match header {expected:#018x}"
            ),
            PersistError::Corrupted(what) => write!(f, "snapshot payload corrupted: {what}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl PersistError {
    /// `true` when the error just means "no snapshot exists yet" — the
    /// ordinary cold-start case, as opposed to a rejected file.
    pub fn is_missing_file(&self) -> bool {
        matches!(self, PersistError::Io(e) if e.kind() == std::io::ErrorKind::NotFound)
    }
}

/// Fingerprint of a harness configuration, recorded in every snapshot
/// header. Hashes the `Debug` rendering of the full [`Harness`] — the
/// system model (topology, GPU spec, kernel/API/NCCL cost models,
/// host-dispatch and P2P-issue costs, overlap flag, straggler factors),
/// the memory model, and the measurement protocol (reps, jitter sigma,
/// seed). Deliberately conservative: any calibration change, even one
/// that could not affect cached reports, invalidates old snapshots —
/// recomputing a grid is cheap next to silently reusing stale numbers.
pub fn harness_fingerprint(harness: &Harness) -> u64 {
    fnv1a(format!("{harness:?}").as_bytes())
}

/// Encodes `entries` as a complete snapshot byte image for
/// `fingerprint`, encoding every report's in-memory iteration trace.
/// Shorthand for [`encode_with_traces`] with [`TraceOut::Events`] on
/// every entry.
pub fn encode(fingerprint: u64, entries: &[(Cell, Arc<EpochReport>)]) -> Vec<u8> {
    let with_traces: Vec<(Cell, Arc<EpochReport>, TraceOut)> = entries
        .iter()
        .map(|(c, r)| (*c, r.clone(), TraceOut::Events))
        .collect();
    encode_with_traces(fingerprint, &with_traces)
}

/// How one entry's iteration trace reaches a snapshot being written.
#[derive(Debug, Clone)]
pub enum TraceOut {
    /// Encode the report's in-memory events as a compact trace block.
    Events,
    /// Copy an already-encoded block verbatim from a loaded snapshot,
    /// never decoding it — the warm re-save path for entries no trace
    /// consumer touched. Byte-identical to re-encoding, because the
    /// decoder only accepts canonical blocks.
    Raw(LazyTrace),
}

/// Encodes `entries` with an explicit per-entry trace source — the
/// most general encode front end ([`encode`] is a shorthand onto it).
///
/// Entries are canonicalised (sorted by encoded cell key) before
/// writing, so any permutation of the same cache encodes to identical
/// bytes.
pub fn encode_with_traces(
    fingerprint: u64,
    entries: &[(Cell, Arc<EpochReport>, TraceOut)],
) -> Vec<u8> {
    let mut encoded: Vec<(Vec<u8>, Vec<u8>)> = entries
        .iter()
        .map(|(cell, report, trace)| {
            let mut key = Vec::with_capacity(21);
            put_cell(&mut key, cell);
            let mut body = Vec::new();
            put_report(&mut body, report, trace);
            (key, body)
        })
        .collect();
    encoded.sort_by(|a, b| a.0.cmp(&b.0));

    let mut payload = Vec::new();
    for (key, body) in &encoded {
        payload.extend_from_slice(key);
        payload.extend_from_slice(body);
    }

    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(encoded.len() as u64).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Decodes a snapshot byte image, validating magic, version,
/// fingerprint, length and checksum before touching the payload.
///
/// This is the *eager* front end: every trace block is decoded into
/// events up front, so the whole payload is structurally validated.
/// The warm-start service uses [`load_entries_lazy`] instead.
pub fn decode(
    bytes: &[u8],
    expected_fingerprint: u64,
) -> Result<Vec<(Cell, Arc<EpochReport>)>, PersistError> {
    let image: Arc<[u8]> = bytes.to_vec().into();
    decode_entries_lazy(&image, expected_fingerprint)?
        .into_iter()
        .map(|(cell, report, block)| {
            let mut full = (*report).clone();
            full.iter_trace = block.decode()?;
            Ok((cell, Arc::new(full)))
        })
        .collect()
}

/// A still-encoded compact trace block: a window into a loaded
/// snapshot image that can be decoded on demand ([`LazyTrace::decode`])
/// or copied verbatim into a re-saved snapshot ([`TraceOut::Raw`]).
/// Cloning is cheap — the snapshot image is shared behind an `Arc`.
#[derive(Clone)]
pub struct LazyTrace {
    image: Arc<[u8]>,
    offset: usize,
    len: usize,
}

impl LazyTrace {
    /// The encoded block bytes (without the `u32` length prefix).
    pub fn raw(&self) -> &[u8] {
        &self.image[self.offset..self.offset + self.len]
    }

    /// Decodes the block into a trace. Deterministic: decoding twice
    /// yields equal traces, and re-encoding one reproduces
    /// [`LazyTrace::raw`] exactly.
    pub fn decode(&self) -> Result<Trace, PersistError> {
        decode_trace_block(self.raw())
    }

    /// Size of the encoded block in bytes.
    pub fn encoded_len(&self) -> usize {
        self.len
    }
}

impl fmt::Debug for LazyTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The image is the whole snapshot; print the window, not MBs
        // of shared bytes.
        f.debug_struct("LazyTrace")
            .field("offset", &self.offset)
            .field("len", &self.len)
            .finish()
    }
}

/// Validates the fixed header and returns the entry count; the caller
/// slices the payload at [`HEADER_LEN`].
fn validate_header(bytes: &[u8], expected_fingerprint: u64) -> Result<u64, PersistError> {
    if bytes.len() < HEADER_LEN {
        return Err(PersistError::Truncated);
    }
    if bytes[..8] != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 header bytes"));
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion { found: version });
    }
    let found_fp = u64::from_le_bytes(bytes[12..20].try_into().expect("8 header bytes"));
    if found_fp != expected_fingerprint {
        return Err(PersistError::FingerprintMismatch {
            expected: expected_fingerprint,
            found: found_fp,
        });
    }
    let count = u64::from_le_bytes(bytes[20..28].try_into().expect("8 header bytes"));
    let payload_len = u64::from_le_bytes(bytes[28..36].try_into().expect("8 header bytes"));
    let checksum = u64::from_le_bytes(bytes[36..44].try_into().expect("8 header bytes"));
    let payload = &bytes[HEADER_LEN..];
    match (payload.len() as u64).cmp(&payload_len) {
        std::cmp::Ordering::Less => return Err(PersistError::Truncated),
        std::cmp::Ordering::Greater => {
            return Err(PersistError::Corrupted("trailing bytes after payload"))
        }
        std::cmp::Ordering::Equal => {}
    }
    let found_sum = fnv1a(payload);
    if found_sum != checksum {
        return Err(PersistError::ChecksumMismatch {
            expected: checksum,
            found: found_sum,
        });
    }
    Ok(count)
}

/// Decodes a snapshot image lazily: cells and scalar report fields are
/// parsed eagerly (and the payload is checksum-validated as a whole),
/// but each trace block stays encoded as a [`LazyTrace`] window into
/// `image`. The returned reports carry *empty* `iter_trace`s — trace
/// consumers decode the [`LazyTrace`] when (and only when) they touch
/// a cell.
pub fn decode_entries_lazy(
    image: &Arc<[u8]>,
    expected_fingerprint: u64,
) -> Result<Vec<(Cell, Arc<EpochReport>, LazyTrace)>, PersistError> {
    let count = validate_header(image, expected_fingerprint)?;
    let payload = &image[HEADER_LEN..];
    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    let mut entries = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for _ in 0..count {
        let cell = take_cell(&mut r)?;
        if !seen.insert(cell) {
            return Err(PersistError::Corrupted("duplicate cell entry"));
        }
        let report = take_report_scalars(&mut r)?;
        if r.u8()? != 1 {
            return Err(PersistError::Corrupted("unknown trace tag"));
        }
        let len = r.u32()? as usize;
        r.take(len)?;
        let trace = LazyTrace {
            image: image.clone(),
            offset: HEADER_LEN + r.pos - len,
            len,
        };
        entries.push((cell, Arc::new(report), trace));
    }
    if r.pos != payload.len() {
        return Err(PersistError::Corrupted("payload longer than its entries"));
    }
    Ok(entries)
}

/// Reads and lazily decodes the snapshot at `path` (see
/// [`decode_entries_lazy`]).
pub fn load_entries_lazy(
    path: &Path,
    expected_fingerprint: u64,
) -> Result<Vec<(Cell, Arc<EpochReport>, LazyTrace)>, PersistError> {
    let image: Arc<[u8]> = fs::read(path)?.into();
    decode_entries_lazy(&image, expected_fingerprint)
}

/// Writes a snapshot atomically (see [`save_with_traces`]).
pub fn save(
    path: &Path,
    fingerprint: u64,
    entries: &[(Cell, Arc<EpochReport>)],
) -> Result<(), PersistError> {
    write_atomic(path, &encode(fingerprint, entries))
}

/// Writes a snapshot with explicit per-entry trace sources atomically
/// (see [`encode_with_traces`]): the image is assembled in memory,
/// written to a `.tmp` sibling, and renamed into place, so a crash
/// mid-save can never leave a half-written snapshot behind (a torn
/// write would be rejected by the checksum anyway).
pub fn save_with_traces(
    path: &Path,
    fingerprint: u64,
    entries: &[(Cell, Arc<EpochReport>, TraceOut)],
) -> Result<(), PersistError> {
    write_atomic(path, &encode_with_traces(fingerprint, entries))
}

fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads and eagerly decodes the snapshot at `path` (see [`decode`]).
/// A missing file surfaces as `PersistError::Io` with
/// [`PersistError::is_missing_file`] true.
pub fn load(
    path: &Path,
    expected_fingerprint: u64,
) -> Result<Vec<(Cell, Arc<EpochReport>)>, PersistError> {
    let bytes = fs::read(path)?;
    decode(&bytes, expected_fingerprint)
}

/// FNV-1a over a byte slice — the workspace's standard dependency-free
/// hash (the vendored proptest uses the same constants for seeding).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---- Field-level encoding ----

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

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

fn put_span(out: &mut Vec<u8>, s: SimSpan) {
    put_u64(out, s.as_nanos());
}

/// LEB128: 7 data bits per byte, little-endian, high bit set on every
/// byte but the last. Always emits the minimal-length (canonical)
/// encoding, which the reader enforces on the way back in.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Encodes `trace` as a compact v5 trace block (see the module docs'
/// layout table): a front-coded sorted string table plus varint event
/// tuples, LZSS-compressed behind a varint raw length. The table is the
/// strings the events use, sorted with equal strings merged, so equal
/// traces encode to equal bytes whatever order their own tables hold
/// the strings in — [`TraceOut::Raw`] copies and fresh encodes agree.
fn encode_trace_block(trace: &Trace) -> Vec<u8> {
    let table = trace.table();
    let mut used = vec![false; table.len()];
    for e in trace.indexed() {
        used[e.label as usize] = true;
        used[e.category as usize] = true;
        if let Some(r) = e.resource {
            used[r as usize] = true;
        }
    }
    let mut order: Vec<u32> = (0..table.len() as u32)
        .filter(|&i| used[i as usize])
        .collect();
    order.sort_unstable_by(|&a, &b| table[a].cmp(&table[b]));
    // `rank[i]`: the position of table string `i` in the sorted,
    // merged table.
    let mut rank = vec![0u64; table.len()];
    let mut strings: Vec<&str> = Vec::with_capacity(order.len());
    for &i in &order {
        let s = &table[i];
        if strings.last() != Some(&s) {
            strings.push(s);
        }
        rank[i as usize] = (strings.len() - 1) as u64;
    }

    let mut inner = Vec::new();
    put_varint(&mut inner, strings.len() as u64);
    // Front coding: ascending order makes neighbours share the long
    // `itN/<kernel>@GPUk` prefixes real traces are full of, so each
    // string costs only its distinct suffix.
    let mut prev: &[u8] = b"";
    for s in &strings {
        let bytes = s.as_bytes();
        let shared = prev.iter().zip(bytes).take_while(|(a, b)| a == b).count();
        put_varint(&mut inner, shared as u64);
        put_varint(&mut inner, (bytes.len() - shared) as u64);
        inner.extend_from_slice(&bytes[shared..]);
        prev = bytes;
    }
    put_varint(&mut inner, trace.len() as u64);
    let mut prev_start = 0u64;
    for e in trace.indexed() {
        put_varint(&mut inner, e.task.index() as u64);
        put_varint(&mut inner, rank[e.label as usize]);
        put_varint(&mut inner, rank[e.category as usize]);
        match e.resource {
            None => put_varint(&mut inner, 0),
            Some(r) => put_varint(&mut inner, rank[r as usize] + 1),
        }
        let start = e.start.as_nanos();
        // Wrapping delta: exact for any start order, tiny for the
        // sorted-by-start traces the simulator produces.
        put_varint(&mut inner, start.wrapping_sub(prev_start));
        prev_start = start;
        let dur = e
            .end
            .as_nanos()
            .checked_sub(start)
            .expect("trace event ends before it starts");
        put_varint(&mut inner, dur);
    }

    let mut out = Vec::new();
    put_varint(&mut out, inner.len() as u64);
    lzss_compress(&inner, &mut out);
    out
}

/// Minimum LZSS match length: shorter copies cost more than literals.
const LZSS_MIN_MATCH: usize = 4;
/// Farthest back the compressor looks for matches. The decompressor
/// accepts any in-bounds distance; this only bounds the search.
const LZSS_MAX_DIST: usize = 1 << 16;
/// How many hash-chain candidates the compressor tries per position —
/// a fixed cap keeps compression deterministic *and* linear-ish.
const LZSS_CHAIN_CAP: usize = 64;

/// Compresses `input` with the dependency-free LZSS coder described in
/// the module docs: control bytes over groups of eight tokens,
/// literal bytes, and varint `(distance, length - 4)` matches found by
/// greedy longest-match over hash chains. A pure function of `input`,
/// so re-encoding a decoded block reproduces the original bytes.
fn lzss_compress(input: &[u8], out: &mut Vec<u8>) {
    // Token staging: flush eight at a time behind their control byte.
    let mut control = 0u8;
    let mut ntok = 0usize;
    let mut staged = Vec::with_capacity(64);
    fn flush(out: &mut Vec<u8>, control: &mut u8, ntok: &mut usize, staged: &mut Vec<u8>) {
        if *ntok > 0 {
            out.push(*control);
            out.extend_from_slice(staged);
            *control = 0;
            *ntok = 0;
            staged.clear();
        }
    }

    let hash = |p: usize| -> usize {
        let w = u32::from_le_bytes(input[p..p + 4].try_into().expect("4 bytes"));
        (w.wrapping_mul(0x9E37_79B1) >> 16) as usize
    };
    const NIL: u32 = u32::MAX;
    let mut head = vec![NIL; 1 << 16];
    let mut chain = vec![NIL; input.len()];
    let insert = |head: &mut [u32], chain: &mut [u32], hash: &dyn Fn(usize) -> usize, p: usize| {
        if p + LZSS_MIN_MATCH <= input.len() {
            let h = hash(p);
            chain[p] = head[h];
            head[h] = p as u32;
        }
    };

    let mut pos = 0usize;
    while pos < input.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if pos + LZSS_MIN_MATCH <= input.len() {
            let mut cand = head[hash(pos)];
            let mut tries = LZSS_CHAIN_CAP;
            while cand != NIL && tries > 0 {
                let c = cand as usize;
                if pos - c > LZSS_MAX_DIST {
                    break;
                }
                let limit = input.len() - pos;
                let mut len = 0usize;
                while len < limit && input[c + len] == input[pos + len] {
                    len += 1;
                }
                if len > best_len {
                    best_len = len;
                    best_dist = pos - c;
                }
                cand = chain[c];
                tries -= 1;
            }
        }
        if best_len >= LZSS_MIN_MATCH {
            control |= 1 << ntok;
            put_varint(&mut staged, best_dist as u64);
            put_varint(&mut staged, (best_len - LZSS_MIN_MATCH) as u64);
            for p in pos..pos + best_len {
                insert(&mut head, &mut chain, &hash, p);
            }
            pos += best_len;
        } else {
            staged.push(input[pos]);
            insert(&mut head, &mut chain, &hash, pos);
            pos += 1;
        }
        ntok += 1;
        if ntok == 8 {
            flush(out, &mut control, &mut ntok, &mut staged);
        }
    }
    flush(out, &mut control, &mut ntok, &mut staged);
}

/// Decompresses an LZSS stream into exactly `expected_len` bytes,
/// rejecting malformed streams (zero or out-of-range distances,
/// output overruns, truncation, trailing bytes) as [`PersistError`]s.
fn lzss_decompress(r: &mut Reader<'_>, expected_len: usize) -> Result<Vec<u8>, PersistError> {
    // Cap the upfront allocation: `expected_len` is untrusted until
    // the stream actually produces it (growth past the cap is
    // geometric, so still linear overall).
    let mut out = Vec::with_capacity(expected_len.min(1 << 20));
    while out.len() < expected_len {
        let control = r.u8()?;
        let mut bit = 0;
        while bit < 8 && out.len() < expected_len {
            if control & (1 << bit) != 0 {
                let dist = r.varint()? as usize;
                if dist == 0 || dist > out.len() {
                    return Err(PersistError::Corrupted("LZSS distance out of range"));
                }
                let len = (r.varint()? as usize)
                    .checked_add(LZSS_MIN_MATCH)
                    .ok_or(PersistError::Corrupted("LZSS length overflow"))?;
                if out.len() + len > expected_len {
                    return Err(PersistError::Corrupted("LZSS output overrun"));
                }
                // Byte-by-byte: overlapping copies (dist < len) repeat
                // the just-written bytes, as in every LZ family.
                let from = out.len() - dist;
                for i in 0..len {
                    let b = out[from + i];
                    out.push(b);
                }
            } else {
                out.push(r.u8()?);
            }
            bit += 1;
        }
    }
    Ok(out)
}

fn put_cell(out: &mut Vec<u8>, cell: &Cell) {
    // Zoo workloads keep the frozen tags 0..=4; a data workload writes
    // tag 5 followed by its spec name, so snapshots survive registry
    // reordering (the name, not the index, is authoritative on disk).
    match cell.workload {
        WorkloadSel::Zoo(w) => put_u8(
            out,
            match w {
                Workload::LeNet => 0,
                Workload::AlexNet => 1,
                Workload::GoogLeNet => 2,
                Workload::InceptionV3 => 3,
                Workload::ResNet => 4,
            },
        ),
        WorkloadSel::Data(d) => {
            put_u8(out, 5);
            put_str(out, d.name());
        }
    }
    put_u8(
        out,
        match cell.comm {
            CommMethod::P2p => 0,
            CommMethod::Nccl => 1,
        },
    );
    put_u64(out, cell.batch as u64);
    put_u64(out, cell.gpus as u64);
    put_u8(
        out,
        match cell.scaling {
            ScalingMode::Strong => 0,
            ScalingMode::Weak => 1,
        },
    );
    put_u8(
        out,
        match cell.platform {
            Platform::Dgx1 => 0,
            Platform::SingleLane => 1,
            Platform::PcieOnly => 2,
            Platform::NvSwitch => 3,
            Platform::ForwardingGpus => 4,
        },
    );
    put_u8(
        out,
        match cell.fault {
            FaultScenario::Healthy => 0,
            FaultScenario::DeadNvLink => 1,
            FaultScenario::StragglerGpu => 2,
            FaultScenario::TwoStragglers => 3,
            FaultScenario::MidEpochDeadNvLink => 4,
            FaultScenario::MidEpochStraggler => 5,
        },
    );
}

fn put_report(out: &mut Vec<u8>, report: &EpochReport, trace: &TraceOut) {
    put_u64(out, report.iterations);
    put_span(out, report.iter_time);
    put_span(out, report.epoch_time);
    put_span(out, report.fp_bp_iter);
    put_span(out, report.wu_iter);
    put_u32(out, report.api_iter.len() as u32);
    for (category, span) in &report.api_iter {
        put_str(out, category);
        put_span(out, *span);
    }
    put_span(out, report.sync_wall_iter);
    put_u64(out, report.compute_utilization.to_bits());
    put_u32(out, report.critical_chain.len() as u32);
    for label in &report.critical_chain {
        put_str(out, label);
    }
    let block = match trace {
        TraceOut::Events => encode_trace_block(&report.iter_trace),
        TraceOut::Raw(lazy) => lazy.raw().to_vec(),
    };
    // The trace tag: always 1, kept so the v5 layout is unchanged (see
    // the module docs).
    put_u8(out, 1);
    put_u32(out, block.len() as u32);
    out.extend_from_slice(&block);
}

// ---- Field-level decoding ----

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self.pos.checked_add(n).ok_or(PersistError::Truncated)?;
        if end > self.bytes.len() {
            return Err(PersistError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn span(&mut self) -> Result<SimSpan, PersistError> {
        Ok(SimSpan::from_nanos(self.u64()?))
    }

    fn string(&mut self) -> Result<String, PersistError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| PersistError::Corrupted("non-UTF-8 string"))
    }

    /// Reads a LEB128 varint, rejecting non-minimal encodings and
    /// values past `u64::MAX` — only the canonical form the writer
    /// produces is accepted, which keeps re-encoding byte-identical.
    fn varint(&mut self) -> Result<u64, PersistError> {
        let mut v: u64 = 0;
        for i in 0..10 {
            let b = self.u8()?;
            let payload = (b & 0x7f) as u64;
            if i == 9 && payload > 1 {
                return Err(PersistError::Corrupted("varint overflows u64"));
            }
            v |= payload << (7 * i);
            if b & 0x80 == 0 {
                if i > 0 && b == 0 {
                    return Err(PersistError::Corrupted("non-canonical varint"));
                }
                return Ok(v);
            }
        }
        Err(PersistError::Corrupted("varint longer than 10 bytes"))
    }
}

/// Hard cap on a single decompressed trace block — far above any real
/// trace, low enough that a corrupt raw-length varint cannot drive an
/// absurd allocation before the stream is validated.
const MAX_RAW_BLOCK: usize = 1 << 30;

/// Decodes a compact v5 trace block (the bytes after the `u32` length
/// prefix): LZSS-decompress, then parse the inner layout straight into
/// the trace's columns, its string table being the stored one (already
/// sorted and merged). The inner decoder accepts only the canonical
/// form [`encode_trace_block`] emits — minimal varints, a strictly
/// ascending front-coded string table with maximal shared prefixes and
/// no unused strings, task ids that fit a [`TaskId`], no trailing bytes
/// — so decode → re-encode reproduces every writer-produced block
/// byte-identically.
fn decode_trace_block(block: &[u8]) -> Result<Trace, PersistError> {
    let mut outer = Reader {
        bytes: block,
        pos: 0,
    };
    let raw_len = outer.varint()? as usize;
    if raw_len > MAX_RAW_BLOCK {
        return Err(PersistError::Corrupted("trace block too large"));
    }
    let inner = lzss_decompress(&mut outer, raw_len)?;
    if outer.pos != block.len() {
        return Err(PersistError::Corrupted("trailing bytes in trace block"));
    }
    let mut r = Reader {
        bytes: &inner,
        pos: 0,
    };
    let table_len = r.varint()? as usize;
    let mut table = StringTable::new();
    // The string being decoded, built on its predecessor's bytes.
    let mut prev: Vec<u8> = Vec::new();
    let mut text_len = 0usize;
    for i in 0..table_len {
        let shared = r.varint()? as usize;
        let suffix_len = r.varint()? as usize;
        let suffix = r.take(suffix_len)?;
        if shared > prev.len() || (i == 0 && shared != 0) {
            return Err(PersistError::Corrupted("front-coded prefix out of range"));
        }
        // Canonical front coding: the stated prefix must be *maximal*
        // and the table strictly ascending — so after a shared prefix
        // the suffix must continue with a strictly greater byte, and
        // only a proper prefix extension may have `shared == prev.len()`.
        if i > 0 {
            match suffix.first() {
                None => return Err(PersistError::Corrupted("string table out of order")),
                Some(&b) => {
                    if shared < prev.len() && b <= prev[shared] {
                        return Err(PersistError::Corrupted("string table out of order"));
                    }
                }
            }
        }
        prev.truncate(shared);
        prev.extend_from_slice(suffix);
        text_len += prev.len();
        if text_len > u32::MAX as usize {
            return Err(PersistError::Corrupted("string table too large"));
        }
        let s =
            std::str::from_utf8(&prev).map_err(|_| PersistError::Corrupted("non-UTF-8 string"))?;
        table.push(s);
    }
    let count = r.varint()? as usize;
    let mut trace = Trace::with_table(table);
    trace.reserve(count.min(1 << 16));
    let mut used = vec![false; table_len];
    let mut lookup = |idx: u64| -> Result<u32, PersistError> {
        let used = usize::try_from(idx).ok().and_then(|i| used.get_mut(i));
        let used = used.ok_or(PersistError::Corrupted("string index out of range"))?;
        *used = true;
        Ok(idx as u32)
    };
    let mut prev_start = 0u64;
    for _ in 0..count {
        let task = u32::try_from(r.varint()?)
            .map_err(|_| PersistError::Corrupted("task id out of range"))?;
        let label = lookup(r.varint()?)?;
        let category = lookup(r.varint()?)?;
        let resource = match r.varint()? {
            0 => None,
            i => Some(lookup(i - 1)?),
        };
        let start = prev_start.wrapping_add(r.varint()?);
        prev_start = start;
        let end = start
            .checked_add(r.varint()?)
            .ok_or(PersistError::Corrupted("trace event overflows the clock"))?;
        trace.push_indexed(IndexedEvent {
            task: TaskId::from_index(task as usize),
            label,
            category,
            resource,
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
        });
    }
    if used.iter().any(|u| !u) {
        return Err(PersistError::Corrupted("unused interned string"));
    }
    if r.pos != inner.len() {
        return Err(PersistError::Corrupted("trailing bytes in trace block"));
    }
    Ok(trace)
}

fn take_cell(r: &mut Reader<'_>) -> Result<Cell, PersistError> {
    let workload = match r.u8()? {
        0 => WorkloadSel::Zoo(Workload::LeNet),
        1 => WorkloadSel::Zoo(Workload::AlexNet),
        2 => WorkloadSel::Zoo(Workload::GoogLeNet),
        3 => WorkloadSel::Zoo(Workload::InceptionV3),
        4 => WorkloadSel::Zoo(Workload::ResNet),
        5 => {
            // Resolved through the registry by name: a snapshot naming
            // a workload this process does not know is corrupt *for
            // this process* and falls back to recompute.
            let name = r.string()?;
            match workloads::find_data(&name) {
                Some(d) => WorkloadSel::Data(d),
                None => return Err(PersistError::Corrupted("unregistered data workload")),
            }
        }
        _ => return Err(PersistError::Corrupted("unknown workload tag")),
    };
    let comm = match r.u8()? {
        0 => CommMethod::P2p,
        1 => CommMethod::Nccl,
        _ => return Err(PersistError::Corrupted("unknown comm tag")),
    };
    let batch = r.u64()? as usize;
    let gpus = r.u64()? as usize;
    let scaling = match r.u8()? {
        0 => ScalingMode::Strong,
        1 => ScalingMode::Weak,
        _ => return Err(PersistError::Corrupted("unknown scaling tag")),
    };
    let platform = match r.u8()? {
        0 => Platform::Dgx1,
        1 => Platform::SingleLane,
        2 => Platform::PcieOnly,
        3 => Platform::NvSwitch,
        4 => Platform::ForwardingGpus,
        _ => return Err(PersistError::Corrupted("unknown platform tag")),
    };
    let fault = match r.u8()? {
        0 => FaultScenario::Healthy,
        1 => FaultScenario::DeadNvLink,
        2 => FaultScenario::StragglerGpu,
        3 => FaultScenario::TwoStragglers,
        4 => FaultScenario::MidEpochDeadNvLink,
        5 => FaultScenario::MidEpochStraggler,
        _ => return Err(PersistError::Corrupted("unknown fault tag")),
    };
    Ok(Cell {
        workload,
        comm,
        batch,
        gpus,
        scaling,
        platform,
        fault,
    })
}

/// Reads every scalar report field, stopping *before* the trace tag;
/// the returned report carries an empty `iter_trace` (the caller
/// attaches the trace eagerly or lazily).
fn take_report_scalars(r: &mut Reader<'_>) -> Result<EpochReport, PersistError> {
    let iterations = r.u64()?;
    let iter_time = r.span()?;
    let epoch_time = r.span()?;
    let fp_bp_iter = r.span()?;
    let wu_iter = r.span()?;
    let api_len = r.u32()?;
    let mut api_iter = BTreeMap::new();
    for _ in 0..api_len {
        let category = r.string()?;
        let span = r.span()?;
        if api_iter.insert(category, span).is_some() {
            return Err(PersistError::Corrupted("duplicate api category"));
        }
    }
    let sync_wall_iter = r.span()?;
    let compute_utilization = f64::from_bits(r.u64()?);
    let chain_len = r.u32()?;
    let mut critical_chain = Vec::with_capacity(chain_len.min(1 << 16) as usize);
    for _ in 0..chain_len {
        critical_chain.push(r.string()?);
    }
    Ok(EpochReport {
        iterations,
        iter_time,
        epoch_time,
        fp_bp_iter,
        wu_iter,
        api_iter,
        sync_wall_iter,
        compute_utilization,
        iter_trace: Trace::default(),
        critical_chain,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltascope_sim::TraceEvent;

    fn cell(batch: usize, gpus: usize) -> Cell {
        Cell {
            workload: Workload::LeNet.into(),
            comm: CommMethod::P2p,
            batch,
            gpus,
            scaling: ScalingMode::Strong,
            platform: Platform::Dgx1,
            fault: FaultScenario::Healthy,
        }
    }

    fn report(seed: u64) -> Arc<EpochReport> {
        let mut api_iter = BTreeMap::new();
        api_iter.insert("api.launch".to_string(), SimSpan::from_nanos(seed + 1));
        api_iter.insert("api.sync".to_string(), SimSpan::from_nanos(2 * seed + 7));
        Arc::new(EpochReport {
            iterations: seed + 3,
            iter_time: SimSpan::from_nanos(10 * seed + 5),
            epoch_time: SimSpan::from_nanos(100 * seed + 50),
            fp_bp_iter: SimSpan::from_nanos(6 * seed),
            wu_iter: SimSpan::from_nanos(4 * seed + 5),
            api_iter,
            sync_wall_iter: SimSpan::from_nanos(seed / 2),
            compute_utilization: 0.1 + (seed % 7) as f64 * 0.1,
            iter_trace: [TraceEvent {
                task: TaskId::from_index(seed as usize % 11),
                label: &format!("it1/k{seed}"),
                category: "fp",
                resource: (seed.is_multiple_of(2))
                    .then(|| format!("GPU{}.compute", seed % 8))
                    .as_deref(),
                start: SimTime::from_nanos(seed),
                end: SimTime::from_nanos(seed + 40),
            }]
            .into_iter()
            .collect(),
            critical_chain: vec![format!("k{seed}"), format!("sync.wu@gpu{}", seed % 8)],
        })
    }

    fn entries() -> Vec<(Cell, Arc<EpochReport>)> {
        vec![
            (cell(16, 1), report(1)),
            (cell(16, 2), report(2)),
            (cell(32, 4), report(3)),
        ]
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let fp = 0xdead_beef;
        let bytes = encode(fp, &entries());
        let decoded = decode(&bytes, fp).unwrap();
        assert_eq!(decoded.len(), 3);
        for ((c0, r0), (c1, r1)) in entries().iter().zip(decoded.iter()) {
            assert_eq!(c0, c1);
            assert_eq!(r0.iterations, r1.iterations);
            assert_eq!(r0.iter_time, r1.iter_time);
            assert_eq!(r0.epoch_time, r1.epoch_time);
            assert_eq!(r0.api_iter, r1.api_iter);
            assert_eq!(
                r0.compute_utilization.to_bits(),
                r1.compute_utilization.to_bits()
            );
            assert_eq!(r0.iter_trace.events(), r1.iter_trace.events());
        }
    }

    #[test]
    fn encoding_is_canonical_in_entry_order() {
        let fp = 7;
        let mut shuffled = entries();
        shuffled.reverse();
        assert_eq!(encode(fp, &entries()), encode(fp, &shuffled));
    }

    #[test]
    fn resave_is_byte_identical() {
        let fp = 99;
        let bytes = encode(fp, &entries());
        let decoded = decode(&bytes, fp).unwrap();
        assert_eq!(bytes, encode(fp, &decoded));
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let bytes = encode(5, &[]);
        assert_eq!(bytes.len(), HEADER_LEN);
        assert!(decode(&bytes, 5).unwrap().is_empty());
    }

    #[test]
    fn every_truncation_is_rejected_without_panicking() {
        let bytes = encode(1, &entries());
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut], 1).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn wrong_version_is_a_typed_error() {
        let mut bytes = encode(1, &entries());
        bytes[8] = bytes[8].wrapping_add(1);
        assert!(matches!(
            decode(&bytes, 1),
            Err(PersistError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn wrong_fingerprint_is_a_typed_error() {
        let bytes = encode(1, &entries());
        assert!(matches!(
            decode(&bytes, 2),
            Err(PersistError::FingerprintMismatch {
                expected: 2,
                found: 1
            })
        ));
    }

    #[test]
    fn payload_corruption_fails_the_checksum() {
        let mut bytes = encode(1, &entries());
        let mid = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
        bytes[mid] ^= 0xa5;
        assert!(matches!(
            decode(&bytes, 1),
            Err(PersistError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn duplicate_cells_are_rejected() {
        let dup = vec![(cell(16, 1), report(1)), (cell(16, 1), report(2))];
        let bytes = encode(1, &dup);
        assert!(matches!(
            decode(&bytes, 1),
            Err(PersistError::Corrupted("duplicate cell entry"))
        ));
    }

    #[test]
    fn missing_file_is_distinguishable_from_rejection() {
        let err = load(Path::new("/nonexistent/voltascope.snap"), 1).unwrap_err();
        assert!(err.is_missing_file());
        assert!(!PersistError::BadMagic.is_missing_file());
    }

    #[test]
    fn save_and_load_through_the_filesystem() {
        let path = std::env::temp_dir().join(format!(
            "voltascope-persist-unit-{}.snap",
            std::process::id()
        ));
        save(&path, 42, &entries()).unwrap();
        let loaded = load(&path, 42).unwrap();
        assert_eq!(loaded.len(), 3);
        // Stale fingerprint: rejected, file untouched.
        assert!(matches!(
            load(&path, 43),
            Err(PersistError::FingerprintMismatch { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unknown_trace_tag_is_corruption_not_panic() {
        // Flip the trace tag of the first (and only) entry to an
        // undefined value, refreshing the checksum so corruption is
        // caught by the structural check, not the hash. The tag sits
        // just before the entry's length-prefixed trace block, which
        // ends the payload.
        let report = report(4);
        let block_len = encode_trace_block(&report.iter_trace).len();
        let mut bytes = encode(1, &[(cell(16, 1), report)]);
        let tag_pos = bytes.len() - block_len - 5;
        assert_eq!(bytes[tag_pos], 1);
        bytes[tag_pos] = 9;
        let sum = fnv1a(&bytes[HEADER_LEN..]);
        bytes[36..44].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            decode(&bytes, 1),
            Err(PersistError::Corrupted("unknown trace tag"))
        ));
    }

    #[test]
    fn fingerprint_tracks_calibration_changes() {
        let base = Harness::paper();
        let mut tweaked = Harness::paper();
        tweaked.sys.host_dispatch = SimSpan::from_micros(131);
        assert_eq!(
            harness_fingerprint(&base),
            harness_fingerprint(&Harness::paper())
        );
        assert_ne!(harness_fingerprint(&base), harness_fingerprint(&tweaked));
    }

    #[test]
    fn lzss_roundtrips_adversarial_patterns() {
        let cases: Vec<Vec<u8>> = vec![
            Vec::new(),
            vec![7],
            vec![0; 100_000], // one long self-overlapping match
            (0..=255u8).cycle().take(70_000).collect(), // periodic
            (0..70_000u32)
                .map(|i| (i.wrapping_mul(0x9E37_79B1) >> 13) as u8)
                .collect(), // incompressible-ish
        ];
        for input in cases {
            let mut stream = Vec::new();
            lzss_compress(&input, &mut stream);
            let mut r = Reader {
                bytes: &stream,
                pos: 0,
            };
            let back = lzss_decompress(&mut r, input.len()).unwrap();
            assert_eq!(back, input);
            assert_eq!(r.pos, stream.len(), "whole stream must be consumed");
            // Determinism: a second compression of the same bytes is
            // identical (the re-save byte-identity contract rests on
            // this).
            let mut again = Vec::new();
            lzss_compress(&input, &mut again);
            assert_eq!(stream, again);
        }
    }

    /// A v5 block written by the event-list codec this one replaced,
    /// for the events of [`pinned_events`].
    const PINNED_BLOCK: [u8; 175] = [
        173, 1, 0, 11, 0, 0, 0, 12, 71, 80, 85, 0, 48, 46, 99, 111, 109, 112, 117, 116, 0, 101, 3,
        6, 49, 46, 104, 111, 115, 0, 116, 0, 20, 97, 112, 105, 46, 99, 0, 117, 100, 97, 76, 97,
        117, 110, 99, 0, 104, 75, 101, 114, 110, 101, 108, 0, 0, 2, 102, 112, 0, 17, 105, 116, 49,
        0, 47, 102, 112, 46, 99, 111, 110, 118, 68, 49, 64, 61, 0, 4, 6, 107, 8, 0, 49, 128, 0, 14,
        108, 105, 110, 107, 46, 19, 0, 2, 62, 16, 1, 9, 119, 117, 46, 117, 112, 0, 100, 97, 116,
        101, 3, 2, 195, 168, 0, 4, 1, 169, 6, 3, 4, 4, 2, 0, 100, 50, 1, 6, 0, 0, 206, 255, 1, 1,
        3, 1, 0, 2, 6, 3, 3, 25, 0, 15, 7, 5, 4, 2, 125, 191, 171, 0, 75, 172, 2, 10, 8, 2, 191,
        171, 0, 75, 0, 173, 2, 9, 8, 8, 249, 4, 210, 180, 39, 3, 9,
    ];

    /// A label equal to a category, two events with one label, an
    /// empty category, an event without a resource, out-of-order
    /// starts, zero-length events, and two labels whose shared prefix
    /// ends inside a UTF-8 character.
    fn pinned_events() -> [TraceEvent<'static>; 6] {
        let ev = |task, label, category, resource, start, end| TraceEvent {
            task: TaskId::from_index(task),
            label,
            category,
            resource,
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
        };
        let (gpu0, gpu1) = (Some("GPU0.compute"), Some("GPU1.host"));
        [
            ev(3, "fp", "fp", gpu0, 100, 150),
            ev(1, "it1/k@GPU1", "", None, 50, 50),
            ev(2, "it1/k@GPU1", "api.cudaLaunchKernel", gpu1, 75, 90),
            ev(7, "it1/fp.conv1@GPU0", "fp", gpu0, 200, 1_234_567),
            ev(300, "wu.\u{e9}", "wu.update", gpu0, 1_234_567, 1_234_567),
            ev(301, "wu.\u{e8}", "wu.update", Some("link.GPU0>GPU1"), 0, 9),
        ]
    }

    #[test]
    fn trace_blocks_keep_their_pinned_bytes() {
        let events = pinned_events();
        // One table entry per distinct string...
        let interned: Trace = events.into_iter().collect();
        // ...and, as the engine builds them, one per label with every
        // category and resource stored once, in event order.
        let mut table = StringTable::new();
        let mut once: Vec<(&str, u32)> = Vec::new();
        let mut stored_once =
            |table: &mut StringTable, s: &'static str| match once.iter().find(|(o, _)| *o == s) {
                Some(&(_, i)) => i,
                None => {
                    let i = table.push(s);
                    once.push((s, i));
                    i
                }
            };
        let rows: Vec<IndexedEvent> = events
            .iter()
            .map(|e| IndexedEvent {
                task: e.task,
                label: table.push(e.label),
                category: stored_once(&mut table, e.category),
                resource: e.resource.map(|r| stored_once(&mut table, r)),
                start: e.start,
                end: e.end,
            })
            .collect();
        let mut per_label = Trace::with_table(table);
        for row in rows {
            per_label.push_indexed(row);
        }
        assert_eq!(per_label, interned);
        for trace in [&interned, &per_label] {
            assert_eq!(encode_trace_block(trace), PINNED_BLOCK);
        }
        let decoded = decode_trace_block(&PINNED_BLOCK).unwrap();
        assert_eq!(decoded, interned);
        assert_eq!(decoded.events(), per_label.events());
        // The stored table is sorted and merged; the fresh ones are not.
        assert_eq!(decoded.table().len(), 11);
        assert_ne!(decoded.table(), interned.table());
        assert_eq!(encode_trace_block(&decoded), PINNED_BLOCK);
        // One changed label is a different trace.
        let mut changed = events;
        changed[3].label = "it1/fp.conv2@GPU0";
        let changed: Trace = changed.into_iter().collect();
        assert_ne!(decoded.events(), changed.events());
    }

    #[test]
    fn task_ids_past_u32_are_corruption() {
        // One string "a", one event with task id 2^32.
        let mut inner = vec![0x01, 0x00, 0x01, b'a', 0x01];
        put_varint(&mut inner, 1 << 32);
        inner.extend_from_slice(&[0x00, 0x00, 0x00, 0x00, 0x00]);
        let mut block = Vec::new();
        put_varint(&mut block, inner.len() as u64);
        lzss_compress(&inner, &mut block);
        assert!(matches!(
            decode_trace_block(&block),
            Err(PersistError::Corrupted("task id out of range"))
        ));
    }

    #[test]
    fn malformed_lzss_streams_are_typed_errors() {
        // A match whose distance reaches before the start of the
        // output: raw_len 1, control byte marking token 0 a match,
        // distance 1 into an empty output.
        let block = [0x01, 0x01, 0x01, 0x00];
        assert!(matches!(
            decode_trace_block(&block),
            Err(PersistError::Corrupted(_))
        ));
        // Truncated stream: raw_len 5 but only one literal present.
        let block = [0x05, 0x00, b'a'];
        assert!(matches!(
            decode_trace_block(&block),
            Err(PersistError::Truncated)
        ));
        // Output overrun: four literals then a length-4 match would
        // produce 8 bytes against a stated raw length of 5.
        let block = [0x05, 0x10, b'a', b'b', b'c', b'd', 0x01, 0x00];
        assert!(matches!(
            decode_trace_block(&block),
            Err(PersistError::Corrupted(_))
        ));
    }

    #[test]
    fn non_canonical_string_tables_are_rejected() {
        // Build inner images by hand, wrap them in the real outer
        // framing, and check the strict table rules fire.
        let wrap = |inner: &[u8]| {
            let mut block = Vec::new();
            put_varint(&mut block, inner.len() as u64);
            lzss_compress(inner, &mut block);
            block
        };
        // Descending order: "b" then "a".
        let inner = [0x02, 0x00, 0x01, b'b', 0x00, 0x01, b'a'];
        assert!(matches!(
            decode_trace_block(&wrap(&inner)),
            Err(PersistError::Corrupted("string table out of order"))
        ));
        // Non-maximal shared prefix: "ab" then "ac" encoded with
        // shared = 0 instead of 1 ("a" < "ab" would re-encode
        // differently, so the canonical form requires shared = 1).
        let inner = [0x02, 0x00, 0x02, b'a', b'b', 0x00, 0x02, b'a', b'c'];
        assert!(matches!(
            decode_trace_block(&wrap(&inner)),
            Err(PersistError::Corrupted("string table out of order"))
        ));
        // Duplicate string: "a" twice (shared = 1, empty suffix).
        let inner = [0x02, 0x00, 0x01, b'a', 0x01, 0x00];
        assert!(matches!(
            decode_trace_block(&wrap(&inner)),
            Err(PersistError::Corrupted("string table out of order"))
        ));
        // Shared prefix longer than the previous string.
        let inner = [0x02, 0x00, 0x01, b'a', 0x02, 0x01, b'b'];
        assert!(matches!(
            decode_trace_block(&wrap(&inner)),
            Err(PersistError::Corrupted("front-coded prefix out of range"))
        ));
    }
}
