//! The durable layout of the segmented update pipeline: versioned,
//! CRC-checked manifests, the `CURRENT` pointer, and per-segment document
//! sidecars.
//!
//! A durable pipeline directory looks like:
//!
//! ```text
//! dir/
//!   CURRENT               → "MANIFEST-<seq>\n" (the atomic publish point)
//!   MANIFEST-<seq>        segment ids + per-segment tombstones, CRC32
//!   seg-<id>/             one sealed segment
//!     store/…             the engine (PR 3 crash-safe layout)
//!     docs.bin            document sources (compaction rebuilds), CRC32
//! ```
//!
//! Every mutation follows the same discipline: build everything off to
//! the side (a new `seg-<id>/` through the staged-write + fsync + rename
//! machinery, a new `MANIFEST-<seq>` through write-tmp + fsync + rename),
//! then publish with a single atomic rename of `CURRENT`. A crash before
//! the `CURRENT` swap strands unreferenced files that the next open
//! garbage-collects; it can never strand a half-published state, because
//! recovery treats a valid `CURRENT` as authoritative — deliberately *not*
//! "highest manifest wins": a manifest whose `CURRENT` swap never landed
//! was never published, and reopening must surface the last state a
//! reader could have observed.

use crate::snapshot::DocSource;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use xrank_storage::crc32;
use xrank_storage::wire::{get_str, get_u32, get_u64, put_str, put_u32, put_u64};

const MANIFEST_MAGIC: &[u8; 4] = b"XRKM";
const MANIFEST_VERSION: u32 = 1;
const DOCS_MAGIC: &[u8; 4] = b"XRKD";
const DOCS_VERSION: u32 = 1;

/// The `CURRENT` pointer file.
pub(crate) const CURRENT_FILE: &str = "CURRENT";
/// Per-segment document-source sidecar inside `seg-<id>/`.
pub(crate) const DOCS_FILE: &str = "docs.bin";

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("update manifest: {msg}"))
}

/// `MANIFEST-<seq>` (fixed-width so lexicographic order is seq order).
pub(crate) fn manifest_name(seq: u64) -> String {
    format!("MANIFEST-{seq:016}")
}

/// `seg-<id>` directory name.
pub(crate) fn segment_dir_name(id: u64) -> String {
    format!("seg-{id:08}")
}

/// One segment as the manifest records it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ManifestSegment {
    /// Segment id (names `seg-<id>/`).
    pub id: u64,
    /// URIs deleted from this segment since it sealed (sorted).
    pub tombstones: Vec<String>,
}

/// A parsed manifest: the full published state at one sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ManifestData {
    pub seq: u64,
    /// Oldest segment first.
    pub segments: Vec<ManifestSegment>,
}

/// Serializes and durably writes `MANIFEST-<seq>` (tmp + fsync + rename +
/// dir fsync). Does NOT publish it — that is [`publish_current`]'s single
/// atomic step.
pub(crate) fn write_manifest(dir: &Path, data: &ManifestData) -> io::Result<PathBuf> {
    let mut body = Vec::new();
    body.extend_from_slice(MANIFEST_MAGIC);
    put_u32(&mut body, MANIFEST_VERSION)?;
    put_u64(&mut body, data.seq)?;
    put_u32(&mut body, data.segments.len() as u32)?;
    for seg in &data.segments {
        put_u64(&mut body, seg.id)?;
        put_u32(&mut body, seg.tombstones.len() as u32)?;
        for t in &seg.tombstones {
            put_str(&mut body, t)?;
        }
    }
    let crc = crc32(&body);
    put_u32(&mut body, crc)?;

    let path = dir.join(manifest_name(data.seq));
    let tmp = dir.join(format!("{}.tmp", manifest_name(data.seq)));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&body)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, &path)?;
    crate::persist::fsync_dir(dir)?;
    Ok(path)
}

/// Reads and CRC-verifies a manifest file.
pub(crate) fn read_manifest(path: &Path) -> io::Result<ManifestData> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < 4 {
        return Err(bad("truncated"));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(tail.try_into().expect("4-byte tail"));
    if crc32(body) != stored {
        return Err(bad("checksum mismatch"));
    }
    let mut r = body;
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MANIFEST_MAGIC {
        return Err(bad("bad magic"));
    }
    let version = get_u32(&mut r)?;
    if version != MANIFEST_VERSION {
        return Err(bad(&format!("unsupported version {version}")));
    }
    let seq = get_u64(&mut r)?;
    let n = get_u32(&mut r)?;
    let mut segments = Vec::with_capacity(n.min(1 << 20) as usize);
    for _ in 0..n {
        let id = get_u64(&mut r)?;
        let nt = get_u32(&mut r)?;
        let mut tombstones = Vec::with_capacity(nt.min(1 << 20) as usize);
        for _ in 0..nt {
            tombstones.push(get_str(&mut r)?);
        }
        segments.push(ManifestSegment { id, tombstones });
    }
    if !r.is_empty() {
        return Err(bad("trailing bytes"));
    }
    Ok(ManifestData { seq, segments })
}

/// Atomically repoints `CURRENT` at `MANIFEST-<seq>`: write `CURRENT.tmp`,
/// fsync, rename over `CURRENT`, fsync the directory. The rename is the
/// pipeline's commit point — before it readers (and recovery) see the
/// previous state, after it the new one, never a mix.
pub(crate) fn publish_current(dir: &Path, seq: u64) -> io::Result<()> {
    let tmp = dir.join("CURRENT.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(manifest_name(seq).as_bytes())?;
        f.write_all(b"\n")?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, dir.join(CURRENT_FILE))?;
    crate::persist::fsync_dir(dir)
}

/// The sequence number `CURRENT` points at, if `CURRENT` exists, parses,
/// and names a readable manifest file.
fn current_seq(dir: &Path) -> Option<u64> {
    let text = std::fs::read_to_string(dir.join(CURRENT_FILE)).ok()?;
    let name = text.trim();
    let seq: u64 = name.strip_prefix("MANIFEST-")?.parse().ok()?;
    (manifest_name(seq) == name).then_some(seq)
}

/// Every `MANIFEST-<seq>` present in `dir`, ascending.
fn manifest_seqs(dir: &Path) -> Vec<u64> {
    let mut seqs: Vec<u64> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let seq: u64 = name.strip_prefix("MANIFEST-")?.parse().ok()?;
            (manifest_name(seq) == name).then_some(seq)
        })
        .collect();
    seqs.sort_unstable();
    seqs
}

/// Every `seg-<id>/` directory present in `dir`, ascending.
pub(crate) fn segment_ids(dir: &Path) -> Vec<u64> {
    let mut ids: Vec<u64> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let id: u64 = name.strip_prefix("seg-")?.parse().ok()?;
            (segment_dir_name(id) == name && e.path().is_dir()).then_some(id)
        })
        .collect();
    ids.sort_unstable();
    ids
}

/// Recovery: the last *published* manifest. A valid `CURRENT` is
/// authoritative; only when it is missing or its manifest is unreadable
/// does the scan fall back to the newest readable manifest (and then
/// keeps walking backwards past corrupt ones). `Ok(None)` means a fresh
/// directory.
pub(crate) fn load_published(dir: &Path) -> io::Result<Option<ManifestData>> {
    if let Some(seq) = current_seq(dir) {
        match read_manifest(&dir.join(manifest_name(seq))) {
            Ok(m) if m.seq == seq => return Ok(Some(m)),
            Ok(_) => return Err(bad("CURRENT names a manifest with a different seq")),
            Err(_) => {} // fall through to the scan
        }
    }
    for seq in manifest_seqs(dir).into_iter().rev() {
        if let Ok(m) = read_manifest(&dir.join(manifest_name(seq))) {
            if m.seq == seq {
                return Ok(Some(m));
            }
        }
    }
    Ok(None)
}

/// The next safe (seq, segment-id) counters after recovery: strictly
/// above every file on disk, published or stranded, so an orphaned
/// `MANIFEST-7` from a pre-crash attempt is never silently shadowed by a
/// new, different manifest of the same name.
pub(crate) fn next_counters(dir: &Path, published: &Option<ManifestData>) -> (u64, u64) {
    let max_seq = manifest_seqs(dir)
        .last()
        .copied()
        .max(published.as_ref().map(|m| m.seq))
        .unwrap_or(0);
    let max_seg = segment_ids(dir)
        .last()
        .copied()
        .max(published.as_ref().and_then(|m| m.segments.iter().map(|s| s.id).max()))
        .unwrap_or(0);
    (max_seq + 1, max_seg + 1)
}

/// Best-effort garbage collection. Keeps the published manifest
/// (`keep_seq`) plus the newest one below it — so if the published
/// manifest is later found corrupt, recovery has a valid fallback — and
/// the segment directories either of them references. Everything else
/// goes: older manifests, manifests *above* `keep_seq` (sealed but never
/// published — a stranded pre-crash write that must not resurface), and
/// unreferenced segment directories. Failures are ignored — GC re-runs at
/// every publish and open, and an un-collected file is only wasted space,
/// never a correctness hazard.
pub(crate) fn gc(dir: &Path, keep_seq: u64, live_segs: &[u64]) {
    let seqs = manifest_seqs(dir);
    let prev_seq = seqs.iter().rev().find(|&&s| s < keep_seq).copied();
    let mut keep_segs: Vec<u64> = live_segs.to_vec();
    if let Some(ps) = prev_seq {
        if let Ok(m) = read_manifest(&dir.join(manifest_name(ps))) {
            keep_segs.extend(m.segments.iter().map(|s| s.id));
        }
    }
    for seq in seqs {
        if seq != keep_seq && Some(seq) != prev_seq {
            let _ = std::fs::remove_file(dir.join(manifest_name(seq)));
        }
    }
    for id in segment_ids(dir) {
        if !keep_segs.contains(&id) {
            let _ = std::fs::remove_dir_all(dir.join(segment_dir_name(id)));
        }
    }
    // Stranded tmp files from interrupted writes.
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        if let Ok(name) = entry.file_name().into_string() {
            if name.ends_with(".tmp") {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

/// Durably writes a segment's document-source sidecar (`docs.bin`).
/// Written *before* the segment seals, so a sealed segment always carries
/// its sources; CRC-checked on read like everything else in the layout.
pub(crate) fn write_docs_sidecar(
    seg_dir: &Path,
    docs: &BTreeMap<String, DocSource>,
) -> io::Result<()> {
    let mut body = Vec::new();
    body.extend_from_slice(DOCS_MAGIC);
    put_u32(&mut body, DOCS_VERSION)?;
    put_u32(&mut body, docs.len() as u32)?;
    for (uri, src) in docs {
        let (kind, text) = match src {
            DocSource::Xml(s) => (0u8, s),
            DocSource::Html(s) => (1u8, s),
        };
        body.push(kind);
        put_str(&mut body, uri)?;
        put_str(&mut body, text)?;
    }
    let crc = crc32(&body);
    put_u32(&mut body, crc)?;
    let path = seg_dir.join(DOCS_FILE);
    let mut f = std::fs::File::create(&path)?;
    f.write_all(&body)?;
    f.sync_all()?;
    crate::persist::fsync_dir(seg_dir)
}

/// Reads and CRC-verifies a segment's `docs.bin`.
pub(crate) fn read_docs_sidecar(seg_dir: &Path) -> io::Result<BTreeMap<String, DocSource>> {
    let bytes = std::fs::read(seg_dir.join(DOCS_FILE))?;
    if bytes.len() < 4 {
        return Err(bad("docs sidecar truncated"));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(tail.try_into().expect("4-byte tail"));
    if crc32(body) != stored {
        return Err(bad("docs sidecar checksum mismatch"));
    }
    let mut r = body;
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != DOCS_MAGIC {
        return Err(bad("docs sidecar bad magic"));
    }
    let version = get_u32(&mut r)?;
    if version != DOCS_VERSION {
        return Err(bad(&format!("docs sidecar unsupported version {version}")));
    }
    let n = get_u32(&mut r)?;
    let mut docs = BTreeMap::new();
    for _ in 0..n {
        let mut kind = [0u8; 1];
        r.read_exact(&mut kind)?;
        let uri = get_str(&mut r)?;
        let text = get_str(&mut r)?;
        let src = match kind[0] {
            0 => DocSource::Xml(text),
            1 => DocSource::Html(text),
            k => return Err(bad(&format!("docs sidecar bad kind {k}"))),
        };
        docs.insert(uri, src);
    }
    if !r.is_empty() {
        return Err(bad("docs sidecar trailing bytes"));
    }
    Ok(docs)
}
