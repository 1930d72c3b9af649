//! # permsearch-store
//!
//! The versioned binary snapshot container that lets any built index be
//! saved to disk and reloaded without rebuilding.
//!
//! Index structures serialize themselves through
//! [`permsearch_core::Snapshot`]; this crate wraps those flat payloads in a
//! self-identifying container so files on disk are safe to open years
//! later:
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------
//!      0     4  magic  b"PSNP"
//!      4     2  format version, little-endian u16 (currently 3)
//!      6     2  kind length K, little-endian u16
//!      8     K  kind, UTF-8 (e.g. "dataset", "index:napp", "manifest")
//!    8+K     8  payload length N, little-endian u64
//!   16+K     N  payload (the Snapshot codec's flat byte stream)
//!  16+K+N    8  FNV-1a 64 checksum of all preceding bytes
//! ```
//!
//! Properties the serving layer relies on:
//!
//! * **Tamper/corruption evidence** — the trailing checksum covers header
//!   and payload; a flipped byte anywhere surfaces as
//!   [`SnapshotError::ChecksumMismatch`], a short file as
//!   [`SnapshotError::Truncated`]. Nothing is ever half-loaded.
//! * **Version policy** — readers accept any version `<=` their own
//!   [`FORMAT_VERSION`] (old files keep working); a file from the future
//!   is refused with [`SnapshotError::UnsupportedVersion`] instead of
//!   being misparsed. Bump the version whenever a payload layout changes.
//! * **Kind tags** — every file says what it contains, so a dataset
//!   snapshot handed to an index loader fails with
//!   [`SnapshotError::KindMismatch`] rather than decoding garbage.
//! * **Atomic writes** — [`save_to_file`] writes `<path>.tmp` and renames,
//!   so a crash mid-save never leaves a truncated file under the final
//!   name.

use std::fs;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

use permsearch_core::snapshot::corrupt;
use permsearch_core::{Dataset, PointCodec, Snapshot, SnapshotError};

pub mod journal;

pub use journal::{
    append_journal, create_journal, read_journal, recover_journal, JournalError, JournalRecord,
    JournalWriter, JOURNAL_MAGIC, JOURNAL_VERSION, MAX_RECORD_BYTES,
};

/// First four bytes of every snapshot file.
pub const MAGIC: [u8; 4] = *b"PSNP";

/// Container format version written by this build; readers accept any
/// version up to and including it.
///
/// * **v1** — dataset payloads are a tag-less per-point sequence.
/// * **v2** — dataset payloads start with a tag byte; arena-backed dense
///   datasets serialize as one flat row-major `f32` block (tag 1), read
///   back with a handful of large sequential reads and the arena
///   reattached. Index payloads are unchanged. v1 files remain readable.
/// * **v3** — dense datasets carrying the SQ8 quantized tier
///   serialize it after the flat block (tag 2: per-dim mins and scales,
///   per-row dequantized norms, then the raw code bytes), and the tier is
///   reattached on load. Tag-0/tag-1 payloads and index payloads are
///   unchanged. v1 and v2 files remain readable.
pub const FORMAT_VERSION: u16 = 3;

/// Kind tag used for [`Dataset`] snapshots.
pub const DATASET_KIND: &str = "dataset";

/// A parsed container: the kind tag plus the verified payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Container {
    /// Content tag, e.g. `"dataset"` or `"index:napp"`.
    pub kind: String,
    /// Format version the file was written with.
    pub version: u16,
    /// The checksum-verified payload bytes.
    pub payload: Vec<u8>,
}

/// Header metadata of a snapshot file, as reported by [`inspect`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Content tag.
    pub kind: String,
    /// Format version.
    pub version: u16,
    /// Payload size in bytes.
    pub payload_bytes: usize,
    /// Whether the trailing checksum matches the file contents.
    pub checksum_ok: bool,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into a running FNV-1a 64 state.
fn fnv1a64_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64-bit hash — the container checksum. Not cryptographic; it
/// detects corruption, not adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_update(FNV_OFFSET, bytes)
}

/// Frame `payload` in a container and write it to `w`.
pub fn write_container<W: Write + ?Sized>(
    w: &mut W,
    kind: &str,
    payload: &[u8],
) -> Result<(), SnapshotError> {
    let kind_len =
        u16::try_from(kind.len()).map_err(|_| corrupt("kind tag longer than 65535 bytes"))?;
    let mut head = Vec::with_capacity(16 + kind.len());
    head.extend_from_slice(&MAGIC);
    head.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    head.extend_from_slice(&kind_len.to_le_bytes());
    head.extend_from_slice(kind.as_bytes());
    head.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    // Continue the running hash over the payload without concatenating.
    let checksum = fnv1a64_update(fnv1a64(&head), payload);
    w.write_all(&head)?;
    w.write_all(payload)?;
    w.write_all(&checksum.to_le_bytes())?;
    Ok(())
}

/// Read a container from `r`, verifying magic, version and checksum.
pub fn read_container<R: Read + ?Sized>(r: &mut R) -> Result<Container, SnapshotError> {
    let (container, stored, computed) = read_container_unverified(r)?;
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }
    Ok(container)
}

/// Read a container but report the checksums instead of enforcing them
/// (magic, version and framing are still enforced). `inspect` builds on
/// this to describe corrupt files instead of erroring on them.
fn read_container_unverified<R: Read + ?Sized>(
    r: &mut R,
) -> Result<(Container, u64, u64), SnapshotError> {
    let mut seen: Vec<u8> = Vec::with_capacity(64);
    let mut magic = [0u8; 4];
    read_exact(r, &mut magic, "container magic")?;
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic { found: magic });
    }
    seen.extend_from_slice(&magic);
    let version = read_fixed::<2, R>(r, &mut seen, "container version").map(u16::from_le_bytes)?;
    if version > FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let kind_len = read_fixed::<2, R>(r, &mut seen, "kind length").map(u16::from_le_bytes)?;
    let mut kind_bytes = vec![0u8; kind_len as usize];
    read_exact(r, &mut kind_bytes, "kind tag")?;
    seen.extend_from_slice(&kind_bytes);
    let kind = String::from_utf8(kind_bytes).map_err(|_| corrupt("kind tag is not UTF-8"))?;
    let payload_len = read_fixed::<8, R>(r, &mut seen, "payload length").map(u64::from_le_bytes)?;
    let payload_len = usize::try_from(payload_len)
        .map_err(|_| corrupt("payload length exceeds the address space"))?;
    let mut checksum = fnv1a64(&seen);
    // Stream the payload in bounded chunks, hashing as we go, so a corrupt
    // length cannot trigger a huge up-front allocation.
    let mut payload = Vec::with_capacity(payload_len.min(1 << 20));
    let mut chunk = [0u8; 8192];
    let mut remaining = payload_len;
    while remaining > 0 {
        let take = remaining.min(chunk.len());
        read_exact(r, &mut chunk[..take], "container payload")?;
        checksum = fnv1a64_update(checksum, &chunk[..take]);
        payload.extend_from_slice(&chunk[..take]);
        remaining -= take;
    }
    let mut stored = [0u8; 8];
    read_exact(r, &mut stored, "container checksum")?;
    Ok((
        Container {
            kind,
            version,
            payload,
        },
        u64::from_le_bytes(stored),
        checksum,
    ))
}

fn read_exact<R: Read + ?Sized>(
    r: &mut R,
    buf: &mut [u8],
    context: &'static str,
) -> Result<(), SnapshotError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            SnapshotError::Truncated { context }
        } else {
            SnapshotError::Io(e)
        }
    })
}

fn read_fixed<const N: usize, R: Read + ?Sized>(
    r: &mut R,
    seen: &mut Vec<u8>,
    context: &'static str,
) -> Result<[u8; N], SnapshotError> {
    let mut buf = [0u8; N];
    read_exact(r, &mut buf, context)?;
    seen.extend_from_slice(&buf);
    Ok(buf)
}

/// Verify that a container carries the expected kind.
pub fn expect_kind(container: &Container, expected: &str) -> Result<(), SnapshotError> {
    if container.kind != expected {
        return Err(SnapshotError::KindMismatch {
            expected: expected.to_string(),
            found: container.kind.clone(),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Byte-buffer and file conveniences.
// ---------------------------------------------------------------------------

/// Build a container in memory from a payload-writing closure.
pub fn to_vec(
    kind: &str,
    write_payload: impl FnOnce(&mut Vec<u8>) -> Result<(), SnapshotError>,
) -> Result<Vec<u8>, SnapshotError> {
    let mut payload = Vec::new();
    write_payload(&mut payload)?;
    let mut out = Vec::with_capacity(payload.len() + 64);
    write_container(&mut out, kind, &payload)?;
    Ok(out)
}

/// Write a container to `path` atomically: the bytes land in a temp file
/// first and are renamed into place only when complete. The temp name is
/// unique per writer (pid + counter), so concurrent cold starts of the
/// same deployment directory cannot tear each other's in-flight writes —
/// last rename wins with a complete file either way.
pub fn save_to_file(
    path: &Path,
    kind: &str,
    write_payload: impl FnOnce(&mut Vec<u8>) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    static TMP_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let bytes = to_vec(kind, write_payload)?;
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    // One cleanup path for every failure mode after the temp file may
    // exist: a partial write (disk full, I/O error) must not leak the
    // temp file any more than a failed rename does.
    let result = fs::write(&tmp, &bytes).and_then(|()| fs::rename(&tmp, path));
    if let Err(e) = result {
        let _ = fs::remove_file(&tmp);
        return Err(e.into());
    }
    Ok(())
}

/// Error unless `r` is exhausted: one file/buffer holds exactly one
/// container, so appended garbage is corruption evidence, not slack.
fn expect_eof<R: Read + ?Sized>(r: &mut R) -> Result<(), SnapshotError> {
    let mut probe = [0u8; 1];
    match r.read(&mut probe)? {
        0 => Ok(()),
        _ => Err(corrupt("trailing bytes after the container checksum")),
    }
}

/// Read and verify a container from `path`, checking the kind tag when one
/// is expected. The container must span the whole file.
pub fn load_from_file(
    path: &Path,
    expected_kind: Option<&str>,
) -> Result<Container, SnapshotError> {
    let mut file = std::io::BufReader::new(fs::File::open(path)?);
    let container = read_container(&mut file)?;
    expect_eof(&mut file)?;
    if let Some(expected) = expected_kind {
        expect_kind(&container, expected)?;
    }
    Ok(container)
}

/// Describe a snapshot file without failing on checksum corruption (bad
/// magic, framing truncation and future versions still error).
pub fn inspect(path: &Path) -> Result<SnapshotInfo, SnapshotError> {
    let mut file = std::io::BufReader::new(fs::File::open(path)?);
    let (container, stored, computed) = read_container_unverified(&mut file)?;
    Ok(SnapshotInfo {
        kind: container.kind,
        version: container.version,
        payload_bytes: container.payload.len(),
        // Appended garbage is corruption too: one file, one container.
        checksum_ok: stored == computed && expect_eof(&mut file).is_ok(),
    })
}

// ---------------------------------------------------------------------------
// Typed save/load over the core Snapshot trait.
// ---------------------------------------------------------------------------

/// Serialize an index into a kind-tagged container in memory.
pub fn index_to_vec<P, S, I: Snapshot<P, S>>(
    kind: &str,
    index: &I,
) -> Result<Vec<u8>, SnapshotError> {
    to_vec(kind, |payload| index.write_snapshot(payload))
}

/// Load an index from container bytes produced by [`index_to_vec`].
pub fn index_from_slice<P, S, I: Snapshot<P, S>>(
    bytes: &[u8],
    expected_kind: &str,
    data: Arc<Dataset<P>>,
    space: S,
) -> Result<I, SnapshotError> {
    let mut r = bytes;
    let container = read_container(&mut r)?;
    expect_eof(&mut r)?;
    expect_kind(&container, expected_kind)?;
    read_index_payload(&container, data, space)
}

/// Decode an index from an already-verified container's payload.
pub fn read_index_payload<P, S, I: Snapshot<P, S>>(
    container: &Container,
    data: Arc<Dataset<P>>,
    space: S,
) -> Result<I, SnapshotError> {
    let mut r = container.payload.as_slice();
    let index = I::read_snapshot(&mut r, data, space)?;
    if !r.is_empty() {
        return Err(corrupt(format!(
            "{} trailing bytes after the {} payload",
            r.len(),
            container.kind
        )));
    }
    Ok(index)
}

/// Save one index to a file, framed and kind-tagged.
pub fn save_index<P, S, I: Snapshot<P, S>>(
    path: &Path,
    kind: &str,
    index: &I,
) -> Result<(), SnapshotError> {
    save_to_file(path, kind, |payload| index.write_snapshot(payload))
}

/// Load one index from a file saved by [`save_index`].
pub fn load_index<P, S, I: Snapshot<P, S>>(
    path: &Path,
    expected_kind: &str,
    data: Arc<Dataset<P>>,
    space: S,
) -> Result<I, SnapshotError> {
    let container = load_from_file(path, Some(expected_kind))?;
    read_index_payload(&container, data, space)
}

/// Save a dataset to a file under the [`DATASET_KIND`] tag.
pub fn save_dataset<P: PointCodec>(path: &Path, data: &Dataset<P>) -> Result<(), SnapshotError> {
    save_to_file(path, DATASET_KIND, |payload| data.write_snapshot(payload))
}

/// Streaming FNV-1a fingerprint of a dataset's **content**, without
/// materializing the bytes. Deployment manifests embed it so a snapshot
/// directory can never silently serve a *different* dataset that happens
/// to have the same point count.
///
/// The fingerprint hashes the v1 (per-point) encoding regardless of how
/// the dataset is stored on disk: content identity must not depend on
/// whether an arena is attached, and manifests written by v1 deployments
/// keep verifying against datasets reloaded from v2 flat-block files.
pub fn fingerprint_dataset<P: PointCodec>(data: &Dataset<P>) -> Result<u64, SnapshotError> {
    struct FnvWriter(u64);
    impl Write for FnvWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0 = fnv1a64_update(self.0, buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let mut w = FnvWriter(FNV_OFFSET);
    data.write_snapshot_v1(&mut w)?;
    Ok(w.0)
}

/// Load a dataset saved by [`save_dataset`]. Files written by format
/// version 1 (tag-less per-point payload) are decoded through the legacy
/// reader; v2/v3 payloads dispatch on their tag byte. Corrupt files of
/// any version surface as typed [`SnapshotError`]s — every length in the
/// dataset payload readers is `checked_mul`-validated with capped
/// preallocation, so no input reachable from this function panics or
/// triggers a huge up-front allocation.
pub fn load_dataset<P: PointCodec>(path: &Path) -> Result<Dataset<P>, SnapshotError> {
    let container = load_from_file(path, Some(DATASET_KIND))?;
    let mut r = container.payload.as_slice();
    let data = if container.version < 2 {
        Dataset::<P>::read_snapshot_v1(&mut r)?
    } else {
        Dataset::<P>::read_snapshot(&mut r)?
    };
    if !r.is_empty() {
        return Err(corrupt("trailing bytes after the dataset payload"));
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use permsearch_core::snapshot;

    #[test]
    fn container_round_trips_in_memory() {
        let bytes = to_vec("index:test", |p| {
            snapshot::write_u32(p, 0xDEAD_BEEF)?;
            snapshot::write_str(p, "hello")
        })
        .unwrap();
        let c = read_container(&mut bytes.as_slice()).unwrap();
        assert_eq!(c.kind, "index:test");
        assert_eq!(c.version, FORMAT_VERSION);
        let mut r = c.payload.as_slice();
        assert_eq!(snapshot::read_u32(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(snapshot::read_str(&mut r).unwrap(), "hello");
        assert!(r.is_empty());
    }

    #[test]
    fn empty_payload_is_valid() {
        let bytes = to_vec("empty", |_| Ok(())).unwrap();
        let c = read_container(&mut bytes.as_slice()).unwrap();
        assert!(c.payload.is_empty());
    }

    #[test]
    fn kind_check() {
        let bytes = to_vec("dataset", |_| Ok(())).unwrap();
        let c = read_container(&mut bytes.as_slice()).unwrap();
        assert!(expect_kind(&c, "dataset").is_ok());
        let err = expect_kind(&c, "index:napp").unwrap_err();
        assert!(matches!(err, SnapshotError::KindMismatch { .. }));
    }

    #[test]
    fn fnv_reference_values() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn dataset_fingerprint_tracks_content_not_length() {
        let a = Dataset::new(vec![vec![1.0f32, 2.0], vec![3.0, 4.0]]);
        let b = Dataset::new(vec![vec![1.0f32, 2.0], vec![3.0, 4.5]]);
        let fa = fingerprint_dataset(&a).unwrap();
        assert_eq!(fa, fingerprint_dataset(&a).unwrap());
        assert_ne!(fa, fingerprint_dataset(&b).unwrap());
        // Equals the hash of the materialized v1-encoding bytes, and is
        // storage-layout independent: the arena-backed twin fingerprints
        // identically.
        let mut bytes = Vec::new();
        a.write_snapshot_v1(&mut bytes).unwrap();
        assert_eq!(fa, fnv1a64(&bytes));
        let flat_twin = Dataset::new_flat(a.points().to_vec()).quantize();
        assert_eq!(fa, fingerprint_dataset(&flat_twin).unwrap());
    }

    #[test]
    fn dataset_file_round_trips_flat_and_nested() {
        let dir = std::env::temp_dir().join(format!("psnap-store-ds-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let rows: Vec<Vec<f32>> = (0..10).map(|i| vec![i as f32, 0.5 * i as f32]).collect();
        // Arena-backed dataset: flat-block payload, arena reattached.
        let flat = Dataset::new_flat(rows.clone());
        let path = dir.join("flat.psnp");
        save_dataset(&path, &flat).unwrap();
        let back: Dataset<Vec<f32>> = load_dataset(&path).unwrap();
        assert_eq!(back.to_owned_points(), rows);
        assert!(back.flat().is_some(), "arena survives the round trip");
        // Nested dataset: per-point payload, no arena.
        let nested = Dataset::new(rows);
        let path = dir.join("nested.psnp");
        save_dataset(&path, &nested).unwrap();
        let back: Dataset<Vec<f32>> = load_dataset(&path).unwrap();
        assert_eq!(back.points(), nested.points());
        assert!(back.flat().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v1_dataset_containers_remain_readable() {
        // Hand-assemble a version-1 container: tag-less per-point payload.
        let data = Dataset::new(vec![vec![1.0f32, 2.0], vec![3.0, 4.0]]);
        let mut payload = Vec::new();
        data.write_snapshot_v1(&mut payload).unwrap();
        let kind = DATASET_KIND.as_bytes();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.extend_from_slice(&(kind.len() as u16).to_le_bytes());
        bytes.extend_from_slice(kind);
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let checksum = fnv1a64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());

        let dir = std::env::temp_dir().join(format!("psnap-store-v1-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v1.psnp");
        fs::write(&path, &bytes).unwrap();
        let back: Dataset<Vec<f32>> = load_dataset(&path).unwrap();
        assert_eq!(back.points(), data.points());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_round_trip_is_atomic() {
        let dir = std::env::temp_dir().join(format!("psnap-store-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("probe.psnp");
        save_to_file(&path, "probe", |p| snapshot::write_u64(p, 99)).unwrap();
        assert!(!path.with_extension("tmp").exists(), "tmp file left behind");
        let c = load_from_file(&path, Some("probe")).unwrap();
        assert_eq!(snapshot::read_u64(&mut c.payload.as_slice()).unwrap(), 99);
        let info = inspect(&path).unwrap();
        assert_eq!(info.kind, "probe");
        assert!(info.checksum_ok);
        assert_eq!(info.payload_bytes, 8);
        fs::remove_dir_all(&dir).unwrap();
    }
}
