//! The persistent compiled-artifact store (DESIGN.md §8.5).
//!
//! A directory of flat files, one per compiled artifact, keyed by a content
//! hash of the artifact's cache key (the canonical display text of the
//! schema, mapping, or schema pair it was compiled from). A process that
//! restarts against the same store — CI shards, repeated CLI batch runs —
//! loads compiled tables off disk instead of re-running NFA densification,
//! subset construction, and plan emission.
//!
//! Every file wraps its payload in an envelope:
//!
//! ```text
//! magic "XMAP" | format version u32 | family tag u8
//! | key (length-prefixed)           -- detects hash collisions
//! | payload (length-prefixed)
//! | checksum u64                    -- over all preceding bytes
//! ```
//!
//! The store is *advisory*: any mismatch — bad magic, other format
//! version, checksum failure, truncation, wrong key — degrades to "not
//! cached" and the caller compiles fresh. Bumping [`FORMAT_VERSION`]
//! whenever any serialized structure changes is the entire migration
//! story: stale artifacts are simply ignored and overwritten.
//!
//! Writes go through a temp file in the same directory followed by a
//! rename, so concurrent readers never observe a half-written artifact.

use std::fs;
use std::hash::Hasher;
use std::io::Write;
use std::path::{Path, PathBuf};
use xmlmap_codec::{checksum, Decoder, Encoder};
use xmlmap_regex::FastHasher;

/// Bump whenever the serialized form of *any* artifact family changes.
pub const FORMAT_VERSION: u32 = 2;

const MAGIC: &[u8; 4] = b"XMAP";

/// The compiled-artifact families of the engine caches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// `SatCache` — per-schema satisfiability index.
    Sat,
    /// `ChaseCache` — per-mapping chase tables.
    Chase,
    /// `AutomataCache` — per-schema-pair compiled automata.
    Automata,
    /// `ShapeCache` — per-schema memoized shape enumerations.
    Shapes,
    /// `DtdIndex` — per-schema dense content-model NFAs for streaming
    /// validation.
    StreamIndex,
    /// `StreamPattern` — per-pattern streaming plans (never persisted;
    /// the family exists so the in-memory cache has a distinct slot
    /// namespace).
    StreamPlan,
    /// `StreamChasePlan` — per-mapping streaming-chase artifacts (chase
    /// tables + per-std stream plans; the payload is the chase tables,
    /// stream plans are recompiled on decode).
    StreamChase,
    /// `DeltaPlan` — per-mapping incremental-chase artifacts (chase
    /// tables + per-std touch profiles; the payload is the chase tables,
    /// profiles are recomputed from the source-pattern texts on decode).
    DeltaChase,
}

impl Family {
    fn tag(self) -> u8 {
        match self {
            Family::Sat => 0,
            Family::Chase => 1,
            Family::Automata => 2,
            Family::Shapes => 3,
            Family::StreamIndex => 4,
            Family::StreamPlan => 5,
            Family::StreamChase => 6,
            Family::DeltaChase => 7,
        }
    }

    /// Filename prefix for the family.
    pub fn name(self) -> &'static str {
        match self {
            Family::Sat => "sat",
            Family::Chase => "chase",
            Family::Automata => "automata",
            Family::Shapes => "shapes",
            Family::StreamIndex => "streamindex",
            Family::StreamPlan => "streamplan",
            Family::StreamChase => "streamchase",
            Family::DeltaChase => "deltachase",
        }
    }
}

/// Why a stored artifact was not usable. [`LoadError::Missing`] is the
/// ordinary cold-cache case; the other variants are surfaced only as a
/// diagnostic counter (`CacheCounters::disk_errors`), never as an error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadError {
    /// No artifact stored under this key (or a hash-collision slot holding
    /// a different key).
    Missing,
    /// The file exists but its envelope or checksum is damaged.
    Corrupt,
    /// The file was written by a build with a different artifact format.
    VersionMismatch,
}

/// A directory of checksummed compiled artifacts.
#[derive(Clone, Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
}

impl ArtifactStore {
    /// Opens (creating if necessary) the store directory.
    pub fn new(dir: impl AsRef<Path>) -> std::io::Result<ArtifactStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(ArtifactStore { dir })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, family: Family, key: &str) -> PathBuf {
        let mut h = FastHasher::default();
        h.write(key.as_bytes());
        self.dir
            .join(format!("{}-{:016x}.bin", family.name(), h.finish()))
    }

    /// Loads the payload stored for `(family, key)`, verifying the
    /// envelope. Never panics on damaged files.
    pub fn load(&self, family: Family, key: &str) -> Result<Vec<u8>, LoadError> {
        let bytes = match fs::read(self.path_for(family, key)) {
            Ok(b) => b,
            Err(_) => return Err(LoadError::Missing),
        };
        if bytes.len() < 8 {
            return Err(LoadError::Corrupt);
        }
        let (body, sum) = bytes.split_at(bytes.len() - 8);
        if checksum(body) != u64::from_le_bytes(sum.try_into().unwrap()) {
            return Err(LoadError::Corrupt);
        }
        let mut d = Decoder::new(body);
        if d.take_magic() != Some(*MAGIC) {
            return Err(LoadError::Corrupt);
        }
        match d.u32() {
            Ok(v) if v == FORMAT_VERSION => {}
            Ok(_) => return Err(LoadError::VersionMismatch),
            Err(_) => return Err(LoadError::Corrupt),
        }
        match d.u8() {
            Ok(t) if t == family.tag() => {}
            Ok(_) | Err(_) => return Err(LoadError::Corrupt),
        }
        match d.str() {
            // Another key hashing to the same file: treat as absent.
            Ok(k) if k != key => return Err(LoadError::Missing),
            Ok(_) => {}
            Err(_) => return Err(LoadError::Corrupt),
        }
        let payload = d.bytes().map_err(|_| LoadError::Corrupt)?;
        d.expect_end().map_err(|_| LoadError::Corrupt)?;
        Ok(payload)
    }

    /// Stores `payload` under `(family, key)` atomically (temp file +
    /// rename). Errors are swallowed — the store is an accelerator, and a
    /// full or read-only disk must never fail an engine operation.
    pub fn save(&self, family: Family, key: &str, payload: &[u8]) {
        let mut e = Encoder::new();
        e.magic(MAGIC);
        e.u32(FORMAT_VERSION);
        e.u8(family.tag());
        e.str(key);
        e.bytes(payload);
        let mut body = e.finish();
        let sum = checksum(&body);
        body.extend_from_slice(&sum.to_le_bytes());

        let path = self.path_for(family, key);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let written = fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(&body))
            .is_ok();
        if written {
            let _ = fs::rename(&tmp, &path);
        } else {
            let _ = fs::remove_file(&tmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xmlmap-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trip() {
        let store = ArtifactStore::new(tmpdir("rt")).unwrap();
        assert_eq!(store.load(Family::Sat, "k"), Err(LoadError::Missing));
        store.save(Family::Sat, "k", b"payload");
        assert_eq!(store.load(Family::Sat, "k").unwrap(), b"payload");
        // Same key, different family: separate slots.
        assert_eq!(store.load(Family::Chase, "k"), Err(LoadError::Missing));
    }

    #[test]
    fn corruption_is_detected_not_fatal() {
        let dir = tmpdir("corrupt");
        let store = ArtifactStore::new(&dir).unwrap();
        store.save(Family::Chase, "key", b"0123456789");
        let path = fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();

        // Truncation.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 3]).unwrap();
        assert_eq!(store.load(Family::Chase, "key"), Err(LoadError::Corrupt));

        // Single byte flip.
        let mut flipped = full.clone();
        flipped[10] ^= 0x40;
        fs::write(&path, &flipped).unwrap();
        assert_eq!(store.load(Family::Chase, "key"), Err(LoadError::Corrupt));

        // Restore: loads again.
        fs::write(&path, &full).unwrap();
        assert_eq!(store.load(Family::Chase, "key").unwrap(), b"0123456789");
    }

    #[test]
    fn version_mismatch_is_reported() {
        let dir = tmpdir("version");
        let store = ArtifactStore::new(&dir).unwrap();
        store.save(Family::Automata, "key", b"x");
        let path = fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();

        // Rewrite the envelope with a bumped version and a fixed checksum.
        let mut e = Encoder::new();
        e.magic(MAGIC);
        e.u32(FORMAT_VERSION + 1);
        e.u8(Family::Automata.tag());
        e.str("key");
        e.bytes(b"x");
        let mut body = e.finish();
        let sum = checksum(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        fs::write(&path, &body).unwrap();
        assert_eq!(
            store.load(Family::Automata, "key"),
            Err(LoadError::VersionMismatch)
        );
    }

    #[test]
    fn key_collision_slot_reads_as_missing() {
        let store = ArtifactStore::new(tmpdir("collide")).unwrap();
        store.save(Family::Sat, "key-a", b"a");
        // Forge the path of a *different* key onto key-a's file by writing
        // key-b and then asking for it under key-a's artifact: simplest
        // honest check is that a stored key only answers to itself.
        assert_eq!(store.load(Family::Sat, "key-b"), Err(LoadError::Missing));
        assert_eq!(store.load(Family::Sat, "key-a").unwrap(), b"a");
    }
}
