//! Per-tenant durability: the on-disk file layout, the per-tenant
//! manifest that makes a multi-file shard snapshot set atomic as a
//! unit, replay-log configuration and rotation, and the typed errors
//! of the tenant save/restore path.
//!
//! ## File layout
//!
//! Everything hangs off two operator-chosen base paths (`--save-model`
//! and `--replay-log` in the CLI):
//!
//! ```text
//! {snap}.{tenant}.{shard}     one verified model snapshot per shard
//! {snap}.{tenant}.manifest    shard count + per-shard CRC-32s, written LAST
//! {log}.{tenant}.{shard}      NDJSON replay log per shard (window durability)
//! ```
//!
//! The default tenant behind the bare endpoints uses the same layout
//! under the reserved name [`DEFAULT_TENANT`](crate::DEFAULT_TENANT),
//! always with one shard: `{snap}.default.0`, `{snap}.default.manifest`,
//! and `{log}.default.0`. Nothing is ever written at `{snap}` or `{log}`
//! themselves.
//!
//! Tenant names are `[a-zA-Z0-9_-]{1,64}` (no `.`, no separators), so
//! the suffixes parse unambiguously and can never traverse paths.
//!
//! ## Why a manifest
//!
//! Each shard file is written atomically
//! ([`atomic_write`](mccatch_persist::atomic_write): temp + fsync +
//! rename + directory fsync), but a crash between two shard writes
//! leaves a *mixed* set: shard 0 from the new snapshot, shard 1 from
//! the old one. The manifest closes that hole: it is written last,
//! also atomically, and records the CRC-32 of every shard file it
//! certifies. Restore refuses a tenant whose
//! manifest is missing ([`TenantPersistError::MissingManifest`]) or
//! whose shard files do not match it
//! ([`TenantPersistError::CrcMismatch`]) — a partial snapshot is a
//! typed error, never a silently inconsistent tenant.

use crate::error::TenantError;
use crate::name::valid_tenant_name;
use mccatch_obs::json::{self, Json};
use mccatch_persist::{atomic_write, FsyncPolicy, PersistError, PersistPoint, ReplayWriter};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Where a tenant's shard replay logs live and how eagerly they sync.
///
/// Configured once on the [`TenantSpec`](crate::TenantSpec): every
/// tenant stamped from the spec — the default tenant included — logs
/// each accepted event to `{base}.{tenant}.{shard}` so its sliding
/// windows survive `kill -9`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplaySpec {
    /// Base path; shard logs live at `{base}.{tenant}.{shard}`.
    pub base: PathBuf,
    /// Fsync policy applied to every shard log.
    pub fsync: FsyncPolicy,
}

/// What one tenant's warm restart recovered, kept on the restored
/// [`Tenant`](crate::Tenant) and exported per tenant by `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantRestoreStats {
    /// Shard detectors rebuilt through the verified bit-compare load.
    pub shards: usize,
    /// Replay-log events re-ingested to rebuild the sliding windows
    /// (0 when no shard had a log: windows were re-seeded from the
    /// snapshots' reference points instead).
    pub replayed_events: u64,
    /// The tenant generation (summed shard generations) at restore.
    pub generation: u64,
    /// The summed shard stream positions at restore.
    pub seq: u64,
}

/// One tenant re-registered by
/// [`TenantMap::restore_tenants`](crate::TenantMap::restore_tenants).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoredTenant {
    /// The tenant's name, recovered from its snapshot file names.
    pub name: String,
    /// What the restore rebuilt.
    pub stats: TenantRestoreStats,
}

/// Stats of one completed per-tenant snapshot
/// ([`Tenant::save_snapshot`](crate::Tenant::save_snapshot)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSnapshotStats {
    /// Shard snapshot files written (plus one manifest).
    pub shards: usize,
    /// The tenant generation (summed shard generations) captured.
    pub generation: u64,
    /// The summed shard stream positions captured.
    pub seq: u64,
    /// Total snapshot bytes across the shard files.
    pub bytes: u64,
}

/// Everything that can go wrong persisting or restoring a tenant's
/// shard snapshot set. Unlike [`TenantError`] this wraps
/// [`PersistError`] (not `Clone`/`PartialEq`), so it is its own type;
/// every variant names the tenant and file it refers to — restore
/// failures are diagnosable and **never** panics.
#[derive(Debug)]
pub enum TenantPersistError {
    /// A filesystem operation outside the snapshot codec failed.
    Io {
        /// The path being read or written.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// Saving, loading, or replaying one shard failed in the persist
    /// layer (corrupt snapshot, diverged rebuild, malformed log, …).
    Shard {
        /// The tenant being persisted or restored.
        tenant: String,
        /// The shard the failure belongs to.
        shard: usize,
        /// The underlying persist-layer error.
        source: PersistError,
    },
    /// Shard files exist but no manifest certifies them — the snapshot
    /// set is partial (a crash landed between the shard writes and the
    /// manifest) and must not be trusted.
    MissingManifest {
        /// The tenant whose manifest is absent.
        tenant: String,
        /// Where the manifest was expected.
        path: PathBuf,
    },
    /// The manifest exists but cannot be parsed, or certifies a
    /// different tenant than its file name claims.
    BadManifest {
        /// The unparsable manifest.
        path: PathBuf,
        /// What was wrong with it.
        message: String,
    },
    /// The manifest's shard count disagrees with the map's
    /// [`TenantSpec`](crate::TenantSpec) — the snapshot was taken under
    /// a different `--shards`, and hash routing would scatter its
    /// windows.
    ShardCountMismatch {
        /// The tenant being restored.
        tenant: String,
        /// Shards the manifest certifies.
        manifest: usize,
        /// Shards the map's spec stamps.
        spec: usize,
    },
    /// The manifest certifies a shard whose file is absent.
    MissingShard {
        /// The tenant being restored.
        tenant: String,
        /// The missing shard index.
        shard: usize,
        /// Where its file was expected.
        path: PathBuf,
    },
    /// A shard file exists beyond the manifest's shard count — the
    /// directory holds leftovers of a wider snapshot, and silently
    /// ignoring them would drop data.
    ExtraShard {
        /// The tenant being restored.
        tenant: String,
        /// The out-of-range shard index found on disk.
        shard: usize,
        /// The unexpected file.
        path: PathBuf,
    },
    /// A shard file's CRC-32 disagrees with the manifest — a torn or
    /// mixed snapshot set (e.g. a crash between shard writes).
    CrcMismatch {
        /// The tenant being restored.
        tenant: String,
        /// The mismatching shard.
        shard: usize,
        /// The CRC the manifest certifies.
        expected: u32,
        /// The CRC of the bytes on disk.
        got: u32,
    },
    /// Re-registering the restored tenant failed (e.g. the name is
    /// already live in the map).
    Tenant(TenantError),
}

impl std::fmt::Display for TenantPersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { path, source } => write!(f, "{}: {source}", path.display()),
            Self::Shard {
                tenant,
                shard,
                source,
            } => write!(f, "tenant {tenant:?} shard {shard}: {source}"),
            Self::MissingManifest { tenant, path } => write!(
                f,
                "tenant {tenant:?}: no manifest at {} — partial snapshot set",
                path.display()
            ),
            Self::BadManifest { path, message } => {
                write!(f, "bad manifest {}: {message}", path.display())
            }
            Self::ShardCountMismatch {
                tenant,
                manifest,
                spec,
            } => write!(
                f,
                "tenant {tenant:?}: snapshot has {manifest} shard(s) but the map is \
                 configured for {spec}"
            ),
            Self::MissingShard {
                tenant,
                shard,
                path,
            } => write!(
                f,
                "tenant {tenant:?}: shard {shard} snapshot missing at {}",
                path.display()
            ),
            Self::ExtraShard {
                tenant,
                shard,
                path,
            } => write!(
                f,
                "tenant {tenant:?}: unexpected shard {shard} file {} beyond the manifest",
                path.display()
            ),
            Self::CrcMismatch {
                tenant,
                shard,
                expected,
                got,
            } => write!(
                f,
                "tenant {tenant:?} shard {shard}: CRC {got:#010x} does not match the \
                 manifest's {expected:#010x}"
            ),
            Self::Tenant(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TenantPersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            Self::Shard { source, .. } => Some(source),
            Self::Tenant(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TenantError> for TenantPersistError {
    fn from(e: TenantError) -> Self {
        Self::Tenant(e)
    }
}

/// Appends `suffix` to the path's final component (`with_extension`
/// would replace one, colliding sibling shard files).
fn append_os(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(suffix);
    PathBuf::from(os)
}

/// The on-disk location of one tenant shard's file — snapshot or replay
/// log, depending on which base is passed: the base path with
/// `.{tenant}.{shard}` appended.
pub fn shard_file_path(base: &Path, tenant: &str, shard: usize) -> PathBuf {
    append_os(base, &format!(".{tenant}.{shard}"))
}

/// The on-disk location of a tenant's snapshot manifest:
/// `{base}.{tenant}.manifest`.
pub fn tenant_manifest_path(base: &Path, tenant: &str) -> PathBuf {
    append_os(base, &format!(".{tenant}.manifest"))
}

/// A parsed `{base}.{tenant}.manifest`.
pub(crate) struct Manifest {
    /// Shards the snapshot set was written with.
    pub shards: usize,
    /// CRC-32 of each shard file, in shard order.
    pub crc32: Vec<u32>,
}

/// Atomically writes the manifest certifying `crcs` — called **last**
/// by the snapshot path, after every shard file has been renamed into
/// place, so its presence implies a complete, consistent set.
pub(crate) fn write_manifest_atomic(
    base: &Path,
    tenant: &str,
    crcs: &[u32],
) -> Result<(), TenantPersistError> {
    let path = tenant_manifest_path(base, tenant);
    let list = crcs
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let line = format!(
        "{{\"tenant\":\"{tenant}\",\"shards\":{},\"crc32\":[{list}]}}\n",
        crcs.len()
    );
    atomic_write(&path, line.as_bytes()).map_err(|source| TenantPersistError::Io { path, source })
}

/// Reads and validates the manifest at `path`, checking that it
/// certifies `tenant` (the name its file name claims).
pub(crate) fn read_manifest(path: &Path, tenant: &str) -> Result<Manifest, TenantPersistError> {
    let text = std::fs::read_to_string(path).map_err(|source| TenantPersistError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    let bad = |message: String| TenantPersistError::BadManifest {
        path: path.to_path_buf(),
        message,
    };
    let (named, manifest) = parse_manifest(&text).map_err(bad)?;
    if named != tenant {
        return Err(bad(format!(
            "manifest certifies tenant {named:?}, file name says {tenant:?}"
        )));
    }
    Ok(manifest)
}

/// Parses one `{"tenant":"…","shards":N,"crc32":[…]}` manifest line.
fn parse_manifest(s: &str) -> Result<(String, Manifest), String> {
    let v = json::parse(s)?;
    let tenant = v
        .get("tenant")
        .and_then(Json::as_str)
        .ok_or("missing or non-string \"tenant\"")?;
    let shards = v
        .get("shards")
        .and_then(Json::as_u64)
        .and_then(|n| usize::try_from(n).ok())
        .ok_or("missing or non-integer \"shards\"")?;
    if shards == 0 {
        return Err("manifest shard count must be >= 1".to_owned());
    }
    let crc32 = v
        .get("crc32")
        .and_then(Json::as_array)
        .ok_or("missing or non-array \"crc32\"")?
        .iter()
        .map(|c| {
            c.as_u64()
                .and_then(|c| u32::try_from(c).ok())
                .ok_or_else(|| format!("bad crc32 entry {c:?}"))
        })
        .collect::<Result<Vec<u32>, String>>()?;
    if crc32.len() != shards {
        return Err(format!(
            "crc32 array has {} entries for {shards} shard(s)",
            crc32.len()
        ));
    }
    Ok((tenant.to_owned(), Manifest { shards, crc32 }))
}

/// Rewrites one shard's replay log to exactly `entries` (the shard's
/// retained window, `(tick, point)` in window order) and returns a
/// fresh appender on the rotated log.
///
/// The rewrite is atomic ([`ReplayWriter::rewrite`]), and seqs are
/// back-filled so the last entry lands at `next_seq - 1` — a log
/// rotated this way is **self-contained**: replaying it alone rebuilds
/// the window and resumes the stream position, no older log needed.
/// Called at tenant creation (fresh log = seed window), at snapshot
/// time (log = checkpointed window, so logs never grow without bound),
/// and after restore (log = restored window).
pub(crate) fn rotate_replay_log<P: PersistPoint>(
    spec: &ReplaySpec,
    tenant: &str,
    shard: usize,
    entries: &[(u64, P)],
    next_seq: u64,
) -> Result<ReplayWriter, TenantPersistError> {
    let base_seq = next_seq.saturating_sub(entries.len() as u64);
    let logged = entries
        .iter()
        .enumerate()
        .map(|(i, (tick, point))| (base_seq + i as u64, *tick, point));
    ReplayWriter::rewrite(
        &shard_file_path(&spec.base, tenant, shard),
        logged,
        spec.fsync,
    )
    .map_err(|source| TenantPersistError::Shard {
        tenant: tenant.to_owned(),
        shard,
        source,
    })
}

/// One tenant's files found on disk by [`discover_tenants`].
#[derive(Default)]
pub(crate) struct DiscoveredTenant {
    /// Shard index → snapshot file.
    pub shards: BTreeMap<usize, PathBuf>,
    /// The manifest file, when present.
    pub manifest: Option<PathBuf>,
}

/// Scans the snapshot base's directory for `{base}.{tenant}.{shard}`
/// and `{base}.{tenant}.manifest` files, grouped by tenant.
///
/// Only well-formed names with valid tenant components are collected;
/// anything else with the base prefix (a bare `{base}` file, `.tmp`
/// leftovers of crashed writes, non-UTF-8 names) is ignored —
/// those are not part of any tenant snapshot set. Validation of what
/// was found (manifest present, indices contiguous, CRCs matching) is
/// the restore path's job.
pub(crate) fn discover_tenants(
    base: &Path,
) -> Result<BTreeMap<String, DiscoveredTenant>, TenantPersistError> {
    let dir = match base.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    let Some(stem) = base.file_name().and_then(|s| s.to_str()) else {
        return Err(TenantPersistError::Io {
            path: base.to_path_buf(),
            source: std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "snapshot base has no UTF-8 file name",
            ),
        });
    };
    let prefix = format!("{stem}.");
    let io_err = |source: std::io::Error| TenantPersistError::Io {
        path: dir.to_path_buf(),
        source,
    };
    let mut out: BTreeMap<String, DiscoveredTenant> = BTreeMap::new();
    for entry in std::fs::read_dir(dir).map_err(io_err)? {
        let entry = entry.map_err(io_err)?;
        let file_name = entry.file_name();
        let Some(name) = file_name.to_str() else {
            continue;
        };
        let Some(rest) = name.strip_prefix(&prefix) else {
            continue;
        };
        // `rest` should be `{tenant}.{shard}` or `{tenant}.manifest`;
        // tenant names cannot contain '.', so the rightmost dot splits
        // them. `.tmp` leftovers fail the name check and fall through.
        let Some((tenant, suffix)) = rest.rsplit_once('.') else {
            continue;
        };
        if !valid_tenant_name(tenant) {
            continue;
        }
        let slot = out.entry(tenant.to_owned()).or_default();
        if suffix == "manifest" {
            slot.manifest = Some(entry.path());
        } else if suffix.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(idx) = suffix.parse::<usize>() {
                slot.shards.insert(idx, entry.path());
            }
        }
    }
    // A tenant with neither a manifest nor shard files cannot appear;
    // one with junk-only matches was never inserted.
    out.retain(|_, d| d.manifest.is_some() || !d.shards.is_empty());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_append_tenant_shard_and_manifest_suffixes() {
        let base = Path::new("/tmp/snap.bin");
        assert_eq!(
            shard_file_path(base, "acme", 3),
            PathBuf::from("/tmp/snap.bin.acme.3")
        );
        assert_eq!(
            tenant_manifest_path(base, "acme"),
            PathBuf::from("/tmp/snap.bin.acme.manifest")
        );
    }

    #[test]
    fn manifest_round_trips() {
        let (tenant, m) =
            parse_manifest("{\"tenant\":\"acme\",\"shards\":2,\"crc32\":[7,4294967295]}").unwrap();
        assert_eq!(tenant, "acme");
        assert_eq!(m.shards, 2);
        assert_eq!(m.crc32, vec![7, u32::MAX]);
    }

    #[test]
    fn malformed_manifests_are_typed_errors() {
        for bad in [
            "",
            "not json",
            "{\"tenant\":\"a\",\"shards\":0,\"crc32\":[]}",
            "{\"tenant\":\"a\",\"shards\":2,\"crc32\":[1]}",
            "{\"tenant\":\"a\",\"shards\":1,\"crc32\":[badcrc]}",
            "{\"shards\":1,\"crc32\":[1]}",
            // torn mid-write (no trailing brace)
            "{\"tenant\":\"a\",\"shards\":2,\"crc32\":[1,2",
        ] {
            assert!(parse_manifest(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn discovery_groups_by_tenant_and_ignores_junk() {
        let dir = std::env::temp_dir().join(format!(
            "mccatch-discover-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("snap.bin");
        for name in [
            "snap.bin", // a bare snapshot file: not a tenant file
            "snap.bin.a.0",
            "snap.bin.a.1",
            "snap.bin.a.manifest",
            "snap.bin.b.0",
            "snap.bin.a.0.tmp",     // crashed write leftover
            "snap.bin.tmp",         // crashed bare-path write
            "snap.bin.bad name.0",  // invalid tenant name
            "snap.bin.a.notashard", // neither index nor manifest
            "unrelated.txt",
        ] {
            std::fs::write(dir.join(name), b"x").unwrap();
        }
        let found = discover_tenants(&base).unwrap();
        assert_eq!(
            found.keys().cloned().collect::<Vec<_>>(),
            vec!["a".to_owned(), "b".to_owned()]
        );
        let a = &found["a"];
        assert_eq!(a.shards.keys().copied().collect::<Vec<_>>(), vec![0, 1]);
        assert!(a.manifest.is_some());
        let b = &found["b"];
        assert_eq!(b.shards.len(), 1);
        assert!(
            b.manifest.is_none(),
            "b has no manifest — restore rejects it"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn display_names_tenant_and_file() {
        let e = TenantPersistError::CrcMismatch {
            tenant: "acme".to_owned(),
            shard: 1,
            expected: 0xDEAD_BEEF,
            got: 0x1234_5678,
        };
        let msg = e.to_string();
        assert!(msg.contains("acme") && msg.contains("0xdeadbeef"), "{msg}");
        let e = TenantPersistError::MissingManifest {
            tenant: "a".to_owned(),
            path: PathBuf::from("/x/snap.a.manifest"),
        };
        assert!(e.to_string().contains("partial"), "{e}");
    }
}
