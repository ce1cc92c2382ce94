//! The concurrent tenant registry.

use crate::error::TenantError;
use crate::name::{valid_tenant_name, DEFAULT_TENANT};
use crate::persistence::{
    discover_tenants, read_manifest, shard_file_path, tenant_manifest_path, DiscoveredTenant,
    RestoredTenant, TenantPersistError, TenantRestoreStats,
};
use crate::router::RouteKey;
use crate::tenant::{Tenant, TenantSpec};
use mccatch_core::McCatch;
use mccatch_index::IndexBuilder;
use mccatch_metric::Metric;
use mccatch_persist::{crc32, restore_stream, PersistPoint, ReplayReader};
use mccatch_stream::StreamDetector;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, RwLock};

/// The registry's inner storage: name → shared tenant handle.
type Registry<P, M, B> = BTreeMap<String, Arc<Tenant<P, M, B>>>;

/// A concurrent registry of named [`Tenant`]s, all stamped from one
/// [`TenantSpec`] (same shard count, stream schedule, and admission
/// bound) over one detector/metric/index configuration.
///
/// Lookups take a read lock for the map access only — scoring and
/// ingest run entirely outside it on the returned `Arc<Tenant>`, so a
/// create or delete never stalls another tenant's traffic. Fitting a
/// new tenant (the expensive part of `create`) also runs outside the
/// lock; two racing creates of the same name resolve to one winner and
/// one [`AlreadyExists`](TenantError::AlreadyExists).
///
/// Deleting a tenant only unlinks it: in-flight requests holding the
/// `Arc` finish against the detached shard set, which shuts down when
/// the last clone drops.
pub struct TenantMap<P, M, B> {
    detector: McCatch,
    metric: M,
    builder: B,
    spec: TenantSpec,
    tenants: RwLock<Registry<P, M, B>>,
}

impl<P, M, B> TenantMap<P, M, B>
where
    P: RouteKey + PersistPoint + Clone + Send + Sync + 'static,
    M: Metric<P> + Clone + 'static,
    B: IndexBuilder<P, M> + Clone + Send + Sync + 'static,
    B::Index: Send + Sync + 'static,
{
    /// An empty map that will stamp every tenant from `spec` (validated
    /// here) with refits driven by `detector` over `metric`/`builder`.
    pub fn new(
        detector: McCatch,
        metric: M,
        builder: B,
        spec: TenantSpec,
    ) -> Result<Self, TenantError> {
        spec.validate()?;
        Ok(Self {
            detector,
            metric,
            builder,
            spec,
            tenants: RwLock::new(BTreeMap::new()),
        })
    }

    /// The spec every tenant is stamped from.
    pub fn spec(&self) -> &TenantSpec {
        &self.spec
    }

    /// Creates an empty tenant (degenerate shard models until its first
    /// ingest + refit). See [`create_seeded`](Self::create_seeded).
    pub fn create(&self, name: &str) -> Result<Arc<Tenant<P, M, B>>, TenantError> {
        self.create_seeded(name, Vec::new())
    }

    /// Creates a tenant seeded with `seed`: the seed is partitioned
    /// across the shards by routing key and every shard fits in
    /// parallel, all **outside** the registry lock. Fails with
    /// [`InvalidName`](TenantError::InvalidName),
    /// [`ReservedName`](TenantError::ReservedName) (for
    /// [`DEFAULT_TENANT`]), or
    /// [`AlreadyExists`](TenantError::AlreadyExists).
    pub fn create_seeded(
        &self,
        name: &str,
        seed: Vec<P>,
    ) -> Result<Arc<Tenant<P, M, B>>, TenantError> {
        if !valid_tenant_name(name) {
            return Err(TenantError::InvalidName {
                name: name.to_owned(),
            });
        }
        if name == DEFAULT_TENANT {
            return Err(TenantError::ReservedName {
                name: name.to_owned(),
            });
        }
        let exists = |map: &Registry<P, M, B>| -> Result<(), TenantError> {
            if map.contains_key(name) {
                return Err(TenantError::AlreadyExists {
                    name: name.to_owned(),
                });
            }
            Ok(())
        };
        // Cheap early check so a racing duplicate usually skips the fit
        // entirely; the write-locked insert below is the real arbiter.
        exists(&self.tenants.read().unwrap_or_else(|e| e.into_inner()))?;
        let tenant = Arc::new(Tenant::new(
            name,
            &self.detector,
            &self.metric,
            &self.builder,
            &self.spec,
            seed,
        )?);
        let mut map = self.tenants.write().unwrap_or_else(|e| e.into_inner());
        exists(&map)?;
        map.insert(name.to_owned(), Arc::clone(&tenant));
        Ok(tenant)
    }

    /// Builds the default tenant ([`DEFAULT_TENANT`]) from `seed`: the
    /// map's spec with **one** shard, whatever the spec's shard count —
    /// so it scores bit for bit like a plain `StreamDetector` over the
    /// same seed. It is returned, not registered: the serving layer
    /// holds it beside the map for the bare endpoints.
    pub fn create_default(&self, seed: Vec<P>) -> Result<Arc<Tenant<P, M, B>>, TenantError> {
        Tenant::new(
            DEFAULT_TENANT,
            &self.detector,
            &self.metric,
            &self.builder,
            &self.default_spec(),
            seed,
        )
        .map(Arc::new)
    }

    /// Rebuilds the default tenant from its 1-shard snapshot set
    /// (`{base}.default.0` + `{base}.default.manifest`) and, when the
    /// spec configures replay logs, its `{log}.default.0` window — with
    /// the same manifest, CRC, verified-load, and replay checks as
    /// [`restore_tenants`](Self::restore_tenants). Returned, not
    /// registered, like [`create_default`](Self::create_default). A
    /// missing set is
    /// [`MissingManifest`](TenantPersistError::MissingManifest).
    pub fn restore_default(&self, base: &Path) -> Result<Arc<Tenant<P, M, B>>, TenantPersistError> {
        let _span = mccatch_obs::Span::enter(mccatch_obs::StageId::TenantRestore);
        let files = discover_tenants(base)?
            .remove(DEFAULT_TENANT)
            .unwrap_or_default();
        let (tenant, _stats) =
            self.restore_one(base, DEFAULT_TENANT, files, &self.default_spec())?;
        Ok(Arc::new(tenant))
    }

    /// The spec of the default tenant: the map's, with one shard.
    fn default_spec(&self) -> TenantSpec {
        TenantSpec {
            shards: 1,
            ..self.spec.clone()
        }
    }

    /// The tenant named `name`, if it exists.
    pub fn get(&self, name: &str) -> Option<Arc<Tenant<P, M, B>>> {
        self.tenants
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
    }

    /// Unlinks and returns the tenant named `name`. In-flight requests
    /// holding its `Arc` complete normally; the shard workers shut down
    /// when the last clone drops.
    pub fn remove(&self, name: &str) -> Result<Arc<Tenant<P, M, B>>, TenantError> {
        self.tenants
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .remove(name)
            .ok_or_else(|| TenantError::NotFound {
                name: name.to_owned(),
            })
    }

    /// The live tenant names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.tenants
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect()
    }

    /// How many tenants are live.
    pub fn len(&self) -> usize {
        self.tenants.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the map holds no tenants.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rediscovers every tenant persisted under the snapshot prefix
    /// `base` and re-registers each in this map with its generation,
    /// stream position, and (when replay logs are configured on the
    /// spec) sliding-window contents resumed. Returns what was
    /// restored, in name order.
    ///
    /// Discovery scans `base`'s directory for `{base}.{tenant}.{shard}`
    /// files, skipping the default tenant's set (see
    /// [`restore_default`](Self::restore_default)). Each discovered
    /// tenant is validated against its
    /// `{base}.{tenant}.manifest` — present
    /// ([`MissingManifest`](TenantPersistError::MissingManifest)
    /// otherwise: a manifest is written last, so its absence means a
    /// partial snapshot), certifying the spec's shard count, with a
    /// contiguous `0..shards` file set
    /// ([`MissingShard`](TenantPersistError::MissingShard) /
    /// [`ExtraShard`](TenantPersistError::ExtraShard)) whose CRC-32s
    /// match ([`CrcMismatch`](TenantPersistError::CrcMismatch)). Every
    /// shard then rebuilds through the persist layer's verified
    /// bit-compare load — all shards of a tenant in parallel on a
    /// `thread::scope` fan-out, the same shape as the fan-out fit — and
    /// replays the newest `capacity` events of its `{log}.{tenant}.{shard}`
    /// replay log into the window.
    ///
    /// Corrupt or partial snapshot sets are **typed errors, never
    /// panics**; the first failing tenant aborts the restore (tenants
    /// already re-registered stay registered). An empty directory — or
    /// one with no tenant-suffixed files — restores nothing and returns
    /// an empty list.
    pub fn restore_tenants(&self, base: &Path) -> Result<Vec<RestoredTenant>, TenantPersistError> {
        let mut out = Vec::new();
        for (name, files) in discover_tenants(base)? {
            if name == DEFAULT_TENANT {
                continue;
            }
            let _span = mccatch_obs::Span::enter(mccatch_obs::StageId::TenantRestore);
            let (tenant, stats) = self.restore_one(base, &name, files, &self.spec)?;
            let mut map = self.tenants.write().unwrap_or_else(|e| e.into_inner());
            if map.contains_key(&name) {
                return Err(TenantPersistError::Tenant(TenantError::AlreadyExists {
                    name,
                }));
            }
            map.insert(name.clone(), Arc::new(tenant));
            out.push(RestoredTenant { name, stats });
        }
        Ok(out)
    }

    /// Validates one discovered tenant's snapshot set against `spec`'s
    /// shard count and rebuilds it, unregistered, with what the restore
    /// recovered.
    fn restore_one(
        &self,
        base: &Path,
        name: &str,
        files: DiscoveredTenant,
        spec: &TenantSpec,
    ) -> Result<(Tenant<P, M, B>, TenantRestoreStats), TenantPersistError> {
        let manifest_path = files
            .manifest
            .ok_or_else(|| TenantPersistError::MissingManifest {
                tenant: name.to_owned(),
                path: tenant_manifest_path(base, name),
            })?;
        let manifest = read_manifest(&manifest_path, name)?;
        if manifest.shards != spec.shards {
            return Err(TenantPersistError::ShardCountMismatch {
                tenant: name.to_owned(),
                manifest: manifest.shards,
                spec: spec.shards,
            });
        }
        if let Some((&shard, path)) = files.shards.range(manifest.shards..).next() {
            return Err(TenantPersistError::ExtraShard {
                tenant: name.to_owned(),
                shard,
                path: path.clone(),
            });
        }
        // Read + fingerprint every shard file before loading anything:
        // a torn set is rejected as a whole, not after a partial load.
        let mut blobs = Vec::with_capacity(manifest.shards);
        for shard in 0..manifest.shards {
            let path =
                files
                    .shards
                    .get(&shard)
                    .ok_or_else(|| TenantPersistError::MissingShard {
                        tenant: name.to_owned(),
                        shard,
                        path: shard_file_path(base, name, shard),
                    })?;
            let bytes = std::fs::read(path).map_err(|source| TenantPersistError::Io {
                path: path.clone(),
                source,
            })?;
            let got = crc32(&bytes);
            if got != manifest.crc32[shard] {
                return Err(TenantPersistError::CrcMismatch {
                    tenant: name.to_owned(),
                    shard,
                    expected: manifest.crc32[shard],
                    got,
                });
            }
            blobs.push(bytes);
        }
        // Verified bit-compare load of every shard in parallel — the
        // same thread::scope fan-out shape as the fit path: wall-clock
        // is the slowest shard, not the sum.
        type ShardResult<P, M, B> = Result<(StreamDetector<P, M, B>, u64), TenantPersistError>;
        let results: Vec<ShardResult<P, M, B>> = std::thread::scope(|scope| {
            let handles: Vec<_> = blobs
                .iter()
                .enumerate()
                .map(|(shard, bytes)| {
                    let (metric, builder) = (self.metric.clone(), self.builder.clone());
                    let config = spec.stream.clone();
                    let replay_path = spec
                        .replay
                        .as_ref()
                        .map(|rs| shard_file_path(&rs.base, name, shard));
                    scope.spawn(move || {
                        let shard_err = |source| TenantPersistError::Shard {
                            tenant: name.to_owned(),
                            shard,
                            source,
                        };
                        let entries = match replay_path {
                            Some(p) if p.exists() => Some(
                                ReplayReader::open(&p)
                                    .and_then(|r| r.read_all::<P>())
                                    .map_err(shard_err)?,
                            ),
                            _ => None,
                        };
                        let replayed = entries.as_ref().map_or(0, |e| e.len() as u64);
                        let (detector, _info) =
                            restore_stream(config, metric, builder, &bytes[..], entries)
                                .map_err(shard_err)?;
                        Ok((detector, replayed))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard restore thread panicked"))
                .collect()
        });
        let mut detectors = Vec::with_capacity(results.len());
        let mut replayed_events = 0;
        for r in results {
            let (d, replayed) = r?;
            replayed_events += replayed;
            detectors.push(d);
        }
        let stats = TenantRestoreStats {
            shards: detectors.len(),
            replayed_events,
            generation: detectors.iter().map(|d| d.generation()).sum(),
            seq: detectors.iter().map(|d| d.checkpoint().seq).sum(),
        };
        Ok((Tenant::from_restored(name, spec, detectors, stats)?, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccatch_index::KdTreeBuilder;
    use mccatch_metric::Euclidean;
    use mccatch_stream::{RefitPolicy, StreamConfig};

    fn map(shards: usize) -> TenantMap<Vec<f64>, Euclidean, KdTreeBuilder> {
        TenantMap::new(
            McCatch::builder().build().unwrap(),
            Euclidean,
            KdTreeBuilder::default(),
            TenantSpec {
                shards,
                stream: StreamConfig {
                    capacity: 256,
                    policy: RefitPolicy::Manual,
                    ..StreamConfig::default()
                },
                ingest_queue: 16,
                replay: None,
            },
        )
        .unwrap()
    }

    fn grid(n: usize, shift: f64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| vec![(i % 10) as f64 + shift, (i / 10) as f64 + shift])
            .collect()
    }

    #[test]
    fn lifecycle_create_get_remove() {
        let m = map(1);
        assert!(m.is_empty());
        m.create("a").unwrap();
        m.create_seeded("b", grid(50, 0.0)).unwrap();
        assert_eq!(m.names(), vec!["a".to_owned(), "b".to_owned()]);
        assert_eq!(m.len(), 2);
        assert!(m.get("a").is_some() && m.get("ghost").is_none());
        assert_eq!(
            m.create("a").err(),
            Some(TenantError::AlreadyExists { name: "a".into() })
        );
        assert_eq!(m.remove("a").unwrap().name(), "a");
        assert_eq!(
            m.remove("a").err(),
            Some(TenantError::NotFound { name: "a".into() })
        );
        assert_eq!(m.names(), vec!["b".to_owned()]);
    }

    #[test]
    fn invalid_names_never_enter_the_map() {
        let m = map(1);
        for bad in ["", "a b", "a/b", "né", &"x".repeat(65)] {
            assert_eq!(
                m.create(bad).err(),
                Some(TenantError::InvalidName {
                    name: bad.to_owned()
                }),
                "{bad:?}"
            );
        }
        assert!(m.is_empty());
    }

    #[test]
    fn the_default_tenant_has_one_shard_and_its_name_is_reserved() {
        let m = map(3);
        let default = m.create_default(grid(50, 0.0)).unwrap();
        assert_eq!((default.name(), default.shards()), (DEFAULT_TENANT, 1));
        assert!(m.is_empty(), "the default tenant is never registered");
        assert_eq!(
            m.create(DEFAULT_TENANT).err(),
            Some(TenantError::ReservedName {
                name: DEFAULT_TENANT.to_owned()
            })
        );
        assert!(m.is_empty());
    }

    #[test]
    fn invalid_spec_is_rejected_at_map_construction() {
        let err = TenantMap::<Vec<f64>, _, _>::new(
            McCatch::builder().build().unwrap(),
            Euclidean,
            KdTreeBuilder::default(),
            TenantSpec {
                shards: 0,
                ..TenantSpec::default()
            },
        )
        .err();
        assert_eq!(err, Some(TenantError::InvalidShards { got: 0 }));
    }

    #[test]
    fn tenants_are_isolated_ingest_to_one_never_moves_another() {
        let m = map(2);
        let mut seed = grid(100, 0.0);
        seed.push(vec![500.0, 500.0]);
        for name in ["a", "b", "c", "d"] {
            m.create_seeded(name, seed.clone()).unwrap();
        }
        let queries: Vec<Vec<f64>> = (0..25).map(|i| vec![i as f64 * 0.7, 3.3]).collect();
        let b = m.get("b").unwrap();
        let (b_scores_before, b_gen_before) = b.score_batch(&queries);
        let b_stats_before = b.shard_stats();

        // Hammer tenant a: ingest plus explicit refits.
        let a = m.get("a").unwrap();
        for i in 0..300 {
            a.ingest(vec![i as f64 * 0.01, 1.0]).unwrap();
        }
        a.refit_now().unwrap();
        assert!(a.generation() > 0);

        // Tenant b is untouched: same scores (bitwise), same
        // generation, same stream counters.
        let (b_scores_after, b_gen_after) = b.score_batch(&queries);
        assert_eq!(b_scores_before, b_scores_after);
        assert_eq!(b_gen_before, b_gen_after);
        assert_eq!(b_stats_before, b.shard_stats());
        for name in ["c", "d"] {
            assert_eq!(m.get(name).unwrap().generation(), 0, "{name}");
        }
    }

    #[test]
    fn racing_creates_resolve_to_one_winner() {
        let m = std::sync::Arc::new(map(1));
        let winners: Vec<bool> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let m = std::sync::Arc::clone(&m);
                    scope.spawn(move || m.create("contested").is_ok())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(winners.iter().filter(|w| **w).count(), 1, "{winners:?}");
        assert_eq!(m.len(), 1);
    }
}
