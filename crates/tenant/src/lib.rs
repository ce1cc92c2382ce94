//! # mccatch-tenant — sharded multi-tenant serving
//!
//! MCCATCH's serving tier holds one model per process; this crate turns
//! that into **a service that serves many users**: a [`TenantMap`] —
//! a concurrent registry of named [`Tenant`]s, each owning its own
//! shard set of `StreamDetector`s with independent window, refit, and
//! drift state.
//!
//! ```text
//!                         ┌────────────────── TenantMap ──────────────────┐
//!   /t/acme/ingest ─────► │ "acme" ─► Tenant ─► ShardRouter ─► shard 0..N │
//!   /t/beta/score  ─────► │ "beta" ─► Tenant ─► ShardRouter ─► shard 0..M │
//!                         └───────────────────────────────────────────────┘
//!                            each shard: window + refit worker + ModelStore
//! ```
//!
//! * **Key-routed shards** — every point hashes to a stable
//!   [`RouteKey`]; the [`ShardRouter`] maps it to one shard, so a
//!   point's neighborhood accumulates in one window and routing is
//!   identical across restarts and replays.
//! * **Fan-out fit** — creating (or refitting) a tenant partitions its
//!   seed across the shards and fits every shard on its own thread;
//!   wall-clock cost is the slowest shard, not the sum.
//! * **Ensemble scoring** — a query is scored by every shard model and
//!   served the **minimum**: as normal as the shard that recognizes it
//!   best. With one shard this is bit-identical to a plain
//!   `StreamDetector` (property-tested) — which is what lets the server's
//!   bare endpoints serve a 1-shard *default tenant*
//!   ([`TenantMap::create_default`], [`DEFAULT_TENANT`]) instead of a
//!   separate single-detector path.
//! * **Isolation & backpressure** — tenants share nothing but the
//!   process: separate windows, schedules, generations. Each shard has
//!   a bounded ingest admission ([`TenantSpec::ingest_queue`]); a hot
//!   tenant gets [`TenantError::ShardSaturated`] instead of occupying
//!   the serving workers other tenants need.
//! * **Durability** — [`Tenant::save_snapshot`] writes one verified
//!   snapshot per shard plus a manifest (committed last), per-shard
//!   replay logs ([`TenantSpec::replay`]) let the sliding windows
//!   survive `kill -9`, and [`TenantMap::restore_tenants`] rediscovers
//!   and rebuilds the whole fleet at boot with generation and stream
//!   position resumed — corrupt or partial sets fail with typed
//!   [`TenantPersistError`]s, never panics.
//!
//! ## Quickstart
//!
//! ```
//! use mccatch_core::McCatch;
//! use mccatch_index::KdTreeBuilder;
//! use mccatch_metric::Euclidean;
//! use mccatch_stream::{RefitPolicy, StreamConfig};
//! use mccatch_tenant::{TenantMap, TenantSpec};
//!
//! let map = TenantMap::new(
//!     McCatch::builder().build()?,
//!     Euclidean,
//!     KdTreeBuilder::default(),
//!     TenantSpec {
//!         shards: 2,
//!         stream: StreamConfig {
//!             capacity: 512,
//!             policy: RefitPolicy::Manual,
//!             ..StreamConfig::default()
//!         },
//!         ..TenantSpec::default()
//!     },
//! )?;
//!
//! // Each tenant fits its shards in parallel from its own seed…
//! let mut seed: Vec<Vec<f64>> = (0..100)
//!     .map(|i| vec![(i % 10) as f64, (i / 10) as f64])
//!     .collect();
//! seed.push(vec![500.0, 500.0]);
//! let acme = map.create_seeded("acme", seed)?;
//! map.create("beta")?; // cold start: degenerate until ingest + refit
//!
//! // …ingest routes by point key, scoring serves the shard ensemble.
//! let event = acme.ingest(vec![4.0, 4.0])?;
//! assert!(!event.flagged);
//! assert!(acme.score(&vec![900.0, 900.0]) > acme.score(&vec![4.5, 4.5]));
//!
//! // Tenants are isolated: beta never moved.
//! assert_eq!(map.get("beta").unwrap().generation(), 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The `mccatch` facade re-exports this crate as `mccatch::tenant`, and
//! `mccatch-server` wires it to the bare endpoints (the default tenant),
//! `/t/{tenant}/…` routing, tenant lifecycle endpoints, per-tenant
//! snapshots, and labeled metrics.

#![deny(missing_docs)]

mod error;
mod map;
mod name;
mod persistence;
mod router;
mod tenant;

pub use error::TenantError;
pub use map::TenantMap;
pub use name::{boot_tenant_name, valid_tenant_name, DEFAULT_TENANT};
pub use persistence::{
    shard_file_path, tenant_manifest_path, ReplaySpec, RestoredTenant, TenantPersistError,
    TenantRestoreStats, TenantSnapshotStats,
};
pub use router::{RouteKey, ShardRouter};
pub use tenant::{ShardQueue, Tenant, TenantSpec};
