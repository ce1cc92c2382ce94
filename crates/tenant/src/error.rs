//! Typed errors of the multi-tenant layer.

use mccatch_stream::StreamError;

/// Everything that can go wrong creating, routing to, or driving a
/// tenant. Lifecycle violations (`AlreadyExists`, `NotFound`) and
/// admission control (`ShardSaturated`) are ordinary, recoverable
/// outcomes a serving layer maps to HTTP statuses; `Stream` wraps a
/// shard's underlying [`StreamError`].
#[derive(Debug, Clone, PartialEq)]
pub enum TenantError {
    /// The tenant name is not `[a-zA-Z0-9_-]{1,64}` (see
    /// [`valid_tenant_name`](crate::valid_tenant_name)).
    InvalidName {
        /// The offending name.
        name: String,
    },
    /// The name is reserved for the default tenant
    /// ([`DEFAULT_TENANT`](crate::DEFAULT_TENANT)).
    ReservedName {
        /// The reserved name.
        name: String,
    },
    /// A tenant with this name already exists in the map.
    AlreadyExists {
        /// The contested name.
        name: String,
    },
    /// No tenant with this name exists in the map.
    NotFound {
        /// The name that was looked up.
        name: String,
    },
    /// A tenant must own at least one shard.
    InvalidShards {
        /// The rejected shard count.
        got: usize,
    },
    /// The per-shard ingest queue bound must be at least one.
    InvalidQueue {
        /// The rejected queue bound.
        got: usize,
    },
    /// An explicit shard index was outside the tenant's shard set.
    NoSuchShard {
        /// The requested shard.
        shard: usize,
        /// How many shards the tenant owns.
        shards: usize,
    },
    /// The routed shard's bounded ingest queue is full — backpressure,
    /// scoped to one tenant's shard so a hot tenant cannot starve the
    /// rest. Retry after in-flight ingests drain.
    ShardSaturated {
        /// The saturated tenant.
        tenant: String,
        /// The saturated shard.
        shard: usize,
        /// The configured in-flight bound that was hit.
        capacity: usize,
    },
    /// A shard's stream detector failed (initial fit or refit).
    Stream(StreamError),
    /// Opening or seeding a shard's replay log failed at tenant
    /// creation/restore (the message is the rendered persist-layer
    /// error; this enum stays `Clone + PartialEq`, which the underlying
    /// `PersistError` is not).
    Replay {
        /// The tenant whose log failed.
        tenant: String,
        /// The shard whose log failed.
        shard: usize,
        /// The rendered underlying error.
        message: String,
    },
}

impl std::fmt::Display for TenantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidName { name } => write!(
                f,
                "invalid tenant name {name:?}: must match [a-zA-Z0-9_-]{{1,64}}"
            ),
            Self::ReservedName { name } => write!(
                f,
                "tenant name {name:?} is reserved for the default tenant behind the bare endpoints"
            ),
            Self::AlreadyExists { name } => write!(f, "tenant {name:?} already exists"),
            Self::NotFound { name } => write!(f, "no such tenant: {name:?}"),
            Self::InvalidShards { got } => {
                write!(f, "a tenant needs at least 1 shard, got {got}")
            }
            Self::InvalidQueue { got } => {
                write!(f, "per-shard ingest queue must be >= 1, got {got}")
            }
            Self::NoSuchShard { shard, shards } => {
                write!(f, "no such shard: {shard} (tenant has {shards})")
            }
            Self::ShardSaturated {
                tenant,
                shard,
                capacity,
            } => write!(
                f,
                "tenant {tenant:?} shard {shard} is saturated ({capacity} ingests in flight)"
            ),
            Self::Stream(e) => write!(f, "shard stream error: {e}"),
            Self::Replay {
                tenant,
                shard,
                message,
            } => write!(f, "tenant {tenant:?} shard {shard} replay log: {message}"),
        }
    }
}

impl std::error::Error for TenantError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Stream(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StreamError> for TenantError {
    fn from(e: StreamError) -> Self {
        Self::Stream(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offender() {
        let e = TenantError::ShardSaturated {
            tenant: "acme".to_owned(),
            shard: 3,
            capacity: 16,
        };
        let msg = e.to_string();
        assert!(
            msg.contains("acme") && msg.contains('3') && msg.contains("16"),
            "{msg}"
        );
        assert!(TenantError::NotFound {
            name: "ghost".to_owned()
        }
        .to_string()
        .contains("ghost"));
    }
}
