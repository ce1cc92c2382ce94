//! Tenant naming: the wire-safe name grammar, the reserved name of the
//! default tenant, and the deterministic boot-time naming scheme.

/// The name of the default tenant — the 1-shard tenant behind the bare
/// `/score`, `/ingest`, … endpoints, persisted as `{snap}.default.0` +
/// `{snap}.default.manifest` with its replay log at `{log}.default.0`.
/// It lives beside a [`TenantMap`](crate::TenantMap), never in it, so
/// the name is reserved: creating a named tenant called `default` fails
/// with [`TenantError::ReservedName`](crate::TenantError::ReservedName),
/// and [`TenantMap::restore_tenants`](crate::TenantMap::restore_tenants)
/// skips its files.
pub const DEFAULT_TENANT: &str = "default";

/// Whether `name` is a legal tenant name: `[a-zA-Z0-9_-]{1,64}`.
///
/// The grammar is deliberately URL-, header-, filename- and
/// Prometheus-label-safe, so a tenant name can appear verbatim in a
/// `/t/{tenant}/…` path, an `X-Mccatch-Tenant` header, a per-shard
/// snapshot filename, and a `tenant="…"` label without any escaping.
/// (The serving layer still escapes label values defensively.)
///
/// ```
/// use mccatch_tenant::valid_tenant_name;
///
/// assert!(valid_tenant_name("acme-prod_7"));
/// assert!(!valid_tenant_name(""));
/// assert!(!valid_tenant_name("a/b"));
/// assert!(!valid_tenant_name(&"x".repeat(65)));
/// ```
pub fn valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// The deterministic name of the `i`-th boot tenant: spreadsheet-style
/// base-26 letters — `a`..`z`, then `aa`, `ab`, ….
///
/// The CLI's `--tenants N` pre-creates tenants named
/// `boot_tenant_name(0..N)`, so `--tenants 2` serves `/t/a/…` and
/// `/t/b/…` out of the box.
///
/// ```
/// use mccatch_tenant::boot_tenant_name;
///
/// assert_eq!(boot_tenant_name(0), "a");
/// assert_eq!(boot_tenant_name(25), "z");
/// assert_eq!(boot_tenant_name(26), "aa");
/// assert_eq!(boot_tenant_name(27), "ab");
/// ```
pub fn boot_tenant_name(i: usize) -> String {
    let mut n = i;
    let mut out = Vec::new();
    loop {
        out.push(b'a' + (n % 26) as u8);
        n /= 26;
        if n == 0 {
            break;
        }
        n -= 1;
    }
    out.reverse();
    String::from_utf8(out).expect("ascii letters")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_grammar_is_exactly_the_documented_set() {
        assert!(valid_tenant_name("a"));
        assert!(valid_tenant_name("A-Z_09"));
        assert!(valid_tenant_name(&"y".repeat(64)));
        for bad in ["", " ", "a b", "a.b", "a/b", "ä", "a\n", "a\"b", "a\\b"] {
            assert!(!valid_tenant_name(bad), "{bad:?} must be rejected");
        }
        assert!(!valid_tenant_name(&"y".repeat(65)));
    }

    #[test]
    fn boot_names_are_unique_and_valid() {
        let names: Vec<String> = (0..100).map(boot_tenant_name).collect();
        for n in &names {
            assert!(valid_tenant_name(n), "{n:?}");
        }
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "boot names must not collide");
        assert_eq!(&names[..4], &["a", "b", "c", "d"]);
        assert_eq!(names[26], "aa");
        assert_eq!(names[51], "az");
        assert_eq!(names[52], "ba");
    }
}
