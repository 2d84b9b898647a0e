//! Tenant registry and keyspace confinement.
//!
//! Every authenticated connection belongs to one tenant, and every
//! statement the connection submits is rewritten so that each keyspace
//! reference `ks` becomes `{tenant}__{ks}` before it reaches the engine.
//! Confinement is therefore structural: a tenant cannot *name* another
//! tenant's keyspace, because the prefix is applied after parsing, to
//! every keyspace position of every statement shape (including the
//! statements nested in a `BEGIN BATCH`).
//!
//! Tenant names are restricted to ASCII alphanumerics. That makes the
//! `{tenant}__{ks}` mapping injective: the physical name's first `__`
//! unambiguously separates tenant from keyspace (a tenant name can never
//! contain or end in an underscore), so two distinct tenants can never
//! collide on a physical keyspace no matter which keyspace names they
//! choose.

use sc_nosql::Statement;
use std::collections::HashMap;

/// Token → tenant lookup table, built from [`crate::ServerConfig`].
#[derive(Debug, Default, Clone)]
pub struct TenantMap {
    by_token: HashMap<String, String>,
}

/// Rejected tenant registration.
#[derive(Debug, PartialEq, Eq)]
pub enum TenantError {
    /// Tenant names must be non-empty ASCII alphanumerics.
    BadName(String),
    /// Tokens must be non-empty.
    EmptyToken,
    /// The token is already registered (possibly for another tenant).
    DuplicateToken,
}

impl std::fmt::Display for TenantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TenantError::BadName(n) => write!(
                f,
                "tenant name {n:?} must be non-empty ASCII alphanumeric ([A-Za-z0-9]+)"
            ),
            TenantError::EmptyToken => write!(f, "auth tokens must be non-empty"),
            TenantError::DuplicateToken => write!(f, "auth token already registered"),
        }
    }
}

impl std::error::Error for TenantError {}

impl TenantMap {
    /// An empty map (every handshake fails).
    pub fn new() -> TenantMap {
        TenantMap::default()
    }

    /// Registers `token` as authenticating `tenant`. Several tokens may
    /// map to the same tenant (credential rotation); one token never maps
    /// to two tenants.
    pub fn register(&mut self, tenant: &str, token: &str) -> Result<(), TenantError> {
        if tenant.is_empty() || !tenant.bytes().all(|b| b.is_ascii_alphanumeric()) {
            return Err(TenantError::BadName(tenant.to_string()));
        }
        if token.is_empty() {
            return Err(TenantError::EmptyToken);
        }
        if self.by_token.contains_key(token) {
            return Err(TenantError::DuplicateToken);
        }
        self.by_token.insert(token.to_string(), tenant.to_string());
        Ok(())
    }

    /// The tenant a token authenticates, if any. Comparison is
    /// whole-token equality; there is no prefix matching.
    pub fn authenticate(&self, token: &str) -> Option<&str> {
        self.by_token.get(token).map(String::as_str)
    }

    /// Number of registered tokens.
    pub fn len(&self) -> usize {
        self.by_token.len()
    }

    /// Whether no token is registered.
    pub fn is_empty(&self) -> bool {
        self.by_token.is_empty()
    }
}

/// The physical keyspace name backing `keyspace` for `tenant`.
pub fn physical_keyspace(tenant: &str, keyspace: &str) -> String {
    format!("{tenant}__{keyspace}")
}

/// Rewrites every keyspace reference in `stmt` into the tenant's
/// namespace. Applied after parsing and before execution — there is no
/// code path from a session's CQL text to the engine that skips this.
pub fn confine_statement(stmt: &mut Statement, tenant: &str) {
    match stmt {
        Statement::CreateKeyspace { name } => {
            *name = physical_keyspace(tenant, name);
        }
        Statement::Use { keyspace } => {
            *keyspace = physical_keyspace(tenant, keyspace);
        }
        Statement::CreateTable { table, .. }
        | Statement::CreateIndex { table, .. }
        | Statement::Insert { table, .. }
        | Statement::Select { table, .. }
        | Statement::Update { table, .. }
        | Statement::Delete { table, .. }
        | Statement::Truncate { table } => {
            // Unqualified references stay unqualified: the engine session
            // resolves them against the tenant's (already confined) USE
            // keyspace, so they can never escape the namespace either.
            if table.is_qualified() {
                table.keyspace = physical_keyspace(tenant, &table.keyspace);
            }
        }
        Statement::Batch { statements } => {
            for s in statements {
                confine_statement(s, tenant);
            }
        }
        Statement::Explain { statement } => {
            confine_statement(statement, tenant);
        }
    }
}

/// Strips the tenant's physical prefix from an engine error message so
/// responses talk about the keyspace names the tenant actually used (and
/// never reveal the prefixing scheme). The prefix is stripped only where an
/// identifier starts: inside one (`app.data__x`, for tenant `a`) the same
/// characters are the tenant's own text.
pub fn scrub_message(message: &str, tenant: &str) -> String {
    let prefix = physical_keyspace(tenant, "");
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut out = String::with_capacity(message.len());
    let mut rest = message;
    while !rest.is_empty() {
        // One maximal run of identifier characters, or of anything else.
        let in_ident = rest.starts_with(is_ident);
        let end = rest.find(|c| is_ident(c) != in_ident).unwrap_or(rest.len());
        let (run, tail) = rest.split_at(end);
        out.push_str(run.strip_prefix(&prefix).unwrap_or(run));
        rest = tail;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_nosql::parse_statement;

    #[test]
    fn register_validates_names_and_tokens() {
        let mut map = TenantMap::new();
        map.register("city1", "tok-a").unwrap();
        // Same tenant, second token: fine. Same token again: rejected.
        map.register("city1", "tok-b").unwrap();
        assert_eq!(
            map.register("city2", "tok-a"),
            Err(TenantError::DuplicateToken)
        );
        assert!(matches!(
            map.register("bad__name", "t"),
            Err(TenantError::BadName(_))
        ));
        assert!(matches!(
            map.register("bad_name", "t"),
            Err(TenantError::BadName(_))
        ));
        assert!(matches!(
            map.register("", "t"),
            Err(TenantError::BadName(_))
        ));
        assert_eq!(map.register("ok", ""), Err(TenantError::EmptyToken));
        assert_eq!(map.authenticate("tok-a"), Some("city1"));
        assert_eq!(map.authenticate("tok-b"), Some("city1"));
        assert_eq!(map.authenticate("tok-c"), None);
        assert_eq!(map.authenticate("tok"), None, "no prefix matching");
    }

    #[test]
    fn confinement_rewrites_every_statement_shape() {
        let cases = [
            ("CREATE KEYSPACE app", "CREATE KEYSPACE t1__app"),
            (
                "CREATE TABLE app.t (id int, PRIMARY KEY (id))",
                "CREATE TABLE t1__app.t (id int, PRIMARY KEY (id))",
            ),
            (
                "CREATE INDEX ON app.t (id)",
                "CREATE INDEX ON t1__app.t (id)",
            ),
            (
                "INSERT INTO app.t (id) VALUES (1)",
                "INSERT INTO t1__app.t (id) VALUES (1)",
            ),
            ("SELECT * FROM app.t", "SELECT * FROM t1__app.t"),
            (
                "UPDATE app.t SET v = 1 WHERE id = 2",
                "UPDATE t1__app.t SET v = 1 WHERE id = 2",
            ),
            (
                "DELETE FROM app.t WHERE id = 1",
                "DELETE FROM t1__app.t WHERE id = 1",
            ),
            ("TRUNCATE app.t", "TRUNCATE t1__app.t"),
            ("USE app", "USE t1__app"),
        ];
        for (input, expected) in cases {
            let mut stmt = parse_statement(input).unwrap();
            confine_statement(&mut stmt, "t1");
            let expected_stmt = parse_statement(expected).unwrap();
            assert_eq!(stmt, expected_stmt, "confining {input:?}");
        }
    }

    #[test]
    fn confinement_leaves_unqualified_references_to_the_session() {
        let mut stmt = parse_statement("SELECT * FROM t").unwrap();
        confine_statement(&mut stmt, "t1");
        assert_eq!(stmt, parse_statement("SELECT * FROM t").unwrap());
    }

    #[test]
    fn confinement_recurses_into_batches() {
        let mut stmt = parse_statement(
            "BEGIN BATCH INSERT INTO a.t (id) VALUES (1); DELETE FROM b.t WHERE id = 2; APPLY BATCH",
        )
        .unwrap();
        confine_statement(&mut stmt, "t9");
        let cql = stmt.to_cql();
        assert!(cql.contains("t9__a.t"), "{cql}");
        assert!(cql.contains("t9__b.t"), "{cql}");
    }

    #[test]
    fn alphanumeric_tenants_cannot_collide() {
        // The classic ambiguity needs an underscore in a tenant name
        // ("a_" + "b" vs "a" + "_b"); alphanumeric-only names exclude it.
        assert_ne!(
            physical_keyspace("ab", "c"),
            physical_keyspace("a", "bc"),
            "distinct tenants map to distinct physical names"
        );
        assert_eq!(physical_keyspace("t1", "app"), "t1__app");
    }

    #[test]
    fn scrub_hides_the_physical_prefix() {
        assert_eq!(
            scrub_message("unknown keyspace \"t1__app\"", "t1"),
            "unknown keyspace \"app\""
        );
        // Inside an identifier the same characters belong to the tenant.
        assert_eq!(
            scrub_message("unknown table a__app.data__x in a__a__x", "a"),
            "unknown table app.data__x in a__x"
        );
    }
}
