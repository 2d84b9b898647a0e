//! Every literal kind in every place a literal can stand.
//!
//! A statement's literals are bound once against the table definition; this
//! sweep is the table that pins it: `null`, int, text, boolean and
//! `set<int>` literals × INSERT value, INSERT key, UPDATE SET, UPDATE and
//! DELETE WHERE, and SELECT `=` / `IN` / `<` on the key, on an indexed
//! column and on a plain column, over key and column types of every kind.
//! Each statement runs under `catch_unwind` in a seeded order with flushes
//! in between: no panic, the outcome is exactly the one the column's type
//! predicts (`Ok`, `TypeMismatch`, `MissingPrimaryKey`, `Unsupported`), and
//! afterwards no table holds a row under a null key.

use sc_encoding::Rng;
use sc_nosql::{CqlValue, Db, NosqlError, OpenOptions};
use std::panic::{catch_unwind, AssertUnwindSafe};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Null,
    Int,
    Text,
    Boolean,
    IntSet,
}

const KINDS: [Kind; 5] = [
    Kind::Null,
    Kind::Int,
    Kind::Text,
    Kind::Boolean,
    Kind::IntSet,
];

impl Kind {
    fn literal(self) -> &'static str {
        match self {
            Kind::Null => "null",
            Kind::Int => "7",
            Kind::Text => "'x'",
            Kind::Boolean => "true",
            Kind::IntSet => "{1, 2}",
        }
    }

    fn cql_type(self) -> &'static str {
        match self {
            Kind::Null => unreachable!("null is a literal, not a column type"),
            Kind::Int => "int",
            Kind::Text => "text",
            Kind::Boolean => "boolean",
            Kind::IntSet => "set<int>",
        }
    }
}

/// A table under test: key, indexed and plain column types. Indexes need an
/// int key, so only the int-keyed tables have one.
struct Table {
    name: &'static str,
    key: Kind,
    indexed: Option<Kind>,
    plain: Kind,
}

const TABLES: [Table; 4] = [
    Table {
        name: "sweep.a",
        key: Kind::Int,
        indexed: Some(Kind::Text),
        plain: Kind::IntSet,
    },
    Table {
        name: "sweep.b",
        key: Kind::Int,
        indexed: Some(Kind::Boolean),
        plain: Kind::Int,
    },
    Table {
        name: "sweep.c",
        key: Kind::Text,
        indexed: None,
        plain: Kind::Boolean,
    },
    Table {
        name: "sweep.d",
        key: Kind::Boolean,
        indexed: None,
        plain: Kind::Text,
    },
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    Ok,
    TypeMismatch,
    MissingPrimaryKey,
    Unsupported,
}

/// What binding `literal` to a column of type `column` answers; a null key
/// is legal to look for and illegal to write.
fn bind(literal: Kind, column: Kind, written_key: bool) -> Expect {
    match literal {
        Kind::Null if written_key => Expect::MissingPrimaryKey,
        Kind::Null => Expect::Ok,
        l if l == column => Expect::Ok,
        _ => Expect::TypeMismatch,
    }
}

struct Case {
    cql: String,
    expect: Expect,
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for t in &TABLES {
        let key = t.key.literal();
        let columns: Vec<(&str, Kind)> =
            [("id", Some(t.key)), ("ix", t.indexed), ("p", Some(t.plain))]
                .into_iter()
                .filter_map(|(name, kind)| Some((name, kind?)))
                .collect();
        for lit in KINDS {
            let l = lit.literal();
            let name = t.name;
            let mut case = |cql: String, expect| out.push(Case { cql, expect });
            case(
                format!("INSERT INTO {name} (id) VALUES ({l})"),
                bind(lit, t.key, true),
            );
            case(
                format!("UPDATE {name} SET p = null WHERE id = {l}"),
                bind(lit, t.key, true),
            );
            case(
                format!("DELETE FROM {name} WHERE id = {l}"),
                bind(lit, t.key, true),
            );
            for &(column, ty) in &columns {
                if column != "id" {
                    case(
                        format!("INSERT INTO {name} (id, {column}) VALUES ({key}, {l})"),
                        bind(lit, ty, false),
                    );
                    case(
                        format!("UPDATE {name} SET {column} = {l} WHERE id = {key}"),
                        bind(lit, ty, false),
                    );
                }
                case(
                    format!("SELECT * FROM {name} WHERE {column} = {l}"),
                    bind(lit, ty, false),
                );
                case(
                    format!("SELECT * FROM {name} WHERE {column} IN ({l}, {l})"),
                    bind(lit, ty, false),
                );
                let range = match ty {
                    Kind::IntSet => Expect::Unsupported,
                    _ => bind(lit, ty, false),
                };
                case(format!("SELECT * FROM {name} WHERE {column} < {l}"), range);
            }
        }
    }
    out
}

fn outcome(result: Result<sc_nosql::QueryResult, NosqlError>) -> Result<Expect, NosqlError> {
    match result {
        Ok(_) => Ok(Expect::Ok),
        Err(NosqlError::TypeMismatch { .. }) => Ok(Expect::TypeMismatch),
        Err(NosqlError::MissingPrimaryKey(_)) => Ok(Expect::MissingPrimaryKey),
        Err(NosqlError::Unsupported(_)) => Ok(Expect::Unsupported),
        Err(other) => Err(other),
    }
}

fn sweep(seed: u64) {
    let db = Db::open(OpenOptions::default().memtable_flush_bytes(512)).unwrap();
    db.execute_cql("CREATE KEYSPACE sweep").unwrap();
    for t in &TABLES {
        let ix = t
            .indexed
            .map_or(String::new(), |k| format!("ix {}, ", k.cql_type()));
        db.execute_cql(&format!(
            "CREATE TABLE {} (id {}, {ix}p {}, PRIMARY KEY (id))",
            t.name,
            t.key.cql_type(),
            t.plain.cql_type()
        ))
        .unwrap();
        if t.indexed.is_some() {
            db.execute_cql(&format!("CREATE INDEX ON {} (ix)", t.name))
                .unwrap();
        }
    }
    let mut rng = Rng::new(seed);
    let mut cases = cases();
    for i in (1..cases.len()).rev() {
        cases.swap(i, rng.gen_range(i as u64 + 1) as usize);
    }
    for case in &cases {
        if rng.gen_range(16) == 0 {
            db.flush_all().unwrap();
        }
        let result = catch_unwind(AssertUnwindSafe(|| db.execute_cql(&case.cql)))
            .unwrap_or_else(|_| panic!("seed {seed}: {} panicked", case.cql));
        match outcome(result) {
            Ok(got) => assert_eq!(got, case.expect, "seed {seed}: {}", case.cql),
            Err(other) => panic!("seed {seed}: {} answered {other:?}", case.cql),
        }
    }
    for t in &TABLES {
        let rows = db
            .execute_cql(&format!("SELECT * FROM {}", t.name))
            .unwrap();
        for row in rows.iter() {
            assert_ne!(
                row.get("id").unwrap(),
                &CqlValue::Null,
                "seed {seed}: {} holds a row under a null key",
                t.name
            );
        }
    }
}

#[test]
fn every_literal_kind_in_every_position_is_ok_or_a_typed_error() {
    for seed in [1, 7, 1311] {
        sweep(seed);
    }
}
