//! UPDATE and COUNT(*) semantics.

use sc_nosql::{CqlValue, Db, NosqlError, OpenOptions};

fn setup() -> Db {
    let db = Db::open(OpenOptions::default()).unwrap();
    db.execute_cql("CREATE KEYSPACE k").unwrap();
    db.execute_cql("CREATE TABLE k.t (id int, name text, n int, PRIMARY KEY (id))")
        .unwrap();
    db
}

#[test]
fn update_modifies_only_assigned_columns() {
    let db = setup();
    db.execute_cql("INSERT INTO k.t (id, name, n) VALUES (1, 'keep', 10)")
        .unwrap();
    db.execute_cql("UPDATE k.t SET n = 20 WHERE id = 1")
        .unwrap();
    let r = db
        .execute_cql("SELECT name, n FROM k.t WHERE id = 1")
        .unwrap();
    assert_eq!(
        r.rows()[0],
        vec![CqlValue::Text("keep".into()), CqlValue::Int(20)]
    );
}

#[test]
fn update_is_an_upsert() {
    let db = setup();
    db.execute_cql("UPDATE k.t SET name = 'fresh', n = 1 WHERE id = 9")
        .unwrap();
    let r = db.execute_cql("SELECT name FROM k.t WHERE id = 9").unwrap();
    assert_eq!(r.rows()[0][0], CqlValue::Text("fresh".into()));
}

#[test]
fn update_maintains_secondary_indexes() {
    let db = setup();
    db.execute_cql("CREATE INDEX ON k.t (n)").unwrap();
    db.execute_cql("INSERT INTO k.t (id, n) VALUES (1, 5)")
        .unwrap();
    db.execute_cql("UPDATE k.t SET n = 6 WHERE id = 1").unwrap();
    assert!(db
        .execute_cql("SELECT id FROM k.t WHERE n = 5")
        .unwrap()
        .is_empty());
    assert_eq!(
        db.execute_cql("SELECT id FROM k.t WHERE n = 6")
            .unwrap()
            .len(),
        1
    );
}

#[test]
fn update_rejections() {
    let db = setup();
    assert!(matches!(
        db.execute_cql("UPDATE k.t SET id = 2 WHERE id = 1"),
        Err(NosqlError::Unsupported(_))
    ));
    assert!(matches!(
        db.execute_cql("UPDATE k.t SET n = 1 WHERE name = 'x'"),
        Err(NosqlError::Unsupported(_))
    ));
    assert!(matches!(
        db.execute_cql("UPDATE k.t SET n = 'text' WHERE id = 1"),
        Err(NosqlError::TypeMismatch { .. })
    ));
    assert!(matches!(
        db.execute_cql("UPDATE k.t SET nope = 1 WHERE id = 1"),
        Err(NosqlError::UnknownColumn { .. })
    ));
}

#[test]
fn count_star() {
    let db = setup();
    for i in 0..7 {
        db.execute_cql(&format!("INSERT INTO k.t (id, n) VALUES ({i}, {})", i % 2))
            .unwrap();
    }
    let r = db.execute_cql("SELECT COUNT(*) FROM k.t").unwrap();
    assert_eq!(r.columns(), vec!["count"]);
    assert_eq!(r.rows(), vec![vec![CqlValue::Int(7)]]);
    // With a filter (scan fallback) and a limit.
    let r = db
        .execute_cql("SELECT COUNT(*) FROM k.t WHERE n = 0")
        .unwrap();
    assert_eq!(r.rows(), vec![vec![CqlValue::Int(4)]]);
    let r = db.execute_cql("SELECT COUNT(*) FROM k.t LIMIT 3").unwrap();
    assert_eq!(r.rows(), vec![vec![CqlValue::Int(3)]]);
}

#[test]
fn update_roundtrips_through_cql_text() {
    let stmt = sc_nosql::parse_statement("UPDATE k.t SET name = 'x', n = 3 WHERE id = 1").unwrap();
    let again = sc_nosql::parse_statement(&stmt.to_cql()).unwrap();
    assert_eq!(stmt, again);
    let stmt = sc_nosql::parse_statement("SELECT COUNT(*) FROM k.t").unwrap();
    assert_eq!(sc_nosql::parse_statement(&stmt.to_cql()).unwrap(), stmt);
}
