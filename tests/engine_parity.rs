//! Cross-engine parity: the same logical data stored through CQL and SQL
//! text must be readable back identically, and engine size accounting must
//! be self-consistent.

use smartcube::nosql;
use smartcube::relational;

#[test]
fn same_rows_through_both_query_languages() {
    let ndb = nosql::Db::open(nosql::OpenOptions::default()).unwrap();
    ndb.execute_cql("CREATE KEYSPACE k").unwrap();
    ndb.execute_cql("CREATE TABLE k.t (id int, name text, ok boolean, PRIMARY KEY (id))")
        .unwrap();
    let mut rdb = relational::Db::in_memory();
    rdb.execute_sql("CREATE DATABASE k").unwrap();
    rdb.execute_sql("CREATE TABLE k.t (id INT, name TEXT, ok BOOL, PRIMARY KEY (id))")
        .unwrap();
    for i in 0..50i64 {
        ndb.execute_cql(&format!(
            "INSERT INTO k.t (id, name, ok) VALUES ({i}, 'row {i}', {})",
            i % 2 == 0
        ))
        .unwrap();
        rdb.execute_sql(&format!(
            "INSERT INTO k.t (id, name, ok) VALUES ({i}, 'row {i}', {})",
            if i % 2 == 0 { "TRUE" } else { "FALSE" }
        ))
        .unwrap();
    }
    for i in [0i64, 7, 49] {
        let n = ndb
            .execute_cql(&format!("SELECT name, ok FROM k.t WHERE id = {i}"))
            .unwrap();
        let r = rdb
            .execute_sql(&format!("SELECT name, ok FROM k.t WHERE id = {i}"))
            .unwrap();
        let nrow = n.first().unwrap();
        assert_eq!(
            nrow.get_text("name").unwrap(),
            r.rows[0][0].as_text().unwrap()
        );
        assert_eq!(
            nrow.get_bool("ok").unwrap(),
            r.rows[0][1].as_bool().unwrap()
        );
    }
    // Full scans agree on cardinality.
    assert_eq!(
        ndb.execute_cql("SELECT * FROM k.t").unwrap().len(),
        rdb.execute_sql("SELECT * FROM k.t").unwrap().rows.len(),
    );
}

#[test]
fn size_accounting_is_monotone_and_flush_stable() {
    let ndb = nosql::Db::open(nosql::OpenOptions::default()).unwrap();
    ndb.execute_cql("CREATE KEYSPACE k").unwrap();
    ndb.execute_cql("CREATE TABLE k.t (id int, v text, PRIMARY KEY (id))")
        .unwrap();
    let mut last = 0;
    for round in 0..3 {
        for i in 0..200 {
            ndb.execute_cql(&format!(
                "INSERT INTO k.t (id, v) VALUES ({}, 'value {i}')",
                round * 1000 + i
            ))
            .unwrap();
        }
        ndb.flush_all().unwrap();
        let size = ndb.keyspace_size("k").unwrap().as_bytes();
        assert!(size > last, "size must grow: {size} !> {last}");
        last = size;
    }

    let mut rdb = relational::Db::in_memory();
    rdb.execute_sql("CREATE DATABASE k").unwrap();
    rdb.execute_sql("CREATE TABLE k.t (id INT, v TEXT, PRIMARY KEY (id))")
        .unwrap();
    let mut last = 0;
    for round in 0..3 {
        for i in 0..200 {
            rdb.execute_sql(&format!(
                "INSERT INTO k.t (id, v) VALUES ({}, 'value {i}')",
                round * 1000 + i
            ))
            .unwrap();
        }
        rdb.checkpoint_all().unwrap();
        let size = rdb.database_size("k").unwrap().as_bytes();
        assert!(size >= last, "size must not shrink: {size} < {last}");
        last = size;
    }
}

#[test]
fn nosql_durability_roundtrip() {
    // Insert without flushing, recover from the commit log, data survives.
    let vfs = smartcube::storage::Vfs::memory();
    {
        let db = nosql::Db::open(nosql::OpenOptions::default().vfs(vfs.clone())).unwrap();
        db.execute_cql("CREATE KEYSPACE k").unwrap();
        db.execute_cql("CREATE TABLE k.t (id int, v text, PRIMARY KEY (id))")
            .unwrap();
        db.execute_cql("INSERT INTO k.t (id, v) VALUES (1, 'survives')")
            .unwrap();
    }
    let db = nosql::Db::open(nosql::OpenOptions::default().vfs(vfs)).unwrap();
    let r = db.execute_cql("SELECT v FROM k.t WHERE id = 1").unwrap();
    assert_eq!(r.first().unwrap().get_text("v").unwrap(), "survives");
}

#[test]
fn relational_redo_log_grows_then_truncates() {
    let mut db = relational::Db::in_memory();
    db.execute_sql("CREATE DATABASE k").unwrap();
    db.execute_sql("CREATE TABLE k.t (id INT, PRIMARY KEY (id))")
        .unwrap();
    for i in 0..100 {
        db.execute_sql(&format!("INSERT INTO k.t (id) VALUES ({i})"))
            .unwrap();
    }
    assert!(db.redo_log_size() > 0, "WAL must receive row images");
    db.checkpoint_all().unwrap();
    assert_eq!(db.redo_log_size(), 0, "checkpoint truncates the WAL");
}
