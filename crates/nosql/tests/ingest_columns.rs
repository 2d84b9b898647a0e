//! `Db::ingest_columns`: rows given column by column go in as the same
//! SSTable bytes their rows make through `Db::ingest_sorted`, and every
//! refusal a column batch can meet is typed and writes nothing.

use sc_nosql::{CqlValue, Db, NosqlError, OpenOptions, ValueRef};
use sc_storage::Vfs;

/// `ks.t (id int, g text, s set<int>, b boolean)`.
fn open(vfs: &Vfs) -> Db {
    let db = Db::open(OpenOptions::default().vfs(vfs.clone())).unwrap();
    db.execute_cql("CREATE KEYSPACE ks").unwrap();
    let ddl = "CREATE TABLE ks.t (id int, g text, s set<int>, b boolean, PRIMARY KEY (id))";
    db.execute_cql(ddl).unwrap();
    db
}

/// The only SSTable of `ks.t`.
fn sstable(vfs: &Vfs) -> Vec<u8> {
    let files = vfs.list("ks/t/sst-").unwrap();
    assert_eq!(files.len(), 1, "{files:?}");
    vfs.read_all(&files[0]).unwrap()
}

#[test]
fn columns_and_rows_write_the_same_bytes() {
    // Descending ids, so both ingests sort; sets given to the row path in
    // descending order, which it takes as sets; nulls in two columns.
    let ids: Vec<i64> = (0..700).rev().collect();
    let sets: Vec<Vec<i64>> = ids
        .iter()
        .map(|&i| (0..i % 4).map(|k| i * 10 + k).collect())
        .collect();
    let groups: Vec<String> = ids.iter().map(|i| format!("g{}", i % 7)).collect();
    let rows: Vec<[CqlValue; 4]> = (0..ids.len())
        .map(|r| {
            [
                CqlValue::Int(ids[r]),
                CqlValue::Text(groups[r].clone()),
                CqlValue::int_set(sets[r].iter().rev().copied()),
                match ids[r] % 5 {
                    0 => CqlValue::Null,
                    b => CqlValue::Boolean(b % 2 == 0),
                },
            ]
        })
        .collect();
    let names = ["id", "g", "s", "b"];
    let by_rows = Vfs::memory();
    let db = open(&by_rows);
    assert_eq!(
        db.ingest_sorted("ks", "t", &names, rows.clone()).unwrap(),
        700
    );
    let by_columns = Vfs::memory();
    let db = open(&by_columns);
    let cells = vec![
        ids.iter().map(|&i| ValueRef::Int(i)).collect(),
        groups.iter().map(|g| ValueRef::Text(g)).collect(),
        sets.iter().map(|s| ValueRef::IntSet(s)).collect(),
        rows.iter().map(|r| ValueRef::from(&r[3])).collect(),
    ];
    assert_eq!(db.ingest_columns("ks", "t", &names, cells).unwrap(), 700);
    assert_eq!(sstable(&by_columns), sstable(&by_rows));
    let r = db
        .execute_cql("SELECT g, s FROM ks.t WHERE id = 699")
        .unwrap();
    assert_eq!(r.rows()[0].get_text("g").unwrap(), "g6");
    assert_eq!(r.rows()[0].get_int_set("s").unwrap(), [6990, 6991, 6992]);
}

#[test]
fn column_batch_refusals_are_typed_and_write_nothing() {
    let vfs = Vfs::memory();
    let db = open(&vfs);
    let before = vfs.list("").unwrap();
    let ingest = |names: &[&str], cells: Vec<Vec<ValueRef<'_>>>| {
        let e = db.ingest_columns("ks", "t", names, cells).unwrap_err();
        assert_eq!(vfs.list("").unwrap(), before, "{e}");
        e
    };
    let ids = |ids: &[i64]| ids.iter().map(|&i| ValueRef::Int(i)).collect::<Vec<_>>();
    let e = ingest(&["id", "g"], vec![ids(&[1, 2]), vec![ValueRef::Null]]);
    assert!(matches!(e, NosqlError::Parse(_)), "{e}");
    let e = ingest(&["id"], vec![ids(&[1]), ids(&[2])]);
    assert!(matches!(e, NosqlError::Parse(_)), "{e}");
    let e = ingest(&["id", "nope"], vec![ids(&[1]), ids(&[1])]);
    assert!(matches!(e, NosqlError::UnknownColumn { .. }), "{e}");
    let e = ingest(
        &["id", "g"],
        vec![ids(&[1, 2]), vec![ValueRef::Text("a"), ValueRef::Int(3)]],
    );
    assert!(matches!(e, NosqlError::TypeMismatch { .. }), "{e}");
    let e = ingest(
        &["id", "s"],
        vec![ids(&[1]), vec![ValueRef::IntSet(&[3, 2])]],
    );
    assert!(
        matches!(&e, NosqlError::TypeMismatch { found, .. } if found.contains("unordered")),
        "{e}"
    );
    let e = ingest(
        &["id", "s"],
        vec![ids(&[1]), vec![ValueRef::IntSet(&[2, 2])]],
    );
    assert!(matches!(e, NosqlError::TypeMismatch { .. }), "{e}");
    let e = ingest(&["g"], vec![vec![ValueRef::Text("no key")]]);
    assert!(matches!(e, NosqlError::MissingPrimaryKey(_)), "{e}");
    let e = ingest(&["id"], vec![ids(&[3, 1, 3])]);
    assert!(
        matches!(&e, NosqlError::AlreadyExists(m) if m.contains("id = 3")),
        "{e}"
    );
    db.ingest_columns("ks", "t", &["id"], vec![ids(&[5])])
        .unwrap();
    let before = vfs.list("").unwrap();
    let e = db
        .ingest_columns("ks", "t", &["id"], vec![ids(&[4, 5])])
        .unwrap_err();
    assert!(
        matches!(&e, NosqlError::AlreadyExists(m) if m.contains("id = 5")),
        "{e}"
    );
    assert_eq!(vfs.list("").unwrap(), before);
    assert_eq!(
        db.ingest_columns("ks", "t", &["id"], vec![ids(&[])])
            .unwrap(),
        0
    );
}
