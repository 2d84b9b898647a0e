//! The disk VFS backend end to end: identical sizes to the memory backend,
//! real files on disk, and NoSQL recovery from a real directory.

use smartcube::core::models::{NosqlDwarfModel, SchemaModel};
use smartcube::core::MappedDwarf;
use smartcube::dwarf::{CubeSchema, Dwarf, TupleSet};
use smartcube::nosql;
use smartcube::storage::Vfs;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "smartcube-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cube() -> Dwarf {
    let schema = CubeSchema::new(["day", "station"], "hires");
    let mut ts = TupleSet::new(&schema);
    for d in ["mon", "tue", "wed"] {
        for s in ["a", "b", "c", "d"] {
            ts.push([d, s], (d.len() + s.len()) as i64);
        }
    }
    Dwarf::build(schema, ts)
}

#[test]
fn disk_and_memory_backends_agree_on_stored_bytes() {
    let c = cube();
    let mapped = MappedDwarf::new(&c);

    let mut mem_model = NosqlDwarfModel::in_memory();
    mem_model.create_schema().unwrap();
    let mem_report = mem_model.store(&mapped, &c, false).unwrap();

    let dir = temp_dir("size");
    let vfs = Vfs::disk(&dir).unwrap();
    let mut disk_model =
        NosqlDwarfModel::with_db(nosql::Db::open(nosql::OpenOptions::default().vfs(vfs)).unwrap());
    disk_model.create_schema().unwrap();
    let disk_report = disk_model.store(&mapped, &c, false).unwrap();

    assert_eq!(mem_report.size, disk_report.size, "backends must agree");
    // Real SSTable files exist under the keyspace directory.
    let mut found_sst = false;
    for entry in walkdir(&dir) {
        if entry.to_string_lossy().contains("/sst-") {
            found_sst = true;
        }
    }
    assert!(found_sst, "expected SSTable files under {dir:?}");
    disk_model.db_mut().drain_compactions();
    drop(disk_model);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn nosql_recovers_from_a_real_directory() {
    let dir = temp_dir("recover");
    let c = cube();
    let schema_id = {
        let vfs = Vfs::disk(&dir).unwrap();
        let mut model = NosqlDwarfModel::with_db(
            nosql::Db::open(nosql::OpenOptions::default().vfs(vfs)).unwrap(),
        );
        model.create_schema().unwrap();
        let report = model.store(&MappedDwarf::new(&c), &c, false).unwrap();
        report.schema_id
        // Engine dropped here; state lives only on disk.
    };
    let vfs = Vfs::disk(&dir).unwrap();
    let mut model = NosqlDwarfModel::open(vfs).unwrap();
    let rebuilt = model.rebuild(schema_id).unwrap();
    assert_eq!(rebuilt.extract_tuples(), c.extract_tuples());
    std::fs::remove_dir_all(&dir).unwrap();
}

fn walkdir(root: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else {
                out.push(p);
            }
        }
    }
    out
}
