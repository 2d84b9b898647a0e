//! Per-table runtime: heap + primary/secondary indexes.

use crate::error::{Result, SqlError};
use crate::page::{Heap, RowLoc};
use crate::rowfmt::{decode_row, encode_row, RecordHeader};
use crate::sql::ast::{ColumnSpec, ForeignKeySpec};
use crate::value::{SqlType, SqlValue};
use sc_encoding::{Decoder, Encoder};
use sc_storage::Vfs;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Static description of a table.
#[derive(Debug, Clone)]
pub struct TableMeta {
    /// Owning database.
    pub database: String,
    /// Table name.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<ColumnSpec>,
    /// Index into `columns` of the primary key.
    pub primary_key: usize,
    /// Secondary-indexed column names.
    pub indexes: Vec<String>,
    /// Foreign keys.
    pub foreign_keys: Vec<ForeignKeySpec>,
}

impl TableMeta {
    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Column types in order.
    pub fn types(&self) -> Vec<SqlType> {
        self.columns.iter().map(|c| c.ty).collect()
    }

    /// `db.table`.
    pub fn qualified(&self) -> String {
        format!("{}.{}", self.database, self.name)
    }
}

/// Composite secondary-index key: `varint(len(value_key)) value_key pk_key`.
/// The embedded varint makes per-value prefix scans unambiguous: no other
/// value's keys start with this value's prefix.
fn composite_key(value: &SqlValue, pk_key: &[u8]) -> Vec<u8> {
    let vk = value.encode_key();
    let mut enc = Encoder::new();
    enc.put_bytes(&vk);
    enc.put_raw(pk_key);
    enc.into_bytes()
}

/// Prefix covering every composite key for `value`.
fn composite_prefix(value: &SqlValue) -> Vec<u8> {
    let vk = value.encode_key();
    let mut enc = Encoder::new();
    enc.put_bytes(&vk);
    enc.into_bytes()
}

/// Runtime state of one table.
#[derive(Debug)]
pub struct TableData {
    meta: Arc<TableMeta>,
    types: Vec<SqlType>,
    vfs: Vfs,
    heap: Heap,
    pk: BTreeMap<Vec<u8>, RowLoc>,
    secondary: Vec<(String, BTreeMap<Vec<u8>, RowLoc>)>,
}

impl TableData {
    /// Creates runtime state for a freshly created table.
    pub fn new(meta: TableMeta, vfs: Vfs) -> TableData {
        let heap = Heap::new(vfs.clone(), format!("{}/{}.ibd", meta.database, meta.name));
        let secondary = meta
            .indexes
            .iter()
            .map(|c| (c.clone(), BTreeMap::new()))
            .collect();
        let types = meta.types();
        TableData {
            meta: Arc::new(meta),
            types,
            vfs,
            heap,
            pk: BTreeMap::new(),
            secondary,
        }
    }

    /// The table's metadata (cheap `Arc` to clone for hot paths).
    pub fn meta(&self) -> &Arc<TableMeta> {
        &self.meta
    }

    /// Number of live rows.
    pub fn row_count(&self) -> u64 {
        self.pk.len() as u64
    }

    /// Adds (and backfills) a secondary index.
    pub fn add_index(&mut self, column: &str) -> Result<()> {
        if self.meta.indexes.iter().any(|c| c == column) {
            return Err(SqlError::AlreadyExists(format!("index on {column:?}")));
        }
        let col_idx = self
            .meta
            .column_index(column)
            .ok_or_else(|| SqlError::UnknownColumn {
                table: self.meta.name.clone(),
                column: column.to_string(),
            })?;
        Arc::make_mut(&mut self.meta)
            .indexes
            .push(column.to_string());
        let mut tree = BTreeMap::new();
        for (pk_key, loc) in &self.pk {
            let row = self.read_row(*loc)?;
            if !row[col_idx].is_null() {
                tree.insert(composite_key(&row[col_idx], pk_key), *loc);
            }
        }
        self.secondary.push((column.to_string(), tree));
        Ok(())
    }

    fn read_row(&self, loc: RowLoc) -> Result<Vec<SqlValue>> {
        let bytes = self.heap.read(loc)?;
        let mut dec = Decoder::new(&bytes);
        let (values, _) = decode_row(&self.types, &mut dec)?;
        Ok(values)
    }

    /// Inserts a full row (already type-checked by the executor).
    pub fn insert(&mut self, values: Vec<SqlValue>, trx_id: u64) -> Result<()> {
        let pk_value = &values[self.meta.primary_key];
        if pk_value.is_null() {
            return Err(SqlError::NullViolation(
                self.meta.columns[self.meta.primary_key].name.clone(),
            ));
        }
        for (spec, v) in self.meta.columns.iter().zip(&values) {
            if spec.not_null && v.is_null() {
                return Err(SqlError::NullViolation(spec.name.clone()));
            }
        }
        let pk_key = pk_value.encode_key();
        if self.pk.contains_key(&pk_key) {
            return Err(SqlError::DuplicateKey(pk_value.to_sql_literal()));
        }
        let header = RecordHeader {
            flags: 0,
            heap_no: (self.heap.row_count() % u64::from(u16::MAX)) as u16,
            next: 0,
            trx_id: trx_id & 0x0000_ffff_ffff_ffff,
            roll_ptr: 0,
        };
        let mut enc = Encoder::new();
        encode_row(&values, &self.types, header, &mut enc);
        let loc = self.heap.append(enc.bytes())?;
        self.pk.insert(pk_key.clone(), loc);
        for (column, tree) in &mut self.secondary {
            let idx = self
                .meta
                .column_index(column)
                .expect("index on known column");
            if !values[idx].is_null() {
                tree.insert(composite_key(&values[idx], &pk_key), loc);
            }
        }
        Ok(())
    }

    /// Point lookup by primary key.
    pub fn get(&self, pk_value: &SqlValue) -> Result<Option<Vec<SqlValue>>> {
        match self.pk.get(&pk_value.encode_key()) {
            Some(loc) => Ok(Some(self.read_row(*loc)?)),
            None => Ok(None),
        }
    }

    /// Deletes by primary key; returns whether a row was removed.
    pub fn delete(&mut self, pk_value: &SqlValue) -> Result<bool> {
        let pk_key = pk_value.encode_key();
        let Some(loc) = self.pk.remove(&pk_key) else {
            return Ok(false);
        };
        let row = self.read_row(loc)?;
        for (column, tree) in &mut self.secondary {
            let idx = self
                .meta
                .column_index(column)
                .expect("index on known column");
            if !row[idx].is_null() {
                tree.remove(&composite_key(&row[idx], &pk_key));
            }
        }
        Ok(true)
    }

    /// Full scan in primary-key order.
    pub fn scan(&self) -> Result<Vec<Vec<SqlValue>>> {
        let mut out = Vec::with_capacity(self.pk.len());
        for loc in self.pk.values() {
            out.push(self.read_row(*loc)?);
        }
        Ok(out)
    }

    /// Rows whose indexed `column` equals `value` (via the secondary index).
    /// Returns `None` if no index exists on the column.
    pub fn find_by_index(
        &self,
        column: &str,
        value: &SqlValue,
    ) -> Result<Option<Vec<Vec<SqlValue>>>> {
        let Some((_, tree)) = self.secondary.iter().find(|(c, _)| c == column) else {
            return Ok(None);
        };
        let prefix = composite_prefix(value);
        let mut out = Vec::new();
        for (_, loc) in tree
            .range(prefix.clone()..)
            .take_while(|(key, _)| key.starts_with(&prefix))
        {
            out.push(self.read_row(*loc)?);
        }
        Ok(Some(out))
    }

    /// Whether the primary key exists (foreign-key validation).
    pub fn pk_exists(&self, value: &SqlValue) -> bool {
        self.pk.contains_key(&value.encode_key())
    }

    fn index_file(&self, name: &str) -> String {
        format!("{}/{}.{}.idx", self.meta.database, self.meta.name, name)
    }

    /// Persists indexes and the open heap page; call before measuring size.
    ///
    /// Index files are rewritten wholesale with InnoDB-like per-entry
    /// metadata (record header + page pointer), so index storage is part of
    /// the measured footprint exactly as it is in MySQL.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.heap.checkpoint()?;
        let write_index = |vfs: &Vfs,
                           file: &str,
                           index: &BTreeMap<Vec<u8>, RowLoc>|
         -> Result<()> {
            vfs.delete(file)?;
            let mut enc = Encoder::new();
            for (i, (key, loc)) in index.iter().enumerate() {
                // Per-entry metadata: record header (5B: flags + heap_no +
                // next) + child/page pointer (4B) + owned slot (2B) + key
                // + row locator.
                enc.put_u8(0);
                enc.put_raw(&((i % usize::from(u16::MAX)) as u16).to_le_bytes());
                enc.put_raw(&0u16.to_le_bytes());
                enc.put_raw(&((loc.offset / crate::page::PAGE_SIZE as u64) as u32).to_le_bytes());
                enc.put_raw(&0u16.to_le_bytes());
                enc.put_bytes(key);
                enc.put_u64(loc.offset);
                enc.put_u32(loc.len);
            }
            if !enc.is_empty() {
                vfs.append(file, enc.bytes())?;
            }
            Ok(())
        };
        write_index(&self.vfs, &self.index_file("pk"), &self.pk)?;
        for (column, tree) in &self.secondary {
            write_index(&self.vfs, &self.index_file(column), tree)?;
        }
        Ok(())
    }

    /// On-disk bytes: heap file plus checkpointed index files.
    pub fn disk_size(&self) -> u64 {
        let mut total = self.heap.disk_size();
        total += self.vfs.len(&self.index_file("pk")).unwrap_or(0);
        for (column, _) in &self.secondary {
            total += self.vfs.len(&self.index_file(column)).unwrap_or(0);
        }
        total
    }

    /// TRUNCATE: drop all rows and files.
    pub fn truncate(&mut self) -> Result<()> {
        self.heap.reset()?;
        self.pk.clear();
        for (_, tree) in &mut self.secondary {
            tree.clear();
        }
        self.vfs.delete(&self.index_file("pk"))?;
        let columns: Vec<String> = self.secondary.iter().map(|(c, _)| c.clone()).collect();
        for c in columns {
            self.vfs.delete(&self.index_file(&c))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> TableMeta {
        TableMeta {
            database: "d".into(),
            name: "cell".into(),
            columns: vec![
                ColumnSpec {
                    name: "id".into(),
                    ty: SqlType::Int,
                    not_null: true,
                },
                ColumnSpec {
                    name: "name".into(),
                    ty: SqlType::Text,
                    not_null: false,
                },
                ColumnSpec {
                    name: "parent".into(),
                    ty: SqlType::Int,
                    not_null: false,
                },
            ],
            primary_key: 0,
            indexes: vec!["parent".into()],
            foreign_keys: vec![],
        }
    }

    fn row(id: i64, name: &str, parent: i64) -> Vec<SqlValue> {
        vec![
            SqlValue::Int(id),
            SqlValue::Text(name.into()),
            SqlValue::Int(parent),
        ]
    }

    #[test]
    fn insert_get_scan() {
        let mut t = TableData::new(meta(), Vfs::memory());
        t.insert(row(2, "b", 10), 1).unwrap();
        t.insert(row(1, "a", 10), 2).unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(
            t.get(&SqlValue::Int(1)).unwrap().unwrap()[1],
            SqlValue::Text("a".into())
        );
        assert!(t.get(&SqlValue::Int(9)).unwrap().is_none());
        let rows = t.scan().unwrap();
        assert_eq!(rows[0][0], SqlValue::Int(1), "scan is pk-ordered");
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = TableData::new(meta(), Vfs::memory());
        t.insert(row(1, "a", 0), 1).unwrap();
        assert!(matches!(
            t.insert(row(1, "dup", 0), 2),
            Err(SqlError::DuplicateKey(_))
        ));
    }

    #[test]
    fn null_constraints() {
        let mut t = TableData::new(meta(), Vfs::memory());
        assert!(matches!(
            t.insert(vec![SqlValue::Null, SqlValue::Null, SqlValue::Null], 1),
            Err(SqlError::NullViolation(_))
        ));
    }

    #[test]
    fn secondary_index_lookup() {
        let mut t = TableData::new(meta(), Vfs::memory());
        for i in 0..20 {
            t.insert(row(i, "x", i % 4), 1).unwrap();
        }
        let hits = t
            .find_by_index("parent", &SqlValue::Int(2))
            .unwrap()
            .unwrap();
        assert_eq!(hits.len(), 5);
        assert!(hits.iter().all(|r| r[2] == SqlValue::Int(2)));
        assert!(t.find_by_index("name", &SqlValue::Null).unwrap().is_none());
    }

    #[test]
    fn add_index_backfills() {
        let mut t = TableData::new(meta(), Vfs::memory());
        for i in 0..10 {
            t.insert(row(i, if i % 2 == 0 { "even" } else { "odd" }, 0), 1)
                .unwrap();
        }
        t.add_index("name").unwrap();
        let evens = t
            .find_by_index("name", &SqlValue::Text("even".into()))
            .unwrap()
            .unwrap();
        assert_eq!(evens.len(), 5);
        assert!(matches!(
            t.add_index("name"),
            Err(SqlError::AlreadyExists(_))
        ));
    }

    #[test]
    fn delete_updates_indexes() {
        let mut t = TableData::new(meta(), Vfs::memory());
        for i in 0..10 {
            t.insert(row(i, "x", 7), 1).unwrap();
        }
        assert!(t.delete(&SqlValue::Int(3)).unwrap());
        assert!(!t.delete(&SqlValue::Int(3)).unwrap());
        assert_eq!(t.row_count(), 9);
        let hits = t
            .find_by_index("parent", &SqlValue::Int(7))
            .unwrap()
            .unwrap();
        assert_eq!(hits.len(), 9);
    }

    #[test]
    fn checkpoint_writes_heap_and_indexes() {
        let mut t = TableData::new(meta(), Vfs::memory());
        for i in 0..100 {
            t.insert(row(i, "station", i % 5), 1).unwrap();
        }
        t.checkpoint().unwrap();
        let size = t.disk_size();
        assert!(size >= crate::page::PAGE_SIZE as u64, "heap page + indexes");
        assert!(t.vfs.exists("d/cell.pk.idx"));
        assert!(t.vfs.exists("d/cell.parent.idx"));
        // Checkpoint again: sizes stay stable (indexes rewritten, not
        // appended).
        t.checkpoint().unwrap();
        assert_eq!(t.disk_size(), size);
    }

    /// Decodes a checkpointed index file into its keys, checking each
    /// entry's ordinal and that its locator names a heap page.
    fn index_keys(vfs: &Vfs, file: &str) -> Vec<Vec<u8>> {
        let bytes = vfs.read_all(file).unwrap();
        let mut dec = Decoder::new(&bytes);
        let mut keys = Vec::new();
        while !dec.is_exhausted() {
            assert_eq!(dec.get_u8().unwrap(), 0, "record flags");
            let ordinal = dec.get_raw(2).unwrap();
            assert_eq!(ordinal, (keys.len() as u16).to_le_bytes(), "entry ordinal");
            dec.get_raw(2).unwrap();
            let page = u32::from_le_bytes(dec.get_raw(4).unwrap().try_into().unwrap());
            dec.get_raw(2).unwrap();
            keys.push(dec.get_bytes().unwrap().to_vec());
            let offset = dec.get_u64().unwrap();
            dec.get_u32().unwrap();
            assert_eq!(u64::from(page), offset / crate::page::PAGE_SIZE as u64);
        }
        keys
    }

    #[test]
    fn checkpointed_indexes_hold_one_entry_per_live_row_in_key_order() {
        let mut t = TableData::new(meta(), Vfs::memory());
        // 37 is coprime with 100: every id once, far from pk order.
        for i in 0..100 {
            let id = (i * 37) % 100;
            t.insert(row(id, "station", id % 5), 1).unwrap();
        }
        let deleted = [3, 50, 99, 0];
        for id in deleted {
            assert!(t.delete(&SqlValue::Int(id)).unwrap());
        }
        t.checkpoint().unwrap();
        let live: Vec<i64> = (0..100).filter(|id| !deleted.contains(id)).collect();

        let pk_keys = index_keys(&t.vfs, "d/cell.pk.idx");
        assert!(pk_keys.windows(2).all(|w| w[0] < w[1]), "pk keys ascend");
        let mut want: Vec<Vec<u8>> = live
            .iter()
            .map(|&id| SqlValue::Int(id).encode_key())
            .collect();
        want.sort();
        assert_eq!(pk_keys, want);

        let parent_keys = index_keys(&t.vfs, "d/cell.parent.idx");
        assert!(
            parent_keys.windows(2).all(|w| w[0] < w[1]),
            "index keys ascend"
        );
        let mut want: Vec<Vec<u8>> = live
            .iter()
            .map(|&id| composite_key(&SqlValue::Int(id % 5), &SqlValue::Int(id).encode_key()))
            .collect();
        want.sort();
        assert_eq!(parent_keys, want);
    }

    #[test]
    fn truncate_resets_files_and_indexes() {
        let mut t = TableData::new(meta(), Vfs::memory());
        t.insert(row(1, "x", 2), 1).unwrap();
        t.checkpoint().unwrap();
        t.truncate().unwrap();
        assert_eq!(t.row_count(), 0);
        assert_eq!(t.disk_size(), 0);
        assert!(t.scan().unwrap().is_empty());
        // Usable after truncate.
        t.insert(row(1, "y", 2), 2).unwrap();
        assert_eq!(t.row_count(), 1);
    }
}
