//! # sc-nosql
//!
//! An embedded columnar NoSQL engine modelled on Apache Cassandra, the store
//! the paper uses for its DWARF cubes. The engine implements the pieces of
//! Cassandra's architecture that the paper's evaluation depends on:
//!
//! * **keyspaces and column families** with typed columns, including the
//!   `set<int>` collection type whose one-write edge encoding is the reason
//!   NoSQL-DWARF wins Table 4/5,
//! * the **write path** — commit log append, memtable insert, SSTable flush,
//!   size-tiered compaction — so insert timing (Table 5) exercises real
//!   mechanisms — and beside it the **sorted-run ingest**
//!   ([`Db::ingest_columns`]) that writes a batch of new keys, given column
//!   by column, straight into one SSTable, as a bulk loader does; every
//!   SSTable is written from such a column batch by one writer,
//! * **secondary indexes** maintained as hidden index column families with
//!   one posting row per (value, key) — Cassandra's one-cell-per-posting
//!   layout — plus a read-before-write of the old base row; the extra
//!   writes and reads are what make NoSQL-Min lose Table 5,
//! * a **CQL subset** (`CREATE KEYSPACE/TABLE/INDEX`, `INSERT`, `SELECT`,
//!   `DELETE`, `BEGIN BATCH`) so the paper's Figure 3 statement
//!   transformation runs verbatim,
//! * real **on-disk sizes**: every byte of every SSTable is accounted for
//!   via `sc-storage`, which is what Table 4 measures.
//!
//! ```
//! use sc_nosql::{Db, OpenOptions};
//!
//! let db = Db::open(OpenOptions::default()).unwrap();
//! db.execute_cql("CREATE KEYSPACE smartcity").unwrap();
//! db.execute_cql(
//!     "CREATE TABLE smartcity.cells (id int, key text, measure int, PRIMARY KEY (id))",
//! ).unwrap();
//! db.execute_cql(
//!     "INSERT INTO smartcity.cells (id, key, measure) VALUES (3, 'Fenian St', 3)",
//! ).unwrap();
//! let rows = db.execute_cql("SELECT key, measure FROM smartcity.cells WHERE id = 3").unwrap();
//! let row = rows.first().unwrap();
//! assert_eq!(row.get_text("key").unwrap(), "Fenian St");
//! assert_eq!(row.get_int("measure").unwrap(), 3);
//! ```
//!
//! Where things live: [`schema`] holds the table definition and the bind
//! step (column by name, literal against column type, key literal → encoded
//! key) every statement goes through once; [`engine`] the table registry,
//! the statement dispatch and the [`Db`] handle, with recovery, DDL and
//! DML/SELECT in `engine/{recovery,ddl,dml}.rs`; `index` everything that
//! knows how a secondary-index posting is stored; [`plan`] and `exec` the
//! SELECT planner and operators; [`table`], [`memtable`], [`sstable`],
//! [`commitlog`], [`manifest`] and [`cache`] the storage side.
//!
//! Durability is crash-tested: `sc_storage::Vfs::with_faults` simulates
//! power loss at every mutating storage operation, and the
//! [`crashtest`] sweep asserts that recovery reproduces exactly the
//! acknowledged writes.

pub mod cache;
pub(crate) mod colblock;
pub mod commitlog;
pub(crate) mod compactor;
pub mod cql;
pub mod crashtest;
pub mod engine;
pub mod error;
pub(crate) mod exec;
pub(crate) mod index;
pub mod manifest;
pub mod memtable;
pub(crate) mod mvcc;
mod obs;
pub mod plan;
pub mod result;
pub mod row;
pub mod schema;
pub mod session;
pub mod snapshot;
pub mod sstable;
pub mod table;
pub mod types;

pub use cache::{BlockCache, CacheStats, DEFAULT_BLOCK_CACHE_BYTES};
pub use cql::ast::{AggFunc, CmpOp, OrderBy, SelectColumns, SelectItem, Statement, WhereClause};
pub use cql::parse_statement;
pub use engine::{Db, OpenOptions, SharedDb};
pub use error::NosqlError;
pub use manifest::{Manifest, ManifestEdit};
pub use result::{QueryResult, QueryRow};
pub use schema::{ColumnDef, TableDef};
pub use session::Session;
pub use snapshot::Snapshot;
pub use table::TableWrites;
pub use types::{CqlType, CqlTypeError, CqlValue, ValueRef};
