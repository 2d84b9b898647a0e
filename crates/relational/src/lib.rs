//! # sc-relational
//!
//! An embedded relational engine modelled on MySQL/InnoDB, the comparison
//! store in the paper's evaluation (the MySQL-DWARF and MySQL-Min schemas).
//! It implements the mechanisms those comparisons exercise:
//!
//! * **clustered row storage** in 16 KiB pages with InnoDB-compact-style
//!   per-row headers (5-byte header, 6-byte transaction id, 7-byte roll
//!   pointer, null bitmap, variable-length map) — Table 4's MySQL sizes are
//!   real bytes in these pages,
//! * a **primary-key index** and per-column **secondary indexes**, each an
//!   ordered map (`std::collections::BTreeMap`) from key bytes to row
//!   locator; checkpoints write every index's entries to disk in key order
//!   with InnoDB-like per-entry metadata, so index storage is measured too,
//! * **foreign keys** validated on insert (the Figure 4 schema is
//!   relationship-heavy; validation cost is part of the relational story),
//! * a **SQL subset**: `CREATE DATABASE/TABLE/INDEX`, multi-row `INSERT`,
//!   `SELECT` with equality `WHERE`, a two-table equi-`JOIN`, `DELETE`,
//!   `TRUNCATE`.
//!
//! ```
//! use sc_relational::{Db, SqlValue};
//!
//! let mut db = Db::in_memory();
//! db.execute_sql("CREATE DATABASE dwarf").unwrap();
//! db.execute_sql(
//!     "CREATE TABLE dwarf.cell (id INT, name TEXT, PRIMARY KEY (id))",
//! ).unwrap();
//! db.execute_sql("INSERT INTO dwarf.cell (id, name) VALUES (1, 'Fenian St'), (2, 'Smithfield')")
//!     .unwrap();
//! let r = db.execute_sql("SELECT name FROM dwarf.cell WHERE id = 2").unwrap();
//! assert_eq!(r.rows[0][0], SqlValue::Text("Smithfield".into()));
//! ```

pub mod engine;
pub mod error;
pub mod page;
pub mod rowfmt;
pub mod sql;
pub mod table;
pub mod value;
pub mod wal;

pub use engine::{Db, QueryResult};
pub use error::SqlError;
pub use sql::ast::SqlStatement;
pub use sql::parse_sql;
pub use value::{SqlType, SqlValue};
