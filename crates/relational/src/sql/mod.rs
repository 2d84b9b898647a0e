//! SQL subset: AST and parser. Tokens and the token cursor come from
//! [`sc_encoding::lex`], which the CQL front-end of `sc-nosql` shares.
//!
//! Supported statements (enough to express the paper's Figure 4 schema, the
//! MySQL-Min schema, bulk loading and the rebuild queries):
//!
//! ```text
//! CREATE DATABASE <name>
//! CREATE TABLE <db>.<t> (
//!     <col> <type> [NOT NULL], ...,
//!     PRIMARY KEY (<col>),
//!     [INDEX (<col>), ...]
//!     [FOREIGN KEY (<col>) REFERENCES <t2> (<col>), ...]
//! )
//! CREATE INDEX ON <db>.<t> (<col>)
//! INSERT INTO <db>.<t> (<cols>) VALUES (<lits>), (<lits>), ...
//! SELECT *|<cols> FROM <db>.<t> [AS <alias>]
//!     [JOIN <db>.<t2> [AS <alias>] ON <q.col> = <q.col>]
//!     [WHERE <q.col> = <lit> [AND ...]] [LIMIT <n>]
//! DELETE FROM <db>.<t> WHERE <col> = <lit>
//! TRUNCATE [TABLE] <db>.<t>
//! ```

pub mod ast;
pub mod parser;

pub use parser::parse_sql;
