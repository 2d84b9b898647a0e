//! CQL subset: AST and parser. Tokens and the token cursor come from
//! [`sc_encoding::lex`], which the SQL front-end of `sc-relational` shares.
//!
//! The paper's transformation step (§4, Figure 3) turns DWARF cells into CQL
//! `INSERT` statements; this module makes that path executable end to end.
//! Supported statements:
//!
//! ```text
//! CREATE KEYSPACE <name>
//! CREATE TABLE <ks>.<t> (<col> <type>, ..., PRIMARY KEY (<col>))
//! CREATE INDEX ON <ks>.<t> (<col>)
//! INSERT INTO <ks>.<t> (<cols>) VALUES (<literals>)
//! SELECT *|<cols> FROM <ks>.<t> [WHERE <col> = <literal>] [LIMIT <n>]
//! DELETE FROM <ks>.<t> WHERE <col> = <literal>
//! TRUNCATE <ks>.<t>
//! BEGIN BATCH <inserts...> APPLY BATCH
//! ```
//!
//! Types: `int`, `text`, `boolean`, `set<int>`. Literals: integers,
//! `'strings'` (with `''` escapes), `true`/`false`, `null` and `{1, 2, 3}`
//! set literals.

pub mod ast;
pub mod parser;

pub use parser::parse_statement;
