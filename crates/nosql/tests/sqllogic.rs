//! Golden-file query tier: runs every `tests/slt/*.slt` script against the
//! engine **three times** — with all data memtable-resident, with a flush
//! to (v3 columnar) SSTables at every `flush` directive, and with a flush
//! plus compaction — and asserts identical results. The runs pin the
//! contract that the operator pipeline reads the same rows from either
//! side of the LSM tree, including out of merged v3 runs.
//!
//! Script format (records separated by blank lines, `#` starts a comment):
//!
//! ```text
//! statement ok
//! CREATE KEYSPACE slt
//!
//! statement error unknown column
//! SELECT nope FROM slt.t
//!
//! query
//! SELECT id, name FROM slt.t WHERE id = 1
//! ----
//! 1|alice
//!
//! plan
//! EXPLAIN SELECT * FROM slt.t WHERE id = 1
//! ----
//! PointScan slt.t key=1 (bloom+fence checked)
//!
//! flush
//! ```
//!
//! `query` rows are rendered one per line, values joined with `|` (`NULL`
//! for nulls, text unquoted). `plan` lines keep their indentation but have
//! the volatile `  (cost: …)` suffix stripped, so scripts pin plan *shape*
//! while estimates stay free to move with table statistics.

use sc_nosql::{CqlValue, Db, OpenOptions};
use std::fmt::Write as _;
use std::path::Path;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// `flush` directives are no-ops; every row is served from memtables.
    Memtable,
    /// `flush` directives flush all tables; queries read v3 SSTables.
    Flushed,
    /// `flush` directives flush *and* compact, so queries read merged v3
    /// runs produced by the compaction path rather than fresh flushes.
    Compacted,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Memtable => "memtable",
            Mode::Flushed => "flushed",
            Mode::Compacted => "compacted",
        }
    }
}

struct Record {
    /// Line number of the directive, for error messages.
    line: usize,
    directive: Directive,
}

enum Directive {
    StatementOk { cql: String },
    StatementError { substring: String, cql: String },
    Query { cql: String, expected: Vec<String> },
    Plan { cql: String, expected: Vec<String> },
    Flush,
}

fn parse_script(text: &str, path: &Path) -> Vec<Record> {
    let mut records = Vec::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let line = raw.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let lineno = idx + 1;
        let fail = |msg: &str| -> ! {
            panic!("{}:{}: {}", path.display(), lineno, msg);
        };
        let mut next_line = |what: &str| -> String {
            match lines.next() {
                Some((_, l)) if !l.trim().is_empty() => l.trim_end().to_string(),
                _ => fail(&format!("expected {what} on the next line")),
            }
        };
        let directive = if line == "statement ok" {
            Directive::StatementOk {
                cql: next_line("a CQL statement"),
            }
        } else if let Some(substring) = line.strip_prefix("statement error") {
            Directive::StatementError {
                substring: substring.trim().to_string(),
                cql: next_line("a CQL statement"),
            }
        } else if line == "query" || line == "plan" {
            let cql = next_line("a CQL statement");
            match lines.next() {
                Some((_, sep)) if sep.trim_end() == "----" => {}
                _ => fail("expected `----` after the query line"),
            }
            let mut expected = Vec::new();
            while let Some((_, l)) = lines.peek() {
                if l.trim().is_empty() {
                    break;
                }
                expected.push(lines.next().unwrap().1.trim_end().to_string());
            }
            if line == "query" {
                Directive::Query { cql, expected }
            } else {
                Directive::Plan { cql, expected }
            }
        } else if line == "flush" {
            Directive::Flush
        } else {
            fail(&format!("unknown directive {line:?}"))
        };
        records.push(Record {
            line: lineno,
            directive,
        });
    }
    records
}

/// `slt` rendering of a value: unquoted text, `NULL` for nulls — the
/// pipe-joined row format golden files are written in.
fn render_value(value: &CqlValue) -> String {
    match value {
        CqlValue::Null => "NULL".to_string(),
        CqlValue::Text(s) => s.clone(),
        other => other.to_string(),
    }
}

fn render_row(values: &[CqlValue]) -> String {
    let parts: Vec<String> = values.iter().map(render_value).collect();
    parts.join("|")
}

/// Strips the volatile cost suffix from an `EXPLAIN` line.
fn strip_cost(line: &str) -> &str {
    match line.find("  (cost:") {
        Some(pos) => &line[..pos],
        None => line,
    }
}

fn diff(context: &str, expected: &[String], actual: &[String]) -> Option<String> {
    if expected == actual {
        return None;
    }
    let mut msg = format!("{context}\nexpected:\n");
    for l in expected {
        let _ = writeln!(msg, "  {l}");
    }
    msg.push_str("actual:\n");
    for l in actual {
        let _ = writeln!(msg, "  {l}");
    }
    Some(msg)
}

fn run_script(path: &Path, mode: Mode) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let records = parse_script(&text, path);
    let db = Db::open(OpenOptions::default()).expect("open engine");
    for record in records {
        let at = format!("{}:{} [{}]", path.display(), record.line, mode.label());
        match record.directive {
            Directive::StatementOk { cql } => {
                if let Err(e) = db.execute_cql(&cql) {
                    panic!("{at}: `{cql}` failed: {e}");
                }
            }
            Directive::StatementError { substring, cql } => match db.execute_cql(&cql) {
                Ok(_) => panic!("{at}: `{cql}` succeeded, expected error"),
                Err(e) => {
                    let msg = e.to_string();
                    assert!(
                        msg.contains(&substring),
                        "{at}: `{cql}` failed with {msg:?}, expected substring {substring:?}"
                    );
                }
            },
            Directive::Query { cql, expected } => {
                let result = db
                    .execute_cql(&cql)
                    .unwrap_or_else(|e| panic!("{at}: `{cql}` failed: {e}"));
                let actual: Vec<String> = result
                    .rows()
                    .iter()
                    .map(|r| render_row(r.values()))
                    .collect();
                if let Some(msg) = diff(&format!("{at}: `{cql}`"), &expected, &actual) {
                    panic!("{msg}");
                }
            }
            Directive::Plan { cql, expected } => {
                let result = db
                    .execute_cql(&cql)
                    .unwrap_or_else(|e| panic!("{at}: `{cql}` failed: {e}"));
                let actual: Vec<String> = result
                    .rows()
                    .iter()
                    .map(|r| strip_cost(&render_row(r.values())).to_string())
                    .collect();
                if let Some(msg) = diff(&format!("{at}: `{cql}`"), &expected, &actual) {
                    panic!("{msg}");
                }
            }
            Directive::Flush => {
                if mode != Mode::Memtable {
                    db.flush_all()
                        .unwrap_or_else(|e| panic!("{at}: flush failed: {e}"));
                }
                if mode == Mode::Compacted {
                    db.compact_all()
                        .unwrap_or_else(|e| panic!("{at}: compact failed: {e}"));
                }
            }
        }
    }
}

fn run_all(mode: Mode) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/slt");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "slt"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no .slt scripts under {}", dir.display());
    for path in paths {
        run_script(&path, mode);
    }
}

#[test]
fn slt_memtable() {
    run_all(Mode::Memtable);
}

#[test]
fn slt_flushed() {
    run_all(Mode::Flushed);
}

#[test]
fn slt_compacted() {
    run_all(Mode::Compacted);
}
