//! Mutation sweep over both statement front-ends: every single-character
//! mutation of a CQL or SQL statement must parse or fail with a typed
//! `Parse` error, never panic and never hang. The replacements include
//! multi-byte characters outside string literals, which once sent both
//! tokenizers into a loop that pushed empty identifiers without advancing.

use sc_nosql::{parse_statement, NosqlError};
use sc_relational::{parse_sql, SqlError};
use std::panic;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// Table 1 DDL, the Figure 3 INSERT, SELECTs with `IN`, `ORDER BY` and
/// `GROUP BY`, and a `BATCH`.
const CQL: [&str; 6] = [
    "CREATE TABLE smartcity.DWARF_CELL (id int, key text, measure int, parentNode int, \
     pointerNode int, leaf boolean, schema_id int, dimension_table_name text, PRIMARY KEY (id))",
    "CREATE TABLE smartcity.DWARF_NODE (id int, parentIds set<int>, childrenIds set<int>, \
     root boolean, schema_id int, PRIMARY KEY (id))",
    "INSERT INTO smartcity.DWARF_CELL (id,key,measure,parentNode,pointerNode,leaf,schema_id,\
     dimension_table_name) VALUES (3,'Fenian St',3,3,null,true,1,'Station');",
    "SELECT id, key FROM smartcity.DWARF_CELL WHERE parentNode IN (1, -2, 3) AND measure >= 4 \
     ORDER BY key DESC LIMIT 10",
    "SELECT key, COUNT(*), SUM(measure) FROM smartcity.DWARF_CELL -- per key\n\
     WHERE leaf = true GROUP BY key",
    "BEGIN BATCH INSERT INTO ks.n (id, kids) VALUES (1, {3, 1}); \
     DELETE FROM ks.n WHERE id = 2; APPLY BATCH",
];

/// Figure 4 DDL, a multi-row INSERT and a JOIN.
const SQL: [&str; 3] = [
    "CREATE TABLE dwarf.node_children (id INT NOT NULL, node_id INT NOT NULL, \
     cell_id INT NOT NULL, PRIMARY KEY (id), INDEX (node_id), \
     FOREIGN KEY (node_id) REFERENCES node (id), FOREIGN KEY (cell_id) REFERENCES cell (id))",
    "INSERT INTO dwarf.cell (id, name, leaf) VALUES (1, 'Fenian St', TRUE), \
     (2, 'Baile Átha Cliath', NULL), (-3, 'it''s', FALSE)",
    "SELECT c.id, n.id FROM dwarf.cell AS c JOIN dwarf.node AS n ON c.parent_id = n.id \
     WHERE c.leaf = TRUE AND n.root = FALSE LIMIT 5;",
];

const REPLACEMENTS: [char; 9] = ['€', '×', 'é', '\'', '-', '{', '<', ';', '"'];

/// Long enough for any parse of these inputs; a tokenizer that stops
/// advancing fails here, naming its input.
const DEADLINE: Duration = Duration::from_secs(10);

/// What one parse did.
enum Outcome {
    Parsed,
    Rejected,
    Other(String),
}

fn cql(input: &str) -> Outcome {
    match parse_statement(input) {
        Ok(_) => Outcome::Parsed,
        Err(NosqlError::Parse(_)) => Outcome::Rejected,
        Err(e) => Outcome::Other(format!("untyped error {e}")),
    }
}

fn sql(input: &str) -> Outcome {
    match parse_sql(input) {
        Ok(_) => Outcome::Parsed,
        Err(SqlError::Parse(_)) => Outcome::Rejected,
        Err(e) => Outcome::Other(format!("untyped error {e}")),
    }
}

/// Every mutant of `statement`: at each char boundary, the char deleted,
/// replaced by each of [`REPLACEMENTS`], and the text truncated there.
fn mutants(statement: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (i, c) in statement.char_indices() {
        let (head, tail) = (&statement[..i], &statement[i + c.len_utf8()..]);
        out.push(format!("{head}{tail}"));
        for r in REPLACEMENTS {
            out.push(format!("{head}{r}{tail}"));
        }
        out.push(head.to_string());
    }
    out
}

/// Parses every mutant of `corpus` on a helper thread and returns how many
/// parsed and how many were rejected.
fn sweep(corpus: &[&str], parse: fn(&str) -> Outcome) -> (usize, usize) {
    for statement in corpus {
        assert!(
            matches!(parse(statement), Outcome::Parsed),
            "{statement:?} must parse unmutated"
        );
    }
    let inputs: Vec<String> = corpus.iter().flat_map(|s| mutants(s)).collect();
    let (tx, rx) = mpsc::channel();
    let worker = {
        let inputs = inputs.clone();
        thread::spawn(move || {
            for input in &inputs {
                let outcome = panic::catch_unwind(|| parse(input))
                    .unwrap_or_else(|_| Outcome::Other("panicked".into()));
                if tx.send(outcome).is_err() {
                    return;
                }
            }
        })
    };
    let (mut parsed, mut rejected) = (0, 0);
    for input in &inputs {
        match rx.recv_timeout(DEADLINE) {
            Ok(Outcome::Parsed) => parsed += 1,
            Ok(Outcome::Rejected) => rejected += 1,
            Ok(Outcome::Other(what)) => panic!("{input:?}: {what}"),
            Err(_) => panic!("{input:?} did not return within {DEADLINE:?}"),
        }
    }
    worker.join().expect("the sweep thread catches every panic");
    (parsed, rejected)
}

#[test]
fn every_mutant_of_the_cql_corpus_parses_or_is_a_parse_error() {
    let (parsed, rejected) = sweep(&CQL, cql);
    assert!(
        parsed > 1000 && rejected > 1000,
        "{parsed} parsed, {rejected} rejected"
    );
}

#[test]
fn every_mutant_of_the_sql_corpus_parses_or_is_a_parse_error() {
    let (parsed, rejected) = sweep(&SQL, sql);
    assert!(
        parsed > 500 && rejected > 500,
        "{parsed} parsed, {rejected} rejected"
    );
}

#[test]
fn non_ascii_outside_literals_is_a_parse_error_in_both_dialects() {
    for input in ["SELECT € FROM ks.t", "SELECT * FROM ks.t WHERE a = ×"] {
        assert!(matches!(cql(input), Outcome::Rejected), "CQL {input:?}");
        assert!(matches!(sql(input), Outcome::Rejected), "SQL {input:?}");
    }
}
