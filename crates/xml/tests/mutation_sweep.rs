//! Mutation sweep over the parser: every single-character mutation of a
//! feed document must parse or fail cleanly. The scanner moves by byte
//! offsets, so a slice that lands inside a multi-byte character would panic;
//! this sweep puts a mutation at every character boundary of documents full
//! of multi-byte names, text and references. Both trees the reader builds
//! meet every mutant: the flat form holds what the owned tree holds, or
//! both fail with the same error.

use sc_datagen::{BikesGenerator, BikesSpec};
use sc_xml::{Document, Element, FlatDocument, FlatElement, XmlError};

/// Entities, decimal and hex character references, CDATA, a comment, a PI,
/// a DOCTYPE with an internal subset, a BOM and multi-byte names and text.
const HANDWRITTEN: &str = "\u{FEFF}<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
<!DOCTYPE feed [<!ELEMENT café ANY>]>\n\
<!-- a comment -->\n\
<feed city='Baile Átha Cliath' note=\"a &amp; b &#233;\">\n\
  <café kind=\"🚲\">bikes &lt;3 &#x1F6B2; &#65;</café>\n\
  <?render mode=\"fast\"?>\n\
  <ñame><![CDATA[<raw> & 🚲]]> tail</ñame>\n\
  <empty/>\n\
</feed>\n";

/// One seeded bikes snapshot, three stations.
fn bikes_snapshot() -> String {
    let spec = BikesSpec {
        seed: 7,
        stations: 3,
        target_tuples: 3,
        ..BikesSpec::small()
    };
    BikesGenerator::new(spec).next().expect("one snapshot").xml
}

const REPLACEMENTS: [char; 8] = ['<', '>', '&', ';', '"', '\'', '/', 'é'];

/// Every mutant of `doc`: at each char boundary, the char deleted, replaced
/// by each of [`REPLACEMENTS`], and the document truncated there.
fn mutants(doc: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (i, c) in doc.char_indices() {
        let (head, tail) = (&doc[..i], &doc[i + c.len_utf8()..]);
        out.push(format!("{head}{tail}"));
        for r in REPLACEMENTS {
            out.push(format!("{head}{r}{tail}"));
        }
        out.push(head.to_string());
    }
    out
}

fn check_error(input: &str, e: &XmlError) {
    let lines = 1 + input.matches('\n').count() as u32;
    assert!(e.line >= 1 && e.column >= 1, "{e} for {input:?}");
    assert!(e.line <= lines, "{e} past the last line of {input:?}");
}

/// Whether `flat` holds what `owned` holds, element for element: names,
/// attributes, text and children.
fn same(flat: FlatElement<'_, '_>, owned: &Element) -> bool {
    let attributes = owned
        .attributes
        .iter()
        .map(|a| (a.name.as_str(), a.value.as_str()));
    flat.name() == owned.name
        && flat.attributes().eq(attributes)
        && flat.text() == owned.text()
        && flat.child_elements().count() == owned.child_elements().count()
        && (flat.child_elements().zip(owned.child_elements())).all(|(f, o)| same(f, o))
}

fn sweep(doc: &str) -> (usize, usize) {
    Document::parse(doc).expect("the unmutated document parses");
    let (mut parsed, mut rejected) = (0, 0);
    for mutant in mutants(doc) {
        match (FlatDocument::parse(&mutant), Document::parse(&mutant)) {
            (Ok(flat), Ok(owned)) => assert!(same(flat.root(), &owned.root), "{mutant:?}"),
            (flat, owned) => assert_eq!(flat.err(), owned.err(), "{mutant:?}"),
        }
        match Document::parse(&mutant) {
            Ok(parsed_doc) => {
                let text = parsed_doc.to_xml();
                let back = Document::parse(&text)
                    .unwrap_or_else(|e| panic!("{e} re-parsing {text:?} from {mutant:?}"));
                assert_eq!(back, parsed_doc, "round trip of {mutant:?}");
                parsed += 1;
            }
            Err(e) => {
                check_error(&mutant, &e);
                rejected += 1;
            }
        }
    }
    (parsed, rejected)
}

#[test]
fn every_mutant_of_a_handwritten_document_parses_or_fails_cleanly() {
    let (parsed, rejected) = sweep(HANDWRITTEN);
    assert!(
        parsed > 100 && rejected > 100,
        "{parsed} parsed, {rejected} rejected"
    );
}

#[test]
fn every_mutant_of_a_bikes_snapshot_parses_or_fails_cleanly() {
    let (parsed, rejected) = sweep(&bikes_snapshot());
    assert!(
        parsed > 100 && rejected > 100,
        "{parsed} parsed, {rejected} rejected"
    );
}
