//! A feed document nested past the reader's limit is a typed error on
//! every path that parses XML — the owned tree, the flat form under
//! extraction, and the sharded stream on its 2 MiB worker threads — and
//! the process survives it. A document at the limit still gives tuples.

use smartcube::dwarf::TupleSet;
use smartcube::ingest::extract::ParsedDoc;
use smartcube::ingest::{extract_into, CubeDef, MissingPolicy};
use smartcube::stream::{StreamConfig, StreamIngestor};
use smartcube::xml::reader::MAX_DEPTH;
use smartcube::xml::{Document, XmlErrorKind};

/// `levels` nested `<a>` elements, the innermost holding `<v>1</v>`.
fn nested(levels: usize) -> String {
    let mut doc = "<a>".repeat(levels);
    doc.push_str("<v>1</v>");
    doc.push_str(&"</a>".repeat(levels));
    doc
}

/// A record per `a` below the root; only the innermost has a value.
fn def() -> CubeDef {
    CubeDef::xml("//a")
        .dimension("v", "v/text()")
        .measure("v", "v/text()")
        .build()
        .unwrap()
}

const TOO_DEEP: [usize; 3] = [1_000, 100_000, 1_000_000];

#[test]
fn the_owned_tree_refuses_deep_documents() {
    for levels in TOO_DEEP {
        let e = Document::parse(&nested(levels)).unwrap_err();
        assert_eq!(e.kind, XmlErrorKind::TooDeep(MAX_DEPTH), "{levels} levels");
    }
    let at_limit = Document::parse(&nested(MAX_DEPTH - 1)).unwrap();
    assert_eq!(at_limit.root.name, "a");
}

#[test]
fn extraction_refuses_deep_documents_and_extracts_at_the_limit() {
    let def = def();
    for levels in TOO_DEEP {
        let e = ParsedDoc::parse(def.format, &nested(levels)).unwrap_err();
        assert!(e.message.contains("nested deeper than 512"), "{e}");
    }
    let doc = nested(MAX_DEPTH - 1);
    let parsed = ParsedDoc::parse(def.format, &doc).unwrap();
    let mut tuples = TupleSet::new(&def.schema());
    let stats = extract_into(&def, &parsed, &mut tuples, MissingPolicy::Skip).unwrap();
    // `MAX_DEPTH - 1` elements `a` and one `v`: the root is the context,
    // and of the records below it only the innermost holds `v`.
    assert_eq!((stats.extracted, stats.skipped), (1, MAX_DEPTH - 3));
}

#[test]
fn stream_workers_count_deep_documents_as_failed_and_carry_on() {
    let ingestor = StreamIngestor::new(def(), StreamConfig::with_shards(2));
    for levels in TOO_DEEP {
        ingestor.ingest(nested(levels));
    }
    ingestor.ingest(nested(MAX_DEPTH - 1));
    ingestor.ingest(nested(3));
    let result = ingestor.finish();
    assert_eq!(result.metrics.events_failed, 3);
    assert_eq!(result.metrics.events_parsed, 2);
    assert_eq!(result.metrics.tuples_extracted, 2);
}
