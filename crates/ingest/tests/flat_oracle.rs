//! Differential oracle for the flat form: extraction through
//! `ParsedDoc::parse` + `extract_into` (the flat form and `Path` on it)
//! gives the same tuples, counts and errors as a reference evaluator over
//! the owned `Document`, written here from the path grammar: every
//! `sc-datagen` XML feed at several seeds, the documents the `sc-ingest`
//! and `sc-xml` tests read, and every single-character mutant of a bikes
//! snapshot.

use sc_datagen::{carpark, sales, BikesGenerator, BikesSpec};
use sc_dwarf::{Dwarf, TupleSet};
use sc_ingest::cube_def::{DimensionSpec, MeasureSpec, ValuePath};
use sc_ingest::extract::ParsedDoc;
use sc_ingest::{extract_into, CubeDef, DateTime, ExtractStats, MissingPolicy};
use sc_xml::dom::{Document, Element};
use sc_xml::path::{Axis, Leaf, Path, Predicate, Step};

fn admits(step: &Step, el: &Element) -> bool {
    (step.name == "*" || el.name == step.name)
        && match &step.predicate {
            Some(Predicate::AttrEquals { name, value }) => el.attr(name) == Some(value.as_str()),
            Some(Predicate::Index(_)) | None => true,
        }
}

fn descendants<'a>(el: &'a Element, out: &mut Vec<&'a Element>) {
    for child in el.child_elements() {
        out.push(child);
        descendants(child, out);
    }
}

/// Every element `path` selects from `context`, in document order.
fn select<'a>(path: &Path, context: &'a Element) -> Vec<&'a Element> {
    let mut current = vec![context];
    for (i, step) in path.steps.iter().enumerate() {
        let mut next = Vec::new();
        if i == 0 && path.absolute {
            next.extend(Some(context).filter(|c| admits(step, c)));
        } else {
            for el in &current {
                let mut candidates = Vec::new();
                match step.axis {
                    Axis::Child => candidates.extend(el.child_elements()),
                    Axis::Descendant => descendants(el, &mut candidates),
                }
                next.extend(candidates.into_iter().filter(|c| admits(step, c)));
            }
        }
        if let Some(Predicate::Index(n)) = step.predicate {
            next = next.into_iter().nth(n - 1).into_iter().collect();
        }
        if next.is_empty() {
            return Vec::new();
        }
        current = next;
    }
    current
}

/// The first leaf value of `path` from `context`.
fn first(path: &ValuePath, context: &Element) -> Option<String> {
    let ValuePath::Xml(path) = path else {
        panic!("an XML definition has XML paths")
    };
    let elements = select(path, context);
    match &path.leaf {
        Leaf::Attr(name) => elements
            .iter()
            .find_map(|e| e.attr(name).map(str::to_string)),
        Leaf::Elements | Leaf::Text => elements.first().map(|e| e.text()),
    }
}

/// The reference extraction: the owned tree, walked as the grammar says.
fn dom_extract(def: &CubeDef, text: &str, tuples: &mut TupleSet) -> Result<ExtractStats, String> {
    let doc = Document::parse(text).map_err(|e| format!("extraction failed: {e}"))?;
    let root = &doc.root;
    let stamp = match &def.timestamp_path {
        None => None,
        Some(p) => {
            let raw = first(p, root).ok_or("extraction failed: document timestamp not found")?;
            let parsed = DateTime::parse(&raw);
            Some(parsed.ok_or(format!("extraction failed: unparseable timestamp {raw:?}"))?)
        }
    };
    let ValuePath::Xml(record_path) = &def.record_path else {
        panic!("an XML definition has XML paths")
    };
    let mut stats = ExtractStats::default();
    'records: for record in select(record_path, root) {
        let mut dims = Vec::new();
        for spec in &def.dimensions {
            let value = match spec {
                DimensionSpec::Path { path, .. } => first(path, record),
                DimensionSpec::TimeField { field, .. } => stamp.as_ref().map(|dt| field.render(dt)),
            };
            match value {
                Some(v) => dims.push(v),
                None => {
                    stats.skipped += 1;
                    continue 'records;
                }
            }
        }
        let measure = match &def.measure {
            MeasureSpec::One => Some(1),
            MeasureSpec::Path(p) => first(p, record).and_then(|raw| raw.trim().parse().ok()),
        };
        match measure {
            Some(m) => {
                tuples.push(&dims, m);
                stats.extracted += 1;
            }
            None => stats.skipped += 1,
        }
    }
    Ok(stats)
}

/// What one path made of a document: its counts, tuples pushed and facts,
/// or its error.
type Outcome = Result<(ExtractStats, usize, Vec<(Vec<String>, i64)>), String>;

fn outcome(
    def: &CubeDef,
    run: impl FnOnce(&mut TupleSet) -> Result<ExtractStats, String>,
) -> Outcome {
    let mut tuples = TupleSet::new(&def.schema());
    let stats = run(&mut tuples)?;
    let pushed = tuples.len();
    Ok((
        stats,
        pushed,
        Dwarf::build(def.schema(), tuples).extract_tuples(),
    ))
}

/// Asserts both paths agree on `text`, returning whether it extracted.
fn agree(def: &CubeDef, text: &str) -> bool {
    let flat = outcome(def, |tuples| {
        let doc = ParsedDoc::parse(def.format, text).map_err(|e| e.to_string())?;
        extract_into(def, &doc, tuples, MissingPolicy::Skip).map_err(|e| e.to_string())
    });
    let dom = outcome(def, |tuples| dom_extract(def, text, tuples));
    assert_eq!(flat, dom, "{text:?}");
    flat.is_ok()
}

/// Definitions that reach every form of the path grammar over any document:
/// descendant and child axes, `*`, positions, attribute predicates and
/// leaves, text of elements with mixed content.
fn generic_defs() -> Vec<CubeDef> {
    let build = |b: sc_ingest::cube_def::CubeDefBuilder| b.build().unwrap();
    vec![
        build(
            CubeDef::xml("//*")
                .dimension("text", "text()")
                .dimension("id", "@id")
                .count_records("n"),
        ),
        build(
            CubeDef::xml("/*/*")
                .dimension("first", "*[1]/text()")
                .dimension("second", "*[2]")
                .dimension("name", "//name/text()")
                .count_records("n"),
        ),
        build(
            CubeDef::xml("//*[@id='42']")
                .dimension("all", "text()")
                .dimension("deep", "//*/text()")
                .measure("bikes", "bikes/text()"),
        ),
    ]
}

#[test]
fn every_datagen_xml_feed_extracts_alike() {
    let mut documents = 0;
    for seed in [1, 2, 7, 19] {
        let spec = BikesSpec {
            seed,
            ..BikesSpec::small()
        };
        let def = BikesGenerator::cube_def();
        for snapshot in BikesGenerator::new(spec) {
            assert!(agree(&def, &snapshot.xml));
            documents += 1;
        }
        let start = DateTime::parse("2016-03-15T08:00:00").unwrap();
        for doc in carpark::generate(seed, start, 6, 15) {
            assert!(agree(&carpark::cube_def(), &doc));
            documents += 1;
        }
        for day in 1..=3 {
            let date = DateTime::parse(&format!("2016-03-{day:02}")).unwrap();
            let doc = sales::generate_day(seed, date, 5);
            assert!(agree(&sales::cube_def(), &doc));
            documents += 1;
        }
    }
    assert!(documents > 100, "{documents} documents");
}

/// The documents the `sc-ingest` and `sc-xml` tests parse.
const CORPUS: &[&str] = &[
    r#"<stations updated="2016-03-15T10:00:00">
      <station id="17"><name>Fenian St</name><area>D2</area><bikes>3</bikes></station>
      <station id="42"><name>Smithfield</name><area>D7</area><bikes>11</bikes></station>
      <station id="43"><name>Broken</name><area>D7</area></station>
    </stations>"#,
    "<stations><station><name>x</name><area>a</area><bikes>1</bikes></station></stations>",
    r#"<stations updated="2015-11-01T10:00:00">
            <station><name>A</name></station>
            <station><name>B</name><bikes>2</bikes></station>
        </stations>"#,
    "<broken",
    "<oops",
    r#"<?xml version="1.0" encoding="UTF-8"?>
<stations updated="2016-03-15T10:00:00">
  <station id="17">
    <name>Fenian St</name>
    <bikes>3</bikes>
    <docks>20</docks>
  </station>
  <station id="42">
    <name>Smithfield</name>
    <bikes>11</bikes>
    <docks>30</docks>
  </station>
</stations>"#,
    r#"<stations updated="10:00">
      <station id="17"><name>Fenian St</name><bikes>3</bikes></station>
      <station id="42"><name>Smithfield</name><bikes>11</bikes></station>
      <meta><source kind="bikes"><name>dublinbikes</name></source></meta>
    </stations>"#,
    "<a>one<![CDATA[ two]]> three</a>",
    "<q expr=\"a &lt; b &amp; &quot;c&quot;\">5 &gt; 4 &amp; 3 &lt; 4</q>",
    "<a>t1<b id='42'>x<![CDATA[y]]><c/>z</b>t2<!-- c -->t3<b id='42'/></a>",
    "\u{FEFF}<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
<!DOCTYPE feed [<!ELEMENT café ANY>]>\n\
<!-- a comment -->\n\
<feed city='Baile Átha Cliath' note=\"a &amp; b &#233;\">\n\
  <café kind=\"🚲\">bikes &lt;3 &#x1F6B2; &#65;</café>\n\
  <?render mode=\"fast\"?>\n\
  <ñame><![CDATA[<raw> & 🚲]]> tail</ñame>\n\
  <empty/>\n\
</feed>\n",
];

#[test]
fn the_test_corpora_extract_alike() {
    let mut defs = generic_defs();
    defs.push(BikesGenerator::cube_def());
    let mut extracted = 0;
    for def in &defs {
        for doc in CORPUS {
            extracted += usize::from(agree(def, doc));
        }
    }
    assert!(extracted > CORPUS.len(), "{extracted} extracted");
}

#[test]
fn every_mutant_of_a_bikes_snapshot_extracts_alike() {
    let spec = BikesSpec {
        seed: 7,
        stations: 3,
        target_tuples: 3,
        ..BikesSpec::small()
    };
    let doc = BikesGenerator::new(spec).next().expect("one snapshot").xml;
    let defs = [BikesGenerator::cube_def(), generic_defs().remove(0)];
    let (mut extracted, mut refused) = (0, 0);
    for (i, c) in doc.char_indices() {
        let (head, tail) = (&doc[..i], &doc[i + c.len_utf8()..]);
        let mut mutants = vec![format!("{head}{tail}"), head.to_string()];
        mutants.extend(['<', '>', '&', '/', '"', 'é'].map(|r| format!("{head}{r}{tail}")));
        for mutant in &mutants {
            for def in &defs {
                match agree(def, mutant) {
                    true => extracted += 1,
                    false => refused += 1,
                }
            }
        }
    }
    assert!(
        extracted > 1000 && refused > 1000,
        "{extracted} extracted, {refused} refused"
    );
}
