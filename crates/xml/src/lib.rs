//! # sc-xml
//!
//! A from-scratch XML 1.0 subset parser for smart-city data feeds.
//!
//! Smart-city services publish observations as XML documents (bike-share
//! station feeds, car-park occupancy, air-quality sensors). This crate
//! provides everything the ingest pipeline needs and nothing more:
//!
//! * [`reader::XmlReader`] — a streaming pull parser producing
//!   [`event::XmlEvent`]s that borrow from the input: names, CDATA and
//!   comments are slices of the text, and text and attribute values are too
//!   unless they hold an entity or character reference,
//! * [`scanner::Scanner`] — the byte-offset cursor under the reader; it
//!   moves over whole runs of text and computes an error's line and column
//!   from the offset only when the error is raised,
//! * [`flat`] — the form cube extraction reads: one pass of the reader
//!   fills a list of element records, one of attributes and one of text
//!   runs, all slices of the input unless a reference was decoded, with
//!   each element's subtree an index range,
//! * [`dom`] — a small owned document tree, built by the same reader, for
//!   callers that edit or keep a document,
//! * [`path`] — an XPath-lite selector language (`/a/b`, `//station`,
//!   `@attr`) used by cube definitions to locate dimensions and measures;
//!   it evaluates on the flat form, and [`path::Path::first`] stops at the
//!   first match and borrows its value,
//! * [`writer::XmlWriter`] — an escaping writer used by the data generator.
//!
//! ## Supported XML subset
//!
//! Elements, attributes (single or double quoted), character data, CDATA
//! sections, comments, processing instructions, the XML declaration, the five
//! predefined entities and decimal/hex character references. DTDs are
//! recognised and skipped; external entities are (deliberately) not
//! supported. Elements nested deeper than [`reader::MAX_DEPTH`] are refused
//! with [`XmlErrorKind::TooDeep`].
//!
//! ```
//! use sc_xml::dom::Document;
//!
//! let doc = Document::parse("<stations><station id=\"42\">Fenian St</station></stations>").unwrap();
//! let station = &doc.root.children_named("station").next().unwrap();
//! assert_eq!(station.attr("id"), Some("42"));
//! assert_eq!(station.text(), "Fenian St");
//! ```

pub mod dom;
pub mod entities;
pub mod error;
pub mod event;
pub mod flat;
pub mod path;
pub mod reader;
pub mod scanner;
pub mod writer;

pub use dom::{Document, Element};
pub use error::{XmlError, XmlErrorKind};
pub use event::XmlEvent;
pub use flat::{FlatDocument, FlatElement};
pub use reader::XmlReader;
pub use writer::XmlWriter;
