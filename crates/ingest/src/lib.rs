//! # sc-ingest
//!
//! Stream ETL: the layer that turns web-produced smart-city documents (XML
//! or JSON) into DWARF input tuples.
//!
//! The paper's pipeline (after \[2\], \[3\]) reads service feeds — bike shares,
//! car parks, air-quality sensors, auctions, sales — and maintains cubes per
//! time window. This crate provides:
//!
//! * [`CubeDef`] — a declarative mapping from a feed document to
//!   `(dimension_1 ... dimension_n, measure)` tuples: a record path plus one
//!   value path per dimension and for the measure,
//! * [`extract`] — evaluation of a [`CubeDef`] over parsed XML (the flat
//!   form, `sc_xml::FlatDocument`: no owned tree is built, and values are
//!   borrowed from the input) or JSON, with a skip-or-fail policy for
//!   malformed records,
//! * [`datetime`] — a from-scratch civil date/time (ISO-8601 subset) used to
//!   derive calendar dimensions and windows,
//! * [`window`] — the paper's evaluation windows (Day / Week / Month /
//!   TMonth / SMonth),
//! * [`pipeline::StreamPipeline`] — feed documents in, cubes out.

pub mod cube_def;
pub mod datetime;
pub mod extract;
pub mod pipeline;
pub mod window;

pub use cube_def::{CubeDef, DimensionSpec, MeasureSpec, SourceFormat, ValuePath};
pub use datetime::DateTime;
pub use extract::{extract_into, ExtractError, ExtractStats, MissingPolicy};
pub use pipeline::StreamPipeline;
pub use window::Window;
