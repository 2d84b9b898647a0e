//! # sc-datagen
//!
//! Deterministic synthetic smart-city feeds.
//!
//! The paper evaluates on a real bike-sharing feed (CitiBikes-style data for
//! Dublin, \[7\]) that we do not have; this crate substitutes a generator that
//! preserves everything the evaluation depends on (see DESIGN.md §2):
//!
//! * Table 2's **tuple counts** per window (Day 7 358 … SMonth 1 181 344),
//! * the **~286 raw-XML bytes per tuple** implied by Table 2's MB column,
//! * **8 dimensions** with realistic cardinalities and the hierarchical
//!   correlation (calendar prefix, station→area) DWARF coalescing feeds on,
//! * deterministic output from a seed, so every benchmark run sees the same
//!   data.
//!
//! Besides [`bikes`], the intro's other sources are generated too
//! ([`carpark`], [`airquality`], [`auction`], [`sales`]) for the
//! multi-source fusion example.

pub mod airquality;
pub mod auction;
pub mod bikes;
pub mod carpark;
pub mod catalog;
pub mod names;
pub mod sales;

pub use bikes::{BikesGenerator, BikesSpec, Snapshot};
pub use catalog::DatasetSpec;
