//! # sc-bench
//!
//! The reproduction harness: the **`repro`** binary regenerates the paper's
//! tables and figures in their published format
//! (`cargo run -p sc-bench --bin repro --release -- all --scale 0.1`).
//! Performance is measured elsewhere, by `bash benchmark/run.sh`.
//!
//! The shared plumbing here builds cubes per dataset window and runs the
//! four schema models over them.

use sc_core::models::{ModelKind, StoreReport};
use sc_core::MappedDwarf;
use sc_datagen::{BikesGenerator, DatasetSpec};
use sc_dwarf::Dwarf;
use sc_ingest::Window;

/// A prepared dataset: the generated cube plus its catalog row.
pub struct PreparedDataset {
    /// Which Table 2 row this is.
    pub spec: DatasetSpec,
    /// Scale factor applied to the paper's tuple count.
    pub scale: f64,
    /// Tuples generated (after scaling, before dedup).
    pub generated_tuples: usize,
    /// Raw XML bytes of the feed at this scale.
    pub raw_xml_bytes: u64,
    /// The built cube.
    pub cube: Dwarf,
}

/// Generates and builds one dataset at `scale`, via the fast tuple path.
///
/// `measure_xml` additionally renders the XML feed to measure its raw size
/// (Table 2's MB column); skip it when only the cube matters.
pub fn prepare_dataset(window: Window, scale: f64, measure_xml: bool) -> PreparedDataset {
    let spec = DatasetSpec::for_window(window);
    let gen_spec = spec.scaled_spec(scale);
    let generated_tuples = gen_spec.target_tuples;
    let raw_xml_bytes = if measure_xml {
        BikesGenerator::new(gen_spec.clone())
            .map(|s| s.xml.len() as u64)
            .sum()
    } else {
        0
    };
    let tuples = BikesGenerator::tuples(gen_spec);
    let def = BikesGenerator::cube_def();
    let cube = Dwarf::build(def.schema(), tuples);
    PreparedDataset {
        spec,
        scale,
        generated_tuples,
        raw_xml_bytes,
        cube,
    }
}

/// Stores a cube in a fresh model of `kind`, returning the report.
pub fn run_model(kind: ModelKind, cube: &Dwarf) -> StoreReport {
    let mapped = MappedDwarf::new(cube);
    let mut model = kind.build().expect("schema creation");
    model.store(&mapped, cube, false).expect("store")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_small_dataset() {
        let d = prepare_dataset(Window::Day, 0.01, true);
        assert_eq!(d.generated_tuples, 74);
        assert!(d.raw_xml_bytes > 0);
        assert!(!d.cube.is_empty());
        d.cube.validate();
    }

    #[test]
    fn run_model_roundtrip() {
        let d = prepare_dataset(Window::Day, 0.01, false);
        let report = run_model(ModelKind::NosqlDwarf, &d.cube);
        assert!(report.size.as_bytes() > 0);
    }
}
