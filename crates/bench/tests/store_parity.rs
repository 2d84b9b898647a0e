//! The unified read path must make the store a perfect mirror: every
//! point, range, slice and group-by answered by a [`StoreBackedCube`]
//! (cached, batched NoSQL cursor) must equal the in-memory [`Dwarf`]
//! answer, over randomly generated schemas and tuple sets — cold cache and
//! warm. The warm pass doubles as the caching acceptance check: an
//! identical query replayed against a warm cache fetches zero store rows,
//! and a cold traversal never issues more than one batched cell SELECT per
//! distinct node it visits.

use sc_core::mapping::MappedDwarf;
use sc_core::models::{NosqlDwarfModel, SchemaModel};
use sc_core::StoreBackedCube;
use sc_dwarf::{AggFn, CubeSchema, Dwarf, RangeSel, Selection, TupleSet};
use sc_encoding::Rng;

/// Small per-dimension vocabularies so random tuples collide and coalesce.
const VOCAB: &[&str] = &[
    "alpha", "bravo", "carol", "delta", "echo", "fox", "golf", "hotel",
];

struct Case {
    cube: Dwarf,
    dims: usize,
}

fn random_case(rng: &mut Rng) -> Case {
    let dims = 1 + rng.gen_range(3) as usize;
    let names: Vec<String> = (0..dims).map(|i| format!("d{i}")).collect();
    let agg = *rng.choice(&[AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max]);
    let schema = CubeSchema::new(names, "m").with_agg(agg);
    let mut ts = TupleSet::new(&schema);
    let tuples = 1 + rng.gen_range(40);
    let vocab_size = 2 + rng.gen_range(VOCAB.len() as u64 - 2) as usize;
    for _ in 0..tuples {
        let tuple: Vec<&str> = (0..dims)
            .map(|_| *rng.choice(&VOCAB[..vocab_size]))
            .collect();
        ts.push(tuple, rng.gen_between(-5, 20));
    }
    Case {
        cube: Dwarf::build(schema, ts),
        dims,
    }
}

fn random_point_sel(rng: &mut Rng, dims: usize) -> Vec<Selection> {
    (0..dims)
        .map(|_| {
            if rng.gen_bool(0.4) {
                Selection::All
            } else {
                // Sometimes a value the cube does not contain.
                Selection::value(*rng.choice(VOCAB))
            }
        })
        .collect()
}

fn random_range_sel(rng: &mut Rng, dims: usize) -> Vec<RangeSel> {
    (0..dims)
        .map(|_| match rng.gen_range(3) {
            0 => RangeSel::All,
            1 => RangeSel::value(*rng.choice(VOCAB)),
            _ => {
                // Unordered endpoints on purpose: inverted intervals must
                // agree too (both sides answer None / empty).
                let lo = *rng.choice(VOCAB);
                let hi = *rng.choice(VOCAB);
                RangeSel::between(lo, hi)
            }
        })
        .collect()
}

fn random_mask_dims(rng: &mut Rng, dims: usize) -> Vec<String> {
    (0..dims)
        .filter(|_| rng.gen_bool(0.5))
        .map(|i| format!("d{i}"))
        .collect()
}

#[test]
fn store_backed_queries_match_in_memory_cold_and_warm() {
    let mut rng = Rng::new(0x5eed_cafe);
    let mut aggs = Vec::new();
    for case_no in 0..12 {
        let case = random_case(&mut rng);
        aggs.push(case.cube.schema().agg());
        let mut model = NosqlDwarfModel::in_memory();
        model.create_schema().unwrap();
        let report = model
            .store(&MappedDwarf::new(&case.cube), &case.cube, false)
            .unwrap();
        let mut sbc = StoreBackedCube::open(&mut model, report.schema_id).unwrap();

        let points: Vec<Vec<Selection>> = (0..8)
            .map(|_| random_point_sel(&mut rng, case.dims))
            .collect();
        let ranges: Vec<Vec<RangeSel>> = (0..8)
            .map(|_| random_range_sel(&mut rng, case.dims))
            .collect();
        let masks: Vec<Vec<String>> = (0..4)
            .map(|_| random_mask_dims(&mut rng, case.dims))
            .collect();

        // Two passes over identical queries: pass 0 is cold, pass 1 runs
        // entirely out of the node cache.
        for pass in 0..2 {
            sbc.reset_stats();
            for sel in &points {
                assert_eq!(
                    sbc.point(sel).unwrap(),
                    case.cube.point(sel),
                    "case {case_no} pass {pass} point {sel:?}"
                );
            }
            for sel in &ranges {
                assert_eq!(
                    sbc.range(sel).unwrap(),
                    case.cube.range(sel),
                    "case {case_no} pass {pass} range {sel:?}"
                );
                assert_eq!(
                    sbc.slice(sel).unwrap(),
                    case.cube.slice(sel),
                    "case {case_no} pass {pass} slice {sel:?}"
                );
            }
            for dims in &masks {
                assert_eq!(
                    sbc.group_by(dims).unwrap(),
                    case.cube.group_by(dims).unwrap(),
                    "case {case_no} pass {pass} group by {dims:?}"
                );
            }
            let stats = sbc.stats();
            if pass == 0 {
                // Cold: batching means at most one cell SELECT per
                // distinct node materialized.
                assert!(
                    stats.batched_selects <= stats.node_cache_misses,
                    "case {case_no}: {} batched selects for {} misses",
                    stats.batched_selects,
                    stats.node_cache_misses,
                );
            } else {
                // Warm: the identical query mix touches no store rows.
                assert_eq!(
                    stats.rows_fetched, 0,
                    "case {case_no}: warm pass fetched rows"
                );
                assert_eq!(stats.store_selects, 0);
                assert_eq!(stats.node_cache_misses, 0);
            }
        }
    }
    for agg in [AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max] {
        assert!(aggs.contains(&agg), "no case drew {agg:?}");
    }
}
