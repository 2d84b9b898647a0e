//! Property tests: the DWARF must agree with a brute-force GROUP BY oracle
//! on every query, for arbitrary inputs.
//!
//! These are deterministic randomized sweeps (seeded xorshift — the build is
//! offline, so no proptest): each test draws a fixed number of random row
//! sets from a tiny value alphabet and checks the cube against the oracle.

use sc_dwarf::{AggFn, CubeSchema, Dwarf, RangeSel, Selection, TupleSet};
use sc_encoding::Rng;
use std::collections::BTreeMap;

/// A raw fact row for the generators.
type Row = (Vec<String>, i64);

/// Random rows over the alphabet {a, b, c, dd, e} — small enough that
/// duplicates, misses and every group-by all get exercised.
fn random_rows(rng: &mut Rng, dims: usize, max_rows: usize) -> Vec<Row> {
    const VALUES: [&str; 5] = ["a", "b", "c", "dd", "e"];
    let n = rng.gen_range(max_rows as u64) as usize;
    (0..n)
        .map(|_| {
            let key: Vec<String> = (0..dims)
                .map(|_| VALUES[rng.gen_range(VALUES.len() as u64) as usize].to_string())
                .collect();
            (key, rng.gen_between(-100, 99))
        })
        .collect()
}

fn build(schema: &CubeSchema, rows: &[Row]) -> Dwarf {
    let mut ts = TupleSet::new(schema);
    for (key, m) in rows {
        ts.push(key.iter().map(String::as_str), *m);
    }
    Dwarf::build(schema.clone(), ts)
}

/// Brute-force oracle: aggregate of rows matching a point selection.
fn oracle_point(agg: AggFn, rows: &[Row], sel: &[Selection]) -> Option<i64> {
    let matching = rows.iter().filter(|(key, _)| {
        key.iter().zip(sel).all(|(v, s)| match s {
            Selection::All => true,
            Selection::Value(want) => v == want,
        })
    });
    agg.combine_all(matching.map(|(_, m)| agg.of_tuple(*m)))
}

/// Brute-force oracle for range selections.
fn oracle_range(agg: AggFn, rows: &[Row], sel: &[RangeSel]) -> Option<i64> {
    let matching = rows.iter().filter(|(key, _)| {
        key.iter().zip(sel).all(|(v, s)| match s {
            RangeSel::All => true,
            RangeSel::Value(want) => v == want,
            RangeSel::Between(lo, hi) => v.as_str() >= lo.as_str() && v.as_str() <= hi.as_str(),
        })
    });
    agg.combine_all(matching.map(|(_, m)| agg.of_tuple(*m)))
}

fn all_point_selections(dims: usize) -> Vec<Vec<Selection>> {
    // Every combination of {All, a, dd} per dimension — covers hits, misses
    // and every group-by of the 2^d lattice for these values.
    let choices = [
        Selection::All,
        Selection::value("a"),
        Selection::value("dd"),
    ];
    let mut out: Vec<Vec<Selection>> = vec![vec![]];
    for _ in 0..dims {
        out = out
            .into_iter()
            .flat_map(|prefix| {
                choices.iter().map(move |c| {
                    let mut p = prefix.clone();
                    p.push(c.clone());
                    p
                })
            })
            .collect();
    }
    out
}

#[test]
fn point_queries_match_oracle_3d() {
    let mut rng = Rng::new(0xD01);
    for _ in 0..64 {
        let rows = random_rows(&mut rng, 3, 40);
        let schema = CubeSchema::new(["x", "y", "z"], "m");
        let cube = build(&schema, &rows);
        cube.validate();
        for sel in all_point_selections(3) {
            assert_eq!(
                cube.point(&sel),
                oracle_point(AggFn::Sum, &rows, &sel),
                "selection {sel:?} rows {rows:?}"
            );
        }
    }
}

#[test]
fn point_queries_match_oracle_all_aggs() {
    let mut rng = Rng::new(0xD02);
    for _ in 0..64 {
        let rows = random_rows(&mut rng, 2, 30);
        for agg in [AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max] {
            let schema = CubeSchema::new(["x", "y"], "m").with_agg(agg);
            let cube = build(&schema, &rows);
            cube.validate();
            for sel in all_point_selections(2) {
                assert_eq!(
                    cube.point(&sel),
                    oracle_point(agg, &rows, &sel),
                    "agg {agg:?} selection {sel:?} rows {rows:?}"
                );
            }
        }
    }
}

#[test]
fn range_queries_match_oracle() {
    let mut rng = Rng::new(0xD03);
    for _ in 0..64 {
        let rows = random_rows(&mut rng, 3, 40);
        let ranges = [
            RangeSel::All,
            RangeSel::value("b"),
            RangeSel::between("a", "c"),
            RangeSel::between("b", "zz"),
            RangeSel::between("z", "a"),  // inverted: empty
            RangeSel::between("dd", "b"), // inverted between present values
        ];
        for agg in [AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max] {
            let schema = CubeSchema::new(["x", "y", "z"], "m").with_agg(agg);
            let cube = build(&schema, &rows);
            for r0 in &ranges {
                for r1 in &ranges {
                    for r2 in &ranges {
                        let sel = vec![r0.clone(), r1.clone(), r2.clone()];
                        assert_eq!(
                            cube.range(&sel),
                            oracle_range(agg, &rows, &sel),
                            "agg {agg:?} selection {sel:?} rows {rows:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn extraction_equals_groupby_of_input() {
    let mut rng = Rng::new(0xD04);
    for _ in 0..64 {
        let rows = random_rows(&mut rng, 3, 40);
        let schema = CubeSchema::new(["x", "y", "z"], "m");
        let cube = build(&schema, &rows);
        // Oracle: SUM group-by on the full key.
        let mut expect: BTreeMap<Vec<String>, i64> = BTreeMap::new();
        for (key, m) in &rows {
            *expect.entry(key.clone()).or_insert(0) += m;
        }
        let got: Vec<(Vec<String>, i64)> = cube.extract_tuples();
        let want: Vec<(Vec<String>, i64)> = expect.into_iter().collect();
        assert_eq!(got, want);
    }
}

#[test]
fn merge_equals_build_of_concatenation() {
    let mut rng = Rng::new(0xD05);
    for _ in 0..64 {
        // 0-4 cubes, about one in four of them empty.
        let parts: Vec<Vec<Row>> = (0..rng.gen_range(5))
            .map(|_| match rng.gen_range(4) {
                0 => Vec::new(),
                _ => random_rows(&mut rng, 2, 25),
            })
            .collect();
        // Raw facts arriving after the merge: the incremental-update path.
        let delta = random_rows(&mut rng, 2, 10);
        let all = parts.concat();
        for agg in [AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max] {
            let schema = CubeSchema::new(["x", "y"], "m").with_agg(agg);
            let cubes: Vec<Dwarf> = parts.iter().map(|rows| build(&schema, rows)).collect();
            let merged = Dwarf::merge_many(schema.clone(), &cubes);
            let context = format!("agg {agg:?} parts {parts:?}");
            assert_eq!(
                merged.extract_tuples(),
                build(&schema, &all).extract_tuples(),
                "{context}"
            );
            assert_eq!(merged.schema(), &schema, "{context}");
            merged.validate();
            // One operand built from a raw TupleSet delta: under Count its
            // facts are ones, while the merged cube's are counts.
            let updated = merged.merge(&build(&schema, &delta));
            assert_eq!(
                updated.extract_tuples(),
                build(&schema, &[all.clone(), delta.clone()].concat()).extract_tuples(),
                "{context} delta {delta:?}"
            );
            updated.validate();
        }
    }
}

#[test]
fn slice_rows_match_oracle() {
    let mut rng = Rng::new(0xD06);
    for _ in 0..64 {
        let rows = random_rows(&mut rng, 2, 30);
        let schema = CubeSchema::new(["x", "y"], "m");
        let cube = build(&schema, &rows);
        let sel = vec![RangeSel::between("a", "c"), RangeSel::All];
        let got = cube.slice(&sel);
        let mut expect: BTreeMap<Vec<String>, i64> = BTreeMap::new();
        for (key, m) in &rows {
            if key[0].as_str() >= "a" && key[0].as_str() <= "c" {
                *expect.entry(key.clone()).or_insert(0) += m;
            }
        }
        let want: Vec<(Vec<String>, i64)> = expect.into_iter().collect();
        assert_eq!(got, want);
    }
}

#[test]
fn group_by_matches_oracle() {
    let mut rng = Rng::new(0xD07);
    for _ in 0..64 {
        let rows = random_rows(&mut rng, 3, 40);
        let schema = CubeSchema::new(["x", "y", "z"], "m");
        let cube = build(&schema, &rows);
        // Every subset of dimensions.
        for mask in 0u8..8 {
            let dims: Vec<&str> = ["x", "y", "z"]
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, d)| *d)
                .collect();
            let got = cube.group_by(&dims).unwrap();
            // Oracle: BTreeMap group-by over the raw rows.
            let mut expect: BTreeMap<Vec<String>, i64> = BTreeMap::new();
            for (key, m) in &rows {
                let group: Vec<String> = key
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, v)| v.clone())
                    .collect();
                *expect.entry(group).or_insert(0) += m;
            }
            let want: Vec<(Vec<String>, i64)> = expect.into_iter().collect();
            assert_eq!(got, want, "mask {mask:03b}");
        }
    }
}

#[test]
fn subcube_answers_like_parent_within_region() {
    let mut rng = Rng::new(0xD08);
    for _ in 0..64 {
        let rows = random_rows(&mut rng, 2, 30);
        let schema = CubeSchema::new(["x", "y"], "m");
        let cube = build(&schema, &rows);
        let region = vec![RangeSel::value("a"), RangeSel::All];
        let sub = cube.subcube(&region);
        sub.validate();
        for s1 in [Selection::All, Selection::value("a"), Selection::value("b")] {
            let sel = vec![Selection::value("a"), s1.clone()];
            assert_eq!(cube.point(&sel), sub.point(&sel), "sel {s1:?}");
        }
    }
}
