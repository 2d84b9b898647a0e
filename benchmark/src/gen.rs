//! Seeded input generators. The workload seed reaches the program only
//! through what these produce: the same seed gives the same inputs.

use sc_datagen::{BikesGenerator, DatasetSpec};
use sc_dwarf::Selection;
use sc_encoding::Rng;
use sc_ingest::Window;

/// Keyspace-qualified table every row workload uses.
pub const TABLE: &str = "bench.obs";

/// Distinct `station` values (the low-cardinality text column, so v3 blocks
/// dictionary-code it and GROUP BY has 40 groups).
pub const STATIONS: i64 = 40;

pub const CREATE_KEYSPACE: &str = "CREATE KEYSPACE bench";
pub const CREATE_TABLE: &str = "CREATE TABLE bench.obs (id int, station text, ts bigint, \
                                bikes int, docks int, PRIMARY KEY (id))";

/// One row of `bench.obs`; also the oracle's record of what was last
/// written under `id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsRow {
    pub id: i64,
    pub station: i64,
    pub ts: i64,
    pub bikes: i64,
    pub docks: i64,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl ObsRow {
    /// The `version`-th value written under `id`: a pure function of its
    /// arguments, so any component can recompute what a key must hold.
    pub fn new(seed: u64, id: i64, version: u64) -> ObsRow {
        let h = splitmix(seed ^ splitmix(id as u64 ^ (version << 48)));
        ObsRow {
            id,
            station: (h % STATIONS as u64) as i64,
            ts: 1_446_336_000_000 + id * 60_000 + version as i64,
            bikes: ((h >> 8) % 41) as i64,
            docks: 15 + ((h >> 16) % 6) as i64 * 5,
        }
    }

    pub fn station_name(&self) -> String {
        format!("station-{:02}", self.station)
    }

    pub fn insert_cql(&self) -> String {
        format!(
            "INSERT INTO {TABLE} (id, station, ts, bikes, docks) VALUES ({}, '{}', {}, {}, {})",
            self.id,
            self.station_name(),
            self.ts,
            self.bikes,
            self.docks
        )
    }
}

pub fn select_cql(id: i64) -> String {
    format!("SELECT * FROM {TABLE} WHERE id = {id}")
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(i as u64 + 1) as usize);
    }
}

/// `0..n` in seeded random order.
pub fn shuffled_ids(rng: &mut Rng, n: usize) -> Vec<i64> {
    let mut ids: Vec<i64> = (0..n as i64).collect();
    shuffle(rng, &mut ids);
    ids
}

/// Table 2's Day dataset as the feed delivers it: 7,358 station
/// observations in 76 XML snapshots, in seeded arrival order.
///
/// The documents themselves are the catalogue's (`DatasetSpec`), not
/// seed-dependent: the cube's shape — and with it bytes per tuple, Table 4's
/// axis — would otherwise move by ±1.5 % between seeds, more than the 1 %
/// that metric is allowed to worsen by. The seed decides the order the
/// snapshots arrive in and which selections are asked.
pub struct DayFeed {
    pub docs: Vec<String>,
    pub xml_bytes: usize,
    pub source_tuples: usize,
}

impl DayFeed {
    pub fn new(rng: &mut Rng) -> DayFeed {
        let spec = DatasetSpec::for_window(Window::Day).bikes_spec();
        let source_tuples = spec.target_tuples;
        let mut docs: Vec<String> = BikesGenerator::new(spec).map(|s| s.xml).collect();
        shuffle(rng, &mut docs);
        let xml_bytes = docs.iter().map(String::len).sum();
        DayFeed {
            docs,
            xml_bytes,
            source_tuples,
        }
    }
}

/// `n` point selections over real facts of a cube, about one third of the
/// dimensions aggregated out (`ALL`).
pub fn point_selections(
    rng: &mut Rng,
    facts: &[(Vec<String>, i64)],
    n: usize,
) -> Vec<Vec<Selection>> {
    (0..n)
        .map(|_| {
            let (path, _) = &facts[rng.gen_range(facts.len() as u64) as usize];
            path.iter()
                .map(|v| {
                    if rng.gen_range(3) == 0 {
                        Selection::All
                    } else {
                        Selection::value(v.as_str())
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_repeat_exactly_and_vary_with_seed_and_version() {
        assert_eq!(ObsRow::new(7, 123, 0), ObsRow::new(7, 123, 0));
        assert_ne!(ObsRow::new(7, 123, 0), ObsRow::new(8, 123, 0));
        assert_ne!(ObsRow::new(7, 123, 0), ObsRow::new(7, 123, 1));
        let r = ObsRow::new(7, 123, 2);
        assert!((0..STATIONS).contains(&r.station) && (0..=40).contains(&r.bikes));
        assert_eq!(
            r.insert_cql(),
            format!(
                "INSERT INTO bench.obs (id, station, ts, bikes, docks) VALUES (123, '{}', {}, {}, {})",
                r.station_name(),
                r.ts,
                r.bikes,
                r.docks
            )
        );
    }

    #[test]
    fn shuffles_repeat_exactly_and_are_permutations() {
        let a = shuffled_ids(&mut Rng::new(5), 1000);
        let b = shuffled_ids(&mut Rng::new(5), 1000);
        let c = shuffled_ids(&mut Rng::new(6), 1000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<i64>>());
    }

    #[test]
    fn day_feed_repeats_exactly_per_seed() {
        let a = DayFeed::new(&mut Rng::new(11));
        let b = DayFeed::new(&mut Rng::new(11));
        let c = DayFeed::new(&mut Rng::new(12));
        assert_eq!(a.docs, b.docs);
        assert_ne!(a.docs, c.docs, "the seed decides arrival order");
        assert_eq!((a.docs.len(), a.source_tuples), (76, 7358));
        let mut x = a.docs.clone();
        let mut y = c.docs.clone();
        x.sort();
        y.sort();
        assert_eq!(x, y, "the same snapshots under every seed");
    }

    #[test]
    fn selections_repeat_exactly() {
        let facts = vec![
            (vec!["a".to_string(), "b".to_string(), "c".to_string()], 1),
            (vec!["d".to_string(), "e".to_string(), "f".to_string()], 2),
        ];
        let a = point_selections(&mut Rng::new(3), &facts, 50);
        let b = point_selections(&mut Rng::new(3), &facts, 50);
        assert_eq!(a, b);
        assert!(a.iter().flatten().any(|s| *s == Selection::All));
        assert!(a.iter().flatten().any(|s| *s != Selection::All));
    }
}
