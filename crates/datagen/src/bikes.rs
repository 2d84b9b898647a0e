//! The bike-sharing feed generator (the paper's evaluation dataset).
//!
//! A feed is a sequence of **snapshots**: XML documents listing every
//! station's state at one instant, stamped with an `updated` timestamp. One
//! station observation = one cube tuple, so a target tuple count divides
//! into `ceil(target / stations)` snapshots.
//!
//! The cube built from this feed has the paper's 8 dimensions:
//! `year, month, day, hour, area, station, status, docks`, with
//! `bikes` (available bikes) as the SUM measure. The calendar prefix and
//! the station→area correlation give the DWARF the prefix/suffix
//! coalescing opportunities real bike data has.

use crate::names;
use sc_encoding::Rng;
use sc_ingest::cube_def::TimeField;
use sc_ingest::{CubeDef, DateTime};
use sc_xml::XmlWriter;

/// Configuration of a generated feed.
#[derive(Debug, Clone)]
pub struct BikesSpec {
    /// RNG seed (datasets are deterministic per seed).
    pub seed: u64,
    /// Number of stations in the city.
    pub stations: usize,
    /// First snapshot timestamp.
    pub start: DateTime,
    /// Feed duration in minutes (snapshots spread evenly across it).
    pub duration_minutes: i64,
    /// Exact number of station observations (tuples) to emit.
    pub target_tuples: usize,
}

impl BikesSpec {
    /// A small default spec for tests/examples: one day, 20 stations, 480
    /// tuples.
    pub fn small() -> BikesSpec {
        BikesSpec {
            seed: 1,
            stations: 20,
            start: DateTime::parse("2015-11-01T00:00:00").expect("valid date"),
            duration_minutes: 24 * 60,
            target_tuples: 480,
        }
    }
}

/// One station's static identity.
#[derive(Debug, Clone)]
struct Station {
    id: usize,
    name: String,
    area: &'static str,
    docks: i64,
    lat: f64,
    lng: f64,
}

/// One generated feed document.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Snapshot timestamp.
    pub time: DateTime,
    /// The XML document text.
    pub xml: String,
    /// Station observations inside (== stations except a short last
    /// snapshot).
    pub observations: usize,
}

/// Iterator of snapshots for a [`BikesSpec`].
#[derive(Debug)]
pub struct BikesGenerator {
    spec: BikesSpec,
    stations: Vec<Station>,
    /// Current bikes-available per station (random walk state).
    bikes: Vec<i64>,
    /// Current status per station (mostly `open`, occasionally flipping).
    status: Vec<&'static str>,
    rng: Rng,
    snapshot_index: usize,
    snapshots_total: usize,
    emitted: usize,
}

impl BikesGenerator {
    /// Creates a generator for `spec`.
    pub fn new(spec: BikesSpec) -> BikesGenerator {
        assert!(spec.stations > 0, "at least one station");
        assert!(spec.target_tuples > 0, "at least one tuple");
        let mut rng = Rng::new(spec.seed);
        let mut stations = Vec::with_capacity(spec.stations);
        for i in 0..spec.stations {
            let area = names::AREAS[rng.gen_range(names::AREAS.len() as u64) as usize];
            // Dock counts cluster around a handful of sizes, like real
            // schemes (keeps the `docks` dimension's cardinality low).
            let docks = *rng.choice(&[15i64, 20, 20, 25, 30, 30, 35, 40]);
            stations.push(Station {
                id: i + 1,
                name: names::station_name(i),
                area,
                docks,
                lat: 53.33 + rng.gen_f64() * 0.06,
                lng: -6.31 + rng.gen_f64() * 0.09,
            });
        }
        let bikes = stations
            .iter()
            .map(|s| rng.gen_between(0, s.docks))
            .collect();
        let status = vec!["open"; spec.stations];
        let snapshots_total = spec.target_tuples.div_ceil(spec.stations);
        BikesGenerator {
            spec,
            stations,
            bikes,
            status,
            rng,
            snapshot_index: 0,
            snapshots_total,
            emitted: 0,
        }
    }

    /// The cube definition for this feed (the paper's 8 dimensions).
    pub fn cube_def() -> CubeDef {
        CubeDef::xml("/stations/station")
            .timestamp("@updated")
            .time_dimension("year", TimeField::Year)
            .time_dimension("month", TimeField::Month)
            .time_dimension("day", TimeField::Day)
            .time_dimension("hour", TimeField::Hour)
            .dimension("area", "area/text()")
            .dimension("station", "name/text()")
            .dimension("status", "status/text()")
            .dimension("docks", "docks/text()")
            .measure("bikes", "bikes/text()")
            .build()
            .expect("static definition is valid")
    }

    fn snapshot_time(&self, index: usize) -> DateTime {
        let minutes = if self.snapshots_total <= 1 {
            0
        } else {
            index as i64 * self.spec.duration_minutes / self.snapshots_total as i64
        };
        self.spec.start.add_minutes(minutes)
    }

    /// Advances station state and renders the next snapshot.
    fn render_snapshot(&mut self) -> Snapshot {
        let time = self.snapshot_time(self.snapshot_index);
        let remaining = self.spec.target_tuples - self.emitted;
        let observations = remaining.min(self.spec.stations);
        let mut w = XmlWriter::with_capacity(observations * 300 + 64);
        w.write_declaration("1.0", Some("UTF-8"));
        w.start("stations")
            .attr("updated", &time.to_string())
            .attr("city", "Dublin")
            .raw("\n");
        let time_str = time.to_string();
        for i in 0..observations {
            // Random walk the availability; occasionally flip status.
            self.bikes[i] = self.rng.walk(self.bikes[i], 4, 0, self.stations_docks(i));
            if self.rng.gen_bool(0.002) {
                self.status[i] = *self.rng.choice(names::STATUSES);
            } else if self.status[i] != "open" && self.rng.gen_bool(0.3) {
                self.status[i] = "open";
            }
            let s = &self.stations[i];
            w.raw("  ");
            w.start("station").attr("id", &s.id.to_string());
            w.leaf("name", &s.name);
            w.leaf("address", &format!("{}, {}", s.name, s.area));
            w.leaf("area", s.area);
            w.leaf(
                "banking",
                if s.id.is_multiple_of(3) {
                    "true"
                } else {
                    "false"
                },
            );
            w.leaf("status", self.status[i]);
            w.leaf("docks", &s.docks.to_string());
            w.leaf("bikes", &self.bikes[i].to_string());
            w.leaf("lat", &format!("{:.6}", s.lat));
            w.leaf("lng", &format!("{:.6}", s.lng));
            w.leaf("last_update", &time_str);
            w.end();
            w.raw("\n");
        }
        w.end();
        self.emitted += observations;
        self.snapshot_index += 1;
        Snapshot {
            time,
            xml: w.into_string(),
            observations,
        }
    }

    fn stations_docks(&self, i: usize) -> i64 {
        self.stations[i].docks
    }

    /// Fast path: generate the extraction result directly, bypassing XML
    /// rendering + parsing. Produces exactly the tuples the XML path yields
    /// (asserted by tests), for benchmarks whose subject is the store, not
    /// the parser.
    pub fn tuples(spec: BikesSpec) -> sc_dwarf::TupleSet {
        let def = Self::cube_def();
        let schema = def.schema();
        let mut tuples = sc_dwarf::TupleSet::new(&schema);
        let mut gen = BikesGenerator::new(spec);
        while gen.emitted < gen.spec.target_tuples {
            let time = gen.snapshot_time(gen.snapshot_index);
            let remaining = gen.spec.target_tuples - gen.emitted;
            let observations = remaining.min(gen.spec.stations);
            for i in 0..observations {
                gen.bikes[i] = gen.rng.walk(gen.bikes[i], 4, 0, gen.stations[i].docks);
                if gen.rng.gen_bool(0.002) {
                    gen.status[i] = *gen.rng.choice(names::STATUSES);
                } else if gen.status[i] != "open" && gen.rng.gen_bool(0.3) {
                    gen.status[i] = "open";
                }
                let s = &gen.stations[i];
                tuples.push(
                    [
                        format!("{:04}", time.year),
                        format!("{:02}", time.month),
                        format!("{:02}", time.day),
                        format!("{:02}", time.hour),
                        s.area.to_string(),
                        s.name.clone(),
                        gen.status[i].to_string(),
                        s.docks.to_string(),
                    ],
                    gen.bikes[i],
                );
            }
            gen.emitted += observations;
            gen.snapshot_index += 1;
        }
        tuples
    }
}

impl Iterator for BikesGenerator {
    type Item = Snapshot;

    fn next(&mut self) -> Option<Snapshot> {
        if self.emitted >= self.spec.target_tuples {
            return None;
        }
        Some(self.render_snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_dwarf::{Dwarf, Selection, TupleSet};
    use sc_ingest::{extract_into, ExtractError, ExtractStats, MissingPolicy};
    use sc_json::JsonValue;
    use sc_xml::dom::Node;

    #[test]
    fn exact_tuple_counts() {
        let spec = BikesSpec {
            target_tuples: 103, // not a multiple of stations
            stations: 10,
            ..BikesSpec::small()
        };
        let total: usize = BikesGenerator::new(spec).map(|s| s.observations).sum();
        assert_eq!(total, 103);
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<String> = BikesGenerator::new(BikesSpec::small())
            .map(|s| s.xml)
            .collect();
        let b: Vec<String> = BikesGenerator::new(BikesSpec::small())
            .map(|s| s.xml)
            .collect();
        assert_eq!(a, b);
        let c: Vec<String> = BikesGenerator::new(BikesSpec {
            seed: 2,
            ..BikesSpec::small()
        })
        .map(|s| s.xml)
        .collect();
        assert_ne!(a, c);
    }

    #[test]
    fn snapshots_parse_and_extract() {
        let def = BikesGenerator::cube_def();
        let schema = def.schema();
        let mut tuples = TupleSet::new(&schema);
        let mut extracted = 0;
        for snap in BikesGenerator::new(BikesSpec::small()) {
            let doc = sc_ingest::extract::ParsedDoc::parse(def.format, &snap.xml).unwrap();
            let stats = extract_into(&def, &doc, &mut tuples, MissingPolicy::Fail).unwrap();
            extracted += stats.extracted;
        }
        assert_eq!(extracted, 480);
        let cube = Dwarf::build(schema, tuples);
        assert_eq!(cube.num_dims(), 8);
        cube.validate();
        assert!(cube.point(&vec![Selection::All; 8]).is_some());
    }

    #[test]
    fn fast_tuple_path_matches_xml_path() {
        let spec = BikesSpec::small();
        let def = BikesGenerator::cube_def();
        let mut via_xml = TupleSet::new(&def.schema());
        for snap in BikesGenerator::new(spec.clone()) {
            let doc = sc_ingest::extract::ParsedDoc::parse(def.format, &snap.xml).unwrap();
            extract_into(&def, &doc, &mut via_xml, MissingPolicy::Fail).unwrap();
        }
        let direct = BikesGenerator::tuples(spec);
        let cube_xml = Dwarf::build(def.schema(), via_xml);
        let cube_direct = Dwarf::build(def.schema(), direct);
        assert_eq!(cube_xml.extract_tuples(), cube_direct.extract_tuples());
    }

    /// The JSON twin of a parsed snapshot: `updated` plus every station
    /// field, integers as JSON numbers and the rest as strings.
    fn json_twin(doc: &sc_xml::Document) -> String {
        let stations = doc
            .root
            .children_named("station")
            .map(|station| {
                let fields = station.child_elements().map(|f| {
                    let text = f.text();
                    let value = match text.parse::<i64>() {
                        Ok(n) => JsonValue::number(n as f64),
                        Err(_) => JsonValue::string(text),
                    };
                    (f.name.clone(), value)
                });
                JsonValue::Object(fields.collect())
            })
            .collect();
        let updated = doc.root.attr("updated").expect("stamped snapshot");
        JsonValue::object(vec![
            ("updated", JsonValue::string(updated)),
            ("stations", JsonValue::Array(stations)),
        ])
        .to_json()
    }

    /// Stats, pre-deduplication tuple count and facts of `docs` under `def`.
    type Extracted = (ExtractStats, usize, Vec<(Vec<String>, i64)>);

    fn extract_all(
        def: &CubeDef,
        docs: &[String],
        policy: MissingPolicy,
    ) -> Result<Extracted, ExtractError> {
        let mut tuples = TupleSet::new(&def.schema());
        let mut stats = ExtractStats::default();
        for doc in docs {
            stats.merge(sc_ingest::extract::extract_text(
                def,
                doc,
                &mut tuples,
                policy,
            )?);
        }
        let len = tuples.len();
        Ok((
            stats,
            len,
            Dwarf::build(def.schema(), tuples).extract_tuples(),
        ))
    }

    #[test]
    fn json_twins_extract_the_same_tuples() {
        let xml_def = BikesGenerator::cube_def();
        let json_def = CubeDef::json("/stations/*")
            .timestamp("/updated")
            .time_dimension("year", TimeField::Year)
            .time_dimension("month", TimeField::Month)
            .time_dimension("day", TimeField::Day)
            .time_dimension("hour", TimeField::Hour)
            .dimension("area", "/area")
            .dimension("station", "/name")
            .dimension("status", "/status")
            .dimension("docks", "/docks")
            .measure("bikes", "/bikes")
            .build()
            .unwrap();
        let mut docs: Vec<sc_xml::Document> = BikesGenerator::new(BikesSpec::small())
            .map(|s| sc_xml::Document::parse(&s.xml).unwrap())
            .collect();
        let twins = |docs: &[sc_xml::Document]| -> (Vec<String>, Vec<String>) {
            docs.iter().map(|d| (d.to_xml(), json_twin(d))).unzip()
        };
        let clean = twins(&docs);
        // One station of one snapshot loses its status.
        let Some(Node::Element(station)) = docs[2]
            .root
            .children
            .iter_mut()
            .find(|n| matches!(n, Node::Element(e) if e.name == "station"))
        else {
            panic!("snapshot without stations");
        };
        station
            .children
            .retain(|n| !matches!(n, Node::Element(e) if e.name == "status"));
        let gapped = twins(&docs);
        for (xml, json) in [&clean, &gapped] {
            for policy in [MissingPolicy::Skip, MissingPolicy::Fail] {
                assert_eq!(
                    extract_all(&xml_def, xml, policy),
                    extract_all(&json_def, json, policy),
                    "{policy:?}"
                );
            }
        }
        let (stats, _, _) = extract_all(&xml_def, &clean.0, MissingPolicy::Fail).unwrap();
        assert_eq!((stats.extracted, stats.skipped), (480, 0));
        let (stats, _, _) = extract_all(&xml_def, &gapped.0, MissingPolicy::Skip).unwrap();
        assert_eq!((stats.extracted, stats.skipped), (479, 1));
        assert!(extract_all(&xml_def, &gapped.0, MissingPolicy::Fail).is_err());
    }

    #[test]
    fn bytes_per_tuple_matches_table2_footprint() {
        // Table 2: 2.1 MB / 7 358 tuples ≈ 286 bytes per tuple. Allow a
        // tolerance band; the shape (linear growth) is what matters.
        let spec = BikesSpec {
            target_tuples: 2000,
            stations: 100,
            ..BikesSpec::small()
        };
        let bytes: usize = BikesGenerator::new(spec).map(|s| s.xml.len()).sum();
        let per_tuple = bytes as f64 / 2000.0;
        assert!(
            (240.0..340.0).contains(&per_tuple),
            "bytes/tuple = {per_tuple:.1}"
        );
    }

    #[test]
    fn timestamps_span_the_window() {
        let spec = BikesSpec {
            target_tuples: 1000,
            stations: 10,
            ..BikesSpec::small()
        };
        let times: Vec<DateTime> = BikesGenerator::new(spec).map(|s| s.time).collect();
        assert_eq!(times.first().unwrap().to_string(), "2015-11-01T00:00:00");
        let last = times.last().unwrap();
        assert_eq!(last.date_string(), "2015-11-01");
        assert!(last.hour >= 23, "snapshots cover the day, got {last}");
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }
}
