//! sc-server over one loopback client: what the wire adds to an in-process
//! read (RTT minus `read_p50_us`), and the frame codec alone.

use super::median_ns;
use crate::gen::{select_cql, ObsRow, CREATE_KEYSPACE, CREATE_TABLE};
use crate::metrics::Report;
use crate::stats::percentile;
use crate::workloads::{engine_policy, point_answer_matches};
use sc_encoding::Rng;
use sc_nosql::SharedDb;
use sc_server::frame::{read_frame, write_frame, DEFAULT_MAX_FRAME_BYTES};
use sc_server::{Client, Request, Server, ServerConfig};
use std::time::Instant;

const ROWS: usize = 2000;
const ROUND_TRIPS: usize = 2000;
const TOKEN: &str = "bench-token";

pub fn run(seed: u64, report: &mut Report) {
    let mut rng = Rng::new(seed);
    let db = SharedDb::open(engine_policy()).expect("in-memory open");
    // Tracing stays disarmed, as everywhere else in the benchmark.
    let config = ServerConfig::default()
        .tenant("bench", TOKEN)
        .tracing(false);
    let server = Server::start(config, db).expect("loopback server starts");
    let mut client = Client::connect(server.addr()).expect("connects");
    client.hello(TOKEN).expect("authenticates");
    client.query(CREATE_KEYSPACE).expect("keyspace");
    client.query(CREATE_TABLE).expect("table");
    let rows: Vec<ObsRow> = (0..ROWS as i64)
        .map(|id| ObsRow::new(seed, id, 0))
        .collect();
    for row in &rows {
        client.query(&row.insert_cql()).expect("insert");
    }

    let mut ping_ns = Vec::with_capacity(ROUND_TRIPS);
    let mut read_ns = Vec::with_capacity(ROUND_TRIPS);
    for _ in 0..ROUND_TRIPS {
        let t = Instant::now();
        client.ping().expect("pong");
        ping_ns.push(t.elapsed().as_nanos() as u64);
        let row = &rows[rng.gen_range(ROWS as u64) as usize];
        let cql = select_cql(row.id);
        let t = Instant::now();
        let got = client.query(&cql).expect("select");
        read_ns.push(t.elapsed().as_nanos() as u64);
        assert!(point_answer_matches(&got, Some(row)), "wire read is wrong");
    }
    drop(client);
    server.shutdown();
    let n = ROUND_TRIPS as u64;
    report.set(
        "server.ping_rtt_us",
        percentile(&mut ping_ns, 0.5) as f64 / 1e3,
        n,
    );
    report.set(
        "server.point_read_rtt_us",
        percentile(&mut read_ns, 0.5) as f64 / 1e3,
        n,
    );

    // Encode, frame, unframe and decode one Query, no socket involved.
    let request = Request::Query {
        cql: select_cql(12_345),
        trace_id: None,
    };
    const FRAMES: usize = 20_000;
    let ns = median_ns(5, || {
        let mut decoded = 0;
        let mut wire = Vec::with_capacity(128);
        for _ in 0..FRAMES {
            wire.clear();
            write_frame(&mut wire, &request.encode()).expect("writes");
            let payload = read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME_BYTES)
                .expect("reads")
                .expect("one frame");
            decoded += usize::from(Request::decode(&payload).is_ok());
        }
        decoded
    });
    report.set("server.frame_codec_ns", ns / FRAMES as f64, 5);
}
