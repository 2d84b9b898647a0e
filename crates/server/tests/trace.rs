//! End-to-end request tracing: a traced client query round-trips its
//! trace ID, the slow-query log links to the trace, `/debug/traces`
//! serves the span tree (JSON + Chrome trace-event), and — the PR's
//! acceptance criterion — the trace's top-level stages decompose the
//! logged latency to within 10%.
//!
//! Own binary, single `#[test]`: the trace toggle and tail sampler are
//! process-global, so parallel test fns would race on them.

use sc_nosql::{OpenOptions, SharedDb};
use sc_obs::trace::TailSampler;
use sc_server::client::Client;
use sc_server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const ROWS: i64 = 3_000;

fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    let (head, body) = out.split_once("\r\n\r\n").expect("HTTP header split");
    (head.to_string(), body.to_string())
}

#[test]
fn traced_query_decomposes_slow_log_latency_and_exports() {
    let db = SharedDb::open(OpenOptions::default()).unwrap();
    let server = Server::start(
        ServerConfig::default()
            .tenant("city", "tok-city")
            // Log everything; retain every offered trace (slowest-8 plus
            // a 1-in-1 systematic sample).
            .slow_query_threshold(Duration::ZERO)
            .trace_policy(1),
        db,
    )
    .unwrap();
    let addr = server.addr();
    let metrics = server.metrics_addr();

    let mut client = Client::connect(addr).unwrap();
    client.hello("tok-city").unwrap();
    client.query("CREATE KEYSPACE app").unwrap();
    client
        .query("CREATE TABLE app.readings (id int, station text, bikes int, PRIMARY KEY (id))")
        .unwrap();
    for i in 0..ROWS {
        client
            .query(&format!(
                "INSERT INTO app.readings (id, station, bikes) VALUES ({i}, 'station {i}', {})",
                i % 37
            ))
            .unwrap();
    }

    // The interesting statement: a full scan, slow enough to measure.
    let (rows, trace_id) = client
        .query_traced("SELECT * FROM app.readings")
        .expect("traced select");
    assert_eq!(rows.len(), ROWS as usize);
    assert_ne!(trace_id, 0);
    let hex = format!("{trace_id:016x}");

    // --- Slow-query log: the entry links to the trace and carries stats.
    let entry = server
        .slow_queries()
        .into_iter()
        .find(|e| e.trace_id == trace_id)
        .expect("select landed in the slow-query log with its trace ID");
    assert_eq!(entry.tenant, "city");
    assert!(entry.cql.starts_with("SELECT * FROM app.readings"));
    // Untraced statements still get server-minted IDs: every logged entry
    // links somewhere.
    assert!(
        server.slow_queries().iter().all(|e| e.trace_id != 0),
        "server must mint trace IDs for untraced requests"
    );

    // --- Acceptance criterion: the span tree's top-level stages sum to
    // the logged total (execution + commit wait) within 10%.
    let trace = TailSampler::global()
        .find(trace_id)
        .expect("sampler retained the traced select");
    assert_eq!(trace.kind, "select");
    assert_eq!(trace.tenant, "city");
    let logged_ns = (entry.duration + entry.queue_wait).as_nanos() as u64;
    let stage_sum: u64 = trace
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns)
        .sum();
    let names: Vec<&str> = trace
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.name)
        .collect();
    assert!(
        names.contains(&"server.parse") && names.contains(&"server.execute"),
        "top-level stages: {names:?}"
    );
    let tolerance = logged_ns / 10;
    assert!(
        stage_sum.abs_diff(logged_ns) <= tolerance,
        "stage sum {stage_sum}ns vs logged {logged_ns}ns exceeds 10% \
         (spans: {:?})",
        trace.spans
    );
    assert!(trace.total_ns >= stage_sum);

    // An insert's trace decomposes the write path: the commit wait the
    // slow-query log reports equals the trace's commit_wait attribution.
    let insert_entry = server
        .slow_queries()
        .into_iter()
        .rev()
        .find(|e| e.cql.starts_with("INSERT"))
        .expect("an insert in the slow-query log");
    if let Some(insert_trace) = TailSampler::global().find(insert_entry.trace_id) {
        assert_eq!(insert_trace.kind, "insert");
        let wait_ns = insert_trace.attr_total(sc_obs::trace::Attr::CommitWaitNs);
        assert_eq!(
            wait_ns,
            insert_entry.queue_wait.as_nanos() as u64,
            "trace commit-wait attribution must match the logged queue wait"
        );
    }

    // --- /debug/traces: JSON list, slowest first, contains our trace.
    let (head, body) = http_get(metrics, "/debug/traces");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("application/json"));
    assert!(body.trim_start().starts_with('['));
    assert!(body.contains(&format!("\"trace_id\": \"{hex}\"")));
    assert!(body.contains("\"name\": \"server.execute\""));
    assert_eq!(body.matches('{').count(), body.matches('}').count());

    // --- /debug/traces/<id>: Chrome trace-event format with a
    // nonzero-duration child span.
    let (head, chrome) = http_get(metrics, &format!("/debug/traces/{hex}"));
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(chrome.trim_start().starts_with('['));
    assert!(chrome.trim_end().ends_with(']'));
    assert!(chrome.contains("\"ph\": \"X\""));
    assert!(chrome.contains(&format!("\"trace_id\": \"{hex}\"")));
    // At least one non-root event with a nonzero duration.
    let child_durs: Vec<f64> = chrome
        .lines()
        .skip(2) // '[' + root request event
        .filter_map(|l| l.split("\"dur\": ").nth(1))
        .filter_map(|rest| rest.split(',').next())
        .filter_map(|v| v.parse().ok())
        .collect();
    assert!(
        child_durs.iter().any(|&d| d > 0.0),
        "no nonzero-duration child span in {chrome}"
    );
    assert_eq!(chrome.matches('{').count(), chrome.matches('}').count());

    // Unknown and malformed IDs 404 instead of panicking.
    let (head, _) = http_get(metrics, "/debug/traces/ffffffffffffffff");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    let (head, _) = http_get(metrics, "/debug/traces/not-hex");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");

    // --- Old-wire compatibility: a PR 6 Query frame (no trace field)
    // still executes, and its Rows reply has no trailing trace ID.
    let mut raw = TcpStream::connect(addr).unwrap();
    let hello = {
        let mut enc = sc_encoding::Encoder::new();
        enc.put_u8(0x01).put_str("tok-city");
        enc.into_bytes()
    };
    let query = {
        let mut enc = sc_encoding::Encoder::new();
        enc.put_u8(0x02).put_str("SELECT * FROM app.readings");
        enc.into_bytes()
    };
    for payload in [&hello, &query] {
        raw.write_all(&(payload.len() as u32).to_be_bytes())
            .unwrap();
        raw.write_all(payload).unwrap();
    }
    let read_frame = |stream: &mut TcpStream| -> Vec<u8> {
        let mut prefix = [0u8; 4];
        stream.read_exact(&mut prefix).unwrap();
        let mut payload = vec![0u8; u32::from_be_bytes(prefix) as usize];
        stream.read_exact(&mut payload).unwrap();
        payload
    };
    let hello_ok = read_frame(&mut raw);
    assert_eq!(hello_ok[0], 0x81, "HelloOk tag");
    let rows_payload = read_frame(&mut raw);
    assert_eq!(rows_payload[0], 0x82, "Rows tag");
    // A PR 6 decoder rejects trailing bytes, so byte-equality with the
    // trace-free encoding proves compatibility.
    let decoded = sc_server::Response::decode(&rows_payload).unwrap();
    match &decoded {
        sc_server::Response::Rows { rows, trace_id, .. } => {
            assert_eq!(rows.len(), ROWS as usize);
            assert_eq!(*trace_id, None, "untraced request must get no echo");
        }
        other => panic!("unexpected response {other:?}"),
    }
    assert_eq!(decoded.encode(), rows_payload);

    server.shutdown();
}
