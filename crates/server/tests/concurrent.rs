//! Concurrent multi-tenant integration: N client threads × M statements
//! against one server, interleaved across two tenants, checked against an
//! embedded-`Db` oracle, with tenant isolation asserted both ways.

use sc_nosql::{CqlValue, Db, OpenOptions, SharedDb};
use sc_server::client::Client;
use sc_server::{ErrorCode, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;

const CLIENTS_PER_TENANT: usize = 4; // 8 concurrent clients total
const ROWS_PER_CLIENT: i64 = 25;

fn setup_statements() -> Vec<String> {
    vec![
        "CREATE KEYSPACE app".to_string(),
        "CREATE TABLE app.readings (id int, station text, bikes int, PRIMARY KEY (id))".to_string(),
    ]
}

fn insert_statement(tenant: &str, client_idx: usize, i: i64) -> String {
    let id = client_idx as i64 * 1000 + i;
    format!(
        "INSERT INTO app.readings (id, station, bikes) VALUES ({id}, '{tenant} station {id}', {})",
        id % 37
    )
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

#[test]
fn eight_clients_two_tenants_match_embedded_oracle() {
    let db = SharedDb::open(OpenOptions::default()).unwrap();
    let server = Server::start(
        ServerConfig::default()
            .tenant("city1", "tok-city1")
            .tenant("city2", "tok-city2"),
        db,
    )
    .unwrap();
    let addr = server.addr();
    let tenants = [("city1", "tok-city1"), ("city2", "tok-city2")];

    // Schema per tenant (same logical keyspace name on both sides —
    // that's the point of namespace isolation).
    for (_, token) in tenants {
        let mut c = Client::connect(addr).unwrap();
        c.hello(token).unwrap();
        for stmt in setup_statements() {
            c.query(&stmt).unwrap();
        }
    }

    // 8 concurrent clients, interleaved across the two tenants.
    std::thread::scope(|scope| {
        for (tenant, token) in tenants {
            for client_idx in 0..CLIENTS_PER_TENANT {
                scope.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    assert_eq!(c.hello(token).unwrap(), tenant);
                    for i in 0..ROWS_PER_CLIENT {
                        c.query(&insert_statement(tenant, client_idx, i)).unwrap();
                    }
                });
            }
        }
    });

    // Embedded oracle: one fresh engine per tenant, same statements.
    for (tenant, token) in tenants {
        let oracle = Db::open(OpenOptions::default()).unwrap();
        for stmt in setup_statements() {
            oracle.execute_cql(&stmt).unwrap();
        }
        for client_idx in 0..CLIENTS_PER_TENANT {
            for i in 0..ROWS_PER_CLIENT {
                oracle
                    .execute_cql(&insert_statement(tenant, client_idx, i))
                    .unwrap();
            }
        }
        let expected = oracle
            .execute_cql("SELECT id, station, bikes FROM app.readings")
            .unwrap();

        let mut c = Client::connect(addr).unwrap();
        c.hello(token).unwrap();
        let got = c
            .query("SELECT id, station, bikes FROM app.readings")
            .unwrap();
        assert_eq!(
            got.len(),
            (CLIENTS_PER_TENANT as i64 * ROWS_PER_CLIENT) as usize,
            "{tenant}: row count"
        );
        let values = |r: &sc_nosql::QueryResult| -> Vec<Vec<CqlValue>> {
            r.iter().map(|row| row.values().to_vec()).collect()
        };
        assert_eq!(
            values(&got),
            values(&expected),
            "{tenant} diverged from oracle"
        );

        // Point reads through the server match the oracle too.
        let probe = c
            .query("SELECT station FROM app.readings WHERE id = 1003")
            .unwrap();
        assert_eq!(
            probe.first().unwrap().get_text("station").unwrap(),
            format!("{tenant} station 1003")
        );
    }

    // Isolation, direction 1: each tenant sees only its own rows in the
    // *same-named* keyspace (the station text embeds the tenant name).
    for (tenant, token) in tenants {
        let mut c = Client::connect(addr).unwrap();
        c.hello(token).unwrap();
        let rows = c.query("SELECT station FROM app.readings").unwrap();
        for row in &rows {
            let station = row.get_text("station").unwrap();
            assert!(
                station.starts_with(tenant),
                "tenant {tenant} saw foreign row {station:?}"
            );
        }
    }

    // Isolation, direction 2: a keyspace created by one tenant does not
    // exist for the other — and the error does not leak the physical
    // (prefixed) name.
    {
        let mut c1 = Client::connect(addr).unwrap();
        c1.hello("tok-city1").unwrap();
        c1.query("CREATE KEYSPACE private1").unwrap();
        let mut c2 = Client::connect(addr).unwrap();
        c2.hello("tok-city2").unwrap();
        let err = c2.query("SELECT * FROM private1.anything").unwrap_err();
        match err {
            sc_server::ClientError::Server { code, message } => {
                assert_eq!(code, ErrorCode::NotFound);
                assert!(
                    !message.contains("city1__") && !message.contains("city2__"),
                    "physical prefix leaked: {message}"
                );
            }
            other => panic!("expected a typed NotFound, got {other}"),
        }
    }

    // The metrics port serves Prometheus text containing server.* series.
    let scrape = http_get(server.metrics_addr(), "/metrics");
    assert!(scrape.starts_with("HTTP/1.1 200"), "{scrape}");
    assert!(
        scrape.contains("# TYPE server_requests counter"),
        "{scrape}"
    );
    assert!(scrape.contains("server_connections"), "{scrape}");
    assert!(scrape.contains("server_bytes_in"), "{scrape}");
    assert!(
        scrape.contains("server_request_duration_ns_bucket"),
        "{scrape}"
    );
    // The health probe answers `ok` while the server is serving.
    let health = http_get(server.metrics_addr(), "/healthz");
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");
    assert_eq!(health.split_once("\r\n\r\n").map(|(_, b)| b), Some("ok\n"));

    server.shutdown();
}
