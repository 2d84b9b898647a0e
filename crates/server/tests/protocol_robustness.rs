//! Malformed-frame sweep: the server must answer hostile or broken bytes
//! with a typed error or a dropped connection — never a panic, never a
//! leaked session thread. After every abuse case a well-behaved client
//! verifies the server is still serving.

use sc_server::client::Client;
use sc_server::frame::{read_frame, write_frame, DEFAULT_MAX_FRAME_BYTES};
use sc_server::protocol::{ErrorCode, Response};
use sc_server::{ClientError, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn start_server() -> Server {
    let db = sc_nosql::SharedDb::open(sc_nosql::OpenOptions::default()).unwrap();
    Server::start(ServerConfig::default().tenant("t1", "tok-1"), db).unwrap()
}

/// Reads one response frame with a deadline so a buggy server can't hang
/// the test.
fn read_response(stream: &mut TcpStream) -> Option<Response> {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let payload = read_frame(stream, DEFAULT_MAX_FRAME_BYTES).ok()??;
    Some(Response::decode(&payload).unwrap())
}

/// Asserts the server closed its end: the next read returns EOF (or a
/// reset, which some platforms surface instead).
fn assert_closed(stream: &mut TcpStream) {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut byte = [0u8; 1];
    match stream.read(&mut byte) {
        Ok(0) => {}
        Ok(n) => panic!("expected closed connection, read {n} extra bytes"),
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        Err(e) => panic!("expected clean EOF, got {e}"),
    }
}

/// A healthy client still gets full service after each abuse case.
fn assert_still_serving(addr: SocketAddr) {
    let mut c = Client::connect(addr).unwrap();
    c.hello("tok-1").unwrap();
    c.ping().unwrap();
}

#[test]
fn truncated_length_prefix_then_disconnect() {
    let server = start_server();
    {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(&[0x00, 0x01]).unwrap(); // 2 of 4 prefix bytes
                                             // Drop mid-prefix: the session must treat this as a dead peer.
    }
    assert_still_serving(server.addr());
    server.shutdown();
}

#[test]
fn oversized_declared_length_gets_typed_error_and_close() {
    let server = start_server();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    // Declare a 2 GiB payload; the server must refuse before allocating.
    s.write_all(&0x7FFF_FFFFu32.to_be_bytes()).unwrap();
    s.write_all(b"abc").unwrap();
    match read_response(&mut s).expect("typed error before close") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("expected protocol error, got {other:?}"),
    }
    assert_closed(&mut s);
    assert_still_serving(server.addr());
    server.shutdown();
}

#[test]
fn garbage_payload_gets_typed_error_and_close() {
    let server = start_server();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    // Well-formed frame, nonsense payload (0x77 is not a request tag).
    write_frame(&mut s, &[0x77; 16]).unwrap();
    match read_response(&mut s).expect("typed error before close") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("expected protocol error, got {other:?}"),
    }
    assert_closed(&mut s);
    assert_still_serving(server.addr());
    server.shutdown();
}

#[test]
fn valid_tag_truncated_body_gets_typed_error_and_close() {
    let server = start_server();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    // Query tag, then a varint promising more bytes than the frame holds.
    write_frame(&mut s, &[0x02, 0x20, b'S', b'E']).unwrap();
    match read_response(&mut s).expect("typed error before close") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("expected protocol error, got {other:?}"),
    }
    assert_closed(&mut s);
    assert_still_serving(server.addr());
    server.shutdown();
}

#[test]
fn mid_frame_disconnect_does_not_leak_sessions() {
    let server = start_server();
    for _ in 0..4 {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        // Promise 100 payload bytes, deliver 10, vanish.
        s.write_all(&100u32.to_be_bytes()).unwrap();
        s.write_all(&[0xAB; 10]).unwrap();
        drop(s);
    }
    assert_still_serving(server.addr());
    // Give the sessions a few poll intervals to observe the dead peers.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.active_sessions() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        server.active_sessions(),
        0,
        "abandoned connections leaked session threads"
    );
    server.shutdown();
}

#[test]
fn wrong_token_is_auth_error_and_close() {
    let server = start_server();
    let mut c = Client::connect(server.addr()).unwrap();
    match c.hello("not-a-token").unwrap_err() {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::Auth),
        other => panic!("expected auth error, got {other}"),
    }
    // Failed auth drops the connection: no token enumeration on one socket.
    match c.ping().unwrap_err() {
        ClientError::Io(_) => {}
        other => panic!("expected closed connection, got {other}"),
    }
    assert_still_serving(server.addr());
    server.shutdown();
}

#[test]
fn query_before_hello_is_auth_error_but_connection_survives() {
    let server = start_server();
    let mut c = Client::connect(server.addr()).unwrap();
    match c.query("SELECT * FROM app.t").unwrap_err() {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::Auth),
        other => panic!("expected auth error, got {other}"),
    }
    // Unlike a bad token, a premature query leaves the session usable.
    c.hello("tok-1").unwrap();
    c.ping().unwrap();
    server.shutdown();
}

#[test]
fn set_literal_key_is_a_typed_error_and_the_connection_survives() {
    // Hostile CQL, not hostile bytes: a set literal where a key belongs
    // once panicked the session thread inside the engine's key encoding.
    let server = start_server();
    let mut c = Client::connect(server.addr()).unwrap();
    c.hello("tok-1").unwrap();
    c.query("CREATE KEYSPACE app").unwrap();
    c.query("CREATE TABLE app.t (id int, v int, PRIMARY KEY (id))")
        .unwrap();
    c.query("CREATE INDEX ON app.t (v)").unwrap();
    c.query("INSERT INTO app.t (id, v) VALUES (1, 2)").unwrap();
    for cql in [
        "DELETE FROM app.t WHERE id = {1, 2}",
        "SELECT * FROM app.t WHERE id = {1, 2}",
        "SELECT * FROM app.t WHERE id IN ({1}, {2})",
        "SELECT * FROM app.t WHERE v = {1}",
    ] {
        match c.query(cql).unwrap_err() {
            ClientError::Server { code, message } => {
                assert_eq!(code, ErrorCode::Invalid, "{cql}");
                assert!(message.contains("type mismatch"), "{cql}: {message}");
            }
            other => panic!("{cql}: expected an error frame, got {other}"),
        }
        // The same connection answers the next request.
        assert_eq!(
            c.query("SELECT * FROM app.t WHERE id = 1").unwrap().len(),
            1
        );
    }
    server.shutdown();
}

#[test]
fn non_ascii_cql_is_a_parse_error_and_the_connection_survives() {
    // A multi-byte character outside a string literal once sent the
    // tokenizer into a loop that allocated until the process died.
    let server = start_server();
    let mut c = Client::connect(server.addr()).unwrap();
    c.hello("tok-1").unwrap();
    c.query("CREATE KEYSPACE app").unwrap();
    c.query("CREATE TABLE app.t (id int, PRIMARY KEY (id))")
        .unwrap();
    match c.query("SELECT € FROM app.t").unwrap_err() {
        ClientError::Server { code, message } => {
            assert_eq!(code, ErrorCode::Parse);
            assert!(message.contains('€'), "{message}");
        }
        other => panic!("expected a parse error frame, got {other}"),
    }
    assert!(c.query("SELECT * FROM app.t").unwrap().is_empty());
    server.shutdown();
}

#[test]
fn shutdown_drains_idle_sessions_and_joins_all_threads() {
    let server = start_server();
    let addr = server.addr();
    let mut idle = Client::connect(addr).unwrap();
    idle.hello("tok-1").unwrap();
    idle.ping().unwrap();

    server.shutdown(); // must not hang on the idle session

    // The drained session told the idle client it was going away.
    match idle.ping().unwrap_err() {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::ShuttingDown),
        // The error frame races the close; a dropped connection is also
        // an acceptable way to learn the server is gone.
        ClientError::Io(_) => {}
        other => panic!("unexpected post-shutdown failure: {other}"),
    }
    assert!(TcpStream::connect(addr).map_or(true, |mut s| {
        // Even if the OS backlog accepts the connect, nobody serves it.
        s.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let mut b = [0u8; 1];
        !matches!(s.read(&mut b), Ok(n) if n > 0)
    }));
}

#[test]
fn errors_name_the_tables_the_tenant_named() {
    let server = start_server();
    let mut c = Client::connect(server.addr()).unwrap();
    c.hello("tok-1").unwrap();
    c.query("CREATE KEYSPACE app").unwrap();
    // `t1__` inside a table name is the tenant's own text, not the prefix
    // the server put in front of the keyspace.
    match c.query("SELECT * FROM app.cat1__x").unwrap_err() {
        ClientError::Server { message, .. } => {
            assert!(message.contains("app.cat1__x"), "{message}");
            assert!(!message.contains("t1__app"), "{message}");
        }
        other => panic!("expected a typed error, got {other}"),
    }
    server.shutdown();
}

#[test]
fn slow_query_log_records_over_threshold_statements() {
    let db = sc_nosql::SharedDb::open(sc_nosql::OpenOptions::default()).unwrap();
    let server = Server::start(
        ServerConfig::default()
            .tenant("t1", "tok-1")
            .slow_query_threshold(Duration::ZERO), // everything is "slow"
        db,
    )
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    c.hello("tok-1").unwrap();
    c.query("CREATE KEYSPACE app").unwrap();
    c.query("CREATE TABLE app.t (id int, v text, PRIMARY KEY (id))")
        .unwrap();
    c.query("INSERT INTO app.t (id, v) VALUES (1, 'x')")
        .unwrap();

    assert_eq!(server.slow_queries_recorded(), 3);
    let entries = server.slow_queries();
    assert_eq!(entries.len(), 3);
    assert!(entries.iter().all(|e| e.tenant == "t1"));
    // The log shows the tenant's own CQL, not the rewritten physical form.
    assert!(entries[0].cql.contains("CREATE KEYSPACE app"));
    assert!(!entries[0].cql.contains("t1__"));
    server.shutdown();
}
