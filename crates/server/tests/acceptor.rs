//! The daemon's front door: an acceptor blocked in `accept()` that drain
//! wakes with one loopback connection.
//!
//! A lost wake would leave `shutdown()` / `join()` blocked forever, so
//! every drain here runs under a watchdog that fails the test instead of
//! hanging it. The counter checks pin that the wake connection is never
//! mistaken for a client: `connections` is exactly the number of client
//! connections and `protocol_errors` stays 0.

use server::json::{self, Json};
use server::proto::{read_frame, write_frame};
use server::{ServerHandle, ServerOptions};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

const IO_TIMEOUT: Duration = Duration::from_secs(20);
const DRAIN_DEADLINE: Duration = Duration::from_secs(30);

/// Run `f` on its own thread and return its result, failing the test if
/// it has not finished within [`DRAIN_DEADLINE`].
fn within<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(DRAIN_DEADLINE) {
        Ok(out) => out,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{what} did not return within {DRAIN_DEADLINE:?}: the acceptor missed its wake")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("{what} panicked"),
    }
}

fn spawn(addr: &str) -> ServerHandle {
    server::spawn(ServerOptions {
        addr: addr.into(),
        ..Default::default()
    })
    .expect("bind the daemon")
}

/// Where a client reaches a daemon bound to `bound` (an unspecified bind
/// address is reached over loopback).
fn client_addr(bound: SocketAddr) -> SocketAddr {
    if bound.ip().is_unspecified() {
        SocketAddr::from(([127, 0, 0, 1], bound.port()))
    } else {
        bound
    }
}

/// One request/response exchange on a fresh connection.
fn exchange(addr: SocketAddr, payload: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(IO_TIMEOUT)).unwrap();
    stream.set_write_timeout(Some(IO_TIMEOUT)).unwrap();
    write_frame(&mut stream, payload).expect("send");
    read_frame(&mut stream, usize::MAX).expect("recv")
}

/// Whether `resp` is `status:"ok"` with the boolean `flag` set.
fn ok_with(resp: &str, flag: &str) -> bool {
    let doc = json::parse(resp).unwrap_or_else(|e| panic!("unparseable response {resp:?}: {e}"));
    doc.get("status").and_then(Json::as_str) == Some("ok")
        && doc.get(flag).and_then(Json::as_bool) == Some(true)
}

fn ping(addr: SocketAddr) {
    let resp = exchange(addr, "{\"op\":\"ping\"}");
    assert!(ok_with(&resp, "pong"), "ping answered {resp}");
}

fn wire_shutdown(addr: SocketAddr) {
    let ack = exchange(addr, "{\"op\":\"shutdown\"}");
    assert!(ok_with(&ack, "draining"), "shutdown answered {ack}");
}

#[test]
fn idle_daemon_shutdown_returns() {
    let handle = spawn("127.0.0.1:0");
    let m = within("shutdown() of an idle daemon", move || handle.shutdown());
    assert_eq!(m.connections, 0, "the wake connection was counted");
    assert_eq!(m.protocol_errors, 0);
}

#[test]
fn wire_shutdown_then_join_returns() {
    let handle = spawn("127.0.0.1:0");
    wire_shutdown(handle.addr());
    let m = within("join() after a wire shutdown", move || handle.join());
    assert_eq!(m.connections, 1, "only the shutdown client connected");
    assert_eq!(m.protocol_errors, 0);
}

#[test]
fn final_metrics_count_exactly_the_client_connections() {
    // Both drain paths: a wire shutdown from one daemon, `shutdown()` on
    // the other. Neither wake may show up in the ledger.
    const PINGS: u64 = 5;
    let wire = spawn("127.0.0.1:0");
    let direct = spawn("127.0.0.1:0");
    for _ in 0..PINGS {
        ping(wire.addr());
        ping(direct.addr());
    }
    wire_shutdown(wire.addr());
    let wire = within("join() after a wire shutdown", move || wire.join());
    let direct = within("shutdown()", move || direct.shutdown());
    assert_eq!(
        wire.connections,
        PINGS + 1,
        "pings plus the shutdown client"
    );
    assert_eq!(direct.connections, PINGS);
    for m in [&wire, &direct] {
        assert_eq!(m.protocol_errors, 0);
        assert_eq!(m.connections_rejected, 0);
        assert_eq!(m.requests, 0, "pings are not ledger requests");
    }
}

#[test]
fn daemon_bound_to_the_unspecified_address_drains() {
    let handle = spawn("0.0.0.0:0");
    assert!(handle.addr().ip().is_unspecified());
    ping(client_addr(handle.addr()));
    let m = within("shutdown() of a 0.0.0.0 daemon", move || handle.shutdown());
    assert_eq!(m.connections, 1);
    assert_eq!(m.protocol_errors, 0);
}

#[test]
fn sequential_fresh_connections_are_each_accepted_and_answered() {
    // Back-to-back accepts on the blocking listener: every connection is
    // served, counted once, and none is mistaken for a drain wake.
    const CONNECTIONS: u64 = 200;
    let handle = spawn("127.0.0.1:0");
    let addr = handle.addr();
    for _ in 0..CONNECTIONS {
        ping(addr);
    }
    let m = within("shutdown() after connection churn", move || {
        handle.shutdown()
    });
    assert_eq!(m.connections, CONNECTIONS);
    assert_eq!(m.protocol_errors, 0);
    assert_eq!(m.connections_rejected, 0);
}
