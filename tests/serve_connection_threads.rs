//! A finished connection must not keep its thread's resources.
//!
//! The daemon runs one thread per connection, and every thread owns a
//! mapped stack. If the accept loop keeps each finished connection's
//! unjoined `JoinHandle` until shutdown, each of those stacks stays
//! mapped, and the daemon's map count grows with every connection it has
//! ever served.
//!
//! Linux only: the count is read from `/proc/self/maps`. The test has a
//! binary of its own so that no other test's threads move the count.
#![cfg(target_os = "linux")]

use std::net::SocketAddr;

use rtlb::serve::{client, serve, Client, ServeConfig};

/// Sequential one-request connections served between the two counts.
const CONNECTIONS: usize = 500;

/// Maps the count may grow by: allocator arenas and the last threads
/// still winding down, not anything that scales with [`CONNECTIONS`].
const SLACK: usize = 64;

fn map_count() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("procfs is readable")
        .lines()
        .count()
}

/// Opens a connection, asks for `stats` once and hangs up.
fn one_request(addr: SocketAddr) {
    let mut client = Client::connect(addr).expect("client connects");
    let response = client.stats().expect("stats answers");
    assert!(client::is_ok(&response), "{response:?}");
}

#[test]
fn finished_connections_release_their_threads() {
    let server = serve(ServeConfig::default()).expect("daemon binds");
    // The first connections create the allocator arenas later ones reuse.
    for _ in 0..4 {
        one_request(server.addr());
    }
    let before = map_count();
    for _ in 0..CONNECTIONS {
        one_request(server.addr());
    }
    let after = map_count();
    server.shutdown();
    eprintln!("map count: {before} -> {after} over {CONNECTIONS} connections");
    assert!(
        after <= before + SLACK,
        "{CONNECTIONS} finished connections grew the map count from {before} to {after} \
         (allowed: {SLACK})"
    );
}
