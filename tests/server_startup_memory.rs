//! Starting a server reserves no memory in proportion to its shed depth.
//!
//! The dispatch queue allocates per queued job, so a server configured
//! with a deep shed threshold must start in about the memory of a
//! shallow one. This file holds a single test so the process's resident
//! set is not disturbed by other tests running beside it.

#![cfg(target_os = "linux")]

use std::sync::Arc;

use phe::service::{EstimatorRegistry, Server, ServerConfig, ServiceClient, ServiceMetrics};

/// This process's resident set size in bytes, from `/proc/self/status`.
fn resident_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|value| value.parse().ok())
        .expect("VmRSS line");
    kib * 1024
}

#[test]
fn deep_shed_depth_reserves_no_queue_memory() {
    const LIMIT: u64 = 16 * 1024 * 1024;

    let metrics = Arc::new(ServiceMetrics::new());
    let registry = Arc::new(EstimatorRegistry::new(metrics.cache_counters(), 1024));
    let before = resident_bytes();
    let server = Server::start(
        registry,
        metrics,
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            shards: 1,
            shed_queue_depth: 1 << 20,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let grown = resident_bytes().saturating_sub(before);
    let mut client = ServiceClient::connect(server.local_addr()).expect("client connects");
    client.ping().expect("ping");
    drop(client);
    server.shutdown();
    assert!(
        grown < LIMIT,
        "starting the server grew the resident set by {grown} bytes (limit {LIMIT})"
    );
}
