//! A spill-to-disk build must not need one open file per shard. The test
//! lowers this process's soft `RLIMIT_NOFILE` to 256 and runs a budgeted
//! build that writes far more shards than that; the build must succeed
//! and equal the in-memory count. It is a test binary of its own because
//! the limit applies to the whole process.

// `RLIMIT_NOFILE`'s number and the `struct rlimit` layout differ between
// platforms, so the test runs only where both are known.
#![cfg(any(
    all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ),
    target_os = "macos",
    target_os = "freebsd"
))]

use phe_graph::{GraphBuilder, LabelId, VertexId};
use phe_pathenum::SparseCatalog;

/// `struct rlimit`: `rlim_t` is a 64-bit integer on every platform the
/// test runs on.
#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

// Prototypes for the C library symbols `std` already links.
extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

#[cfg(target_os = "linux")]
const RLIMIT_NOFILE: i32 = 7;
#[cfg(any(target_os = "macos", target_os = "freebsd"))]
const RLIMIT_NOFILE: i32 = 8;

const SOFT_LIMIT: u64 = 256;

/// Lowers the soft open-file limit of this process to `SOFT_LIMIT` (or
/// the hard limit, if that is lower) and returns the new soft limit.
fn lower_open_file_limit() -> u64 {
    let mut limit = RLimit { cur: 0, max: 0 };
    // SAFETY: `limit` is a live, writable `struct rlimit`; the call only
    // fills it in and reports failure through its return value.
    let got = unsafe { getrlimit(RLIMIT_NOFILE, &mut limit) };
    assert_eq!(got, 0, "getrlimit: {}", std::io::Error::last_os_error());
    limit.cur = SOFT_LIMIT.min(limit.max);
    // SAFETY: `limit` is a valid `struct rlimit` the call only reads; a
    // soft limit at or below the hard one needs no privilege.
    let set = unsafe { setrlimit(RLIMIT_NOFILE, &limit) };
    assert_eq!(set, 0, "setrlimit: {}", std::io::Error::last_os_error());
    limit.cur
}

#[test]
fn spilling_past_the_open_file_limit_still_builds() {
    // 200 labels over 4,000 vertices: with two workers the build runs
    // 1,600 `(label, source range)` tasks, and a 32 B budget spills
    // every task's entries to a shard of its own.
    let (vertices, labels) = (4_000u32, 200u16);
    let mut builder = GraphBuilder::with_numeric_labels(vertices, labels);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = |bound: u64| {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (x >> 33) % bound
    };
    for _ in 0..vertices * 6 {
        let source = VertexId(next(vertices as u64) as u32);
        let label = LabelId(next(labels as u64) as u16);
        let target = VertexId(next(vertices as u64) as u32);
        builder.add_edge(source, label, target);
    }
    let graph = builder.build();
    let expected = SparseCatalog::compute(&graph, 2).unwrap();

    assert!(lower_open_file_limit() <= SOFT_LIMIT);
    let (spilled, stats) = SparseCatalog::compute_parallel_spilling(&graph, 2, 2, Some(32))
        .unwrap_or_else(|e| panic!("budgeted build failed: {e}"));
    assert!(
        stats.shards as u64 > SOFT_LIMIT,
        "only {} shards: the build stayed under the limit",
        stats.shards
    );
    assert_eq!(spilled, expected, "spilled build ≡ single-threaded build");
}
