//! Regression for the `FrameTooLarge` bootstrap failure: a replica
//! bootstrapping a map whose full state exceeds one wire frame must
//! succeed, because the server clamps every `Range` reply to a bounded
//! page and the replica pages the pinned epoch until it is complete.
//!
//! In release the map is genuinely **larger than one frame** (entries
//! encode past `MAX_FRAME_LEN`), so a scan asking for everything at once
//! would be refused if the server did not clamp it. The debug profile
//! uses a smaller map (the page machinery is identical) to keep
//! `cargo test` quick.

use pathcopy_concurrent::TreapMap;
use pathcopy_replica::PushReplica;
use pathcopy_server::backend::TreapServe;
use pathcopy_server::proto::SYNC_PAGE_MAX_ENTRIES;
use pathcopy_server::{backend, ServerConfig, Session};

#[cfg(debug_assertions)]
const MAP_SIZE: i64 = 200_000;
#[cfg(not(debug_assertions))]
const MAP_SIZE: i64 = 1_100_000; // 16 bytes/entry => ~16.8 MB > MAX_FRAME_LEN

#[cfg(not(debug_assertions))]
const _: () = assert!(MAP_SIZE as u64 * 16 > pathcopy_server::MAX_FRAME_LEN as u64);

#[test]
fn bootstrap_of_a_map_larger_than_one_frame_never_trips_the_cap() {
    // Engine-side prefill (the wire would make the test about prefill).
    let map: TreapMap<i64, i64> = (0..MAP_SIZE).map(|k| (k, k)).collect();
    let server = pathcopy_server::spawn(
        Box::new(TreapServe::new(map)),
        ServerConfig::with_workers(2),
    )
    .expect("bind ephemeral loopback port");
    let c = Session::connect(server.addr()).unwrap();

    // Raw page check: asking for an absurd page size, or for the
    // server's own (`0`), comes back clamped to the server's bound —
    // a page, never a refusal.
    for limit in [u32::MAX, 0] {
        let (page, complete) = c.range(None, .., limit).unwrap();
        assert!(!complete, "limit {limit}: the map is more than one page");
        assert_eq!(page.len(), SYNC_PAGE_MAX_ENTRIES as usize, "limit {limit}");
    }

    // The replica bootstraps the whole thing through bounded segments.
    let replica =
        PushReplica::connect(server.addr(), backend::by_name("sharded_map_8").unwrap()).unwrap();
    let stats = replica.push_stats();
    assert_eq!(stats.full_syncs, 1, "bootstrap must be a full sync");
    assert_eq!(stats.full_entries, MAP_SIZE as u64);
    assert_eq!(replica.store().len(), MAP_SIZE as usize);
    assert_eq!(replica.store().get(MAP_SIZE - 1), Some(MAP_SIZE - 1));

    // And it took more than one page to get there.
    let pages_needed = (MAP_SIZE as u64).div_ceil(SYNC_PAGE_MAX_ENTRIES as u64);
    assert!(pages_needed > 1, "test must exercise chunking");
    assert!(
        stats.full_bytes >= MAP_SIZE as u64 * 16,
        "full sync moved the whole map ({} bytes)",
        stats.full_bytes
    );
    drop(c);
    server.shutdown();
}
