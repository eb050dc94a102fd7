//! Log-seeded replica bootstrap: a replica loads its store from the
//! primary's durable epoch log with **zero** full-sync bytes — asserted
//! via the client's exact `ByteCounters` accounting — and then
//! converges through the normal pushed diffs.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use pathcopy_durable::{EpochLog, FeedPersister, LogConfig};
use pathcopy_replica::{PushOutcome, PushReplica};
use pathcopy_server::backend::{self, ShardedServe};
use pathcopy_server::{FeedSink, ServerConfig, ServerHandle, Session};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pathcopy-logseed-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A primary whose published epochs are persisted to `dir`.
fn logged_server(dir: &std::path::Path) -> (ServerHandle, Arc<EpochLog>) {
    let (log, _) = EpochLog::open(
        dir,
        LogConfig {
            fsync: false,
            ..LogConfig::default()
        },
    )
    .unwrap();
    let log = Arc::new(log);
    let persister = FeedPersister::new(Arc::clone(&log));
    let server = pathcopy_server::spawn(
        Box::new(ShardedServe::with_shards(8)),
        ServerConfig {
            feed_sink: Some(persister as Arc<dyn FeedSink>),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    (server, log)
}

#[test]
fn log_seed_moves_zero_full_sync_bytes_then_converges_via_pushes() {
    let dir = scratch("zero-bytes");
    let (server, log) = logged_server(&dir);
    let writer = Session::connect(server.addr()).unwrap();
    for k in 0..200i64 {
        writer.insert(k, k * 3).unwrap();
    }
    let seeded_epoch = writer.publish().unwrap();
    assert_eq!(log.head(), seeded_epoch, "publish persisted before reply");

    // Bootstrap from the log: the head is still in the primary's feed
    // ring, so joining costs one empty `PullDiff` and the subscribe.
    let mut replica = PushReplica::connect_seeded(
        server.addr(),
        backend::by_name("sharded_map_8").unwrap(),
        &log,
    )
    .unwrap();
    assert_eq!(replica.applied_epoch(), seeded_epoch);
    let stats = replica.push_stats();
    assert_eq!((stats.log_seeds, stats.log_seed_entries), (1, 200));
    assert_eq!(
        (stats.full_syncs, stats.full_bytes),
        (0, 0),
        "log seeding must move zero full-sync bytes"
    );
    assert_eq!((stats.diff_pulls, stats.diff_entries), (1, 0));
    let wire = replica.primary_wire_bytes().total();
    assert!(
        wire < 200 * 16,
        "the seeded map crossed the wire: {wire} bytes"
    );
    assert_eq!(replica.store().get(7), Some(21), "seeded state is live");

    // Converge: new writes arrive as one pushed diff, never a full sync.
    writer.insert(1000, 1).unwrap();
    writer.remove(0).unwrap();
    let epoch = writer.publish().unwrap();
    assert_eq!(
        replica.pump(Duration::from_secs(10)).unwrap(),
        PushOutcome::Pushed { epoch, changes: 2 }
    );
    let stats = replica.push_stats();
    assert_eq!(
        (stats.full_syncs, stats.full_bytes),
        (0, 0),
        "no full sync, ever"
    );
    assert_eq!(replica.store().get(1000), Some(1));
    assert_eq!(replica.store().get(0), None);
    assert_eq!(replica.store().len(), 200, "-1 removed, +1 added");

    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn seeding_a_dirty_store_is_refused_and_an_empty_log_bootstraps_over_the_wire() {
    let dir = scratch("refused");
    let (server, log) = logged_server(&dir);
    let writer = Session::connect(server.addr()).unwrap();
    writer.insert(1, 1).unwrap();
    writer.publish().unwrap();

    // The store has local writes: seeding would mix them in.
    let dirty_store = backend::by_name("sharded_map_8").unwrap();
    dirty_store.insert(9, 9);
    let err = PushReplica::connect_seeded(server.addr(), dirty_store, &log)
        .err()
        .expect("a dirty store is refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);

    // An empty log seeds nothing: the replica bootstraps over the wire.
    let empty_dir = scratch("empty-log");
    let (empty_log, _) = EpochLog::open(&empty_dir, LogConfig::default()).unwrap();
    let fresh = PushReplica::connect_seeded(
        server.addr(),
        backend::by_name("sharded_map_8").unwrap(),
        &empty_log,
    )
    .unwrap();
    let stats = fresh.push_stats();
    assert_eq!((stats.log_seeds, stats.full_syncs), (0, 1));
    assert_eq!(fresh.store().get(1), Some(1));

    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&empty_dir).unwrap();
}
