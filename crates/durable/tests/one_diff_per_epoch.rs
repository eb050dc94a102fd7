//! A durable primary computes each epoch's diff once and ships it
//! twice: the diff record its log appends and the `Push` frame its
//! subscribers receive must carry the same entries, epoch for epoch.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use pathcopy_core::DiffEntry;
use pathcopy_durable::{EpochLog, FeedPersister, LogConfig};
use pathcopy_server::backend::TreapServe;
use pathcopy_server::proto::{Epoch, Response};
use pathcopy_server::{FeedSink, ServerConfig, Session};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pathcopy-onediff-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every diff record in the log directory, by epoch. A record is a
/// little-endian `u32` body length, a `u32` checksum, then the body:
/// an encoded `Response` (see `docs/WIRE_PROTOCOL.md`).
fn logged_diffs(dir: &Path) -> BTreeMap<Epoch, Vec<DiffEntry<i64, i64>>> {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    segments.sort();
    let mut out = BTreeMap::new();
    for seg in segments {
        let buf = std::fs::read(&seg).unwrap();
        let mut pos = 0;
        while pos < buf.len() {
            let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
            let body = &buf[pos + 8..pos + 8 + len];
            if let Response::EpochDiff { to, entries } = Response::decode(body).unwrap() {
                out.insert(to, entries);
            }
            pos += 8 + len;
        }
    }
    out
}

#[test]
fn every_logged_diff_is_the_pushed_diff() {
    let dir = scratch("push");
    let config = LogConfig {
        fsync: false,
        ..LogConfig::default()
    };
    let (log, _) = EpochLog::open(&dir, config).unwrap();
    let log = Arc::new(log);
    let persister = FeedPersister::new(Arc::clone(&log));
    let server = pathcopy_server::spawn(
        Box::new(TreapServe::default()),
        ServerConfig {
            feed_sink: Some(Arc::clone(&persister) as Arc<dyn FeedSink>),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let writer = Session::connect(server.addr()).unwrap();
    for k in 0..64i64 {
        writer.insert(k, k).unwrap();
    }
    let first = writer.publish().unwrap();
    let subscriber = Session::connect(server.addr()).unwrap();
    let (_, subscription) = subscriber.subscribe(first).unwrap();

    let mut pushed = BTreeMap::new();
    for round in 0..60i64 {
        for i in 0..1 + round % 4 {
            writer.insert((round * 13 + i) % 96, round).unwrap();
        }
        if round % 3 == 0 {
            writer.remove((round * 7) % 96).unwrap();
        }
        let epoch = writer.publish().unwrap();
        let frame = subscription
            .recv_timeout(Duration::from_secs(10))
            .unwrap()
            .expect("every publish pushes a frame");
        assert_eq!((frame.from, frame.epoch), (epoch - 1, epoch));
        pushed.insert(epoch, frame.entries);
    }
    assert_eq!(persister.error_count(), 0);

    let logged = logged_diffs(&dir);
    let mut compared = 0;
    for (epoch, entries) in &pushed {
        // A checkpoint epoch has no diff record; the rest must agree.
        if let Some(logged) = logged.get(epoch) {
            assert_eq!(logged, entries, "epoch {epoch}: log and push disagree");
            compared += 1;
        }
    }
    assert!(
        compared >= 30,
        "only {compared} of 60 epochs were logged as diffs"
    );
    drop((subscription, subscriber, writer));
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
