//! Crash-recovery oracle tests: random op sequences are published
//! through the real feed-sink path, the process "crashes" by copying
//! the log directory and truncating its newest segment at an arbitrary
//! byte offset (record boundaries *and* mid-record torn writes), and
//! recovery must rebuild exactly the `BTreeMap` oracle's state — at the
//! recovered head and at every retained epoch via point-in-time
//! restore.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use pathcopy_concurrent::TreapMap;
use pathcopy_core::DiffEntry;
use pathcopy_durable::{EpochLog, FeedPersister, LogConfig, LogError};
use pathcopy_server::backend::{ServeBackend, TreapServe};
use pathcopy_server::{FeedSink, VersionFeed};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique, empty scratch directory per call (tests share a process).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pathcopy-durable-{name}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// The newest segment file (the only place a torn tail can legally be).
fn newest_segment(dir: &Path) -> Option<PathBuf> {
    let mut segs: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().is_some_and(|x| x == "seg")).then_some(p)
        })
        .collect();
    segs.sort();
    segs.pop()
}

fn assert_matches_oracle(map: &TreapMap<i64, i64>, oracle: &BTreeMap<i64, i64>, what: &str) {
    assert_eq!(map.len(), oracle.len(), "{what}: len diverged");
    for k in 0..48i64 {
        assert_eq!(map.get(&k), oracle.get(&k).copied(), "{what}: key {k}");
    }
}

/// A primary whose publishes go through the real `FeedSink` path.
struct LoggedPrimary {
    backend: TreapServe,
    feed: VersionFeed,
    log: Arc<EpochLog>,
    persister: Arc<FeedPersister>,
}

fn logged_primary(dir: &Path, config: LogConfig, feed_capacity: usize) -> LoggedPrimary {
    let (log, _) = EpochLog::open(dir, config).unwrap();
    let log = Arc::new(log);
    let persister = FeedPersister::new(Arc::clone(&log));
    let feed = VersionFeed::configured(
        feed_capacity,
        log.head() + 1,
        Some(Arc::clone(&persister) as Arc<dyn FeedSink>),
    );
    LoggedPrimary {
        backend: TreapServe::default(),
        feed,
        log,
        persister,
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64),
    Remove(i64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // A small key space so removes and overwrites actually hit, and so
    // checkpoints stay small enough that a run crosses several chains.
    prop_oneof![
        (0i64..16, -1000i64..1000).prop_map(|(k, v)| Op::Insert(k, v)),
        (0i64..16).prop_map(Op::Remove),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn recovery_matches_oracle_at_every_retained_epoch(
        rounds in prop::collection::vec(prop::collection::vec(arb_op(), 1..8), 1..40),
        cut_permille in 0u64..=1000,
    ) {
        check_recovery(&rounds, cut_permille);
    }
}

/// One fixed case of the oracle test, long enough that the log's byte
/// cadence cuts several checkpoints, so recovery crosses chains.
#[test]
fn recovery_matches_oracle_across_several_checkpoint_chains() {
    let rounds: Vec<Vec<Op>> = (0..40i64)
        .map(|r| {
            (0..1 + r % 5)
                .map(|i| match (r + i) % 3 {
                    2 => Op::Remove((r * 7 + i) % 16),
                    _ => Op::Insert((r * 5 + i) % 16, r * 10 + i),
                })
                .collect()
        })
        .collect();
    let checkpoints = check_recovery(&rounds, 617);
    assert!(
        checkpoints >= 2,
        "{checkpoints} checkpoint(s) in 40 epochs: the run never crossed a chain"
    );
}

/// Publishes one epoch per round through the feed sink, crashes by
/// shearing the newest segment at `cut_permille` of its length, and
/// checks recovery against the oracle at the head and at every retained
/// epoch. Returns how many checkpoints the log cut before the crash.
fn check_recovery(rounds: &[Vec<Op>], cut_permille: u64) -> usize {
    let dir = scratch("oracle");
    let config = LogConfig {
        segment_bytes: 384,       // several rotations per run
        max_total_bytes: 1 << 20, // no retirement: every epoch stays restorable
        fsync: false,
    };
    let primary = logged_primary(&dir, config.clone(), usize::MAX);

    // Publish one epoch per round, remembering the oracle's state at
    // each; `states[e]` is the primary's content at epoch `e`.
    let mut oracle = BTreeMap::new();
    let mut states = vec![oracle.clone()];
    let mut checkpoints = 0;
    for round in rounds {
        for op in round {
            match *op {
                Op::Insert(k, v) => {
                    primary.backend.insert(k, v);
                    oracle.insert(k, v);
                }
                Op::Remove(k) => {
                    primary.backend.remove(k);
                    oracle.remove(&k);
                }
            }
        }
        let epoch = primary.feed.publish(primary.backend.snapshot());
        checkpoints += usize::from(primary.log.last_checkpoint() == epoch);
        states.push(oracle.clone());
    }
    assert_eq!(primary.persister.error_count(), 0);
    assert_eq!(primary.log.head(), rounds.len() as u64);
    drop(primary); // "clean" process exit

    // The crash: copy the log, then shear the newest segment at an
    // arbitrary byte offset — 1000‰ is a clean shutdown, anything
    // else lands on a record boundary or tears a record in half.
    let crashed = scratch("oracle-crashed");
    copy_dir(&dir, &crashed);
    if let Some(seg) = newest_segment(&crashed) {
        let len = std::fs::metadata(&seg).unwrap().len();
        let cut = len * cut_permille / 1000;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(cut)
            .unwrap();
    }

    let (log, recovered) = EpochLog::open(&crashed, config).unwrap();
    assert!(recovered.head <= rounds.len() as u64);
    let (map, head) = log.replay().unwrap();
    assert_eq!(head, recovered.head);
    assert_matches_oracle(&map, &states[head as usize], "replayed head");

    // Point-in-time restore of *every* retained epoch.
    match log.retained() {
        None => assert_eq!(head, 0, "empty log only when nothing survived"),
        Some((oldest, retained_head)) => {
            assert_eq!(retained_head, head);
            assert_eq!(oldest, 1, "no retirement in this config");
            for epoch in oldest..=retained_head {
                let restored = log.restore_epoch(epoch).unwrap();
                assert_matches_oracle(
                    &restored,
                    &states[epoch as usize],
                    &format!("restore_epoch({epoch})"),
                );
            }
            assert!(matches!(
                log.restore_epoch(retained_head + 1),
                Err(LogError::UnknownEpoch { .. })
            ));
        }
    }

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&crashed).unwrap();
    checkpoints
}

#[test]
fn torn_tail_garbage_is_truncated_and_appends_resume() {
    let dir = scratch("torn");
    let config = LogConfig {
        fsync: false,
        ..LogConfig::default()
    };
    {
        let primary = logged_primary(&dir, config.clone(), 8);
        for k in 1..=3i64 {
            primary.backend.insert(k, k * 10);
            primary.feed.publish(primary.backend.snapshot());
        }
        assert_eq!(primary.log.head(), 3);
    }
    // A crash mid-append: a plausible header promising a body that never
    // made it to disk.
    let seg = newest_segment(&dir).unwrap();
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&200u32.to_le_bytes()).unwrap();
        f.write_all(&0xDEAD_BEEFu32.to_le_bytes()).unwrap();
        f.write_all(&[0xAB; 17]).unwrap();
    }

    let (log, recovered) = EpochLog::open(&dir, config).unwrap();
    assert_eq!(recovered.head, 3, "complete epochs survive the tear");
    assert_eq!(recovered.truncated_bytes, 25, "the torn record is gone");
    let (map, head) = log.replay().unwrap();
    assert_eq!(head, 3);
    assert_eq!(map.get(&3), Some(30));

    // The truncated tail is a clean unit boundary: appends continue.
    log.append_diff(4, &[DiffEntry::Added(4, 40)]).unwrap();
    assert_eq!(log.head(), 4);
    assert_eq!(log.restore_epoch(4).unwrap().get(&4), Some(40));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checksum-valid record no crash could have written: an `EpochDiff`
/// in the retired id-less v2 envelope (`[2][tag][to][count = 0]`), as a
/// pre-v3 build logged it.
fn retired_v2_record(epoch: u64) -> Vec<u8> {
    let mut body = vec![2u8, 15];
    body.extend_from_slice(&epoch.to_le_bytes());
    body.extend_from_slice(&0u32.to_le_bytes());
    let mut record = (body.len() as u32).to_le_bytes().to_vec();
    record.extend_from_slice(&pathcopy_durable::record::crc32(&body).to_le_bytes());
    record.extend_from_slice(&body);
    record
}

#[test]
fn checksum_valid_undecodable_record_is_corrupt_never_truncated() {
    let config = LogConfig {
        fsync: false,
        ..LogConfig::default()
    };
    let refused = |dir: &Path, seg: &Path| {
        let len_before = std::fs::metadata(seg).unwrap().len();
        match EpochLog::open(dir, config.clone()) {
            Err(LogError::Corrupt { segment, detail }) => {
                assert_eq!(segment, seg);
                assert!(detail.contains("version byte 2"), "{detail}");
            }
            Err(other) => panic!("expected Corrupt, got {other}"),
            Ok(_) => panic!("a pre-v3 record must not be recovered over"),
        }
        assert_eq!(
            std::fs::metadata(seg).unwrap().len(),
            len_before,
            "the refused log is left byte-for-byte untouched"
        );
    };

    // As the last record of the newest segment, where a torn tail would
    // have been truncated away.
    let dir = scratch("undecodable-last");
    {
        let primary = logged_primary(&dir, config.clone(), 8);
        primary.backend.insert(1, 10);
        primary.feed.publish(primary.backend.snapshot());
    }
    let seg = newest_segment(&dir).unwrap();
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&retired_v2_record(2)).unwrap();
    }
    refused(&dir, &seg);
    std::fs::remove_dir_all(&dir).unwrap();

    // As the only record of the only segment: a whole pre-v3 log.
    let dir = scratch("undecodable-only");
    std::fs::create_dir_all(&dir).unwrap();
    let seg = dir.join(format!("{:020}.seg", 1));
    std::fs::write(&seg, retired_v2_record(1)).unwrap();
    refused(&dir, &seg);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn segments_rotate_and_old_chains_retire_under_the_byte_cap() {
    const EPOCHS: u64 = 120;
    let dir = scratch("retire");
    let config = LogConfig {
        segment_bytes: 256,
        max_total_bytes: 2048,
        fsync: false,
    };
    let primary = logged_primary(&dir, config, 8);
    let mut oracle = BTreeMap::new();
    let mut states = vec![oracle.clone()];
    let mut checkpoints = 0;
    // A 12-key map keeps each checkpoint small, so the byte cadence
    // cuts a new chain every few epochs and retirement has whole
    // chains to drop.
    for e in 1..=EPOCHS {
        primary.backend.insert(e as i64 % 12, e as i64);
        oracle.insert(e as i64 % 12, e as i64);
        primary.feed.publish(primary.backend.snapshot());
        checkpoints += usize::from(primary.log.last_checkpoint() == e);
        states.push(oracle.clone());
    }
    assert_eq!(primary.persister.error_count(), 0);
    assert!(
        checkpoints >= 2,
        "{checkpoints} checkpoint(s): one chain only"
    );

    let log = &primary.log;
    assert!(log.segment_count() >= 2, "small segments must rotate");
    let written = log.io_stats().bytes_written;
    assert!(
        log.total_bytes() < written,
        "retirement must have dropped bytes ({} on disk of {written} written)",
        log.total_bytes()
    );
    let (oldest, head) = log.retained().unwrap();
    assert_eq!(head, EPOCHS);
    assert!(oldest > 1, "the oldest chain was retired");

    // Every retained epoch restores to the oracle; a retired one errors.
    for epoch in oldest..=head {
        let restored = log.restore_epoch(epoch).unwrap();
        assert_matches_oracle(
            &restored,
            &states[epoch as usize],
            &format!("retained epoch {epoch}"),
        );
    }
    assert!(matches!(
        log.restore_epoch(oldest - 1),
        Err(LogError::UnknownEpoch { .. })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Appends one single-entry diff as epoch `head + 1`.
fn append_one_diff(log: &EpochLog) {
    let epoch = log.head() + 1;
    log.append_diff(epoch, &[DiffEntry::Added(epoch as i64, 1)])
        .unwrap();
}

#[test]
fn a_reopened_log_keeps_its_checkpoint_cadence() {
    let config = LogConfig {
        fsync: false,
        ..LogConfig::default()
    };
    let backend = TreapServe::default();
    for k in 0..64i64 {
        backend.insert(k, k);
    }
    // The reference: one log that is never closed. Count the diffs it
    // takes after a checkpoint before the next one falls due.
    let reference = scratch("cadence-ref");
    let (log, _) = EpochLog::open(&reference, config.clone()).unwrap();
    assert!(log.checkpoint_due(), "an empty log needs a checkpoint");
    log.append_checkpoint(1, backend.snapshot().as_ref())
        .unwrap();
    let mut chain = 0;
    while !log.checkpoint_due() {
        append_one_diff(&log);
        chain += 1;
    }
    assert!(
        chain >= 4,
        "a 64-entry checkpoint outweighs {chain} tiny diffs"
    );
    drop(log);

    // The same history, closed and reopened halfway through the chain:
    // not due at once, and due after exactly as many diffs.
    let dir = scratch("cadence");
    let (log, _) = EpochLog::open(&dir, config.clone()).unwrap();
    log.append_checkpoint(1, backend.snapshot().as_ref())
        .unwrap();
    for _ in 0..chain / 2 {
        append_one_diff(&log);
    }
    drop(log);
    let (log, recovered) = EpochLog::open(&dir, config.clone()).unwrap();
    assert_eq!(recovered.head, 1 + chain / 2);
    assert!(
        !log.checkpoint_due(),
        "reopening mid-chain must not cut a checkpoint at once"
    );
    for _ in chain / 2..chain {
        assert!(!log.checkpoint_due());
        append_one_diff(&log);
    }
    assert!(log.checkpoint_due(), "the reopened log must still fall due");
    drop(log);
    // Reopening once it is due keeps it due.
    let (log, _) = EpochLog::open(&dir, config).unwrap();
    assert!(log.checkpoint_due());
    drop(log);
    std::fs::remove_dir_all(&reference).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_bytes_stay_within_diff_bytes_plus_one_checkpoint() {
    let dir = scratch("ckpt-bytes");
    let config = LogConfig {
        fsync: false,
        ..LogConfig::default()
    };
    let primary = logged_primary(&dir, config, 8);
    for k in 0..256i64 {
        primary.backend.insert(k, k);
    }
    let (mut checkpoint_bytes, mut diff_bytes, mut newest_checkpoint) = (0u64, 0u64, 0u64);
    let mut checkpoints = 0;
    for i in 0..400i64 {
        primary.backend.insert((i * 37) % 512, i);
        if i % 3 == 0 {
            primary.backend.remove((i * 11) % 512);
        }
        let before = primary.log.io_stats().bytes_written;
        let epoch = primary.feed.publish(primary.backend.snapshot());
        let bytes = primary.log.io_stats().bytes_written - before;
        if primary.log.last_checkpoint() == epoch {
            checkpoints += 1;
            checkpoint_bytes += bytes;
            newest_checkpoint = bytes;
        } else {
            diff_bytes += bytes;
        }
    }
    assert_eq!(primary.persister.error_count(), 0);
    assert!(
        checkpoints >= 2,
        "{checkpoints} checkpoint(s) in 400 epochs"
    );
    assert!(
        checkpoint_bytes <= diff_bytes + newest_checkpoint,
        "checkpoints wrote {checkpoint_bytes} B against {diff_bytes} B of diffs \
         (+{newest_checkpoint} B for the newest checkpoint)"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovered_primary_continues_the_epoch_sequence() {
    let dir = scratch("continue");
    let config = LogConfig {
        fsync: false,
        ..LogConfig::default()
    };
    {
        let primary = logged_primary(&dir, config.clone(), 8);
        for k in 1..=3i64 {
            primary.backend.insert(k, k);
            primary.feed.publish(primary.backend.snapshot());
        }
    }

    // Restart: replay the state, continue the feed at head + 1.
    let (log, recovered) = EpochLog::open(&dir, config.clone()).unwrap();
    assert_eq!(recovered.head, 3);
    let (map, head) = log.replay().unwrap();
    let backend = TreapServe::new(map);
    let log = Arc::new(log);
    let persister = FeedPersister::new(Arc::clone(&log));
    let feed = VersionFeed::configured(
        8,
        head + 1,
        Some(Arc::clone(&persister) as Arc<dyn FeedSink>),
    );
    backend.insert(9, 9);
    assert_eq!(feed.publish(backend.snapshot()), 4, "no epoch reuse");
    assert_eq!(persister.error_count(), 0);
    assert_eq!(log.head(), 4);
    assert_eq!(
        log.last_checkpoint(),
        4,
        "first post-recovery publish has no prev snapshot, so it re-bases"
    );
    // History from before the crash is still restorable.
    let old = log.restore_epoch(2).unwrap();
    assert_eq!((old.get(&2), old.get(&9)), (Some(2), None));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn io_counters_track_appends_fsyncs_and_recovery_reads() {
    let dir = scratch("iostats");
    let (log, _) = EpochLog::open(&dir, LogConfig::default()).unwrap();
    let backend = TreapServe::default();
    backend.insert(1, 1);
    log.append_checkpoint(1, backend.snapshot().as_ref())
        .unwrap();
    log.append_diff(2, &[DiffEntry::Added(2, 2)]).unwrap();
    let io = log.io_stats();
    assert_eq!(io.appends, 2, "one checkpoint page + one diff record");
    assert!(io.fsyncs >= 2, "durable config syncs every epoch");
    assert!(io.bytes_written > 0);
    assert_eq!(io.bytes_read, 0, "no replay yet");
    log.replay().unwrap();
    let after = log.io_stats().since(&io);
    assert!(after.bytes_read > 0, "replay reads the segments back");
    assert_eq!(after.appends, 0);
    drop(log);
    std::fs::remove_dir_all(&dir).unwrap();
}
