//! The segmented epoch log: append, rotate, retire, recover, restore.
//!
//! A log is a directory of segment files named by the first epoch they
//! contain (`00000000000000000042.seg`). Appends go to the newest
//! segment; a segment that outgrows [`LogConfig::segment_bytes`] is
//! closed and a new one started; a **checkpoint** always starts a fresh
//! segment. The log keeps its own cadence: a checkpoint falls due once
//! the diff bytes appended since the newest one reach that checkpoint's
//! size ([`EpochLog::checkpoint_due`]), so replaying the head reads at
//! most about two checkpoints' bytes and checkpoints stay about half of
//! what is written. Retirement works on *chains* — a
//! checkpoint-opening segment plus the diff segments that follow it —
//! dropping whole chains oldest first while the log exceeds
//! [`LogConfig::max_total_bytes`], and never dropping the newest chain,
//! so the log always retains at least one complete restore path.
//!
//! Recovery ([`EpochLog::open`]) scans every segment, truncates a torn
//! tail in the newest segment (a crash mid-append), and rejects
//! corruption anywhere else. See [`crate::record`] for the record
//! envelope and what counts as a torn tail.

use std::fs::{self, File, OpenOptions};
use std::io;
use std::ops::Bound;
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

use pathcopy_concurrent::{diff_to_ops, BatchOp, ShardedTreapMap};
use pathcopy_core::{DiffEntry, IoCounters, IoCountersSnapshot};
use pathcopy_server::backend::{ServeBackend, ServeSnapshot};
use pathcopy_server::proto::{Epoch, Response, MAX_FRAME_LEN, SYNC_PAGE_MAX_ENTRIES};

use crate::record::{encode_record, scan_segment, Scan, Tail, Unit, UnitKind};

/// Tunables for [`EpochLog::open`].
///
/// The checkpoint cadence is not one of them: the log cuts a checkpoint
/// once the diff bytes since its newest one reach that checkpoint's
/// size ([`EpochLog::checkpoint_due`]), which bounds both replay work
/// and the share of the log that checkpoints take, at any map size.
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Rotate to a new segment once the current one reaches this many
    /// bytes. A single checkpoint larger than this still lives in one
    /// (oversized) segment — units never span segments.
    pub segment_bytes: u64,
    /// Retire the oldest checkpoint chains while the log's total size
    /// exceeds this. The newest chain is never retired, so the log can
    /// transiently exceed the cap by one chain.
    pub max_total_bytes: u64,
    /// `fsync` after every appended epoch (and on segment create /
    /// retire). Turning this off trades crash durability of the last
    /// few epochs for append latency; the record checksums still keep
    /// recovery safe.
    pub fsync: bool,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            segment_bytes: 4 << 20,
            max_total_bytes: 64 << 20,
            fsync: true,
        }
    }
}

/// Why a log operation failed.
#[derive(Debug)]
pub enum LogError {
    /// The underlying filesystem operation failed.
    Io(io::Error),
    /// A segment other than the newest has an invalid tail, the
    /// segment sequence is structurally impossible (a diff with no
    /// preceding checkpoint, an epoch that does not chain), or a record
    /// anywhere has a matching checksum but a body this build cannot
    /// decode (a log from an older or newer build). Torn tails in the
    /// *newest* segment are not errors — [`EpochLog::open`] truncates
    /// them.
    Corrupt {
        /// The offending segment file.
        segment: PathBuf,
        /// What the scanner objected to.
        detail: String,
    },
    /// [`EpochLog::append_diff`] was called before any checkpoint: a
    /// diff-only log has no base state to replay from.
    NoCheckpoint,
    /// The epoch does not extend the log: diffs must be exactly
    /// `head + 1`, checkpoints strictly greater than `head`.
    OutOfSequence {
        /// The epoch that was offered.
        epoch: Epoch,
        /// The log's current head.
        head: Epoch,
    },
    /// The requested epoch is not restorable: outside the retained
    /// range, or unreachable across a gap left by a failed append.
    UnknownEpoch {
        /// The epoch that was requested.
        epoch: Epoch,
        /// The retained `(oldest, head)` range, if the log is non-empty.
        retained: Option<(Epoch, Epoch)>,
    },
    /// A single diff record would exceed the proto frame cap
    /// ([`MAX_FRAME_LEN`]); cut a checkpoint instead (the persister
    /// does this automatically).
    RecordTooLarge(u64),
    /// A failed append could not be rolled back, so the tail of the
    /// newest segment is no longer trustworthy; the log refuses further
    /// appends. Reopen to recover (the torn tail is truncated).
    Poisoned,
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "log io error: {e}"),
            LogError::Corrupt { segment, detail } => {
                write!(f, "corrupt segment {}: {detail}", segment.display())
            }
            LogError::NoCheckpoint => {
                write!(f, "diff append on a log with no checkpoint to replay from")
            }
            LogError::OutOfSequence { epoch, head } => {
                write!(f, "epoch {epoch} does not extend log head {head}")
            }
            LogError::UnknownEpoch { epoch, retained } => match retained {
                Some((oldest, head)) => write!(
                    f,
                    "epoch {epoch} is not restorable (retained range {oldest}..={head})"
                ),
                None => write!(f, "epoch {epoch} is not restorable (the log is empty)"),
            },
            LogError::RecordTooLarge(n) => write!(
                f,
                "diff record of {n} bytes exceeds the {MAX_FRAME_LEN}-byte frame cap"
            ),
            LogError::Poisoned => write!(
                f,
                "log poisoned by an unrecoverable append failure; reopen to recover"
            ),
        }
    }
}

impl std::error::Error for LogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LogError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for LogError {
    fn from(e: io::Error) -> Self {
        LogError::Io(e)
    }
}

/// What [`EpochLog::open`] found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// The last durable epoch (`0` = the log is empty).
    pub head: Epoch,
    /// The newest complete checkpoint's epoch (`0` = none).
    pub last_checkpoint: Epoch,
    /// Segment files retained after recovery.
    pub segments: usize,
    /// Bytes of torn tail truncated from the newest segment (a crash
    /// mid-append; `0` on a clean shutdown).
    pub truncated_bytes: u64,
    /// Leading diff-only segments deleted because their checkpoint was
    /// already retired (a crash mid-retirement; normally `0`).
    pub orphaned_segments: usize,
}

struct SegmentMeta {
    path: PathBuf,
    bytes: u64,
    /// `Some(e)` if the segment opens with a complete checkpoint for
    /// epoch `e` — the start of a retirement chain.
    checkpoint: Option<Epoch>,
}

struct LogState {
    /// Ascending by first epoch; the last entry is the write target.
    segments: Vec<SegmentMeta>,
    /// Append handle for the newest segment.
    writer: Option<File>,
    head: Epoch,
    last_checkpoint: Epoch,
    /// Bytes of the newest checkpoint's records.
    checkpoint_bytes: u64,
    /// Bytes of the diff records appended since the newest checkpoint.
    diff_bytes: u64,
    poisoned: bool,
}

/// A segmented, checksummed, crash-recoverable log of published epochs;
/// see the [module docs](self).
///
/// All methods take `&self`; appends and restores serialize on an
/// internal lock. Restores read segment files back under that lock, so
/// a point-in-time restore briefly blocks appends — acceptable for a
/// recovery/analytics path, and it guarantees the restore sees a
/// consistent prefix.
///
/// # Examples
///
/// ```
/// use pathcopy_core::DiffEntry;
/// use pathcopy_durable::{EpochLog, LogConfig};
/// use pathcopy_server::backend::{ServeBackend, TreapServe};
///
/// let dir = std::env::temp_dir().join(format!("pc-durable-doc-log-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// let (log, recovered) = EpochLog::open(&dir, LogConfig::default()).unwrap();
/// assert_eq!(recovered.head, 0, "fresh log");
///
/// // Epoch 1: a checkpoint of the full state; epoch 2: a pruned diff.
/// let map = TreapServe::default();
/// map.insert(1, 10);
/// log.append_checkpoint(1, map.snapshot().as_ref()).unwrap();
/// map.insert(2, 20);
/// log.append_diff(2, &[DiffEntry::Added(2, 20)]).unwrap();
/// assert_eq!(log.retained(), Some((1, 2)));
///
/// // Replay the head; restore epoch 1 as it was.
/// let (state, head) = log.replay().unwrap();
/// assert_eq!((head, state.get(&2)), (2, Some(20)));
/// let old = log.restore_epoch(1).unwrap();
/// assert_eq!((old.get(&1), old.get(&2)), (Some(10), None));
/// # drop(log);
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
pub struct EpochLog {
    dir: PathBuf,
    config: LogConfig,
    io: IoCounters,
    state: Mutex<LogState>,
}

fn segment_path(dir: &Path, first_epoch: Epoch) -> PathBuf {
    dir.join(format!("{first_epoch:020}.seg"))
}

fn segment_epoch(path: &Path) -> Option<Epoch> {
    let stem = path.file_name()?.to_str()?.strip_suffix(".seg")?;
    if stem.len() != 20 || !stem.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    stem.parse().ok()
}

impl EpochLog {
    /// Opens (creating the directory if needed) and recovers the log.
    ///
    /// Recovery scans every segment in epoch order, validating record
    /// checksums and the epoch chain. A torn tail in the *newest*
    /// segment — a crash mid-append — is truncated away and reported in
    /// [`RecoveryInfo::truncated_bytes`]; damage anywhere else is
    /// [`LogError::Corrupt`], and so is a checksum-valid record whose
    /// body does not decode, even at the tail — no crash writes one, so
    /// the file is left untouched.
    ///
    /// # Errors
    ///
    /// [`LogError::Io`] on filesystem failure, [`LogError::Corrupt`] on
    /// mid-log damage (an invalid record that is not the newest
    /// segment's tail, or an epoch sequence that does not chain).
    pub fn open(
        dir: impl AsRef<Path>,
        config: LogConfig,
    ) -> Result<(Self, RecoveryInfo), LogError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let io = IoCounters::new();

        let mut paths: Vec<(Epoch, PathBuf)> = fs::read_dir(&dir)?
            .filter_map(|entry| {
                let path = entry.ok()?.path();
                segment_epoch(&path).map(|e| (e, path))
            })
            .collect();
        paths.sort_by_key(|(e, _)| *e);

        // A crash mid-retirement removes a chain's checkpoint segment
        // before its diff followers: leading diff-only segments are
        // orphans with no base state, deleted here.
        let mut orphaned = 0usize;
        let mut segments = Vec::new();
        let mut truncated = 0u64;
        let mut head = 0u64;
        let mut last_checkpoint = 0u64;
        let (mut checkpoint_bytes, mut diff_bytes) = (0u64, 0u64);
        let mut seen_checkpoint = false;
        let last_index = paths.len().saturating_sub(1);
        for (i, (_, path)) in paths.iter().enumerate() {
            let buf = fs::read(path)?;
            io.add_read(buf.len() as u64);
            let Scan {
                units,
                clean_len,
                tail,
            } = scan_segment(&buf, false);
            if matches!(tail, Tail::Torn(_)) && i == last_index {
                truncated = buf.len() as u64 - clean_len;
                let f = OpenOptions::new().write(true).open(path)?;
                f.set_len(clean_len)?;
                f.sync_all()?;
                io.record_fsync();
            } else if let Some(detail) = tail.damage() {
                return Err(LogError::Corrupt {
                    segment: path.clone(),
                    detail,
                });
            }
            let mut checkpoint = None;
            for (j, unit) in units.iter().enumerate() {
                match unit.kind {
                    UnitKind::Checkpoint(_) => {
                        if unit.epoch <= head {
                            return Err(LogError::Corrupt {
                                segment: path.clone(),
                                detail: format!(
                                    "checkpoint epoch {} does not advance head {head}",
                                    unit.epoch
                                ),
                            });
                        }
                        if j == 0 {
                            checkpoint = Some(unit.epoch);
                        }
                        seen_checkpoint = true;
                        last_checkpoint = unit.epoch;
                        (checkpoint_bytes, diff_bytes) = (unit.bytes, 0);
                    }
                    UnitKind::Diff(_) => {
                        if !seen_checkpoint {
                            // An orphaned chain remnant: only legal while
                            // no checkpoint has been seen at all, i.e. in
                            // leading segments (handled below).
                            if segments.is_empty() && checkpoint.is_none() {
                                continue;
                            }
                            return Err(LogError::Corrupt {
                                segment: path.clone(),
                                detail: format!(
                                    "diff record for epoch {} precedes any checkpoint",
                                    unit.epoch
                                ),
                            });
                        }
                        if unit.epoch != head + 1 {
                            return Err(LogError::Corrupt {
                                segment: path.clone(),
                                detail: format!(
                                    "diff record for epoch {} does not chain from head {head}",
                                    unit.epoch
                                ),
                            });
                        }
                        diff_bytes += unit.bytes;
                    }
                }
                head = unit.epoch;
            }
            if !seen_checkpoint {
                // Orphaned leading segment (or an entirely empty log tail
                // before the first checkpoint): delete and move on.
                fs::remove_file(path)?;
                orphaned += 1;
                continue;
            }
            segments.push(SegmentMeta {
                path: path.clone(),
                bytes: clean_len,
                checkpoint,
            });
        }

        let writer = match segments.last() {
            Some(meta) => Some(OpenOptions::new().append(true).open(&meta.path)?),
            None => None,
        };
        let info = RecoveryInfo {
            head,
            last_checkpoint,
            segments: segments.len(),
            truncated_bytes: truncated,
            orphaned_segments: orphaned,
        };
        Ok((
            EpochLog {
                dir,
                config,
                io,
                state: Mutex::new(LogState {
                    segments,
                    writer,
                    head,
                    last_checkpoint,
                    checkpoint_bytes,
                    diff_bytes,
                    poisoned: false,
                }),
            },
            info,
        ))
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The last durable epoch (`0` = empty log).
    pub fn head(&self) -> Epoch {
        self.state.lock().head
    }

    /// The newest complete checkpoint's epoch (`0` = none).
    pub fn last_checkpoint(&self) -> Epoch {
        self.state.lock().last_checkpoint
    }

    /// Whether the next epoch should be a checkpoint rather than a
    /// diff: the log has none yet, or the diff bytes appended since the
    /// newest one have reached that checkpoint's own size.
    ///
    /// Cutting at that point keeps a replay chain under about two
    /// checkpoints' bytes, and checkpoints under about half the bytes
    /// written: every checkpoint but the newest is paid for by at
    /// least as many diff bytes. [`open`](Self::open) rebuilds the count
    /// from the segments, so a reopened log keeps its cadence.
    pub fn checkpoint_due(&self) -> bool {
        let state = self.state.lock();
        state.last_checkpoint == 0 || state.diff_bytes >= state.checkpoint_bytes
    }

    /// The restorable `(oldest, head)` epoch range, or `None` while the
    /// log is empty. Epochs below `oldest` have been retired with their
    /// chains.
    pub fn retained(&self) -> Option<(Epoch, Epoch)> {
        let state = self.state.lock();
        retained_locked(&state)
    }

    /// Number of segment files currently on disk.
    pub fn segment_count(&self) -> usize {
        self.state.lock().segments.len()
    }

    /// Total bytes across all segment files.
    pub fn total_bytes(&self) -> u64 {
        self.state.lock().segments.iter().map(|s| s.bytes).sum()
    }

    /// A copy of the log's IO counters (appends, fsyncs, bytes moved).
    pub fn io_stats(&self) -> IoCountersSnapshot {
        self.io.snapshot()
    }

    /// Appends epoch `epoch`'s pruned diff against epoch `epoch - 1`.
    ///
    /// # Errors
    ///
    /// [`LogError::NoCheckpoint`] before the first checkpoint,
    /// [`LogError::OutOfSequence`] unless `epoch` is exactly
    /// `head + 1`, [`LogError::RecordTooLarge`] if the encoded diff
    /// exceeds the frame cap (cut a checkpoint instead),
    /// [`LogError::Poisoned`] after an unrecoverable append failure,
    /// and [`LogError::Io`] on filesystem failure. A failed append is
    /// rolled back — the log's head does not move.
    pub fn append_diff(
        &self,
        epoch: Epoch,
        entries: &[DiffEntry<i64, i64>],
    ) -> Result<(), LogError> {
        let mut state = self.state.lock();
        if state.poisoned {
            return Err(LogError::Poisoned);
        }
        if state.last_checkpoint == 0 {
            return Err(LogError::NoCheckpoint);
        }
        if epoch != state.head + 1 {
            return Err(LogError::OutOfSequence {
                epoch,
                head: state.head,
            });
        }
        let mut body = Vec::new();
        Response::EpochDiff {
            to: epoch,
            entries: entries.to_vec(),
        }
        .encode(&mut body);
        if body.len() as u64 > MAX_FRAME_LEN as u64 {
            return Err(LogError::RecordTooLarge(body.len() as u64));
        }
        let full = state
            .segments
            .last()
            .is_some_and(|s| s.bytes >= self.config.segment_bytes);
        if full {
            self.rotate_to_locked(&mut state, epoch)?;
        }
        state.diff_bytes += self.write_record_locked(&mut state, &body)?;
        state.head = epoch;
        if self.config.fsync {
            self.sync_data_locked(&mut state)?;
        }
        Ok(())
    }

    /// Appends a checkpoint: epoch `epoch`'s *complete* state, read
    /// from `snap` in bounded pages (the same [`SYNC_PAGE_MAX_ENTRIES`]
    /// paging a `Range` reply obeys on the wire). A checkpoint always starts
    /// a fresh segment, and completing one triggers retirement of the
    /// oldest chains beyond [`LogConfig::max_total_bytes`].
    ///
    /// Unlike a diff, a checkpoint may skip epochs (`epoch` only has to
    /// exceed `head`) — it re-bases the log, which is how the persister
    /// self-heals after a failed append.
    ///
    /// # Errors
    ///
    /// [`LogError::OutOfSequence`] unless `epoch > head`,
    /// [`LogError::Poisoned`] after an unrecoverable append failure,
    /// and [`LogError::Io`] on filesystem failure. A checkpoint that
    /// fails mid-write is rolled back by deleting its fresh segment.
    pub fn append_checkpoint(
        &self,
        epoch: Epoch,
        snap: &dyn ServeSnapshot,
    ) -> Result<(), LogError> {
        let mut state = self.state.lock();
        if state.poisoned {
            return Err(LogError::Poisoned);
        }
        if epoch <= state.head {
            return Err(LogError::OutOfSequence {
                epoch,
                head: state.head,
            });
        }
        self.rotate_to_locked(&mut state, epoch)?;
        let bytes = match self.write_checkpoint_pages_locked(&mut state, epoch, snap) {
            Ok(bytes) => bytes,
            Err(e) => {
                self.abort_newest_segment_locked(&mut state);
                return Err(e);
            }
        };
        state
            .segments
            .last_mut()
            .expect("rotate_to_locked pushed a segment")
            .checkpoint = Some(epoch);
        state.head = epoch;
        state.last_checkpoint = epoch;
        (state.checkpoint_bytes, state.diff_bytes) = (bytes, 0);
        if self.config.fsync {
            self.sync_data_locked(&mut state)?;
        }
        self.retire_locked(&mut state)
    }

    /// Flushes the newest segment to the medium (useful with
    /// [`LogConfig::fsync`] off).
    ///
    /// # Errors
    ///
    /// [`LogError::Io`] if the sync fails.
    pub fn sync(&self) -> Result<(), LogError> {
        let mut state = self.state.lock();
        self.sync_data_locked(&mut state)
    }

    /// Rebuilds the head state into a fresh map: recovery in one call.
    /// Returns the map and the head epoch (`0` and an empty map for an
    /// empty log).
    ///
    /// # Errors
    ///
    /// [`LogError::Io`] / [`LogError::Corrupt`] if the segments cannot
    /// be read back, [`LogError::UnknownEpoch`] if the head is
    /// unreachable (should not happen on a log that just opened).
    pub fn replay(&self) -> Result<(ShardedTreapMap<i64, i64>, Epoch), LogError> {
        let map = ShardedTreapMap::with_shards(8);
        let state = self.state.lock();
        if state.head == 0 {
            return Ok((map, 0));
        }
        let head = state.head;
        self.replay_to_locked(&state, head, &mut |unit| {
            map.transact(&unit_ops(unit));
        })?;
        Ok((map, head))
    }

    /// Replays the head state into an existing (empty) backend — the
    /// replica bootstrap path. Each checkpoint page and each diff is one
    /// atomic [`transact`](ServeBackend::transact), so once the
    /// checkpoint is in, a reader of `store` never observes a state
    /// between epochs. Returns the head epoch reached (`0` for an empty
    /// log).
    ///
    /// # Errors
    ///
    /// [`LogError::Io`] / [`LogError::Corrupt`] if the segments cannot
    /// be read back, [`LogError::UnknownEpoch`] if the head is
    /// unreachable.
    pub fn replay_into(&self, store: &dyn ServeBackend) -> Result<Epoch, LogError> {
        let state = self.state.lock();
        if state.head == 0 {
            return Ok(0);
        }
        let head = state.head;
        self.replay_to_locked(&state, head, &mut |unit| {
            store.transact(&unit_ops(unit));
        })?;
        Ok(head)
    }

    /// Point-in-time restore: rebuilds the map exactly as it was at
    /// `epoch`, for any epoch still in [`retained`](Self::retained).
    ///
    /// # Errors
    ///
    /// [`LogError::UnknownEpoch`] if `epoch` is outside the retained
    /// range (retired, never published, or lost to a re-basing
    /// checkpoint), [`LogError::Io`] / [`LogError::Corrupt`] if the
    /// segments cannot be read back.
    ///
    /// # Examples
    ///
    /// ```
    /// use pathcopy_durable::{EpochLog, LogConfig, LogError};
    /// use pathcopy_server::backend::{ServeBackend, TreapServe};
    ///
    /// let dir = std::env::temp_dir().join(format!("pc-durable-doc-pitr-{}", std::process::id()));
    /// # let _ = std::fs::remove_dir_all(&dir);
    /// let (log, _) = EpochLog::open(&dir, LogConfig::default()).unwrap();
    /// let map = TreapServe::default();
    /// for epoch in 1..=5 {
    ///     map.insert(epoch as i64, epoch as i64 * 10);
    ///     log.append_checkpoint(epoch, map.snapshot().as_ref()).unwrap();
    /// }
    /// let at3 = log.restore_epoch(3).unwrap();
    /// assert_eq!(at3.len(), 3);
    /// assert_eq!(at3.get(&3), Some(30));
    /// assert!(matches!(
    ///     log.restore_epoch(9),
    ///     Err(LogError::UnknownEpoch { epoch: 9, retained: Some((1, 5)) })
    /// ));
    /// # drop(log);
    /// # std::fs::remove_dir_all(&dir).unwrap();
    /// ```
    pub fn restore_epoch(&self, epoch: Epoch) -> Result<ShardedTreapMap<i64, i64>, LogError> {
        let map = ShardedTreapMap::with_shards(8);
        let state = self.state.lock();
        self.replay_to_locked(&state, epoch, &mut |unit| {
            map.transact(&unit_ops(unit));
        })?;
        Ok(map)
    }

    // -- internals ---------------------------------------------------------

    /// Streams the units needed to build `target`'s state — the newest
    /// checkpoint at or before `target`, then every diff up to `target`
    /// — into `apply`.
    fn replay_to_locked(
        &self,
        state: &LogState,
        target: Epoch,
        apply: &mut dyn FnMut(Unit),
    ) -> Result<(), LogError> {
        let unknown = || LogError::UnknownEpoch {
            epoch: target,
            retained: retained_locked(state),
        };
        if target == 0 || target > state.head {
            return Err(unknown());
        }
        // The chain to replay starts at the newest checkpoint <= target;
        // checkpoints always open a segment, so segment metadata is
        // enough to find it.
        let start = state
            .segments
            .iter()
            .rposition(|s| s.checkpoint.is_some_and(|c| c <= target))
            .ok_or_else(unknown)?;
        let mut reached = 0u64;
        'segments: for meta in &state.segments[start..] {
            let buf = fs::read(&meta.path)?;
            self.io.add_read(buf.len() as u64);
            let scan = scan_segment(&buf, true);
            if let Some(detail) = scan.tail.damage() {
                return Err(LogError::Corrupt {
                    segment: meta.path.clone(),
                    detail,
                });
            }
            for unit in scan.units {
                if unit.epoch > target {
                    break 'segments;
                }
                reached = unit.epoch;
                apply(unit);
            }
        }
        if reached == target {
            Ok(())
        } else {
            // A re-basing checkpoint skipped past `target` (an epoch
            // lost to a failed append): the state at `target` is gone.
            Err(unknown())
        }
    }

    /// Starts a fresh segment named after `first_epoch` and makes it
    /// the write target.
    fn rotate_to_locked(&self, state: &mut LogState, first_epoch: Epoch) -> Result<(), LogError> {
        let path = segment_path(&self.dir, first_epoch);
        let file = OpenOptions::new().append(true).create(true).open(&path)?;
        state.segments.push(SegmentMeta {
            path,
            bytes: 0,
            checkpoint: None,
        });
        state.writer = Some(file);
        self.sync_dir()?;
        Ok(())
    }

    /// Appends one framed record to the newest segment, rolling the
    /// file length back if the write fails partway. Returns the bytes
    /// written.
    fn write_record_locked(&self, state: &mut LogState, body: &[u8]) -> Result<u64, LogError> {
        use std::io::Write as _;
        let rec = encode_record(body);
        let seg = state.segments.last_mut().expect("append targets a segment");
        let file = state.writer.as_mut().expect("writer for newest segment");
        match file.write_all(&rec) {
            Ok(()) => {
                seg.bytes += rec.len() as u64;
                self.io.record_append();
                self.io.add_written(rec.len() as u64);
                Ok(rec.len() as u64)
            }
            Err(e) => {
                // A short write left a torn tail; cut it off so the next
                // append (O_APPEND) lands on a clean unit boundary.
                if file.set_len(seg.bytes).is_err() {
                    state.poisoned = true;
                }
                Err(e.into())
            }
        }
    }

    /// Writes a complete checkpoint (a run of `SyncPage` records, last
    /// one `done`) into the current — freshly rotated — segment.
    /// Returns the bytes written.
    fn write_checkpoint_pages_locked(
        &self,
        state: &mut LogState,
        epoch: Epoch,
        snap: &dyn ServeSnapshot,
    ) -> Result<u64, LogError> {
        let mut after: Option<i64> = None;
        let mut bytes = 0;
        loop {
            let lo = after.map_or(Bound::Unbounded, Bound::Excluded);
            let (entries, complete) =
                snap.range(lo, Bound::Unbounded, SYNC_PAGE_MAX_ENTRIES as usize);
            let next_after = entries.last().map(|&(k, _)| k);
            let mut body = Vec::new();
            Response::SyncPage {
                epoch,
                entries,
                done: complete,
            }
            .encode(&mut body);
            bytes += self.write_record_locked(state, &body)?;
            if complete {
                return Ok(bytes);
            }
            if next_after.is_none() || next_after == after {
                return Err(LogError::Io(io::Error::other(
                    "snapshot range paging made no progress",
                )));
            }
            after = next_after;
        }
    }

    /// Rolls back a failed checkpoint by deleting its fresh segment and
    /// restoring the previous segment as the write target.
    fn abort_newest_segment_locked(&self, state: &mut LogState) {
        let Some(meta) = state.segments.pop() else {
            return;
        };
        state.writer = None;
        if fs::remove_file(&meta.path).is_err() {
            // The doomed segment stays on disk; it cannot be trusted and
            // cannot be removed, so refuse further appends.
            state.poisoned = true;
            return;
        }
        if let Some(prev) = state.segments.last() {
            match OpenOptions::new().append(true).open(&prev.path) {
                Ok(f) => state.writer = Some(f),
                Err(_) => state.poisoned = true,
            }
        }
    }

    /// Drops whole chains oldest-first while the log exceeds its byte
    /// cap, always keeping the newest chain.
    fn retire_locked(&self, state: &mut LogState) -> Result<(), LogError> {
        loop {
            let total: u64 = state.segments.iter().map(|s| s.bytes).sum();
            if total <= self.config.max_total_bytes {
                return Ok(());
            }
            // The oldest chain spans [0, cut), where `cut` is the next
            // chain's first segment. No second chain: nothing to drop.
            let Some(cut) = state
                .segments
                .iter()
                .skip(1)
                .position(|s| s.checkpoint.is_some())
                .map(|p| p + 1)
            else {
                return Ok(());
            };
            for _ in 0..cut {
                // Remove the file before forgetting it, so an IO error
                // leaves metadata and disk consistent. A crash between
                // removals leaves orphan diff segments, which `open`
                // detects and deletes.
                fs::remove_file(&state.segments[0].path)?;
                state.segments.remove(0);
            }
            self.sync_dir()?;
        }
    }

    fn sync_data_locked(&self, state: &mut LogState) -> Result<(), LogError> {
        if let Some(file) = state.writer.as_mut() {
            file.sync_data()?;
            self.io.record_fsync();
        }
        Ok(())
    }

    /// Makes segment creation/removal durable by syncing the directory.
    fn sync_dir(&self) -> Result<(), LogError> {
        if !self.config.fsync {
            return Ok(());
        }
        File::open(&self.dir)?.sync_all()?;
        self.io.record_fsync();
        Ok(())
    }
}

fn retained_locked(state: &LogState) -> Option<(Epoch, Epoch)> {
    if state.head == 0 {
        return None;
    }
    let oldest = state.segments.iter().find_map(|s| s.checkpoint)?;
    Some((oldest, state.head))
}

/// A unit as one batch: a checkpoint page's entries as inserts, a diff
/// as [`diff_to_ops`] replays it. Both are key-sorted runs, so applied
/// with one `transact` each is one descent per page or diff (per shard
/// of a sharded map) instead of one path copy and one CAS per entry.
fn unit_ops(unit: Unit) -> Vec<BatchOp<i64, i64>> {
    match unit.kind {
        UnitKind::Checkpoint(entries) => entries
            .into_iter()
            .map(|(k, v)| BatchOp::Insert(k, v))
            .collect(),
        UnitKind::Diff(entries) => diff_to_ops(&entries),
    }
}
