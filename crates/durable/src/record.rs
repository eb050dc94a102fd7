//! The on-disk record envelope and the segment scanner.
//!
//! Every record in a segment file is
//!
//! ```text
//! [ body_len: u32 LE ][ crc32(body): u32 LE ][ body: body_len bytes ]
//! ```
//!
//! where `body` is a proto-v3 frame body with request id `0` (version
//! byte, id, tag byte, payload) produced by [`Response::encode`] — the
//! log stores exactly
//! the messages the replication protocol already knows how to build and
//! parse, so there is no second serialization format to maintain:
//!
//! * [`Response::EpochDiff`] — one published epoch's pruned diff
//!   against its predecessor (a **diff record**);
//! * [`Response::SyncPage`] — one bounded page of a full snapshot; a
//!   run of pages for the same epoch ending in `done = true` is a
//!   **checkpoint**.
//!
//! A *unit* is the recovery atom: a single diff record, or a complete
//! checkpoint run. The scanner only believes whole units — a checkpoint
//! missing its `done` page is as torn as half a record, because
//! replaying it would materialize a state no epoch ever had.

use pathcopy_core::DiffEntry;
use pathcopy_server::proto::{Epoch, Response, MAX_FRAME_LEN};

/// Bytes of the `[len][crc]` record header.
pub(crate) const RECORD_HEADER_LEN: usize = 8;

const fn make_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = make_crc_table();

/// CRC-32 (IEEE 802.3 polynomial), the checksum guarding each record
/// body. Hand-rolled because the workspace builds offline.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Frames `body` as one record: header plus body.
pub(crate) fn encode_record(body: &[u8]) -> Vec<u8> {
    debug_assert!(body.len() as u64 <= MAX_FRAME_LEN as u64);
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// What one recovered unit carries.
pub(crate) enum UnitKind {
    /// One epoch's pruned diff against its predecessor.
    Diff(Vec<DiffEntry<i64, i64>>),
    /// A complete checkpoint: the epoch's full entry set, ascending.
    Checkpoint(Vec<(i64, i64)>),
}

/// One recovery atom decoded from a segment.
pub(crate) struct Unit {
    pub(crate) epoch: Epoch,
    pub(crate) kind: UnitKind,
}

/// How a segment's byte stream ended.
pub(crate) enum Tail {
    /// Every byte belongs to a complete unit.
    Clean,
    /// Trailing bytes past the last complete unit do not form one; the
    /// `&'static str` says why (partial header, checksum mismatch,
    /// checkpoint missing its final page, …). Legal only at the tail of
    /// the *last* segment, where it is truncated away.
    Torn(&'static str),
    /// A record whose checksum matches but whose body does not decode.
    /// A crash cannot produce one — the bytes are exactly what some
    /// writer meant to store (an older or newer build, most likely) —
    /// so it is never truncated away, wherever it sits.
    Undecodable(String),
}

impl Tail {
    /// What is wrong with the stream's end, if anything.
    pub(crate) fn damage(self) -> Option<String> {
        match self {
            Tail::Clean => None,
            Tail::Torn(why) => Some(why.to_string()),
            Tail::Undecodable(detail) => Some(detail),
        }
    }
}

/// A scanned segment: its complete units, the byte length they cover,
/// and how the stream ended.
pub(crate) struct Scan {
    pub(crate) units: Vec<Unit>,
    /// Offset just past the last complete unit; bytes beyond this are
    /// the torn tail (if any).
    pub(crate) clean_len: u64,
    pub(crate) tail: Tail,
}

/// Decodes a whole segment buffer into units. With `keep_payloads =
/// false` the entries are dropped as they are decoded (metadata-only
/// scan for `open`), so a scan never holds more than one record's
/// payload at a time.
pub(crate) fn scan_segment(buf: &[u8], keep_payloads: bool) -> Scan {
    let mut units = Vec::new();
    let mut pos = 0usize;
    let mut clean = 0usize;
    // An in-progress checkpoint: `(epoch, entries so far)`.
    let mut open: Option<(Epoch, Vec<(i64, i64)>)> = None;
    let torn = |units: Vec<Unit>, clean: usize, why: &'static str| Scan {
        units,
        clean_len: clean as u64,
        tail: Tail::Torn(why),
    };
    loop {
        if pos == buf.len() {
            return if open.is_some() {
                torn(units, clean, "checkpoint missing its final page")
            } else {
                Scan {
                    units,
                    clean_len: clean as u64,
                    tail: Tail::Clean,
                }
            };
        }
        if buf.len() - pos < RECORD_HEADER_LEN {
            return torn(units, clean, "partial record header");
        }
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap());
        if len as u64 > MAX_FRAME_LEN as u64 {
            return torn(units, clean, "record length exceeds the frame cap");
        }
        if buf.len() - pos - RECORD_HEADER_LEN < len {
            return torn(units, clean, "partial record body");
        }
        let body = &buf[pos + RECORD_HEADER_LEN..pos + RECORD_HEADER_LEN + len];
        let Some(&version) = body.first() else {
            // No writer stores an empty body, and its checksum is zero:
            // this is what a zero-filled tail looks like after a crash.
            return torn(units, clean, "empty record");
        };
        if crc32(body) != crc {
            return torn(units, clean, "record checksum mismatch");
        }
        let resp = match Response::decode(body) {
            Ok(r) => r,
            Err(_) => {
                return Scan {
                    units,
                    clean_len: clean as u64,
                    tail: Tail::Undecodable(format!(
                        "checksum-valid record with undecodable body (version byte {version})"
                    )),
                };
            }
        };
        pos += RECORD_HEADER_LEN + len;
        match resp {
            Response::EpochDiff { to, mut entries } => {
                if open.is_some() {
                    return torn(units, clean, "diff record inside an open checkpoint");
                }
                if to == 0 {
                    return torn(units, clean, "diff record for epoch zero");
                }
                if !keep_payloads {
                    entries.clear();
                }
                units.push(Unit {
                    epoch: to,
                    kind: UnitKind::Diff(entries),
                });
                clean = pos;
            }
            Response::SyncPage {
                epoch,
                mut entries,
                done,
            } => {
                if epoch == 0 {
                    return torn(units, clean, "checkpoint page for epoch zero");
                }
                if !keep_payloads {
                    entries.clear();
                }
                match &mut open {
                    None => open = Some((epoch, entries)),
                    Some((e, acc)) => {
                        if *e != epoch {
                            return torn(units, clean, "checkpoint page epoch mismatch");
                        }
                        acc.extend(entries);
                    }
                }
                if done {
                    let (epoch, entries) = open.take().expect("just populated");
                    units.push(Unit {
                        epoch,
                        kind: UnitKind::Checkpoint(entries),
                    });
                    clean = pos;
                }
            }
            _ => return torn(units, clean, "unexpected record variant"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    fn diff_record(epoch: Epoch) -> Vec<u8> {
        let mut body = Vec::new();
        Response::EpochDiff {
            to: epoch,
            entries: vec![DiffEntry::Added(epoch as i64, 1)],
        }
        .encode(&mut body);
        encode_record(&body)
    }

    #[test]
    fn scanner_accepts_whole_units_and_truncates_torn_tails() {
        let mut buf = diff_record(1);
        buf.extend(diff_record(2));
        let clean = buf.len() as u64;
        // A torn third record: header promises more bytes than exist.
        buf.extend(diff_record(3)[..10].iter());
        let scan = scan_segment(&buf, true);
        assert_eq!(scan.units.len(), 2);
        assert_eq!(scan.clean_len, clean);
        assert!(matches!(scan.tail, Tail::Torn(_)));
        // Scanning only the clean prefix is clean.
        let scan = scan_segment(&buf[..clean as usize], true);
        assert!(matches!(scan.tail, Tail::Clean));
        assert_eq!(scan.units[1].epoch, 2);
    }

    #[test]
    fn corrupted_byte_fails_the_checksum() {
        let mut buf = diff_record(1);
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        let scan = scan_segment(&buf, true);
        assert!(scan.units.is_empty());
        assert_eq!(scan.clean_len, 0);
        assert!(matches!(scan.tail, Tail::Torn("record checksum mismatch")));
    }

    #[test]
    fn checksum_valid_garbage_is_undecodable_not_torn() {
        let mut buf = diff_record(1);
        let clean = buf.len() as u64;
        // A well-formed record in the retired id-less v2 envelope.
        buf.extend(encode_record(&[2, 15, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]));
        let scan = scan_segment(&buf, true);
        assert_eq!(scan.units.len(), 1);
        assert_eq!(scan.clean_len, clean);
        assert!(matches!(scan.tail, Tail::Undecodable(why) if why.contains("version byte 2")));

        // A zero-filled tail parses as an empty record whose checksum
        // (zero) matches: still a crash artefact, still just torn.
        let mut buf = diff_record(1);
        buf.extend([0u8; 16]);
        let scan = scan_segment(&buf, true);
        assert_eq!(scan.clean_len, clean);
        assert!(matches!(scan.tail, Tail::Torn("empty record")));
    }

    #[test]
    fn unfinished_checkpoint_is_torn() {
        let mut body = Vec::new();
        Response::SyncPage {
            epoch: 5,
            entries: vec![(1, 10)],
            done: false,
        }
        .encode(&mut body);
        let buf = encode_record(&body);
        let scan = scan_segment(&buf, true);
        assert!(scan.units.is_empty());
        assert_eq!(scan.clean_len, 0, "open checkpoint contributes nothing");
        assert!(matches!(
            scan.tail,
            Tail::Torn("checkpoint missing its final page")
        ));
    }
}
