//! Keeps `docs/WIRE_PROTOCOL.md` honest: every tag number, constant,
//! and error sub-tag the document states is re-derived here from the
//! codec's own message table, so the prose cannot silently drift from
//! the code.
//!
//! The checks are deliberately structural (the doc's tag tables must
//! hold exactly the `(tag, name)` rows the codec exports; layouts are
//! re-measured from encoded samples) rather than golden-text — the doc
//! can be reworded freely as long as the facts stay right.

use pathcopy_metrics::Stage;
use pathcopy_server::proto::{
    request_frame, response_frame, Request, Response, StageSummary, ERROR_TAGS, MAX_FRAME_LEN,
    PROTO_TRACE_FLAG, PROTO_VERSION, PUSH_ID_BASE, REQUEST_TAGS, RESPONSE_TAGS,
    SYNC_PAGE_MAX_ENTRIES,
};
use pathcopy_server::{SpanRecord, TraceContext};

fn doc() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/WIRE_PROTOCOL.md");
    std::fs::read_to_string(path).expect("docs/WIRE_PROTOCOL.md exists")
}

/// `65536` → `"65 536"`, the doc's thousands style.
fn spaced(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i) % 3 == 0 {
            out.push(' ');
        }
        out.push(c);
    }
    out
}

/// The `| tag | `Name` | ...` rows of the table under `heading` (up to
/// the next heading), as `(tag, name)` pairs.
fn table_rows(doc: &str, heading: &str) -> Vec<(u8, String)> {
    let (_, after) = doc
        .split_once(heading)
        .unwrap_or_else(|| panic!("doc must have a `{heading}` section"));
    let section = after
        .split("\n#")
        .next()
        .expect("split yields a first piece");
    section
        .lines()
        .filter_map(|line| {
            let mut cells = line.strip_prefix("| ")?.split(" | ");
            let tag = cells.next()?.trim().parse().ok()?;
            let name = cells.next()?.trim().strip_prefix('`')?.strip_suffix('`')?;
            Some((tag, name.to_string()))
        })
        .collect()
}

/// Both directions at once: every row of the doc's table is an entry of
/// the codec's tag table, and every entry has its row.
fn assert_table_is_the_codec_table(heading: &str, tags: &[(u8, &str)]) {
    let mut rows = table_rows(&doc(), heading);
    rows.sort();
    let mut want: Vec<(u8, String)> = tags.iter().map(|(t, n)| (*t, n.to_string())).collect();
    want.sort();
    assert_eq!(rows, want, "`{heading}` table vs the codec's tag table");
}

#[test]
fn constants_quoted_in_the_doc_match_the_code() {
    let doc = doc();
    assert!(
        doc.contains(&format!("`PROTO_VERSION = {PROTO_VERSION}`")),
        "doc must quote the current protocol version"
    );
    assert_eq!(MAX_FRAME_LEN, 16 << 20, "doc states the cap as 16 MiB");
    assert!(
        doc.contains("`MAX_FRAME_LEN = 16 MiB`"),
        "doc must quote the frame cap"
    );
    assert!(
        doc.contains(&format!(
            "`SYNC_PAGE_MAX_ENTRIES = {}`",
            spaced(SYNC_PAGE_MAX_ENTRIES as u64)
        )),
        "doc must quote the sync page cap"
    );
}

#[test]
fn request_tag_table_matches_the_encoder() {
    assert_table_is_the_codec_table("## Request frames", REQUEST_TAGS);
}

#[test]
fn response_tag_table_matches_the_encoder() {
    assert_table_is_the_codec_table("## Response frames", RESPONSE_TAGS);
}

#[test]
fn error_subtag_table_matches_the_encoder() {
    assert_table_is_the_codec_table("### Error frames", ERROR_TAGS);
}

#[test]
fn push_id_namespace_matches_the_doc() {
    let doc = doc();
    assert_eq!(PUSH_ID_BASE, 1u64 << 63, "doc states the reserved bit");
    assert!(
        doc.contains("`PUSH_ID_BASE = 1 << 63`"),
        "doc must quote the reserved push-id base"
    );
    assert!(
        doc.contains("`request_id = PUSH_ID_BASE | E`"),
        "doc must state how push frames are stamped"
    );
    // A push frame really carries an id in the reserved namespace.
    let push = Response::Push {
        from: 1,
        epoch: 2,
        entries: vec![],
    };
    let body = response_frame(&push, PUSH_ID_BASE | 2, None).split_off(4);
    let id = u64::from_le_bytes(body[1..9].try_into().unwrap());
    assert_ne!(id & PUSH_ID_BASE, 0, "push ids live above the top bit");
}

#[test]
fn metrics_row_kind_table_is_the_stage_table() {
    let kinds: Vec<(u8, &str)> = Stage::ALL.iter().map(|s| (*s as u8, s.as_str())).collect();
    assert_table_is_the_codec_table("### Metrics rows", &kinds);
    let doc = doc();
    for s in Stage::ALL {
        let kind = format!("{:?}", s.kind()).to_lowercase();
        let row = format!("| {} | `{}` | {kind} |", s as u8, s.as_str());
        assert!(doc.contains(&row), "the doc's row must start `{row}`");
    }
}

#[test]
fn retired_tags_are_listed_and_gone_from_the_codec() {
    let doc = doc();
    for line in [
        "Retired request tags, never reused: 6 (`Snapshot`), 8 (`Diff`), 9 (`Release`), \
         10 (`Stats`), 14 (`FullSync`), 18 (`Gauges`).",
        "Retired response tags, never reused: 6 (`SnapshotTaken`), 8 (`Diff`), \
         9 (`Released`), 10 (`Stats`), 21 (`Gauges`).",
        "Retired error sub-tags, never reused: 0 (`UnknownSnapshot`), \
         1 (`SnapshotMismatch`), 4 (`SnapshotLimit`).",
        "Retired metrics row bytes, never reused: 12 (`frozen_installs`), \
         13 (`freeze_retries`), 21 (`snapshots`).",
    ] {
        assert!(doc.contains(line), "doc must say `{line}`");
    }
    let live = |tags: &[(u8, &str)], retired: &[u8]| tags.iter().any(|(t, _)| retired.contains(t));
    assert!(!live(REQUEST_TAGS, &[6, 8, 9, 10, 14, 18]));
    assert!(!live(RESPONSE_TAGS, &[6, 8, 9, 10, 21]));
    assert!(!live(ERROR_TAGS, &[0, 1, 4]));
    for byte in [12, 13, 21] {
        assert_eq!(Stage::from_u8(byte), None);
    }
}

#[test]
fn metrics_row_layout_matches_the_doc() {
    let doc = doc();
    assert!(
        doc.contains(
            "nine `u64`s: count, sum, p50, p90, p99, p999, max, exemplar_id, exemplar_trace"
        ),
        "doc must state the StageSummary field layout"
    );
    assert!(
        doc.contains("skip"),
        "doc must tell scrapers to skip unknown stage bytes"
    );
    // One row really costs 2 tag bytes + nine u64s after the envelope
    // and the vector's length prefix.
    let mut body = Vec::new();
    Response::Metrics(vec![StageSummary::default()]).encode(&mut body);
    assert_eq!(body.len(), 1 + 8 + 1 + 4 + (2 + 9 * 8), "one 74-byte row");
}

#[test]
fn traced_envelope_matches_the_doc() {
    let doc = doc();
    assert!(
        doc.contains("`PROTO_TRACE_FLAG = 0x80`"),
        "doc must quote the trace flag"
    );
    assert_eq!(PROTO_TRACE_FLAG, 0x80);
    assert!(
        doc.contains("[version: u8 = 3|0x80] [request_id: u64 LE] [trace: 17 bytes]"),
        "doc must show the traced body layout"
    );
    assert_eq!(TraceContext::WIRE_BYTES, 17, "doc states 17 trace bytes");
    // A traced body really is the plain v3 body with 17 bytes spliced
    // in after the request id, flag set on the version byte.
    let ctx = TraceContext::sampled(7);
    let req = Request::Publish;
    let body = |trace| {
        request_frame(&req, 5, trace)
            .expect("fits a frame")
            .split_off(4)
    };
    let (traced, plain) = (body(Some(&ctx)), body(None));
    assert_eq!(plain[0], PROTO_VERSION);
    assert_eq!(traced[0], PROTO_VERSION | PROTO_TRACE_FLAG);
    assert_eq!(traced.len(), plain.len() + 17);
    assert_eq!(traced[1..9], plain[1..9], "same request id");
    assert_eq!(traced[9 + 17..], plain[9..], "same tag + payload");
    let framed = Request::decode_enveloped(&traced).expect("traced frame decodes");
    assert_eq!(framed.trace, Some(ctx));
}

#[test]
fn trace_dump_row_layout_matches_the_doc() {
    let doc = doc();
    assert!(
        doc.contains("each span is seven `u64`s"),
        "doc must state the SpanRecord word count"
    );
    // One span costs the node-name vec (4 bytes, empty), the span
    // count, and seven u64s.
    let mut body = Vec::new();
    Response::TraceDump {
        node: String::new(),
        spans: vec![SpanRecord::default()],
    }
    .encode(&mut body);
    assert_eq!(body.len(), 1 + 8 + 1 + 4 + 4 + 7 * 8, "one 56-byte span");
}

#[test]
fn log_record_section_matches_the_durable_envelope() {
    let doc = doc();
    // The envelope the doc describes: [body_len u32][crc32 u32][body].
    assert!(doc.contains("[body_len: u32 LE] [crc32: u32 LE]"));
    assert!(doc.contains("0xEDB88320"), "doc names the CRC polynomial");
}
