//! Property tests for the wire protocol: encode→decode is the identity
//! for arbitrary messages, the envelope carries its correlation id both
//! ways, and corrupted frames (truncation, bad tags, bad versions — the
//! retired v2 included — trailing bytes) are rejected, never
//! mis-parsed. Golden vectors pin the byte layout itself.

use std::ops::Bound;

use proptest::prelude::*;

use pathcopy_concurrent::{BatchOp, BatchResult};
use pathcopy_core::DiffEntry;
use pathcopy_server::proto::{
    read_request_enveloped, read_response_enveloped, request_frame, response_frame, FeedInfo,
    ProtoError, Request, Response, StageSummary, WireError, PROTO_TRACE_FLAG, PROTO_VERSION,
};
use pathcopy_server::{SpanRecord, TraceContext};

fn arb_opt_i64() -> impl Strategy<Value = Option<i64>> {
    (any::<bool>(), any::<i64>()).prop_map(|(some, v)| some.then_some(v))
}

fn arb_opt_u64() -> impl Strategy<Value = Option<u64>> {
    (any::<bool>(), any::<u64>()).prop_map(|(some, v)| some.then_some(v))
}

fn arb_bound() -> impl Strategy<Value = Bound<i64>> {
    prop_oneof![
        Just(Bound::Unbounded),
        any::<i64>().prop_map(Bound::Included),
        any::<i64>().prop_map(Bound::Excluded),
    ]
}

fn arb_batch_op() -> impl Strategy<Value = BatchOp<i64, i64>> {
    prop_oneof![
        any::<i64>().prop_map(BatchOp::Get),
        (any::<i64>(), any::<i64>()).prop_map(|(k, v)| BatchOp::Insert(k, v)),
        any::<i64>().prop_map(BatchOp::Remove),
        (any::<i64>(), arb_opt_i64(), arb_opt_i64())
            .prop_map(|(key, expected, new)| { BatchOp::Cas { key, expected, new } }),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        any::<i64>().prop_map(|key| Request::Get { key }),
        (any::<i64>(), any::<i64>()).prop_map(|(key, value)| Request::Insert { key, value }),
        any::<i64>().prop_map(|key| Request::Remove { key }),
        (any::<i64>(), arb_opt_i64(), arb_opt_i64())
            .prop_map(|(key, expected, new)| Request::Cas { key, expected, new }),
        (prop::collection::vec(arb_batch_op(), 0..17), any::<bool>())
            .prop_map(|(ops, guarded)| Request::Batch { ops, guarded }),
        (arb_opt_u64(), arb_bound(), (arb_bound(), any::<u32>())).prop_map(
            |(epoch, lo, (hi, limit))| Request::Range {
                epoch,
                lo,
                hi,
                limit
            }
        ),
        Just(Request::Publish),
        Just(Request::Subscribe),
        any::<u64>().prop_map(|from| Request::PullDiff { from }),
        any::<u64>().prop_map(|from| Request::SubscribePush { from }),
        (any::<i64>(), any::<u64>(), any::<u32>()).prop_map(|(key, min_epoch, wait_ms)| {
            Request::GetAt {
                key,
                min_epoch,
                wait_ms,
            }
        }),
        arb_batch_op().prop_map(|op| Request::WriteAt { op }),
        Just(Request::Metrics),
        Just(Request::ResetMetrics),
        Just(Request::TraceDump),
    ]
}

fn arb_span_record() -> impl Strategy<Value = SpanRecord> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u8>(), any::<u8>(), any::<u8>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |((trace_id, span_id, parent_span), (kind, tag, flags), (epoch, start_ns, dur_ns))| {
                SpanRecord {
                    trace_id,
                    span_id,
                    parent_span,
                    kind,
                    tag,
                    flags,
                    epoch,
                    start_ns,
                    dur_ns,
                }
            },
        )
}

fn arb_stage_summary() -> impl Strategy<Value = StageSummary> {
    (
        (any::<u8>(), any::<u8>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(
                (stage, tag, count, sum),
                (p50, p90, p99),
                (p999, max),
                (exemplar_id, exemplar_trace),
            )| StageSummary {
                stage,
                tag,
                count,
                sum,
                p50,
                p90,
                p99,
                p999,
                max,
                exemplar_id,
                exemplar_trace,
            },
        )
}

fn arb_batch_result() -> impl Strategy<Value = BatchResult<i64>> {
    prop_oneof![
        arb_opt_i64().prop_map(BatchResult::Got),
        arb_opt_i64().prop_map(BatchResult::Inserted),
        arb_opt_i64().prop_map(BatchResult::Removed),
        any::<bool>().prop_map(BatchResult::Cas),
    ]
}

fn arb_diff_entry() -> impl Strategy<Value = DiffEntry<i64, i64>> {
    prop_oneof![
        (any::<i64>(), any::<i64>()).prop_map(|(k, v)| DiffEntry::Added(k, v)),
        (any::<i64>(), any::<i64>()).prop_map(|(k, v)| DiffEntry::Removed(k, v)),
        (any::<i64>(), any::<i64>(), any::<i64>())
            .prop_map(|(k, a, b)| DiffEntry::Changed(k, a, b)),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        arb_opt_i64().prop_map(Response::Got),
        arb_opt_i64().prop_map(Response::Inserted),
        arb_opt_i64().prop_map(Response::Removed),
        any::<bool>().prop_map(Response::CasApplied),
        prop::collection::vec(arb_batch_result(), 0..17).prop_map(Response::Batch),
        (
            prop::collection::vec((any::<i64>(), any::<i64>()), 0..33),
            any::<bool>()
        )
            .prop_map(|(entries, complete)| Response::Entries { entries, complete }),
        Just(Response::Error(WireError::Malformed)),
        Just(Response::Error(WireError::TooLarge)),
        any::<u64>().prop_map(|oldest| Response::Error(WireError::EpochRetired(oldest))),
        prop::collection::vec(any::<u32>(), 0..9).prop_map(Response::BatchAborted),
        any::<u64>().prop_map(Response::Published),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(head, oldest, capacity)| {
            Response::FeedInfo(FeedInfo {
                head,
                oldest,
                capacity,
            })
        }),
        (any::<u64>(), prop::collection::vec(arb_diff_entry(), 0..33))
            .prop_map(|(to, entries)| Response::EpochDiff { to, entries }),
        (
            any::<u64>(),
            prop::collection::vec((any::<i64>(), any::<i64>()), 0..33),
            any::<bool>()
        )
            .prop_map(|(epoch, entries, done)| Response::SyncPage {
                epoch,
                entries,
                done,
            }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(head, oldest, capacity)| {
            Response::SubscribeAck(FeedInfo {
                head,
                oldest,
                capacity,
            })
        }),
        (
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec(arb_diff_entry(), 0..33)
        )
            .prop_map(|(from, epoch, entries)| Response::Push {
                from,
                epoch,
                entries,
            }),
        (arb_opt_i64(), any::<u64>()).prop_map(|(value, epoch)| Response::GotAt { value, epoch }),
        (arb_batch_result(), any::<u64>())
            .prop_map(|(result, watermark)| Response::WroteAt { result, watermark }),
        any::<u64>().prop_map(|epoch| Response::Error(WireError::Stale(epoch))),
        prop::collection::vec(arb_stage_summary(), 0..9).prop_map(Response::Metrics),
        Just(Response::MetricsReset),
        (any::<u32>(), prop::collection::vec(arb_span_record(), 0..9)).prop_map(|(n, spans)| {
            Response::TraceDump {
                node: format!("node{n}"),
                spans,
            }
        }),
    ]
}

/// An untraced request body (no length prefix) carrying `id`.
fn request_body(req: &Request, id: u64) -> Vec<u8> {
    request_frame(req, id, None)
        .expect("fits a frame")
        .split_off(4)
}

fn encode_request(req: &Request) -> Vec<u8> {
    request_body(req, 0)
}

fn encode_response(resp: &Response) -> Vec<u8> {
    let mut body = Vec::new();
    resp.encode(&mut body);
    body
}

fn decode_request(body: &[u8]) -> Result<Request, ProtoError> {
    Request::decode_enveloped(body).map(|f| f.msg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn request_encode_decode_is_identity(req in arb_request()) {
        let body = encode_request(&req);
        prop_assert_eq!(decode_request(&body).expect("decode"), req);
    }

    #[test]
    fn response_encode_decode_is_identity(resp in arb_response()) {
        let body = encode_response(&resp);
        prop_assert_eq!(Response::decode(&body).expect("decode"), resp);
    }

    #[test]
    fn truncated_request_frames_never_parse(req in arb_request(), cut in 0usize..128) {
        let body = encode_request(&req);
        // Cutting anywhere strictly inside the body must fail cleanly
        // (never panic, never yield a different valid message).
        let cut = cut % body.len().max(1);
        if cut < body.len() {
            match decode_request(&body[..cut]) {
                Err(_) => {}
                // A prefix that still parses must parse to the SAME
                // message (possible only when cut == body.len()).
                Ok(parsed) => prop_assert_eq!(parsed, req),
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected(req in arb_request(), extra in 1usize..8) {
        let mut body = encode_request(&req);
        body.extend(vec![0xABu8; extra]);
        prop_assert!(matches!(
            decode_request(&body),
            Err(ProtoError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn bad_version_is_rejected(req in arb_request(), v in 0u8..=255) {
        let mut body = encode_request(&req);
        if v != PROTO_VERSION && v != (PROTO_VERSION | PROTO_TRACE_FLAG) {
            body[0] = v;
            prop_assert!(matches!(decode_request(&body), Err(ProtoError::BadVersion(_))));
        }
    }

    #[test]
    fn unknown_request_tags_are_rejected(tag in 22u8..=255, id in any::<u64>(), payload in prop::collection::vec(any::<u8>(), 0..16)) {
        let mut body = vec![PROTO_VERSION];
        body.extend(id.to_le_bytes());
        body.push(tag);
        body.extend(payload);
        prop_assert!(matches!(
            decode_request(&body),
            Err(ProtoError::BadTag { .. })
        ));
    }

    #[test]
    fn unknown_response_tags_are_rejected(tag in 25u8..=255, id in any::<u64>(), payload in prop::collection::vec(any::<u8>(), 0..16)) {
        let mut body = vec![PROTO_VERSION];
        body.extend(id.to_le_bytes());
        body.push(tag);
        body.extend(payload);
        prop_assert!(matches!(
            Response::decode(&body),
            Err(ProtoError::BadTag { .. })
        ));
    }

    #[test]
    fn request_envelope_id_roundtrips(req in arb_request(), id in any::<u64>()) {
        let body = request_body(&req, id);
        prop_assert_eq!(body[0], PROTO_VERSION);
        let framed = Request::decode_enveloped(&body).expect("decode");
        prop_assert_eq!(framed.request_id, id);
        prop_assert_eq!(framed.msg, req);
    }

    #[test]
    fn response_envelope_id_roundtrips(resp in arb_response(), id in any::<u64>()) {
        let body = response_frame(&resp, id, None).split_off(4);
        prop_assert_eq!(body[0], PROTO_VERSION);
        let framed = Response::decode_enveloped(&body).expect("decode");
        prop_assert_eq!(framed.request_id, id);
        prop_assert_eq!(framed.msg, resp);
    }

    #[test]
    fn random_bytes_never_panic_the_decoder(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        // Either outcome is fine; what matters is no panic and no UB.
        let _ = decode_request(&bytes);
        let _ = Response::decode(&bytes);
    }
}

#[test]
fn truncated_request_strict_prefixes_all_fail() {
    // The deterministic exhaustive version of the truncation property for
    // one representative of every variant family.
    let reqs = [
        Request::Batch {
            ops: vec![
                BatchOp::Insert(1, 2),
                BatchOp::Cas {
                    key: 3,
                    expected: Some(4),
                    new: None,
                },
            ],
            guarded: true,
        },
        Request::Range {
            epoch: Some(1),
            lo: Bound::Included(0),
            hi: Bound::Excluded(10),
            limit: 5,
        },
    ];
    for req in reqs {
        let body = encode_request(&req);
        for cut in 0..body.len() {
            assert!(
                decode_request(&body[..cut]).is_err(),
                "{req:?} prefix {cut}/{} must fail",
                body.len()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Golden wire vectors
// ---------------------------------------------------------------------------
//
// One complete frame (length prefix included) per `Request`, `Response`
// and `WireError` variant, plus one traced request and one traced
// `Push`. The literals pin the v3 byte layout: any codec change that
// moves a byte fails here. Only the two adapters below may follow the
// codec's public entry points; the vectors and assertions do not change.

/// The id every golden frame carries: eight distinct bytes, so a
/// byte-order slip in the envelope shows.
const GOLDEN_ID: u64 = 0x0102_0304_0506_0708;

fn golden_ctx() -> TraceContext {
    TraceContext {
        trace_id: 0x1112_1314_1516_1718,
        parent_span: 0x2122_2324_2526_2728,
        flags: TraceContext::SAMPLED | TraceContext::SLOW,
    }
}

/// Adapter: one complete request frame from the codec under test.
fn golden_request_frame(req: &Request, trace: Option<&TraceContext>) -> Vec<u8> {
    request_frame(req, GOLDEN_ID, trace).expect("fits a frame")
}

/// Adapter: one complete response frame from the codec under test.
fn golden_response_frame(resp: &Response, trace: Option<&TraceContext>) -> Vec<u8> {
    response_frame(resp, GOLDEN_ID, trace)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

fn golden_requests() -> Vec<(Request, &'static str)> {
    vec![
        (Request::Get { key: -7 }, "1200000003080706050403020101f9ffffffffffffff"),
        (Request::Insert { key: 1, value: -2 }, "1a000000030807060504030201020100000000000000feffffffffffffff"),
        (Request::Remove { key: i64::MIN }, "12000000030807060504030201030000000000000080"),
        (
            Request::Cas {
                key: 3,
                expected: Some(i64::MAX),
                new: None,
            },
            "1c00000003080706050403020104030000000000000001ffffffffffffff7f00",
        ),
        (
            Request::Batch {
                ops: vec![
                    BatchOp::Get(1),
                    BatchOp::Insert(2, 20),
                    BatchOp::Remove(3),
                    BatchOp::Cas {
                        key: 4,
                        expected: None,
                        new: Some(40),
                    },
                ],
                guarded: true,
            },
            "45000000030807060504030201050104000000000100000000000000010200000000000000140000000000000002030000000000000003040000000000000000012800000000000000",
        ),
        (
            Request::Range {
                epoch: Some(9),
                lo: Bound::Included(-5),
                hi: Bound::Excluded(5),
                limit: 128,
            },
            "290000000308070605040302010701090000000000000001fbffffffffffffff02050000000000000080000000",
        ),
        (Request::Publish, "0a0000000308070605040302010b"),
        (Request::Subscribe, "0a0000000308070605040302010c"),
        (Request::PullDiff { from: 17 }, "120000000308070605040302010d1100000000000000"),
        (Request::SubscribePush { from: 41 }, "120000000308070605040302010f2900000000000000"),
        (
            Request::GetAt {
                key: -9,
                min_epoch: 17,
                wait_ms: 250,
            },
            "1e00000003080706050403020110f7ffffffffffffff1100000000000000fa000000",
        ),
        (
            Request::WriteAt {
                op: BatchOp::Cas {
                    key: 6,
                    expected: Some(1),
                    new: None,
                },
            },
            "1d0000000308070605040302011103060000000000000001010000000000000000",
        ),
        (Request::Metrics, "0a00000003080706050403020113"),
        (Request::ResetMetrics, "0a00000003080706050403020114"),
        (Request::TraceDump, "0a00000003080706050403020115"),
    ]
}

fn golden_responses() -> Vec<(Response, &'static str)> {
    vec![
        (Response::Got(Some(4)), "1300000003080706050403020101010400000000000000"),
        (Response::Inserted(None), "0b0000000308070605040302010200"),
        (Response::Removed(Some(-1)), "130000000308070605040302010301ffffffffffffffff"),
        (Response::CasApplied(true), "0b0000000308070605040302010401"),
        (
            Response::Batch(vec![
                BatchResult::Got(None),
                BatchResult::Inserted(Some(1)),
                BatchResult::Removed(None),
                BatchResult::Cas(true),
            ]),
            "1e000000030807060504030201050400000000000101010000000000000002000301",
        ),
        (
            Response::Entries {
                entries: vec![(1, 10), (-2, 20)],
                complete: false,
            },
            "2f000000030807060504030201070200000001000000000000000a00000000000000feffffffffffffff140000000000000000",
        ),
        (Response::BatchAborted(vec![0, 3, 7]), "1a0000000308070605040302010c03000000000000000300000007000000"),
        (Response::Published(12), "120000000308070605040302010d0c00000000000000"),
        (
            Response::FeedInfo(FeedInfo {
                head: 12,
                oldest: 5,
                capacity: 8,
            }),
            "220000000308070605040302010e0c0000000000000005000000000000000800000000000000",
        ),
        (
            Response::EpochDiff {
                to: 12,
                entries: vec![DiffEntry::Added(1, 10), DiffEntry::Removed(2, 20)],
            },
            "380000000308070605040302010f0c00000000000000020000000001000000000000000a000000000000000102000000000000001400000000000000",
        ),
        (
            Response::SyncPage {
                epoch: 12,
                entries: vec![(1, 10), (2, 20)],
                done: true,
            },
            "37000000030807060504030201100c000000000000000200000001000000000000000a000000000000000200000000000000140000000000000001",
        ),
        (
            Response::SubscribeAck(FeedInfo {
                head: 7,
                oldest: 3,
                capacity: 8,
            }),
            "2200000003080706050403020111070000000000000003000000000000000800000000000000",
        ),
        (
            Response::Push {
                from: 6,
                epoch: 7,
                entries: vec![DiffEntry::Changed(2, 20, 21)],
            },
            "3700000003080706050403020112060000000000000007000000000000000100000002020000000000000014000000000000001500000000000000",
        ),
        (
            Response::GotAt {
                value: Some(-4),
                epoch: 19,
            },
            "1b0000000308070605040302011301fcffffffffffffff1300000000000000",
        ),
        (
            Response::WroteAt {
                result: BatchResult::Inserted(Some(5)),
                watermark: 21,
            },
            "1c00000003080706050403020114010105000000000000001500000000000000",
        ),
        (
            Response::Metrics(vec![StageSummary {
                stage: 1,
                tag: 2,
                count: 3,
                sum: 4,
                p50: 5,
                p90: 6,
                p99: 7,
                p999: 8,
                max: 9,
                exemplar_id: 10,
                exemplar_trace: 11,
            }]),
            "580000000308070605040302011601000000010203000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000000b00000000000000",
        ),
        (Response::MetricsReset, "0a00000003080706050403020117"),
        (
            Response::TraceDump {
                node: "relay-1".to_string(),
                spans: vec![SpanRecord {
                    trace_id: 9,
                    span_id: 2,
                    parent_span: 1,
                    kind: 2,
                    tag: 11,
                    flags: 1,
                    epoch: 40,
                    start_ns: 1_000,
                    dur_ns: 250,
                }],
            },
            "51000000030807060504030201180700000072656c61792d3101000000090000000000000002000000000000000100000000000000020b0100000000002800000000000000e803000000000000fa00000000000000",
        ),
        (Response::Error(WireError::Malformed), "0b0000000308070605040302010b02"),
        (Response::Error(WireError::TooLarge), "0b0000000308070605040302010b03"),
        (Response::Error(WireError::EpochRetired(4)), "130000000308070605040302010b050400000000000000"),
        (Response::Error(WireError::Busy(64)), "130000000308070605040302010b064000000000000000"),
        (Response::Error(WireError::Stale(13)), "130000000308070605040302010b070d00000000000000"),
    ]
}

#[test]
fn golden_vectors_pin_every_request_frame() {
    for (req, golden) in golden_requests() {
        let golden = unhex(golden);
        assert_eq!(
            hex(&golden_request_frame(&req, None)),
            hex(&golden),
            "{req:?} encodes to its golden frame"
        );
        let framed = read_request_enveloped(&mut &golden[..])
            .expect("golden frame decodes")
            .expect("one whole frame");
        assert_eq!((framed.request_id, framed.trace), (GOLDEN_ID, None));
        assert_eq!(framed.msg, req);
    }
}

#[test]
fn golden_vectors_pin_every_response_and_error_frame() {
    for (resp, golden) in golden_responses() {
        let golden = unhex(golden);
        assert_eq!(
            hex(&golden_response_frame(&resp, None)),
            hex(&golden),
            "{resp:?} encodes to its golden frame"
        );
        let framed = read_response_enveloped(&mut &golden[..])
            .expect("golden frame decodes")
            .expect("one whole frame");
        assert_eq!((framed.request_id, framed.trace), (GOLDEN_ID, None));
        assert_eq!(framed.msg, resp);
    }
}

#[test]
fn golden_vectors_pin_the_traced_envelope() {
    let ctx = golden_ctx();
    let golden = unhex("1b00000083080706050403020118171615141312112827262524232221030b");
    let req = Request::Publish;
    assert_eq!(hex(&golden_request_frame(&req, Some(&ctx))), hex(&golden));
    let framed = Request::decode_enveloped(&golden[4..]).expect("golden frame decodes");
    assert_eq!((framed.request_id, framed.trace), (GOLDEN_ID, Some(ctx)));
    assert_eq!(framed.msg, req);

    let golden = unhex(
        "4000000083080706050403020118171615141312112827262524232221031206000000000000000700000000000000010000000001000000000000000a00000000000000",
    );
    let push = Response::Push {
        from: 6,
        epoch: 7,
        entries: vec![DiffEntry::Added(1, 10)],
    };
    assert_eq!(hex(&golden_response_frame(&push, Some(&ctx))), hex(&golden));
    let framed = Response::decode_enveloped(&golden[4..]).expect("golden frame decodes");
    assert_eq!((framed.request_id, framed.trace), (GOLDEN_ID, Some(ctx)));
    assert_eq!(framed.msg, push);
}
