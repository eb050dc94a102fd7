//! End-to-end observability contract: the `Gauges` frame a client
//! scrapes over the wire must equal the in-process
//! [`ServerHandle::gauges`] snapshot field-for-field (no drift between
//! the two read paths), and a `Metrics` scrape after real traffic must
//! return per-stage, per-tag histograms — every row naming the request
//! behind its worst sample, and, under tracing, each row's sample being
//! the very measurement the trace's span holds.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pathcopy_concurrent::BatchOp;
use pathcopy_metrics::Stage;
use pathcopy_server::{
    backend, render_text, spawn, Flight, MetricsSource, Request, Response, ServerConfig,
    ServerGauges, ServerHandle, Session, StageSummary, TraceContext,
};

fn server_with(metrics: bool) -> ServerHandle {
    spawn(
        backend::by_name("sharded_map_8").expect("backend"),
        ServerConfig::builder().metrics(metrics).build(),
    )
    .expect("bind ephemeral port")
}

/// Runs a fixed, known op sequence that touches several request tags.
fn known_op_sequence(c: &Session) {
    for k in 0..16 {
        c.insert(k, k * 10).unwrap();
    }
    for k in 0..16 {
        assert_eq!(c.get(k).unwrap(), Some(k * 10));
    }
    c.batch(&[
        BatchOp::Insert(100, 1),
        BatchOp::Get(0),
        BatchOp::Remove(15),
    ])
    .unwrap();
    let snap = c.snapshot().unwrap();
    c.range(Some(snap), .., 0).unwrap();
    c.release(snap).unwrap();
    c.publish().unwrap();
}

#[test]
fn wire_gauges_equal_in_process_gauges_field_for_field() {
    let server = server_with(true);
    let c = Session::connect(server.addr()).unwrap();
    known_op_sequence(&c);

    // The wire scrape snapshots gauges while handling the request, so
    // it cannot count its own reply bytes: once the client has read the
    // reply, the in-process view must be exactly the scraped view plus
    // that one reply frame. The loop thread bumps the sent counter just
    // after writing, so poll briefly rather than racing the scheduler.
    let wire: ServerGauges = c.gauges().unwrap();
    let self_reply = {
        use pathcopy_server::proto::response_frame;
        // The client sent request id 1..; ids are fixed-width so any id
        // yields the frame length the server actually wrote.
        response_frame(&Response::Gauges(wire), 0, None).len() as u64
    };
    let expected_sent = wire.wire_sent + self_reply;
    let deadline = Instant::now() + Duration::from_secs(5);
    let local = loop {
        let local = server.gauges();
        if local.wire_sent == expected_sent || Instant::now() > deadline {
            break local;
        }
        std::thread::sleep(Duration::from_millis(5));
    };

    assert_eq!(local.wire_sent, expected_sent, "wire_sent + own reply");
    assert_eq!(local.requests, wire.requests, "requests");
    assert_eq!(local.requests_shed, wire.requests_shed, "requests_shed");
    assert_eq!(local.open_conns, wire.open_conns, "open_conns");
    assert_eq!(local.wire_received, wire.wire_received, "wire_received");
    assert_eq!(local.subscribers, wire.subscribers, "subscribers");
    assert_eq!(local.pushes, wire.pushes, "pushes");
    assert_eq!(local.push_demotions, wire.push_demotions, "push_demotions");
    assert_eq!(local.feed_head, wire.feed_head, "feed_head");

    // Sanity: the sequence actually moved the counters.
    assert!(wire.requests >= 38, "requests = {}", wire.requests);
    assert_eq!(wire.open_conns, 1);
    assert_eq!(wire.feed_head, 1);
    server.shutdown();
}

#[test]
fn metrics_scrape_returns_per_stage_per_tag_histograms() {
    let server = server_with(true);
    let c = Session::connect(server.addr()).unwrap();
    known_op_sequence(&c);

    // Everything answered so far has been flushed (we read each reply),
    // so all three stages must have rows for the tags the sequence
    // exercised.
    let rows = c.metrics().unwrap();
    assert!(!rows.is_empty());
    assert!(
        rows.windows(2)
            .all(|w| (w[0].stage, w[0].tag) <= (w[1].stage, w[1].tag)),
        "rows ordered by (stage, tag): {rows:?}"
    );

    let has = |stage: Stage, tag: u8| {
        rows.iter()
            .any(|r| r.stage == stage as u8 && r.tag == tag && r.count > 0)
    };
    for stage in [Stage::QueueWait, Stage::Execute, Stage::WriteFlush] {
        assert!(has(stage, 1), "{stage:?} for Get: {rows:?}");
        assert!(has(stage, 2), "{stage:?} for Insert: {rows:?}");
        assert!(has(stage, 5), "{stage:?} for Batch: {rows:?}");
        assert!(has(stage, 11), "{stage:?} for Publish: {rows:?}");
    }
    // Get ran 16 times through queue-wait and execute.
    let get_exec = rows
        .iter()
        .find(|r| r.stage == Stage::Execute as u8 && r.tag == 1)
        .unwrap();
    assert_eq!(get_exec.count, 16);
    assert!(get_exec.p50 <= get_exec.p99 && get_exec.p99 <= get_exec.max);

    // The text exposition renders every stage the scrape returned.
    let text = render_text(&rows);
    assert!(text.contains("# TYPE pathcopy_queue_wait_ns summary"));
    assert!(text.contains("pathcopy_execute_ns{tag=\"Get\",quantile=\"0.99\"}"));
    assert!(text.contains("pathcopy_write_flush_ns_count{tag=\"Batch\"}"));
    server.shutdown();
}

#[test]
fn every_event_loop_row_names_the_request_behind_its_max() {
    let server = server_with(true);
    let c = Session::connect(server.addr()).unwrap();
    known_op_sequence(&c);
    let rows = c.metrics().unwrap();
    for stage in [Stage::QueueWait, Stage::Execute, Stage::WriteFlush] {
        let of_stage: Vec<_> = rows.iter().filter(|r| r.stage == stage as u8).collect();
        assert!(!of_stage.is_empty(), "{stage:?}: {rows:?}");
        for row in of_stage {
            assert_ne!(row.exemplar_id, 0, "{stage:?} exemplar: {row:?}");
        }
    }
    server.shutdown();
}

#[test]
fn the_span_is_the_sample() {
    // Metrics and a flight both on: one probe laps one clock per stage
    // boundary, so a stage's histogram sample and its span are the same
    // number, not two measurements of the same interval.
    let server = spawn(
        backend::by_name("sharded_map_8").expect("backend"),
        ServerConfig::builder()
            .trace(Flight::new("primary"))
            .build(),
    )
    .expect("bind ephemeral port");
    let c = Session::connect(server.addr()).unwrap();
    c.insert(1, 10).unwrap();
    c.reset_metrics().unwrap();
    let ctx = TraceContext::sampled(0x5a3e);
    let epoch = match c
        .submit_traced(&Request::Publish, Some(&ctx))
        .unwrap()
        .wait()
        .unwrap()
    {
        Response::Published(epoch) => epoch,
        other => panic!("unexpected reply to Publish: {other:?}"),
    };

    let rows = c.metrics().unwrap();
    let (node, spans) = c.trace_dump().unwrap();
    assert_eq!(node, "primary");
    let publish = Request::Publish.tag_byte();
    for stage in [Stage::QueueWait, Stage::Execute, Stage::WriteFlush] {
        let row = rows
            .iter()
            .find(|r| r.stage == stage as u8 && r.tag == publish)
            .unwrap_or_else(|| panic!("{stage:?} row for Publish: {rows:?}"));
        let span = spans
            .iter()
            .find(|s| s.trace_id == ctx.trace_id && s.kind == stage as u8)
            .unwrap_or_else(|| panic!("{stage:?} span: {spans:?}"));
        assert_eq!(row.count, 1, "{stage:?}: one Publish since the reset");
        assert_eq!(row.max, span.dur_ns, "{stage:?}: the span is the sample");
        assert_ne!(row.exemplar_id, 0, "{stage:?}: exemplar names the request");
        assert_eq!(row.exemplar_trace, ctx.trace_id, "{stage:?}");
        assert_eq!(span.tag, publish);
    }
    let execute = spans
        .iter()
        .find(|s| s.kind == Stage::Execute as u8)
        .unwrap();
    assert_eq!(execute.epoch, epoch, "the execute span names its epoch");
    server.shutdown();
}

#[test]
fn disabled_metrics_scrape_is_empty_and_serving_still_works() {
    let server = server_with(false);
    let c = Session::connect(server.addr()).unwrap();
    known_op_sequence(&c);
    assert_eq!(c.metrics().unwrap(), vec![]);
    assert_eq!(c.get(0).unwrap(), Some(0));
    server.shutdown();
}

#[test]
fn registered_sources_show_up_in_wire_scrapes() {
    struct Fixed;
    impl MetricsSource for Fixed {
        fn collect(&self) -> Vec<StageSummary> {
            vec![StageSummary {
                stage: Stage::AppendFsync as u8,
                tag: 0,
                count: 9,
                sum: 900,
                p50: 100,
                p90: 100,
                p99: 100,
                p999: 100,
                max: 100,
                exemplar_id: 0,
                exemplar_trace: 0,
            }]
        }
    }
    let server = server_with(false); // even with loop tracing off
    server.register_metrics_source(Arc::new(Fixed));
    let c = Session::connect(server.addr()).unwrap();
    let rows = c.metrics().unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].stage, Stage::AppendFsync as u8);
    assert_eq!(rows[0].count, 9);
    server.shutdown();
}
