//! End-to-end observability contract: the counter and gauge rows of a
//! `Metrics` scrape over the wire must equal the in-process
//! [`ServerHandle::metrics_report`] rows one for one (no drift between
//! the two read paths), `ResetMetrics` zeroes histograms and never
//! counters, a server with metrics off still reports every counter, and
//! a scrape after real traffic must return per-stage, per-tag
//! histograms — every row naming the request behind its worst sample,
//! and, under tracing, each row's sample being the very measurement the
//! trace's span holds.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pathcopy_concurrent::BatchOp;
use pathcopy_metrics::{Kind, Stage};
use pathcopy_server::proto::response_frame;
use pathcopy_server::{
    backend, render_text, spawn, value_of, Flight, MetricsSource, Request, Response, ServerConfig,
    ServerHandle, Session, StageSummary, TraceContext,
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
    let epoch = c.publish().unwrap();
    c.range(Some(epoch), .., 0).unwrap();
}

/// Whether `row` condenses a histogram (not one counter or gauge).
fn is_summary(row: &StageSummary) -> bool {
    Stage::from_u8(row.stage).map(Stage::kind) == Some(Kind::Summary)
}

/// The counter and gauge rows of a scrape, in order.
fn counter_rows(rows: &[StageSummary]) -> Vec<StageSummary> {
    rows.iter().filter(|r| !is_summary(r)).copied().collect()
}

#[test]
fn wire_counter_rows_equal_in_process_counter_rows() {
    let server = server_with(true);
    let c = Session::connect(server.addr()).unwrap();
    known_op_sequence(&c);

    // The wire scrape cannot count its own reply (ids are fixed-width,
    // so id 0 measures it), nor the engine read of its `len` gauge,
    // which only the next scrape sees. The loop thread bumps
    // the sent counter just after writing, so poll briefly.
    let scraped = c.metrics().unwrap();
    let self_reply = response_frame(&Response::Metrics(scraped.clone()), 0, None).len() as u64;
    let wire = counter_rows(&scraped);
    let sent = value_of(&wire, Stage::WireSent).unwrap() + self_reply;
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut scrapes = 0;
    let local = loop {
        scrapes += 1;
        let local = counter_rows(&server.metrics_report());
        if value_of(&local, Stage::WireSent) == Some(sent) || Instant::now() > deadline {
            break local;
        }
        std::thread::sleep(Duration::from_millis(5));
    };

    assert_eq!((local.len(), wire.len()), (16, 16), "{wire:?}");
    for (local, wire) in local.iter().zip(&wire) {
        let stage = Stage::from_u8(wire.stage).unwrap();
        let scraping = match stage {
            Stage::WireSent => self_reply,
            Stage::Reads => scrapes,
            _ => 0,
        };
        assert_eq!(local.stage, wire.stage);
        match stage {
            // The node pool is the process's: the tests running beside
            // this one allocate and free from it between the two reads.
            // Slab bytes never decrease.
            Stage::PoolSlab => assert!(local.count >= wire.count && wire.count > 0),
            Stage::PoolDepotBlocks => {}
            _ => assert_eq!(local.count, wire.count + scraping, "{stage:?}"),
        }
        let value_only = StageSummary {
            stage: wire.stage,
            count: wire.count,
            ..StageSummary::default()
        };
        assert_eq!(*wire, value_only, "{stage:?}: only `count` is used");
    }

    // Sanity: the sequence actually moved the counters.
    assert!(value_of(&wire, Stage::Requests).unwrap() >= 36);
    assert!(value_of(&wire, Stage::Ops).unwrap() >= 16);
    assert_eq!(value_of(&wire, Stage::OpenConns), Some(1));
    server.shutdown();
}

#[test]
fn reset_metrics_empties_every_summary_row_and_leaves_every_counter_row() {
    let server = server_with(true);
    let c = Session::connect(server.addr()).unwrap();
    known_op_sequence(&c);
    let before = server.metrics_report();
    assert!(before.iter().filter(|r| is_summary(r)).count() > 3);
    c.reset_metrics().unwrap();
    let after = server.metrics_report();

    // What is left of the histograms is the reset request's own execute
    // and write samples, taken after it zeroed them.
    for row in after.iter().filter(|r| is_summary(r)) {
        assert_eq!((row.tag, row.count), (Request::ResetMetrics.tag_byte(), 1));
    }
    // Counters only the reset's own traffic (and the scrapes' engine
    // reads) can move went forward; every other row held still, apart
    // from the process-wide pool gauges, which the tests running beside
    // this one move.
    for (b, a) in counter_rows(&before).iter().zip(&counter_rows(&after)) {
        match Stage::from_u8(b.stage).unwrap() {
            Stage::Requests
            | Stage::WireReceived
            | Stage::WireSent
            | Stage::Reads
            | Stage::PoolSlab => {
                assert!(a.count >= b.count, "{a:?} went back from {b:?}")
            }
            Stage::PoolDepotBlocks => {}
            stage => assert_eq!(a.count, b.count, "{stage:?}"),
        }
    }
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
fn disabled_metrics_scrape_has_every_counter_row_and_no_summary_row() {
    let server = server_with(false);
    let c = Session::connect(server.addr()).unwrap();
    known_op_sequence(&c);
    let rows = c.metrics().unwrap();
    let stages: Vec<u8> = rows.iter().map(|r| r.stage).collect();
    let counters: Vec<u8> = Stage::ALL
        .iter()
        .filter(|s| s.kind() != Kind::Summary)
        .map(|s| *s as u8)
        .collect();
    assert_eq!(counters.len(), 16);
    assert_eq!(stages, counters, "{rows:?}");
    assert_eq!(
        value_of(&rows, Stage::Subscribers),
        Some(0),
        "0 is reported"
    );
    assert_eq!(value_of(&rows, Stage::Len), Some(16));
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
    let rows: Vec<_> = c
        .metrics()
        .unwrap()
        .into_iter()
        .filter(is_summary)
        .collect();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].stage, Stage::AppendFsync as u8);
    assert_eq!(rows[0].count, 9);
    server.shutdown();
}
