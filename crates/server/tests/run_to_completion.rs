//! End-to-end tests of the run-to-completion event loop: every write and
//! every request that cannot block execute on the readiness wake that
//! decoded them and leave in one write, so the loop is the served
//! root's one writer; requests that may block go to the workers, the
//! two paths share a connection without mixing up replies, and a peer
//! that does not read its replies is held back by TCP, not buffered.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use pathcopy_concurrent::{BatchOp, BatchResult};
use pathcopy_metrics::Stage;
use pathcopy_server::proto::{read_response_enveloped, request_frame, response_frame};
use pathcopy_server::{
    backend, value_of, ClientError, Epoch, FeedSink, Request, Response, ServeSnapshot,
    ServerConfig, ServerHandle, Session, WireError,
};

fn server(config: ServerConfig) -> ServerHandle {
    pathcopy_server::spawn(backend::by_name("sharded_map_8").expect("backend"), config)
        .expect("bind ephemeral port")
}

/// Keys `0..n` hold `key * 7`, inserted in process.
fn prefill(server: &ServerHandle, n: i64) {
    for k in 0..n {
        server.backend().insert(k, k * 7);
    }
}

fn get_frame(key: i64, id: u64) -> Vec<u8> {
    request_frame(&Request::Get { key }, id, None).expect("small frame")
}

#[test]
fn mixed_inline_and_worker_requests_resolve_by_id() {
    const ROUNDS: i64 = 40;
    // Deep enough that none of the worker-bound requests is shed.
    let server = server(ServerConfig::builder().workers(2).queue_depth(1024).build());
    prefill(&server, ROUNDS + 32);
    let session = Session::connect(server.addr()).expect("connect");

    // Everything is submitted before anything is awaited, so loop-run
    // and worker-run requests are interleaved on the one connection.
    let mut tickets = Vec::new();
    for i in 0..ROUNDS {
        let small: Vec<_> = (i..i + 3).map(BatchOp::Get).collect();
        // A bigger batch runs on the loop too, like every write; the
        // `Range` and `Publish` below are what goes to the workers.
        let large: Vec<_> = (i..i + 32).map(BatchOp::Get).collect();
        for req in [
            Request::Get { key: i },
            Request::Insert {
                key: 10_000 + i,
                value: i,
            },
            Request::Range {
                epoch: None,
                lo: Bound::Included(i),
                hi: Bound::Included(i),
                limit: 0,
            },
            Request::Publish,
            Request::Batch {
                ops: small,
                guarded: false,
            },
            Request::Batch {
                ops: large,
                guarded: false,
            },
        ] {
            tickets.push((i, session.submit(&req).expect("submit")));
        }
    }

    let got = |lo: i64, n: i64| -> Vec<BatchResult<i64>> {
        (lo..lo + n)
            .map(|k| BatchResult::Got(Some(k * 7)))
            .collect()
    };
    let mut epochs = HashSet::new();
    for (n, (i, ticket)) in tickets.into_iter().enumerate() {
        let reply = ticket.wait().expect("reply");
        match n % 6 {
            0 => assert_eq!(reply, Response::Got(Some(i * 7)), "Get {i}"),
            1 => assert_eq!(reply, Response::Inserted(None), "Insert {i}"),
            2 => assert_eq!(
                reply,
                Response::Entries {
                    entries: vec![(i, i * 7)],
                    complete: true
                },
                "Range {i}"
            ),
            3 => match reply {
                Response::Published(epoch) => assert!(epochs.insert(epoch), "epoch {epoch} twice"),
                other => panic!("Publish {i}: {other:?}"),
            },
            4 => assert_eq!(reply, Response::Batch(got(i, 3)), "small Batch {i}"),
            _ => assert_eq!(reply, Response::Batch(got(i, 32)), "large Batch {i}"),
        }
    }
    assert_eq!(epochs.len(), ROUNDS as usize);
    assert_eq!(server.requests_shed(), 0);
    drop(session);
    server.shutdown();
}

/// Runs `body` on its own thread and fails the test if it has not
/// finished within `limit`.
fn within<T: Send + 'static>(limit: Duration, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (done_tx, done_rx) = mpsc::channel();
    let runner = thread::spawn(move || {
        let _ = done_tx.send(body());
    });
    match done_rx.recv_timeout(limit) {
        Ok(out) => {
            runner.join().expect("test body");
            out
        }
        // The body panicked: surface its message, not a timeout.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("sender dropped without a value"))
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("not finished after {limit:?}"),
    }
}

#[test]
fn a_pipelined_batch_is_visible_to_the_gets_sent_after_it() {
    const OPS: i64 = 64;
    const ROUNDS: i64 = 8;
    let server = server(ServerConfig::with_workers(2));
    let session = Session::connect(server.addr()).expect("connect");
    for round in 0..ROUNDS {
        let keys = round * OPS..(round + 1) * OPS;
        // Submitted together, so the server decodes the batch and the
        // reads from one read chunk.
        let batch = session
            .submit(&Request::Batch {
                ops: keys.clone().map(|k| BatchOp::Insert(k, k * 7)).collect(),
                guarded: false,
            })
            .expect("submit");
        let gets: Vec<_> = keys
            .clone()
            .map(|key| session.submit(&Request::Get { key }).expect("submit"))
            .collect();
        assert_eq!(
            batch.wait().expect("reply"),
            Response::Batch(vec![BatchResult::Inserted(None); OPS as usize])
        );
        for (key, ticket) in keys.zip(gets) {
            assert_eq!(
                ticket.wait().expect("reply"),
                Response::Got(Some(key * 7)),
                "a Get sent after the batch missed its write to {key}"
            );
        }
    }
    drop(session);
    server.shutdown();
}

#[test]
fn a_big_batch_commits_beside_pipelined_point_writers_without_a_failed_cas() {
    const BATCH: i64 = 4096;
    const BATCHES: i64 = 8;
    const WRITERS: usize = 2;
    const WINDOW: usize = 8;
    const POINT_KEYS: i64 = 1 << 15;
    // Under a watchdog: a batch that had to win the root from the point
    // writes would lose its CAS, re-run its whole descent, and could
    // keep doing so without end.
    within(Duration::from_secs(60), || {
        let server = server(ServerConfig::with_workers(2));
        // The point writers own the even keys and the batches the odd
        // ones, so every batch descends through the whole prefilled tree.
        for k in 0..POINT_KEYS {
            server.backend().insert(2 * k, k);
        }
        let scraper = Session::connect(server.addr()).expect("connect");
        let cas_failures =
            || value_of(&scraper.metrics().expect("scrape"), Stage::CasFailures).expect("row");
        let stop = Arc::new(AtomicBool::new(false));
        let written = Arc::new(AtomicU64::new(0));
        // Each writer keeps `WINDOW` inserts in flight until told to stop.
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (addr, stop, written) =
                    (server.addr(), Arc::clone(&stop), Arc::clone(&written));
                thread::spawn(move || {
                    let session = Session::connect(addr).expect("connect");
                    let mut round = w as i64;
                    let mut window = std::collections::VecDeque::new();
                    while !stop.load(Ordering::Relaxed) {
                        while window.len() < WINDOW {
                            // A fresh value every time: an insert of the
                            // value a key holds stores no root.
                            round += WRITERS as i64;
                            let key = 2 * (round * 7 % POINT_KEYS);
                            let req = Request::Insert { key, value: round };
                            window.push_back(session.submit(&req).expect("submit"));
                        }
                        let reply = window.pop_front().expect("in flight").wait();
                        assert!(matches!(reply, Ok(Response::Inserted(_))), "{reply:?}");
                        written.fetch_add(1, Ordering::Relaxed);
                    }
                    for ticket in window {
                        ticket.wait().expect("drain");
                    }
                })
            })
            .collect();
        // Each batch is sent only once the point writers have gone on
        // writing since the last one, so every batch meets their writes.
        let wait_for_writes = |n: u64| {
            while written.load(Ordering::Relaxed) < n {
                thread::sleep(Duration::from_millis(1));
            }
        };
        let mut target = 1000;
        wait_for_writes(target);
        let failures_before = cas_failures();

        let session = Session::connect(server.addr()).expect("connect");
        for b in 0..BATCHES {
            target += 100;
            wait_for_writes(target);
            let ops: Vec<_> = (0..BATCH)
                .map(|i| BatchOp::Insert(2 * (i * BATCHES + b) + 1, i))
                .collect();
            let results = session.batch(&ops).expect("the batch commits");
            assert_eq!(results, vec![BatchResult::Inserted(None); BATCH as usize]);
        }
        stop.store(true, Ordering::Relaxed);
        for writer in writers {
            writer.join().expect("point writer");
        }
        assert_eq!(
            server.backend().len(),
            (POINT_KEYS + BATCHES * BATCH) as usize
        );
        assert_eq!(
            cas_failures(),
            failures_before,
            "a served write lost the root: the loop is not its only writer"
        );
        drop((scraper, session));
        server.shutdown();
    });
}

#[test]
fn point_reads_are_not_queued_behind_parked_workers() {
    const WAIT_MS: u32 = 1000;
    let server = server(ServerConfig::with_workers(2));
    prefill(&server, 4);
    let session = Session::connect(server.addr()).expect("connect");
    // Both workers park for a full second waiting for an epoch that
    // never comes.
    let parked: Vec<_> = (0..2)
        .map(|_| {
            session
                .submit(&Request::GetAt {
                    key: 1,
                    min_epoch: 1 << 40,
                    wait_ms: WAIT_MS,
                })
                .expect("submit")
        })
        .collect();

    let started = Instant::now();
    // A point read behind them on the same connection, and one on
    // another connection, are answered by the loop thread itself.
    let same = session.submit(&Request::Get { key: 2 }).expect("submit");
    assert_eq!(same.wait().expect("reply"), Response::Got(Some(14)));
    let other = Session::connect(server.addr()).expect("connect");
    assert_eq!(other.get(3).expect("reply"), Some(21));
    // So is a session read whose epoch the feed already reached.
    assert_eq!(
        other
            .call(&Request::GetAt {
                key: 3,
                min_epoch: 0,
                wait_ms: WAIT_MS,
            })
            .expect("reply"),
        Response::GotAt {
            value: Some(21),
            epoch: 0
        }
    );
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_millis(WAIT_MS as u64 / 2),
        "point reads took {waited:?} with both workers parked for {WAIT_MS} ms"
    );

    for ticket in parked {
        match ticket.wait() {
            Err(ClientError::Server(WireError::Stale(0))) => {}
            other => panic!("parked GetAt: {other:?}"),
        }
    }
    drop(session);
    server.shutdown();
}

#[test]
fn replies_before_a_malformed_frame_are_delivered_then_the_close() {
    const VALID: u64 = 5;
    let server = server(ServerConfig::default());
    prefill(&server, VALID as i64);
    let mut wire = Vec::new();
    for id in 1..=VALID {
        wire.extend_from_slice(&get_frame(id as i64 - 1, id));
    }
    // A well-framed body with a request tag nobody defined.
    let bogus = [pathcopy_server::PROTO_VERSION, 0xEE];
    wire.extend_from_slice(&(bogus.len() as u32).to_le_bytes());
    wire.extend_from_slice(&bogus);
    // ...and a valid request after it, which must not be served.
    wire.extend_from_slice(&get_frame(0, 99));

    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    raw.write_all(&wire).expect("write");
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply)
        .expect("server closes the stream");

    let mut cursor = &reply[..];
    for id in 1..=VALID {
        let framed = read_response_enveloped(&mut cursor)
            .expect("decodes")
            .expect("a frame");
        assert_eq!(framed.request_id, id, "loop-run replies keep request order");
        assert_eq!(framed.msg, Response::Got(Some((id as i64 - 1) * 7)));
    }
    let refusal = read_response_enveloped(&mut cursor)
        .expect("decodes")
        .expect("a frame");
    assert_eq!(refusal.msg, Response::Error(WireError::Malformed));
    assert!(cursor.is_empty(), "nothing follows the refusal");
    server.shutdown();
}

#[test]
fn a_burst_written_in_one_write_is_answered_in_one_write() {
    const BURST: u64 = 8;
    let server = server(ServerConfig::default());
    prefill(&server, BURST as i64);
    let reply_len = response_frame(&Response::Got(Some(0)), 0, None).len();

    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    raw.set_nodelay(true).expect("nodelay");
    let wire: Vec<u8> = (1..=BURST)
        .flat_map(|id| get_frame(id as i64 - 1, id))
        .collect();
    let served_before = server.requests_served();
    let sent_before = server.wire_bytes().sent;
    // One `write` of a couple of hundred bytes: one loopback segment,
    // one readiness wake, one `read` on the server.
    assert_eq!(raw.write(&wire).expect("write"), wire.len());

    // The server answers from that one wake with one vectored write, so
    // the first `read` here already holds all eight replies.
    let mut buf = [0u8; 4096];
    let n = raw.read(&mut buf).expect("read");
    assert_eq!(n, BURST as usize * reply_len, "the whole burst, at once");
    let mut cursor = &buf[..n];
    for id in 1..=BURST {
        let framed = read_response_enveloped(&mut cursor)
            .expect("decodes")
            .expect("a frame");
        assert_eq!(framed.request_id, id);
        assert_eq!(framed.msg, Response::Got(Some((id as i64 - 1) * 7)));
    }
    assert_eq!(server.requests_served() - served_before, BURST);
    // The loop bumps the sent counter right after the write the client
    // just read from; give it a moment rather than race the scheduler.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.wire_bytes().sent - sent_before != n as u64 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(server.wire_bytes().sent - sent_before, n as u64);
    server.shutdown();
}

#[test]
fn a_peer_that_does_not_read_its_replies_gets_backpressure_not_memory() {
    const FRAMES: u64 = 200_000;
    /// The loop's private reply-backlog bound, one read chunk of the
    /// smallest requests landing on top of it, and slack.
    const QUEUED_MAX: u64 = (256 + 64) * 1024;
    let server = server(ServerConfig::default());
    server.backend().insert(1, 7);
    let reply_len = response_frame(&Response::Got(Some(7)), 0, None).len() as u64;

    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    let mut writer = raw.try_clone().expect("clone");
    let flood = thread::spawn(move || {
        let mut wire = Vec::new();
        for id in 1..=FRAMES {
            wire.extend_from_slice(&get_frame(1, id));
        }
        // Blocks once the server stops reading; resumes as the main
        // thread drains replies.
        writer.write_all(&wire).expect("write the flood");
    });

    // While nothing is read off the flooding connection, every reply
    // the server produced is either in the kernel (counted as sent) or
    // on the connection's queue. The queue must stay bounded, and a
    // second connection must stay responsive.
    let other = Session::connect(server.addr()).expect("connect");
    let mut probes = 0u64;
    let mut stalled_at = None;
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let began = Instant::now();
        assert_eq!(other.get(1).expect("probe"), Some(7));
        assert!(
            began.elapsed() < Duration::from_secs(2),
            "second connection starved: {:?}",
            began.elapsed()
        );
        probes += 1;
        // `served` first: reading the older counter first can only
        // under-estimate what is queued. The probes' own replies are
        // the same length and fully sent.
        let served = server.requests_served();
        let sent = server.wire_bytes().sent;
        let queued = (served * reply_len).saturating_sub(sent);
        assert!(
            queued <= QUEUED_MAX,
            "{queued} reply bytes queued in the server for a peer that is not reading"
        );
        // Stop once the flood has run into the bound (or, with huge
        // kernel buffers, finished) and stayed there for a while.
        let flood_served = served - probes;
        match stalled_at {
            Some((at, since)) if at == flood_served => {
                if Instant::now().duration_since(since) > Duration::from_millis(200) {
                    break;
                }
            }
            _ => stalled_at = Some((flood_served, Instant::now())),
        }
        assert!(Instant::now() < deadline, "flood never settled");
        thread::sleep(Duration::from_millis(5));
    }

    // Now read: every reply arrives, in full, each id exactly once.
    let mut reader = std::io::BufReader::with_capacity(64 * 1024, &mut raw);
    let mut seen = vec![false; FRAMES as usize + 1];
    for _ in 0..FRAMES {
        let framed = read_response_enveloped(&mut reader)
            .expect("decodes")
            .expect("a frame");
        assert_eq!(framed.msg, Response::Got(Some(7)));
        let id = framed.request_id as usize;
        assert!((1..=FRAMES as usize).contains(&id), "id {id}");
        assert!(!std::mem::replace(&mut seen[id], true), "id {id} twice");
    }
    flood.join().expect("flood thread");
    assert_eq!(server.requests_shed(), 0);
    drop(raw);
    server.shutdown();
}

/// A sink that holds every publish (and with it the feed lock) until
/// told to go on — a stand-in for a slow fsync.
struct GatedSink {
    entered: mpsc::SyncSender<Epoch>,
    release: std::sync::Mutex<mpsc::Receiver<()>>,
}

impl FeedSink for GatedSink {
    fn on_publish(
        &self,
        epoch: Epoch,
        _prev: Option<&Arc<dyn ServeSnapshot>>,
        _snap: &Arc<dyn ServeSnapshot>,
    ) {
        self.entered.send(epoch).expect("test is listening");
        self.release
            .lock()
            .expect("never poisoned")
            .recv()
            .expect("test releases");
    }
}

#[test]
fn session_writes_and_reads_do_not_wait_for_a_publish_in_progress() {
    let (entered_tx, entered) = mpsc::sync_channel(1);
    let (release, release_rx) = mpsc::channel();
    let server = server(
        ServerConfig::builder()
            .workers(2)
            .feed_sink(Arc::new(GatedSink {
                entered: entered_tx,
                release: std::sync::Mutex::new(release_rx),
            }))
            .build(),
    );
    let client = Session::connect(server.addr()).expect("connect");
    release.send(()).expect("pre-release epoch 1");
    assert_eq!(client.publish().expect("publish"), 1);
    assert_eq!(entered.recv().expect("sink ran"), 1);

    // Epoch 2 is now stuck in its sink, holding the feed lock.
    let publisher = Session::connect(server.addr()).expect("connect");
    let stuck = publisher.submit(&Request::Publish).expect("submit");
    // Nothing waits on `publisher` until the end, so send it now.
    publisher.flush().expect("flush");
    assert_eq!(entered.recv().expect("sink entered"), 2);

    // A watermarked write still answers — and names epoch 3, because
    // epoch 2's snapshot was taken before it — as does a session read
    // at the visible head, a feed-info request and a metrics scrape.
    let reply = client
        .call(&Request::WriteAt {
            op: BatchOp::Insert(5, 50),
        })
        .expect("write_at");
    assert_eq!(
        reply,
        Response::WroteAt {
            result: BatchResult::Inserted(None),
            watermark: 3
        }
    );
    let reply = client
        .call(&Request::GetAt {
            key: 5,
            min_epoch: 1,
            wait_ms: 0,
        })
        .expect("get_at");
    assert_eq!(
        reply,
        Response::GotAt {
            value: Some(50),
            epoch: 1
        }
    );
    assert_eq!(client.feed_info().expect("feed info").head, 1);
    let rows = client.metrics().expect("scrape");
    assert_eq!(value_of(&rows, Stage::OpenConns), Some(2));

    release.send(()).expect("release epoch 2");
    assert_eq!(stuck.wait().expect("publish"), Response::Published(2));
    assert_eq!(client.feed_info().expect("feed info").head, 2);
    drop(publisher);
    server.shutdown();
}
