//! The leader/follower `Session`: no thread reads the socket except the
//! one that is waiting on it. These tests pin what that design must not
//! get wrong — a reply delivered to the wrong ticket, bytes lost when a
//! deadline fires mid-frame, a follower held past its own deadline by a
//! leader with none, a socket timeout left behind for the next leader,
//! a ticket that outlives its session, pushes queued without bound behind
//! a long ticket wait, a thread per connection creeping back, typed calls
//! that cannot share a session across threads, a corked request nobody
//! sends, a waiter stuck behind a submitter's blocked `write` or blocked
//! in `write` itself while the submitter waits for the lock — and every
//! one runs under a watchdog, so a lost wake-up is a failure with a name
//! rather than a hung job.

use std::io::{self, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use pathcopy_concurrent::{BatchOp, BatchResult};
use pathcopy_core::DiffEntry;
use pathcopy_metrics::Stage;
use pathcopy_server::proto::{
    read_request_enveloped, request_frame, response_frame, FeedInfo, RequestId, PUSH_ID_BASE,
};
use pathcopy_server::{
    backend, value_of, ClientError, PushFrame, Request, Response, ServerConfig, ServerHandle,
    Session, SessionToken, Ticket, WireError,
};

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
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("not finished after {limit:?}: a waiter was never woken")
        }
    }
}

fn server() -> ServerHandle {
    pathcopy_server::spawn(
        backend::by_name("sharded_map_8").expect("backend"),
        ServerConfig::default(),
    )
    .expect("bind ephemeral port")
}

/// A scripted peer: accepts one connection and hands it to `script`
/// together with a reader over the same socket.
fn mock_peer(
    script: impl FnOnce(BufReader<TcpStream>, TcpStream) + Send + 'static,
) -> (std::net::SocketAddr, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind mock");
    let addr = listener.local_addr().expect("addr");
    let peer = thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        script(reader, stream);
    });
    (addr, peer)
}

/// Reads one request off the mock's side and returns its id.
fn next_request(reader: &mut BufReader<TcpStream>) -> (RequestId, Request) {
    let framed = read_request_enveloped(reader)
        .expect("read request")
        .expect("stream open");
    (framed.request_id, framed.msg)
}

fn ack_subscribe(reader: &mut BufReader<TcpStream>, stream: &mut TcpStream) {
    let (id, req) = next_request(reader);
    assert!(matches!(req, Request::SubscribePush { .. }), "saw {req:?}");
    let ack = Response::SubscribeAck(FeedInfo::default());
    stream
        .write_all(&response_frame(&ack, id, None))
        .expect("ack");
}

/// Waits until `attempts` has held still for 500 ms — the thread
/// counting them is stuck in its latest one — and returns it.
fn stalled_at(attempts: &AtomicUsize) -> usize {
    let mut seen = attempts.load(Ordering::SeqCst);
    loop {
        thread::sleep(Duration::from_millis(500));
        let now = attempts.load(Ordering::SeqCst);
        if now == seen && now > 0 {
            return now;
        }
        seen = now;
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

#[test]
fn shared_session_pairs_every_reply_with_its_key() {
    const THREADS: u64 = 8;
    const WINDOW: usize = 8;
    const REQUESTS: usize = 200_000;
    const KEYS: i64 = 4096;

    within(Duration::from_secs(300), || {
        let server = server();
        for k in 0..KEYS {
            server.backend().insert(k, k * 7);
        }
        let session = Arc::new(Session::connect(server.addr()).expect("connect"));
        let loads: Vec<_> = (0..THREADS)
            .map(|t| {
                let session = Arc::clone(&session);
                thread::spawn(move || {
                    let mut rng = 0x9E37_79B9_7F4A_7C15 ^ (t + 1);
                    for _ in 0..REQUESTS / THREADS as usize / WINDOW {
                        let mut window: Vec<_> = (0..WINDOW)
                            .map(|_| {
                                // One key in eight is absent.
                                let key = (xorshift(&mut rng) % (KEYS as u64 * 8 / 7)) as i64;
                                let ticket = session.submit(&Request::Get { key }).expect("submit");
                                (key, ticket)
                            })
                            .collect();
                        // Redeem in an order unrelated to submission.
                        while !window.is_empty() {
                            let at = xorshift(&mut rng) as usize % window.len();
                            let (key, ticket) = window.swap_remove(at);
                            let want = (key < KEYS).then_some(key * 7);
                            match ticket.wait().expect("reply") {
                                Response::Got(v) => assert_eq!(v, want, "key {key}"),
                                other => panic!("unexpected {other:?}"),
                            }
                        }
                    }
                })
            })
            .collect();
        for load in loads {
            load.join().expect("load thread");
        }
        drop(session);
        server.shutdown();
    });
}

#[test]
fn threads_sharing_a_session_make_typed_calls() {
    const THREADS: i64 = 4;
    const ROUNDS: i64 = 300;

    within(Duration::from_secs(120), || {
        let server = server();
        let session = Arc::new(Session::connect(server.addr()).expect("connect"));
        let callers: Vec<_> = (0..THREADS)
            .map(|t| {
                let session = Arc::clone(&session);
                thread::spawn(move || {
                    let mut token = SessionToken::default();
                    for round in 1..=ROUNDS {
                        // Thread `t` owns the keys congruent to `t`, so
                        // every result below is known in advance.
                        let key = round * THREADS + t;
                        let moved = key + (ROUNDS + 1) * THREADS;
                        assert_eq!(session.insert(key, round).expect("insert"), None);
                        assert_eq!(session.get(key).expect("get"), Some(round));
                        assert!(session.cas(key, Some(round), Some(-round)).expect("cas"));
                        assert!(!session.cas(key, Some(round), None).expect("stale cas"));
                        let results = session
                            .batch(&[
                                BatchOp::Get(key),
                                BatchOp::Remove(key),
                                BatchOp::Insert(moved, -round),
                            ])
                            .expect("batch");
                        assert_eq!(
                            results,
                            [
                                BatchResult::Got(Some(-round)),
                                BatchResult::Removed(Some(-round)),
                                BatchResult::Inserted(None),
                            ]
                        );
                        assert_eq!(session.get(key).expect("get"), None);
                        assert_eq!(
                            session.get_at(moved, &mut token, 1000).expect("get_at"),
                            Some(-round)
                        );
                    }
                })
            })
            .collect();
        for caller in callers {
            caller.join().expect("caller thread");
        }
        assert_eq!(
            value_of(&session.metrics().expect("scrape"), Stage::Len),
            Some((THREADS * ROUNDS) as u64)
        );
        drop(session);
        server.shutdown();
    });
}

#[test]
fn deadline_mid_frame_loses_no_bytes() {
    within(Duration::from_secs(60), || {
        let push = Response::Push {
            from: 4,
            epoch: 5,
            entries: (0..200).map(|k| DiffEntry::Added(k, k * 3)).collect(),
        };
        let expected = PushFrame {
            from: 4,
            epoch: 5,
            entries: (0..200).map(|k| DiffEntry::Added(k, k * 3)).collect(),
            trace: None,
        };
        let (half_sent_tx, half_sent) = mpsc::channel::<()>();
        let (timed_out_tx, timed_out) = mpsc::channel::<()>();
        let (addr, peer) = mock_peer(move |mut reader, mut stream| {
            ack_subscribe(&mut reader, &mut stream);
            let (get_id, _) = next_request(&mut reader);
            let frame = response_frame(&push, PUSH_ID_BASE | 5, None);
            let (head, rest) = frame.split_at(frame.len() / 2);
            stream.write_all(head).expect("first half");
            half_sent_tx.send(()).expect("client alive");
            // Stall until the subscriber's deadline has fired mid-frame.
            timed_out.recv().expect("client alive");
            stream.write_all(rest).expect("second half");
            stream
                .write_all(&response_frame(&Response::Got(Some(42)), get_id, None))
                .expect("reply");
        });

        let session = Session::connect(addr).expect("connect");
        let (_info, sub) = session.subscribe(4).expect("subscribe");
        let ticket = session.submit(&Request::Get { key: 6 }).expect("submit");
        // The peer sends half a push only after it has read the `Get`.
        session.flush().expect("flush");
        half_sent.recv().expect("peer alive");
        let quiet = sub.recv_timeout(Duration::from_millis(20));
        assert!(
            matches!(quiet, Ok(None)),
            "half a frame is not a frame: {quiet:?}"
        );
        timed_out_tx.send(()).expect("peer alive");
        let frame = sub
            .recv_timeout(Duration::from_secs(30))
            .expect("session alive")
            .expect("the whole frame");
        assert_eq!(frame, expected);
        match ticket.wait().expect("reply") {
            Response::Got(v) => assert_eq!(v, Some(42)),
            other => panic!("unexpected {other:?}"),
        }
        peer.join().expect("mock peer");
    });
}

#[test]
fn follower_deadline_holds_while_another_thread_leads() {
    within(Duration::from_secs(60), || {
        let (release_tx, release) = mpsc::channel::<()>();
        let (addr, peer) = mock_peer(move |mut reader, mut stream| {
            ack_subscribe(&mut reader, &mut stream);
            let (get_id, _) = next_request(&mut reader);
            // Silent until told: whoever leads meanwhile reads nothing.
            release.recv().expect("client alive");
            stream
                .write_all(&response_frame(&Response::Got(None), get_id, None))
                .expect("reply");
        });
        let session = Session::connect(addr).expect("connect");
        let (_info, sub) = session.subscribe(0).expect("subscribe");
        let ticket = session.submit(&Request::Get { key: 1 }).expect("submit");
        let leader = thread::spawn(move || ticket.wait());
        // Give the ticket's thread time to take the lead (if it has
        // not, the subscriber leads and the deadline still has to hold).
        thread::sleep(Duration::from_millis(50));
        let started = Instant::now();
        let quiet = sub.recv_timeout(Duration::from_millis(50));
        let took = started.elapsed();
        assert!(matches!(quiet, Ok(None)), "{quiet:?}");
        assert!(
            (Duration::from_millis(50)..Duration::from_secs(5)).contains(&took),
            "a 50 ms recv_timeout took {took:?}"
        );
        release_tx.send(()).expect("peer alive");
        match leader.join().expect("leader thread").expect("reply") {
            Response::Got(None) => {}
            other => panic!("unexpected {other:?}"),
        }
        peer.join().expect("mock peer");
    });
}

#[test]
fn ticket_wait_is_not_cut_short_by_a_stale_socket_timeout() {
    within(Duration::from_secs(60), || {
        let server = server();
        let session = Session::connect(server.addr()).expect("connect");
        let (info, sub) = session.subscribe(0).expect("subscribe");
        // Leaves a 5 ms SO_RCVTIMEO on the socket.
        let quiet = sub.recv_timeout(Duration::from_millis(5));
        assert!(matches!(quiet, Ok(None)), "{quiet:?}");
        let started = Instant::now();
        let reply = session.call(&Request::GetAt {
            key: 1,
            min_epoch: info.head + 1,
            wait_ms: 300,
        });
        let took = started.elapsed();
        match reply {
            Err(ClientError::Server(WireError::Stale(at))) => assert_eq!(at, info.head),
            other => panic!("expected Stale after the full wait, got {other:?}"),
        }
        assert!(took >= Duration::from_millis(300), "answered in {took:?}");
        drop(session);
        server.shutdown();
    });
}

#[test]
fn dropping_the_session_fails_parked_tickets() {
    within(Duration::from_secs(60), || {
        let (hang_up_tx, hang_up) = mpsc::channel::<()>();
        let (addr, peer) = mock_peer(move |_reader, _stream| {
            // Never answers; keeps the socket open until the test ends.
            let _ = hang_up.recv();
        });
        let session = Session::connect(addr).expect("connect");
        let parked: Vec<_> = (0..3)
            .map(|key| {
                let ticket = session.submit(&Request::Get { key }).expect("submit");
                thread::spawn(move || ticket.wait())
            })
            .collect();
        let late = session.submit(&Request::Get { key: 3 }).expect("submit");
        // Time for one of the three to take the lead and two to park
        // behind it; a waiter that gets there only after the drop
        // reads the EOF itself and must fail all the same.
        thread::sleep(Duration::from_millis(50));
        drop(session);
        for waiter in parked {
            match waiter.join().expect("waiter thread") {
                Err(ClientError::Io(_) | ClientError::Disconnected) => {}
                other => panic!("expected Io/Disconnected, got {other:?}"),
            }
        }
        // And a ticket first waited on after the session is gone.
        match late.wait() {
            Err(ClientError::Io(_) | ClientError::Disconnected) => {}
            other => panic!("expected Io/Disconnected, got {other:?}"),
        }
        drop(hang_up_tx);
        peer.join().expect("mock peer");
    });
}

#[test]
fn a_long_ticket_wait_queues_a_bounded_run_of_pushes() {
    // More epochs than a session will queue for a subscriber that is
    // not receiving (1 024).
    const EPOCHS: u64 = 1_300;

    within(Duration::from_secs(120), || {
        let server = server();
        let writer = Session::connect(server.addr()).expect("connect");
        let session = Session::connect(server.addr()).expect("connect");
        let (info, sub) = session.subscribe(0).expect("subscribe");
        assert_eq!(info.head, 0);
        let publisher = thread::spawn(move || {
            for epoch in 1..=EPOCHS {
                writer.insert(epoch as i64, 1).expect("insert");
                assert_eq!(writer.publish().expect("publish"), epoch);
            }
        });
        // One ticket, answered only when the feed reaches the last
        // epoch: its thread leads the whole time and reads every push.
        match session.call(&Request::GetAt {
            key: EPOCHS as i64,
            min_epoch: EPOCHS,
            wait_ms: 100_000,
        }) {
            Ok(Response::GotAt { value, epoch }) => assert_eq!((value, epoch), (Some(1), EPOCHS)),
            other => panic!("unexpected {other:?}"),
        }
        publisher.join().expect("publisher");

        // What is left is the tail of the feed: it no longer starts
        // where the subscriber was (a gap, which a replica repairs by
        // pulling), it is contiguous from there, and it is short.
        let mut queued = Vec::new();
        while let Some(frame) = sub.recv_timeout(Duration::from_millis(200)).expect("alive") {
            queued.push((frame.from, frame.epoch));
        }
        assert!(queued[0].0 > 0, "the backlog was dropped: {:?}", queued[0]);
        assert!(queued.len() <= 1024, "{} frames queued", queued.len());
        assert_eq!(queued.last().expect("non-empty").1, EPOCHS);
        for pair in queued.windows(2) {
            assert_eq!(pair[0].1, pair[1].0, "frames out of sequence");
        }
        drop(session);
        server.shutdown();
    });
}

#[cfg(target_os = "linux")]
#[test]
fn connecting_spawns_no_thread() {
    fn threads() -> usize {
        std::fs::read_dir("/proc/self/task")
            .expect("procfs")
            .count()
    }
    within(Duration::from_secs(60), || {
        let server = server();
        // The other tests in this binary start and stop threads of
        // their own, so one equal reading is the evidence: eight reader
        // threads would make every attempt read eight more.
        let mut readings = Vec::new();
        for _ in 0..200 {
            let before = threads();
            let sessions: Vec<_> = (0..8)
                .map(|_| Session::connect(server.addr()).expect("connect"))
                .collect();
            for (key, session) in sessions.iter().enumerate() {
                session
                    .call(&Request::Get { key: key as i64 })
                    .expect("round trip");
            }
            let after = threads();
            drop(sessions);
            if before == after {
                server.shutdown();
                return;
            }
            readings.push((before, after));
            thread::sleep(Duration::from_millis(10));
        }
        panic!("thread count never held still across 8 connects: {readings:?}");
    });
}

#[test]
fn submits_stay_corked_until_a_flush_sends_them_together() {
    within(Duration::from_secs(60), || {
        let (seen_tx, seen) = mpsc::channel();
        let (addr, peer) = mock_peer(move |mut reader, mut stream| {
            let requests: Vec<_> = (0..8).map(|_| next_request(&mut reader)).collect();
            for &(id, _) in &requests {
                let reply = Response::Got(Some(id as i64));
                stream
                    .write_all(&response_frame(&reply, id, None))
                    .expect("reply");
            }
            seen_tx.send(requests).expect("test alive");
        });
        let session = Session::connect(addr).expect("connect");
        let before = session.wire_bytes().sent;
        let requests: Vec<_> = (0..8).map(|key| Request::Get { key }).collect();
        let tickets: Vec<_> = requests
            .iter()
            .map(|req| session.submit(req).expect("submit"))
            .collect();
        assert_eq!(session.wire_bytes().sent, before, "a submit wrote");

        session.flush().expect("flush");
        let frames: usize = requests
            .iter()
            .zip(&tickets)
            .map(|(req, t)| request_frame(req, t.id(), None).expect("small").len())
            .sum();
        assert_eq!(session.wire_bytes().sent - before, frames as u64);
        let ids: Vec<_> = tickets.iter().map(Ticket::id).collect();
        let sent: Vec<_> = ids.iter().copied().zip(requests).collect();
        assert_eq!(seen.recv().expect("peer decoded all 8"), sent);
        for (id, ticket) in ids.into_iter().zip(tickets) {
            assert_eq!(
                ticket.wait().expect("reply"),
                Response::Got(Some(id as i64))
            );
        }
        peer.join().expect("mock peer");
    });
}

#[test]
fn a_dropped_unredeemed_ticket_still_executes() {
    within(Duration::from_secs(60), || {
        let server = server();
        let session = Session::connect(server.addr()).expect("connect");
        drop(
            session
                .submit(&Request::Insert { key: 9, value: 90 })
                .expect("submit"),
        );
        // `session` stays open and nothing waits on it: only the drop
        // can have sent the insert.
        let other = Session::connect(server.addr()).expect("connect");
        let deadline = Instant::now() + Duration::from_secs(30);
        while other.get(9).expect("get") != Some(90) {
            assert!(Instant::now() < deadline, "the abandoned insert never ran");
            thread::sleep(Duration::from_millis(1));
        }
        drop((session, other));
        server.shutdown();
    });
}

#[test]
fn a_waiter_never_waits_for_a_submitter_stuck_in_write() {
    within(Duration::from_secs(60), || {
        let (answer_tx, answer) = mpsc::channel::<()>();
        let (drain_tx, drain) = mpsc::channel::<()>();
        let (addr, peer) = mock_peer(move |mut reader, mut stream| {
            let (get_id, _) = next_request(&mut reader);
            // Reads nothing more until told: the flood behind the `Get`
            // fills the socket.
            answer.recv().expect("client alive");
            stream
                .write_all(&response_frame(&Response::Got(Some(1)), get_id, None))
                .expect("reply");
            drain.recv().expect("client alive");
            io::copy(&mut reader, &mut io::sink()).expect("drain");
        });
        let session = Arc::new(Session::connect(addr).expect("connect"));
        let ticket = session.submit(&Request::Get { key: 1 }).expect("submit");
        session.flush().expect("flush");

        // ~1 MB batches until one `write` blocks, holding the writer
        // lock: the peer reads nothing, so however much the host's
        // socket buffers hold, some batch fills them — and a reply from
        // the peer frees too little window to finish it.
        let attempts = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let flood = {
            let (session, attempts, stop) = (
                Arc::clone(&session),
                Arc::clone(&attempts),
                Arc::clone(&stop),
            );
            thread::spawn(move || {
                let batch = Request::Batch {
                    ops: (0..60_000).map(|k| BatchOp::Insert(k, k)).collect(),
                    guarded: false,
                };
                while !stop.load(Ordering::SeqCst) {
                    attempts.fetch_add(1, Ordering::SeqCst);
                    drop(session.submit(&batch).expect("submit"));
                }
            })
        };
        stalled_at(&attempts);

        // The flood's thread is in `write` with the lock; the waiter
        // must read rather than wait for it.
        answer_tx.send(()).expect("peer alive");
        assert_eq!(ticket.wait().expect("reply"), Response::Got(Some(1)));
        stop.store(true, Ordering::SeqCst);
        drain_tx.send(()).expect("peer alive");
        flood.join().expect("flood thread");
        drop(session);
        peer.join().expect("mock peer");
    });
}

#[test]
fn a_submitter_never_waits_for_a_waiter_stuck_in_write() {
    within(Duration::from_secs(120), || {
        // Answers every request with ~1 KiB and reads the next one only
        // once that answer is written, as a server does: a client that
        // stops reading soon stops the peer reading too.
        let (addr, peer) = mock_peer(|mut reader, mut stream| {
            let answer = Response::Batch(vec![BatchResult::Inserted(Some(0)); 100]);
            while let Ok(Some(framed)) = read_request_enveloped(&mut reader) {
                let frame = response_frame(&answer, framed.request_id, None);
                if stream.write_all(&frame).is_err() {
                    break;
                }
            }
        });
        let session = Arc::new(Session::connect(addr).expect("connect"));
        let attempts = Arc::new(AtomicUsize::new(0));
        let (limit_tx, limit) = mpsc::channel::<usize>();
        let (tickets_tx, tickets) = mpsc::channel::<Ticket>();
        let producer = {
            let (session, attempts) = (Arc::clone(&session), Arc::clone(&attempts));
            thread::spawn(move || {
                let mut last = usize::MAX;
                while attempts.load(Ordering::SeqCst) < last {
                    attempts.fetch_add(1, Ordering::SeqCst);
                    let ticket = session.submit(&Request::Get { key: 1 }).expect("submit");
                    tickets_tx.send(ticket).expect("consumer alive");
                    if let Ok(limit) = limit.try_recv() {
                        last = limit;
                    }
                }
            })
        };
        // Nobody reads, so the peer stops reading and a submit blocks
        // in `write`.
        let stuck = stalled_at(&attempts);

        // Two socketfuls more, while this thread redeems the tickets
        // late. Between the producer's writes the writer lock is free
        // to a waiter — which must not then block in `write` itself,
        // leaving the producer parked on the lock and nobody reading.
        limit_tx.send(3 * stuck).expect("producer alive");
        let mut redeemed = 0;
        for ticket in tickets {
            match ticket.wait().expect("reply") {
                Response::Batch(results) => assert_eq!(results.len(), 100),
                other => panic!("unexpected {other:?}"),
            }
            redeemed += 1;
        }
        assert_eq!(redeemed, 3 * stuck);
        producer.join().expect("producer");
        drop(session);
        peer.join().expect("mock peer");
    });
}
