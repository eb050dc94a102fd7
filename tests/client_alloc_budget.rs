//! Allocation budget of the wire client: once a `Session` is warm, a
//! pipelined `submit(Get)` + `wait` round trip calls the global
//! allocator **zero** times — the request is encoded into a buffer the
//! session reuses, the reply is decoded in place from its reassembly
//! buffer, and the ticket's slot lives in a ring, not in a channel. It
//! used to be at least three (a channel per ticket, a `Vec` per request
//! frame, a `Vec` per reply body). The count is the same on any host,
//! which is what makes it a gate where a timing could not be.
//!
//! The peer is in this process, so it must not allocate either: a fixed
//! read buffer and one pre-encoded `Got` frame with the request's id
//! patched in. The counting allocator is process-wide, so this file
//! holds one test.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::thread;

use path_copying::pathcopy_server::proto::{request_frame, response_frame};
use path_copying::pathcopy_server::{Request, Response, Session};
use pathcopy_bench::alloc_counter::{self, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Where the correlation id sits in a frame: after the length prefix
/// and the version byte.
const ID_AT: std::ops::Range<usize> = 5..13;

/// Answers every `Get` frame with `Got(Some(7))` under the id it came
/// with, until the client hangs up.
fn canned_peer(listener: TcpListener) {
    let (mut stream, _) = listener.accept().expect("accept");
    stream.set_nodelay(true).expect("nodelay");
    let request_len = request_frame(&Request::Get { key: 0 }, 0, None)
        .expect("small frame")
        .len();
    let mut reply = response_frame(&Response::Got(Some(7)), 0, None);
    let mut buf = [0u8; 4096];
    let mut filled = 0;
    loop {
        match stream.read(&mut buf[filled..]) {
            Ok(0) | Err(_) => return,
            Ok(n) => filled += n,
        }
        let mut pos = 0;
        while filled - pos >= request_len {
            reply[ID_AT].copy_from_slice(&buf[pos..][ID_AT]);
            if stream.write_all(&reply).is_err() {
                return;
            }
            pos += request_len;
        }
        buf.copy_within(pos..filled, 0);
        filled -= pos;
    }
}

#[test]
fn warm_pipelined_round_trips_never_reach_the_global_allocator() {
    const WINDOW: usize = 8;
    const ROUND_TRIPS: u64 = 20_000;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let peer = thread::spawn(move || canned_peer(listener));
    let session = Session::connect(addr).expect("connect");

    let mut window = VecDeque::with_capacity(WINDOW);
    let mut run = |round_trips: u64| {
        for key in 0..round_trips as i64 {
            if window.len() == WINDOW {
                let ticket: path_copying::pathcopy_server::Ticket =
                    window.pop_front().expect("full window");
                match ticket.wait().expect("reply") {
                    Response::Got(Some(7)) => {}
                    other => panic!("unexpected {other:?}"),
                }
            }
            window.push_back(session.submit(&Request::Get { key }).expect("submit"));
        }
    };
    // Reach the steady state: buffers at their working size.
    run(1_000);

    let before = alloc_counter::allocations();
    run(ROUND_TRIPS);
    let calls = alloc_counter::allocations() - before;
    assert_eq!(
        calls, 0,
        "{calls} global allocations over {ROUND_TRIPS} pipelined round trips (budget 0)"
    );

    drop(window);
    drop(session);
    peer.join().expect("canned peer");
}
