//! The node pool's bounds, checked from outside the crate: memory held
//! does not grow when the thread that frees is not the thread that
//! allocates, when threads come and go, or when a `PoolArc` outlives its
//! thread's magazines.
//!
//! The tests read process-wide counters, so they take turns.

use std::cell::RefCell;
use std::sync::mpsc::sync_channel;
use std::sync::{Mutex, MutexGuard, PoisonError};

use pathcopy_core::pool::{self, PoolArc};

/// A payload that fills one 64-byte block exactly (count + 56 bytes).
type Line = [u64; 7];

fn take_turns() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One thread only allocates, one only frees. Every block the consumer
/// frees has to find its way back to the producer through the depot;
/// with a plain per-thread free list the consumer would keep all ten
/// million blocks, 640 MB.
#[test]
fn asymmetric_alloc_and_free_reuses_memory() {
    const BLOCKS: usize = 10_000_000;
    const BATCH: usize = 1_000;
    /// Batches in flight between the two threads.
    const IN_FLIGHT: usize = 4;
    /// The pool's geometry: blocks per magazine, bytes per slab.
    const MAGAZINE_BLOCKS: usize = 256;
    const SLAB_BYTES: u64 = 2 << 20;
    /// Blocks in flight: the channel, one batch being built and one
    /// being dropped.
    const MAX_IN_FLIGHT: usize = (IN_FLIGHT + 2) * BATCH;
    /// What the pool may carve: the blocks in flight, two magazines for
    /// each of the two threads, and one slab for rounding up to whole
    /// slabs.
    const MAX_NEW_BYTES: u64 = ((MAX_IN_FLIGHT + 2 * 2 * MAGAZINE_BLOCKS)
        * PoolArc::<Line>::BLOCK_BYTES) as u64
        + SLAB_BYTES;

    let _turn = take_turns();
    let before = pool::stats();
    let (tx, rx) = sync_channel::<Vec<PoolArc<Line>>>(IN_FLIGHT);
    std::thread::scope(|s| {
        let producer = s.spawn(move || {
            for batch in 0..BLOCKS / BATCH {
                let blocks = (0..BATCH)
                    .map(|i| PoolArc::new([(batch * BATCH + i) as u64; 7]))
                    .collect();
                tx.send(blocks).expect("consumer hung up");
            }
        });
        let consumer = s.spawn(move || {
            let mut seen = 0usize;
            for blocks in rx {
                for (i, block) in blocks.iter().enumerate() {
                    assert_eq!(block[6], (seen + i) as u64, "block contents survived");
                }
                seen += blocks.len();
            }
            assert_eq!(seen, BLOCKS);
        });
        // Join explicitly: the scope's own wait ends when each closure
        // returns, which can be before the thread's exit runs the pool's
        // thread-local destructor; that destructor folds the thread's
        // last unfolded allocation count into the shared counters that
        // `pool::stats` reads. A join waits for the whole thread exit.
        producer.join().expect("producer panicked");
        consumer.join().expect("consumer panicked");
    });
    let after = pool::stats();
    assert!(after.blocks_handed_out - before.blocks_handed_out >= BLOCKS as u64);
    let carved = after.slab_bytes - before.slab_bytes;
    assert!(
        carved <= MAX_NEW_BYTES,
        "{carved} bytes carved for {BLOCKS} blocks with at most {MAX_IN_FLIGHT} in flight"
    );
    assert!(
        after.depot_exchanges > before.depot_exchanges,
        "blocks crossed threads through the depot"
    );
}

/// A thread's magazines go back to the depot when it exits, so the next
/// thread reuses them: a thousand threads need the memory of one.
#[test]
fn exited_threads_return_their_magazines() {
    let _turn = take_turns();
    let churn = || {
        std::thread::spawn(|| {
            let held: Vec<PoolArc<Line>> = (0..3_000).map(|i| PoolArc::new([i; 7])).collect();
            drop(held);
        })
        .join()
        .expect("worker panicked");
    };
    churn();
    let one_thread = pool::stats();
    for _ in 0..1_000 {
        churn();
    }
    let after = pool::stats();
    assert_eq!(after.slabs_carved, one_thread.slabs_carved);
    assert_eq!(
        after.depot_blocks, one_thread.depot_blocks,
        "every exit parks what the thread took"
    );
}

thread_local! {
    /// Outlives or predeceases the pool's own thread-local, depending on
    /// which was touched first; its destructor frees and allocates.
    static STRAGGLERS: RefCell<Stragglers> = const { RefCell::new(Stragglers(Vec::new())) };
}

struct Stragglers(Vec<PoolArc<Line>>);

impl Drop for Stragglers {
    fn drop(&mut self) {
        self.0.clear();
        // Allocation during teardown works too.
        let late = PoolArc::new([9u64; 7]);
        assert_eq!(late[0], 9);
    }
}

/// Thread-local destructors run in an order the program does not
/// control, so a `PoolArc` can be dropped (or made) after its thread's
/// magazines are gone. Both registration orders are driven; whichever
/// one tears the pool down first exercises the depot fallback. Neither
/// may panic, leak, or carve.
#[test]
fn pool_arcs_survive_thread_local_teardown() {
    let _turn = take_turns();
    let run = |pool_first: bool| {
        std::thread::spawn(move || {
            if pool_first {
                drop(PoolArc::new([0u64; 7]));
            }
            STRAGGLERS.with(|s| {
                s.borrow_mut()
                    .0
                    .extend((0..600u64).map(|i| PoolArc::new([i; 7])));
            });
        })
        .join()
        .expect("teardown panicked");
    };
    run(true);
    run(false);
    let warmed = pool::stats();
    #[cfg(debug_assertions)]
    let live = pool::live_blocks();
    for _ in 0..100 {
        run(true);
        run(false);
    }
    let after = pool::stats();
    assert_eq!(after.slabs_carved, warmed.slabs_carved);
    assert_eq!(after.depot_blocks, warmed.depot_blocks);
    #[cfg(debug_assertions)]
    assert_eq!(pool::live_blocks(), live);
}
