//! Allocation budget of the update loop: a steady-state `insert` or
//! `remove` on the lock-free treap map may call the global allocator for
//! the new version's `Arc`, the deferred drop of the old one and (one
//! time in four) the epoch bag — never once per copied node. Node memory
//! comes from `pathcopy_core::pool`; this test is what stops a later
//! change from quietly putting `malloc` back in the loop.
//!
//! The counting allocator is process-wide, so this file holds one test.

use path_copying::pathcopy_concurrent::TreapMap;
use path_copying::pathcopy_core::pool;
use path_copying::pathcopy_trees::hash::splitmix64;
use pathcopy_bench::alloc_counter::{self, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_updates_stay_within_three_global_allocations() {
    const KEYS: i64 = 1 << 16;
    const UPDATES: u64 = 20_000;

    let map: TreapMap<i64, i64> = TreapMap::new();
    for k in 0..KEYS {
        map.insert(k * 2, k);
    }
    let run = |updates: u64, mut x: u64| {
        for _ in 0..updates {
            x = splitmix64(x);
            let key = (x % (2 * KEYS as u64)) as i64;
            if x & (1 << 40) == 0 {
                map.insert(key, key);
            } else {
                map.remove(&key);
            }
        }
    };
    // Reach the steady state: magazines loaded, epoch queue primed.
    run(UPDATES, 1);

    let nodes_before = pool::stats().blocks_handed_out;
    let calls_before = alloc_counter::allocations();
    run(UPDATES, 2);
    let calls = alloc_counter::allocations() - calls_before;
    let nodes = pool::stats().blocks_handed_out - nodes_before;

    let per_update = calls as f64 / UPDATES as f64;
    assert!(
        per_update <= 3.0,
        "{per_update:.2} global allocations per update (budget 3)"
    );
    // The work did not go away, it moved: about a quarter of the updates
    // are no-ops, the rest copy a ~20-node path.
    let nodes_per_update = nodes as f64 / UPDATES as f64;
    assert!(
        nodes_per_update >= 8.0,
        "{nodes_per_update:.2} pool nodes per update: is the treap still pooled?"
    );
}
