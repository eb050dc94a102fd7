//! Atomic batch transactions in action: a miniature bank.
//!
//! Every account lives in one path-copying map, under one root.
//! Transfer threads move money between random account pairs with a
//! single `transact` batch — debit and credit are one new version and
//! one root CAS, so they commit as one linearizable unit. An auditor
//! thread takes O(1) snapshots the whole time; because batches are
//! atomic, every snapshot balances to the initial total, down to the
//! cent.
//!
//! ```text
//! cargo run --release --example batch_txn_demo
//! ```

use path_copying::prelude::{BatchOp, BatchResult, TreapMap};

const ACCOUNTS: u64 = 256;
const OPENING_BALANCE: i64 = 1_000;
const TRANSFER_THREADS: u64 = 4;
const TRANSFERS_PER_THREAD: u64 = 5_000;

fn main() {
    let bank: TreapMap<u64, i64> = TreapMap::new();

    // Open every account in one atomic batch.
    let opening: Vec<_> = (0..ACCOUNTS)
        .map(|a| BatchOp::Insert(a, OPENING_BALANCE))
        .collect();
    bank.transact(&opening);
    let total = (ACCOUNTS as i64) * OPENING_BALANCE;
    println!("opened {ACCOUNTS} accounts, total balance {total}");

    let audits = std::sync::atomic::AtomicU64::new(0);
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        // Transfer threads: read both balances and move funds in ONE
        // batch — the read and both writes share a linearization point.
        let transfers: Vec<_> = (0..TRANSFER_THREADS)
            .map(|t| {
                let bank = &bank;
                s.spawn(move || {
                    // Each thread owns a disjoint slice of accounts (the
                    // point here is atomicity of the pair; contended
                    // ownership is the Cas example further down).
                    let per = ACCOUNTS / TRANSFER_THREADS;
                    let base = t * per;
                    let mut balances = vec![OPENING_BALANCE; per as usize];
                    let mut x = 0x9e3779b97f4a7c15u64.wrapping_mul(t + 1);
                    for _ in 0..TRANSFERS_PER_THREAD {
                        x = path_copying::pathcopy_trees::hash::splitmix64(x);
                        let from = (x % per) as usize;
                        let to = ((x >> 32) % per) as usize;
                        if from == to {
                            continue;
                        }
                        let amount = (x % 97) as i64 + 1;
                        balances[from] -= amount;
                        balances[to] += amount;
                        // Debit and credit flip as one atomic unit: no
                        // auditor snapshot can ever see the money in
                        // flight.
                        bank.transact(&[
                            BatchOp::Insert(base + from as u64, balances[from]),
                            BatchOp::Insert(base + to as u64, balances[to]),
                        ]);
                    }
                })
            })
            .collect();

        // Auditor: every snapshot must balance.
        let bank = &bank;
        let done_ref = &done;
        let audits_ref = &audits;
        let auditor = s.spawn(move || {
            while !done_ref.load(std::sync::atomic::Ordering::Relaxed) {
                let cut = bank.snapshot();
                let sum: i64 = cut.iter().map(|(_, v)| *v).sum();
                assert_eq!(
                    sum,
                    total,
                    "torn transfer observed: books off by {}",
                    sum - total
                );
                audits_ref.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        });

        for h in transfers {
            h.join().expect("transfer thread panicked");
        }
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        auditor.join().expect("auditor panicked");
    });

    let final_cut = bank.snapshot();
    let sum: i64 = final_cut.iter().map(|(_, v)| *v).sum();
    println!(
        "after {} transfers: total balance {sum} (audited {} snapshots)",
        TRANSFER_THREADS * TRANSFERS_PER_THREAD,
        audits.load(std::sync::atomic::Ordering::Relaxed)
    );
    assert_eq!(sum, total);

    let stats = bank.stats().snapshot();
    println!(
        "UC stats: {} CAS-loop ops (one per batch), {} failed CASes, mean attempts {:.2}",
        stats.ops,
        stats.cas_failures,
        stats.mean_attempts()
    );

    // Cas is per-op conditional: a failed comparison reports Cas(false)
    // without aborting the rest of the batch.
    let r = bank.transact(&[BatchOp::Get(0)]);
    let BatchResult::Got(Some(balance)) = r[0] else {
        unreachable!("account 0 exists")
    };
    let r = bank.transact(&[
        BatchOp::Cas {
            key: 0,
            expected: Some(balance),
            new: Some(balance),
        },
        BatchOp::Cas {
            key: 1,
            expected: Some(i64::MIN),
            new: Some(0),
        },
    ]);
    assert_eq!(r, vec![BatchResult::Cas(true), BatchResult::Cas(false)]);
    println!("per-op Cas semantics: {r:?}");

    // A set with batches is a map to `()`: one batch inserts several
    // keys atomically, and a repeated key reports it was already there.
    let seen: TreapMap<u64, ()> = TreapMap::new();
    let fresh: Vec<bool> = seen
        .transact(&[1, 2, 3, 2].map(|k| BatchOp::Insert(k, ())))
        .into_iter()
        .map(|r| r == BatchResult::Inserted(None))
        .collect();
    println!("set: insert [1,2,3,2] in one batch -> {fresh:?}");
    assert_eq!(fresh, vec![true, true, true, false]);
}
