//! Isolated layer probes: each times one layer's public function from
//! outside, single-threaded, at the workload's sizes. They are the
//! bottom rungs of the ladder — `trees` → `core` UC → `concurrent`
//! sharded → `dyn ServeBackend` → serial round trip — and each layer's
//! tax is the delta from the rung below.
//!
//! A layer's probes run in the traced pass of the workload that owns the
//! layer (`trees`/`core`/`sim` with `engine_update`, `concurrent` with
//! `engine_read_scan`, `server` with `wire_pipelined`, `durable` with
//! `wire_durable_fanout`), so no workload's trace holds spans of a
//! layer it does not exercise.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pathcopy_concurrent::{BatchOp, ShardedTreapMap, TreapMap};
use pathcopy_core::{DiffEntry, MapSnapshot as _, SeqUc, Update, VersionCell};
use pathcopy_durable::{EpochLog, LogConfig};
use pathcopy_metrics::LatencyHistogram;
use pathcopy_server::backend::{self, ServeBackend, ShardedServe};
use pathcopy_server::proto::{read_request_enveloped, write_request_with_id};
use pathcopy_server::{Client, Request, ServerConfig};
use pathcopy_trees::TreapMap as PTreapMap;
use pathcopy_workloads::RandomWorkload;

use crate::alloc;
use crate::engine::{prefilled, prefilled_sharded};
use crate::ops::{self, EngineSize, SHARDS, WIRE_KEYS, WIRE_PREFILL};
use crate::spans;
use crate::stats;
use crate::wire::{prefill, WORKERS};

/// Layer metrics by ledger name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// How long the probes may run.
#[derive(Debug, Clone)]
pub struct ProbeCfg {
    /// Seed the probe keys are drawn from.
    pub seed: u64,
    /// Load threads of the workloads (the `P` of the cache model).
    pub threads: usize,
    /// Size of the structures the engine-layer probes run on.
    pub engine: EngineSize,
    /// Budget of one timed probe.
    pub each: Duration,
    /// Length of the single-thread `SeqUc` baseline and of the serial
    /// round-trip probe.
    pub long: Duration,
}

/// Cache size (nodes) and RAM-to-cache cost ratio the Appendix-A model
/// is evaluated at — `model_figures`' defaults.
pub const SIM_M: f64 = 32_768.0;
/// See [`SIM_M`].
pub const SIM_R: f64 = 100.0;

const BATCH: usize = 512;
const DIFF_CHANGES: usize = 64;

/// Median nanoseconds per call of `call`, over batches of [`BATCH`]
/// calls, for about `budget` (at least five batches). `call` receives a
/// running index to pick its key with.
fn ns_per_call(budget: Duration, mut call: impl FnMut(usize)) -> f64 {
    let deadline = Instant::now() + budget;
    let mut batches = Vec::new();
    let mut i = 0;
    while batches.len() < 5 || Instant::now() < deadline {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            call(i);
            i += 1;
        }
        batches.push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    stats::median(&batches)
}

/// [`ns_per_call`] for a pair of operations that undo each other
/// (insert then remove the same keys), so the structure is the same
/// size at every batch. Returns `(first, second)` medians.
fn ns_per_pair(
    budget: Duration,
    mut first: impl FnMut(usize),
    mut second: impl FnMut(usize),
) -> (f64, f64) {
    let deadline = Instant::now() + budget;
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let mut i = 0;
    while a.len() < 5 || Instant::now() < deadline {
        let t0 = Instant::now();
        for j in 0..BATCH {
            first(i + j);
        }
        let t1 = Instant::now();
        for j in 0..BATCH {
            second(i + j);
        }
        a.push((t1 - t0).as_nanos() as f64 / BATCH as f64);
        b.push(t1.elapsed().as_nanos() as f64 / BATCH as f64);
        i += BATCH;
    }
    (stats::median(&a), stats::median(&b))
}

/// Probe keys over the engine key space, split by whether the prefilled
/// structure holds them: inserting an `absent` key and removing a
/// `present` one always copies a path, wherever in the tree it is.
struct Keys {
    present: Vec<i64>,
    absent: Vec<i64>,
    /// Uniform draws, about half of them present (the lookup mix).
    any: Vec<i64>,
}

fn probe_keys(seed: u64, half_range: i64, shift: i64, holds: impl Fn(i64) -> bool) -> Keys {
    let any: Vec<i64> = RandomWorkload::generate(1, 1 << 16, half_range, seed ^ 0x70_72_6f_62)
        .prefill
        .into_iter()
        .map(|k| k + shift)
        .collect();
    let (present, absent) = any.iter().partition(|&&k| holds(k));
    Keys {
        present,
        absent,
        any,
    }
}

fn pick(keys: &[i64], i: usize) -> i64 {
    keys[i % keys.len()]
}

/// `trees.*`, `core.*` and `sim.predicted_speedup`: the persistent
/// treap's own operations, the universal construction around them, the
/// single-thread `SeqUc` baseline, and the cache model's prediction.
pub fn engine_update(cfg: &ProbeCfg) -> Metrics {
    let mut out = Metrics::new();
    // The same contents and op streams `engine_update` itself starts from.
    let size = cfg.engine;
    let inputs = ops::update_inputs(cfg.seed, cfg.threads, size);
    let base: PTreapMap<i64, i64> = prefilled(&inputs.prefill);
    let keys = probe_keys(cfg.seed, size.key_range, 0, |k| base.contains_key(&k));

    // trees: every call starts from the same immutable version, so the
    // new version (and the path it copied) is dropped inside the timing.
    out.insert(
        "trees.insert_ns",
        ns_per_call(cfg.each, |i| {
            let k = pick(&keys.absent, i);
            black_box(base.insert(k, k));
        }),
    );
    out.insert(
        "trees.remove_ns",
        ns_per_call(cfg.each, |i| {
            black_box(base.remove(&pick(&keys.present, i)));
        }),
    );
    out.insert(
        "trees.get_ns",
        ns_per_call(cfg.each, |i| {
            black_box(base.get(&pick(&keys.any, i)));
        }),
    );
    out.insert(
        "trees.range100_ns",
        ns_per_call(cfg.each, |i| {
            black_box(
                base.range(pick(&keys.any, i)..)
                    .take(ops::SCAN_KEYS)
                    .count(),
            );
        }),
    );
    let path: usize = keys.any.iter().map(|k| base.path_len(k)).sum();
    out.insert("trees.path_len", path as f64 / keys.any.len() as f64);

    // Allocation per update: the calling thread's own counters, so the
    // numbers are exact (and 0 in the untraced binary, which does not
    // install the counting allocator and does not run probes).
    let updates = 4096;
    let (allocs0, bytes0) = alloc::thread_counts();
    for i in 0..updates {
        let k = pick(&keys.absent, i);
        black_box(base.insert(k, k));
        black_box(base.remove(&pick(&keys.present, i)));
    }
    let (allocs1, bytes1) = alloc::thread_counts();
    out.insert(
        "trees.allocs_per_update",
        (allocs1 - allocs0) as f64 / (2 * updates) as f64,
    );
    out.insert(
        "trees.alloc_bytes_per_update",
        (bytes1 - bytes0) as f64 / (2 * updates) as f64,
    );

    let mut newer = base.clone();
    for i in 0..DIFF_CHANGES / 2 {
        let k = pick(&keys.absent, i);
        newer = newer.insert(k, k).0;
        if let Some((next, _)) = newer.remove(&pick(&keys.present, i)) {
            newer = next;
        }
    }
    let (entries, visited) = base.diff_counted(&newer);
    out.insert(
        "trees.diff_nodes_per_change",
        visited as f64 / entries.len().max(1) as f64,
    );

    // core: the same insert and remove through the universal
    // construction, one thread, so every CAS succeeds first time.
    let uc = TreapMap::from_version(base.clone());
    let (insert_ns, _) = ns_per_pair(
        cfg.each,
        |i| {
            let k = pick(&keys.absent, i);
            black_box(uc.insert_reported(k, k));
        },
        |i| {
            black_box(uc.remove_reported(&pick(&keys.absent, i)));
        },
    );
    out.insert("core.uc_update_ns", insert_ns);

    let cell = VersionCell::new(0u64);
    out.insert(
        "core.load_ns",
        ns_per_call(cfg.each, |_| {
            black_box(cell.load());
        }),
    );
    let mut current = cell.load();
    out.insert(
        "core.cas_ns",
        ns_per_call(cfg.each, |i| {
            let next = Arc::new(i as u64);
            if cell.compare_exchange(&current, Arc::clone(&next)).is_ok() {
                current = next;
            }
        }),
    );

    // The paper's "Seq Treap" column: thread 0's op stream, one thread,
    // no synchronisation. Median rate of five slices.
    let stream = &inputs.ops[0];
    let mut seq = SeqUc::new(base.clone());
    let mut next = 0;
    let slice = cfg.long / 5;
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut done = 0u64;
            while t0.elapsed() < slice {
                for _ in 0..BATCH {
                    let (key, insert) = ops::unpack_update(stream[next], size);
                    next = (next + 1) % stream.len();
                    if insert {
                        seq.update(|m| {
                            let (next, old) = m.insert(key, key);
                            Update::Replace(next, old)
                        });
                    } else {
                        seq.update(|m| match m.remove(&key) {
                            Some((next, old)) => Update::Replace(next, Some(old)),
                            None => Update::Keep(None),
                        });
                    }
                }
                done += BATCH as u64;
            }
            done as f64 / t0.elapsed().as_secs_f64()
        })
        .collect();
    out.insert("core.seq_ops_per_s", stats::median(&rates));

    out.insert(
        "sim.predicted_speedup",
        pathcopy_sim::model_speedup(cfg.threads as f64, size.prefill as f64, SIM_M, SIM_R),
    );
    out
}

/// `concurrent.*`: the sharded map's point operations, 1- and 4-op
/// `transact`, `snapshot_all` and snapshot diff.
pub fn engine_read_scan(cfg: &ProbeCfg) -> Metrics {
    let mut out = Metrics::new();
    // The same contents `engine_read_scan` itself starts from.
    let size = cfg.engine;
    let map: ShardedTreapMap<i64, i64> = prefilled_sharded(&ops::prefill_keys(
        size.key_range,
        size.key_range,
        size.prefill,
        cfg.seed,
    ));
    let keys = probe_keys(cfg.seed, size.key_range, size.key_range, |k| {
        map.contains_key(&k)
    });

    out.insert(
        "concurrent.get_ns",
        ns_per_call(cfg.each, |i| {
            black_box(map.get(&pick(&keys.any, i)));
        }),
    );
    let (insert_ns, remove_ns) = ns_per_pair(
        cfg.each,
        |i| {
            let k = pick(&keys.absent, i);
            black_box(map.insert(k, k));
        },
        |i| {
            black_box(map.remove(&pick(&keys.absent, i)));
        },
    );
    out.insert("concurrent.insert_ns", insert_ns);
    out.insert("concurrent.remove_ns", remove_ns);

    // One op: the single-shard path. Four ops on four uniform keys: the
    // multi-shard freeze path (all four on one of 8 shards: 1 in 512).
    let (ins1, rem1) = ns_per_pair(
        cfg.each,
        |i| {
            let k = pick(&keys.absent, i);
            black_box(map.transact(&[BatchOp::Insert(k, k)]));
        },
        |i| {
            black_box(map.transact(&[BatchOp::Remove(pick(&keys.absent, i))]));
        },
    );
    out.insert("concurrent.transact1_ns", (ins1 + rem1) / 2.0);
    let four = |i: usize| -> [i64; 4] { std::array::from_fn(|j| pick(&keys.absent, 4 * i + j)) };
    let (ins4, rem4) = ns_per_pair(
        cfg.each,
        |i| {
            black_box(map.transact(&four(i).map(|k| BatchOp::Insert(k, k))));
        },
        |i| {
            black_box(map.transact(&four(i).map(BatchOp::Remove)));
        },
    );
    out.insert("concurrent.transact4_ns", (ins4 + rem4) / 2.0);

    out.insert(
        "concurrent.snapshot_all_ns",
        ns_per_call(cfg.each, |_| {
            black_box(map.snapshot_all());
        }),
    );

    let older = map.snapshot_all();
    for i in 0..DIFF_CHANGES {
        let k = pick(&keys.absent, i);
        map.insert(k, k);
    }
    let newer = map.snapshot_all();
    let changes = older.diff(&newer).len().max(1);
    out.insert(
        "concurrent.diff_ns_per_change",
        ns_per_call(cfg.each, |_| {
            black_box(older.diff(&newer));
        }) / changes as f64,
    );
    out
}

/// `server.*` probes and `metrics.scrape_us`: the backend through
/// `Box<dyn ServeBackend>`, frame encode/decode, and one serial
/// `Client::get` round trip at a time.
pub fn wire_pipelined(cfg: &ProbeCfg) -> Metrics {
    let mut out = Metrics::new();

    // Same contents as the `concurrent` probes, so the difference to
    // `concurrent.get_ns` / `concurrent.insert_ns` is the dyn dispatch.
    let size = cfg.engine;
    let store: Box<dyn ServeBackend> = backend::by_name("sharded_map_8").expect("registered");
    prefill(
        store.as_ref(),
        &ops::prefill_keys(size.key_range, size.key_range, size.prefill, cfg.seed),
    );
    let keys = probe_keys(cfg.seed, size.key_range, size.key_range, |k| {
        store.get(k).is_some()
    });
    out.insert(
        "server.backend_get_ns",
        ns_per_call(cfg.each, |i| {
            black_box(store.get(pick(&keys.any, i)));
        }),
    );
    let (insert_ns, _) = ns_per_pair(
        cfg.each,
        |i| {
            let k = pick(&keys.absent, i);
            black_box(store.insert(k, k));
        },
        |i| {
            black_box(store.remove(pick(&keys.absent, i)));
        },
    );
    out.insert("server.backend_insert_ns", insert_ns);
    drop(store);

    let mut frame = Vec::with_capacity(64);
    out.insert(
        "server.encode_ns",
        ns_per_call(cfg.each, |i| {
            frame.clear();
            let req = Request::Get {
                key: pick(&keys.any, i),
            };
            write_request_with_id(&mut frame, i as u64, &req).expect("write to a Vec");
            black_box(&frame);
        }),
    );
    out.insert("server.frame_bytes", frame.len() as f64);
    out.insert(
        "server.decode_ns",
        ns_per_call(cfg.each, |_| {
            black_box(read_request_enveloped(&mut &frame[..]).expect("decode our own frame"));
        }),
    );

    // One request in flight at a time: the serial rung under the
    // pipelined workload.
    let wire_keys = probe_keys(
        cfg.seed,
        (WIRE_KEYS / 2) as i64,
        (WIRE_KEYS / 2) as i64,
        |_| true,
    );
    let spawn = |metrics: bool| {
        let server = pathcopy_server::spawn(
            Box::new(ShardedServe::with_shards(SHARDS)),
            ServerConfig::builder()
                .workers(WORKERS)
                .metrics(metrics)
                .build(),
        )
        .expect("bind an ephemeral loopback port");
        for &k in wire_keys.any.iter().take(WIRE_PREFILL) {
            server.backend().insert(k, k);
        }
        let client = Client::connect(server.addr()).expect("connect the probe client");
        (server, client)
    };
    let (server, mut client) = spawn(false);
    let rtt = LatencyHistogram::new();
    let t0 = Instant::now();
    let mut i = 0;
    while t0.elapsed() < cfg.long {
        let call = Instant::now();
        spans::maybe_timed(0, i as u64, "server.rtt_serial", |_| {
            client.get(pick(&wire_keys.any, i)).expect("serial get")
        });
        rtt.record(call.elapsed().as_nanos() as u64);
        i += 1;
    }
    out.insert(
        "server.rtt_serial_us",
        stats::percentile(&rtt.snapshot(), 50.0) / 1e3,
    );
    drop(client);
    server.shutdown();

    // What one look at the shipped histograms costs a running server.
    let (server, mut client) = spawn(true);
    for i in 0..2048 {
        client
            .get(pick(&wire_keys.any, i))
            .expect("warm the histograms");
    }
    let scrapes: Vec<f64> = (0..32)
        .map(|_| {
            let t0 = Instant::now();
            black_box(client.metrics().expect("scrape"));
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    out.insert("metrics.scrape_us", stats::median(&scrapes));
    drop(client);
    server.shutdown();
    out
}

/// `durable.append_diff_us`: a 64-entry diff appended (and fsynced, the
/// fixed flush policy) to a fresh log under `dir`, away from any feed
/// lock or server.
pub fn wire_durable_fanout(cfg: &ProbeCfg, dir: &Path) -> Metrics {
    let mut out = Metrics::new();
    let dir = dir.join(format!("probe_log_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (log, _) = EpochLog::open(&dir, LogConfig::default()).expect("open a fresh probe log");
    let empty = ShardedServe::with_shards(SHARDS);
    log.append_checkpoint(1, empty.snapshot().as_ref())
        .expect("checkpoint the empty map");
    let entries: Vec<DiffEntry<i64, i64>> = (0..DIFF_CHANGES as i64)
        .map(|k| DiffEntry::Added(k, k))
        .collect();
    let deadline = Instant::now() + cfg.each;
    let mut us = Vec::new();
    let mut epoch = 1;
    while us.len() < 16 || Instant::now() < deadline {
        epoch += 1;
        let t0 = Instant::now();
        spans::maybe_timed(0, epoch, "durable.append_diff", |_| {
            log.append_diff(epoch, &entries).expect("append a diff");
        });
        us.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    out.insert("durable.append_diff_us", stats::median(&us));
    drop(log);
    let _ = std::fs::remove_dir_all(&dir);
    out
}
