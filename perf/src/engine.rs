//! The two in-process workloads: `engine_update` (the paper's §4 Random
//! workload on one contended root) and `engine_read_scan` (lookups,
//! snapshots and scans beside writes on the sharded map).
//!
//! Neither touches `server`, `durable` or `replica`, so a change to
//! those layers predicts no movement here, and a change to `trees`,
//! `core` or `concurrent` shows here first.

use std::collections::BTreeMap;
use std::time::Instant;

use pathcopy_concurrent::{BatchResult, ShardedTreapMap, TreapMap};
use pathcopy_core::StatsSnapshot;
use pathcopy_trees::TreapMap as PTreapMap;

use crate::meter::{Meter, Slot, Window, H_OP};
use crate::ops::{self, MixOp, ReadScanInputs, UpdateInputs, SCAN_KEYS, SHARDS};
use crate::phase::{self, check_no_panic, ratio, Check, PhaseCfg, PhaseOut};
use crate::spans;

/// In-process operations are timed one in this many: two clock reads
/// cost as much as a tenth of a lookup, so timing every one would
/// measure the clock. Both strides are primes, not the 16 and 64 the
/// issue names: `engine_read_scan` places its batch and its scan at
/// fixed slots of every hundred operations, and a stride sharing a
/// factor with 100 would never (or always) land on them.
const LATENCY_EVERY: u64 = 17;
/// In-process operations get spans one in this many (traced phase only).
const SPAN_EVERY: u64 = 61;

/// What one load thread did, for the length check.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    attempted: u64,
    inserted: u64,
    removed: u64,
}

/// Runs the load threads through warm-up and the measured windows and
/// returns the windows, the engine's counters at both ends of the
/// measured interval, and each thread's tally.
fn drive(
    cfg: &PhaseCfg,
    stats: impl Fn() -> StatsSnapshot,
    worker: impl Fn(usize, &Meter) -> Tally + Sync,
) -> (Vec<Window>, StatsSnapshot, StatsSnapshot, Vec<Tally>, u64) {
    let meter = Meter::new(cfg.threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|t| {
                let (meter, worker) = (&meter, &worker);
                scope.spawn(move || worker(t, meter))
            })
            .collect();
        std::thread::sleep(cfg.warmup);
        let before = stats();
        let windows = meter.measure(cfg.windows, cfg.window);
        let after = stats();
        meter.stop();
        let tallies = handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect();
        (windows, before, after, tallies, meter.failed())
    })
}

/// The per-op frame shared by both loops: cycles the op array, samples
/// latency and spans, publishes progress.
fn load_loop<Op: Copy>(
    thread: usize,
    ops: &[Op],
    meter: &Meter,
    traced: bool,
    mut exec: impl FnMut(Op, &Slot, SpanCtx, &mut Tally),
) -> Tally {
    let slot = meter.slot(thread);
    let mut tally = Tally::default();
    let mut next = 0usize;
    while !meter.stopped() {
        let op = ops[next];
        next += 1;
        if next == ops.len() {
            next = 0;
        }
        let n = tally.attempted;
        let timed = n % LATENCY_EVERY == 0;
        let spanned = traced && n % SPAN_EVERY == 0;
        let t0 = timed.then(Instant::now);
        if spanned {
            let req = ((thread as u64) << 40) | n;
            spans::timed(0, req, "op", |op_span| {
                exec(op, slot, Some((op_span, req)), &mut tally);
            });
        } else {
            exec(op, slot, None, &mut tally);
        }
        if let Some(t0) = t0 {
            slot.record(H_OP, t0.elapsed().as_nanos() as u64);
        }
        tally.attempted = n + 1;
        slot.set_ops(n + 1);
    }
    tally
}

/// The enclosing `op` span of a spanned operation: `(span id, request id)`.
type SpanCtx = Option<(u64, u64)>;

/// Calls `f`, inside a child span of the op's span when the op is spanned.
#[inline]
fn layer_call<R>(ctx: SpanCtx, name: &'static str, f: impl FnOnce() -> R) -> R {
    match ctx {
        Some((parent, req)) => spans::timed(parent, req, name, |_| f()),
        None => f(),
    }
}

fn length_check(len: usize, prefill: usize, tallies: &[Tally]) -> Check {
    let inserted = tallies.iter().map(|t| t.inserted).sum();
    let removed = tallies.iter().map(|t| t.removed).sum();
    phase::length_check(len, prefill, inserted, removed)
}

/// The persistent treap holding `keys -> keys`.
pub(crate) fn prefilled(keys: &[i64]) -> PTreapMap<i64, i64> {
    keys.iter().map(|&k| (k, k)).collect()
}

/// An 8-shard map holding `keys -> keys`.
pub(crate) fn prefilled_sharded(keys: &[i64]) -> ShardedTreapMap<i64, i64> {
    let mut map = ShardedTreapMap::with_shards(SHARDS);
    map.extend(keys.iter().map(|&k| (k, k)));
    map
}

/// `engine_update`, set up: one single-root `TreapMap` holding 2^19 of
/// 2^20 keys, and each thread's 50 % insert / 50 % remove stream.
pub struct EngineUpdate {
    map: TreapMap<i64, i64>,
    inputs: UpdateInputs,
}

impl EngineUpdate {
    /// Generates the inputs and prefills the map.
    pub fn set_up(cfg: &PhaseCfg) -> Self {
        let inputs = ops::update_inputs(cfg.seed, cfg.threads, cfg.engine);
        let map = TreapMap::from_version(prefilled(&inputs.prefill));
        EngineUpdate { map, inputs }
    }

    /// Warm-up, measured windows, then the invariant and length gates.
    pub fn run(self, cfg: &PhaseCfg) -> PhaseOut {
        let map = &self.map;
        let (windows, before, after, tallies, failed) = drive(
            cfg,
            || map.stats().snapshot(),
            |t, meter| {
                load_loop(
                    t,
                    &self.inputs.ops[t],
                    meter,
                    cfg.traced,
                    |packed, slot, span, tally| {
                        let (key, insert) = ops::unpack_update(packed, cfg.engine);
                        if insert {
                            match layer_call(span, "core.uc_insert", || map.insert(key, key)) {
                                None => tally.inserted += 1,
                                Some(old) if old == key => {}
                                Some(_) => slot.fail(),
                            }
                        } else {
                            match layer_call(span, "core.uc_remove", || map.remove(&key)) {
                                None => {}
                                Some(old) if old == key => tally.removed += 1,
                                Some(_) => slot.fail(),
                            }
                        }
                    },
                )
            },
        );
        let snap = map.snapshot();
        let checks = vec![
            check_no_panic("treap invariants", || {
                format!(
                    "{} nodes in order, heap order and sizes hold",
                    snap.check_invariants()
                )
            }),
            length_check(snap.len(), cfg.engine.prefill, &tallies),
        ];
        let mut counters = BTreeMap::new();
        phase::uc_counters(&before, &after, &mut counters);
        PhaseOut {
            windows,
            attempted: tallies.iter().map(|t| t.attempted).sum(),
            failed,
            checks,
            counters,
            gen: self.inputs.cost,
        }
    }
}

/// `engine_read_scan`, set up: an 8-shard `ShardedTreapMap` holding 2^19
/// of 2^20 keys, and each thread's Zipf-keyed read-mostly stream.
pub struct EngineReadScan {
    map: ShardedTreapMap<i64, i64>,
    inputs: ReadScanInputs,
}

impl EngineReadScan {
    /// Generates the inputs and prefills the map.
    pub fn set_up(cfg: &PhaseCfg) -> Self {
        let inputs = ops::read_scan_inputs(cfg.seed, cfg.threads, cfg.engine);
        let map = prefilled_sharded(&inputs.prefill);
        EngineReadScan { map, inputs }
    }

    /// Warm-up, measured windows, then the invariant and length gates.
    pub fn run(self, cfg: &PhaseCfg) -> PhaseOut {
        let map = &self.map;
        let (windows, before, after, tallies, failed) = drive(
            cfg,
            || map.stats_snapshot(),
            |t, meter| {
                let batches = &self.inputs.batches[t];
                load_loop(
                    t,
                    &self.inputs.ops[t],
                    meter,
                    cfg.traced,
                    |op, slot, span, tally| match op {
                        MixOp::Get(k) => {
                            let k = i64::from(k);
                            if layer_call(span, "concurrent.get", || map.get(&k))
                                .is_some_and(|v| v != k)
                            {
                                slot.fail();
                            }
                        }
                        MixOp::Insert(k) => {
                            let k = i64::from(k);
                            match layer_call(span, "concurrent.insert", || map.insert(k, k)) {
                                None => tally.inserted += 1,
                                Some(old) if old == k => {}
                                Some(_) => slot.fail(),
                            }
                        }
                        MixOp::Remove(k) => {
                            let k = i64::from(k);
                            match layer_call(span, "concurrent.remove", || map.remove(&k)) {
                                None => {}
                                Some(old) if old == k => tally.removed += 1,
                                Some(_) => slot.fail(),
                            }
                        }
                        MixOp::Transact(i) => {
                            let batch = &batches[i as usize];
                            let results =
                                layer_call(span, "concurrent.transact4", || map.transact(batch));
                            if results.len() != batch.len() {
                                slot.fail();
                            }
                            for r in &results {
                                match r {
                                    BatchResult::Inserted(None) => tally.inserted += 1,
                                    BatchResult::Removed(Some(_)) => tally.removed += 1,
                                    BatchResult::Inserted(Some(_)) | BatchResult::Removed(None) => {
                                    }
                                    BatchResult::Got(_) | BatchResult::Cas(_) => slot.fail(),
                                }
                            }
                        }
                        MixOp::Scan(k) => {
                            let from = i64::from(k);
                            let snap =
                                layer_call(span, "concurrent.snapshot_all", || map.snapshot_all());
                            let in_order = layer_call(span, "concurrent.range100", || {
                                let mut floor = from;
                                snap.range(from..).take(SCAN_KEYS).all(|(&key, &val)| {
                                    let ok = key >= floor && val == key;
                                    floor = key + 1;
                                    ok
                                })
                            });
                            if !in_order {
                                slot.fail();
                            }
                        }
                    },
                )
            },
        );
        let snap = map.snapshot_all();
        let checks = vec![
            check_no_panic("treap invariants", || {
                let nodes: usize = (0..snap.shard_count())
                    .map(|i| snap.shard(i).check_invariants())
                    .sum();
                format!("{nodes} nodes across {SHARDS} shards in order, heap order and sizes hold")
            }),
            length_check(snap.len(), cfg.engine.prefill, &tallies),
        ];
        let mut counters = BTreeMap::new();
        phase::uc_counters(&before, &after, &mut counters);
        // Exactly one op in a hundred is a batch (see `ops::read_scan_inputs`).
        let batches = windows.iter().map(|w| w.ops).sum::<u64>() / 100;
        counters.insert(
            "concurrent.freeze_retries_per_batch",
            ratio(after.freeze_retries - before.freeze_retries, batches),
        );
        counters.insert(
            "concurrent.frozen_installs_per_batch",
            ratio(after.frozen_installs - before.frozen_installs, batches),
        );
        PhaseOut {
            windows,
            attempted: tallies.iter().map(|t| t.attempted).sum(),
            failed,
            checks,
            counters,
            gen: self.inputs.cost,
        }
    }
}
