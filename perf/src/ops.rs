//! Input generation: every operation a workload will issue is drawn
//! from `--seed` with `pathcopy-workloads` during set-up, so the timed
//! loops only index an array and the program under test sees nothing
//! but the generated inputs.

use std::collections::HashSet;
use std::time::Instant;

use pathcopy_concurrent::BatchOp;
use pathcopy_workloads::{mixed, KeyDist, MixedStream, Op, OpStream, RandomWorkload};

/// How big the engine workloads' structures are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineSize {
    /// Keys are drawn from `[-key_range, key_range]` (`engine_update`)
    /// or `[0, 2 * key_range)` (`engine_read_scan`).
    pub key_range: i64,
    /// Distinct keys present before the first timed op — half the key
    /// space, the steady state of a 50/50 insert/remove mix.
    pub prefill: usize,
}

impl EngineSize {
    /// What every measured pass uses: a key range of 2^20 with 2^19 keys
    /// present — the paper's §4 Random shape at half the paper's size, so
    /// the repeated set-ups fit the run budget.
    pub const FULL: EngineSize = EngineSize {
        key_range: 1 << 19,
        prefill: 1 << 19,
    };
    /// `--smoke` only: an eighth of the size, so the whole ledger's
    /// plumbing can be exercised in well under 30 s. Its numbers are not
    /// comparable with a measured pass's.
    pub const SMOKE: EngineSize = EngineSize {
        key_range: 1 << 16,
        prefill: 1 << 16,
    };
}
/// Wire workloads: distinct keys (the ROADMAP spot reading's key space).
pub const WIRE_KEYS: u64 = 65_536;
/// Wire workloads: distinct keys present before the first timed op.
pub const WIRE_PREFILL: usize = 32_768;
/// Skew of every Zipf-keyed workload (YCSB's default).
pub const ZIPF_THETA: f64 = 0.99;
/// Shards of the sharded map (`sharded_map_8` on the wire).
pub const SHARDS: usize = 8;
/// Pre-generated operations per engine load thread; the loop cycles
/// through them. 2^21 operations are two orders of magnitude more than
/// any cache holds, so a cycle does not replay a warm pattern.
pub const ENGINE_OPS_PER_THREAD: usize = 1 << 21;
/// Pre-generated operations per wire session (cycled the same way).
pub const WIRE_OPS_PER_THREAD: usize = 1 << 19;
/// A `Publish` frame follows every this many writes on the durable
/// workload's writer session.
pub const PUBLISH_EVERY: usize = 128;

/// What generation cost, for `workloads.gen_ns_per_op`.
#[derive(Debug, Clone, Copy, Default)]
pub struct GenCost {
    /// Operations generated.
    pub ops: u64,
    /// Wall time spent generating them.
    pub secs: f64,
}

impl GenCost {
    /// Nanoseconds per generated operation.
    pub fn ns_per_op(&self) -> f64 {
        self.secs * 1e9 / self.ops.max(1) as f64
    }
}

fn timed_gen<T>(count: impl Fn(&T) -> u64, f: impl FnOnce() -> T) -> (T, GenCost) {
    let t0 = Instant::now();
    let out = f();
    let cost = GenCost {
        ops: count(&out),
        secs: t0.elapsed().as_secs_f64(),
    };
    (out, cost)
}

/// The keys present before the first timed op: the first `target`
/// distinct keys of the paper's prefill draw (uniform over
/// `[-half_range, half_range]`, duplicates allowed), shifted by `shift`,
/// in **ascending order**.
///
/// A treap's shape depends only on its keys (a node's priority is its
/// key's hash), so inserting them in ascending order builds the very
/// tree random-order insertion builds — but along a cache-warm right
/// spine instead of a cold random path. Random-order set-up is bound by
/// memory latency, which on a shared host swung `setup_s` by ±30 %
/// between blocks of runs; ascending order keeps it CPU-bound.
pub(crate) fn prefill_keys(half_range: i64, shift: i64, target: usize, seed: u64) -> Vec<i64> {
    let draws = RandomWorkload::generate(1, 4 * target, half_range, seed).prefill;
    let mut seen = HashSet::with_capacity(target);
    let mut keys: Vec<i64> = draws
        .into_iter()
        .map(|k| k + shift)
        .filter(|&k| seen.insert(k))
        .take(target)
        .collect();
    assert_eq!(
        keys.len(),
        target,
        "the prefill draw ran out of distinct keys"
    );
    keys.sort_unstable();
    keys
}

/// Inputs of `engine_update`.
pub struct UpdateInputs {
    /// The `size.prefill` keys present before the first timed op,
    /// ascending.
    pub prefill: Vec<i64>,
    /// One packed op array per load thread; see [`unpack_update`].
    pub ops: Vec<Vec<u32>>,
    /// Cost of generating `ops`.
    pub cost: GenCost,
}

/// Decodes one `engine_update` operation: `(key, is_insert)`.
#[inline]
pub fn unpack_update(packed: u32, size: EngineSize) -> (i64, bool) {
    (i64::from(packed >> 1) - size.key_range, packed & 1 == 1)
}

/// Generates `engine_update`'s inputs: the §4 Random workload — uniform
/// keys, insert or remove with equal probability, no reads. Operations
/// are packed into a `u32` each so the op arrays stay small beside the
/// tree they drive (`peak_rss_mb` should read the engine, not its
/// input).
pub fn update_inputs(seed: u64, threads: usize, size: EngineSize) -> UpdateInputs {
    let workload = RandomWorkload::generate(threads, 0, size.key_range, seed);
    let (ops, cost) = timed_gen(
        |ops: &Vec<Vec<u32>>| ops.iter().map(|o| o.len() as u64).sum(),
        || {
            workload
                .streams()
                .into_iter()
                .map(|mut stream| {
                    (0..ENGINE_OPS_PER_THREAD)
                        .map(|_| match stream.next_op() {
                            Op::Insert(k) => (((k + size.key_range) as u32) << 1) | 1,
                            Op::Remove(k) => ((k + size.key_range) as u32) << 1,
                            Op::Contains(_) => unreachable!("the Random workload has no reads"),
                        })
                        .collect()
                })
                .collect()
        },
    );
    UpdateInputs {
        prefill: prefill_keys(size.key_range, 0, size.prefill, seed),
        ops,
        cost,
    }
}

/// One operation of `engine_read_scan`. Keys fit a `u32` (Zipf over
/// `[0, 2^20)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixOp {
    /// Point lookup.
    Get(u32),
    /// Insert `key -> key`.
    Insert(u32),
    /// Remove the key.
    Remove(u32),
    /// Atomic 4-key batch: index into the thread's batch table.
    Transact(u32),
    /// `snapshot_all` followed by a 100-key range scan from this key.
    Scan(u32),
}

/// Inputs of `engine_read_scan`.
pub struct ReadScanInputs {
    /// The `size.prefill` keys of `[0, 2 * key_range]` present before
    /// the first timed op, ascending.
    pub prefill: Vec<i64>,
    /// One op array per load thread.
    pub ops: Vec<Vec<MixOp>>,
    /// Per thread, the 4-op batches `MixOp::Transact` indexes.
    pub batches: Vec<Vec<[BatchOp<i64, i64>; 4]>>,
    /// Cost of generating `ops` and `batches`.
    pub cost: GenCost,
}

/// Keys scanned per `MixOp::Scan`.
pub const SCAN_KEYS: usize = 100;

/// Generates `engine_read_scan`'s inputs: per 100 operations, 90 `get`,
/// 8 insert/remove, 1 four-key `transact`, 1 `snapshot_all` + range
/// scan, all Zipf-keyed.
pub fn read_scan_inputs(seed: u64, threads: usize, size: EngineSize) -> ReadScanInputs {
    let n = 2 * size.key_range as u64;
    let dist = KeyDist::Zipf {
        n,
        theta: ZIPF_THETA,
    };
    let prefill = prefill_keys(size.key_range, size.key_range, size.prefill, seed);
    let ((ops, batches), cost) = timed_gen(
        |(ops, _): &(Vec<Vec<MixOp>>, Vec<_>)| ops.iter().map(|o| o.len() as u64).sum(),
        || {
            // 98 of every 100 ops come from a 90:8 read/update stream;
            // slots 49 and 99 of each hundred are the batch and the scan.
            let points = mixed(threads, dist, 90.0 / 98.0, seed);
            let writes = mixed(threads, dist, 0.0, seed ^ 0x5bd1_e995);
            points
                .into_iter()
                .zip(writes)
                .map(|(mut point, mut write)| read_scan_thread(&mut point, &mut write))
                .unzip()
        },
    );
    ReadScanInputs {
        prefill,
        ops,
        batches,
        cost,
    }
}

fn read_scan_thread(
    point: &mut MixedStream,
    write: &mut MixedStream,
) -> (Vec<MixOp>, Vec<[BatchOp<i64, i64>; 4]>) {
    let mut batches = Vec::with_capacity(ENGINE_OPS_PER_THREAD / 100 + 1);
    let ops = (0..ENGINE_OPS_PER_THREAD)
        .map(|i| match i % 100 {
            49 => {
                batches.push(std::array::from_fn(|_| match write.next_op() {
                    Op::Insert(k) => BatchOp::Insert(k, k),
                    Op::Remove(k) => BatchOp::Remove(k),
                    Op::Contains(_) => unreachable!("write stream has no reads"),
                }));
                MixOp::Transact(batches.len() as u32 - 1)
            }
            99 => MixOp::Scan(write.next_op().key() as u32),
            _ => match point.next_op() {
                Op::Contains(k) => MixOp::Get(k as u32),
                Op::Insert(k) => MixOp::Insert(k as u32),
                Op::Remove(k) => MixOp::Remove(k as u32),
            },
        })
        .collect();
    (ops, batches)
}

/// Inputs of a wire workload.
pub struct WireInputs {
    /// The [`WIRE_PREFILL`] keys of `[0, WIRE_KEYS]` present before the
    /// first timed op, ascending.
    pub prefill: Vec<i64>,
    /// One op array per session.
    pub ops: Vec<Vec<Op>>,
    /// Cost of generating `ops`.
    pub cost: GenCost,
}

/// Generates a wire workload's inputs: Zipf keys over [`WIRE_KEYS`],
/// `read_fraction` of the operations `Get`, the rest `Insert`/`Remove`
/// with equal probability.
pub fn wire_inputs(seed: u64, sessions: usize, read_fraction: f64) -> WireInputs {
    let half = (WIRE_KEYS / 2) as i64;
    let prefill = prefill_keys(half, half, WIRE_PREFILL, seed);
    let dist = KeyDist::Zipf {
        n: WIRE_KEYS,
        theta: ZIPF_THETA,
    };
    let (ops, cost) = timed_gen(
        |ops: &Vec<Vec<Op>>| ops.iter().map(|o| o.len() as u64).sum(),
        || {
            mixed(sessions, dist, read_fraction, seed)
                .into_iter()
                .map(|mut s| (0..WIRE_OPS_PER_THREAD).map(|_| s.next_op()).collect())
                .collect()
        },
    );
    WireInputs { prefill, ops, cost }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_ops_round_trip_and_follow_the_seed() {
        let size = EngineSize::SMOKE;
        for (k, ins) in [(-size.key_range, true), (0, false), (size.key_range, true)] {
            let packed = (((k + size.key_range) as u32) << 1) | u32::from(ins);
            assert_eq!(unpack_update(packed, size), (k, ins));
        }
        let a = update_inputs(7, 2, size);
        let b = update_inputs(7, 2, size);
        let c = update_inputs(8, 2, size);
        assert_eq!(a.ops, b.ops, "same seed, same inputs");
        assert_ne!(a.ops, c.ops, "another seed, other inputs");
        assert_ne!(a.ops[0], a.ops[1], "threads draw independent streams");
        assert_eq!(a.cost.ops, 2 * ENGINE_OPS_PER_THREAD as u64);
        let inserts = a.ops[0]
            .iter()
            .filter(|&&p| unpack_update(p, size).1)
            .count();
        let share = inserts as f64 / ENGINE_OPS_PER_THREAD as f64;
        assert!((share - 0.5).abs() < 0.01, "insert share {share}");
    }

    #[test]
    fn read_scan_mix_has_the_declared_shares() {
        let inputs = read_scan_inputs(3, 1, EngineSize::SMOKE);
        let ops = &inputs.ops[0];
        let share =
            |f: fn(&MixOp) -> bool| ops.iter().filter(|o| f(o)).count() as f64 / ops.len() as f64;
        assert!((share(|o| matches!(o, MixOp::Get(_))) - 0.90).abs() < 0.005);
        assert!((share(|o| matches!(o, MixOp::Insert(_) | MixOp::Remove(_))) - 0.08).abs() < 0.005);
        assert!((share(|o| matches!(o, MixOp::Transact(_))) - 0.01).abs() < 1e-4);
        assert!((share(|o| matches!(o, MixOp::Scan(_))) - 0.01).abs() < 1e-4);
        let transacts = ops
            .iter()
            .filter(|o| matches!(o, MixOp::Transact(_)))
            .count();
        assert_eq!(inputs.batches[0].len(), transacts);
        let n = 2 * EngineSize::SMOKE.key_range;
        assert!(inputs.prefill.iter().all(|&k| (0..=n).contains(&k)));
        assert_eq!(inputs.prefill.len(), EngineSize::SMOKE.prefill);
        assert!(
            inputs.prefill.windows(2).all(|w| w[0] < w[1]),
            "distinct and ascending"
        );
    }

    #[test]
    fn wire_inputs_stay_inside_the_key_space() {
        let inputs = wire_inputs(5, 2, 0.9);
        assert_eq!(inputs.ops.len(), 2);
        let keys = WIRE_KEYS as i64;
        assert!(inputs.prefill.iter().all(|&k| (0..=keys).contains(&k)));
        assert_eq!(inputs.prefill.len(), WIRE_PREFILL);
        assert!(inputs.prefill.windows(2).all(|w| w[0] < w[1]));
        assert!(inputs
            .ops
            .iter()
            .flatten()
            .all(|o| (0..keys).contains(&o.key())));
        let reads = inputs.ops[0]
            .iter()
            .filter(|o| matches!(o, Op::Contains(_)))
            .count();
        let share = reads as f64 / WIRE_OPS_PER_THREAD as f64;
        assert!((share - 0.9).abs() < 0.01, "read share {share}");
    }
}
