//! Throughput measurement: fixed-duration runs, multiple trials, and the
//! summary statistics the paper reports (each data point is an average of
//! 15 trials).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use pathcopy_workloads::OpStream;

use crate::sets::{ConcurrentSet, SequentialSet};

/// Summary over a set of trial throughputs (ops/sec).
#[derive(Debug, Clone)]
pub struct TrialStats {
    /// Per-trial throughputs.
    pub samples: Vec<f64>,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 for fewer than 2 samples).
    pub std_dev: f64,
}

impl TrialStats {
    /// Summarizes trial samples.
    pub fn from_samples(samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "need at least one trial");
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let std_dev = if samples.len() < 2 {
            0.0
        } else {
            let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>()
                / (samples.len() - 1) as f64;
            var.sqrt()
        };
        TrialStats {
            samples,
            mean,
            std_dev,
        }
    }

    /// Relative standard deviation (σ / mean).
    pub fn rel_std_dev(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev / self.mean
        }
    }
}

/// Runs `streams.len()` worker threads against `set` for `duration`,
/// returning total completed operations. Workers start together behind a
/// barrier; a stop flag ends the run. Generic over the core
/// [`ConcurrentSet`] trait (including the harness's `dyn` backends).
pub fn run_concurrent<S, St>(set: &S, mut streams: Vec<St>, duration: Duration) -> u64
where
    S: ConcurrentSet<i64> + ?Sized,
    St: OpStream,
{
    let threads = streams.len();
    assert!(threads > 0, "need at least one worker");
    let barrier = Barrier::new(threads + 1);
    let stop = AtomicBool::new(false);
    let mut total = 0u64;

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for mut stream in streams.drain(..) {
            let barrier = &barrier;
            let stop = &stop;
            handles.push(scope.spawn(move || {
                barrier.wait();
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Check the stop flag every few ops to keep the flag
                    // read off the critical path.
                    for _ in 0..16 {
                        stream.next_op().apply_to(set);
                        ops += 1;
                    }
                }
                ops
            }));
        }
        barrier.wait();
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            total += h.join().expect("worker panicked");
        }
    });
    total
}

/// Runs the single-threaded baseline for `duration`, returning completed
/// operations.
pub fn run_sequential<S, St>(set: &mut S, stream: &mut St, duration: Duration) -> u64
where
    S: SequentialSet,
    St: OpStream,
{
    let start = Instant::now();
    let mut ops = 0u64;
    loop {
        for _ in 0..64 {
            set.apply(stream.next_op());
            ops += 1;
        }
        if start.elapsed() >= duration {
            return ops;
        }
    }
}

/// Repeats a throughput experiment `trials` times; `run` receives the
/// trial index and returns (ops, duration actually measured).
pub fn trials(trials: usize, run: impl FnMut(usize) -> (u64, Duration)) -> TrialStats {
    trials_with_warmup(0, trials, run)
}

/// Like [`trials`], but runs `warmup` unmeasured trials first (cold page
/// faults and frequency ramp-up otherwise dominate the first sample).
pub fn trials_with_warmup(
    warmup: usize,
    trials: usize,
    mut run: impl FnMut(usize) -> (u64, Duration),
) -> TrialStats {
    for i in 0..warmup {
        let _ = run(i);
    }
    let samples = (0..trials)
        .map(|i| {
            let (ops, elapsed) = run(warmup + i);
            ops as f64 / elapsed.as_secs_f64()
        })
        .collect();
    TrialStats::from_samples(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcopy_concurrent::TreapSet;
    use pathcopy_workloads::RandomStream;

    #[test]
    fn trial_stats_mean_and_std() {
        let s = TrialStats::from_samples(vec![10.0, 20.0, 30.0]);
        assert!((s.mean - 20.0).abs() < 1e-12);
        assert!((s.std_dev - 10.0).abs() < 1e-12);
        assert!((s.rel_std_dev() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn single_sample_has_zero_std() {
        let s = TrialStats::from_samples(vec![5.0]);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn concurrent_run_counts_ops() {
        let set = TreapSet::new();
        let streams: Vec<RandomStream> =
            (0..2).map(|i| RandomStream::new(1000, i as u64)).collect();
        let ops = run_concurrent(&set, streams, Duration::from_millis(30));
        assert!(ops > 0, "no operations completed");
    }

    #[test]
    fn sequential_run_counts_ops() {
        let mut set = pathcopy_trees::mutable::MutTreapSet::new();
        let mut stream = RandomStream::new(1000, 7);
        let ops = run_sequential(&mut set, &mut stream, Duration::from_millis(20));
        assert!(ops > 0);
        set.check_invariants();
    }

    #[test]
    fn trials_aggregates() {
        let stats = trials(3, |_| (100, Duration::from_millis(100)));
        assert_eq!(stats.samples.len(), 3);
        assert!((stats.mean - 1000.0).abs() < 1.0);
    }
}
