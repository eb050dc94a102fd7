//! The measuring loop every workload shares: load threads publish
//! their progress into per-thread slots, and the main thread cuts the
//! run into windows by sampling those slots on a clock.
//!
//! An end-to-end value is the **median of the per-window values**, so a
//! window that caught a scheduler hiccup or a checkpoint moves the
//! result by one rank, not by its size.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use pathcopy_metrics::{HistogramSnapshot, LatencyHistogram};

use crate::stats;
use crate::sysinfo;

/// Histogram index: client-observed latency of one operation.
pub const H_OP: usize = 0;
/// Histogram index: `Publish` submit → durable ack.
pub const H_PUBLISH: usize = 1;
/// Histogram index: `Publish` submit → `GotAt` from the leaf.
pub const H_VISIBLE: usize = 2;
const HISTS: usize = 3;

/// Keeps two threads' progress counters off each other's cache line.
#[repr(align(128))]
#[derive(Default)]
struct Padded(AtomicU64);

/// One load thread's progress, written only by that thread.
pub struct Slot {
    ops: Padded,
    failed: AtomicU64,
    hists: [LatencyHistogram; HISTS],
}

impl Slot {
    fn new() -> Self {
        Slot {
            ops: Padded::default(),
            failed: AtomicU64::new(0),
            hists: std::array::from_fn(|_| LatencyHistogram::new()),
        }
    }

    /// Publishes the thread's running count of acknowledged operations.
    /// A plain store: only the owning thread writes the slot.
    #[inline]
    pub fn set_ops(&self, done: u64) {
        self.ops.0.store(done, Ordering::Relaxed);
    }

    /// Counts one failed, refused or wrong-result operation.
    pub fn fail(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one latency sample, in nanoseconds, into histogram `which`.
    #[inline]
    pub fn record(&self, which: usize, ns: u64) {
        self.hists[which].record(ns);
    }
}

/// Shared between the main thread and the load threads of one phase.
pub struct Meter {
    stop: AtomicBool,
    slots: Vec<Slot>,
}

struct Sample {
    at: Instant,
    ops: u64,
    cpu_us: u64,
    hists: [HistogramSnapshot; HISTS],
}

/// What one window measured.
pub struct Window {
    /// The window's real length.
    pub secs: f64,
    /// Operations acknowledged inside it.
    pub ops: u64,
    /// Process CPU (user + system, every thread) spent inside it.
    pub cpu_us: u64,
    /// Latency samples recorded inside it, per histogram index.
    pub hists: [HistogramSnapshot; HISTS],
}

impl Meter {
    /// A meter with one slot per load thread.
    pub fn new(threads: usize) -> Self {
        Meter {
            stop: AtomicBool::new(false),
            slots: (0..threads).map(|_| Slot::new()).collect(),
        }
    }

    /// Thread `i`'s slot.
    pub fn slot(&self, i: usize) -> &Slot {
        &self.slots[i]
    }

    /// Whether the load threads should wind down.
    #[inline]
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Tells the load threads to wind down.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Operations acknowledged so far, all threads.
    pub fn ops(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.ops.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Operations failed so far, all threads.
    pub fn failed(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.failed.load(Ordering::Relaxed))
            .sum()
    }

    fn sample(&self) -> Sample {
        let hists = std::array::from_fn(|h| {
            let mut merged = HistogramSnapshot::empty();
            for slot in &self.slots {
                merged.merge(&slot.hists[h].snapshot());
            }
            merged
        });
        Sample {
            at: Instant::now(),
            ops: self.ops(),
            cpu_us: sysinfo::cpu_us(),
            hists,
        }
    }

    /// Measures `count` back-to-back windows of `len` each, sleeping on
    /// the main thread between the samples that bound them. Call after
    /// the warm-up, with the load threads already running.
    pub fn measure(&self, count: usize, len: Duration) -> Vec<Window> {
        let start = Instant::now();
        let mut prev = self.sample();
        let mut windows = Vec::with_capacity(count);
        for i in 1..=count {
            // Deadlines are laid out from the start, so one late wake-up
            // shortens the next window instead of shifting all of them.
            let deadline = start + len * i as u32;
            std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
            let cur = self.sample();
            windows.push(Window {
                secs: (cur.at - prev.at).as_secs_f64(),
                ops: cur.ops - prev.ops,
                cpu_us: cur.cpu_us - prev.cpu_us,
                hists: std::array::from_fn(|h| cur.hists[h].delta(&prev.hists[h])),
            });
            prev = cur;
        }
        windows
    }
}

/// One metric's per-window values and what the ledger reports of them.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// One value per window, in time order.
    pub windows: Vec<f64>,
    /// Samples behind the values (operations or latency samples), all
    /// windows together.
    pub samples: u64,
}

impl Series {
    /// The reported value: the median window.
    pub fn value(&self) -> f64 {
        stats::median(&self.windows)
    }
}

fn series(windows: &[Window], samples: u64, f: impl Fn(&Window) -> f64) -> Series {
    Series {
        windows: windows.iter().map(f).collect(),
        samples,
    }
}

/// Throughput, acknowledged operations per second.
pub fn ops_per_s(windows: &[Window]) -> Series {
    let total = windows.iter().map(|w| w.ops).sum();
    series(windows, total, |w| w.ops as f64 / w.secs)
}

/// CPU microseconds (user + system, whole process) per acknowledged op.
pub fn cpu_us_per_op(windows: &[Window]) -> Series {
    let total = windows.iter().map(|w| w.ops).sum();
    series(windows, total, |w| w.cpu_us as f64 / w.ops.max(1) as f64)
}

/// Percentile `pct` of histogram `which`, in microseconds. Windows that
/// recorded nothing in that histogram are left out rather than counted
/// as zero latency.
pub fn latency_us(windows: &[Window], which: usize, pct: f64) -> Series {
    let live: Vec<&Window> = windows
        .iter()
        .filter(|w| !w.hists[which].is_empty())
        .collect();
    Series {
        windows: live
            .iter()
            .map(|w| stats::percentile(&w.hists[which], pct) / 1e3)
            .collect(),
        samples: live.iter().map(|w| w.hists[which].count()).sum(),
    }
}

/// Every sample of histogram `which` across `windows`, merged — for the
/// tail percentiles that one window has too few samples for.
pub fn merged(windows: &[Window], which: usize) -> HistogramSnapshot {
    let mut all = HistogramSnapshot::empty();
    for w in windows {
        all.merge(&w.hists[which]);
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(secs: f64, ops: u64, cpu_us: u64, op_ns: &[u64]) -> Window {
        let h = LatencyHistogram::new();
        for &ns in op_ns {
            h.record(ns);
        }
        Window {
            secs,
            ops,
            cpu_us,
            hists: [
                h.snapshot(),
                HistogramSnapshot::empty(),
                HistogramSnapshot::empty(),
            ],
        }
    }

    #[test]
    fn the_reported_value_is_the_median_window() {
        let w = [
            window(2.0, 200, 400, &[10, 10]),
            window(2.0, 100, 400, &[20, 20]),
            // A stalled window: it shifts the mean, not the median.
            window(2.0, 2, 400, &[30, 30]),
        ];
        let t = ops_per_s(&w);
        assert_eq!(t.windows, vec![100.0, 50.0, 1.0]);
        assert_eq!(t.value(), 50.0);
        assert_eq!(t.samples, 302);
        assert_eq!(cpu_us_per_op(&w).value(), 4.0);
        let p50 = latency_us(&w, H_OP, 50.0);
        assert_eq!(p50.samples, 6);
        // Median window is [20, 20]: half way through the one-wide bucket.
        assert!((p50.value() - 0.0205).abs() < 1e-9, "{}", p50.value());
    }

    #[test]
    fn windows_without_samples_do_not_read_as_zero_latency() {
        let w = [window(1.0, 5, 10, &[]), window(1.0, 5, 10, &[16, 16])];
        assert_eq!(latency_us(&w, H_OP, 50.0).windows.len(), 1);
        assert!(latency_us(&w, H_PUBLISH, 50.0).windows.is_empty());
        assert_eq!(merged(&w, H_OP).count(), 2);
    }

    #[test]
    fn measure_cuts_windows_from_live_slots() {
        let meter = Meter::new(1);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut done = 0u64;
                while !meter.stopped() {
                    done += 1;
                    meter.slot(0).set_ops(done);
                    meter.slot(0).record(H_OP, 100);
                    std::thread::yield_now();
                }
            });
            let windows = meter.measure(2, Duration::from_millis(30));
            meter.stop();
            assert_eq!(windows.len(), 2);
            for w in &windows {
                assert!(w.ops > 0 && w.secs > 0.02);
                // One sample per operation; the two are read a few
                // microseconds apart, so the edges may split a handful.
                let samples = w.hists[H_OP].count();
                assert!(
                    samples.abs_diff(w.ops) <= w.ops / 10 + 8,
                    "{samples} vs {}",
                    w.ops
                );
            }
        });
        assert_eq!(meter.failed(), 0);
    }
}
