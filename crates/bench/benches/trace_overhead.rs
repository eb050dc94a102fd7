//! What the instrumentation spine costs — and proves it costs nothing
//! when off.
//!
//! Five series over the same synthetic "request" (dependent arithmetic
//! the optimizer can't fold away), driving the exact [`Probe`] calls
//! the event loop makes per request — one `begin` at admission, then
//! the queue-wait and execute laps:
//!
//! * `baseline` — the work alone, no probe anywhere near it;
//! * `disabled` — the work plus the full chain on a probe with
//!   histograms off and no flight (`ServerConfig::metrics(false)`, no
//!   `.trace(..)`), with a trace context present on the request (a
//!   client may always send one; an uninstrumented node must still
//!   shrug it off). The probe short-circuits before any clock read,
//!   atomic or ring write, so this series must sit on top of
//!   `baseline` — that overlap *is* the zero-cost claim, checked in CI
//!   as a trend next to the others;
//! * `untraced` — a *live* flight, histograms off, serving a request
//!   that carries no context: the steady-state cost of enabling
//!   tracing on a node whose traffic is mostly unsampled. Also
//!   branch-only;
//! * `hist_only` — histograms on, no flight (the server's default):
//!   three clock reads and two tagged histogram records per request;
//! * `enabled` — histograms and flight on, sampled context: the same
//!   three clock reads feed both the histogram records and two seqlock
//!   ring writes. The gap to `hist_only` is the true price of a
//!   sampled request (and only the sampled fraction pays it).
//!
//! The `trace_overhead/disabled_minus_baseline` gauge reports the
//! measured per-op delta in nanoseconds; near zero (slightly negative
//! is run-to-run noise) is the expected steady state.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pathcopy_metrics::Stage;
use pathcopy_trace::{Flight, Probe, TraceContext};

/// A stand-in for per-request work: enough dependent arithmetic that
/// the loop body cannot collapse, small enough that probe overhead
/// would show.
#[inline]
fn fake_request(seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..8 {
        x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
    }
    x
}

/// One request through the event loop's probe calls.
#[inline]
fn probed_request(seed: u64, probe: &Probe, ctx: Option<&TraceContext>) -> u64 {
    let t0 = probe.begin(ctx);
    let t1 = probe.lap(Stage::QueueWait, 1, seed, ctx, 0, t0);
    let out = fake_request(seed);
    probe.lap(Stage::Execute, 1, seed, ctx, seed & 0xff, t1);
    out
}

fn measure<F: FnMut(u64) -> u64>(iters: u64, mut f: F) -> Duration {
    let start = Instant::now();
    for i in 0..iters {
        black_box(f(i));
    }
    start.elapsed()
}

/// A probe over the event loop's first two stages.
fn make_probe(histograms: bool, flight: bool) -> Probe {
    let probe = Probe::new(&[Stage::QueueWait, Stage::Execute], 2, histograms);
    if flight {
        probe.attach_flight(Flight::new("bench"));
    }
    probe
}

fn bench_trace_overhead(c: &mut Criterion) {
    let ctx = TraceContext::sampled(0xbeef);
    let mut group = c.benchmark_group("trace_overhead");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(500));

    group.bench_function("baseline", |b| {
        b.iter_custom(|iters| measure(iters, fake_request))
    });

    let off = make_probe(false, false);
    for (name, probe, ctx) in [
        ("disabled", &off, Some(&ctx)),
        ("untraced", &make_probe(false, true), None),
        ("hist_only", &make_probe(true, false), None),
        ("enabled", &make_probe(true, true), Some(&ctx)),
    ] {
        group.bench_function(name, |b| {
            b.iter_custom(|iters| measure(iters, |i| probed_request(i, probe, ctx)))
        });
    }
    group.finish();

    // The zero-cost claim as one number: per-op disabled-chain cost
    // minus per-op baseline cost, over the same long burst back to
    // back. Noise can push it slightly negative; a sustained positive
    // trend means the disabled path grew a real cost.
    const BURST: u64 = 2_000_000;
    let base = measure(BURST, fake_request);
    let disabled = measure(BURST, |i| probed_request(i, &off, Some(&ctx)));
    let delta_ns = (disabled.as_nanos() as f64 - base.as_nanos() as f64) / BURST as f64;
    c.report_gauge("trace_overhead/disabled_minus_baseline", delta_ns, "ns");
}

criterion_group!(benches, bench_trace_overhead);
criterion_main!(benches);
