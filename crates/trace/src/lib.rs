//! Distributed request tracing for the pathcopy serving stack.
//!
//! Aggregate histograms (`pathcopy-metrics`) answer *how slow*; this
//! crate answers *which request, and where*. A compact [`TraceContext`]
//! (trace id + parent span + flags) rides the proto-v3 envelope and is
//! propagated **causally** along the whole write path — client submit →
//! event-loop queue → worker execute → feed publish → durable
//! append+fsync → push fan-out → relay re-serve → leaf apply — so one
//! epoch's journey across a relay tree is a single stitched trace under
//! one id, with end-to-end epoch numbers.
//!
//! Each node records [`SpanRecord`]s into a [`Flight`] recorder: a
//! lock-free fixed-size ring buffer (per-slot seqlock, no allocation on
//! the hot path) with **slow-request capture** — a request whose total
//! exceeds the configured threshold gets its span chain pinned past
//! ring eviction ([`Flight::pin`]).
//!
//! Hot paths never touch a [`Flight`] (or a histogram) directly: they
//! hold a [`Probe`], the stack's **one instrumentation spine**. A probe
//! owns the per-(stage, tag) latency histograms *and* the optional
//! flight, reads the clock once per stage boundary, and feeds that one
//! reading to both — so the exemplar a `Metrics` scrape names and the
//! span a `TraceDump` holds are the same measurement. With histograms
//! off and no flight attached (or no context on the request) a probe
//! costs branches: no clock read, no atomic write — the
//! `trace_overhead` bench in `pathcopy-bench` pins that against a bare
//! loop.
//!
//! Span *kinds* reuse the wire discriminants of
//! [`pathcopy_metrics::Stage`], so a span's `kind` byte and a metrics
//! row's `stage` byte name the same pipeline stage. Clocks are **not**
//! synchronised across nodes: the renderer ([`render_trace`]) shows
//! per-node relative timelines and stitches nodes by trace id + epoch,
//! never by comparing raw timestamps across machines.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use pathcopy_metrics::{HistogramSnapshot, LatencyHistogram, Stage};

/// Saturating nanoseconds from `from` to `to` (`0` if `to` is earlier).
fn ns_between(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from)
        .as_nanos()
        .min(u128::from(u64::MAX)) as u64
}

/// The compact per-request context carried in the wire envelope:
/// everything a downstream node needs to attach its spans to the same
/// trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// Identifies the whole end-to-end trace; every span of one
    /// request's journey shares it.
    pub trace_id: u64,
    /// The span id of the causal parent on the upstream node (`0` for
    /// a root context minted by the client).
    pub parent_span: u64,
    /// Bit flags; see [`TraceContext::SAMPLED`] / [`TraceContext::SLOW`].
    pub flags: u8,
}

impl TraceContext {
    /// The request was chosen for tracing; nodes record its spans.
    pub const SAMPLED: u8 = 1;
    /// Force-pin this trace on every node regardless of the slow
    /// threshold (set by tooling that already knows it wants the dump).
    pub const SLOW: u8 = 2;

    /// Encoded size on the wire: two `u64`s plus the flags byte.
    pub const WIRE_BYTES: usize = 17;

    /// A fresh sampled root context (no parent yet).
    #[must_use]
    pub fn sampled(trace_id: u64) -> Self {
        TraceContext {
            trace_id,
            parent_span: 0,
            flags: Self::SAMPLED,
        }
    }

    /// True when the force-capture bit is set.
    #[must_use]
    pub fn is_slow(&self) -> bool {
        self.flags & Self::SLOW != 0
    }

    /// The context to forward downstream once this node has recorded
    /// the span `parent` — downstream spans become its children.
    #[must_use]
    pub fn child(&self, parent: u64) -> Self {
        TraceContext {
            trace_id: self.trace_id,
            parent_span: parent,
            flags: self.flags,
        }
    }
}

/// One recorded span: a (stage, duration) interval on one node,
/// attached to a trace. Plain data — exactly seven `u64` words on the
/// wire (see [`SpanRecord::to_words`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's id, unique within its node's recorder.
    pub span_id: u64,
    /// The causal parent span (possibly on another node; `0` = root).
    pub parent_span: u64,
    /// Stage discriminant, shared with [`pathcopy_metrics::Stage`].
    pub kind: u8,
    /// Request tag the span served (`0` when not request-shaped).
    pub tag: u8,
    /// The context flags the request carried.
    pub flags: u8,
    /// Feed epoch the span is about (`0` = not known / not epoch-bound).
    pub epoch: u64,
    /// Span start, nanoseconds since the recording node's [`Flight`]
    /// was created. **Node-local** — never compare across nodes.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

impl SpanRecord {
    /// Packs the record into seven `u64` words (`kind`/`tag`/`flags`
    /// share one word) — the ring-slot and wire representation.
    #[must_use]
    pub fn to_words(&self) -> [u64; 7] {
        let meta =
            u64::from(self.kind) | (u64::from(self.tag) << 8) | (u64::from(self.flags) << 16);
        [
            self.trace_id,
            self.span_id,
            self.parent_span,
            meta,
            self.epoch,
            self.start_ns,
            self.dur_ns,
        ]
    }

    /// Inverse of [`to_words`](Self::to_words).
    #[must_use]
    pub fn from_words(w: [u64; 7]) -> Self {
        SpanRecord {
            trace_id: w[0],
            span_id: w[1],
            parent_span: w[2],
            kind: (w[3] & 0xff) as u8,
            tag: ((w[3] >> 8) & 0xff) as u8,
            flags: ((w[3] >> 16) & 0xff) as u8,
            epoch: w[4],
            start_ns: w[5],
            dur_ns: w[6],
        }
    }

    /// Human name of the span's stage (`"?"` for unknown bytes).
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        Stage::from_u8(self.kind).map_or("?", |s| s.as_str())
    }
}

/// One ring slot: a sequence word (seqlock) plus the seven data words.
/// `seq == 0` means never written; odd means a write is in progress.
struct Slot {
    seq: AtomicU64,
    data: [AtomicU64; 7],
}

impl Slot {
    fn empty() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            data: Default::default(),
        }
    }
}

/// Cap on pinned (slow-captured) spans, so a pathological threshold
/// cannot grow the pin buffer without bound.
const PINNED_MAX: usize = 1024;

/// Default ring capacity: enough for the last few thousand spans of
/// traffic while costing ~64 KiB.
const DEFAULT_CAPACITY: usize = 1024;

/// A per-node lock-free flight recorder: the last `capacity` spans in a
/// fixed ring, plus a pinned side-buffer for slow-captured traces.
///
/// Recording is wait-free for the recorder (one `fetch_add` to claim a
/// slot, one seqlock claim, seven relaxed stores): no allocation, no
/// lock. A writer that collides with another writer on the same slot
/// (ring wrapped a full lap mid-write) drops its record rather than
/// blocking — this is a diagnostic ring, not a database.
///
/// Readers ([`dump`](Self::dump)) skip torn slots by seqlock parity;
/// since every word is an atomic there is no undefined behaviour, just
/// records that are either complete or absent.
pub struct Flight {
    node: String,
    origin: Instant,
    next_span: AtomicU64,
    head: AtomicU64,
    slots: Box<[Slot]>,
    slow_ns: AtomicU64,
    pinned: Mutex<Vec<SpanRecord>>,
}

impl Flight {
    /// A recorder named `node` (the name travels in `TraceDump` frames)
    /// with the default ring capacity.
    #[must_use]
    pub fn new(node: &str) -> Arc<Self> {
        Self::with_capacity(node, DEFAULT_CAPACITY)
    }

    /// A recorder with an explicit ring capacity (floored at 1).
    #[must_use]
    pub fn with_capacity(node: &str, capacity: usize) -> Arc<Self> {
        let capacity = capacity.max(1);
        Arc::new(Flight {
            node: node.to_string(),
            origin: Instant::now(),
            next_span: AtomicU64::new(0),
            head: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
            slow_ns: AtomicU64::new(0),
            pinned: Mutex::new(Vec::new()),
        })
    }

    /// The node name stamped on this recorder's dumps.
    #[must_use]
    pub fn node(&self) -> &str {
        &self.node
    }

    /// Arms (or with `None` disarms) slow-request capture: a request
    /// whose end-to-end total on this node meets the threshold gets its
    /// whole span chain pinned past ring eviction.
    pub fn set_slow_threshold(&self, threshold: Option<Duration>) {
        let ns = threshold.map_or(0, |d| d.as_nanos().min(u128::from(u64::MAX)) as u64);
        self.slow_ns.store(ns, Ordering::Relaxed);
    }

    /// Nanoseconds from this recorder's creation to `t` (saturating;
    /// the recorder's span timebase).
    #[must_use]
    pub fn ns_since_origin(&self, t: Instant) -> u64 {
        ns_between(self.origin, t)
    }

    /// Allocates a fresh span id (node-unique, starts at 1).
    #[must_use]
    pub fn next_span_id(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Records one span into the ring. Lock-free; drops the record on
    /// a same-slot writer collision (see the type docs).
    pub fn record(&self, span: &SpanRecord) {
        let idx = (self.head.fetch_add(1, Ordering::Relaxed) % self.slots.len() as u64) as usize;
        let slot = &self.slots[idx];
        let seq = slot.seq.load(Ordering::Relaxed);
        if seq & 1 == 1 {
            return; // another writer mid-flight on this slot
        }
        if slot
            .seq
            .compare_exchange(seq, seq | 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        for (cell, word) in slot.data.iter().zip(span.to_words()) {
            cell.store(word, Ordering::Relaxed);
        }
        slot.seq.store((seq | 1) + 1, Ordering::Release);
    }

    /// Pins every ring span of `trace_id` into the survive-eviction
    /// buffer (bounded at `PINNED_MAX` spans; duplicates by span id are
    /// skipped). Call when a request is identified as slow.
    pub fn pin(&self, trace_id: u64) {
        let matching: Vec<SpanRecord> = self
            .read_ring()
            .into_iter()
            .filter(|s| s.trace_id == trace_id)
            .collect();
        let mut pinned = self.pinned.lock();
        for span in matching {
            if pinned.len() >= PINNED_MAX {
                return;
            }
            if !pinned.iter().any(|p| p.span_id == span.span_id) {
                pinned.push(span);
            }
        }
    }

    /// Applies the slow-capture policy for a finished request: pins the
    /// trace when the context is force-flagged [`TraceContext::SLOW`],
    /// or when a threshold is armed and `total_ns` meets it.
    pub fn maybe_pin(&self, ctx: &TraceContext, total_ns: u64) {
        let threshold = self.slow_ns.load(Ordering::Relaxed);
        if ctx.is_slow() || (threshold > 0 && total_ns >= threshold) {
            self.pin(ctx.trace_id);
        }
    }

    /// Every readable slot, torn ones skipped.
    fn read_ring(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for slot in self.slots.iter() {
            // Seqlock read: same even sequence before and after means
            // the words form one complete record. (All words are
            // atomics, so a lost race is a skipped record, not UB.)
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 & 1 == 1 {
                continue;
            }
            let mut words = [0u64; 7];
            for (w, cell) in words.iter_mut().zip(slot.data.iter()) {
                *w = cell.load(Ordering::Relaxed);
            }
            if slot.seq.load(Ordering::Acquire) != s1 {
                continue;
            }
            out.push(SpanRecord::from_words(words));
        }
        out
    }

    /// Snapshot of everything the recorder holds: pinned spans plus the
    /// live ring, de-duplicated by span id and sorted by
    /// `(trace_id, start_ns, span_id)`.
    #[must_use]
    pub fn dump(&self) -> Vec<SpanRecord> {
        let mut out = self.pinned.lock().clone();
        for span in self.read_ring() {
            if !out.iter().any(|p| p.span_id == span.span_id) {
                out.push(span);
            }
        }
        out.sort_by_key(|s| (s.trace_id, s.start_ns, s.span_id));
        out
    }

    /// Forgets everything recorded so far (ring and pinned buffer).
    pub fn clear(&self) {
        for slot in self.slots.iter() {
            slot.seq.store(0, Ordering::Release);
        }
        self.pinned.lock().clear();
    }
}

impl std::fmt::Debug for Flight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Flight")
            .field("node", &self.node)
            .field("capacity", &self.slots.len())
            .field("pinned", &self.pinned.lock().len())
            .finish_non_exhaustive()
    }
}

/// The instrumentation spine: per-(stage, tag) latency histograms and
/// an optional [`Flight`], behind **one** clock.
///
/// A stage boundary is one [`lap`](Self::lap): a single `Instant::now()`
/// whose distance to the previous boundary becomes both the histogram
/// sample (with the request and trace id as exemplar attribution) and,
/// when a flight is attached and the request carries a context, the
/// span — the two can never disagree. [`begin`](Self::begin) reads the
/// clock only if one of the two will record, so a probe with
/// histograms off and no flight (or an untraced request) costs
/// branches: no clock read, no atomic write.
///
/// The flight is set-once ([`attach_flight`](Self::attach_flight)), so
/// the hot path reads it without a lock.
#[derive(Debug)]
pub struct Probe {
    stages: Vec<Stage>,
    tag_slots: usize,
    /// `stages.len() * tag_slots` histograms, stage-major; empty when
    /// histograms are off.
    hists: Box<[LatencyHistogram]>,
    flight: OnceLock<Arc<Flight>>,
}

impl Probe {
    /// A probe timing `stages`, each with `tag_slots` (min 1)
    /// histograms: slot `t` holds request tag `t`, and tags at or past
    /// `tag_slots` fold into slot `0`. With `histograms` false nothing
    /// is allocated and only spans (once a flight is attached) record.
    #[must_use]
    pub fn new(stages: &[Stage], tag_slots: usize, histograms: bool) -> Self {
        let tag_slots = tag_slots.max(1);
        let hists = if histograms {
            stages.len() * tag_slots
        } else {
            0
        };
        Probe {
            stages: stages.to_vec(),
            tag_slots,
            hists: (0..hists).map(|_| LatencyHistogram::new()).collect(),
            flight: OnceLock::new(),
        }
    }

    /// Attaches the node's flight recorder. One shot: a second call is
    /// ignored.
    pub fn attach_flight(&self, flight: Arc<Flight>) {
        let _ = self.flight.set(flight);
    }

    /// The attached flight recorder, if any.
    #[must_use]
    pub fn flight(&self) -> Option<&Arc<Flight>> {
        self.flight.get()
    }

    fn hist(&self, stage: Stage, tag: u8) -> Option<&LatencyHistogram> {
        if self.hists.is_empty() {
            return None;
        }
        let row = self.stages.iter().position(|s| *s == stage)?;
        let tag = usize::from(tag);
        let slot = if tag < self.tag_slots { tag } else { 0 };
        Some(&self.hists[row * self.tag_slots + slot])
    }

    /// Where a span for `ctx` would land: both a context and a flight.
    fn span_sink<'a>(
        &'a self,
        ctx: Option<&'a TraceContext>,
    ) -> Option<(&'a Flight, &'a TraceContext)> {
        let ctx = ctx?;
        Some((self.flight.get()?, ctx))
    }

    /// Opens a request's stage chain. Reads the clock only if a lap will
    /// record something: histograms are on, or a flight is attached
    /// *and* the request carries a context.
    #[inline]
    #[must_use]
    pub fn begin(&self, ctx: Option<&TraceContext>) -> Option<Instant> {
        (!self.hists.is_empty() || self.span_sink(ctx).is_some()).then(Instant::now)
    }

    /// Reserves the id of a span that is still open and returns the
    /// context to hand downstream, so stages the open span triggers
    /// parent under it before it closes; close it with
    /// [`lap_as`](Self::lap_as). `None` when no span would be cut.
    #[must_use]
    pub fn child(&self, ctx: Option<&TraceContext>) -> Option<TraceContext> {
        self.span_sink(ctx)
            .map(|(flight, ctx)| ctx.child(flight.next_span_id()))
    }

    /// Closes the stage that started at `t0`: takes **one** clock
    /// reading and feeds the elapsed nanoseconds to the (stage, tag)
    /// histogram — attributed to `request_id` and the trace — and, for a
    /// traced request, to a span about `epoch`. Returns the reading as
    /// the next stage's start; branch-only when `t0` is `None`.
    #[inline]
    pub fn lap(
        &self,
        stage: Stage,
        tag: u8,
        request_id: u64,
        ctx: Option<&TraceContext>,
        epoch: u64,
        t0: Option<Instant>,
    ) -> Option<Instant> {
        self.lap_as(None, stage, tag, request_id, ctx, epoch, t0)
    }

    /// [`lap`](Self::lap) for a span whose id was reserved with
    /// [`child`](Self::child): pass that child context as `reserved`.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn lap_as(
        &self,
        reserved: Option<&TraceContext>,
        stage: Stage,
        tag: u8,
        request_id: u64,
        ctx: Option<&TraceContext>,
        epoch: u64,
        t0: Option<Instant>,
    ) -> Option<Instant> {
        // Only this branch is inlined into the caller; the recording
        // half stays out of line so the disabled path is just the test.
        t0.map(|t0| self.close(reserved, stage, tag, request_id, ctx, epoch, t0))
    }

    #[allow(clippy::too_many_arguments)]
    fn close(
        &self,
        reserved: Option<&TraceContext>,
        stage: Stage,
        tag: u8,
        request_id: u64,
        ctx: Option<&TraceContext>,
        epoch: u64,
        t0: Instant,
    ) -> Instant {
        let now = Instant::now();
        let dur_ns = ns_between(t0, now);
        self.record(stage, tag, dur_ns, request_id, ctx);
        if let Some((flight, ctx)) = self.span_sink(ctx) {
            flight.record(&SpanRecord {
                trace_id: ctx.trace_id,
                span_id: reserved.map_or_else(|| flight.next_span_id(), |c| c.parent_span),
                parent_span: ctx.parent_span,
                kind: stage as u8,
                tag,
                flags: ctx.flags,
                epoch,
                start_ns: flight.ns_since_origin(t0),
                dur_ns,
            });
        }
        now
    }

    /// Records a raw (stage, tag) sample that is not a timed interval —
    /// an epoch gap, say — with the same exemplar attribution.
    #[inline]
    pub fn record(
        &self,
        stage: Stage,
        tag: u8,
        value: u64,
        request_id: u64,
        ctx: Option<&TraceContext>,
    ) {
        if let Some(hist) = self.hist(stage, tag) {
            hist.record_tagged(value, request_id, ctx.map_or(0, |c| c.trace_id));
        }
    }

    /// Applies the slow-capture policy ([`Flight::maybe_pin`]) to a
    /// traced request that took `from..to` on this node.
    pub fn pin_slow(&self, ctx: Option<&TraceContext>, from: Option<Instant>, to: Option<Instant>) {
        if let (Some((flight, ctx)), Some(from), Some(to)) = (self.span_sink(ctx), from, to) {
            flight.maybe_pin(ctx, ns_between(from, to));
        }
    }

    /// Snapshot of one (stage, tag) histogram; empty when histograms
    /// are off or the probe does not time `stage`.
    #[must_use]
    pub fn snapshot(&self, stage: Stage, tag: u8) -> HistogramSnapshot {
        self.hist(stage, tag)
            .map_or_else(HistogramSnapshot::empty, LatencyHistogram::snapshot)
    }

    /// Every non-empty histogram as `(stage, tag, snapshot)`, in
    /// (declared stage, tag) order.
    #[must_use]
    pub fn snapshots(&self) -> Vec<(Stage, u8, HistogramSnapshot)> {
        let mut out = Vec::new();
        for (i, hist) in self.hists.iter().enumerate() {
            let snap = hist.snapshot();
            if !snap.is_empty() {
                let stage = self.stages[i / self.tag_slots];
                out.push((stage, (i % self.tag_slots) as u8, snap));
            }
        }
        out
    }

    /// Zeroes every histogram. Not atomic with respect to concurrent
    /// laps; spans are untouched.
    pub fn reset(&self) {
        for hist in self.hists.iter() {
            hist.reset();
        }
    }
}

/// Formats nanoseconds as a compact human duration.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else {
        format!("{:.1}us", ns as f64 / 1e3)
    }
}

/// Trace ids present in `dumps`, widest first: sorted by how many
/// nodes saw the trace, then by total span count — the first entry is
/// the best candidate for [`render_trace`].
#[must_use]
pub fn trace_ids(dumps: &[(String, Vec<SpanRecord>)]) -> Vec<u64> {
    let mut stats: Vec<(u64, usize, usize)> = Vec::new(); // (id, nodes, spans)
    for (_, spans) in dumps {
        let mut seen_here: Vec<u64> = Vec::new();
        for span in spans {
            match stats.iter_mut().find(|(id, _, _)| *id == span.trace_id) {
                Some((id, nodes, count)) => {
                    *count += 1;
                    if !seen_here.contains(id) {
                        *nodes += 1;
                    }
                }
                None => stats.push((span.trace_id, 1, 1)),
            }
            if !seen_here.contains(&span.trace_id) {
                seen_here.push(span.trace_id);
            }
        }
    }
    stats.sort_by(|a, b| (b.1, b.2).cmp(&(a.1, a.2)).then(a.0.cmp(&b.0)));
    stats.into_iter().map(|(id, _, _)| id).collect()
}

/// Renders one trace's cross-node timeline. Each node section lists its
/// spans in start order with offsets **relative to that node's first
/// span of the trace** — clocks are node-local, so the stitching is by
/// trace id and epoch number, never by absolute time.
#[must_use]
pub fn render_trace(trace_id: u64, dumps: &[(String, Vec<SpanRecord>)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "trace {trace_id:#018x}");
    for (node, spans) in dumps {
        let mut mine: Vec<&SpanRecord> = spans.iter().filter(|s| s.trace_id == trace_id).collect();
        if mine.is_empty() {
            continue;
        }
        mine.sort_by_key(|s| (s.start_ns, s.span_id));
        let base = mine[0].start_ns;
        let _ = writeln!(out, "  node {node}");
        for span in mine {
            let epoch = if span.epoch > 0 {
                format!("  epoch={}", span.epoch)
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "    +{:<10} {:<12} {:<10} span={} parent={}{}",
                fmt_ns(span.start_ns - base),
                span.kind_name(),
                fmt_ns(span.dur_ns),
                span.span_id,
                span.parent_span,
                epoch,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(trace: u64, span: u64, start: u64) -> SpanRecord {
        SpanRecord {
            trace_id: trace,
            span_id: span,
            parent_span: 0,
            kind: Stage::Execute as u8,
            tag: 1,
            flags: TraceContext::SAMPLED,
            epoch: 7,
            start_ns: start,
            dur_ns: 10,
        }
    }

    #[test]
    fn words_roundtrip_every_field() {
        let span = SpanRecord {
            trace_id: 0xdead_beef,
            span_id: 42,
            parent_span: 41,
            kind: Stage::PushApply as u8,
            tag: 11,
            flags: 3,
            epoch: 9000,
            start_ns: 123_456,
            dur_ns: 789,
        };
        assert_eq!(SpanRecord::from_words(span.to_words()), span);
    }

    #[test]
    fn ring_records_and_dumps_in_order() {
        let f = Flight::with_capacity("n", 8);
        for i in 0..5 {
            f.record(&rec(1, i + 1, i * 100));
        }
        let dump = f.dump();
        assert_eq!(dump.len(), 5);
        assert!(dump.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        assert_eq!(f.node(), "n");
    }

    #[test]
    fn ring_evicts_oldest_but_pin_survives() {
        let f = Flight::with_capacity("n", 4);
        for i in 0..4 {
            f.record(&rec(1, i + 1, i));
        }
        f.pin(1); // pin trace 1 while its spans are still in the ring
        for i in 0..8 {
            f.record(&rec(2, 100 + i, 1000 + i));
        }
        let dump = f.dump();
        // Trace 2 overwrote the whole ring, yet trace 1 survives pinned.
        assert_eq!(dump.iter().filter(|s| s.trace_id == 1).count(), 4);
        assert_eq!(dump.iter().filter(|s| s.trace_id == 2).count(), 4);
    }

    #[test]
    fn maybe_pin_honours_threshold_and_force_flag() {
        let f = Flight::with_capacity("n", 8);
        f.record(&rec(5, 1, 0));
        f.maybe_pin(&TraceContext::sampled(5), u64::MAX); // disarmed: no pin
        f.record(&rec(6, 2, 0));
        f.set_slow_threshold(Some(Duration::from_millis(1)));
        f.maybe_pin(&TraceContext::sampled(6), 999_999); // below threshold
        let mut forced = TraceContext::sampled(5);
        forced.flags |= TraceContext::SLOW;
        f.maybe_pin(&forced, 0); // force flag wins
        f.maybe_pin(&TraceContext::sampled(6), 1_000_000); // meets threshold
        f.clear_ring_for_test();
        let dump = f.dump();
        assert!(dump.iter().any(|s| s.trace_id == 5));
        assert!(dump.iter().any(|s| s.trace_id == 6));
    }

    impl Flight {
        /// Test helper: empty the ring but keep the pinned buffer.
        fn clear_ring_for_test(&self) {
            for slot in self.slots.iter() {
                slot.seq.store(0, Ordering::Release);
            }
        }
    }

    #[test]
    fn lap_records_interval_and_parents() {
        let probe = Probe::new(&[], 1, false);
        probe.attach_flight(Flight::with_capacity("n", 8));
        let ctx = TraceContext::sampled(9).child(77);
        let t0 = probe.begin(Some(&ctx));
        assert!(probe
            .lap(Stage::QueueWait, 3, 0, Some(&ctx), 12, t0)
            .is_some());
        let dump = probe.flight().unwrap().dump();
        assert_eq!(dump.len(), 1);
        assert_ne!(dump[0].span_id, 0);
        assert_eq!(dump[0].parent_span, 77);
        assert_eq!((dump[0].kind, dump[0].tag), (Stage::QueueWait as u8, 3));
        assert_eq!(dump[0].epoch, 12);
    }

    #[test]
    fn reserved_child_parents_under_the_still_open_span() {
        let probe = Probe::new(&[], 1, false);
        assert!(probe.child(Some(&TraceContext::sampled(1))).is_none());
        probe.attach_flight(Flight::with_capacity("n", 8));
        assert!(probe.child(None).is_none(), "untraced: nothing to reserve");
        let ctx = TraceContext::sampled(1).child(5);
        let child = probe.child(Some(&ctx)).expect("flight and context");
        assert_eq!((child.trace_id, child.flags), (ctx.trace_id, ctx.flags));
        let t0 = probe.begin(Some(&ctx));
        probe.lap_as(Some(&child), Stage::Execute, 1, 0, Some(&ctx), 0, t0);
        let dump = probe.flight().unwrap().dump();
        assert_eq!(dump[0].span_id, child.parent_span);
        assert_eq!(dump[0].parent_span, 5);
    }

    #[test]
    fn disabled_probe_never_reads_the_clock() {
        let ctx = TraceContext::sampled(1);
        // Histograms off, no flight: branch-only even with a context.
        let off = Probe::new(&[Stage::Execute], 4, false);
        assert!(off.begin(Some(&ctx)).is_none());
        assert!(off.lap(Stage::Execute, 1, 7, Some(&ctx), 0, None).is_none());
        off.record(Stage::Execute, 1, 42, 7, Some(&ctx));
        off.pin_slow(Some(&ctx), None, None);
        assert!(off.snapshot(Stage::Execute, 1).is_empty());
        assert!(off.snapshots().is_empty());
        assert!(off.flight().is_none());
        // A live flight serving a request without a context also
        // short-circuits.
        off.attach_flight(Flight::new("n"));
        assert!(off.begin(None).is_none());
        assert!(off.begin(Some(&ctx)).is_some());
        assert!(off.flight().unwrap().dump().is_empty());
    }

    #[test]
    fn histogram_only_probe_records_laps_per_stage_and_tag() {
        let probe = Probe::new(&[Stage::QueueWait, Stage::Execute], 4, true);
        let t0 = probe.begin(None);
        assert!(t0.is_some(), "histograms on: the clock is read");
        let t1 = probe.lap(Stage::QueueWait, 1, 10, None, 0, t0);
        let t2 = probe.lap(Stage::Execute, 1, 10, None, 0, t1);
        assert!(t2.is_some());
        probe.record(Stage::Execute, 200, 5, 0, None); // folds into slot 0
        probe.record(Stage::WriteFlush, 1, 5, 0, None); // not timed here
        let rows: Vec<(Stage, u8, u64)> = probe
            .snapshots()
            .into_iter()
            .map(|(stage, tag, snap)| (stage, tag, snap.count()))
            .collect();
        assert_eq!(
            rows,
            vec![
                (Stage::QueueWait, 1, 1),
                (Stage::Execute, 0, 1),
                (Stage::Execute, 1, 1)
            ]
        );
        assert_eq!(
            probe.snapshot(Stage::Execute, 1).exemplar().map(|e| e.1),
            Some(10)
        );
        probe.reset();
        assert!(probe.snapshots().is_empty());
    }

    #[test]
    fn the_span_is_the_sample() {
        let probe = Probe::new(&[Stage::Execute], 2, true);
        probe.attach_flight(Flight::with_capacity("n", 8));
        probe.attach_flight(Flight::new("ignored")); // set-once
        assert_eq!(probe.flight().unwrap().node(), "n");
        let ctx = TraceContext::sampled(0xabc);
        let t0 = probe.begin(Some(&ctx));
        let t1 = probe.lap(Stage::Execute, 1, 41, Some(&ctx), 3, t0);
        let dump = probe.flight().unwrap().dump();
        let snap = probe.snapshot(Stage::Execute, 1);
        assert_eq!(dump.len(), 1);
        assert_eq!(snap.max(), dump[0].dur_ns, "one clock reading feeds both");
        assert_eq!(snap.exemplar(), Some((dump[0].dur_ns, 41, 0xabc)));
        // Force-flagged contexts pin through the probe.
        let mut slow = ctx;
        slow.flags |= TraceContext::SLOW;
        probe.pin_slow(Some(&slow), t0, t1);
        probe.flight().unwrap().clear_ring_for_test();
        assert_eq!(probe.flight().unwrap().dump().len(), 1, "pinned");
    }

    #[test]
    fn concurrent_recording_keeps_records_whole() {
        let f = Flight::with_capacity("n", 64);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let f = &f;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        // Every record's fields agree mod a constant, so
                        // a torn read would be detectable.
                        let v = t * 10_000 + i;
                        f.record(&SpanRecord {
                            trace_id: v,
                            span_id: v,
                            parent_span: v,
                            kind: 1,
                            tag: 1,
                            flags: 1,
                            epoch: v,
                            start_ns: v,
                            dur_ns: v,
                        });
                    }
                });
            }
        });
        for span in f.dump() {
            assert_eq!(span.trace_id, span.span_id);
            assert_eq!(span.trace_id, span.epoch);
            assert_eq!(span.trace_id, span.start_ns);
        }
    }

    #[test]
    fn stitch_and_render_cross_node() {
        let primary = vec![rec(1, 1, 0), rec(1, 2, 50), rec(2, 3, 0)];
        let leaf = vec![rec(1, 1, 12345)];
        let dumps = vec![("primary".to_string(), primary), ("leaf".to_string(), leaf)];
        let ids = trace_ids(&dumps);
        assert_eq!(ids[0], 1, "trace 1 spans two nodes: widest first");
        let text = render_trace(1, &dumps);
        assert!(text.contains("node primary"));
        assert!(text.contains("node leaf"));
        assert!(text.contains("epoch=7"));
        assert!(!render_trace(2, &dumps).contains("node leaf"));
    }
}
