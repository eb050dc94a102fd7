//! Bench-side spans: one record per call the benchmark makes into a
//! layer's public function, kept in memory and written out when the
//! pass ends.
//!
//! Spans are recorded only from this package's files, around calls into
//! the layers; nothing inside the program under test changes. Each
//! thread appends to its own buffer (no lock on the traced path) and
//! hands the buffer to the process-wide sink when it exits, so spans
//! recorded on the server's worker threads (the feed-sink wrapper) are
//! collected too.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the process; never 0.
    pub id: u64,
    /// The span that caused this one (`0` = a root).
    pub parent: u64,
    /// The operation this span belongs to; spans of one request share it.
    pub req: u64,
    /// `layer.call`, e.g. `concurrent.get` — the layer is the text before
    /// the first dot.
    pub name: &'static str,
    /// Nanoseconds since the process's span origin.
    pub start_ns: u64,
    /// Nanoseconds since the process's span origin.
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static ORIGIN: OnceLock<Instant> = OnceLock::new();

struct Local {
    thread: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Drop for Local {
    fn drop(&mut self) {
        flush(&mut self.spans);
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        next: 1,
        spans: Vec::new(),
    });
}

fn flush(spans: &mut Vec<Span>) {
    if !spans.is_empty() {
        // A poisoned sink only means another thread panicked while
        // appending; the vector itself is still a valid list of spans.
        let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
        sink.append(spans);
    }
}

/// Turns span recording on or off for the whole process. The workloads
/// read this once per phase; it is not consulted per operation.
pub fn set_enabled(on: bool) {
    ORIGIN.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the span origin (fixed at the first `set_enabled`).
pub fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A fresh span id for a span whose start and end are recorded at
/// different call sites (a pipelined request); see [`record`].
pub fn new_id() -> u64 {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let id = (l.thread << 40) | l.next;
        l.next += 1;
        id
    })
}

/// Appends a finished span to this thread's buffer.
pub fn record(span: Span) {
    LOCAL.with(|l| l.borrow_mut().spans.push(span));
}

/// Runs `f` inside a span named `name` under `parent` (`0` = root) and
/// records it. `f` receives the new span's id so calls it makes can be
/// recorded as children.
pub fn timed<R>(parent: u64, req: u64, name: &'static str, f: impl FnOnce(u64) -> R) -> R {
    let id = new_id();
    let start_ns = now_ns();
    let result = f(id);
    record(Span {
        id,
        parent,
        req,
        name,
        start_ns,
        end_ns: now_ns(),
    });
    result
}

/// [`timed`] when recording is on, a plain call to `f` when it is off —
/// for call sites off the hot path that do not want to branch themselves.
pub fn maybe_timed<R>(parent: u64, req: u64, name: &'static str, f: impl FnOnce(u64) -> R) -> R {
    if enabled() {
        timed(parent, req, name, f)
    } else {
        f(0)
    }
}

/// Takes every span recorded so far: the calling thread's buffer plus
/// everything exited threads handed over. Call after joining the
/// threads that recorded.
pub fn drain() -> Vec<Span> {
    LOCAL.with(|l| flush(&mut l.borrow_mut().spans));
    std::mem::take(&mut *SINK.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Number of spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times (duration minus what children cover).
    pub self_ns: u64,
}

impl NameTotals {
    /// Mean self time per span, in nanoseconds (0 when there are none).
    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Overlapping children are counted once and a
/// child is clipped to its parent's interval.
fn self_time(span: &Span, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = span.start_ns;
    for &(start, end) in children.iter() {
        let start = start.max(cursor);
        let end = end.min(span.end_ns);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    (span.end_ns - span.start_ns).saturating_sub(covered)
}

/// Groups spans by name, computing each span's self time from its
/// children.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let own = children.get_mut(&s.id).map_or_else(
            || s.end_ns.saturating_sub(s.start_ns),
            |kids| self_time(s, kids),
        );
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns.saturating_sub(s.start_ns);
        t.self_ns += own;
    }
    out
}

/// The layer a span name belongs to: the text before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Writes one JSON object per span, one per line.
///
/// # Errors
///
/// Any error from the writer.
pub fn write_jsonl<W: Write>(mut w: W, spans: &[Span]) -> io::Result<()> {
    for s in spans {
        writeln!(
            w,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"req\": {}, \"id\": {}}}",
            s.name, s.start_ns, s.end_ns, s.parent, s.req, s.id
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 7,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(1, 0, "op", 0, 100),
            span(2, 1, "core.uc_insert", 10, 40),
            // Overlaps the first child by 10 ns and overruns the parent.
            span(3, 1, "core.uc_remove", 30, 120),
            span(4, 2, "trees.insert", 15, 25),
        ];
        let t = totals(&spans);
        // Children cover [10, 100) of the root: self = 10.
        assert_eq!(t["op"].self_ns, 10);
        assert_eq!(t["op"].total_ns, 100);
        assert_eq!(t["core.uc_insert"].self_ns, 20);
        assert_eq!(t["core.uc_remove"].self_ns, 90);
        assert_eq!(t["trees.insert"].self_ns, 10);
        assert_eq!(t["trees.insert"].count, 1);
    }

    #[test]
    fn a_leaf_span_is_all_self_time() {
        let t = totals(&[span(1, 0, "server.wait", 5, 55)]);
        assert_eq!(t["server.wait"].self_ns, 50);
        assert!((t["server.wait"].mean_self_ns() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn layer_is_the_prefix_before_the_dot() {
        assert_eq!(layer_of("durable.on_publish"), "durable");
        assert_eq!(layer_of("op"), "op");
    }

    #[test]
    fn timed_nests_by_the_id_it_hands_out_and_threads_hand_over_on_exit() {
        set_enabled(true);
        let handle = std::thread::spawn(|| {
            timed(0, 42, "op", |op| {
                timed(op, 42, "trees.get", |_| std::hint::black_box(1 + 1))
            })
        });
        assert_eq!(handle.join().unwrap(), 2);
        // Other tests in this process may record too: look only at ours.
        let ours: Vec<Span> = drain().into_iter().filter(|s| s.req == 42).collect();
        assert_eq!(ours.len(), 2);
        let root = ours.iter().find(|s| s.name == "op").unwrap();
        let child = ours.iter().find(|s| s.name == "trees.get").unwrap();
        assert_eq!(root.parent, 0);
        assert_eq!(child.parent, root.id);
        assert!(child.start_ns >= root.start_ns && child.end_ns <= root.end_ns);

        let mut out = Vec::new();
        write_jsonl(&mut out, &ours).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let v = crate::json::parse(line).unwrap();
            for key in ["name", "start_ns", "end_ns", "parent", "req"] {
                assert!(v.get(key).is_some(), "{key} missing in {line}");
            }
        }
    }
}
