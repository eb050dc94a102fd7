//! Per-stage latency tracing for the serving pipeline, and the text
//! exposition both [`crate::proto::Request::Metrics`] scrapes and
//! humans read.
//!
//! The event loop laps one [`Probe`] at each of the three in-process
//! stage boundaries it can see — decode→dispatch queue wait, worker
//! execute time, and reply-ready→flushed write time — into one
//! histogram per (stage, request-tag) pair. Components outside the
//! event loop (the durable feed persister, push replicas relaying a
//! feed) hold probes of their own, implement [`MetricsSource`] and
//! register themselves, so one `Metrics` scrape returns the whole
//! pipeline. The same scrape carries one row per engine and server
//! counter and gauge, built by the server from atomics it keeps anyway
//! ([`value_of`] reads one back).
//!
//! When the server is configured with metrics disabled the probe holds
//! no histograms and the per-request cost is a handful of branches — no
//! clock reads, no atomics (see the `trace_overhead` bench in
//! `pathcopy-bench`).

use std::sync::Arc;

use parking_lot::Mutex;
use pathcopy_metrics::{HistogramSnapshot, Kind, Stage};
use pathcopy_trace::Probe;

use crate::proto::{Request, StageSummary, REQUEST_TAGS};

/// Per-tag histogram slots: one per declared request tag plus slot `0`
/// for untagged samples — derived from [`REQUEST_TAGS`], so a new
/// request gets its own slot instead of folding into slot `0`.
const TAG_SLOTS: usize = {
    let mut max = 0;
    let mut i = 0;
    while i < REQUEST_TAGS.len() {
        if REQUEST_TAGS[i].0 > max {
            max = REQUEST_TAGS[i].0;
        }
        i += 1;
    }
    max as usize + 1
};

/// Anything that can contribute rows to a `Metrics` scrape: the durable
/// persister's fsync histogram, a push replica's apply/lag histograms,
/// or any future pipeline stage.
pub trait MetricsSource: Send + Sync {
    /// Snapshot this source's histograms as wire rows. Called on a
    /// worker thread per scrape; must not block on the serving path.
    fn collect(&self) -> Vec<StageSummary>;

    /// Zeroes this source's histograms
    /// ([`crate::proto::Request::ResetMetrics`]). Default: no-op, so
    /// sources that predate resettable scrapes keep compiling.
    fn reset(&self) {}
}

/// Condenses a histogram snapshot into the wire row for `stage`/`tag` —
/// the bridge [`MetricsSource`] implementations use. The snapshot's
/// exemplar (worst-sample request/trace attribution), when present,
/// rides along on the row.
#[must_use]
pub fn summarize(stage: Stage, tag: u8, snap: &HistogramSnapshot) -> StageSummary {
    let s = snap.summary();
    let (exemplar_id, exemplar_trace) =
        snap.exemplar().map_or((0, 0), |(_, id, trace)| (id, trace));
    StageSummary {
        stage: stage as u8,
        tag,
        count: s.count,
        sum: s.sum,
        p50: s.p50,
        p90: s.p90,
        p99: s.p99,
        p999: s.p999,
        max: s.max,
        exemplar_id,
        exemplar_trace,
    }
}

/// A probe's non-empty histograms are its rows: what lets the event
/// loop, the durable persister and the push pump share one scrape path.
impl MetricsSource for Probe {
    fn collect(&self) -> Vec<StageSummary> {
        self.snapshots()
            .iter()
            .map(|(stage, tag, snap)| summarize(*stage, *tag, snap))
            .collect()
    }

    fn reset(&self) {
        Probe::reset(self);
    }
}

/// The server's stage-tracing registry: the event loop's probe plus
/// externally registered [`MetricsSource`]s.
pub(crate) struct ServerMetrics {
    /// The event loop's three stages, per request tag.
    pub(crate) probe: Probe,
    extra: Mutex<Vec<Arc<dyn MetricsSource>>>,
}

impl ServerMetrics {
    /// Builds the registry. With `enabled = false` the probe holds no
    /// histograms and recording is branch-only.
    pub(crate) fn new(enabled: bool) -> Self {
        ServerMetrics {
            probe: Probe::new(
                &[Stage::QueueWait, Stage::Execute, Stage::WriteFlush],
                TAG_SLOTS,
                enabled,
            ),
            extra: Mutex::new(Vec::new()),
        }
    }

    /// Adds an external histogram source to subsequent scrapes.
    pub(crate) fn register_source(&self, source: Arc<dyn MetricsSource>) {
        self.extra.lock().push(source);
    }

    /// Zeroes every histogram — the event loop's per-tag stages and
    /// every registered source — so subsequent scrapes report a fresh
    /// window. Idempotent; concurrent recordings may land on either
    /// side of the wipe.
    pub(crate) fn reset_all(&self) {
        self.probe.reset();
        for source in self.extra.lock().iter() {
            source.reset();
        }
    }

    /// Snapshots every non-empty histogram as wire rows, ascending by
    /// (stage, tag).
    pub(crate) fn report(&self) -> Vec<StageSummary> {
        let mut rows = self.probe.collect();
        for source in self.extra.lock().iter() {
            rows.extend(source.collect().into_iter().filter(|r| r.count > 0));
        }
        rows.sort_by_key(|r| (r.stage, r.tag));
        rows
    }
}

/// The row that carries one counter or gauge: `count` holds the value,
/// every other field is `0`.
pub(crate) fn value_row(stage: Stage, count: u64) -> StageSummary {
    StageSummary {
        stage: stage as u8,
        count,
        ..StageSummary::default()
    }
}

/// The value of a counter or gauge in a scrape: the `count` of the
/// untagged row of kind `stage`, or `None` when `rows` has no such row.
#[must_use]
pub fn value_of(rows: &[StageSummary], stage: Stage) -> Option<u64> {
    rows.iter()
        .find(|r| r.stage == stage as u8 && r.tag == 0)
        .map(|r| r.count)
}

/// Renders `Metrics` rows as Prometheus-style text: one `# TYPE <name>
/// <kind>` header per metric. A histogram row is `quantile`-labelled
/// sample lines plus `_sum`/`_count`, with the request tag as a `tag`
/// label; a counter or gauge row is one sample line carrying its value.
/// Metric names are `pathcopy_<stage>_<unit>` (`…_ns` for latencies,
/// `…_epochs` for the watermark gap, `…_bytes` for wire traffic), or
/// `pathcopy_<stage>` for a plain count. Rows with unknown stage bytes
/// are skipped, matching the wire contract.
#[must_use]
pub fn render_text(rows: &[StageSummary]) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let mut last_name: Option<String> = None;
    for row in rows {
        let Some(stage) = Stage::from_u8(row.stage) else {
            continue;
        };
        let name = match stage.unit() {
            "" => format!("pathcopy_{}", stage.as_str()),
            unit => format!("pathcopy_{}_{unit}", stage.as_str()),
        };
        if last_name.as_deref() != Some(&name) {
            let kind = format!("{:?}", stage.kind()).to_lowercase();
            let _ = writeln!(out, "# TYPE {name} {kind}");
            last_name = Some(name.clone());
        }
        let tag = Request::tag_name(row.tag).map(|tag| format!("tag=\"{tag}\""));
        let tag_label = tag.as_ref().map_or(String::new(), |tag| format!("{tag},"));
        let braced = tag
            .as_ref()
            .map_or(String::new(), |tag| format!("{{{tag}}}"));
        if stage.kind() != Kind::Summary {
            let _ = writeln!(out, "{name}{braced} {}", row.count);
            continue;
        }
        for (q, v) in [
            ("0.5", row.p50),
            ("0.9", row.p90),
            ("0.99", row.p99),
            ("0.999", row.p999),
        ] {
            let _ = writeln!(out, "{name}{{{tag_label}quantile=\"{q}\"}} {v}");
        }
        // OpenMetrics-style exemplar on the max line: which request
        // (and trace) produced the worst sample this histogram saw.
        let exemplar = if row.exemplar_id != 0 || row.exemplar_trace != 0 {
            format!(
                " # {{request_id=\"{}\",trace_id=\"{:x}\"}} {}",
                row.exemplar_id, row.exemplar_trace, row.max
            )
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "{name}{{{tag_label}quantile=\"1\"}} {}{exemplar}",
            row.max
        );
        let _ = writeln!(out, "{name}_sum{braced} {}", row.sum);
        let _ = writeln!(out, "{name}_count{braced} {}", row.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_reports_nothing_and_reads_no_clock() {
        let m = ServerMetrics::new(false);
        let t0 = m.probe.begin(None);
        assert!(t0.is_none());
        assert!(m.probe.lap(Stage::QueueWait, 1, 0, None, 0, t0).is_none());
        assert!(m.report().is_empty());
    }

    #[test]
    fn enabled_registry_reports_per_stage_per_tag_rows() {
        let m = ServerMetrics::new(true);
        let t0 = m.probe.begin(None);
        let t1 = m.probe.lap(Stage::QueueWait, 1, 0, None, 0, t0);
        let t2 = m.probe.lap(Stage::Execute, 1, 0, None, 0, t1);
        assert!(t2.is_some());
        m.probe.record(Stage::WriteFlush, 5, 100, 0, None);

        let rows = m.report();
        assert_eq!(rows.len(), 3);
        assert_eq!(
            (rows[0].stage, rows[0].tag),
            (Stage::QueueWait as u8, 1),
            "{rows:?}"
        );
        assert_eq!((rows[2].stage, rows[2].tag), (Stage::WriteFlush as u8, 5));
        assert!(rows
            .windows(2)
            .all(|w| (w[0].stage, w[0].tag) <= (w[1].stage, w[1].tag)));
    }

    #[test]
    fn out_of_range_tags_fold_into_slot_zero() {
        let m = ServerMetrics::new(true);
        m.probe.record(Stage::Execute, 200, 7, 0, None);
        let rows = m.report();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].tag, 0);
    }

    #[test]
    fn every_declared_request_tag_gets_its_own_slot() {
        let m = ServerMetrics::new(true);
        for (tag, name) in REQUEST_TAGS {
            assert!((*tag as usize) < TAG_SLOTS, "{name} folds into slot 0");
            assert_ne!(*tag, 0, "{name}: slot 0 is the untagged slot");
            m.probe.record(Stage::Execute, *tag, 1, 0, None);
        }
        let tags: Vec<u8> = m.report().iter().map(|r| r.tag).collect();
        let declared: Vec<u8> = REQUEST_TAGS.iter().map(|(tag, _)| *tag).collect();
        assert_eq!(tags, declared, "one row per declared tag, none folded");
    }

    #[test]
    fn registered_sources_contribute_rows() {
        struct Fixed;
        impl MetricsSource for Fixed {
            fn collect(&self) -> Vec<StageSummary> {
                vec![
                    StageSummary {
                        stage: Stage::AppendFsync as u8,
                        tag: 0,
                        count: 3,
                        ..StageSummary::default()
                    },
                    StageSummary::default(), // empty: must be filtered
                ]
            }
        }
        let m = ServerMetrics::new(true);
        m.register_source(Arc::new(Fixed));
        let rows = m.report();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].stage, Stage::AppendFsync as u8);
    }

    #[test]
    fn render_text_is_prometheus_shaped() {
        let rows = vec![
            StageSummary {
                stage: Stage::QueueWait as u8,
                tag: 1,
                count: 10,
                sum: 1000,
                p50: 90,
                p90: 150,
                p99: 200,
                p999: 210,
                max: 220,
                exemplar_id: 41,
                exemplar_trace: 0xBEEF,
            },
            StageSummary {
                stage: Stage::EpochLag as u8,
                tag: 0,
                count: 4,
                sum: 4,
                p50: 1,
                p90: 1,
                p99: 1,
                p999: 1,
                max: 1,
                exemplar_id: 0,
                exemplar_trace: 0,
            },
            // One counter and one gauge; a zero is still a sample.
            value_row(Stage::Attempts, 12),
            value_row(Stage::Len, 0),
            StageSummary {
                stage: 250, // unknown: skipped
                ..StageSummary::default()
            },
        ];
        let text = render_text(&rows);
        assert!(text.contains("# TYPE pathcopy_attempts counter\npathcopy_attempts 12\n"));
        assert!(text.contains("# TYPE pathcopy_len gauge\npathcopy_len 0\n"));
        assert!(text.contains("# TYPE pathcopy_queue_wait_ns summary"));
        assert!(text.contains("pathcopy_queue_wait_ns{tag=\"Get\",quantile=\"0.5\"} 90"));
        assert!(text.contains("pathcopy_queue_wait_ns_count{tag=\"Get\"} 10"));
        // Exemplar rides the max line; rows without one stay bare.
        assert!(text.contains(
            "pathcopy_queue_wait_ns{tag=\"Get\",quantile=\"1\"} 220 \
             # {request_id=\"41\",trace_id=\"beef\"} 220"
        ));
        assert!(text.contains("# TYPE pathcopy_epoch_lag_epochs summary"));
        assert!(text.contains("pathcopy_epoch_lag_epochs{quantile=\"1\"} 1\n"));
        assert!(text.contains("pathcopy_epoch_lag_epochs_count 4"));
        assert!(!text.contains("250"));
    }

    #[test]
    fn reset_all_zeroes_recorders_and_sources() {
        use std::sync::atomic::{AtomicBool, Ordering};
        struct Flag(AtomicBool);
        impl MetricsSource for Flag {
            fn collect(&self) -> Vec<StageSummary> {
                vec![]
            }
            fn reset(&self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let m = ServerMetrics::new(true);
        let flag = Arc::new(Flag(AtomicBool::new(false)));
        m.register_source(flag.clone());
        m.probe.record(Stage::Execute, 1, 7, 0, None);
        assert_eq!(m.report().len(), 1);
        m.reset_all();
        assert!(m.report().is_empty(), "recorders must be zeroed");
        assert!(flag.0.load(Ordering::Relaxed), "sources must be reset too");
        m.reset_all(); // idempotent
        assert!(m.report().is_empty());
    }
}
