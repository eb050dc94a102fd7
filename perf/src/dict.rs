//! The ledger's dictionary: every workload and every metric by name,
//! with unit, direction, bound, the call it wraps and the end-to-end
//! metric it should move. `BENCHMARK.json` and `README.md` are checked
//! against this table by the package's tests, and `compare` gates on it.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A larger value is better (throughput, speedup).
    Higher,
    /// A smaller value is better (latency, memory, cost).
    Lower,
}

impl Better {
    /// `higher` / `lower`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Who holds a metric to its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// An `end_to_end` metric of `BENCHMARK.json`: emitted by every
    /// workload's untraced pass, never 0, bounded for later changes.
    EndToEnd,
    /// End-to-end in meaning but specific to some workloads (or 0 when
    /// healthy), so `BENCHMARK.json` lists it under `per_layer`; the
    /// ledger's own `compare` applies the bound.
    Ledger,
    /// A single layer's metric: no bound, read to explain a movement.
    Layer,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// Why it exists: the layers it loads and the ones it leaves idle.
    pub why: &'static str,
}

/// The four workloads, bottom of the stack first.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "engine_update",
        why: "paper 4.2 Random: uniform 50/50 insert/remove on one contended root; trees+core do all the work, server/durable/replica none",
    },
    WorkloadDef {
        name: "engine_read_scan",
        why: "Zipf 90% get, 8% update, 1% 4-key transact, 1% snapshot+scan on 8 shards; an update gain paid for by reads shows as a loss here",
    },
    WorkloadDef {
        name: "wire_pipelined",
        why: "loopback, 8 in flight per session, 90% Get; cost is proto+event loop+syscalls, engine under 2%, so engine changes predict no change",
    },
    WorkloadDef {
        name: "wire_durable_fanout",
        why: "100% writes, Publish every 128 frames: fsynced log append, relay and leaf do most of the work here and none elsewhere",
    },
];

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Ledger name; the layer is the text before the first dot.
    pub name: &'static str,
    /// Unit, in `BENCHMARK.json`'s alphabet.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// Who gates it.
    pub gate: Gate,
    /// Share of the baseline's median it may worsen by (gated metrics;
    /// 0 = any worsening counts).
    pub bound: f64,
    /// Workloads that measure it; empty = all four. Elsewhere the
    /// traced pass reports 0: the layer is not on that workload's path.
    pub on: &'static [&'static str],
    /// The call or counter it is read from.
    pub wraps: &'static str,
    /// The end-to-end metric it should move, and on which workload.
    pub moves: &'static str,
}

const UPD: &[&str] = &["engine_update"];
const SCAN: &[&str] = &["engine_read_scan"];
const PIPE: &[&str] = &["wire_pipelined"];
const FAN: &[&str] = &["wire_durable_fanout"];
const WIRE: &[&str] = &["wire_pipelined", "wire_durable_fanout"];
const ALL: &[&str] = &[];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    wraps: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        gate: Gate::EndToEnd,
        bound,
        on: ALL,
        wraps,
        moves: "-",
    }
}

const fn ledger(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    on: &'static [&'static str],
    wraps: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        gate: Gate::Ledger,
        bound,
        on,
        wraps,
        moves: "-",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [&'static str],
    wraps: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        gate: Gate::Layer,
        bound: 0.0,
        on,
        wraps,
        moves,
    }
}

use Better::{Higher, Lower};

/// Every metric the ledger emits.
pub const METRICS: &[MetricDef] = &[
    // ---- end to end, every workload (BENCHMARK.json `end_to_end`) ----
    e2e("ops_per_s", "ops/s", Higher, 0.25,
        "acknowledged operations per second, median window (probe reads and Publish frames excluded)"),
    e2e("op_p50_us", "us", Lower, 0.25,
        "client-observed latency per operation, p50 per window then median window (in-process ops timed 1 in 17)"),
    e2e("cpu_us_per_op", "us", Lower, 0.25,
        "process user+system CPU (/proc/self/stat, all threads) per acknowledged op, median window"),
    e2e("peak_rss_mb", "MiB", Lower, 0.25,
        "VmHWM of the pass's process at exit"),
    e2e("setup_s", "s", Lower, 0.25,
        "generate inputs, build and prefill the system, connect: median of the pass's three or more set-ups"),
    // ---- end to end, but not for the driver (the ledger's own gates):
    // a tail that does not repeat within a fifth on a shared host, four
    // metrics only one workload has, and one that is 0 when healthy ----
    ledger("op_p99_us", "us", Lower, 0.25, ALL,
        "op_p50_us's samples: p99 per window, then the median window"),
    ledger("speedup_vs_seq", "ratio", Higher, 0.20, UPD,
        "untraced reference windows' ops_per_s / core.seq_ops_per_s, same process"),
    ledger("publish_p50_us", "us", Lower, 0.25, FAN,
        "Publish submit -> durable ack on the writer session, p50 per window then median window"),
    ledger("visible_lag_p50_us", "us", Lower, 0.25, FAN,
        "Publish submit -> GotAt from the leaf, joined by epoch, p50 per window then median window"),
    ledger("log_bytes_per_change", "B", Lower, 0.10, FAN,
        "EpochLog::io_stats bytes_written / diff entries the leaf applied, measured interval"),
    ledger("fail_frac", "frac", Lower, 0.0, ALL,
        "failed, refused (Busy), wrong-result ops and failed checks / attempted ops and checks"),
    // ---- workloads ----
    layer("workloads.gen_ns_per_op", "ns", Lower, ALL,
        "pathcopy_workloads streams -> the pre-generated op arrays, during set-up",
        "setup_s on all; proves the generator is off the timed path"),
    // ---- trees: the persistent treap on an immutable 2^19-key version ----
    layer("trees.insert_ns", "ns", Lower, UPD, "TreapMap::insert of an absent key (new version dropped in the timing)",
        "ops_per_s, speedup_vs_seq on engine_update"),
    layer("trees.remove_ns", "ns", Lower, UPD, "TreapMap::remove of a present key",
        "ops_per_s, speedup_vs_seq on engine_update"),
    layer("trees.get_ns", "ns", Lower, UPD, "TreapMap::get, uniform keys, half present",
        "op_p50_us on engine_read_scan"),
    layer("trees.range100_ns", "ns", Lower, UPD, "TreapMap::range(k..).take(100)",
        "op_p99_us on engine_read_scan"),
    layer("trees.path_len", "nodes", Lower, UPD, "TreapMap::path_len, mean over uniform keys",
        "op_p50_us on engine_read_scan; ops_per_s on engine_update"),
    layer("trees.allocs_per_update", "count", Lower, UPD, "counting allocator around insert + remove",
        "ops_per_s, peak_rss_mb on engine_update"),
    layer("trees.alloc_bytes_per_update", "B", Lower, UPD, "counting allocator around insert + remove",
        "peak_rss_mb on engine_update"),
    layer("trees.diff_nodes_per_change", "nodes", Lower, UPD, "TreapMap::diff_counted across 64 changes",
        "publish_p50_us on wire_durable_fanout"),
    // ---- core: the universal construction ----
    layer("core.uc_update_ns", "ns", Lower, UPD,
        "concurrent::TreapMap::insert_reported of an absent key, 1 thread (every CAS succeeds)",
        "ops_per_s, speedup_vs_seq on engine_update"),
    layer("core.load_ns", "ns", Lower, UPD, "VersionCell::load", "op_p50_us on engine_read_scan"),
    layer("core.cas_ns", "ns", Lower, UPD, "VersionCell::compare_exchange, uncontended, incl. the Arc",
        "ops_per_s on engine_update"),
    layer("core.seq_ops_per_s", "ops/s", Higher, UPD, "SeqUc over thread 0's op stream, 1 thread",
        "the base of speedup_vs_seq on engine_update"),
    layer("core.attempts_per_op", "ratio", Lower, ALL, "UcStats attempts / ops, measured interval",
        "ops_per_s, cpu_us_per_op on engine_update"),
    layer("core.cas_fail_frac", "frac", Lower, ALL, "UcStats cas_failures / attempts, measured interval",
        "ops_per_s on engine_update"),
    layer("core.noop_frac", "frac", Higher, ALL, "UcStats noop_updates / ops, measured interval",
        "none; a property of the inputs that must stay put"),
    // ---- concurrent: the sharded map ----
    layer("concurrent.get_ns", "ns", Lower, SCAN, "ShardedTreapMap::get", "ops_per_s, op_p50_us on engine_read_scan"),
    layer("concurrent.insert_ns", "ns", Lower, SCAN, "ShardedTreapMap::insert of an absent key",
        "ops_per_s on engine_read_scan"),
    layer("concurrent.remove_ns", "ns", Lower, SCAN, "ShardedTreapMap::remove of a present key",
        "ops_per_s on engine_read_scan"),
    layer("concurrent.transact1_ns", "ns", Lower, SCAN, "ShardedTreapMap::transact, 1 op (single-shard path)",
        "op_p99_us on engine_read_scan"),
    layer("concurrent.transact4_ns", "ns", Lower, SCAN, "ShardedTreapMap::transact, 4 uniform keys (freeze path)",
        "op_p99_us on engine_read_scan"),
    layer("concurrent.snapshot_all_ns", "ns", Lower, SCAN, "ShardedTreapMap::snapshot_all, no writers",
        "op_p99_us on engine_read_scan"),
    layer("concurrent.diff_ns_per_change", "ns", Lower, SCAN, "ShardedSnapshot::diff across 64 changes",
        "publish_p50_us on wire_durable_fanout"),
    layer("concurrent.freeze_retries_per_batch", "ratio", Lower, SCAN, "UcStats freeze_retries / batches issued",
        "op_p99_us on engine_read_scan"),
    layer("concurrent.frozen_installs_per_batch", "ratio", Lower, SCAN, "UcStats frozen_installs / batches issued",
        "op_p99_us on engine_read_scan"),
    // ---- server ----
    layer("server.backend_get_ns", "ns", Lower, PIPE, "Box<dyn ServeBackend>::get, sharded_map_8",
        "flat: under 5% of op_p50_us on wire_pipelined"),
    layer("server.backend_insert_ns", "ns", Lower, PIPE, "Box<dyn ServeBackend>::insert of an absent key",
        "flat on wire_pipelined"),
    layer("server.encode_ns", "ns", Lower, PIPE, "proto::write_request_with_id(Get) into a Vec",
        "cpu_us_per_op, ops_per_s on wire_pipelined"),
    layer("server.decode_ns", "ns", Lower, PIPE, "proto::read_request_enveloped of that frame",
        "cpu_us_per_op, ops_per_s on wire_pipelined"),
    layer("server.frame_bytes", "B", Lower, PIPE, "bytes of one Get request frame", "server.wire_bytes_per_op"),
    layer("server.rtt_serial_us", "us", Lower, PIPE, "Client::get, one in flight, p50",
        "op_p50_us on wire_pipelined"),
    layer("server.queue_wait_us", "us", Lower, WIRE, "shipped metrics_report: queue_wait p50 (Get tag; Insert on the fan-out)",
        "op_p50_us, op_p99_us on wire_*"),
    layer("server.execute_us", "us", Lower, WIRE, "shipped metrics_report: execute p50, same tag",
        "ops_per_s on wire_*; more than its share on wire_durable_fanout"),
    layer("server.write_flush_us", "us", Lower, WIRE, "shipped metrics_report: write_flush p50, same tag",
        "op_p50_us on wire_*"),
    layer("server.client_self_us", "us", Lower, WIRE, "self time of bench spans around Session::submit",
        "cpu_us_per_op on wire_*"),
    layer("server.wire_bytes_per_op", "B", Lower, WIRE, "ServerHandle::wire_bytes delta / ops",
        "cpu_us_per_op on wire_*"),
    layer("server.shed_frac", "frac", Lower, WIRE, "requests_shed / (served + shed), measured interval", "fail_frac"),
    layer("server.publish_p99_us", "us", Lower, FAN, "Publish submit -> ack, p99 over the traced windows",
        "the tail behind publish_p50_us"),
    // ---- durable ----
    layer("durable.append_diff_us", "us", Lower, FAN, "EpochLog::append_diff, 64 entries, fsync, no feed lock",
        "publish_p50_us, ops_per_s on wire_durable_fanout"),
    layer("durable.append_fsync_us", "us", Lower, FAN, "FeedPersister::append_fsync_snapshot p50, measured interval",
        "publish_p50_us, ops_per_s on wire_durable_fanout"),
    layer("durable.append_fsync_p99_us", "us", Lower, FAN, "same histogram, p99", "op_p99_us on wire_durable_fanout"),
    layer("durable.fsyncs_per_epoch", "ratio", Lower, FAN, "io_stats fsyncs / epochs", "publish_p50_us"),
    layer("durable.bytes_per_epoch", "B", Lower, FAN, "io_stats bytes_written / epochs", "log_bytes_per_change"),
    layer("durable.checkpoint_bytes_frac", "frac", Lower, FAN, "bytes written by checkpoint epochs / all (feed-sink wrapper)",
        "log_bytes_per_change"),
    layer("durable.checkpoint_ms", "ms", Lower, FAN, "on_publish time of checkpoint epochs, median (feed-sink wrapper)",
        "op_p99_us on wire_durable_fanout"),
    layer("durable.recover_ms", "ms", Lower, FAN, "EpochLog::open + replay on the crash copy", "none"),
    layer("durable.recover_entries", "count", Higher, FAN, "entries the replay rebuilt", "none"),
    layer("durable.append_errors", "count", Lower, FAN, "FeedPersister::error_count delta", "fail_frac"),
    // ---- replica ----
    layer("replica.push_apply_us", "us", Lower, FAN, "leaf PushMetrics push_apply p50", "visible_lag_p50_us"),
    layer("replica.pump_us", "us", Lower, FAN, "bench-side time of PushReplica::pump calls that applied a push (wait for the frame included), median",
        "visible_lag_p50_us"),
    layer("replica.epoch_lag_p50", "epochs", Lower, FAN, "leaf PushMetrics epoch_lag p50", "visible_lag_p50_us"),
    layer("replica.epoch_lag_max", "epochs", Lower, FAN, "leaf PushMetrics epoch_lag max", "visible_lag_p50_us"),
    layer("replica.visible_lag_p99_us", "us", Lower, FAN, "Publish submit -> GotAt, p99 over the traced windows",
        "the tail behind visible_lag_p50_us"),
    layer("replica.push_bytes_per_change", "B", Lower, FAN, "leaf upstream bytes received / diff entries applied",
        "cpu_us_per_op on wire_durable_fanout"),
    layer("replica.bootstrap_ms", "ms", Lower, FAN, "PushReplica::connect, relay + leaf", "setup_s"),
    layer("replica.gaps", "count", Lower, FAN, "PushStats push_gaps, relay + leaf", "fail_frac"),
    layer("replica.resubscribes", "count", Lower, FAN, "PushStats resubscribes, relay + leaf", "fail_frac"),
    // ---- the cost of looking ----
    layer("trace.overhead_frac", "frac", Lower, ALL, "1 - traced ops_per_s / untraced reference ops_per_s, same process",
        "none"),
    layer("metrics.scrape_us", "us", Lower, PIPE, "Client::metrics round trip, median", "none"),
    // ---- the model ----
    layer("sim.predicted_speedup", "ratio", Higher, UPD, "sim::model_speedup(P=T, N=2^19, M=2^15, R=100)",
        "the reference beside speedup_vs_seq"),
    layer("sim.measured_over_predicted", "ratio", Higher, UPD, "speedup_vs_seq / sim.predicted_speedup", "none"),
];

/// Looks a metric up by name.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

/// Whether `workload` measures `def` (elsewhere the traced pass reports 0).
pub fn measured_on(def: &MetricDef, workload: &str) -> bool {
    def.on.is_empty() || def.on.contains(&workload)
}

/// The markdown table of `README.md`'s metric dictionary.
pub fn markdown() -> String {
    let mut out = String::from(
        "| name | unit | better | bound | workloads | read from | should move |\n|---|---|---|---|---|---|---|\n",
    );
    for m in METRICS {
        let bound = match m.gate {
            Gate::EndToEnd => format!("{} (driver)", m.bound),
            Gate::Ledger if m.bound == 0.0 => "any increase (compare)".to_owned(),
            Gate::Ledger => format!("{} (compare)", m.bound),
            Gate::Layer => "-".to_owned(),
        };
        let on = if m.on.is_empty() {
            "all".to_owned()
        } else {
            m.on.join(", ")
        };
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            bound,
            on,
            m.wraps,
            m.moves
        ));
    }
    out
}

/// The contents of the repository's `BENCHMARK.json`: this table in the
/// builder contract's shape.
pub fn benchmark_json() -> crate::json::Value {
    use crate::json::Value;
    let s = |text: &str| Value::Str(text.to_owned());
    let declared = |gate_is_e2e: bool| {
        Value::Arr(
            METRICS
                .iter()
                .filter(|m| (m.gate == Gate::EndToEnd) == gate_is_e2e)
                .map(|m| {
                    let mut fields = vec![
                        ("name", s(m.name)),
                        ("unit", s(m.unit)),
                        ("better", s(m.better.as_str())),
                    ];
                    if gate_is_e2e {
                        fields.push(("bound", Value::Num(m.bound)));
                    }
                    Value::obj(fields)
                })
                .collect(),
        )
    };
    Value::obj([
        ("command", Value::Arr(vec![s("bash"), s("perf/run.sh")])),
        ("paths", Value::Arr(vec![s("perf")])),
        ("run_seconds", Value::Num(crate::cli::DEFAULT_SECONDS)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Value::obj([("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        ("end_to_end", declared(true)),
        ("per_layer", declared(false)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_alphabet_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for m in METRICS {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(
                m.bound <= 0.25,
                "{}: bound above the contract's cap",
                m.name
            );
            for w in m.on {
                assert!(WORKLOADS.iter().any(|d| d.name == *w), "{}: {w}", m.name);
            }
        }
        for w in WORKLOADS {
            assert!(valid_name(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} is also a metric", w.name);
        }
    }

    #[test]
    fn the_counts_fit_the_contract() {
        let e2e = METRICS.iter().filter(|m| m.gate == Gate::EndToEnd).count();
        let rest = METRICS.len() - e2e;
        assert!((1..=16).contains(&e2e));
        assert!((1..=128).contains(&rest));
        let setup = metric("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        // setup_s carries the largest bound.
        assert!(METRICS.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_declares_exactly_this_table() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = crate::json::parse(text).expect("BENCHMARK.json parses");
        assert_eq!(doc, benchmark_json(), "regenerate with `ledger dict json`");
        assert!(text.len() <= 64 * 1024);
        let keys: Vec<&str> = doc.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let declared_workloads: Vec<(&str, &str)> = doc
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| {
                (
                    w.get("name").unwrap().as_str().unwrap(),
                    w.get("why").unwrap().as_str().unwrap(),
                )
            })
            .collect();
        let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(declared_workloads, ours);

        let e2e: Vec<_> = doc.get("end_to_end").unwrap().items().to_vec();
        let ours: Vec<&MetricDef> = METRICS
            .iter()
            .filter(|m| m.gate == Gate::EndToEnd)
            .collect();
        assert_eq!(e2e.len(), ours.len());
        for (decl, m) in e2e.iter().zip(&ours) {
            assert_eq!(decl.get("name").unwrap().as_str(), Some(m.name));
            assert_eq!(
                decl.get("unit").unwrap().as_str(),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                decl.get("better").unwrap().as_str(),
                Some(m.better.as_str())
            );
            assert_eq!(
                decl.get("bound").unwrap().as_f64(),
                Some(m.bound),
                "{}",
                m.name
            );
            assert_eq!(decl.entries().len(), 4, "{}: exactly four keys", m.name);
        }
        let layers: Vec<_> = doc.get("per_layer").unwrap().items().to_vec();
        let ours: Vec<&MetricDef> = METRICS
            .iter()
            .filter(|m| m.gate != Gate::EndToEnd)
            .collect();
        assert_eq!(layers.len(), ours.len());
        for (decl, m) in layers.iter().zip(&ours) {
            assert_eq!(decl.get("name").unwrap().as_str(), Some(m.name));
            assert_eq!(
                decl.get("unit").unwrap().as_str(),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                decl.get("better").unwrap().as_str(),
                Some(m.better.as_str())
            );
            assert_eq!(decl.entries().len(), 3, "{}: exactly three keys", m.name);
        }
    }

    #[test]
    fn the_readme_defines_every_workload_and_metric() {
        let readme = include_str!("../README.md");
        for w in WORKLOADS {
            assert!(
                readme.contains(&format!("| `{}` |", w.name)),
                "{} missing",
                w.name
            );
        }
        assert!(
            readme.contains(&markdown()),
            "README.md's metric table is stale: paste `ledger dict` between the dict markers"
        );
    }
}
