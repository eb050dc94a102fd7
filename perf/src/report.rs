//! Turning pass files into the ledger: `results.json`, the metric
//! table, the layer ladder, the paper scorecard, and `compare`.

use std::fmt::Write as _;
use std::path::Path;

use crate::dict::{self, Better, Gate};
use crate::json::{self, Value};
use crate::ops::EngineSize;
use crate::probes::{SIM_M, SIM_R};
use crate::sysinfo;

/// File a pass writes its results to, inside the out directory.
pub fn pass_file(workload: &str, traced: bool) -> String {
    format!("pass_{workload}_{}.json", u8::from(traced))
}

/// File the traced pass writes its spans to.
pub fn trace_file(workload: &str) -> String {
    format!("trace_{workload}.jsonl")
}

fn read(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Merges the pass files of `workloads` under `out` into one results
/// document. A metric both passes measured keeps the untraced pass's
/// value (the end-to-end one); `fail_frac` is recomputed over both.
///
/// # Errors
///
/// A missing or unparseable pass file.
pub fn merge(
    out: &Path,
    workloads: &[&str],
    seed: u64,
    seconds: f64,
    smoke: bool,
) -> Result<Value, String> {
    let mut merged = Vec::new();
    for &w in workloads {
        let untraced = read(&out.join(pass_file(w, false)))?;
        let traced = read(&out.join(pass_file(w, true)))?;
        let num = |doc: &Value, key: &str| doc.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        let attempted = num(&untraced, "attempted") + num(&traced, "attempted");
        let failed = num(&untraced, "failed") + num(&traced, "failed");
        let mut metrics: Vec<(String, Value)> = Vec::new();
        for def in dict::METRICS {
            let from = |doc: &Value, pass: &str| {
                doc.get("metrics")?.get(def.name).map(|m| {
                    let mut fields = m.entries().to_vec();
                    fields.push(("pass".to_owned(), Value::Str(pass.to_owned())));
                    Value::Obj(fields)
                })
            };
            if let Some(m) = from(&untraced, "untraced").or_else(|| from(&traced, "traced")) {
                metrics.push((def.name.to_owned(), m));
            }
        }
        if let Some((_, Value::Obj(fields))) = metrics.iter_mut().find(|(k, _)| k == "fail_frac") {
            fields[0].1 = Value::Num(failed / attempted.max(1.0));
        }
        let checks: Vec<Value> = [&untraced, &traced]
            .iter()
            .flat_map(|doc| doc.get("checks").map(Value::items).unwrap_or_default())
            .cloned()
            .collect();
        merged.push((
            w.to_owned(),
            Value::obj([
                ("correct", Value::Bool(failed == 0.0)),
                ("attempted", Value::Num(attempted)),
                ("failed", Value::Num(failed)),
                ("checks", Value::Arr(checks)),
                ("metrics", Value::Obj(metrics)),
            ]),
        ));
    }
    Ok(Value::obj([
        (
            "host",
            Value::obj([
                ("nproc", Value::Num(sysinfo::nproc() as f64)),
                ("threads", Value::Num(sysinfo::load_threads() as f64)),
                ("kernel", Value::Str(sysinfo::kernel())),
                ("rustc", Value::Str(sysinfo::rustc())),
            ]),
        ),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("smoke", Value::Bool(smoke)),
        ("workloads", Value::Obj(merged)),
    ]))
}

/// The value of metric `name` in one workload's results document.
pub fn metric_of(workload_doc: &Value, name: &str) -> Option<f64> {
    workload_doc
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

fn metric(results: &Value, workload: &str, name: &str) -> Option<f64> {
    metric_of(results.get("workloads")?.get(workload)?, name)
}

/// Keys the engine structures hold, as the header of a table says it.
fn engine_keys(results: &Value) -> String {
    let smoke = results.get("smoke") == Some(&Value::Bool(true));
    let size = if smoke {
        EngineSize::SMOKE
    } else {
        EngineSize::FULL
    };
    format!(
        "2^{}{}",
        size.prefill.trailing_zeros(),
        if smoke {
            " (smoke: not comparable)"
        } else {
            ""
        }
    )
}

fn cell(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_owned(), |v| format!("{v:.1}"))
}

fn delta(upper: Option<f64>, lower: Option<f64>) -> String {
    match (upper, lower) {
        (Some(u), Some(l)) => format!("{:+.1}", u - l),
        _ => "-".to_owned(),
    }
}

/// The ROADMAP item-1 ladder: each rung's cost and its **delta** from
/// the rung below, so every layer's tax is a number.
pub fn ladder(results: &Value) -> String {
    let m = |w: &str, n: &str| metric(results, w, n);
    let (upd, scan, pipe, fan) = (
        "engine_update",
        "engine_read_scan",
        "wire_pipelined",
        "wire_durable_fanout",
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "layer ladder (engine rungs: one thread, {} keys; delta = this rung minus the one below)",
        engine_keys(results)
    );
    let _ = writeln!(
        out,
        "  {:<34} {:>12} {:>10} {:>12} {:>10}",
        "rung", "insert ns", "delta", "get ns", "delta"
    );
    let uc_get = m(upd, "trees.get_ns")
        .zip(m(upd, "core.load_ns"))
        .map(|(g, l)| g + l);
    let rungs = [
        (
            "trees: persistent treap",
            m(upd, "trees.insert_ns"),
            m(upd, "trees.get_ns"),
        ),
        (
            "core: UC (get = tree + load)",
            m(upd, "core.uc_update_ns"),
            uc_get,
        ),
        (
            "concurrent: sharded x8",
            m(scan, "concurrent.insert_ns"),
            m(scan, "concurrent.get_ns"),
        ),
        (
            "server: dyn ServeBackend",
            m(pipe, "server.backend_insert_ns"),
            m(pipe, "server.backend_get_ns"),
        ),
    ];
    let mut below: (Option<f64>, Option<f64>) = (None, None);
    for (name, insert, get) in rungs {
        let _ = writeln!(
            out,
            "  {:<34} {:>12} {:>10} {:>12} {:>10}",
            name,
            cell(insert),
            delta(insert, below.0),
            cell(get),
            delta(get, below.1)
        );
        below = (insert, get);
    }
    let _ = writeln!(
        out,
        "  {:<34} {:>12} {:>10}",
        "wire rung (65 536 keys)", "us", "delta"
    );
    let wall = |w: &str| m(w, "ops_per_s").map(|o| 1e6 / o);
    let wire = [
        (
            "in-process get (rung above)",
            m(pipe, "server.backend_get_ns").map(|n| n / 1e3),
        ),
        (
            "serial round trip, 1 in flight",
            m(pipe, "server.rtt_serial_us"),
        ),
        ("pipelined: wall us per op", wall(pipe)),
        ("pipelined: op_p50_us", m(pipe, "op_p50_us")),
        ("+ log: write op_p50_us", m(fan, "op_p50_us")),
        ("+ log: publish_p50_us (fsync)", m(fan, "publish_p50_us")),
        (
            "+ relay + leaf: visible_lag_p50_us",
            m(fan, "visible_lag_p50_us"),
        ),
    ];
    let mut below = None;
    for (name, us) in wire {
        let _ = writeln!(
            out,
            "  {:<34} {:>12} {:>10}",
            name,
            cell(us),
            delta(us, below)
        );
        below = us;
    }
    out
}

/// The paper scorecard: the model's prediction beside the measurement,
/// with the small-box caveat.
pub fn scorecard(results: &Value) -> String {
    let m = |n: &str| metric(results, "engine_update", n);
    let threads = results
        .get("host")
        .and_then(|h| h.get("threads"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "paper scorecard (engine_update: 4.2 Random, P = {threads}, n = {})",
        engine_keys(results)
    );
    let _ = writeln!(
        out,
        "  paper's reported speedup    not quoted: its tables give UC-over-sequential speedups at P in {{1, 4, 10, 17}}"
    );
    let _ = writeln!(
        out,
        "                              (18-core Xeon 5220; up to 64 cores in Appendix B), none at P = {threads}"
    );
    let _ = writeln!(
        out,
        "  sim.predicted_speedup       {}  (Appendix-A model, M = {SIM_M}, R = {SIM_R})",
        cell_3(m("sim.predicted_speedup"))
    );
    let _ = writeln!(
        out,
        "  measured speedup_vs_seq     {}  ({} x the prediction; SeqUc baseline {} ops/s)",
        cell_3(m("speedup_vs_seq")),
        cell_3(m("sim.measured_over_predicted")),
        cell(m("core.seq_ops_per_s"))
    );
    let _ = writeln!(
        out,
        "  caveat: the private-cache effect needs real cores. With P = {threads} on {} hardware threads the retry rate is",
        sysinfo::nproc()
    );
    let _ = writeln!(
        out,
        "  low (core.attempts_per_op {}), and a speedup below 1 is the cost of Arc + epoch reclamation against",
        cell_3(m("core.attempts_per_op"))
    );
    let _ = writeln!(
        out,
        "  an unsynchronised baseline, not a refutation; see paper_tables' hardware note."
    );
    out
}

fn cell_3(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_owned(), |v| format!("{v:.3}"))
}

/// A `compare` verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the baseline by more than the bound.
    Ok,
    /// Worse than the baseline by more than the bound.
    Regressed,
    /// The windows scatter too widely to place the median within the
    /// bound; neither "unchanged" nor "regressed" can be claimed.
    Unresolved,
}

/// How precisely a run's median window is known, as a share of it: the
/// interquartile distance of the per-window values over √n. A metric
/// read once over the whole interval has no windows and counts as
/// resolved.
fn resolution(m: &Value) -> f64 {
    let get = |k: &str| m.get(k).and_then(Value::as_f64);
    let n = m.get("windows").map_or(0, |w| w.items().len());
    match (get("q1"), get("q3"), get("value")) {
        (Some(q1), Some(q3), Some(v)) if n > 1 && v != 0.0 => {
            (q3 - q1) / v.abs() / (n as f64).sqrt()
        }
        _ => 0.0,
    }
}

/// Judges `b` against baseline `a` for one gated metric.
pub fn judge(better: Better, bound: f64, a: &Value, b: &Value) -> (Verdict, f64) {
    let value = |m: &Value| m.get("value").and_then(Value::as_f64).unwrap_or(0.0);
    let (va, vb) = (value(a), value(b));
    let worse_by = match better {
        // A baseline of 0 (fail_frac) has no share to worsen by: any
        // increase is the whole regression.
        _ if va == 0.0 => {
            if (better == Better::Lower && vb > 0.0) || (better == Better::Higher && vb < 0.0) {
                f64::INFINITY
            } else {
                0.0
            }
        }
        Better::Lower => (vb - va) / va.abs(),
        Better::Higher => (va - vb) / va.abs(),
    };
    let verdict = if resolution(a).max(resolution(b)) > bound && bound > 0.0 {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, worse_by)
}

/// Applies the declared directions and bounds per workload × gated
/// metric. Returns the report and whether every pairing was `ok`.
pub fn compare(a: &Value, b: &Value) -> (String, bool) {
    let mut out = String::new();
    let mut all_ok = true;
    let _ = writeln!(
        out,
        "{:<20} {:<22} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "baseline", "candidate", "worse by", "bound"
    );
    for w in dict::WORKLOADS {
        for def in dict::METRICS {
            if def.gate == Gate::Layer || !dict::measured_on(def, w.name) {
                continue;
            }
            let find = |doc: &Value| {
                doc.get("workloads")?
                    .get(w.name)?
                    .get("metrics")?
                    .get(def.name)
                    .cloned()
            };
            let (Some(ma), Some(mb)) = (find(a), find(b)) else {
                all_ok = false;
                let _ = writeln!(
                    out,
                    "{:<20} {:<22} missing from one of the files",
                    w.name, def.name
                );
                continue;
            };
            let (verdict, worse_by) = judge(def.better, def.bound, &ma, &mb);
            all_ok &= verdict == Verdict::Ok;
            let value = |m: &Value| m.get("value").and_then(Value::as_f64).unwrap_or(0.0);
            let _ = writeln!(
                out,
                "{:<20} {:<22} {:>14.4} {:>14.4} {:>+8.1}% {:>6}  {}",
                w.name,
                def.name,
                value(&ma),
                value(&mb),
                worse_by * 100.0,
                def.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    (out, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(value: f64, windows: &[f64]) -> Value {
        let [q1, _, q3] = crate::stats::quartiles(windows);
        let mut fields = vec![("value", Value::Num(value))];
        if !windows.is_empty() {
            fields.push(("q1", Value::Num(q1)));
            fields.push(("q3", Value::Num(q3)));
            fields.push(("windows", Value::nums(windows.iter().copied())));
        }
        Value::obj(fields)
    }

    #[test]
    fn judge_applies_direction_and_bound() {
        let tight = [
            99.0, 100.0, 101.0, 100.0, 100.0, 99.5, 100.5, 100.0, 100.0, 100.0,
        ];
        let base = m(100.0, &tight);
        // Lower is better: 8 % slower passes a 10 % bound, 12 % does not.
        assert_eq!(
            judge(Better::Lower, 0.10, &base, &m(108.0, &tight)).0,
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Lower, 0.10, &base, &m(112.0, &tight)).0,
            Verdict::Regressed
        );
        // An improvement is never a regression.
        assert_eq!(
            judge(Better::Lower, 0.10, &base, &m(50.0, &tight)).0,
            Verdict::Ok
        );
        // Higher is better: the sign flips.
        assert_eq!(
            judge(Better::Higher, 0.10, &base, &m(88.0, &tight)).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(Better::Higher, 0.10, &base, &m(130.0, &tight)).0,
            Verdict::Ok
        );
    }

    #[test]
    fn scattered_windows_are_unresolved_not_unchanged() {
        let wild = [
            40.0, 160.0, 55.0, 170.0, 30.0, 150.0, 60.0, 140.0, 45.0, 165.0,
        ];
        let (verdict, _) = judge(Better::Lower, 0.10, &m(100.0, &wild), &m(100.0, &wild));
        assert_eq!(verdict, Verdict::Unresolved);
    }

    #[test]
    fn any_increase_of_a_zero_baseline_regresses() {
        let zero = m(0.0, &[]);
        assert_eq!(
            judge(Better::Lower, 0.0, &zero, &m(0.0, &[])).0,
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Lower, 0.0, &zero, &m(1e-6, &[])).0,
            Verdict::Regressed
        );
    }

    #[test]
    fn compare_walks_gated_metrics_of_the_workloads_that_measure_them() {
        let windows = [1.0; 10];
        let doc = |ops: f64| {
            let metrics = |w: &str| {
                Value::Obj(
                    dict::METRICS
                        .iter()
                        .filter(|d| d.gate != Gate::Layer && dict::measured_on(d, w))
                        .map(|d| {
                            let v = if d.name == "ops_per_s" {
                                ops
                            } else if d.name == "fail_frac" {
                                0.0
                            } else {
                                1.0
                            };
                            (d.name.to_owned(), m(v, &windows.map(|x| x * v)))
                        })
                        .collect(),
                )
            };
            Value::obj([(
                "workloads",
                Value::Obj(
                    dict::WORKLOADS
                        .iter()
                        .map(|w| {
                            (
                                w.name.to_owned(),
                                Value::obj([("metrics", metrics(w.name))]),
                            )
                        })
                        .collect(),
                ),
            )])
        };
        let (report, ok) = compare(&doc(100.0), &doc(100.0));
        assert!(ok, "{report}");
        assert!(!report.contains("regressed") && !report.contains("unresolved"));
        // speedup_vs_seq is gated on engine_update only.
        assert_eq!(report.matches("speedup_vs_seq").count(), 1);
        let (report, ok) = compare(&doc(100.0), &doc(50.0));
        assert!(!ok);
        assert_eq!(report.matches("regressed").count(), 4, "{report}");
    }
}
