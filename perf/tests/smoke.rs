//! Every name `BENCHMARK.json` declares is emitted by a real run: one
//! smoke pass (small structures, one short window) of every workload,
//! untraced and traced, in this process.

use std::collections::BTreeSet;
use std::path::PathBuf;

use pathcopy_perf::dict::{self, Gate};
use pathcopy_perf::json::{self, Value};
use pathcopy_perf::pass::{self, PassCfg};

fn declared(section: &str) -> BTreeSet<String> {
    let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    doc.get(section)
        .expect("section present")
        .items()
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_owned())
        .collect()
}

#[test]
fn every_declared_name_is_emitted_by_the_run() {
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/test");
    std::fs::create_dir_all(&out_dir).unwrap();
    for workload in dict::WORKLOADS {
        for traced in [false, true] {
            let cfg = PassCfg {
                workload: workload.name.to_owned(),
                seed: 9,
                seconds: 10.0,
                traced,
                smoke: true,
                out_dir: out_dir.clone(),
            };
            let out = pass::run(&cfg);
            let what = format!("{} trace {}", workload.name, u8::from(traced));
            assert!(out.correct, "{what}: {:?}", out.checks);
            assert_eq!(out.failed, 0, "{what}");
            assert!(out.attempted >= 1, "{what}");

            // The contract's line carries exactly the declared names.
            let line = json::parse(&out.contract_line().to_string()).unwrap();
            let keys: Vec<&str> = line.entries().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{what}"
            );
            let emitted: BTreeSet<String> = line
                .get("metrics")
                .unwrap()
                .entries()
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            let section = if traced { "per_layer" } else { "end_to_end" };
            assert_eq!(emitted, declared(section), "{what}");

            // And every metric this workload owns was really measured,
            // not defaulted: it is in the pass's own list, and the
            // end-to-end ones are never 0.
            let measured: BTreeSet<&str> = out.metrics.iter().map(|m| m.name).collect();
            for def in dict::METRICS {
                let mine = (def.gate == Gate::EndToEnd) != traced;
                if mine && dict::measured_on(def, workload.name) {
                    assert!(
                        measured.contains(def.name),
                        "{what}: {} not measured",
                        def.name
                    );
                }
                if def.gate == Gate::EndToEnd && !traced {
                    assert!(out.value(def.name) > 0.0, "{what}: {} is 0", def.name);
                }
            }
            if traced {
                let layers: BTreeSet<&str> = out
                    .spans
                    .iter()
                    .map(|s| pathcopy_perf::spans::layer_of(s.name))
                    .collect();
                let engine = workload.name.starts_with("engine_");
                let fanout = workload.name == "wire_durable_fanout";
                assert_eq!(layers.contains("server"), !engine, "{what}: {layers:?}");
                assert_eq!(layers.contains("durable"), fanout, "{what}: {layers:?}");
                assert_eq!(layers.contains("replica"), fanout, "{what}: {layers:?}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&out_dir);
}
