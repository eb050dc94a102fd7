//! Command line of the two ledger binaries (`ledger`, and
//! `ledger_traced` with the counting allocator); `run.sh` drives them.
//!
//! ```text
//! ledger pass --workload W --seed N --seconds S --trace 0|1 [--smoke] [--contract] [--out DIR]
//! ledger merge --seed N --seconds S [--workload W] [--smoke] [--out DIR]
//! ledger compare A.json B.json
//! ledger dict [json]
//! ```

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use pathcopy_bench::cli::Args;

use crate::dict;
use crate::json;
use crate::pass::{self, PassCfg};
use crate::report;
use crate::spans;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;
/// Seconds one pass measures when `--seconds` is not given — the
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;

fn out_dir(args: &Args) -> PathBuf {
    PathBuf::from(args.get("out").unwrap_or("perf/out"))
}

fn workload_arg(args: &Args) -> Result<Option<String>, String> {
    match args.get("workload") {
        None => Ok(None),
        Some(w) if dict::WORKLOADS.iter().any(|d| d.name == w) => Ok(Some(w.to_owned())),
        Some(w) => Err(format!(
            "unknown workload {w:?}; the workloads are {}",
            dict::WORKLOADS.map(|d| d.name).join(", ")
        )),
    }
}

fn pass_cmd(args: &Args, counting_allocator: bool) -> Result<bool, String> {
    let workload = workload_arg(args)?.ok_or("pass needs --workload")?;
    let traced = match args.get_or::<u8>("trace", 0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    if traced != counting_allocator {
        // The untraced pass must run on the plain system allocator and
        // the traced one needs the counting allocator's numbers.
        return Err(format!(
            "--trace {} runs in the `{}` binary",
            u8::from(traced),
            if traced { "ledger_traced" } else { "ledger" }
        ));
    }
    let seconds: f64 = args.get_or("seconds", DEFAULT_SECONDS);
    if !(1.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds takes 1 to 60, not {seconds}"));
    }
    let cfg = PassCfg {
        workload,
        seed: args.get_or("seed", DEFAULT_SEED),
        seconds,
        traced,
        smoke: args.has_flag("smoke"),
        out_dir: out_dir(args),
    };
    fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
    let out = pass::run(&cfg);

    for m in &out.metrics {
        let unit = dict::metric(m.name).map_or("", |d| d.unit);
        println!("{} {} {} {}", cfg.workload, m.name, m.value, unit);
    }
    for c in &out.checks {
        println!(
            "{} check {}: {} ({})",
            cfg.workload,
            if c.ok { "ok" } else { "FAILED" },
            c.name,
            c.detail
        );
    }
    let file = cfg.out_dir.join(report::pass_file(&cfg.workload, traced));
    fs::write(&file, out.to_json().pretty()).map_err(|e| format!("{}: {e}", file.display()))?;
    if traced {
        let file = cfg.out_dir.join(report::trace_file(&cfg.workload));
        let f = fs::File::create(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        spans::write_jsonl(std::io::BufWriter::new(f), &out.spans)
            .map_err(|e| format!("{}: {e}", file.display()))?;
    }
    if args.has_flag("contract") {
        println!("{}", out.contract_line());
    }
    Ok(out.correct)
}

fn merge_cmd(args: &Args) -> Result<bool, String> {
    let only = workload_arg(args)?;
    let workloads: Vec<&str> = dict::WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|w| only.as_deref().map_or(true, |o| o == *w))
        .collect();
    let out = out_dir(args);
    let results = report::merge(
        &out,
        &workloads,
        args.get_or("seed", DEFAULT_SEED),
        args.get_or("seconds", DEFAULT_SECONDS),
        args.has_flag("smoke"),
    )?;
    let file = out.join("results.json");
    fs::write(&file, results.pretty()).map_err(|e| format!("{}: {e}", file.display()))?;
    println!();
    print!("{}", report::ladder(&results));
    println!();
    print!("{}", report::scorecard(&results));
    println!();
    let mut all_correct = true;
    for (workload, doc) in results
        .get("workloads")
        .map(json::Value::entries)
        .unwrap_or_default()
    {
        let correct = doc.get("correct") == Some(&json::Value::Bool(true));
        all_correct &= correct;
        println!(
            "{workload}: {} (fail_frac {})",
            if correct { "correct" } else { "FAILED" },
            report::metric_of(doc, "fail_frac").unwrap_or(0.0)
        );
    }
    println!("wrote {}", file.display());
    Ok(all_correct)
}

fn compare_cmd(a: &str, b: &str) -> Result<bool, String> {
    let read = |path: &str| -> Result<json::Value, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (report, ok) = report::compare(&read(a)?, &read(b)?);
    print!("{report}");
    Ok(ok)
}

/// Entry point of both binaries. `counting_allocator` says whether this
/// binary installed [`crate::alloc::CountingAlloc`].
pub fn main(counting_allocator: bool) -> ExitCode {
    let args = Args::from_env();
    // `Args` files bare words and `--flags` together, in order: the
    // subcommand and its operands are the bare words at the front.
    let words: Vec<&str> = args.flags().iter().map(String::as_str).collect();
    let result = match words.as_slice() {
        ["pass", ..] => pass_cmd(&args, counting_allocator),
        ["merge", ..] => merge_cmd(&args),
        ["compare", a, b] => compare_cmd(a, b),
        // `dict json` regenerates BENCHMARK.json from the table.
        ["dict", "json"] => {
            print!("{}", dict::benchmark_json().pretty());
            Ok(true)
        }
        ["dict"] => {
            print!("{}", dict::markdown());
            Ok(true)
        }
        _ => Err("usage: ledger pass|merge|compare|dict … (see perf/README.md)".to_owned()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        // A failed check or a regression: results were written, the
        // exit code carries the verdict.
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("ledger: {why}");
            ExitCode::from(2)
        }
    }
}
