//! The benchmark command.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload kv-small --seed 1 --seconds 24 --trace 0
//! ```
//!
//! `--workload all` (the default) runs every workload in turn. The
//! report goes to standard output; its last line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. Exit codes: 0 success, 1 a correctness or digest
//! violation (result line still printed, `correct: false`), 2 bad
//! arguments, 3 a run that could not be measured (set-up failure, or
//! an open loop whose offered rate exceeds capacity).

use perfbench::report::{self, Metric};
use perfbench::run::measure;
use perfbench::workload::{by_name, workloads, Kind, Params, THREADS};
use std::path::Path;
use std::process::ExitCode;

/// Where WAL files live while a run needs them (relative to the
/// working directory, removed afterwards).
const TMP: &str = ".perfbench-tmp";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if a.seconds.is_nan() || a.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

fn describe(p: &Params) -> String {
    let mut s = format!(
        "n = {} servers, m = 8, k = 4, {} items of {} B, Zipf(1) keys, {}/{} get/put",
        p.n,
        p.items,
        p.value_len,
        100 - p.put_pct,
        p.put_pct
    );
    s += &match p.kind {
        Kind::KvSmall => ", MemShelves, RetryPolicy::patient(), closed loop, one client".into(),
        Kind::KvLargeWal => ", FileShelves (sync_commits off, auto-compaction x8), \
                             RetryPolicy::patient(), closed loop, one client"
            .into(),
        Kind::ChurnGreyOpen(c) => format!(
            ", MemShelves, RetryPolicy::patient().hedged(), {}% of servers grey x{}, \
             leave/join every {} ops, repair paced at {} frames/op, open loop at {} ops/s \
             (bursts of 8 every 101 arrivals)",
            c.grey_permille / 10,
            c.grey_mult,
            c.every,
            c.pace,
            c.rate
        ),
        Kind::BatchPar { batch, shards } => format!(
            ", MemShelves, RetryPolicy::patient(), batch_over: {batch} ops/batch on {shards} \
             shards, {THREADS} threads"
        ),
    };
    s + ", transport Sim::with_latency(4, 16, 4)"
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let selected = if args.workload == "all" {
        workloads()
    } else {
        match by_name(&args.workload) {
            Some(p) => vec![p],
            None => {
                let names: Vec<_> = workloads().iter().map(|p| p.name).collect();
                eprintln!(
                    "perfbench: unknown workload {} (have: {})",
                    args.workload,
                    names.join(", ")
                );
                return ExitCode::from(2);
            }
        }
    };
    let prefix = selected.len() > 1;
    let tmp = Path::new(TMP);
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics: Vec<(String, Metric)> = Vec::new();
    for p in &selected {
        println!(
            "# {} (seed {}, {} s, trace {})",
            p.name,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        println!("  {}", describe(p));
        let outcome = measure(p, args.seed, args.seconds, args.trace, tmp);
        let _ = std::fs::remove_dir(tmp);
        let o = match outcome {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", p.name);
                return ExitCode::from(3);
            }
        };
        if let Some(why) = report::saturation(p, &o) {
            eprintln!("perfbench: {}: {why}", p.name);
            return ExitCode::from(3);
        }
        println!(
            "end-to-end ({} untraced pass{} of one op stream, each op at its least time):",
            o.passes.len(),
            if o.passes.len() == 1 { "" } else { "es" }
        );
        let e2e = report::end_to_end(&o);
        for m in &e2e {
            println!("{}", report::row(m));
        }
        for (name, text) in report::end_to_end_extra(p, &o) {
            println!("  {name:<30} {text}");
        }
        let rows = if args.trace {
            let layers = report::per_layer(&o);
            println!("per-layer (traced replay of the same ops):");
            for m in &layers {
                println!("{}", report::row(m));
            }
            layers
        } else {
            e2e
        };
        let violations = o.violations();
        for v in &violations {
            println!("VIOLATION {}: {v}", p.name);
        }
        correct &= violations.is_empty();
        for pass in o.all_passes() {
            attempted += pass.ops;
            failed += pass.fails;
        }
        for m in rows {
            let name = if prefix {
                format!("{}/{}", p.name, m.name)
            } else {
                m.name.to_string()
            };
            metrics.push((name, m));
        }
    }
    let refs: Vec<(String, &Metric)> = metrics.iter().map(|(n, m)| (n.clone(), m)).collect();
    println!(
        "{}",
        report::result_line(correct, attempted.max(1), failed, &refs)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
