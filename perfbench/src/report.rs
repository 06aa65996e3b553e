//! Metrics by name: the end-to-end set a run reports untraced, the
//! per-layer set a traced run reports, and the human-readable report
//! printed before the result line.

use crate::run::Outcome;
use crate::stats::Summary;
use crate::workload::{Params, THREADS};
use std::fmt::Write as _;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples (or the denominator) behind the value.
    pub n: u64,
    /// What else the report prints about it (median, tail, …).
    pub detail: String,
}

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("put_p50_us", "us"),
    ("get_p50_us", "us"),
    ("ops_per_s", "1/s"),
    ("get_p99_ticks", "ticks"),
    ("msgs_per_op", "msgs"),
    ("bytes_per_op", "B"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics every traced run reports, with units.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("op.traced_us", "us"),
    ("engine.self_us_per_op", "us"),
    ("engine.pct_of_op", "%"),
    ("engine.attempts_per_op", "count"),
    ("engine.retries_per_op", "count"),
    ("engine.batch_stale_per_op", "count"),
    ("dht.route_us", "us"),
    ("dht.route_pct_of_op", "%"),
    ("dht.hops_per_op", "count"),
    ("erasure.encode_us", "us"),
    ("erasure.decode_us", "us"),
    ("erasure.encode_mib_s", "MiB/s"),
    ("erasure.pct_of_op", "%"),
    ("store.self_us_per_op", "us"),
    ("store.pct_of_op", "%"),
    ("store.calls_per_op", "count"),
    ("store.commit_us_p99", "us"),
    ("store.wal_bytes_per_put", "B"),
    ("transport.self_us_per_op", "us"),
    ("transport.pct_of_op", "%"),
    ("transport.plans_per_op", "count"),
    ("transport.deliveries_per_plan", "count"),
    ("replica.pump_pct", "%"),
    ("replica.backlog_peak", "count"),
    ("replica.shares_rebuilt", "count"),
    ("replica.items_lost", "count"),
    ("rayon.speedup_2v1", "x"),
    ("generator.lag_p99_us", "us"),
    ("bench.self_pct", "%"),
    ("trace.overhead_pct", "%"),
];

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .expect("a listed metric")
}

fn metric(
    table: &[(&'static str, &'static str)],
    name: &'static str,
    value: f64,
    n: u64,
    detail: String,
) -> Metric {
    Metric {
        name,
        value,
        unit: unit_of(table, name),
        n,
        detail,
    }
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let (p, t) = (o.plain(), &o.timing);
    let put = Summary::of(&mut t.put_us.clone());
    let get = Summary::of(&mut t.get_us.clone());
    let ticks = Summary::of(&mut p.get_ticks.clone());
    let ops = p.ops.max(1) as f64;
    let e = |name, value, n, detail| metric(&END_TO_END, name, value, n, detail);
    vec![
        e(
            "setup_s",
            o.setup_median(),
            o.setup_s.len() as u64,
            format!("median of {} set-ups: {:?}", o.setup_s.len(), o.setup_s),
        ),
        e("put_p50_us", put.p50, put.n as u64, put.describe("us")),
        e("get_p50_us", get.p50, get.n as u64, get.describe("us")),
        e(
            "ops_per_s",
            ratio(p.ops as f64, t.busy_s),
            p.ops,
            format!("{} ops over {:.3} busy s", p.ops, t.busy_s),
        ),
        e(
            "get_p99_ticks",
            ticks.p99,
            ticks.n as u64,
            ticks.describe("ticks"),
        ),
        e(
            "msgs_per_op",
            p.msgs as f64 / ops,
            p.ops,
            format!("{} msgs", p.msgs),
        ),
        e(
            "bytes_per_op",
            p.bytes as f64 / ops,
            p.ops,
            format!("{} B", p.bytes),
        ),
        e(
            "peak_rss_mib",
            o.peak_rss_mib,
            1,
            "VmHWM after the first set-up".to_string(),
        ),
    ]
}

fn honest(s: &Summary) -> String {
    if s.p99_honest() {
        s.describe("us")
    } else {
        format!(
            "{} — p99 has fewer than 10 samples beyond it",
            s.describe("us")
        )
    }
}

/// End-to-end metrics printed in the report, not in the result line:
/// the p99 latencies (too dependent on the host's phases to bound, see
/// `ledger.md`) and the metrics that apply to some workloads only (the
/// result line carries the same set for every workload).
pub fn end_to_end_extra(p: &Params, o: &Outcome) -> Vec<(String, String)> {
    let (pass, t) = (o.plain(), &o.timing);
    let ops = pass.ops.max(1) as f64;
    let p99 = |v: &[f64]| {
        let s = Summary::of(&mut v.to_vec());
        format!("{:.4} us ({})", s.p99, honest(&s))
    };
    let mut rows = vec![
        ("put_p99_us".to_string(), p99(&t.put_us)),
        ("get_p99_us".to_string(), p99(&t.get_us)),
        (
            "fail_ratio".to_string(),
            format!(
                "{:.6} (failed calls / calls, n = {}, failed = {}; ops failed after {} tries: {})",
                ratio(pass.failed_tries as f64, pass.tries as f64),
                pass.tries,
                pass.failed_tries,
                crate::workload::CLIENT_TRIES,
                pass.fails
            ),
        ),
        (
            "slo_miss_ratio".to_string(),
            format!(
                "{:.6} (ops over {} us or failed / attempted, n = {})",
                t.slo_miss as f64 / ops,
                p.slo_us,
                pass.ops
            ),
        ),
    ];
    if pass.churn_events > 0 {
        let churn = Summary::of(&mut t.churn_us.clone());
        let repair = pass.repair.bytes + pass.pump_bytes;
        rows.push(("churn_p50_us".to_string(), churn.describe("us")));
        rows.push((
            "repair_bytes_per_churn".to_string(),
            format!(
                "{:.1} B (n = {} churn events)",
                repair as f64 / pass.churn_events as f64,
                pass.churn_events
            ),
        ));
    }
    if pass.wal_bytes > 0 {
        rows.push((
            "wal_bytes_per_user_byte".to_string(),
            format!(
                "{:.4} (n = {} user bytes)",
                ratio(pass.wal_bytes as f64, pass.user_bytes as f64),
                pass.user_bytes
            ),
        ));
    }
    let lag = Summary::of(&mut t.lag_us.clone());
    rows.push(("generator.lag_us".to_string(), lag.describe("us")));
    if let Some(peak) = t.backlog.iter().max() {
        rows.push((
            "queue.peak".to_string(),
            format!("{peak} requests due and not started (open loop)"),
        ));
    }
    if pass.batch_cpu_ns > 0 {
        let wall: u64 = pass.steps.iter().map(|s| s.service_ns).sum();
        rows.push((
            "batch.cpu_per_wall".to_string(),
            format!(
                "{:.3} (CPU s of all threads per wall s inside batch_over, first pass; \
                 {THREADS} workers)",
                ratio(pass.batch_cpu_ns as f64, wall as f64)
            ),
        ));
    }
    let per_pass: Vec<String> = o
        .passes
        .iter()
        .map(|x| {
            let mut v: Vec<f64> = x.steps.iter().map(|s| s.service_ns as f64 / 1e3).collect();
            format!("{:.2}", Summary::of(&mut v).p50)
        })
        .collect();
    rows.push((
        "pass.service_p50_us".to_string(),
        format!(
            "[{}] (median service time of each pass alone; the metrics above take each op's least)",
            per_pass.join(", ")
        ),
    ));
    rows.push((
        "digest".to_string(),
        format!("{:#018x} over {} ops", pass.digest.0, pass.ops),
    ));
    rows
}

/// Why an open-loop pass's percentiles must not be reported: the
/// queue of due requests grew over the run, so the offered rate
/// exceeds capacity. `None` when the pass kept up (or is closed-loop).
pub fn saturation(p: &Params, o: &Outcome) -> Option<String> {
    let rate = p.churn()?.rate;
    let (pass, t) = (o.plain(), &o.timing);
    let q = t.backlog.len() / 4;
    if q == 0 {
        return None;
    }
    let median = |s: &[u32]| {
        let mut v: Vec<f64> = s.iter().map(|&x| f64::from(x)).collect();
        Summary::of(&mut v).p50
    };
    let (first, last) = (
        median(&t.backlog[..q]),
        median(&t.backlog[t.backlog.len() - q..]),
    );
    let limit = (2 * crate::workload::BURST) as f64;
    (last > limit && last > 2.0 * first).then(|| {
        format!(
            "offered rate {rate} ops/s exceeds capacity ({:.0} ops/s busy throughput): the median \
             queue grew from {first} to {last} requests over the run; latency percentiles of a \
             saturated open loop are not reported",
            ratio(pass.ops as f64, t.busy_s)
        )
    })
}

/// The per-layer metrics of a traced run.
pub fn per_layer(o: &Outcome) -> Vec<Metric> {
    let t = o.traced.as_ref().expect("a traced run");
    let l = t.layers.clone().unwrap_or_default();
    let ops = t.ops.max(1) as f64;
    let us_per_op = |ns: u64| ns as f64 / ops / 1e3;
    let pct = |ns: u64| 100.0 * ratio(ns as f64, l.op_ns as f64);
    let wall_ns = t.wall_ns as f64;
    let outside = wall_ns - (l.op_ns + l.pump_ns + l.churn_ns + l.shadow_ns) as f64;
    let plain_rate = ratio(o.plain().ops as f64, o.plain().busy_s());
    let traced_rate = ratio(t.ops as f64, t.busy_s());
    let commit = Summary::of(&mut l.commit_us.clone());
    let lag = Summary::of(&mut o.timing.lag_us.clone());
    let n = t.ops;
    let m = |name, value, n, detail| metric(&PER_LAYER, name, value, n, detail);
    vec![
        m(
            "op.traced_us",
            us_per_op(l.op_ns),
            n,
            "mean op span, traced".into(),
        ),
        m(
            "engine.self_us_per_op",
            us_per_op(l.engine_ns),
            n,
            "op span minus transport and store spans".into(),
        ),
        m("engine.pct_of_op", pct(l.engine_ns), n, String::new()),
        m(
            "engine.attempts_per_op",
            l.attempts as f64 / ops,
            n,
            String::new(),
        ),
        m(
            "engine.retries_per_op",
            l.retries as f64 / ops,
            n,
            String::new(),
        ),
        m(
            "engine.batch_stale_per_op",
            l.stale as f64 / ops,
            n,
            "batch_over's merged EngineStats only".into(),
        ),
        m(
            "dht.route_us",
            ratio(l.route_ns as f64, l.routes as f64) / 1e3,
            l.routes,
            "shadow DhNetwork::lookup".into(),
        ),
        m(
            "dht.route_pct_of_op",
            pct(l.route_ns),
            l.routes,
            String::new(),
        ),
        m(
            "dht.hops_per_op",
            ratio(l.hops as f64, l.routes as f64),
            l.routes,
            String::new(),
        ),
        m(
            "erasure.encode_us",
            ratio(l.encode_ns as f64, l.encodes as f64) / 1e3,
            l.encodes,
            "shadow encode per put".into(),
        ),
        m(
            "erasure.decode_us",
            ratio(l.decode_ns as f64, l.decodes as f64) / 1e3,
            l.decodes,
            "shadow try_decode per get".into(),
        ),
        m(
            "erasure.encode_mib_s",
            ratio(
                l.encode_bytes as f64 / f64::from(1 << 20),
                l.encode_ns as f64 / 1e9,
            ),
            l.encodes,
            format!("{} user bytes", l.encode_bytes),
        ),
        m(
            "erasure.pct_of_op",
            pct(l.encode_ns + l.decode_ns),
            n,
            "shadow encode + decode over op time".into(),
        ),
        m(
            "store.self_us_per_op",
            us_per_op(l.store_ns),
            n,
            "shelf mutation verbs".into(),
        ),
        m("store.pct_of_op", pct(l.store_ns), n, String::new()),
        m(
            "store.calls_per_op",
            l.store_calls as f64 / ops,
            n,
            String::new(),
        ),
        m(
            "store.commit_us_p99",
            commit.p99,
            commit.n as u64,
            commit.describe("us"),
        ),
        m(
            "store.wal_bytes_per_put",
            ratio(l.wal_put_bytes as f64, l.puts as f64),
            l.puts,
            String::new(),
        ),
        m(
            "transport.self_us_per_op",
            us_per_op(l.transport_ns),
            n,
            "Transport::plan".into(),
        ),
        m("transport.pct_of_op", pct(l.transport_ns), n, String::new()),
        m(
            "transport.plans_per_op",
            l.plans as f64 / ops,
            n,
            String::new(),
        ),
        m(
            "transport.deliveries_per_plan",
            ratio(l.deliveries as f64, l.plans as f64),
            l.plans,
            String::new(),
        ),
        m(
            "replica.pump_pct",
            100.0 * ratio(l.pump_ns as f64, wall_ns),
            n,
            "pump_repair share of the traced pass".into(),
        ),
        m(
            "replica.backlog_peak",
            t.backlog_peak as f64,
            t.churn_events,
            String::new(),
        ),
        m(
            "replica.shares_rebuilt",
            t.repair.shares_rebuilt as f64,
            t.churn_events,
            String::new(),
        ),
        m(
            "replica.items_lost",
            t.repair.items_lost as f64,
            t.churn_events,
            String::new(),
        ),
        m(
            "rayon.speedup_2v1",
            l.speedup_2v1.unwrap_or(0.0),
            crate::run::SPEEDUP_ROUNDS,
            "0 where the sharded runtime is not used".into(),
        ),
        m(
            "generator.lag_p99_us",
            lag.p99,
            lag.n as u64,
            lag.describe("us"),
        ),
        m(
            "bench.self_pct",
            100.0 * ratio(outside, wall_ns),
            n,
            "traced wall time outside every layer call".into(),
        ),
        m(
            "trace.overhead_pct",
            100.0 * (ratio(plain_rate, traced_rate) - 1.0),
            n,
            format!("untraced {plain_rate:.1} vs traced {traced_rate:.1} ops/s"),
        ),
    ]
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}}}`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &Metric)],
) -> String {
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, m)) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// One aligned report row.
pub fn row(m: &Metric) -> String {
    format!(
        "  {:<30} {:>14.4} {:<6} n = {:<9} {}",
        m.name, m.value, m.unit, m.n, m.detail
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_is_one_json_object() {
        let m = Metric {
            name: "setup_s",
            value: 0.5,
            unit: "s",
            n: 3,
            detail: String::new(),
        };
        let line = result_line(true, 10, 0, &[("setup_s".to_string(), &m)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let declared = json.matches("\"name\":").count();
        let workloads = crate::workload::workloads();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len() + workloads.len()
        );
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in &workloads {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", w.name)),
                "workload {}",
                w.name
            );
        }
        let rate = format!("{} ops/s", crate::workload::OPEN_RATE);
        assert!(
            json.contains(&rate),
            "BENCHMARK.json must state the open-loop rate ({rate})"
        );
    }
}
