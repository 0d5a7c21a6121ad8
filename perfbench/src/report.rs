//! The metric tables and the result line.

use hasp_hw::ABORT_REASONS;

use crate::harness::{Counters, Loop};
use crate::measure::{geomean, median, median_by_group, tail};
use crate::trace::{self_by_name, uncovered_shares};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Every end-to-end metric: name, unit, direction. Printed by untraced
/// runs, for every workload. The request rate, the median over all
/// requests and the tail latency are printed beside them but are not among
/// them: over ten runs of the same code they spread wider than any bound
/// the benchmark may set (see the README).
pub const END_TO_END: [(&str, &str, Better); 7] = [
    ("setup_s", "s", Better::Lower),
    ("p50_geo_ms", "ms", Better::Lower),
    ("uops_per_cpu_s", "1/s", Better::Higher),
    ("sim_ipc", "uops/cycle", Better::Higher),
    ("sim_speedup_x", "x", Better::Higher),
    ("peak_rss_mb", "MiB", Better::Lower),
    ("ok_share", "share", Better::Higher),
];

/// Spans whose self time is reported as `<name>.s`, seconds per request.
pub const SPANS: [&str; 22] = [
    "vm.profile",
    "ir.translate",
    "ir.verify",
    "opt.pre",
    "opt.inline",
    "opt.sle",
    "opt.safepoint",
    "opt.unroll",
    "opt.rounds",
    "core.form",
    "hw.lower",
    "hw.seal",
    "hw.machine.setup",
    "hw.exec",
    "hw.machine.teardown",
    "hw.coherence.attach",
    "hw.coherence.detach",
    "hw.publish.pin",
    "hw.publish.publish",
    "hw.publish.reclaim",
    "bench.check",
    "bench.request",
];

/// Spans whose mean duration per call is reported as `<metric>`, in ns.
const PER_CALL: [(&str, &str); 6] = [
    ("hw.machine.setup", "hw.machine.setup_ns"),
    ("hw.machine.teardown", "hw.machine.teardown_ns"),
    ("hw.coherence.attach", "hw.coherence.attach_ns"),
    ("hw.coherence.detach", "hw.coherence.detach_ns"),
    ("hw.publish.pin", "hw.publish.pin_ns"),
    ("hw.publish.publish", "hw.publish.publish_ns"),
];

/// A metric value with its unit.
pub type Metric = (String, f64, &'static str);

/// Nanoseconds as milliseconds.
fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Every per-layer metric: name, unit, direction, in output order.
pub fn per_layer_table() -> Vec<(String, &'static str, Better)> {
    let mut t: Vec<(String, &'static str, Better)> = SPANS
        .iter()
        .map(|s| (format!("{s}.s"), "s/req", Better::Lower))
        .collect();
    t.extend(
        PER_CALL
            .iter()
            .map(|(_, m)| (m.to_string(), "ns", Better::Lower)),
    );
    let fixed: [(&str, &'static str, Better); 20] = [
        ("vm.profile.steps_per_s", "1/s", Better::Higher),
        ("opt.rounds.changes", "count/req", Better::Lower),
        ("opt.ir_size", "ops/req", Better::Lower),
        ("core.form.regions", "count/req", Better::Higher),
        ("core.form.ir_size", "ops/req", Better::Lower),
        ("hw.static_uops", "uops/req", Better::Lower),
        ("hw.exec.cpu_ns_per_kuop", "ns/kuop", Better::Lower),
        ("hw.mem.accesses_per_kuop", "count/kuop", Better::Lower),
        ("hw.mem.pred_hit_rate", "share", Better::Higher),
        ("hw.bpred.mispredict_rate", "share", Better::Lower),
        ("hw.region.commits", "count/req", Better::Higher),
        ("hw.region.commit_ratio", "share", Better::Higher),
        (
            "hw.coherence.publishes_per_kuop",
            "count/kuop",
            Better::Lower,
        ),
        ("hw.coherence.drained", "count/req", Better::Lower),
        ("hw.coherence.signaled", "count/req", Better::Lower),
        ("hw.publish.pins", "count", Better::Higher),
        ("hw.publish.reclaims", "count", Better::Higher),
        ("hw.publish.retired_end", "count", Better::Lower),
        ("trace.overhead_pct", "%", Better::Lower),
        ("trace.uncovered_share", "share", Better::Lower),
    ];
    t.extend(fixed.iter().map(|&(n, u, b)| (n.to_string(), u, b)));
    t.extend(ABORT_REASONS.iter().map(|r| {
        (
            format!("hw.region.aborts.{}", r.name()),
            "count/req",
            Better::Lower,
        )
    }));
    t.extend((0..4).map(|i| {
        (
            format!("hw.gov.tier_enters.{i}"),
            "count/req",
            Better::Lower,
        )
    }));
    t
}

/// End-to-end figures of one untraced loop.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Median set-up seconds.
    pub setup_s: f64,
    /// Modeled IPC.
    pub sim_ipc: f64,
    /// Modeled Figure 7 speedup, as a factor.
    pub sim_speedup_x: f64,
}

/// Requests per wall second of a loop.
pub fn req_per_s(l: &Loop) -> f64 {
    l.requests.len() as f64 / l.wall_s
}

/// The end-to-end metrics of an untraced loop, plus the human-readable
/// notes that go with them.
pub fn end_to_end(l: &Loop, e: EndToEnd, rss_mb: f64, notes: &mut String) -> Vec<Metric> {
    let mut lat: Vec<f64> = l.requests.iter().map(|r| ms(r.ns)).collect();
    lat.sort_by(f64::total_cmp);
    let p50s = median_by_group(
        l.requests
            .iter()
            .filter(|r| r.ok)
            .map(|r| (r.program, ms(r.ns))),
    );
    let t = tail(&lat);
    match t {
        Some(t) => notes.push_str(&format!(
            "tail_ms {} ms: p{} with {} of {} samples beyond it\n",
            t.value, t.pct, t.beyond, t.samples
        )),
        None => notes.push_str(&format!(
            "tail_ms {} ms: the maximum, as fewer than 11 samples exist\n",
            lat.last().copied().unwrap_or(0.0)
        )),
    }
    let attempted = l.requests.len() as f64;
    let failed = l.failures.total() as f64;
    notes.push_str(&format!(
        "failed_share {} ({failed} failed of {attempted} attempted)\n",
        ratio(failed, attempted)
    ));
    notes.push_str(&format!(
        "req_per_s {} 1/s\np50_ms {} ms\nmedian request per program, ms: {p50s:?}\n",
        req_per_s(l),
        median(&lat)
    ));
    let values: [f64; END_TO_END.len()] = [
        e.setup_s,
        geomean(&p50s),
        ratio(l.counters.uops as f64, l.cpu_ns as f64 / 1e9),
        e.sim_ipc,
        e.sim_speedup_x,
        rss_mb,
        1.0 - ratio(failed, attempted),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u, _), v)| (n.to_string(), v, u))
        .collect()
}

/// The per-layer metrics of a traced loop; `untraced_rps` is the
/// untraced loop's request rate, for the tracing overhead.
pub fn per_layer(l: &Loop, untraced_rps: f64) -> Vec<Metric> {
    let reqs = l.requests.len() as f64;
    let mut by_name = std::collections::BTreeMap::new();
    for spans in &l.spans {
        for (name, (ns, calls)) in self_by_name(spans) {
            let e = by_name.entry(name).or_insert((0u64, 0u64));
            e.0 += ns;
            e.1 += calls;
        }
    }
    let self_s = |n: &str| by_name.get(n).map_or(0.0, |e| e.0 as f64 / 1e9);
    let per_call = |n: &str| {
        by_name
            .get(n)
            .map_or(0.0, |e| ratio(e.0 as f64, e.1 as f64))
    };
    let uncovered: Vec<f64> = l
        .spans
        .iter()
        .flat_map(|s| uncovered_shares(s, "bench.request"))
        .collect();
    let c: &Counters = &l.counters;
    let kuops = c.uops as f64 / 1000.0;
    let aborts: u64 = c.aborts.iter().sum();
    let mut values: Vec<f64> = SPANS.iter().map(|s| self_s(s) / reqs).collect();
    values.extend(PER_CALL.iter().map(|(s, _)| per_call(s)));
    values.extend([
        ratio(c.interp_steps as f64, self_s("vm.profile")),
        c.compile.round_changes as f64 / reqs,
        c.compile.ir_size as f64 / reqs,
        c.compile.form_regions as f64 / reqs,
        c.compile.form_ir_size as f64 / reqs,
        c.compile.static_uops as f64 / reqs,
        ratio(c.exec_cpu_ns as f64, kuops),
        ratio(c.mem_accesses as f64, kuops),
        ratio(c.pred_hits as f64, c.pred_probes as f64),
        ratio(c.mispredicts as f64, c.branches as f64),
        c.commits as f64 / reqs,
        ratio(c.commits as f64, (c.commits + aborts) as f64),
        ratio(c.link.published as f64, kuops),
        c.link.drained as f64 / reqs,
        c.signaled as f64 / reqs,
        c.pins as f64,
        c.reclaims as f64,
        c.retired_end as f64,
        (ratio(untraced_rps, req_per_s(l)) - 1.0) * 100.0,
        median(&uncovered),
    ]);
    values.extend(c.aborts.iter().map(|&a| a as f64 / reqs));
    values.extend(c.tier_enters.iter().map(|&t| t as f64 / reqs));
    let table = per_layer_table();
    assert_eq!(table.len(), values.len(), "one value per per-layer metric");
    table
        .into_iter()
        .zip(values)
        .map(|((n, u, _), v)| (n, v, u))
        .collect()
}

/// The result line: `correct`, `attempted`, `failed` and every metric with
/// its unit. Non-finite values print as 0 so the line stays valid JSON.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
