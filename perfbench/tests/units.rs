//! The benchmark's own arithmetic: the tail-percentile rule, the median
//! request per program, span self time, `/proc` parsing, and agreement
//! between `BENCHMARK.json` and the metrics the binary prints.

use std::time::Instant;

use hasp_perfbench::measure::{
    geomean, median, median_by_group, parse_schedstat, parse_vm_hwm_kb, tail,
};
use hasp_perfbench::report::{per_layer_table, END_TO_END};
use hasp_perfbench::trace::{
    covered, self_by_name, self_times, uncovered_shares, Span, Tracer, NO_PARENT,
};

fn ascending(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn tail_needs_ten_samples_beyond_it() {
    assert_eq!(
        tail(&ascending(10)),
        None,
        "10 samples leave none beyond any rank"
    );
    let t = tail(&ascending(11)).unwrap();
    assert_eq!((t.pct, t.value, t.beyond, t.samples), (9, 1.0, 10, 11));
    let t = tail(&ascending(100)).unwrap();
    assert_eq!((t.pct, t.value, t.beyond), (90, 90.0, 10));
    let t = tail(&ascending(1000)).unwrap();
    assert_eq!((t.pct, t.value, t.beyond), (99, 990.0, 10));
    // The next percentile up would leave only nine samples beyond.
    let t = tail(&ascending(63)).unwrap();
    assert_eq!((t.pct, t.beyond), (84, 10));
    assert!(63 - ((0.85f64 * 63.0).ceil() as usize) < 10);
}

#[test]
fn median_takes_the_midpoint() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn median_request_per_program() {
    let samples = [(2, 5.0), (0, 3.0), (2, 4.0), (0, 9.0), (1, 7.0), (2, 6.0)];
    assert_eq!(median_by_group(samples), vec![6.0, 7.0, 5.0]);
    assert!(median_by_group([]).is_empty());
    assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    assert_eq!(geomean(&[]), 0.0);
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        req: 0,
    }
}

#[test]
fn self_time_counts_overlapping_children_once() {
    let spans = [
        span("root", 0, 100, NO_PARENT),
        span("a", 10, 40, 0),
        span("b", 30, 60, 0),  // overlaps `a` by 10
        span("c", 90, 120, 0), // runs past the parent's end
        span("d", 15, 25, 1),  // grandchild: only `a` loses time to it
    ];
    // Root: children cover [10, 60) and [90, 100).
    assert_eq!(self_times(&spans), vec![40, 20, 30, 30, 10]);
    let by_name = self_by_name(&spans);
    assert_eq!(by_name["root"], (40, 1));
    assert_eq!(by_name["a"], (20, 1));
    assert_eq!(uncovered_shares(&spans, "root"), vec![0.4]);
    assert!(uncovered_shares(&spans, "other").is_empty());
}

#[test]
fn covered_clips_and_merges() {
    assert_eq!(covered(0, 10, &mut []), 0);
    assert_eq!(covered(0, 10, &mut [(2, 4), (3, 5), (5, 6)]), 4);
    assert_eq!(covered(5, 10, &mut [(0, 7), (9, 20)]), 3);
    assert_eq!(covered(0, 10, &mut [(0, 10), (1, 2)]), 10);
}

#[test]
fn tracer_nests_and_stays_silent_when_off() {
    let mut tr = Tracer::new(true, Instant::now());
    tr.set_request(7);
    let root = tr.enter("root");
    tr.time("child", || {});
    let inner = tr.enter("second");
    tr.time("grandchild", || {});
    tr.exit(inner);
    tr.exit(root);
    let parents: Vec<u32> = tr.spans.iter().map(|s| s.parent).collect();
    assert_eq!(parents, vec![NO_PARENT, 0, 0, 2]);
    assert!(tr
        .spans
        .iter()
        .all(|s| s.req == 7 && s.end_ns >= s.start_ns));

    let mut off = Tracer::new(false, Instant::now());
    let id = off.enter("x");
    off.exit(id);
    assert!(off.spans.is_empty());
}

#[test]
fn schedstat_first_field_is_cpu_ns() {
    assert_eq!(parse_schedstat("85461049 1442967 30\n"), Some(85_461_049));
    assert_eq!(parse_schedstat("0 0 0"), Some(0));
    assert_eq!(parse_schedstat(""), None);
    assert_eq!(parse_schedstat("abc 1 2"), None);
    // The live file parses on this kernel.
    let live = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap();
    assert!(parse_schedstat(&live).is_some());
}

#[test]
fn vm_hwm_is_read_in_kib() {
    let status = "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t    8452 kB\nVmRSS:\t 8000 kB\n";
    assert_eq!(parse_vm_hwm_kb(status), Some(8452));
    assert_eq!(parse_vm_hwm_kb("VmRSS:\t 1 kB\n"), None);
}

/// The `name`, `unit` and `better` triples of one `BENCHMARK.json` list.
fn listed(json: &str, key: &str) -> Vec<(String, String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("list present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |entry: &str, f: &str| {
        let at = entry.find(&format!("\"{f}\": \"")).expect("field present") + f.len() + 5;
        entry[at..at + entry[at..].find('"').unwrap()].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let e2e: Vec<_> = END_TO_END
        .iter()
        .map(|(n, u, b)| (n.to_string(), u.to_string(), b.name().to_string()))
        .collect();
    assert_eq!(listed(&json, "end_to_end"), e2e);
    let layers: Vec<_> = per_layer_table()
        .into_iter()
        .map(|(n, u, b)| (n, u.to_string(), b.name().to_string()))
        .collect();
    assert_eq!(listed(&json, "per_layer"), layers);
}
