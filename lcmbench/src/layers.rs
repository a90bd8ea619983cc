//! The per-layer report of a traced run: self time per layer span, the
//! counters recorded beside them, and the measurements each workload makes
//! outside its op tree. Every workload reports the same list; a metric
//! that does not apply to a workload reads n/a (0 in the JSON line).

use std::collections::BTreeMap;

use crate::stats::{ms, ratio};
use crate::trace::{Tracer, OP};
use crate::Outcome;

/// Layer spans and the self-time metric each one feeds, in ms per op.
const SPANS: [(&str, &str); 13] = [
    ("ir.parse", "ir.parse_ms"),
    ("ir.verify", "ir.verify_ms"),
    ("ir.print", "ir.print_ms"),
    ("driver.fingerprint", "driver.fingerprint_ms"),
    ("core.lcse", "core.lcse_ms"),
    ("core.universe", "core.universe_ms"),
    ("core.predicates", "core.predicates_ms"),
    ("core.rewrite", "core.rewrite_ms"),
    ("core.cleanup", "core.cleanup_ms"),
    ("core.validate", "core.validate_ms"),
    ("core.incremental", "core.incremental_ms"),
    ("dataflow.avail_antic", "dataflow.avail_antic_ms"),
    ("dataflow.later", "dataflow.later_ms"),
];

/// Every per-layer metric with its unit, in report order.
pub const METRICS: [(&str, &str); 39] = [
    ("ir.parse_ms", "ms"),
    ("ir.verify_ms", "ms"),
    ("ir.print_ms", "ms"),
    ("driver.fingerprint_ms", "ms"),
    ("driver.fingerprint_calls", "count"),
    ("driver.memo_hit_ratio", "ratio"),
    ("driver.cache_hit_ratio", "ratio"),
    ("driver.cache_evictions", "count"),
    ("driver.revalidate_ms", "ms"),
    ("driver.persist_load_ms", "ms"),
    ("driver.persist_save_ms", "ms"),
    ("driver.persist_bytes", "bytes"),
    ("driver.pool_scaling", "ratio"),
    ("core.lcse_ms", "ms"),
    ("core.universe_ms", "ms"),
    ("core.predicates_ms", "ms"),
    ("core.rewrite_ms", "ms"),
    ("core.cleanup_ms", "ms"),
    ("core.validate_ms", "ms"),
    ("core.validate_checks", "count"),
    ("core.incremental_ms", "ms"),
    ("core.incremental_rows_ratio", "ratio"),
    ("core.incremental_fallback_ratio", "ratio"),
    ("core.speculate_ms", "ms"),
    ("core.speculate_adopt_ratio", "ratio"),
    ("core.insertions", "count"),
    ("core.deletions", "count"),
    ("core.temps", "count"),
    ("dataflow.avail_antic_ms", "ms"),
    ("dataflow.later_ms", "ms"),
    ("dataflow.node_visits", "count"),
    ("dataflow.node_revisits", "count"),
    ("dataflow.word_ops", "count"),
    ("dataflow.allocations", "count"),
    ("dataflow.wide_row_fns", "count"),
    ("trace.op_ms", "ms"),
    ("trace.other_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
];

/// Builds the per-layer report. `untraced_op_ms` is the mean op time of
/// the same code path with the recorder off; `measured` holds the metrics
/// a workload measured outside its op tree, which the trace does not
/// derive. Per-unit counters are means over the units that ran the
/// pipeline; `_calls` counters are per op.
pub fn report(out: &mut Outcome, tr: &Tracer, untraced_op_ms: f64, measured: &[(&str, f64)]) {
    let ops = tr.calls(OP) as f64;
    let self_ns = tr.self_ns();
    let per_op = |name: &str| self_ns.get(name).map(|&ns| ms(ns) / ops);
    let units = tr.counter("units");
    let per_unit = |name: &str| (units > 0.0).then(|| tr.counter(name) / units);
    let share = |num: &str, den: &str| {
        let d = tr.counter(den);
        (d > 0.0).then(|| tr.counter(num) / d)
    };
    let op_ms = ms(tr.total_ns(OP)) / ops;

    let mut derived: BTreeMap<&str, Option<f64>> = BTreeMap::new();
    for (span, metric) in SPANS {
        derived.insert(metric, per_op(span));
    }
    let calls = tr.counter("driver.fingerprint_calls");
    derived.insert(
        "driver.fingerprint_calls",
        (calls > 0.0).then(|| calls / ops),
    );
    derived.insert(
        "driver.memo_hit_ratio",
        share("driver.memo_hits", "driver.memo_lookups"),
    );
    for c in [
        "core.validate_checks",
        "core.insertions",
        "core.deletions",
        "core.temps",
        "dataflow.node_visits",
        "dataflow.node_revisits",
        "dataflow.word_ops",
        "dataflow.allocations",
    ] {
        derived.insert(c, per_unit(c));
    }
    derived.insert(
        "core.incremental_rows_ratio",
        share("core.incremental_rows", "core.incremental_full_rows"),
    );
    derived.insert(
        "core.incremental_fallback_ratio",
        share("core.incremental_fallbacks", "core.incremental_edits"),
    );
    derived.insert(
        "dataflow.wide_row_fns",
        Some(tr.counter("dataflow.wide_row_fns")),
    );
    derived.insert("trace.op_ms", Some(op_ms));
    derived.insert("trace.other_ms", per_op(OP));
    derived.insert(
        "trace.overhead_ratio",
        Some(ratio(op_ms - untraced_op_ms, untraced_op_ms)),
    );
    derived.insert("trace.spans", Some(tr.calls_total() as f64 / ops));

    // The accounting the split must satisfy: layer self times plus the
    // op's own remainder add up to the traced op time.
    let layers: f64 = SPANS.iter().filter_map(|(s, _)| per_op(s)).sum();
    let other = per_op(OP).unwrap_or(0.0);
    out.notes.push(format!(
        "accounting: {:.4} ms layers + {:.4} ms other = {:.4} ms; traced op {:.4} ms \
         ({} ops), untraced op {:.4} ms",
        layers,
        other,
        layers + other,
        op_ms,
        ops,
        untraced_op_ms
    ));
    for name in self_ns.keys() {
        assert!(
            *name == OP || SPANS.iter().any(|(s, _)| s == name),
            "span `{name}` feeds no layer metric"
        );
    }

    for (name, _) in measured {
        assert!(
            !derived.contains_key(name) && METRICS.iter().any(|(m, _)| m == name),
            "`{name}` is not a metric measured outside the trace"
        );
    }
    for (name, unit) in METRICS {
        let value = measured
            .iter()
            .find(|(m, _)| *m == name)
            .map(|&(_, v)| v)
            .or_else(|| derived.get(name).copied().flatten());
        match value {
            Some(v) => out.metric(name, v, unit),
            None => out.na(name, unit),
        }
    }
}
