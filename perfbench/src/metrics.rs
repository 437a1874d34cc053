//! Metric names, units and the per-layer values derived from spans.

use std::collections::BTreeMap;

use pim_bench::explain::mode_slug;
use pim_core::ExecutionMode;

use crate::inputs::slug;
use crate::spans::{self_time_ns, Span};

/// Experiments reported on their own; the rest sum into `bench.exp_s.rest`.
pub const NAMED_EXPERIMENTS: [&str; 8] = [
    "fig1", "fig6", "fig7", "fig10", "fig11", "fig20", "headline", "area",
];

/// Experiments whose runs an earlier experiment already computed (fig6,
/// fig10, headline); with the scorecard and explain sweeps they make up
/// `bench.repeat_view_s`.
pub const REPEAT_VIEWS: [&str; 3] = ["fig7", "fig11", "area"];

/// End-to-end metrics: name, unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// One per-layer metric: name, unit, and which direction is better.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

fn spec(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name: name.into(),
        unit,
        better,
    }
}

/// Every per-layer metric, in report order.
pub fn per_layer_specs() -> Vec<MetricSpec> {
    let mut v = Vec::new();
    for id in NAMED_EXPERIMENTS.iter().chain(&["rest"]) {
        v.push(spec(format!("bench.exp_s.{id}"), "s", "lower"));
    }
    v.push(spec("bench.scorecard_s", "s", "lower"));
    v.push(spec("bench.explain_s", "s", "lower"));
    v.push(spec("bench.repeat_view_s", "s", "lower"));
    v.push(spec("bench.scorecard_divergent", "count", "lower"));
    v.push(spec("bench.scorecard_mean_rel_err", "ratio", "lower"));
    v.push(spec("harness.overhead_s", "s", "lower"));
    v.push(spec("harness.jobs", "count", "lower"));
    v.push(spec("harness.attempts", "count", "lower"));
    v.push(spec("harness.failed", "count", "lower"));
    let kernels: Vec<String> = pim_bench::jobs::kernel_catalog(false)
        .iter()
        .map(|(n, ..)| slug(n))
        .collect();
    for k in &kernels {
        for mode in ExecutionMode::ALL {
            v.push(spec(
                format!("core.run_s.{k}.{}", mode_slug(mode)),
                "s",
                "lower",
            ));
        }
    }
    for counter in [
        "core.instructions",
        "memsim.l1_accesses",
        "memsim.llc_accesses",
        "memsim.memctrl_requests",
        "memsim.dram_bytes",
    ] {
        let unit = if counter.ends_with("bytes") {
            "B"
        } else {
            "count"
        };
        for k in &kernels {
            v.push(spec(format!("{counter}.{k}"), unit, "lower"));
        }
    }
    v.push(spec("core.run_s", "s", "lower"));
    v.push(spec("core.instructions", "count", "lower"));
    v.push(spec("core.sim_accesses", "count", "lower"));
    v.push(spec("core.host_ns_per_sim_access", "ns", "lower"));
    v.push(spec("core.sim_instr_per_host_s", "1/s", "higher"));
    v.push(spec("input.build_s", "s", "lower"));
    v.push(spec("trace.events", "count", "lower"));
    v.push(spec("trace.dropped_events", "count", "lower"));
    v.push(spec("trace.export_s", "s", "lower"));
    v.push(spec("trace.export_bytes", "B", "lower"));
    v.push(spec("spans.count", "count", "lower"));
    v.push(spec("spans.untraced_wall_s", "s", "lower"));
    v.push(spec("spans.overhead_s", "s", "lower"));
    v
}

/// Timings of the two passes of a traced run.
#[derive(Debug, Clone, Copy)]
pub struct TracedRun {
    /// Median input set-up time.
    pub build_s: f64,
    /// Wall time of the pass with spans off.
    pub untraced_wall_s: f64,
    /// Wall time of the pass with spans on.
    pub traced_wall_s: f64,
}

/// Every per-layer metric of a traced pass: span times by layer plus the
/// pass's work counts. Layers a workload does not reach read 0.
pub fn per_layer(
    spans: &[Span],
    counts: &BTreeMap<String, f64>,
    t: TracedRun,
) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = per_layer_specs()
        .into_iter()
        .map(|s| (s.name, 0.0))
        .collect();
    let mut add = |name: &str, v: f64| {
        *m.get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric")) += v;
    };
    for (i, s) in spans.iter().enumerate() {
        let d = s.duration_ns() as f64 / 1e9;
        match s.name.split(':').collect::<Vec<_>>().as_slice() {
            ["exp", id] => {
                if NAMED_EXPERIMENTS.contains(id) {
                    add(&format!("bench.exp_s.{id}"), d);
                } else {
                    add("bench.exp_s.rest", d);
                }
                if REPEAT_VIEWS.contains(id) {
                    add("bench.repeat_view_s", d);
                }
            }
            ["scorecard"] => {
                add("bench.scorecard_s", d);
                add("bench.repeat_view_s", d);
            }
            ["explain"] => {
                add("bench.explain_s", d);
                add("bench.repeat_view_s", d);
            }
            ["harness"] => add("harness.overhead_s", self_time_ns(spans, i) as f64 / 1e9),
            ["core", kernel, mode, _input] => {
                add(&format!("core.run_s.{kernel}.{mode}"), d);
                add("core.run_s", d);
            }
            ["trace", "export"] => add("trace.export_s", d),
            _ => {}
        }
    }
    for (name, v) in counts {
        add(name, *v);
    }
    add("input.build_s", t.build_s);
    add("spans.count", spans.len() as f64);
    add("spans.untraced_wall_s", t.untraced_wall_s);
    add("spans.overhead_s", t.traced_wall_s - t.untraced_wall_s);
    let run_s = m["core.run_s"];
    let accesses = m["core.sim_accesses"];
    if accesses > 0.0 {
        m.insert("core.host_ns_per_sim_access".into(), run_s * 1e9 / accesses);
    }
    if run_s > 0.0 {
        m.insert(
            "core.sim_instr_per_host_s".into(),
            m["core.instructions"] / run_s,
        );
    }
    m
}
