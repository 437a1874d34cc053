//! The three workloads. Each runs in-process on the calling thread (the
//! harness at one worker where one is used), checks every output against
//! the [`Reference`], and counts the work it saw.

use std::collections::BTreeMap;
use std::sync::Arc;

use pim_bench::explain::{explain_sweep, mode_slug};
use pim_bench::scorecard::{
    entries_from_metrics, scorecard, to_json, KernelMetrics, ScorecardEntry,
};
use pim_bench::{run_experiment, EXPERIMENTS};
use pim_core::{ExecutionMode, OffloadEngine, RunReport, Tracer};
use pim_harness::{Harness, HarnessPolicy, Job, JobStatus};
use pim_obs::Profiler;

use crate::digest;
use crate::inputs::{self, Input};
use crate::reference::{run_key, scorecard_rows, Reference};
use crate::spans::{SpanId, Spans};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All 23 experiments under the harness, then the scorecard and the
    /// `--explain` sweep.
    ReproFull,
    /// The kernel catalog × 3 modes on the paper inputs and seeded
    /// variants, untraced.
    KernelSweep,
    /// The paper-input catalog × 3 modes with a tracer attached, then the
    /// trace export.
    TracedSweep,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::ReproFull,
        Workload::KernelSweep,
        Workload::TracedSweep,
    ];

    /// Name as given on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReproFull => "repro-full",
            Workload::KernelSweep => "kernel-sweep",
            Workload::TracedSweep => "traced-sweep",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one pass did.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations run: experiments, kernel × mode runs, and the
    /// scorecard, explain-record and trace checks.
    pub attempted: u64,
    /// Operations that errored or whose output differs from the reference.
    pub failed: u64,
    /// Per-layer values that are not span times, by metric name.
    pub counts: BTreeMap<String, f64>,
    /// This pass's outputs in the `reference/digests.txt` format.
    pub digests: Vec<String>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: output check failed: {what}");
        }
    }

    fn add(&mut self, name: impl Into<String>, v: f64) {
        *self.counts.entry(name.into()).or_default() += v;
    }
}

/// The inputs one pass runs; built during set-up.
pub struct Prepared {
    inputs: Vec<Input>,
    family: String,
}

/// Build a workload's inputs. `repro-full`'s experiments build their own
/// inputs, so its set-up builds the paper-input catalog through the
/// same constructors and drops it.
pub fn prepare(w: Workload, seed: u64, smoke: bool) -> Prepared {
    let mut inputs = inputs::paper(smoke);
    let mut family = "paper".to_string();
    if w == Workload::KernelSweep {
        let f = inputs::family(seed);
        inputs.extend(inputs::variants(f, smoke));
        family = f.to_string();
    }
    Prepared { inputs, family }
}

/// Run one pass of `w` under span `root`.
pub fn run(
    w: Workload,
    p: Prepared,
    reference: &Reference,
    spans: &Arc<Spans>,
    root: SpanId,
) -> Outcome {
    let mut out = Outcome::default();
    match w {
        Workload::ReproFull => {
            drop(p);
            repro_full(reference, spans, root, &mut out);
        }
        Workload::KernelSweep => {
            let paper = sweep(p, &Tracer::disabled(), reference, spans, root, &mut out);
            if let Some(want) = &reference.scorecard {
                let got = scorecard_of(&entries_from_metrics(&paper));
                out.check(
                    &got == want,
                    "kernel-sweep paper inputs vs committed scorecard",
                );
            }
        }
        Workload::TracedSweep => {
            let tracer = Tracer::new();
            sweep(p, &tracer, reference, spans, root, &mut out);
            traced_export(&tracer, reference, spans, root, &mut out);
        }
    }
    out
}

/// Every experiment as a harness job at one worker, in paper order; then
/// the scorecard and the `--explain` sweep.
fn repro_full(reference: &Reference, spans: &Arc<Spans>, root: SpanId, out: &mut Outcome) {
    let policy = HarnessPolicy {
        workers: 1,
        ..HarnessPolicy::default()
    };
    let harness = spans.begin("harness", root);
    let jobs = EXPERIMENTS
        .iter()
        .map(|&id| {
            let spans = Arc::clone(spans);
            Job::new(id, move |_ctx| {
                spans.scope(format!("exp:{id}"), harness, |_| run_experiment(id))
            })
        })
        .collect();
    let report = Harness::new(policy.clone()).run(jobs);
    spans.end(harness);
    match report {
        Ok(report) => {
            for r in &report.results {
                out.add("harness.jobs", 1.0);
                out.add("harness.attempts", f64::from(r.attempts));
                out.add(
                    "harness.failed",
                    f64::from(u8::from(r.status != JobStatus::Succeeded)),
                );
                let got = r.output.as_deref().map(digest::text);
                if let Some(d) = got {
                    out.digests.push(format!("exp {} {d:016x}", r.id));
                }
                let ok = got.is_some() && got == reference.experiments.get(&r.id).copied();
                out.check(ok, &format!("experiment {} ({})", r.id, r.status.label()));
            }
        }
        Err(e) => {
            for id in EXPERIMENTS {
                out.check(false, &format!("experiment {id}: harness error {e}"));
            }
        }
    }

    let entries = spans.scope("scorecard", root, |_| scorecard(false));
    let divergent = entries.iter().filter(|e| e.verdict == "divergent").count();
    let rel: Vec<f64> = entries
        .iter()
        .filter(|e| e.paper != 0.0)
        .map(|e| (e.measured - e.paper).abs() / e.paper.abs())
        .collect();
    out.add("bench.scorecard_divergent", divergent as f64);
    out.add(
        "bench.scorecard_mean_rel_err",
        rel.iter().sum::<f64>() / rel.len().max(1) as f64,
    );
    if let Some(want) = &reference.scorecard {
        out.check(
            &scorecard_of(&entries) == want,
            "scorecard vs committed BENCH_repro.json",
        );
    }

    let explained = spans.scope("explain", root, |_| {
        explain_sweep(false, policy, &Profiler::disabled())
    });
    let got: Vec<String> = match explained {
        Ok((records, _)) => records.iter().map(|r| r.to_json_value().render()).collect(),
        Err(e) => {
            eprintln!("perfbench: explain sweep: {e}");
            Vec::new()
        }
    };
    for (i, want) in reference.explain.iter().enumerate() {
        out.check(
            got.get(i) == Some(want),
            &format!("explain record {i} vs committed BENCH_explain.json"),
        );
    }
}

/// Scorecard rows rendered as in `repro --json`.
fn scorecard_of(entries: &[ScorecardEntry]) -> Vec<String> {
    scorecard_rows(&to_json(entries)).expect("repro --json always has a scorecard array")
}

/// Run every input through the three modes with `tracer` attached,
/// checking each report. Returns the paper inputs' scorecard metrics.
fn sweep(
    p: Prepared,
    tracer: &Tracer,
    reference: &Reference,
    spans: &Spans,
    root: SpanId,
    out: &mut Outcome,
) -> Vec<KernelMetrics> {
    let engine = OffloadEngine::new().with_tracer(tracer);
    let mut paper = Vec::new();
    for mut input in p.inputs {
        let slug = inputs::slug(input.kernel);
        let family = if input.label == "paper" {
            "paper"
        } else {
            p.family.as_str()
        };
        let key = run_key(family, &slug, &input.label);
        let want = reference.runs.get(&key);
        let mut reports: Vec<RunReport> = Vec::with_capacity(3);
        let mut digests = Vec::with_capacity(3);
        for (i, mode) in ExecutionMode::ALL.into_iter().enumerate() {
            let m = mode_slug(mode);
            let res = spans.scope(format!("core:{slug}:{m}:{}", input.label), root, |_| {
                engine.try_run(input.instance.as_mut(), mode)
            });
            match res {
                Ok(r) => {
                    let d = digest::report(&r);
                    out.check(want.map(|w| w[i]) == Some(d), &format!("{key} {m}"));
                    count_work(&slug, &r, out);
                    reports.push(r);
                    digests.push(format!("{d:016x}"));
                }
                Err(e) => out.check(false, &format!("{key} {m}: {e}")),
            }
        }
        if let [cpu, core, acc] = reports.as_slice() {
            out.digests.push(format!("run {key} {}", digests.join(" ")));
            if input.label == "paper" {
                paper.push(KernelMetrics::from_reports(
                    input.kernel,
                    input.kind,
                    cpu,
                    core,
                    acc,
                ));
            }
        }
    }
    paper
}

/// Exact work counts of one run, summed per kernel.
fn count_work(slug: &str, r: &RunReport, out: &mut Outcome) {
    let a = &r.activity;
    out.add(format!("core.instructions.{slug}"), r.instructions as f64);
    out.add(format!("memsim.l1_accesses.{slug}"), a.l1_accesses as f64);
    out.add(format!("memsim.llc_accesses.{slug}"), a.llc_accesses as f64);
    out.add(
        format!("memsim.memctrl_requests.{slug}"),
        a.memctrl_requests as f64,
    );
    out.add(format!("memsim.dram_bytes.{slug}"), a.dram_bytes() as f64);
    out.add("core.instructions", r.instructions as f64);
    out.add(
        "core.sim_accesses",
        (a.l1_accesses + a.llc_accesses + a.memctrl_requests) as f64,
    );
}

/// Export the trace as `repro --trace` does and check its event count.
fn traced_export(
    tracer: &Tracer,
    reference: &Reference,
    spans: &Spans,
    root: SpanId,
    out: &mut Outcome,
) {
    let events = tracer.event_count() as u64;
    let dropped = tracer.dropped_events();
    let bytes = spans.scope("trace:export", root, |_| {
        let chrome = tracer.chrome_trace();
        let metrics = tracer.metrics().to_json();
        chrome.len() + metrics.len()
    });
    out.add("trace.events", events as f64);
    out.add("trace.dropped_events", dropped as f64);
    out.add("trace.export_bytes", bytes as f64);
    out.digests.push(format!("trace-events {events}"));
    out.check(
        reference.trace_events == Some(events) && dropped == 0,
        &format!("trace recorded {events} events ({dropped} dropped)"),
    );
}
