//! Sweep jobs for the supervised harness behind `repro`.
//!
//! Every unit of sweep work — one kernel measured across the three study
//! modes, or one experiment regenerated — is packaged as a
//! [`pim_harness::Job`] so the repro CLI gets panic isolation, watchdog
//! supervision, retry/quarantine policy and journal-based resume for
//! free. Jobs communicate through their payload *strings* (see
//! [`KernelMetrics::to_line`]): a result restored from a resume journal
//! is byte-identical to one computed in-process, which is what makes
//! resumed scorecards bit-identical to uninterrupted ones.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pim_core::{
    DmpimError, ExecutionMode, Kernel, OffloadEngine, OpMix, PimTargetKind, ResiliencePolicy,
    SimContext, Tracer, Watchdog,
};
use pim_harness::{Harness, HarnessError, HarnessPolicy, Job, SweepReport};
use pim_obs::Profiler;
use pim_vp9::driver::{MotionEstimationKernel, SubPixelInterpolationKernel};

use crate::runs::RunStore;
use crate::scorecard::{
    entries_from_metrics, metrics_from_shards, KernelMetrics, ModeShard, ScorecardEntry,
};

/// A capture-free kernel constructor. Plain `fn` pointers (not boxed
/// closures) so a catalog entry is trivially `Send + Sync` and can be
/// moved into retried job attempts.
pub type KernelFactory = fn() -> Box<dyn Kernel>;

/// Every PIM-target kernel with its workload: name, paper target, and a
/// factory building a fresh kernel instance per job attempt. `smoke`
/// swaps the paper-scale inputs for two small kernels (tests and the
/// harness selftest).
pub fn kernel_catalog(smoke: bool) -> Vec<(&'static str, PimTargetKind, KernelFactory)> {
    use pim_chrome::lzo::{CompressionKernel, DecompressionKernel};
    use pim_chrome::tiling::TextureTilingKernel;
    use pim_chrome::ColorBlittingKernel;
    use pim_vp9::driver::{
        DeblockingFilterKernel, MotionEstimationKernel, SubPixelInterpolationKernel,
    };
    if smoke {
        return vec![
            ("texture tiling", PimTargetKind::TextureTiling, || {
                Box::new(TextureTilingKernel::new(128, 128, 1))
            }),
            ("color blitting", PimTargetKind::ColorBlitting, || {
                Box::new(ColorBlittingKernel::new(vec![32, 64], 128, 1))
            }),
        ];
    }
    vec![
        ("texture tiling", PimTargetKind::TextureTiling, || {
            Box::new(TextureTilingKernel::paper_input())
        }),
        ("color blitting", PimTargetKind::ColorBlitting, || {
            Box::new(ColorBlittingKernel::paper_input())
        }),
        ("compression", PimTargetKind::Compression, || Box::new(CompressionKernel::paper_input())),
        ("decompression", PimTargetKind::Compression, || {
            Box::new(DecompressionKernel::paper_input())
        }),
        ("packing", PimTargetKind::Packing, || {
            Box::new(pim_tfmobile::pack::PackingKernel::paper_input())
        }),
        ("quantization", PimTargetKind::Quantization, || {
            Box::new(pim_tfmobile::quantize::QuantizationKernel::paper_input())
        }),
        ("sub-pixel interpolation", PimTargetKind::SubPixelInterpolation, || {
            Box::new(SubPixelInterpolationKernel::paper_input())
        }),
        ("deblocking filter", PimTargetKind::DeblockingFilter, || {
            Box::new(DeblockingFilterKernel::paper_input())
        }),
        ("motion estimation", PimTargetKind::MotionEstimation, || {
            Box::new(MotionEstimationKernel::paper_input())
        }),
    ]
}

/// Run one kernel through the three study modes (CPU-only, PIM-Core,
/// PIM-Acc) and encode the scorecard measurements as a journal line.
fn measure(
    name: &'static str,
    kind: PimTargetKind,
    factory: KernelFactory,
    tracer: &Tracer,
    watchdog: Watchdog,
) -> Result<String, DmpimError> {
    let engine = OffloadEngine::new().with_tracer(tracer).with_watchdog(watchdog);
    let mut kernel = factory();
    let cpu = engine.try_run(kernel.as_mut(), ExecutionMode::CpuOnly)?;
    let core = engine.try_run(kernel.as_mut(), ExecutionMode::PimCore)?;
    let acc = engine.try_run(kernel.as_mut(), ExecutionMode::PimAcc)?;
    Ok(KernelMetrics::from_reports(name, kind, &cpu, &core, &acc).to_line())
}

/// Measure one catalog kernel by name through the three study modes —
/// the `pim-serve` resolver entry point for `kernel:<name>` specs.
///
/// # Errors
///
/// `DmpimError::UnknownExperiment` for a name not in the catalog;
/// otherwise whatever the simulation itself raises.
pub fn measure_kernel(
    name: &str,
    smoke: bool,
    tracer: &Tracer,
    watchdog: Watchdog,
) -> Result<String, DmpimError> {
    let (n, kind, factory) = kernel_catalog(smoke)
        .into_iter()
        .find(|(n, ..)| *n == name)
        .ok_or_else(|| DmpimError::UnknownExperiment { id: format!("kernel:{name}") })?;
    measure(n, kind, factory, tracer, watchdog)
}

/// Shared sink for per-attempt wall times. Timing lives *outside* the
/// job payloads and the resume journal on purpose: journal lines (and
/// thus merged [`pim_harness::JobResult`]s) stay bit-identical across
/// runs, while timing — which never is — travels on the side. Every
/// attempt pushes its own entry (retried and failed attempts included),
/// so a retried job's abandoned wall time is visible instead of silently
/// replaced. Jobs restored from a resume journal simply have no entry.
pub type JobTimings = Arc<Mutex<Vec<(String, u64)>>>;

/// Wrap a job body so each attempt's wall time lands in `timings` —
/// success or failure — under the job's name.
pub fn timed_job<F>(name: impl Into<String>, timings: Option<JobTimings>, body: F) -> Job
where
    F: Fn(&pim_harness::JobCtx) -> Result<String, DmpimError> + Send + Sync + 'static,
{
    let name = name.into();
    Job::new(name.clone(), move |ctx| {
        let t0 = Instant::now();
        let out = body(ctx);
        if let Some(sink) = &timings {
            if let Ok(mut v) = sink.lock() {
                v.push((name.clone(), t0.elapsed().as_millis() as u64));
            }
        }
        out
    })
}

/// Kernels whose three study modes run as separate harness shard jobs
/// (the two big video kernels: together ~80% of an unsharded sweep's
/// wall time, so mode-level shards are what lets `--jobs N` shorten the
/// critical path). Their compute caches are shared across the shards,
/// so the pure pixel work still happens once per sweep.
pub const SHARDED_KERNELS: [&str; 2] = ["sub-pixel interpolation", "motion estimation"];

/// Job id of one study-mode shard: `<kernel>@<mode label>`.
pub fn shard_job_id(name: &str, mode: ExecutionMode) -> String {
    format!("{name}@{}", mode.label())
}

/// Measure one study mode of `kernel` and encode it as a shard line.
fn measure_mode(
    name: &str,
    kind: PimTargetKind,
    kernel: &mut dyn Kernel,
    mode: ExecutionMode,
    tracer: &Tracer,
    watchdog: Watchdog,
) -> Result<String, DmpimError> {
    let engine = OffloadEngine::new().with_tracer(tracer).with_watchdog(watchdog);
    let report = engine.try_run(kernel, mode)?;
    Ok(ModeShard::from_report(name, kind, &report).to_line())
}

/// Three shard jobs (one per study mode) for a kernel whose clones share
/// a compute cache. Every shard (and every retried attempt) clones the
/// same prototype, so whichever runs first computes the pure pixel work
/// and the rest reuse it — the simulated replay stays per-mode and is
/// bit-identical to running the three modes inside one job.
fn sharded_kernel_jobs<K>(
    name: &'static str,
    kind: PimTargetKind,
    proto: K,
    timings: Option<JobTimings>,
) -> Vec<Job>
where
    K: Kernel + Clone + Send + Sync + 'static,
{
    ExecutionMode::ALL
        .into_iter()
        .map(|mode| {
            let proto = proto.clone();
            timed_job(shard_job_id(name, mode), timings.clone(), move |ctx| {
                let mut kernel = proto.clone();
                measure_mode(name, kind, &mut kernel, mode, &ctx.tracer, ctx.watchdog)
            })
        })
        .collect()
}

fn metrics_jobs_timed(smoke: bool, timings: Option<JobTimings>) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (name, kind, factory) in kernel_catalog(smoke) {
        match name {
            "sub-pixel interpolation" => jobs.extend(sharded_kernel_jobs(
                name,
                kind,
                SubPixelInterpolationKernel::paper_input(),
                timings.clone(),
            )),
            "motion estimation" => jobs.extend(sharded_kernel_jobs(
                name,
                kind,
                MotionEstimationKernel::paper_input(),
                timings.clone(),
            )),
            _ => jobs.push(timed_job(name, timings.clone(), move |ctx| {
                measure(name, kind, factory, &ctx.tracer, ctx.watchdog)
            })),
        }
    }
    jobs
}

/// Fold sweep payload lines — plain [`KernelMetrics`] lines and per-mode
/// [`ModeShard`] lines — into kernel metrics, in catalog (`order`)
/// position. A sharded kernel contributes only when all three of its
/// mode shards are present: a failed shard degrades to a missing kernel,
/// exactly like a failed unsharded job. Keying by catalog order (not
/// result order) makes the merge independent of worker scheduling.
pub fn merge_metric_lines<'a>(
    order: &[&str],
    lines: impl IntoIterator<Item = &'a str>,
) -> Vec<KernelMetrics> {
    let mut plain: Vec<KernelMetrics> = Vec::new();
    let mut shards: Vec<ModeShard> = Vec::new();
    for line in lines {
        if let Some(s) = ModeShard::parse(line) {
            shards.push(s);
        } else if let Some(m) = KernelMetrics::parse(line) {
            plain.push(m);
        }
    }
    order
        .iter()
        .filter_map(|&name| {
            if let Some(m) = plain.iter().find(|m| m.name == name) {
                return Some(m.clone());
            }
            let find = |mode| shards.iter().find(|s| s.name == name && s.mode == mode);
            match (
                find(ExecutionMode::CpuOnly),
                find(ExecutionMode::PimCore),
                find(ExecutionMode::PimAcc),
            ) {
                (Some(cpu), Some(core), Some(acc)) => Some(metrics_from_shards(cpu, core, acc)),
                _ => None,
            }
        })
        .collect()
}

/// Fold per-attempt timings into per-job `(id, total_ms, attempts)`
/// aggregates, preserving first-seen order.
pub fn aggregate_timings(timings: &[(String, u64)]) -> Vec<(String, u64, u64)> {
    let mut out: Vec<(String, u64, u64)> = Vec::new();
    for (name, ms) in timings {
        if let Some(slot) = out.iter_mut().find(|(n, ..)| n == name) {
            slot.1 += ms;
            slot.2 += 1;
        } else {
            out.push((name.clone(), *ms, 1));
        }
    }
    out
}

/// One measurement job per catalog kernel.
pub fn metrics_jobs(smoke: bool) -> Vec<Job> {
    metrics_jobs_timed(smoke, None)
}

/// The scorecard measurements as a view over `store`'s study-mode runs
/// (bit-identical to a harness/resume run: journal lines round-trip
/// every `f64` exactly).
pub(crate) fn collect_metrics(store: &RunStore, smoke: bool) -> Vec<KernelMetrics> {
    kernel_catalog(smoke)
        .into_iter()
        .filter_map(|(name, kind, _)| {
            let r = store.kernel_runs(name, smoke).ok()?;
            Some(KernelMetrics::from_reports(name, kind, &r[0], &r[1], &r[2]))
        })
        .collect()
}

/// Result of [`scorecard_sweep`]: the merged scorecard entries, the
/// harness failure report, and per-job wall times in `(id, ms)` form.
pub type SweepOutcome = (Vec<ScorecardEntry>, SweepReport, Vec<(String, u64)>);

/// Run the scorecard sweep through the harness: one job per kernel,
/// optional journal/resume, merged back into scorecard entries plus the
/// harness's failure report. Jobs whose measurement failed (panic,
/// timeout, invalid config) are reported in the [`SweepReport`] and
/// simply absent from the aggregation.
pub fn scorecard_sweep(
    smoke: bool,
    policy: HarnessPolicy,
    journal: Option<&Path>,
    resume: bool,
) -> Result<SweepOutcome, HarnessError> {
    let mut harness = Harness::new(policy);
    if let Some(path) = journal {
        harness = if resume { harness.resume_from(path) } else { harness.with_journal(path) };
    }
    let timings: JobTimings = Arc::new(Mutex::new(Vec::new()));
    let report = harness.run(metrics_jobs_timed(smoke, Some(timings.clone())))?;
    let order: Vec<&str> = kernel_catalog(smoke).into_iter().map(|(n, ..)| n).collect();
    let metrics =
        merge_metric_lines(&order, report.results.iter().filter_map(|r| r.output.as_deref()));
    let timings = timings.lock().map(|v| v.clone()).unwrap_or_default();
    Ok((entries_from_metrics(&metrics), report, timings))
}

/// One job per experiment id, for the default `repro` run. Each job's
/// payload is the experiment's full text report, and its wall time lands
/// in `profiler` under `experiment/<id>`.
pub fn experiment_jobs(profiler: &Profiler) -> Vec<Job> {
    crate::EXPERIMENTS
        .iter()
        .map(|&id| {
            let profiler = profiler.clone();
            Job::new(id, move |_ctx| {
                let _scope = profiler.scope(&format!("experiment/{id}"));
                crate::run_experiment(id)
            })
        })
        .collect()
}

/// A deliberately hung simulation: spins until a watchdog poisons the
/// context. Unsupervised, this kernel never terminates — which is
/// exactly what the harness selftest needs to prove supervision works.
struct RunawayKernel;

impl Kernel for RunawayKernel {
    fn name(&self) -> &'static str {
        "runaway"
    }

    fn run(&mut self, ctx: &mut SimContext) {
        while !ctx.is_poisoned() {
            ctx.ops(OpMix::scalar(64));
        }
    }
}

/// The `repro --selftest-harness` sweep: two real kernel measurements
/// plus one panicking job and one hung simulation. Returns the report
/// and any deviations from the expected disposition (empty = pass).
pub fn selftest(workers: usize) -> Result<(SweepReport, Vec<String>), HarnessError> {
    let policy = HarnessPolicy {
        workers: workers.max(1),
        max_retries: 1,
        quarantine_strikes: 2,
        retry_backoff: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(8),
        wall_deadline: None,
        // Generous enough for the smoke kernels, but the runaway kernel
        // burns host events forever and trips it within milliseconds.
        watchdog: Watchdog::new(u64::MAX, 2_000_000),
        ..Default::default()
    };
    let mut jobs = metrics_jobs(true);
    jobs.push(Job::new("panicker", |_ctx| -> Result<String, DmpimError> {
        panic!("injected selftest panic");
    }));
    jobs.push(Job::new("runaway", |ctx| {
        let engine = OffloadEngine::new().with_watchdog(ctx.watchdog).with_resilience(
            ResiliencePolicy { max_retries: 0, allow_fallback: false, ..Default::default() },
        );
        let mut kernel = RunawayKernel;
        engine.try_run(&mut kernel, ExecutionMode::CpuOnly)?;
        Ok("unreachable".to_string())
    }));
    let report = Harness::new(policy).run(jobs)?;

    let summary = report.summary();
    let mut mismatches = Vec::new();
    for (what, got, want) in [
        ("succeeded", summary.succeeded, 2),
        ("failed", summary.failed, 1),
        ("quarantined", summary.quarantined, 1),
    ] {
        if got != want {
            mismatches.push(format!("expected {want} {what} job(s), got {got}"));
        }
    }
    for (label, want) in [("panic", 1), ("watchdog-timeout", 1)] {
        let got = summary.taxonomy.get(label).copied().unwrap_or(0);
        if got != want {
            mismatches.push(format!("expected taxonomy {label}={want}, got {got}"));
        }
    }
    Ok((report, mismatches))
}

#[cfg(test)]
mod tests {
    use pim_harness::JobStatus;

    use super::*;

    #[test]
    fn catalog_covers_all_nine_targets_at_paper_scale() {
        assert_eq!(kernel_catalog(false).len(), 9);
        assert_eq!(kernel_catalog(true).len(), 2);
        // Seven unsharded kernels plus three mode shards for each of the
        // two sharded ones.
        assert_eq!(metrics_jobs(false).len(), 13);
        let ids: Vec<String> = metrics_jobs(false).iter().map(|j| j.id.clone()).collect();
        for name in SHARDED_KERNELS {
            for mode in ExecutionMode::ALL {
                assert!(ids.contains(&shard_job_id(name, mode)), "{name}/{mode:?}");
            }
            assert!(!ids.contains(&name.to_string()), "{name} must not also run unsharded");
        }
    }

    #[test]
    fn sharded_mode_jobs_merge_bit_identical_to_one_job_measurement() {
        // Unsharded reference: all three modes measured inside one job,
        // exactly as `measure` does.
        let tracer = Tracer::default();
        let engine = OffloadEngine::new().with_tracer(&tracer);
        let mut k = MotionEstimationKernel::small();
        let cpu = engine.try_run(&mut k, ExecutionMode::CpuOnly).unwrap();
        let core = engine.try_run(&mut k, ExecutionMode::PimCore).unwrap();
        let acc = engine.try_run(&mut k, ExecutionMode::PimAcc).unwrap();
        let want = KernelMetrics::from_reports(
            "motion estimation",
            pim_core::PimTargetKind::MotionEstimation,
            &cpu,
            &core,
            &acc,
        );

        for workers in [1, 3] {
            let jobs = sharded_kernel_jobs(
                "motion estimation",
                pim_core::PimTargetKind::MotionEstimation,
                MotionEstimationKernel::small(),
                None,
            );
            let policy = HarnessPolicy { workers, ..Default::default() };
            let report = Harness::new(policy).run(jobs).unwrap();
            assert!(report.all_ok(), "{:?}", report.summary());
            let merged = merge_metric_lines(
                &["motion estimation"],
                report.results.iter().filter_map(|r| r.output.as_deref()),
            );
            assert_eq!(merged.len(), 1, "workers={workers}");
            let m = &merged[0];
            assert_eq!(m.name, want.name);
            assert_eq!(m.dm.to_bits(), want.dm.to_bits(), "workers={workers}");
            assert_eq!(m.core_cut.to_bits(), want.core_cut.to_bits(), "workers={workers}");
            assert_eq!(m.acc_cut.to_bits(), want.acc_cut.to_bits(), "workers={workers}");
            assert_eq!(m.acc_speed.to_bits(), want.acc_speed.to_bits(), "workers={workers}");
        }
    }

    #[test]
    fn merge_requires_all_three_shards_and_keeps_catalog_order() {
        let shard = |name: &str, mode: ExecutionMode| {
            ModeShard {
                name: name.to_string(),
                kind: pim_core::PimTargetKind::MotionEstimation,
                mode,
                total_pj: 100.0,
                runtime_ps: 10,
                dm: 0.5,
            }
            .to_line()
        };
        // Two of three shards: the kernel is absent, like a failed job.
        let partial = [shard("me", ExecutionMode::CpuOnly), shard("me", ExecutionMode::PimAcc)];
        assert!(merge_metric_lines(&["me"], partial.iter().map(String::as_str)).is_empty());
        // Full set plus a plain line, delivered out of catalog order: the
        // output follows the catalog, not the result stream.
        let plain = KernelMetrics {
            name: "tiling".to_string(),
            kind: pim_core::PimTargetKind::TextureTiling,
            dm: 0.8,
            core_cut: 0.5,
            acc_cut: 0.6,
            acc_speed: 1.4,
        };
        let lines = [
            shard("me", ExecutionMode::PimAcc),
            plain.to_line(),
            shard("me", ExecutionMode::CpuOnly),
            shard("me", ExecutionMode::PimCore),
        ];
        let merged = merge_metric_lines(&["tiling", "me"], lines.iter().map(String::as_str));
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].name, "tiling");
        assert_eq!(merged[1].name, "me");
        assert_eq!(merged[1].acc_speed, 1.0);
    }

    #[test]
    fn metric_lines_round_trip() {
        let tracer = Tracer::default();
        for (name, kind, factory) in kernel_catalog(true) {
            let line = measure(name, kind, factory, &tracer, Watchdog::unlimited()).unwrap();
            let m = KernelMetrics::parse(&line).expect("line parses");
            assert_eq!(m.name, name);
            assert_eq!(m.kind, kind);
            assert_eq!(m.to_line(), line, "shortest-roundtrip f64 must be stable");
        }
    }

    #[test]
    fn harness_sweep_matches_in_process_scorecard() {
        let (entries, report, timings) =
            scorecard_sweep(true, HarnessPolicy { workers: 2, ..Default::default() }, None, false)
                .unwrap();
        assert!(report.all_ok(), "{:?}", report.summary());
        assert_eq!(timings.len(), kernel_catalog(true).len(), "one timing per fresh job");
        let direct = crate::scorecard::scorecard(true);
        assert_eq!(entries.len(), direct.len());
        for (a, b) in entries.iter().zip(&direct) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.quantity, b.quantity);
            assert_eq!(a.measured.to_bits(), b.measured.to_bits(), "{}/{}", a.id, a.quantity);
        }
    }

    #[test]
    fn timings_record_every_attempt_including_failures() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        use pim_core::FaultKind;

        let timings: JobTimings = Arc::new(Mutex::new(Vec::new()));
        let tries = Arc::new(AtomicUsize::new(0));
        let t = Arc::clone(&tries);
        let job = timed_job("flaky", Some(Arc::clone(&timings)), move |_ctx| {
            if t.fetch_add(1, Ordering::SeqCst) == 0 {
                Err(DmpimError::FaultTransient { kind: FaultKind::BitFlip, at_ps: 1 })
            } else {
                Ok("done".to_string())
            }
        });
        let policy = HarnessPolicy {
            max_retries: 2,
            retry_backoff: Duration::from_millis(1),
            ..Default::default()
        };
        let report = Harness::new(policy).run(vec![job]).unwrap();
        assert!(report.all_ok(), "{:?}", report.summary());
        let v = timings.lock().unwrap();
        assert_eq!(v.len(), 2, "one timing entry per attempt, failures included: {v:?}");
        assert!(v.iter().all(|(n, _)| n == "flaky"), "{v:?}");
        let agg = aggregate_timings(&v);
        assert_eq!(agg.len(), 1);
        assert_eq!(agg[0].0, "flaky");
        assert_eq!(agg[0].2, 2, "aggregate counts both attempts");
    }

    #[test]
    fn selftest_isolates_panic_and_quarantines_runaway() {
        let (report, mismatches) = selftest(2).unwrap();
        assert!(mismatches.is_empty(), "{mismatches:?}");
        let runaway = report.results.iter().find(|r| r.id == "runaway").unwrap();
        assert_eq!(runaway.status, JobStatus::Quarantined);
        assert_eq!(runaway.attempts, 2, "two timeout strikes then quarantine");
        let panicker = report.results.iter().find(|r| r.id == "panicker").unwrap();
        assert_eq!(panicker.status, JobStatus::Failed);
        assert_eq!(panicker.attempts, 1, "panics are deterministic: no retry");
    }
}
