//! The run store: every deterministic workload run once per process.
//!
//! Most of the evaluation views the same simulations. Figures 6 and 7
//! read one set of TensorFlow inference runs, Figures 10 and 11 one 4K
//! decode, and Figures 18 and 20, the headline, the area report, the
//! scorecard and `--explain` all read the nine PIM-target kernels under
//! the study modes. [`RunStore`] memoizes those runs so each is simulated
//! once and every experiment becomes a view over the stored results.
//!
//! A catalog kernel's key is its name plus whether it comes from the
//! smoke catalog (which reuses the name "texture tiling" for a 128×128
//! input). Its slot holds [`KernelRuns`]: the study modes on the default
//! engine, then PIM-Core on a 4-core cluster, all computed on one kernel
//! instance so mode-invariant compute (the VP9 kernels cache it per
//! instance) runs once. The TensorFlow breakdowns and the 4K decode are
//! two more slots. Each slot is one lock held while it fills, so
//! concurrent harness workers compute a key once and never twice. Only
//! `Ok` results are stored, and only results: a failed computation leaves
//! its slot empty for the next attempt, and no kernel outlives the call
//! that built it.
//!
//! A caller with an enabled [`Tracer`] or an armed [`Watchdog`] bypasses
//! the store and simulates, so its trace events and its resilient-path
//! report are real.

use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, PoisonError};

use pim_core::{DmpimError, ExecutionMode, OffloadEngine, RunReport, Tracer, Watchdog};
use pim_obs::Profiler;
use pim_tfmobile::inference::InferenceBreakdown;
use pim_vp9::driver::SwBreakdown;

use crate::jobs::{kernel_catalog, KernelFactory};

/// One catalog kernel's stored runs, in the order they are computed on
/// one instance: CPU-Only, PIM-Core and PIM-Acc on the default engine
/// (Table 1 platforms, a single PIM core), then PIM-Core as a 4-core
/// per-vault cluster (Table 1 provides 16; 4 is a conservative
/// mid-point), as the headline reports it.
pub type KernelRuns = [RunReport; 4];

/// One key's storage, locked while its value is computed.
type Slot<T> = Mutex<Option<T>>;

/// Catalog kernel slots by name and smoke flag.
type KernelSlots = HashMap<(&'static str, bool), Arc<Slot<Arc<KernelRuns>>>>;

/// How many key lookups computed a run and how many reused one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Keys computed (each key at most once per store).
    pub computed: u64,
    /// Lookups served from a stored result.
    pub reused: u64,
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "runs: computed={} reused={}", self.computed, self.reused)
    }
}

/// A thread-safe memo of deterministic workload runs (see the module
/// docs). [`global`] is the process-wide instance the experiments read.
#[derive(Default)]
pub struct RunStore {
    kernels: Mutex<KernelSlots>,
    tf_inference: Slot<Vec<InferenceBreakdown>>,
    decode_4k: Slot<SwBreakdown>,
    computed: AtomicU64,
    reused: AtomicU64,
    profiler: Mutex<Profiler>,
}

/// The process-wide store behind every experiment, the scorecard and
/// `--explain`.
pub fn global() -> Arc<RunStore> {
    static GLOBAL: LazyLock<Arc<RunStore>> = LazyLock::new(Arc::default);
    Arc::clone(&GLOBAL)
}

/// The catalog entry named `name`.
fn catalog_entry(name: &str, smoke: bool) -> Result<(&'static str, KernelFactory), DmpimError> {
    kernel_catalog(smoke)
        .into_iter()
        .find(|(n, ..)| *n == name)
        .map(|(n, _, factory)| (n, factory))
        .ok_or_else(|| DmpimError::UnknownExperiment { id: format!("kernel:{name}") })
}

impl RunStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Time each computation under `runs/compute/<key>` in `profiler`.
    pub fn set_profiler(&self, profiler: &Profiler) {
        *self.profiler.lock().unwrap_or_else(PoisonError::into_inner) = profiler.clone();
    }

    /// Lookup counts so far.
    pub fn stats(&self) -> RunStats {
        RunStats {
            computed: self.computed.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
        }
    }

    /// Catalog kernel `name`'s [`KernelRuns`], computed on the first
    /// lookup and read from the store after it.
    ///
    /// # Errors
    ///
    /// `DmpimError::UnknownExperiment` for a name not in the catalog;
    /// otherwise whatever the simulation raises.
    pub fn kernel_runs(&self, name: &str, smoke: bool) -> Result<Arc<KernelRuns>, DmpimError> {
        let (name, factory) = catalog_entry(name, smoke)?;
        let slot = {
            let mut map = self.kernels.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(map.entry((name, smoke)).or_default())
        };
        let key = if smoke { format!("smoke:{name}") } else { name.to_string() };
        self.fill(&key, &slot, || {
            let engine = OffloadEngine::new();
            let cluster = OffloadEngine::new().with_pim_cluster(4);
            let mut kernel = factory();
            let k = kernel.as_mut();
            Ok(Arc::new([
                engine.try_run(k, ExecutionMode::CpuOnly)?,
                engine.try_run(k, ExecutionMode::PimCore)?,
                engine.try_run(k, ExecutionMode::PimAcc)?,
                cluster.try_run(k, ExecutionMode::PimCore)?,
            ]))
        })
    }

    /// Catalog kernel `name`'s three study-mode runs for a caller with
    /// its own `tracer` and `watchdog`. An enabled tracer or an armed
    /// watchdog bypasses the store: the study modes are simulated on a
    /// fresh instance with them attached, and nothing is stored.
    /// Otherwise the runs are the first three of [`Self::kernel_runs`].
    ///
    /// # Errors
    ///
    /// As [`Self::kernel_runs`].
    pub fn study_runs_with(
        &self,
        name: &str,
        smoke: bool,
        tracer: &Tracer,
        watchdog: Watchdog,
    ) -> Result<Vec<RunReport>, DmpimError> {
        if tracer.enabled() || watchdog.is_armed() {
            let (_, factory) = catalog_entry(name, smoke)?;
            let engine = OffloadEngine::new().with_tracer(tracer).with_watchdog(watchdog);
            let mut kernel = factory();
            return ExecutionMode::ALL.iter().map(|&m| engine.try_run(kernel.as_mut(), m)).collect();
        }
        Ok(self.kernel_runs(name, smoke)?[..3].to_vec())
    }

    /// The Figure 6/7 inference breakdowns, one per network.
    pub fn tf_inference(&self) -> Vec<InferenceBreakdown> {
        let Ok(v) = self.fill("tf-inference", &self.tf_inference, || {
            Ok::<_, Infallible>(crate::tf_exp::breakdowns())
        });
        v
    }

    /// The Figure 10/11 software decode of 4K frames.
    ///
    /// # Errors
    ///
    /// Whatever the decode raises; a failure is not stored.
    pub fn decode_4k(&self) -> Result<SwBreakdown, DmpimError> {
        self.fill("decode-4k", &self.decode_4k, crate::video_exp::decode_breakdown)
    }

    /// Read `slot`, computing it with `compute` under a
    /// `runs/compute/<key>` scope if it is empty. The slot stays locked
    /// while it fills, so concurrent lookups wait for one computation; an
    /// error leaves it empty.
    fn fill<T: Clone, E>(
        &self,
        key: &str,
        slot: &Slot<T>,
        compute: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        let mut value = slot.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(v) = value.as_ref() {
            self.reused.fetch_add(1, Ordering::Relaxed);
            return Ok(v.clone());
        }
        let profiler = self.profiler.lock().unwrap_or_else(PoisonError::into_inner).clone();
        let v = {
            let _scope = profiler.scope(&format!("runs/compute/{key}"));
            compute()?
        };
        self.computed.fetch_add(1, Ordering::Relaxed);
        Ok(value.insert(v).clone())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    use pim_core::FaultKind;
    use pim_harness::{Harness, HarnessPolicy, Job, SweepReport};
    use pim_obs::ExplainRecord;

    use super::*;
    use crate::explain::{explain_sweep_in, record_from_report};
    use crate::jobs::collect_metrics;
    use crate::scorecard::{entries_from_metrics, KernelMetrics, ScorecardEntry};

    /// A fresh, untraced simulation of one kernel's study modes.
    fn fresh(name: &str) -> Vec<RunReport> {
        let (_, factory) = catalog_entry(name, true).unwrap();
        let engine = OffloadEngine::new();
        let mut k = factory();
        ExecutionMode::ALL.iter().map(|&m| engine.try_run(k.as_mut(), m).unwrap()).collect()
    }

    fn smoke_kernels() -> usize {
        kernel_catalog(true).len()
    }

    /// Whether catalog kernel `(name, smoke)` holds results in `store`.
    fn stored(store: &RunStore, name: &'static str, smoke: bool) -> bool {
        let map = store.kernels.lock().unwrap();
        map.get(&(name, smoke)).is_some_and(|s| s.lock().unwrap().is_some())
    }

    /// Scorecard entries as exact text, floats by their bits.
    fn entry_lines(entries: &[ScorecardEntry]) -> Vec<String> {
        entries
            .iter()
            .map(|e| format!("{}/{}={:x}", e.id, e.quantity, e.measured.to_bits()))
            .collect()
    }

    #[test]
    fn views_match_a_fresh_simulation_byte_for_byte() {
        let store = Arc::new(RunStore::new());
        let got = entries_from_metrics(&collect_metrics(&store, true));
        let want: Vec<KernelMetrics> = kernel_catalog(true)
            .into_iter()
            .map(|(name, kind, _)| {
                let r = fresh(name);
                KernelMetrics::from_reports(name, kind, &r[0], &r[1], &r[2])
            })
            .collect();
        assert_eq!(entry_lines(&got), entry_lines(&entries_from_metrics(&want)));

        let (records, report) =
            explain_sweep_in(&store, true, HarnessPolicy::default(), &Profiler::disabled())
                .unwrap();
        assert!(report.all_ok(), "{:?}", report.summary());
        let got: Vec<String> = records.iter().map(ExplainRecord::to_line).collect();
        let want: Vec<String> = kernel_catalog(true)
            .into_iter()
            .flat_map(|(name, ..)| {
                fresh(name)
                    .iter()
                    .map(|r| record_from_report(name, r).to_line())
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(got, want);
        assert_eq!(store.stats().computed as usize, smoke_kernels(), "the explain view reused");
    }

    /// The scorecard, summary and per-kernel explain views as harness
    /// jobs over one fresh store, at `workers`.
    fn views_at(workers: usize) -> (Arc<RunStore>, SweepReport) {
        let store = Arc::new(RunStore::new());
        let mut jobs = Vec::new();
        let s = Arc::clone(&store);
        jobs.push(Job::new("scorecard", move |_ctx| {
            Ok(entry_lines(&entries_from_metrics(&collect_metrics(&s, true))).join(","))
        }));
        let s = Arc::clone(&store);
        jobs.push(Job::new("summary", move |_ctx| {
            let sweep = crate::summary_exp::sweep(&s, true)?;
            let runtimes: Vec<String> = sweep
                .iter()
                .flat_map(|(_, _, runs)| runs.iter().map(|r| r.runtime_ps.to_string()))
                .collect();
            Ok(runtimes.join(","))
        }));
        for (name, ..) in kernel_catalog(true) {
            let s = Arc::clone(&store);
            jobs.push(Job::new(format!("explain:{name}"), move |ctx| {
                let runs = s.study_runs_with(name, true, &ctx.tracer, ctx.watchdog)?;
                let lines: Vec<String> =
                    runs.iter().map(|r| record_from_report(name, r).to_line()).collect();
                Ok(lines.join(";"))
            }));
        }
        let report =
            Harness::new(HarnessPolicy { workers, ..Default::default() }).run(jobs).unwrap();
        assert!(report.all_ok(), "workers={workers}: {:?}", report.summary());
        (store, report)
    }

    #[test]
    fn each_key_is_computed_once_across_views_at_any_worker_count() {
        let mut outputs = Vec::new();
        for workers in [1, 2] {
            let (store, report) = views_at(workers);
            let stats = store.stats();
            assert_eq!(stats.computed as usize, smoke_kernels(), "workers={workers}");
            // Each view looks up every kernel once: the scorecard and the
            // summary sweep walk the catalog, the explain jobs take one
            // kernel each.
            let lookups = 3 * smoke_kernels();
            assert_eq!((stats.computed + stats.reused) as usize, lookups, "workers={workers}");
            for (name, ..) in kernel_catalog(true) {
                assert!(stored(&store, name, true), "workers={workers}: {name}");
            }
            let out: Vec<(String, Option<String>)> =
                report.results.into_iter().map(|r| (r.id, r.output)).collect();
            outputs.push(out);
        }
        assert_eq!(outputs[0], outputs[1], "views must not depend on the worker count");
    }

    #[test]
    fn smoke_and_paper_keys_never_alias() {
        let store = RunStore::new();
        let runs = store.kernel_runs("texture tiling", true).unwrap();
        assert!(stored(&store, "texture tiling", true));
        assert!(!stored(&store, "texture tiling", false), "a paper lookup must not see smoke runs");
        // The cluster run is its own result, not the single-core one.
        assert_eq!((runs[1].mode, runs[3].mode), (ExecutionMode::PimCore, ExecutionMode::PimCore));
        assert_ne!(runs[1].runtime_ps, runs[3].runtime_ps);
    }

    #[test]
    fn traced_and_watched_callers_bypass_the_store() {
        let store = RunStore::new();
        let name = "color blitting";
        let want = fresh(name);
        // Warm the store first: a traced caller must still simulate.
        store.kernel_runs(name, true).unwrap();
        let before = store.stats();
        let tracer = Tracer::new();
        let traced = store.study_runs_with(name, true, &tracer, Watchdog::unlimited()).unwrap();
        assert!(tracer.event_count() > 0, "the traced caller's events are real");
        let watched = store
            .study_runs_with(name, true, &Tracer::disabled(), Watchdog::new(u64::MAX, u64::MAX))
            .unwrap();
        assert_eq!(store.stats(), before, "bypassing callers neither compute nor reuse");
        for (got, want) in [traced, watched].iter().flat_map(|v| v.iter().zip(&want)) {
            assert_eq!(got.runtime_ps, want.runtime_ps);
            assert_eq!(got.energy.total_pj().to_bits(), want.energy.total_pj().to_bits());
        }

        let cold = RunStore::new();
        let tracer = Tracer::new();
        cold.study_runs_with(name, true, &tracer, Watchdog::unlimited()).unwrap();
        assert!(tracer.event_count() > 0);
        assert_eq!(cold.stats(), RunStats::default());
        assert!(!stored(&cold, name, true));
    }

    #[test]
    fn failed_computation_is_not_cached() {
        // A harness job whose first attempt fails transiently: the retry
        // must simulate again rather than see a stored failure.
        let shared = Arc::new((RunStore::new(), Slot::<u32>::default(), AtomicUsize::new(0)));
        let job_state = Arc::clone(&shared);
        let job = Job::new("flaky", move |_ctx| {
            let (store, slot, calls) = &*job_state;
            let v = store.fill("flaky", slot, || {
                if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                    Err(DmpimError::FaultTransient { kind: FaultKind::BitFlip, at_ps: 1 })
                } else {
                    Ok(7)
                }
            })?;
            Ok(v.to_string())
        });
        let policy = HarnessPolicy {
            max_retries: 1,
            retry_backoff: Duration::from_millis(1),
            ..Default::default()
        };
        let report = Harness::new(policy).run(vec![job]).unwrap();
        assert!(report.all_ok(), "{:?}", report.summary());
        assert_eq!(report.results[0].attempts, 2);
        assert_eq!(report.results[0].output.as_deref(), Some("7"));
        let (store, slot, calls) = &*shared;
        assert_eq!(calls.load(Ordering::SeqCst), 2, "the retried attempt simulated again");
        assert_eq!(store.stats(), RunStats { computed: 1, reused: 0 }, "failures count as nothing");
        let again = store.fill("flaky", slot, || {
            Err(DmpimError::UnknownExperiment { id: "unreachable".into() })
        });
        assert_eq!(again.unwrap(), 7, "a stored result is reused");
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }
}
