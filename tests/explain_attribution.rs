//! Cross-layer attribution invariants (`repro --explain`), exercised
//! through the public `pim-bench`/`pim-obs` API.
//!
//! Two properties gate the feature: every record's component shares are
//! a true partition of its cost (sum to 1 within 1e-9), and the sweep is
//! bit-identical however many harness workers produce it — attribution
//! must never depend on scheduling.

use pim_bench::explain::{explain_sweep, headline_gap};
use pim_core::Watchdog;
use pim_harness::HarnessPolicy;
use pim_obs::{Profiler, COMPONENT_LABELS};

fn policy(workers: usize) -> HarnessPolicy {
    HarnessPolicy { workers, ..HarnessPolicy::default() }
}

#[test]
fn shares_partition_the_cost_for_every_kernel_and_mode() {
    let profiler = Profiler::disabled();
    let (records, report) = explain_sweep(true, policy(2), &profiler).unwrap();
    assert!(report.summary().all_ok(), "{report:?}");
    assert!(!records.is_empty());
    for r in &records {
        let cs: f64 = r.cycle_shares().iter().sum();
        assert!(
            (cs - 1.0).abs() <= 1e-9,
            "{}/{}: cycle shares sum to {cs}",
            r.kernel,
            r.mode
        );
        let es: f64 = r.energy_shares().iter().sum();
        assert!(
            (es - 1.0).abs() <= 1e-9,
            "{}/{}: energy shares sum to {es}",
            r.kernel,
            r.mode
        );
        // The cycle attribution accounts for the whole modeled runtime.
        let total: f64 = r.cycle_ps.iter().sum();
        assert!(
            total <= r.runtime_ps as f64 * (1.0 + 1e-9) + 1.0,
            "{}/{}: attributed {total} ps exceeds runtime {} ps",
            r.kernel,
            r.mode,
            r.runtime_ps
        );
    }
}

#[test]
fn attribution_is_bit_identical_across_worker_counts() {
    // An armed watchdog that never fires bypasses the process-wide run
    // store, so each sweep simulates its runs rather than reading the
    // other's.
    let profiler = Profiler::disabled();
    let simulated =
        |workers| HarnessPolicy { watchdog: Watchdog::new(u64::MAX, u64::MAX), ..policy(workers) };
    let (serial, _) = explain_sweep(true, simulated(1), &profiler).unwrap();
    let (parallel, _) = explain_sweep(true, simulated(4), &profiler).unwrap();
    let s: Vec<String> = serial.iter().map(|r| r.to_line()).collect();
    let p: Vec<String> = parallel.iter().map(|r| r.to_line()).collect();
    assert_eq!(s, p, "explain records must not depend on worker scheduling");
}

#[test]
fn headline_gap_is_internally_consistent() {
    let profiler = Profiler::disabled();
    let (records, _) = explain_sweep(true, policy(2), &profiler).unwrap();
    let h = headline_gap(&records).expect("smoke catalog has cpu/acc pairs");
    assert!(h.measured_speedup > 1.0, "PIM-Acc should beat CPU-only");
    // Component deltas sum to the total saved time, and their shares
    // partition it.
    let delta_sum: f64 = h.gap.delta_ps.iter().sum();
    assert!((delta_sum - h.gap.total_delta_ps).abs() <= 1e-6 * h.gap.total_delta_ps.abs());
    let share_sum: f64 = h.gap.shares.iter().sum();
    assert!((share_sum - 1.0).abs() <= 1e-9, "shares sum to {share_sum}");
    let (label, share) = h.gap.dominant();
    assert!(COMPONENT_LABELS.contains(&label));
    assert!(share > 0.0, "the dominant component saves time, not loses it");
}
