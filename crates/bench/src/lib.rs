//! The figure-regeneration harness.
//!
//! One function per table/figure of the paper's evaluation; the `repro`
//! binary prints them (`cargo run -p pim-bench --release --bin repro`).
//! Experiment identifiers match the index in `DESIGN.md`; measured-vs-paper
//! values are recorded in `EXPERIMENTS.md`. Shared workload runs come
//! from the process-wide [`runs`] store, simulated once per process.

use pim_core::DmpimError;

pub mod ablate_exp;
pub mod chrome_exp;
pub mod explain;
pub mod fleet_cli;
pub mod jobs;
pub mod obs;
pub mod perf_gate;
pub mod runs;
pub mod scorecard;
pub mod serve_cli;
pub mod summary_exp;
pub mod tf_exp;
pub mod video_exp;

/// All experiment identifiers, in paper order.
pub const EXPERIMENTS: [&str; 23] = [
    "table1", "fig1", "fig2", "fig4", "fig6", "fig7", "fig10", "fig11", "fig12", "fig15",
    "fig16", "fig18", "fig19", "fig20", "fig21", "headline", "area", "ablate-pimcluster",
    "ablate-simd", "ablate-scheduler", "ablate-bandwidth", "ablate-coherence",
    "ext-fscompress",
];

/// Run one experiment by id, returning its printed report.
///
/// # Errors
///
/// Returns [`DmpimError::UnknownExperiment`] for an id not listed in
/// [`EXPERIMENTS`], and propagates any simulation error from the
/// experiment itself.
pub fn run_experiment(id: &str) -> Result<String, DmpimError> {
    Ok(match id {
        "table1" => summary_exp::table1(),
        "fig1" => chrome_exp::fig1(),
        "fig2" => chrome_exp::fig2(),
        "fig4" => chrome_exp::fig4()?,
        "fig6" => tf_exp::fig6(),
        "fig7" => tf_exp::fig7(),
        "fig10" => video_exp::fig10()?,
        "fig11" => video_exp::fig11()?,
        "fig12" => video_exp::fig12(),
        "fig15" => video_exp::fig15()?,
        "fig16" => video_exp::fig16(),
        "fig18" => chrome_exp::fig18()?,
        "fig19" => tf_exp::fig19(),
        "fig20" => video_exp::fig20()?,
        "fig21" => video_exp::fig21(),
        "headline" => summary_exp::headline()?,
        "area" => summary_exp::area()?,
        "ablate-pimcluster" => ablate_exp::pim_cluster(),
        "ablate-simd" => ablate_exp::simd_width(),
        "ablate-scheduler" => ablate_exp::scheduler(),
        "ablate-bandwidth" => ablate_exp::bandwidth(),
        "ablate-coherence" => ablate_exp::coherence(),
        "ext-fscompress" => ablate_exp::fs_compression(),
        other => return Err(DmpimError::UnknownExperiment { id: other.to_string() }),
    })
}
