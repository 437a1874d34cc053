//! TensorFlow Mobile experiments: Figures 6, 7 and 19.

use pim_core::report::fraction_table;
use pim_core::{Platform, SimContext};
use pim_tfmobile::inference::run_inference;
use pim_tfmobile::network::{Network, NetworkKind};
use pim_tfmobile::pipeline::{paper_shape, run_pipeline};

/// Every network's CPU-only inference (computed by the run store).
pub(crate) fn breakdowns() -> Vec<pim_tfmobile::inference::InferenceBreakdown> {
    NetworkKind::ALL
        .iter()
        .map(|&kind| {
            let net = Network::new(kind);
            let mut ctx = SimContext::cpu_only(Platform::baseline());
            run_inference(&net, &mut ctx)
        })
        .collect()
}

/// Figure 6: per-network inference energy breakdown.
pub fn fig6() -> String {
    let bs = crate::runs::global().tf_inference();
    let rows: Vec<_> = bs
        .iter()
        .map(|b| (b.network.to_string(), b.energy_fractions.clone()))
        .collect();
    let avg_pq: f64 = bs
        .iter()
        .map(|b| b.energy_fractions[0].1 + b.energy_fractions[1].1)
        .sum::<f64>()
        / bs.len() as f64;
    let avg_dm: f64 = bs.iter().map(|b| b.dm_fraction).sum::<f64>() / bs.len() as f64;
    let avg_share: f64 = bs.iter().map(|b| b.pack_quant_dm_share).sum::<f64>() / bs.len() as f64;
    format!(
        "Figure 6 — inference energy breakdown (full-scale networks)\n{}\
         AVG packing+quantization: {:.1}% of energy (paper: 39.3%)\n\
         AVG data movement: {:.1}% of energy (paper: 57.3%)\n\
         AVG packing+quantization share of DM energy: {:.1}% (paper: 54.4%)\n",
        fraction_table(&rows),
        100.0 * avg_pq,
        100.0 * avg_dm,
        100.0 * avg_share,
    )
}

/// Figure 7: per-network execution-time breakdown.
pub fn fig7() -> String {
    let bs = crate::runs::global().tf_inference();
    let rows: Vec<_> = bs
        .iter()
        .map(|b| (b.network.to_string(), b.time_fractions.clone()))
        .collect();
    let avg_pq: f64 = bs
        .iter()
        .map(|b| b.time_fractions[0].1 + b.time_fractions[1].1)
        .sum::<f64>()
        / bs.len() as f64;
    format!(
        "Figure 7 — inference execution-time breakdown\n{}\
         AVG packing+quantization: {:.1}% of time (paper: 27.4%)\n",
        fraction_table(&rows),
        100.0 * avg_pq,
    )
}

/// Figure 19: pack/quant energy by mode + speedup vs number of GEMMs.
pub fn fig19() -> String {
    let (g, q) = paper_shape();
    let r = run_pipeline(g, q, &[1, 4, 16]);
    let [cpu, core, acc] = r.stage_energy_pj;
    let mut out = String::from("Figure 19 — packing + quantization offload\n");
    out.push_str(&format!(
        "stage energy per GEMM, normalized: CPU-Only 1.000  PIM-Core {:.3}  PIM-Acc {:.3}\n",
        core / cpu,
        acc / cpu
    ));
    out.push_str("  (paper: energy cut ~50.9% / 54.9% on average)\n\n");
    out.push_str("GEMMs   CPU-Only   PIM-Core speedup   PIM-Acc speedup\n");
    for p in &r.points {
        out.push_str(&format!(
            "{:>5}      1.00x            {:.2}x             {:.2}x\n",
            p.gemms,
            p.speedup_core(),
            p.speedup_acc()
        ));
    }
    out.push_str("  (paper: 1 GEMM -> 1.13x/1.17x; 16 GEMMs -> 1.57x/1.98x)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig19_report_has_all_counts() {
        let s = fig19();
        for n in ["    1", "    4", "   16"] {
            assert!(s.contains(n), "missing row {n:?} in:\n{s}");
        }
    }
}
