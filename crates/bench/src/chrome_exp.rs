//! Chrome experiments: Figures 1, 2, 4 and 18.

use pim_chrome::page::PageModel;
use pim_chrome::scroll::run_scroll;
use pim_chrome::tabs::{run_tab_switching, TabSwitchConfig};
use pim_core::report::{energy_table, fraction_table, mode_sweep_table};
use pim_core::{DmpimError, Platform, SimContext};

/// Figure 1: energy breakdown of page scrolling across six pages.
pub fn fig1() -> String {
    let mut rows = Vec::new();
    let mut avg_kernels = 0.0;
    let pages = PageModel::all();
    for page in &pages {
        let mut ctx = SimContext::cpu_only(Platform::baseline());
        let b = run_scroll(page, &mut ctx);
        avg_kernels += b.fractions[0].1 + b.fractions[1].1;
        rows.push((page.name.to_string(), b.fractions));
    }
    format!(
        "Figure 1 — energy breakdown for page scrolling (CPU-only)\n{}\
         AVG texture tiling + color blitting: {:.1}% of scrolling energy (paper: 41.9%)\n",
        fraction_table(&rows),
        100.0 * avg_kernels / pages.len() as f64
    )
}

/// Figure 2: component breakdown + DM-vs-compute while scrolling Docs.
pub fn fig2() -> String {
    let mut ctx = SimContext::cpu_only(Platform::baseline());
    let b = run_scroll(&PageModel::google_docs(), &mut ctx);
    let mut out = String::from("Figure 2 — scrolling a Google Docs page (CPU-only)\n");
    out.push_str(&energy_table(&[("GoogleDocs".to_string(), b.energy)]));
    out.push_str(&format!(
        "total data movement: {:.1}% of system energy (paper: 77%)\nMPKI: {:.1} (paper: 21.4)\n",
        100.0 * b.data_movement_fraction,
        b.mpki
    ));
    out.push_str("data-movement share within each kernel (paper: tiling 81.5%, blitting 63.9%):\n");
    for (tag, f) in &b.kernel_dm_fraction {
        out.push_str(&format!("  {tag}: {:.1}%\n", 100.0 * f));
    }
    out
}

/// Figure 4: ZRAM swap traffic while switching 50 tabs.
pub fn fig4() -> Result<String, DmpimError> {
    let r = run_tab_switching(&TabSwitchConfig::default())?;
    let mut out = String::from("Figure 4 — ZRAM swap traffic, 50-tab switching\n");
    out.push_str("sec   out MB/s   in MB/s\n");
    for (i, (o, inn)) in r.out_mb_per_s.iter().zip(&r.in_mb_per_s).enumerate() {
        if *o > 0.5 || *inn > 0.5 {
            out.push_str(&format!("{i:>4} {o:>9.0} {inn:>9.0}\n"));
        }
    }
    out.push_str(&format!(
        "total swapped out: {:.1} GB (paper: 11.7)   in: {:.1} GB (paper: 7.8)\n\
         peak out rate: {:.0} MB/s (paper: 201)   compression ratio: {:.2}\n\
         compression = {:.1}% of energy (paper: 18.1%), {:.1}% of time (paper: 14.2%)\n",
        r.total_out_gb,
        r.total_in_gb,
        r.out_mb_per_s.iter().cloned().fold(0.0, f64::max),
        r.compression_ratio,
        100.0 * r.compression_energy_fraction,
        100.0 * r.compression_time_fraction,
    ));
    Ok(out)
}

/// Figure 18: the four browser kernels under CPU-Only / PIM-Core / PIM-Acc.
pub fn fig18() -> Result<String, DmpimError> {
    let store = crate::runs::global();
    let mut out = String::from("Figure 18 — browser kernels: energy & runtime by mode\n");
    let mut core_ratios = Vec::new();
    let mut acc_ratios = Vec::new();
    for name in ["texture tiling", "color blitting", "compression", "decompression"] {
        let reports = &store.kernel_runs(name, false)?[..3];
        out.push_str(&format!("\n[{name}]\n"));
        out.push_str(&energy_table(
            &reports
                .iter()
                .map(|r| (r.mode.label().to_string(), r.energy))
                .collect::<Vec<_>>(),
        ));
        out.push_str(&mode_sweep_table(reports));
        core_ratios.push(reports[1].energy_vs(&reports[0]));
        acc_ratios.push(reports[2].energy_vs(&reports[0]));
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    out.push_str(&format!(
        "\nAVG energy reduction: PIM-Core {:.1}% (paper: 51.3%), PIM-Acc {:.1}% (paper: 61.0%)\n",
        100.0 * (1.0 - avg(&core_ratios)),
        100.0 * (1.0 - avg(&acc_ratios)),
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_report_has_series_and_totals() {
        // Use a smaller run to keep the test fast.
        let r = run_tab_switching(&TabSwitchConfig { tabs: 8, budget_mb: 400, ..TabSwitchConfig::default() })
            .unwrap();
        assert!(r.total_out_gb > 0.5);
    }

    #[test]
    fn fig2_mentions_paper_anchors() {
        let s = fig2();
        assert!(s.contains("MPKI"));
        assert!(s.contains("paper: 77%"));
    }
}
