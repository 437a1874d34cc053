//! Video experiments: Figures 10, 11, 12, 15, 16, 20 and 21.

use pim_core::report::{energy_table, fraction_table, mode_sweep_table};
use pim_core::{DmpimError, EnergyParams, Platform, SimContext};
use pim_vp9::driver::{run_sw_decode, run_sw_encode, SwBreakdown};
use pim_vp9::encoder::EncoderConfig;
use pim_vp9::frame::SyntheticVideo;
use pim_vp9::hw::{
    decoder_traffic, encoder_traffic, hw_energy, total_bytes, HwPimMode, Resolution,
};

/// The decoder characterization runs on 4K frames, as in §9. Three frames
/// (one keyframe warm-up + two replayed inter frames) keep the harness
/// under a minute while preserving per-pixel shares (run store key).
pub(crate) fn decode_breakdown() -> Result<SwBreakdown, DmpimError> {
    let v = SyntheticVideo::new(3840, 2160, 1, 0x4b);
    let mut ctx = SimContext::cpu_only(Platform::baseline());
    run_sw_decode(&v, 3, EncoderConfig { q: 20, range: 8 }, &mut ctx)
}

fn encode_breakdown() -> Result<SwBreakdown, DmpimError> {
    let v = SyntheticVideo::new(1280, 720, 1, 0xeb);
    let mut ctx = SimContext::cpu_only(Platform::baseline());
    run_sw_encode(&v, 3, EncoderConfig { q: 20, range: 12 }, &mut ctx)
}

/// Figure 10: software-decoder energy by function.
pub fn fig10() -> Result<String, DmpimError> {
    let b = crate::runs::global().decode_4k()?;
    Ok(format!(
        "Figure 10 — VP9 software decoder energy (4K)\n{}\
         (paper: sub-pel interpolation 37.5%, deblocking 29.7%, MC total 53.4%)\n",
        fraction_table(&[("4K".to_string(), b.energy_fractions)])
    ))
}

/// Figure 11: decoder component breakdown + DM share.
pub fn fig11() -> Result<String, DmpimError> {
    let b = crate::runs::global().decode_4k()?;
    Ok(format!(
        "Figure 11 — VP9 software decoder by component\n{}\
         data movement: {:.1}% of decoder energy (paper: 63.5%)\n",
        energy_table(&[("4K decode".to_string(), b.energy)]),
        100.0 * b.dm_fraction
    ))
}

fn traffic_table(title: &str, rows: Vec<(String, Vec<(&'static str, f64)>)>) -> String {
    let mut out = String::from(title);
    for (label, parts) in rows {
        let total = total_bytes(&parts);
        out.push_str(&format!("{label:<24} total {:>7.1} MB\n", total / (1 << 20) as f64));
        for (name, bytes) in &parts {
            out.push_str(&format!(
                "    {name:<26} {:>7.2} MB  ({:>4.1}%)\n",
                bytes / (1 << 20) as f64,
                100.0 * bytes / total
            ));
        }
    }
    out
}

/// Figure 12: hardware-decoder off-chip traffic.
pub fn fig12() -> String {
    let mut rows = Vec::new();
    for res in [Resolution::Hd, Resolution::Uhd4k] {
        for comp in [false, true] {
            let label = format!("{} {}", res.label(), if comp { "with compression" } else { "no compression" });
            rows.push((label, decoder_traffic(res, comp)));
        }
    }
    let mut s = traffic_table("Figure 12 — HW decoder off-chip traffic per frame\n", rows);
    s.push_str("(paper: reference frame 75.5% HD / 59.6% 4K of traffic; 4K ~4.6x HD)\n");
    s
}

/// Figure 15: software-encoder energy by function.
pub fn fig15() -> Result<String, DmpimError> {
    let b = encode_breakdown()?;
    Ok(format!(
        "Figure 15 — VP9 software encoder energy (HD)\n{}\
         data movement: {:.1}% of encoder energy (paper: 59.1%)\n\
         (paper: motion estimation 39.6% of energy, 43.1% of cycles)\n",
        fraction_table(&[("HD".to_string(), b.energy_fractions)]),
        100.0 * b.dm_fraction
    ))
}

/// Figure 16: hardware-encoder off-chip traffic.
pub fn fig16() -> String {
    let mut rows = Vec::new();
    for res in [Resolution::Hd, Resolution::Uhd4k] {
        for comp in [false, true] {
            let label = format!("{} {}", res.label(), if comp { "with compression" } else { "no compression" });
            rows.push((label, encoder_traffic(res, comp)));
        }
    }
    let mut s = traffic_table("Figure 16 — HW encoder off-chip traffic per frame\n", rows);
    s.push_str("(paper: reference frames 65.1% of HD traffic; current frame 14.2% -> 31.9% with compression)\n");
    s
}

/// Figure 20: the three video kernels under the three modes.
pub fn fig20() -> Result<String, DmpimError> {
    let store = crate::runs::global();
    let mut out = String::from("Figure 20 — video kernels: energy & runtime by mode\n");
    let kernels = [
        ("sub-pixel interpolation", "sub-pixel interpolation (4K)"),
        ("deblocking filter", "deblocking filter (4K)"),
        ("motion estimation", "motion estimation (HD)"),
    ];
    let mut core_ratios = Vec::new();
    let mut acc_ratios = Vec::new();
    for (kernel, label) in kernels {
        let reports = &store.kernel_runs(kernel, false)?[..3];
        out.push_str(&format!("\n[{label}]\n"));
        out.push_str(&mode_sweep_table(reports));
        core_ratios.push(reports[1].energy_vs(&reports[0]));
        acc_ratios.push(reports[2].energy_vs(&reports[0]));
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    out.push_str(&format!(
        "\nAVG energy reduction: PIM-Core {:.1}% (paper: 46.8%), PIM-Acc {:.1}% (paper: 66.6%)\n\
         (paper runtimes: PIM-Core +23.6%, PIM-Acc +70.2%; ME: 1.13x core, 2.1x acc)\n",
        100.0 * (1.0 - avg(&core_ratios)),
        100.0 * (1.0 - avg(&acc_ratios)),
    ));
    Ok(out)
}

/// Figure 21: hardware codec energy with PIM.
pub fn fig21() -> String {
    let params = EnergyParams::default();
    let mut out = String::from("Figure 21 — HW codec total energy per 4K frame (mJ)\n");
    for encode in [false, true] {
        out.push_str(if encode { "\n[encoder]\n" } else { "[decoder]\n" });
        for comp in [false, true] {
            out.push_str(if comp { "  with compression:\n" } else { "  no compression:\n" });
            let base = hw_energy(Resolution::Uhd4k, comp, HwPimMode::Baseline, encode, &params);
            for mode in HwPimMode::ALL {
                let e = hw_energy(Resolution::Uhd4k, comp, mode, encode, &params);
                out.push_str(&format!(
                    "    {:<10} {:>7.2} mJ  ({:+.1}% vs VP9)\n",
                    mode.label(),
                    e.total_pj() / 1e9,
                    100.0 * (e.total_pj() / base.total_pj() - 1.0)
                ));
            }
        }
    }
    out.push_str(
        "(paper: PIM-Acc -75.1% decode / -69.8% encode; PIM-Core with compression +63.4%;\n\
         PIM-Acc without compression still beats VP9 with compression)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_and_16_tables_cover_four_configs() {
        let s = fig12();
        assert!(s.contains("HD no compression") && s.contains("4K with compression"));
        let s = fig16();
        assert!(s.contains("Current Frame"));
    }

    #[test]
    fn fig21_reports_all_modes() {
        let s = fig21();
        assert!(s.contains("VP9") && s.contains("PIM-Core") && s.contains("PIM-Acc"));
        assert!(s.contains("[encoder]"));
    }
}
