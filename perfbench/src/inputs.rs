//! The kernel inputs the workloads run: the paper-input catalog and the
//! seeded size variants of `kernel-sweep`.
//!
//! Variants come in three working-set tiers relative to the modelled
//! caches: `l1` fits the 64 KB L1, `llc` sits between the L1 and the
//! 2 MB LLC, and `dram` is several times the LLC. Each tier cycles
//! through a fixed list of shapes, so every seed runs the same sizes; the
//! seed picks each instance's content (and the order of a blit stream),
//! so different seeds run different data with comparable work. Seeds
//! fold onto [`FAMILIES`] input families, whose reports are committed
//! under `reference/`.

use pim_chrome::lzo::{compress, synthetic_tab_dump, CompressionKernel, DecompressionKernel};
use pim_chrome::{ColorBlittingKernel, TextureTilingKernel};
use pim_core::rng::SplitMix64;
use pim_core::{Kernel, PimTargetKind};
use pim_tfmobile::pack::PackingKernel;
use pim_tfmobile::quantize::QuantizationKernel;
use pim_vp9::driver::{
    DeblockingFilterKernel, MotionEstimationKernel, SubPixelInterpolationKernel,
};
use pim_vp9::frame::SyntheticVideo;

/// Number of distinct seeded input families.
pub const FAMILIES: u64 = 8;

/// Working-set tiers, smallest first.
pub const TIERS: [&str; 3] = ["l1", "llc", "dram"];

/// One kernel instance with its input.
pub struct Input {
    /// Catalog name (`pim_bench::jobs::kernel_catalog`).
    pub kernel: &'static str,
    /// Paper target the kernel belongs to.
    pub kind: PimTargetKind,
    /// `paper`, or the variant's tier and index, e.g. `dram-1`.
    pub label: String,
    /// The kernel, ready to run.
    pub instance: Box<dyn Kernel>,
}

/// Metric-name form of a catalog kernel name: `sub-pixel-interpolation`.
pub fn slug(kernel: &str) -> String {
    kernel.replace(' ', "-")
}

/// The input family a seed selects.
pub fn family(seed: u64) -> u64 {
    seed % FAMILIES
}

/// The paper-input catalog; `smoke` swaps in the two small test kernels.
pub fn paper(smoke: bool) -> Vec<Input> {
    pim_bench::jobs::kernel_catalog(smoke)
        .into_iter()
        .map(|(kernel, kind, factory)| Input {
            kernel,
            kind,
            label: "paper".into(),
            instance: factory(),
        })
        .collect()
}

/// Instances per kernel per tier, in [`TIERS`] order. `smoke` keeps one
/// `l1` instance per kernel.
fn counts(smoke: bool) -> [usize; 3] {
    if smoke {
        [1, 0, 0]
    } else {
        [4, 2, 2]
    }
}

/// The seeded variants of one input family.
pub fn variants(family: u64, smoke: bool) -> Vec<Input> {
    let mut rng = SplitMix64::new(0x5eed_0000 ^ family);
    let mut out = Vec::new();
    for (kernel, kind, _) in pim_bench::jobs::kernel_catalog(false) {
        for (tier, name) in TIERS.iter().enumerate() {
            for i in 0..counts(smoke)[tier] {
                out.push(Input {
                    kernel,
                    kind,
                    label: format!("{name}-{i}"),
                    instance: build(kernel, tier, i, &mut rng),
                });
            }
        }
    }
    out
}

fn shuffle<T>(rng: &mut SplitMix64, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

/// Build instance `i` of `kernel` in working-set tier `tier`.
fn build(kernel: &str, tier: usize, i: usize, rng: &mut SplitMix64) -> Box<dyn Kernel> {
    let seed = rng.next_u64();
    // Odd instances swap the two dimensions of their shape.
    let flip = i % 2 == 1;
    match kernel {
        "texture tiling" => {
            // RGBA bitmap plus its tiled copy: 8 bytes per pixel.
            let shapes: [&[(usize, usize)]; 3] = [
                &[(64, 64), (128, 32)],
                &[(256, 256), (512, 128)],
                &[(1024, 2048), (4096, 512)],
            ];
            let (w, h) = shapes[tier][i / 2 % shapes[tier].len()];
            let (w, h) = if flip { (h, w) } else { (w, h) };
            Box::new(TextureTilingKernel::new(w, h, seed))
        }
        "color blitting" => {
            let (surface, sizes): (usize, &[usize]) = [
                (96, &[8, 16, 16, 32, 32, 64][..]),
                (512, &[32, 64, 64, 128, 128, 256, 512][..]),
                (2048, &[64, 128, 256, 512, 512, 1024, 2048][..]),
            ][tier];
            let mut sizes = sizes.to_vec();
            shuffle(rng, &mut sizes);
            Box::new(ColorBlittingKernel::new(sizes, surface, seed))
        }
        "compression" => Box::new(CompressionKernel::new(synthetic_tab_dump(
            pages(tier),
            seed,
        ))),
        "decompression" => {
            let dump = synthetic_tab_dump(pages(tier), seed);
            Box::new(DecompressionKernel::new(
                dump.iter().map(|p| compress(p)).collect(),
            ))
        }
        "packing" => {
            let shapes: [&[(usize, usize, usize)]; 3] = [
                &[(32, 64, 32), (16, 128, 16)],
                &[(196, 288, 64), (196, 576, 128)],
                &[(784, 1152, 256), (3136, 576, 128), (196, 4608, 512)],
            ];
            let v = shapes[tier]
                .iter()
                .map(|&(m, k, n)| if flip { (n, k, m) } else { (m, k, n) });
            Box::new(PackingKernel::new(v.collect()))
        }
        "quantization" => {
            let shapes: [&[(usize, usize)]; 3] = [
                &[(64, 64), (32, 128)],
                &[(196, 256), (784, 128)],
                &[(3136, 512), (784, 2048)],
            ];
            let v = shapes[tier]
                .iter()
                .map(|&(r, c)| if flip { (c, r) } else { (r, c) });
            Box::new(QuantizationKernel::new(v.collect()))
        }
        "sub-pixel interpolation" => Box::new(SubPixelInterpolationKernel::new(
            video(FRAMES[tier], flip, 2, seed),
            1,
        )),
        "deblocking filter" => Box::new(DeblockingFilterKernel::new(
            video(FRAMES[tier], flip, 3, seed),
            1,
        )),
        "motion estimation" => {
            // Motion search reads three reference frames besides the
            // current one, so its frames are one size smaller per tier.
            let frame = [(64, 32), (320, 192), (1280, 720)][tier];
            Box::new(MotionEstimationKernel::new(
                video(frame, flip, 2, seed),
                1,
                16,
            ))
        }
        other => unreachable!("kernel {other:?} has no variant constructor"),
    }
}

/// 4 KB pages of a synthetic tab dump per tier.
fn pages(tier: usize) -> usize {
    [8, 256, 2048][tier]
}

/// Luma frame sizes per tier for the single-frame video kernels.
const FRAMES: [(usize, usize); 3] = [(64, 48), (640, 368), (1920, 1088)];

/// A synthetic video of `frame` size, transposed when `flip`.
fn video(frame: (usize, usize), flip: bool, noise: u8, seed: u64) -> SyntheticVideo {
    let (w, h) = if flip { (frame.1, frame.0) } else { frame };
    SyntheticVideo::new(w, h, noise, seed)
}
