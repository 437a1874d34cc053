//! Stable 64-bit digests (FNV-1a) of program outputs, compared with the
//! digests committed under `reference/`.

use pim_core::{RunReport, COMPONENTS};

/// FNV-1a, 64-bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold bytes into the digest.
    #[must_use]
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Fold a number into the digest.
    #[must_use]
    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of an output text.
pub fn text(s: &str) -> u64 {
    Fnv::default().bytes(s.as_bytes()).finish()
}

/// Digest of every simulated result in a run report: runtime, energy
/// (bit patterns), memory activity, instructions, MPKI and the cycle
/// attribution.
pub fn report(r: &RunReport) -> u64 {
    let a = &r.activity;
    let mut h = Fnv::default()
        .bytes(r.kernel.as_bytes())
        .bytes(r.mode.label().as_bytes())
        .bytes(r.executed.label().as_bytes())
        .u64(r.runtime_ps)
        .u64(r.instructions)
        .u64(r.mpki.to_bits());
    for c in COMPONENTS {
        h = h.u64(r.energy.get(c).to_bits());
    }
    for v in [
        a.l1_accesses,
        a.llc_accesses,
        a.memctrl_requests,
        a.dram_read_bytes,
        a.dram_write_bytes,
        a.offchip_bytes,
        a.internal_bytes,
        a.row_hits,
        a.row_misses,
        a.scratch_accesses,
    ] {
        h = h.u64(v);
    }
    for v in r.cost.as_array() {
        h = h.u64(v.to_bits());
    }
    h.finish()
}
