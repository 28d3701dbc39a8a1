//! Seeded synthetic CNNs, emitted as spec text.
//!
//! Every generated network walks all of Algorithm 2's branches and the
//! layer shapes the compiler special-cases: a shallow strided stem
//! (`Din < Tin`), a `k == s` layer (intra), a deep 1x1 layer
//! (`Din >= Tin`), a depthwise layer, a residual pair closed by an
//! `add`, and a strided 3x3 layer. Sizes vary with the seed, so two
//! seeds give different layer keys (cold compiles) while the same seed
//! always gives the same text.

use cbrain_model::rng::XorShift64;
use cbrain_model::{LayerKind, Network};
use std::fmt::Write as _;

/// A seeded draw in `0..n` for item `index`: the same `(seed, index)`
/// always gives the same value.
pub fn roll(seed: u64, index: u64, n: u64) -> u64 {
    stream(seed, index).below(n)
}

/// An independent generator per `(seed, index)` (splitmix64 of both).
fn stream(seed: u64, index: u64) -> XorShift64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    XorShift64::seed_from_u64(z ^ (z >> 31))
}

/// Spec text of synthetic network number `index` for `seed`.
pub fn spec_text(seed: u64, index: u64) -> String {
    let mut rng = stream(seed, index);
    // Narrow ranges: enough for distinct layer keys, not enough for the
    // seed to move the total work much. `side` stays a multiple of 4 so
    // it halves evenly twice.
    let side = 4 * rng.range_usize(9, 12);
    let stem = 8 * rng.range_usize(2, 4);
    let deep = 16 * rng.range_usize(2, 3);
    let mut t = String::new();
    let _ = writeln!(t, "network synth{seed}x{index} input 3x{side}x{side}");
    // Din = 3 < Tin: kernel partitioning; strided.
    let _ = writeln!(t, "conv stem out={stem} k=3 s=2 pad=1");
    // k == s: intra (true sliding windows).
    let _ = writeln!(t, "conv patch out={deep} k=2 s=2 pad=0");
    // 1x1 with Din >= Tin: inter-kernel.
    let _ = writeln!(t, "conv mix out={deep} k=1 s=1 pad=0");
    // Depthwise: one input map per group, so Din/group < Tin.
    let _ = writeln!(t, "conv dw out={deep} k=3 s=1 pad=1 groups={deep}");
    // Residual pair: shape-preserving 3x3 convs closed by an add.
    let _ = writeln!(t, "conv res_a out={deep} k=3 s=1 pad=1");
    let _ = writeln!(t, "conv res_b out={deep} k=3 s=1 pad=1");
    let _ = writeln!(t, "add res_add from=dw");
    // Strided 3x3 with Din >= Tin.
    let _ = writeln!(t, "conv down out={} k=3 s=2 pad=1", 2 * deep);
    let _ = writeln!(t, "pool pool max k=2 s=2");
    let _ = writeln!(t, "fc head out={}", 10 * rng.range_usize(1, 10));
    t
}

/// The layer categories whose shares each workload records. The first
/// three are Algorithm 2's mutually exclusive branches for a conv layer;
/// the rest are shape properties a conv (or, for `residual`, an add)
/// may have on top.
pub const CATEGORIES: [&str; 7] = [
    "k_eq_s",
    "din_lt_tin",
    "din_ge_tin",
    "1x1",
    "strided",
    "depthwise",
    "residual",
];

/// Per-category layer counts plus the total layer count.
#[derive(Debug, Default, Clone)]
pub struct LayerMix {
    counts: [u64; CATEGORIES.len()],
    layers: u64,
}

impl LayerMix {
    /// Adds every layer of `net`, classified for a PE array `tin` wide.
    pub fn add(&mut self, net: &Network, tin: usize) {
        for layer in net.layers() {
            self.layers += 1;
            match &layer.kind {
                LayerKind::Conv(p) => {
                    let branch = if p.kernel == p.stride && p.kernel != 1 {
                        0
                    } else if p.in_maps_per_group() < tin {
                        1
                    } else {
                        2
                    };
                    self.counts[branch] += 1;
                    self.counts[3] += u64::from(p.kernel == 1);
                    self.counts[4] += u64::from(p.stride > 1);
                    self.counts[5] += u64::from(p.groups > 1 && p.in_maps_per_group() == 1);
                }
                LayerKind::Eltwise(_) => self.counts[6] += 1,
                _ => {}
            }
        }
    }

    /// Merges another mix into this one.
    pub fn merge(&mut self, other: &LayerMix) {
        for (a, b) in self.counts.iter_mut().zip(other.counts) {
            *a += b;
        }
        self.layers += other.layers;
    }

    /// `(category, share of all layers)` pairs.
    pub fn shares(&self) -> Vec<(&'static str, f64)> {
        CATEGORIES
            .iter()
            .zip(self.counts)
            .map(|(name, n)| (*name, n as f64 / self.layers.max(1) as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbrain_model::spec;

    #[test]
    fn every_seed_parses_and_covers_every_category() {
        for seed in 0..50 {
            let net = spec::parse(&spec_text(seed, seed * 3)).expect("valid spec");
            let mut mix = LayerMix::default();
            mix.add(&net, 16);
            assert!(mix.shares().iter().all(|(_, share)| *share > 0.0), "{seed}");
        }
    }

    #[test]
    fn same_seed_same_text() {
        assert_eq!(spec_text(7, 1), spec_text(7, 1));
        assert_ne!(spec_text(7, 1), spec_text(7, 2));
    }
}
