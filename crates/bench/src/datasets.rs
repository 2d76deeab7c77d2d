//! The two evaluation datasets of the paper's §6, at configurable scale.

use dkindex_datagen::{nasa_graph, xmark_graph, NasaConfig, XmarkConfig};
use dkindex_graph::DataGraph;

/// Default harness scales: large enough that index-size differences between
/// A(k) levels are pronounced, small enough for a complete run in seconds.
pub const DEFAULT_XMARK_SCALE: f64 = 0.02;
/// See [`DEFAULT_XMARK_SCALE`].
pub const DEFAULT_NASA_SCALE: f64 = 0.15;

/// One of the paper's two evaluation datasets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dataset {
    /// XMark-like auction data. `scale = 0.1` approximates the paper's
    /// ~10 MB file; the default harness scale is smaller so the full
    /// experiment suite runs in seconds (shapes, not absolute numbers, are
    /// the target).
    Xmark,
    /// NASA-like astronomical data with 8 of 20 reference kinds kept (the
    /// paper deletes 12 of 20). `scale = 1.0` approximates ~15 MB.
    Nasa,
}

impl Dataset {
    /// Display name, as the paper writes it.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Xmark => "Xmark",
            Dataset::Nasa => "Nasa",
        }
    }

    /// Generate the dataset at `scale`.
    pub fn generate(self, scale: f64) -> DataGraph {
        match self {
            Dataset::Xmark => xmark_graph(&XmarkConfig::scale(scale)),
            Dataset::Nasa => nasa_graph(&NasaConfig::scale(scale)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkindex_graph::stats::GraphStats;

    #[test]
    fn datasets_build_at_small_scale() {
        let x = Dataset::Xmark.generate(0.002);
        let n = Dataset::Nasa.generate(0.01);
        assert_eq!(GraphStats::of(&x).unreachable, 0);
        assert_eq!(GraphStats::of(&n).unreachable, 0);
        assert!(GraphStats::of(&x).reference_edges > 0);
        assert!(GraphStats::of(&n).reference_edges > 0);
    }
}
