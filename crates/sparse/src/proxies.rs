//! Synthetic stand-ins for the nine University-of-Florida matrices used in the
//! paper's single-node evaluation (Figure 4 / Tables 2–3).
//!
//! The real matrices are not redistributable with this repository, so each
//! proxy reproduces the salient traits that determine the *shape* of the
//! paper's results: problem family (structural, CFD, thermal, …), relative
//! size class, and — most importantly for the resilience comparison — the CG
//! convergence behaviour (fast / moderate / slow). Absolute sizes are scaled
//! down so the full 270-experiment sweep runs on a laptop; the
//! `--scale` option of the bench harnesses can enlarge them.
//!
//! Real matrices in MatrixMarket format can be substituted at any time through
//! [`crate::matrixmarket::read_matrix_market_file`].

use serde::{Deserialize, Serialize};

use crate::{generators, CsrMatrix};

/// Identifier of one of the paper's nine evaluation matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PaperMatrix {
    /// `af_shell8` — sheet-metal forming, structural problem (n ≈ 505k).
    AfShell8,
    /// `cfd2` — pressure matrix from a CFD problem (n ≈ 123k).
    Cfd2,
    /// `consph` — concentric spheres, FEM electromagnetics (n ≈ 83k).
    Consph,
    /// `Dubcova3` — PDE discretization (n ≈ 147k), fast converging.
    Dubcova3,
    /// `ecology2` — circuit-theory landscape model, 5-point stencil (n = 1M).
    Ecology2,
    /// `parabolic_fem` — parabolic FEM, convection-diffusion (n ≈ 526k).
    ParabolicFem,
    /// `qa8fm` — 3-D acoustics mass matrix (n ≈ 66k), very fast converging.
    Qa8fm,
    /// `thermal2` — unstructured thermal FEM (n ≈ 1.2M), slow converging.
    Thermal2,
    /// `thermomech` (dM) — thermomechanical model (n ≈ 204k), fast converging.
    Thermomech,
}

impl PaperMatrix {
    /// All nine matrices, in the order the paper lists them.
    pub const ALL: [PaperMatrix; 9] = [
        PaperMatrix::AfShell8,
        PaperMatrix::Cfd2,
        PaperMatrix::Consph,
        PaperMatrix::Dubcova3,
        PaperMatrix::Ecology2,
        PaperMatrix::ParabolicFem,
        PaperMatrix::Qa8fm,
        PaperMatrix::Thermal2,
        PaperMatrix::Thermomech,
    ];

    /// Name as printed in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            PaperMatrix::AfShell8 => "af_shell8",
            PaperMatrix::Cfd2 => "cfd2",
            PaperMatrix::Consph => "consph",
            PaperMatrix::Dubcova3 => "Dubcova3",
            PaperMatrix::Ecology2 => "ecology2",
            PaperMatrix::ParabolicFem => "parabolic_fem",
            PaperMatrix::Qa8fm => "qa8fm",
            PaperMatrix::Thermal2 => "thermal2",
            PaperMatrix::Thermomech => "thermomech",
        }
    }

    /// Parses a paper matrix name (as printed by [`Self::name`]).
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|m| m.name() == name)
    }

    /// Qualitative convergence class the proxy is tuned to reproduce.
    pub fn convergence_class(&self) -> ConvergenceClass {
        match self {
            PaperMatrix::Qa8fm | PaperMatrix::Thermomech | PaperMatrix::Dubcova3 => {
                ConvergenceClass::Fast
            }
            PaperMatrix::Consph | PaperMatrix::Cfd2 | PaperMatrix::AfShell8 => {
                ConvergenceClass::Moderate
            }
            PaperMatrix::Ecology2 | PaperMatrix::ParabolicFem | PaperMatrix::Thermal2 => {
                ConvergenceClass::Slow
            }
        }
    }

    /// Builds the proxy matrix at the given scale.
    ///
    /// `scale = 1.0` produces laptop-sized problems (10⁴–10⁵ unknowns range
    /// compressed to a few thousand); larger scales grow the grids.
    pub fn build(&self, scale: f64) -> CsrMatrix {
        // A rounded grid edge, far below usize::MAX; the float cast
        // saturates (NaN to 0, then the floor of 8), so nothing wraps.
        #[allow(clippy::cast_possible_truncation)]
        let s = |base: usize| ((base as f64 * scale.sqrt()).round() as usize).max(8);
        match self {
            // Structural / shell problem: moderately conditioned 2-D Laplacian.
            PaperMatrix::AfShell8 => generators::poisson_2d(s(72)),
            // CFD pressure system: anisotropic coupling.
            PaperMatrix::Cfd2 => generators::anisotropic_2d(s(64), 0.2),
            // FEM electromagnetics: 3-D 7-point stencil.
            PaperMatrix::Consph => generators::poisson_3d_7pt(s(17)),
            // Fast-converging PDE problem: well-conditioned random SPD.
            PaperMatrix::Dubcova3 => generators::random_spd(s(64).pow(2), 6, 0xD0BC0743),
            // Landscape circuit model: large 5-point stencil (slowest class).
            PaperMatrix::Ecology2 => generators::poisson_2d(s(90)),
            // Parabolic FEM: anisotropic with strong anisotropy.
            PaperMatrix::ParabolicFem => generators::anisotropic_2d(s(80), 0.05),
            // Acoustics mass matrix: strongly diagonally dominant, very fast.
            PaperMatrix::Qa8fm => generators::random_spd(s(56).pow(2), 4, 0x0A8F),
            // Unstructured thermal problem: jump coefficients, slow.
            PaperMatrix::Thermal2 => generators::jump_coefficient_2d(s(96), 100.0),
            // Thermomechanical model: small and fast converging.
            PaperMatrix::Thermomech => generators::random_spd(s(48).pow(2), 5, 0x7E40),
        }
    }
}

/// Qualitative CG convergence class of a proxy matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConvergenceClass {
    /// Converges in a few tens of iterations.
    Fast,
    /// Converges in a few hundred iterations.
    Moderate,
    /// Needs on the order of a thousand iterations or more.
    Slow,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_proxies_are_square_symmetric() {
        for m in PaperMatrix::ALL {
            let a = m.build(0.2);
            assert_eq!(a.rows(), a.cols(), "{} not square", m.name());
            assert!(a.is_symmetric(1e-10), "{} not symmetric", m.name());
            assert!(a.rows() >= 64, "{} too small", m.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for m in PaperMatrix::ALL {
            assert_eq!(PaperMatrix::from_name(m.name()), Some(m));
        }
        assert_eq!(PaperMatrix::from_name("nope"), None);
    }

    #[test]
    fn scale_grows_the_problem() {
        let small = PaperMatrix::AfShell8.build(0.2);
        let large = PaperMatrix::AfShell8.build(0.8);
        assert!(large.rows() > small.rows());
    }

    #[test]
    fn convergence_classes_cover_all_three() {
        use std::collections::HashSet;
        let classes: HashSet<_> = PaperMatrix::ALL
            .iter()
            .map(|m| m.convergence_class())
            .collect();
        assert_eq!(classes.len(), 3);
    }

    #[test]
    fn proxies_are_positive_definite_small_scale() {
        // Cholesky of the dense form is too expensive for all, spot check the
        // small stencil ones via a few CG-style checks: xᵀAx > 0 for random x.
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for m in [PaperMatrix::Cfd2, PaperMatrix::Thermal2, PaperMatrix::Qa8fm] {
            let a = m.build(0.2);
            for _ in 0..5 {
                let x: Vec<f64> = (0..a.rows()).map(|_| rng.random_range(-1.0..1.0)).collect();
                let mut ax = vec![0.0; a.rows()];
                a.spmv(&x, &mut ax);
                let quad = crate::vecops::dot(&x, &ax);
                assert!(quad > 0.0, "{} not PD: xᵀAx = {}", m.name(), quad);
            }
        }
    }
}
