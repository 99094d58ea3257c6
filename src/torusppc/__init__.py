"""Pair correlation statistics, additive energies, GCD sums and Monte Carlo
experiments for sequences ({a_n alpha_1}, ..., {a_n^(d) alpha_d}) on the
d-dimensional torus."""

__version__ = "0.1.0"

from .fixedpoint import frac_of_real, point_of_reals, sample_alpha
from .sequences import SequenceData, SequenceSpec, generate, orbit
from .paircorr import (
    NormKind,
    PairCountResult,
    ppc_grid,
    ppc_limit,
    ppc_naive,
    unit_ball_volume,
)
from .energy import (
    EnergyReport,
    RepresentationTable,
    additive_energy,
    count_Jl,
    energy_bound_report,
    joint_additive_energy,
    representation_counts,
    vinogradov_J2d,
)
from .gcdsum import (
    WeightedSupport,
    gcd_sum,
    gcd_sum_from_representations,
    verify_eq0,
    zeta_trunc,
)
from .bessel import (
    BesselEval,
    bessel_asymptotic,
    bessel_j,
    fourier_coeff_ball,
)
from .experiments import (
    ExperimentConfig,
    ExperimentRow,
    run_convergence,
    run_counterexample,
    run_energy_scan,
    run_variance_decay,
)

__all__ = [
    "frac_of_real", "point_of_reals", "sample_alpha",
    "SequenceSpec", "SequenceData", "generate", "orbit",
    "NormKind", "PairCountResult", "ppc_naive", "ppc_grid", "ppc_limit",
    "unit_ball_volume",
    "RepresentationTable", "EnergyReport", "additive_energy",
    "joint_additive_energy", "representation_counts", "count_Jl",
    "vinogradov_J2d", "energy_bound_report",
    "WeightedSupport", "gcd_sum",
    "gcd_sum_from_representations", "zeta_trunc", "verify_eq0",
    "BesselEval", "bessel_j", "bessel_asymptotic", "fourier_coeff_ball",
    "ExperimentConfig", "ExperimentRow", "run_convergence",
    "run_counterexample", "run_variance_decay", "run_energy_scan",
]
