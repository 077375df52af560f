"""Exact LOCC conversion errors between tensor-power states and EPR blocks,
concentration-recovery trade-offs, and Gaussian second-order approximations."""

__version__ = "0.1.0"

from .asymptotics import (
    AsymptoticProfile,
    K,
    loss_coefficient,
    mcre_limit,
    nmax_approx,
    normal_cdf,
    normal_quantile,
    profile,
    prop3_limits,
)
from .conversion import (
    ConversionResult,
    brute_force_fidelity,
    concentration_fidelity,
    dilution_fidelity,
)
from .spectrum import (
    LeveledSpectrum,
    SchmidtVector,
    extend_spectrum,
    log2_int,
    log2_prefix_mass,
    log2_prefix_sqrt_mass,
    log2_tail_mass,
    make_schmidt,
    power_spectrum,
    prefix_mass,
)
from .tradeoff import (
    TradeoffResult,
    delta_curve,
    generalized_mcre,
    max_recoverable,
    mcre,
    recoverable_points,
)

__all__ = [
    "__version__",
    "AsymptoticProfile",
    "ConversionResult",
    "LeveledSpectrum",
    "SchmidtVector",
    "TradeoffResult",
    "K",
    "brute_force_fidelity",
    "concentration_fidelity",
    "delta_curve",
    "dilution_fidelity",
    "extend_spectrum",
    "generalized_mcre",
    "log2_int",
    "log2_prefix_mass",
    "log2_prefix_sqrt_mass",
    "log2_tail_mass",
    "loss_coefficient",
    "make_schmidt",
    "max_recoverable",
    "mcre",
    "mcre_limit",
    "nmax_approx",
    "normal_cdf",
    "normal_quantile",
    "power_spectrum",
    "prefix_mass",
    "profile",
    "prop3_limits",
    "recoverable_points",
]
