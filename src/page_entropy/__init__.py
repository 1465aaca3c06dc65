"""Typical entanglement entropy of number-conserving random states.

The package computes the Haar-average entanglement entropy and its
variance for a bipartitioned lattice sector with a fixed total charge:
exact finite-size sums, large-V asymptotics with their resolved
crossover forms, a Monte Carlo sampler for cross-checks, and exact
diagonalization of two lattice Hamiltonians whose mid-spectrum
eigenstates follow the same curves.
"""

from .dimensions import dim_fixed_n, dim_table, extended_binomial_closed
from .entropy import (AsymptoticTerms, AsymptoticVariance, BipartitionSpec,
                      DistinguishableTerms, EntropyReport, Sector,
                      VarianceEstimate, asymptotic_average, asymptotic_terms,
                      asymptotic_variance, distinguishable_asymptotic,
                      distinguishable_exact_average, exact_average,
                      exact_variance, report, resolve_x1, resolve_x2,
                      resolved_average, x1_powerlaw, x2_powerlaw)
from .errors import (ConfigError, DomainError, InfeasibleSizeError,
                     NumericalError)
from .haar_sampler import (McSummary, SectorBasis, build_sector_basis,
                           entropy_of_block_vector, mc_average,
                           sample_entropies, sample_entropy)
from .local_model import (LocalModel, catalog, from_json, parse_model, power,
                          product)
from .saddle import SaddleSolution, beta_family, ln_dim_asymptotic, n_star
from .spectra import (CutEntropies, MidSpectrumReport, SectorHamiltonian,
                      build_bose_hubbard, build_spin1_xxz,
                      mid_spectrum_entropies)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticTerms", "AsymptoticVariance", "BipartitionSpec",
    "ConfigError", "CutEntropies", "DistinguishableTerms", "DomainError",
    "EntropyReport", "InfeasibleSizeError", "LocalModel", "McSummary",
    "MidSpectrumReport", "NumericalError", "SaddleSolution", "Sector",
    "SectorBasis", "SectorHamiltonian", "VarianceEstimate",
    "asymptotic_average", "asymptotic_terms", "asymptotic_variance",
    "beta_family", "build_bose_hubbard", "build_sector_basis",
    "build_spin1_xxz", "catalog", "dim_fixed_n", "dim_table",
    "distinguishable_asymptotic", "distinguishable_exact_average",
    "entropy_of_block_vector", "exact_average", "exact_variance",
    "extended_binomial_closed", "from_json", "ln_dim_asymptotic",
    "mc_average", "mid_spectrum_entropies", "n_star", "parse_model", "power",
    "product", "report", "resolve_x1", "resolve_x2", "resolved_average",
    "sample_entropies", "sample_entropy", "x1_powerlaw", "x2_powerlaw",
]
