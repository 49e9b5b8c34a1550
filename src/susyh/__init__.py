"""Relativistic hydrogen in D spatial dimensions.

The Dirac-Coulomb problem carries a hidden N=2 supersymmetry in any
dimension: per |kappa| block, a sector-swap operator A anticommutes with the
spin-orbit grading K and squares to a function of H, which pairs the bound
levels of the two sectors and leaves exactly one unpaired ground state.
This package builds the gamma-matrix algebra, the radial sector
Hamiltonians, A and the supercharges as concrete matrices, and verifies the
whole structure: algebraic identities exactly, analytic spectra to
second-order grid convergence.

Modules: clifford (gamma matrices), core (parameters, sectors, grids),
radial (sector Hamiltonians and bound spectra), analytic (closed-form
energies, enumeration, kernel wavefunction), susy (A, supercharges,
verification), cli (command-line front end).
"""

from .clifford import (
    CliffordReport,
    GammaRep,
    build_gamma_rep,
    gamma_rep_to_json,
    spin_generator,
    spin_operator,
    verify_clifford,
)
from .core import (
    LOG_UNIFORM,
    UNIFORM,
    KappaSector,
    PhysParams,
    RadialGrid,
    default_grid,
    kappa_of,
    make_grid,
)
from .analytic import (
    LevelLabel,
    LevelScheme,
    SpectrumTable,
    energy,
    enumerate_levels,
    ground_energy,
    interdimensional_check,
    kernel_wavefunction,
    level_scheme_export,
    nonrel_limit_check,
)
from .radial import (
    Eigenpair,
    RadialOperator,
    build_radial_hamiltonian,
    build_radial_operator,
    compose_operators,
    convergence_study,
    solve_bound_levels,
    solve_spectrum,
)
from .susy import (
    KernelReport,
    PairingReport,
    SusyBlock,
    SusyCharges,
    SusyVerification,
    alternate_a_mp,
    build_A,
    build_supercharges,
    build_susy_block,
    kernel_annihilation_report,
    sector_pair,
    spectral_pairing,
    spectral_pairing_at,
    verify_A_squared,
)
from .errors import (
    ConvergenceError,
    ConventionError,
    GridError,
    InvalidLabelError,
    NormalizationError,
    PairingError,
    SpuriousSpectrumError,
    SubcriticalError,
    SusyhError,
)

__version__ = "1.0.0"

__all__ = [
    "CliffordReport", "GammaRep", "build_gamma_rep", "gamma_rep_to_json",
    "spin_generator", "spin_operator", "verify_clifford",
    "LOG_UNIFORM", "UNIFORM", "KappaSector", "PhysParams", "RadialGrid",
    "default_grid", "kappa_of", "make_grid",
    "LevelLabel", "LevelScheme", "SpectrumTable", "energy",
    "enumerate_levels", "ground_energy", "interdimensional_check",
    "kernel_wavefunction", "level_scheme_export", "nonrel_limit_check",
    "Eigenpair", "RadialOperator", "build_radial_hamiltonian",
    "build_radial_operator", "compose_operators", "convergence_study",
    "solve_bound_levels", "solve_spectrum",
    "KernelReport", "PairingReport", "SusyBlock", "SusyCharges",
    "SusyVerification", "alternate_a_mp", "build_A", "build_supercharges",
    "build_susy_block", "kernel_annihilation_report", "sector_pair",
    "spectral_pairing", "spectral_pairing_at", "verify_A_squared",
    "ConvergenceError", "ConventionError", "GridError", "InvalidLabelError",
    "NormalizationError", "PairingError", "SpuriousSpectrumError",
    "SubcriticalError", "SusyhError",
    "__version__",
]
