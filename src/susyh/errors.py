"""Exception types raised across the package."""


class SusyhError(Exception):
    """Base class for all package-specific errors."""


class SubcriticalError(SusyhError):
    """Coupling too strong for the requested sector: kappa^2 <= (Z alpha)^2."""


class GridError(SusyhError):
    """Requested grid cannot be represented in double precision."""


class InvalidLabelError(SusyhError):
    """Quantum-number label violates its admissibility constraints."""


class NormalizationError(SusyhError):
    """State cannot be normalized on the given grid within tolerance."""


class ConvergenceError(SusyhError):
    """Eigensolver failed or a refinement sequence did not converge."""


class SpuriousSpectrumError(SusyhError):
    """All eigenvalue candidates in the bound window were rejected as spurious."""


class ConventionError(SusyhError):
    """No sign convention satisfies the defining contract of an operator."""


class PairingError(SusyhError):
    """Supersymmetric level matching is ambiguous or incomplete."""
