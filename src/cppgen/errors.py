"""Exception types shared across the package."""


class CppgenError(Exception):
    """Base class for all package errors."""


class ModelError(CppgenError):
    """Invalid rate model or malformed model JSON."""


class NewickError(CppgenError):
    """Unparseable Newick input."""


class NonBinaryError(NewickError):
    """Newick tree contains a node with != 2 children."""


class NonUltrametricError(NewickError):
    """Tip-to-root distances differ beyond tolerance."""

    def __init__(self, max_deviation, where: str = ""):
        self.max_deviation = max_deviation
        super().__init__(
            f"{where}tree is not ultrametric (max relative tip-depth deviation "
            f"{max_deviation:.3g})"
        )


class SolverError(CppgenError):
    """Volterra solver failure (step too large or monotonicity violation)."""


class DomainError(CppgenError):
    """Argument outside the mathematical domain of an operation."""


class DegenerateMixtureError(DomainError):
    """F(T) leaves the k-sample mixture degenerate: for the likelihood only
    F(T) = 1 (every tree has one tip); for the sampler also F(T) so large
    that a = 1 - 1/F(T) rounds to 1."""


class TailOverflowError(DomainError):
    """F(T) is not finite in floating point (``kernel.tail_at_T``), so no
    sampler can draw and no likelihood can be evaluated (full, Bernoulli or
    k-sample).  A fit scores such rates +inf."""


class PopulationCapError(CppgenError):
    """Forward simulation exceeded the particle cap (supercritical blowup)."""


class InsufficientTipsError(CppgenError):
    """Requested a k-subsample from a tree with fewer than k tips."""


class TieError(CppgenError):
    """Divided-difference evaluation requested with (near-)tied arguments.

    Raised only by the divided-difference side of
    ``ksample.power_sum_identity``; the joint law with unsampled tips is a
    power-series coefficient and has no distinctness requirement.
    """


class SizeGuardError(CppgenError):
    """Combinatorial enumeration would exceed the hard-coded size guard."""


class SchemeError(CppgenError):
    """Malformed sampling-scheme specification string."""

    def __init__(self, spec, position, message):
        self.spec = spec
        self.position = position
        super().__init__(f"bad scheme spec {spec!r} at position {position}: {message}")


class FitError(CppgenError):
    """Maximum-likelihood fit failed to converge from every start."""
