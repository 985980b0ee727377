"""Exception taxonomy for qlat.

Every failure mode that callers are expected to handle gets its own class,
and each class carries the CLI's process exit code as `exit_code`: schema
problems exit 2, resource/engine limits exit 3, mathematical infeasibility
exits 4.
"""

from __future__ import annotations


class QlatError(Exception):
    """Base class for all qlat-specific errors."""

    exit_code = 4


# ---------------------------------------------------------------------------
# Input / schema problems (CLI exit 2)


class SchemaError(QlatError):
    """Malformed request document (bad JSON shape, missing/extra keys)."""

    exit_code = 2

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


# ---------------------------------------------------------------------------
# Resource / engine limits (CLI exit 3)


class ResourceLimit(QlatError):
    """A configured cardinality or size cap was exceeded.

    ``path`` points into the request when one field alone is over its cap.
    """

    exit_code = 3

    def __init__(self, message: str, path: str | None = None):
        self.path = path
        super().__init__(message)


class BudgetExceeded(ResourceLimit):
    """A certified bounding region exceeds the vertex cap."""


class InfiniteUnsupported(QlatError):
    """An exact intersection is infinite but matches no symbolic rule.

    Carries the two offending shapes for diagnosis.  This is a defensive
    error: the symbolic rules cover every case the resolver can produce, so
    seeing this means an internal invariant failed validation.
    """

    exit_code = 3

    def __init__(self, shape_a, shape_b, detail: str = ""):
        self.shape_a = shape_a
        self.shape_b = shape_b
        msg = "intersection is infinite and matches no symbolic rule"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


# ---------------------------------------------------------------------------
# Mathematical infeasibility / domain errors (CLI exit 4)


class SingularMatrix(QlatError):
    """A matrix that must be invertible has determinant zero."""


class Unbounded(QlatError):
    """The generators lie in no order: an element of the ring they generate
    has a trace or determinant that is not p-integral.

    ``certificate`` holds the witness: the element, generator "j" or the
    product "i*j" of generators i < j, its invariant ("trace" or
    "determinant") and that invariant's negative valuation.
    """

    def __init__(self, certificate):
        self.certificate = certificate
        super().__init__(
            "element {element} has a {invariant} of valuation {valuation}, "
            "not integral: the generators lie in no order".format_map(certificate)
        )


class NotShiftedEichler(QlatError):
    """A rank-4 order is not an intersection of two maximal orders."""


class UnsupportedField(QlatError):
    """The base field is neither the rationals nor a quadratic field."""


class AlgebraNotSplit(QlatError):
    """The quaternion algebra is not split at a place where it must be."""


class EmbeddingInfeasible(QlatError):
    """Local feasibility fails at some place: no embedding into the genus.

    ``place`` identifies the offending place (its CLI key string).
    """

    def __init__(self, place: str, detail: str = ""):
        self.place = place
        msg = f"no embedding: local feasibility fails at place {place}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)

