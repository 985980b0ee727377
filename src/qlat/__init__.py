"""qlat: exact arithmetic for lattice-class trees, local orders in 2x2
matrix algebras, their branches and spinor images, and — over Q and
quadratic fields — spinor class fields and selectivity of suborder genera.

Everything is computed exactly on integers: a rational is an integer
pair, a matrix is integers over one denominator, and no floating point
or `fractions.Fraction` is formed on a request.

Each submodule loads on first use.  ``import qlat`` binds every submodule
without running it, and a module's body runs the first time one of its
attributes is read, whether as ``qlat.ball``, ``qlat.bt_tree.ball`` or
``from qlat.bt_tree import ball``.  So a CLI request runs only the layers
it needs.  That first use is thread-safe only where the lazy loader takes
a lock, as it does from Python 3.13 and 3.12.3 (3.10, 3.11 and earlier
3.12 releases take none); qlat itself starts no thread.
"""

import importlib.util
import sys

# The public names, by home module.
_EXPORTS = {
    "branches": (
        "Empty", "Fan", "Full", "Shape", "ThickApartment", "ThickPath", "ThickRay",
        "branch_of_order", "classify_single", "enumerate_branch", "intersect_shapes",
        "mu_margin", "shape_margin",
    ),
    "bt_tree": (
        "End", "Vertex", "ball", "canonical_vertex", "distance", "export_dot",
        "geodesic", "neighbors", "standard_vertex",
    ),
    "errors": (
        "AlgebraNotSplit", "BudgetExceeded", "EmbeddingInfeasible",
        "InfiniteUnsupported", "NotShiftedEichler", "QlatError", "ResourceLimit",
        "SchemaError", "SingularMatrix", "Unbounded", "UnsupportedField",
    ),
    "exact_padic": ("Mat2", "legendre", "valuation"),
    "global_classfield": (
        "BaseField", "Genus", "PrimeIdeal", "QuatAlgebra", "RepField", "SigmaField",
        "is_local_square", "is_unramified_or_split", "narrow_ray_class_group",
        "parse_place_key", "rep_field_comm_quadratic", "rep_field_rank3",
        "rep_field_rank4", "spinor_class_field",
    ),
    "local_orders": (
        "LocalOrder", "ShiftedEichler", "contains_shifted", "decompose_shifted_eichler",
        "order_closure", "three_maximal_orders",
    ),
    "quadforms": ("ClassGroup", "QForm", "class_group", "prime_form"),
    "spinor_local": ("SpinorImage", "image_of_diameter", "spinor_image"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def _lazy_module(name):
    """The submodule `name`, put in sys.modules but not yet run.

    Its body runs on its first attribute access (the lazy-import recipe of
    the importlib documentation).  getattr() and vars() both count as
    access, so code that rebinds functions module by module, as the span
    tracer of bench/ does, runs each module before it looks inside and
    reaches every binding."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


globals().update({name: _lazy_module(name) for name in _EXPORTS})


def __getattr__(name):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
