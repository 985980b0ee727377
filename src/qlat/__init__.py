"""qlat: exact arithmetic for lattice-class trees, local orders in 2x2
matrix algebras, their branches and spinor images, and — over Q and
quadratic fields — spinor class fields and selectivity of suborder genera.

Everything is computed over exact rationals; no floating point anywhere.

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
        "branch_of_order", "classify_single", "deepen", "diameter", "eichler_envelope",
        "embeds_in_level", "enumerate_branch", "intersect_shapes", "mu_margin",
        "shape_margin", "shape_member",
    ),
    "bt_tree": (
        "End", "Vertex", "ball", "canonical_vertex", "distance", "end_from_vector",
        "export_dot", "geodesic", "neighbors", "standard_vertex",
    ),
    "errors": (
        "AlgebraNotSplit", "BudgetExceeded", "EmbeddingInfeasible", "EmptyShape",
        "InfiniteUnsupported", "NotFinite", "NotShiftedEichler", "QlatError",
        "ResourceLimit", "SchemaError", "SingularMatrix", "Unbounded", "UnsupportedField",
    ),
    "exact_padic": ("Mat2", "legendre", "unit_part", "valuation"),
    "global_classfield": (
        "BaseField", "Genus", "PrimeIdeal", "QuatAlgebra", "RepField", "SigmaField",
        "is_local_square", "is_unramified_or_split", "narrow_ray_class_group",
        "parse_place_key", "rep_field_comm_quadratic", "rep_field_rank3",
        "rep_field_rank4", "selectivity_ratio", "spinor_class_field",
    ),
    "local_orders": (
        "LocalOrder", "ShiftedEichler", "contains_shifted", "decompose_shifted_eichler",
        "has_unramified_residue_field", "order_closure", "shift_order",
        "three_maximal_orders",
    ),
    "quadforms": ("ClassGroup", "QForm", "class_group", "prime_form"),
    "spinor_local": ("SpinorImage", "spinor_image"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


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

__all__ = [
    "AlgebraNotSplit",
    "BaseField",
    "BudgetExceeded",
    "ClassGroup",
    "EmbeddingInfeasible",
    "Empty",
    "EmptyShape",
    "End",
    "Fan",
    "Full",
    "Genus",
    "InfiniteUnsupported",
    "LocalOrder",
    "Mat2",
    "NotFinite",
    "NotShiftedEichler",
    "PrimeIdeal",
    "QForm",
    "QlatError",
    "QuatAlgebra",
    "RepField",
    "ResourceLimit",
    "SchemaError",
    "Shape",
    "ShiftedEichler",
    "SigmaField",
    "SingularMatrix",
    "SpinorImage",
    "ThickApartment",
    "ThickPath",
    "ThickRay",
    "Unbounded",
    "UnsupportedField",
    "Vertex",
    "ball",
    "branch_of_order",
    "canonical_vertex",
    "class_group",
    "classify_single",
    "contains_shifted",
    "decompose_shifted_eichler",
    "deepen",
    "diameter",
    "distance",
    "eichler_envelope",
    "embeds_in_level",
    "end_from_vector",
    "enumerate_branch",
    "export_dot",
    "geodesic",
    "has_unramified_residue_field",
    "intersect_shapes",
    "is_local_square",
    "is_unramified_or_split",
    "legendre",
    "mu_margin",
    "narrow_ray_class_group",
    "neighbors",
    "order_closure",
    "parse_place_key",
    "prime_form",
    "rep_field_comm_quadratic",
    "rep_field_rank3",
    "rep_field_rank4",
    "selectivity_ratio",
    "shape_margin",
    "shape_member",
    "shift_order",
    "spinor_class_field",
    "spinor_image",
    "standard_vertex",
    "three_maximal_orders",
    "unit_part",
    "valuation",
]
