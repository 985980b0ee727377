"""Local spinor images of embeddings into shifted Eichler orders.

Whether an embedding of a quadratic local order exists at a given level d
and depth r, and how large its image in the local norm-class group is, is
decided entirely by the deepened branch shape: the branch must contain two
vertices at distance d, and the image is the full group of units-times-
squares unless every such pair is pinned at even displacement, which
happens exactly when the deepened diameter equals d with d even.
"""

from __future__ import annotations

from enum import Enum

from .branches import Shape
from .bt_tree import Vertex, distance
from .errors import AnchorInvalid, EmptyShape


class SpinorImage(Enum):
    """Image of the local spinor map on optimal embeddings."""

    NO_EMBEDDING = "no_embedding"
    UNIT_SQUARES = "unit_squares"
    FULL = "full"


def spinor_image(branch: Shape, d: int, r: int) -> SpinorImage:
    """Spinor image for embeddings at level d, depth r, given a depth-0 branch.

    The decision uses only the diameter delta of the depth-r branch:
    no pair at distance d when the branch is empty or delta < d; the image
    is everything when d is odd or d < delta; and exactly the unit squares
    when delta = d with d even.
    """
    if d < 0 or r < 0:
        raise ValueError("level and depth must be >= 0")
    try:
        delta = branch.deepen(r).diameter()
    except EmptyShape:
        return SpinorImage.NO_EMBEDDING
    if delta < d:
        return SpinorImage.NO_EMBEDDING
    if d % 2 == 1 or d < delta:
        return SpinorImage.FULL
    return SpinorImage.UNIT_SQUARES


def odd_pair_oracle(vertices, d: int, anchor: tuple[Vertex, Vertex]) -> bool:
    """Reference decision on an enumerated branch: is there a vertex pair at
    distance d displaced oddly from the anchor pair?

    The anchor must itself be a pair of branch vertices at distance d
    (otherwise AnchorInvalid).  Spinor images beyond the unit squares exist
    exactly when some realizing pair sits at odd distance from the anchor.
    """
    vs = sorted(set(vertices))
    a0, a1 = anchor
    if a0 not in set(vs) or a1 not in set(vs) or distance(a0, a1) != d:
        raise AnchorInvalid(f"anchor pair is not a distance-{d} pair of the set")
    for x in vs:
        dx = distance(a0, x)
        for y in vs:
            if distance(x, y) == d and dx % 2 == 1:
                return True
    return False
