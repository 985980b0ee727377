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
from .errors import EmptyShape


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

