"""Local spinor images of embeddings into shifted Eichler orders.

Whether an embedding of a quadratic local order exists at a given level d
and depth r, and how large its image in the local norm-class group is, is
decided by one number: the diameter delta of the depth-r branch.  The
branch must contain two vertices at distance d, and the image is the full
group of units-times-squares unless every such pair is pinned at even
displacement, which happens exactly when delta = d with d even.
`image_of_diameter` is that rule, and both layers read it: `spinor_image`
on a branch shape, and `global_classfield.rep_field_comm_quadratic` at
each place, where delta is +oo when the place splits in L and otherwise
core + 2(t - r) for the conductor depth t.  This module loads no other.
"""

from __future__ import annotations

from enum import Enum


class SpinorImage(Enum):
    """Image of the local spinor map on optimal embeddings."""

    NO_EMBEDDING = "no_embedding"
    UNIT_SQUARES = "unit_squares"
    FULL = "full"


def image_of_diameter(delta, d: int) -> SpinorImage:
    """Spinor image at level d of a depth-r branch of diameter delta.

    No pair at distance d when delta < d (an empty branch has diameter
    -oo); the image is everything when d is odd or d < delta; and exactly
    the unit squares when delta = d with d even.
    """
    if delta < d:
        return SpinorImage.NO_EMBEDDING
    if d % 2 == 1 or d < delta:
        return SpinorImage.FULL
    return SpinorImage.UNIT_SQUARES


def spinor_image(branch, d: int, r: int) -> SpinorImage:
    """Spinor image for embeddings at level d, depth r, given the depth-0
    branch shape: `image_of_diameter` of the depth-r branch's diameter."""
    if d < 0 or r < 0:
        raise ValueError("level and depth must be >= 0")
    return image_of_diameter(branch.deepen(r).diameter(), d)
