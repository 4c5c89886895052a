"""Classification of patterns with bounded semisaturation.

A pattern has a constant-weight semisaturating family exactly when both of
the following hold:

(i)  for every proper face dimension, every face contains a 1-entry that is
     the only 1-entry in each full-codimension-one cross section orthogonal
     to the face through it, and
(ii) some 1-entry is the only 1-entry in every codimension-one cross
     section it belongs to.

When both hold the corner-band construction witnesses the constant bound;
when either fails, the semisaturation weight grows at least linearly.
Witnesses are deterministic: property (ii) reports the row-major-first
qualifying entry, property (i) the canonically-first failing face.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb
from operator import itemgetter

from .containment import ENUMERATION_LIMIT
from .core import Coord, CrossSectionSpec, Matrix01, iter_faces


@dataclass(frozen=True)
class SsatVerdict:
    bounded: bool
    property_i_holds: bool
    property_ii_holds: bool
    failing_face: CrossSectionSpec | None = None
    witness_entry: Coord | None = None


def _require_nonzero(p: Matrix01) -> None:
    if p.weight == 0:
        raise ValueError("pattern has no 1-entries")


def _hyperplane_counts(p: Matrix01) -> list[list[int]]:
    """counts[i][v-1] = number of 1-entries with coordinate i+1 equal to v."""
    counts = [[0] * n for n in p.shape.extents]
    for c in p.iter_ones():
        for i, x in enumerate(c):
            counts[i][x - 1] += 1
    return counts


def lone_in_hyperplane(p: Matrix01, o: Coord, i: int) -> bool:
    """Is o the only 1-entry of the cross section pinning dimension i at o_i?"""
    if not p.shape.in_bounds(o) or not p.get(o):
        raise ValueError(f"{o} is not a 1-entry")
    if not 1 <= i <= p.shape.d:
        raise ValueError(f"dimension {i} out of range")
    return sum(1 for c in p.iter_ones() if c[i - 1] == o[i - 1]) == 1


def _first_lone_entry(p: Matrix01, pinned: int) -> Coord | None:
    """Row-major-first 1-entry alone in each cross section pinning ``pinned`` dims."""
    ones = list(p.iter_ones())
    keys = [itemgetter(*dims) for dims in combinations(range(p.shape.d), pinned)]
    sections = [(key, Counter(map(key, ones))) for key in keys]
    for o in ones:
        if all(hits[key(o)] == 1 for key, hits in sections):
            return o
    return None


def property_ii(p: Matrix01) -> Coord | None:
    """Row-major-first 1-entry lone in every codimension-one cross section."""
    _require_nonzero(p)
    return _first_lone_entry(p, 1)


def property_i(p: Matrix01) -> CrossSectionSpec | None:
    """First failing face, or None when every face passes.

    Faces come from ``iter_faces`` for face dimension d-1 down to 1, i.e.
    ordered by the number of pinned dimensions, then lexicographically by
    (dims, values).
    A face passes when it contains a 1-entry o such that for every free
    dimension j the cross section pinning j at o_j holds exactly one 1-entry
    of the whole pattern.  Vacuously passes in one dimension.
    """
    _require_nonzero(p)
    # the one entry of a 1-cell pattern lies on every face and is alone in
    # every cross section, so all 2^d - 2 faces pass without a walk
    if p.shape.cell_count == 1:
        return None
    d = p.shape.d
    counts = _hyperplane_counts(p)
    ones = list(p.iter_ones())
    for dprime in range(d - 1, 0, -1):
        for face in iter_faces(p.shape, dprime):
            free = face.free_dims(d)
            if not any(
                all(o[i - 1] == v for i, v in face.fixed)
                and all(counts[j - 1][o[j - 1] - 1] == 1 for j in free)
                for o in ones
            ):
                return face
    return None


def lone_entry_condition(p: Matrix01, dprime: int) -> Coord | None:
    """First 1-entry alone in every dprime-dimensional cross section through it.

    Absence certifies that every semisaturating host needs weight growing
    like n^(d - dprime).  There is one cross-section count per set of
    d - dprime pinned dimensions; more than ``ENUMERATION_LIMIT`` of them
    raise ValueError before any is built.
    """
    _require_nonzero(p)
    d = p.shape.d
    if not 1 <= dprime < d:
        raise ValueError(f"dprime must be in [1, {d - 1}]")
    sets = comb(d, d - dprime)
    if sets > ENUMERATION_LIMIT:
        raise ValueError(
            f"{sets} sets of pinned dimensions exceeds the enumeration cap "
            f"{ENUMERATION_LIMIT}"
        )
    return _first_lone_entry(p, d - dprime)


def classify_ssat(p: Matrix01) -> SsatVerdict:
    """Combine both properties; bounded iff they hold together.

    When bounded, the corner-band construction gives the constant-weight
    witnesses; otherwise the semisaturation weight is unbounded in the host
    extent.
    """
    _require_nonzero(p)
    face = property_i(p)
    entry = property_ii(p)
    return SsatVerdict(
        bounded=face is None and entry is not None,
        property_i_holds=face is None,
        property_ii_holds=entry is not None,
        failing_face=face,
        witness_entry=entry,
    )
