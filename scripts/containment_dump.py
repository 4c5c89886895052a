#!/usr/bin/env python3
"""Print containment witnesses of seeded instances, to compare two satmat versions.

Each line is the repr of one tuple, in one of five forms:

    ("contains", host, pattern, selections)
    ("anchored", host, pattern, anchor, selections)
    ("potential", host, pattern, cell, entry, bool)
    ("greedy", pattern, host extents, order seed, bits)
    ("flip", host, pattern, cell, selections)

A host or pattern is (extents, bits), selections are the witness
embedding's 1-based index selections or None, an anchor or cell is a
1-based host cell, and an entry is a 1-based pattern cell.  The instances are
seeded random hosts and patterns with d in {1, 2, 3, 4}, at most 6, 5, 4
and 3 per host extent and 3 per pattern extent, at several densities.
Every instance gets ``contains``, ``anchored_contains`` at every 1-cell of
the host and ``potentially_matches`` at every 0-cell of the host and
1-entry of the pattern; every fitting nonzero pattern also gets
``greedy_saturate`` under two seeded visiting orders.
Then hosts saturating an identity pattern, the nested layers and two
greedy hosts each, get every 0-cell flipped, with the anchored witness of
the flipped host at that cell.  On the 3-D and 4-D hosts these searches
cut in the dimensions before the last prefix dimension; the 2-D hosts of
I4 and I5 (full dump only) have flips where several pattern entries can
be pinned, so several pinned searches run per flip.  The anchored rows
hold the cells where more than one of them hits.
A change that keeps every witness leaves the dump byte-identical:

    PYTHONPATH=src python3 scripts/containment_dump.py > new.txt
    PYTHONPATH=../parent/src python3 scripts/containment_dump.py > old.txt
    cmp old.txt new.txt

Only the standard library and satmat are used.  --small runs a subset in
well under a second.
"""

import argparse
import random

from satmat import (
    Matrix01,
    Shape,
    anchored_contains,
    cell_order,
    contains,
    greedy_saturate,
    identity_layers,
    identity_pattern,
    potentially_matches,
)

DENSITIES = (0.3, 0.6, 0.9)
MAX_EXTENT = {1: 6, 2: 5, 3: 4, 4: 3}
ORDER_SEEDS = (1, 2)
# (host extents, k) of the flipped hosts, which saturate the identity
# pattern of extent k + 1: --small flips the True list, the full dump both
FLIP_HOSTS = {
    True: [((4, 5, 4), 1), ((3, 3, 4, 3), 1)],
    False: [
        ((7, 7, 7), 1),
        ((5, 6, 7), 2),
        ((7, 6, 6), 3),
        ((4, 4, 4, 4), 1),
        ((3, 4, 5, 4), 2),
        ((11, 11), 3),
        ((9, 9), 4),
    ],
}


def instances(count):
    """(host, pattern) pairs of equal dimension; some patterns do not fit."""
    rng = random.Random(1)
    out = []
    for i in range(count):
        d = 1 + i % 4
        host = Shape(tuple(rng.randrange(1, MAX_EXTENT[d] + 1) for _ in range(d)))
        pattern = Shape(tuple(rng.randrange(1, 4) for _ in range(d)))
        density = DENSITIES[i // 4 % len(DENSITIES)]
        bits = sum(
            1 << c for c in range(host.cell_count) if rng.random() < density
        )
        out.append(
            (
                Matrix01(host, bits),
                Matrix01(pattern, rng.randrange(1 << pattern.cell_count)),
            )
        )
    return out


def selections(emb):
    return None if emb is None else emb.selections


def rows(m, p):
    host = (m.shape.extents, m.bits)
    pat = (p.shape.extents, p.bits)
    yield ("contains", host, pat, selections(contains(m, p)))
    for a in m.iter_ones():
        yield ("anchored", host, pat, a, selections(anchored_contains(m, p, a)))
    for z in m.iter_zeros():
        for o in p.iter_ones():
            yield ("potential", host, pat, z, o, potentially_matches(m, z, p, o))
    if p.weight and m.shape.fits(p.shape):
        for seed in ORDER_SEEDS:
            order = list(m.shape.cells())
            random.Random(seed).shuffle(order)
            g = greedy_saturate(p, m.shape, order)
            yield ("greedy", pat, m.shape.extents, seed, g.bits)


def flip_rows(m, p):
    host = (m.shape.extents, m.bits)
    pat = (p.shape.extents, p.bits)
    for z in m.iter_zeros():
        yield ("flip", host, pat, z, selections(anchored_contains(m.flip(z), p, z)))


def flip_hosts(small):
    for extents, k in FLIP_HOSTS[True] + ([] if small else FLIP_HOSTS[False]):
        shape = Shape(extents)
        p = identity_pattern(shape.d, k + 1)
        yield identity_layers(shape, k), p
        for seed in ORDER_SEEDS:
            yield greedy_saturate(p, shape, cell_order(shape, seed)), p


def dump(small):
    for m, p in instances(40 if small else 2000):
        for row in rows(m, p):
            yield repr(row)
    for m, p in flip_hosts(small):
        for row in flip_rows(m, p):
            yield repr(row)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--small", action="store_true", help="a sub-second subset")
    args = ap.parse_args(argv)
    for text in dump(args.small):
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
