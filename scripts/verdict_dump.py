#!/usr/bin/env python3
"""Print the verdict reports of seeded instances, to compare two satmat versions.

Each line is the repr of one tuple: the path ("sweep" or "per-flip"), the
verdict ("sat" or "ssat"), the host (extents, bits), the pattern (extents,
bits), then the report: verdict, failure kind and counterexample (a 1-based
cell, or an embedding's selections).  The instances are seeded random hosts
and patterns with d in {1, 2, 3}, at most 5 per host extent and 3 per pattern
extent, at several densities; the full dump adds 30 swept hosts with one
long dimension (``long_instances``) and 80 offset blocks of C05's patterns
on n^d hosts for n = 5, 6 and d = 2, 3, each also with one cell flipped
(``offset_instances``).  Every instance is answered twice: first as the
library chooses (the whole-selection sweep at these sizes), then with
``saturation.SWEEP_LIMIT`` forced to -1, so every verdict takes the
per-flip path.  Then the "rows" section answers the seeded instances
again, each right after an ``exact_ssat`` on its (shape, pattern), stopped
by a node limit at its first branch-and-bound node: the search's rows are
built by then, and a version that keeps them answers from them while they
fit its bound (an all-zero pattern runs no search).  Run on a version
without them, the section repeats the table path, so comparing two versions
compares the two.  Last, the "large" section answers larger hosts with
``SWEEP_LIMIT`` forced to -1: corner blocks, nested layers and greedy hosts
of I2, I3 and I4 on 2-D hosts and of I2 on 3-D ones, each also with one
1-cell and one 0-cell flipped (``large_instances``).  Their per-flip
verdicts run long stretches of productive flips, where one flip's copy
usually still answers the next.  A change that keeps every report leaves
the dump byte-identical:

    PYTHONPATH=src python3 scripts/verdict_dump.py > new.txt
    PYTHONPATH=../parent/src python3 scripts/verdict_dump.py > old.txt
    cmp old.txt new.txt

Only the standard library and satmat are used.  --small runs a subset in
well under a second.
"""

import argparse
import random
from itertools import product
from math import prod

import satmat.saturation as saturation
from satmat import (
    BudgetExceededError,
    Embedding,
    Matrix01,
    SearchBudget,
    Shape,
    cell_order,
    corner_block,
    embeddings_count,
    exact_ssat,
    greedy_saturate,
    identity_layers,
    identity_pattern,
    is_saturating,
    is_semisaturating,
    offset_block,
)

VERDICTS = {"sat": is_saturating, "ssat": is_semisaturating}
DENSITIES = (0.2, 0.5, 0.8)


def instances(count):
    """(host, pattern) pairs of equal dimension; some patterns do not fit."""
    rng = random.Random(1)
    out = []
    for i in range(count):
        d = 1 + i % 3
        host = Shape(tuple(rng.randrange(1, 6) for _ in range(d)))
        pattern = Shape(tuple(rng.randrange(1, 4) for _ in range(d)))
        density = DENSITIES[i // 3 % len(DENSITIES)]
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


def long_instances(count):
    """Swept pairs whose hosts have one long dimension: 1-D hosts of 40-250
    cells, or 2-D hosts of 2-3 rows by 40-120 columns, against patterns of
    extent at most 3 with 2 or 3 ones, kept only if the default switch sweeps
    them."""
    rng = random.Random(2)
    out = []
    while len(out) < count:
        if rng.random() < 0.5:
            host = Shape((rng.randrange(40, 251),))
        else:
            host = Shape((rng.randrange(2, 4), rng.randrange(40, 121)))
        pattern = Shape(tuple(rng.randrange(1, min(n, 3) + 1) for n in host.extents))
        if pattern.cell_count < 2:
            continue
        k = rng.randrange(2, min(pattern.cell_count, 3) + 1)
        ones = rng.sample(range(pattern.cell_count), k)
        density = DENSITIES[len(out) % len(DENSITIES)]
        bits = sum(
            1 << c for c in range(host.cell_count) if rng.random() < density
        )
        m, p = Matrix01(host, bits), Matrix01(pattern, sum(1 << c for c in ones))
        zeros = host.cell_count - m.weight
        if embeddings_count(host, p) * host.cell_count <= saturation.SWEEP_LIMIT * (zeros + 1):
            out.append((m, p))
    return out


def offset_instances(count):
    """Offset blocks of C05's patterns (2-D and 3-D, at most 8 cells and
    extent 5), count // 4 for each of d = 2, 3 and n = 5, 6, each block
    followed by the block with one cell flipped: a 0-cell or a 1-cell in
    turn, where the block has one."""
    rng = random.Random(3)
    out = []
    for d, n in product((2, 3), (5, 6)):
        shapes = [Shape(ext) for ext in product(range(1, 6), repeat=d)
                  if prod(ext) <= 8 and max(ext) <= n]
        for i in range(count // 4):
            shape = rng.choice(shapes)
            p = Matrix01(shape, rng.randrange(1, 1 << shape.cell_count))
            m = offset_block(p, n, rng.choice(list(p.iter_ones())))
            cells = [c for c in m.shape.cells() if m.get(c) == i % 2] or [(1,) * d]
            out += [(m, p), (m.flip(rng.choice(cells)), p)]
    return out


def large_instances(small):
    """Per size s of I_s in 2, 3, 4 on n×n hosts (n = 9, or 9 and 12), and
    for I2 on 4^3 (and 5^3): the corner block (2-D only), the nested layers
    and a greedy host in a seeded cell order, each followed by the host with
    a seeded 1-cell and a seeded 0-cell flipped."""
    rng = random.Random(4)
    sizes = [(s, 2, n) for s in (2, 3, 4) for n in ((9,) if small else (9, 12))]
    sizes += [(2, 3, n) for n in ((4,) if small else (4, 5))]
    out = []
    for s, d, n in sizes:
        shape, p = Shape((n,) * d), identity_pattern(d, s)
        hosts = [corner_block(p, n)] if d == 2 else []
        hosts += [identity_layers(shape, s - 1),
                  greedy_saturate(p, shape, cell_order(shape, rng.randrange(1 << 30)))]
        for m in hosts:
            out += [(m, p), (m.flip(rng.choice(list(m.iter_ones()))), p),
                    (m.flip(rng.choice(list(m.iter_zeros()))), p)]
    return out


def line(path, name, m, p):
    rep = VERDICTS[name](m, p)
    cx = rep.counterexample
    if isinstance(cx, Embedding):
        cx = cx.selections
    return repr(
        (
            path,
            name,
            (m.shape.extents, m.bits),
            (p.shape.extents, p.bits),
            rep.verdict,
            rep.failure_kind,
            cx,
        )
    )


def search_set_up(shape, p):
    """``exact_ssat`` on (shape, p), stopped at its first branch-and-bound
    node: each selection counts as a node of the set-up."""
    count = embeddings_count(shape, p)
    try:
        exact_ssat(shape, p, SearchBudget(max_cells=shape.cell_count, node_limit=count))
    except BudgetExceededError:
        pass


def dump(small):
    seeded = instances(60 if small else 4000)
    pairs = seeded if small else seeded + long_instances(30) + offset_instances(80)
    for path, limit in (("sweep", saturation.SWEEP_LIMIT), ("per-flip", -1)):
        saved = saturation.SWEEP_LIMIT
        saturation.SWEEP_LIMIT = limit
        try:
            for m, p in pairs:
                for name in VERDICTS:
                    yield line(path, name, m, p)
        finally:
            saturation.SWEEP_LIMIT = saved
    for m, p in seeded:
        if p.weight:
            search_set_up(m.shape, p)
        for name in VERDICTS:
            yield line("rows", name, m, p)
    saved = saturation.SWEEP_LIMIT
    saturation.SWEEP_LIMIT = -1
    try:
        for m, p in large_instances(small):
            for name in VERDICTS:
                yield line("large", name, m, p)
    finally:
        saturation.SWEEP_LIMIT = saved


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--small", action="store_true", help="a sub-second subset")
    args = ap.parse_args(argv)
    for text in dump(args.small):
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
