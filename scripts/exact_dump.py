#!/usr/bin/env python3
"""Print one line per exact search, to compare two versions of satmat.

Each line is the repr of one tuple: the call (quantity, host extents,
(pattern extents, pattern bits), node limit), then the answer (value,
witness bits, nodes) or, on a budget abort, (nodes, bounds, reason).  The
calls are the named identity instances and the 3x1 all-one column on 4x4
and 5x5, ssat over the unbounded 2-D patterns up to 3x3 (C07) at n in
{2, 3, 4}, seeded random instances (d in {1, 2, 3}, at most 14 host
cells), and node-capped aborts of the named instances.  A change that
keeps every value, witness, node count and abort bound leaves the dump
byte-identical:

    PYTHONPATH=src python3 scripts/exact_dump.py > new.txt
    PYTHONPATH=../parent/src python3 scripts/exact_dump.py > old.txt
    cmp old.txt new.txt

--no-nodes prints only the searches run without a node cap, each as (call,
value, witness bits): a change that reshapes the search tree but keeps
every value and witness leaves that dump byte-identical.  Only the standard
library and satmat are used.  --small runs a subset in under a second.
"""

import argparse
import random
from math import prod

from satmat import (
    BudgetExceededError,
    Matrix01,
    SearchBudget,
    Shape,
    classify_ssat,
    exact_ex,
    exact_sat,
    exact_ssat,
    identity_pattern,
)

SEARCHES = {"ex": exact_ex, "sat": exact_sat, "ssat": exact_ssat}
NODE_LIMITS = (1, 10, 50, 200, 1000, 5000)


def named(small):
    """(host extents, pattern) for the identity instances and the column."""
    col = Matrix01.filled(Shape((3, 1)))
    instances = [
        ((4, 4), identity_pattern(2, 2)),
        ((5, 5), identity_pattern(2, 2)),
        ((6, 6), identity_pattern(2, 2)),
        ((5, 5), identity_pattern(2, 3)),
        ((2, 2, 3), identity_pattern(3, 2)),
        ((3, 3, 3), identity_pattern(3, 2)),
        ((3, 3, 4), identity_pattern(3, 2)),
        ((4, 4), col),
        ((5, 5), col),
    ]
    return [instances[0], instances[4]] if small else instances


def c07_patterns(small):
    """The unbounded 2-D patterns up to 3x3, in a fixed order."""
    found = []
    for l1 in range(1, 4):
        for l2 in range(1, 4):
            shape = Shape((l1, l2))
            for bits in range(1, 1 << shape.cell_count):
                p = Matrix01(shape, bits)
                if not classify_ssat(p).bounded:
                    found.append(p)
    return found[::40] if small else found


def random_instances(count):
    """(host extents, pattern) pairs with at most 14 host cells."""
    rng = random.Random(1)
    out = []
    while len(out) < count:
        d = rng.randrange(1, 4)
        ext = tuple(rng.randrange(1, 6) for _ in range(d))
        if prod(ext) > 14:
            continue
        pext = tuple(rng.randrange(1, n + 1) for n in ext)
        pshape = Shape(pext)
        if pshape.cell_count > 6:
            continue
        bits = rng.randrange(1, 1 << pshape.cell_count)
        out.append((ext, Matrix01(pshape, bits)))
    return out


def line(quantity, ext, p, max_cells, node_limit=None, nodes=True):
    shape = Shape(ext)
    call = (quantity, ext, (p.shape.extents, p.bits), node_limit)
    budget = SearchBudget(max_cells=max_cells, node_limit=node_limit)
    try:
        r = SEARCHES[quantity](shape, p, budget)
    except BudgetExceededError as err:
        return repr(call + (err.nodes, err.bounds, str(err)))
    return repr(call + (r.value, r.witness.bits) + ((r.nodes,) if nodes else ()))


def dump(small, nodes=True):
    instances = named(small)
    for ext, p in instances:
        for q in SEARCHES:
            yield line(q, ext, p, prod(ext), nodes=nodes)
    for p in c07_patterns(small):
        for n in (2, 3, 4):
            yield line("ssat", (n, n), p, 16, nodes=nodes)
    for ext, p in random_instances(40 if small else 1200):
        for q in SEARCHES:
            yield line(q, ext, p, prod(ext), nodes=nodes)
    if not nodes:
        return
    for ext, p in instances:
        for limit in NODE_LIMITS:
            for q in SEARCHES:
                yield line(q, ext, p, prod(ext), limit)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--small", action="store_true", help="a sub-second subset")
    ap.add_argument(
        "--no-nodes",
        action="store_true",
        help="only the searches without a node cap, without node counts",
    )
    args = ap.parse_args(argv)
    for text in dump(args.small, nodes=not args.no_nodes):
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
