"""Independent brute-force oracles for the test suite.

Everything here enumerates candidate selections or whole hosts directly,
without the packed-line kernel, the sweep, or the branch-and-bound code
paths.  Deliberately slow and simple.
"""

from itertools import combinations, product

from satmat import CrossSectionSpec, Matrix01, Shape, shell


def all_selections(host: Shape, pattern: Shape):
    """Every per-dimension 1-based increasing index selection, lex order."""
    return product(
        *(
            combinations(range(1, n + 1), l)
            for n, l in zip(host.extents, pattern.extents)
        )
    )


def selection_valid(m: Matrix01, p: Matrix01, sels) -> bool:
    d = m.shape.d
    return all(
        m.get(tuple(sels[i][q[i] - 1] for i in range(d))) for q in p.iter_ones()
    )


def brute_contains(m: Matrix01, p: Matrix01):
    """Lexicographically first valid selection, or None."""
    if m.shape.d != p.shape.d:
        raise ValueError("dimension mismatch")
    if any(l > n for l, n in zip(p.shape.extents, m.shape.extents)):
        return None
    for sels in all_selections(m.shape, p.shape):
        if selection_valid(m, p, sels):
            return sels
    return None


def brute_anchored(m: Matrix01, p: Matrix01, anchor):
    """Least selection that picks the anchor and maps it to a pattern 1."""
    if any(l > n for l, n in zip(p.shape.extents, m.shape.extents)):
        return None
    d = m.shape.d
    for sels in all_selections(m.shape, p.shape):
        if any(anchor[i] not in sels[i] for i in range(d)):
            continue
        o = tuple(sels[i].index(anchor[i]) + 1 for i in range(d))
        if p.get(o) and selection_valid(m, p, sels):
            return sels
    return None


def brute_flip_creates_new_copy(m: Matrix01, p: Matrix01, z) -> bool:
    return brute_anchored(m.flip(z), p, z) is not None


def brute_is_saturating(m: Matrix01, p: Matrix01) -> bool:
    if p.weight == 0:
        return m.weight == 0
    if brute_contains(m, p) is not None:
        return False
    return all(
        brute_contains(m.flip(z), p) is not None for z in m.iter_zeros()
    )


def brute_is_semisaturating(m: Matrix01, p: Matrix01) -> bool:
    if p.weight == 0:
        return True
    return all(brute_flip_creates_new_copy(m, p, z) for z in m.iter_zeros())


def brute_property_i(p: Matrix01):
    """First failing face by walking cross-section cells, or None.

    Every (dims, values) face spec with at least one free dimension, values
    drawn from {1, n_i}, in order of pinned-dimension count, then dims, then
    values.  A face passes when one of its 1-entries o is the only 1-entry
    of the cross section pinning j at o_j, for every free dimension j.
    """
    shape, d = p.shape, p.shape.d
    specs = set()
    for dims in product((False, True), repeat=d):
        pinned = [i + 1 for i in range(d) if dims[i]]
        if not 0 < len(pinned) < d:
            continue
        for values in product(*((1, shape.extents[i - 1]) for i in pinned)):
            specs.add((len(pinned), tuple(pinned), values))
    for _, dims, values in sorted(specs):
        face = CrossSectionSpec(tuple(zip(dims, values)))
        free = [j for j in range(1, d + 1) if j not in dims]

        def lone(o, j):
            line = CrossSectionSpec(((j, o[j - 1]),))
            return sum(p.get(c) for c in line.cells(shape)) == 1

        if not any(
            p.get(o) and all(lone(o, j) for j in free) for o in face.cells(shape)
        ):
            return face
    return None


def brute_block_cap(block_cells, shape: Shape, p: Matrix01) -> int:
    """Largest subset of one block with no copy of p, over all its subsets.

    A host whose 1s are the subset holds only copies lying inside the block.
    """
    cells = list(block_cells)
    best = 0
    for bits in range(1 << len(cells)):
        chosen = [c for i, c in enumerate(cells) if bits >> i & 1]
        if len(chosen) > best and brute_contains(Matrix01.from_ones(shape, chosen), p) is None:
            best = len(chosen)
    return best


def _host_where(shape: Shape, is_one) -> Matrix01:
    return Matrix01.from_ones(shape, [c for c in shape.cells() if is_one(c)])


def brute_offset_block(p: Matrix01, n: int, anchor) -> Matrix01:
    """Cell x is 0 iff a_i <= x_i <= n - (l_i - a_i) for every i."""
    l = p.shape.extents
    return _host_where(
        Shape((n,) * p.shape.d),
        lambda x: not all(a <= xi <= n - (li - a) for xi, a, li in zip(x, anchor, l)),
    )


def brute_identity_layers(shape: Shape, k: int) -> Matrix01:
    """Cell x is 1 iff x_i > n_i - k for some i."""
    return _host_where(
        shape, lambda x: any(xi > n - k for xi, n in zip(x, shape.extents))
    )


def brute_corner_block(p: Matrix01, n: int) -> Matrix01:
    """Cell x is 1 iff x_i < l_i or x_i > n + 1 - l_i for every i."""
    l = p.shape.extents
    return _host_where(
        Shape((n,) * p.shape.d),
        lambda x: all(xi < li or xi > n + 1 - li for xi, li in zip(x, l)),
    )


def brute_corner_only_shell(p: Matrix01) -> bool:
    """The all-max corner is a 1 and no other cell of ``shell`` is."""
    corner = p.shape.extents
    return bool(p.get(corner)) and all(
        c == corner or not p.get(c) for c in shell(p.shape)
    )


def all_matrices(shape: Shape):
    for bits in range(1 << shape.cell_count):
        yield Matrix01(shape, bits)


def _bit_string(m: Matrix01):
    return tuple((m.bits >> k) & 1 for k in range(m.shape.cell_count))


def brute_exact_values(shape: Shape, p: Matrix01):
    """(ssat, sat, ex) plus the canonical witnesses, by scanning all hosts.

    Canonical witness: among the optima, the lexicographically least
    row-major cell string.
    """
    ssat_opt = sat_opt = ex_opt = None
    ssat_w = sat_w = ex_w = None
    for m in all_matrices(shape):
        if brute_is_semisaturating(m, p):
            key = (m.weight, _bit_string(m))
            if ssat_opt is None or key < ssat_opt:
                ssat_opt, ssat_w = key, m
        if brute_is_saturating(m, p):
            key = (m.weight, _bit_string(m))
            if sat_opt is None or key < sat_opt:
                sat_opt, sat_w = key, m
        if brute_contains(m, p) is None:
            key = (-m.weight, _bit_string(m))
            if ex_opt is None or key < ex_opt:
                ex_opt, ex_w = key, m
    return (ssat_opt[0], ssat_w), (sat_opt[0], sat_w), (-ex_opt[0], ex_w)
