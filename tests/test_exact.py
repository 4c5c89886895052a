import random
import sys
import time
from math import prod

import pytest
from hypothesis import assume, example, given

import oracles
from conftest import host_and_pattern
from satmat import (
    BudgetExceededError,
    Matrix01,
    SearchBudget,
    Shape,
    avoids,
    contains,
    diagonals,
    exact_ex,
    exact_sat,
    exact_ssat,
    identity_pattern,
    is_saturating,
    is_semisaturating,
    verify_recurrence,
)
from satmat import exact

I2 = identity_pattern(2, 2)
I3 = identity_pattern(2, 3)


class TestKnownValues:
    def test_identity_square(self):
        s = Shape((3, 3))
        assert exact_ex(s, I2).value == 5
        assert exact_sat(s, I2).value == 5

    def test_identity_cube(self):
        s = Shape((2, 2, 2))
        p = identity_pattern(3, 2)
        assert exact_ex(s, p).value == 7
        assert exact_sat(s, p).value == 7

    def test_small_sat(self):
        assert exact_sat(Shape((2, 2)), I2).value == 3

    def test_all_ones_pattern(self):
        j2 = Matrix01.filled(Shape((2, 2)))
        assert exact_ex(Shape((2, 2)), j2).value == 3
        assert exact_ssat(Shape((2, 2)), j2).value == 3

    def test_ssat_single_entry_pattern(self):
        p = Matrix01.from_nested([[1]])
        for n in (2, 3, 4):
            res = exact_ssat(Shape((n, n)), p)
            assert res.value == 0
            assert res.witness.weight == 0

    def test_ssat_identity_regression(self):
        # frozen after exhaustive enumeration over all 512 hosts
        res = exact_ssat(Shape((3, 3)), I2)
        assert res.value == 4
        assert sorted(res.witness.iter_ones()) == [(1, 1), (1, 3), (3, 1), (3, 3)]


class TestBruteForceAgreement:
    CASES = [
        ((2, 2), [[1, 0], [0, 1]]),
        ((3, 3), [[1, 0], [0, 1]]),
        ((3, 3), [[1, 1], [0, 1]]),
        ((2, 4), [[1, 1]]),
        ((3, 3), [[1], [1]]),
        ((2, 2, 2), [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]),
        ((2, 2, 2), [[[1, 1], [0, 0]]]),
        ((9,), [1, 0, 1]),
        ((3, 3), [[0, 1], [1, 0]]),
        ((2, 3), [[1, 1, 1]]),
    ]

    @pytest.mark.parametrize("host_ext,pattern", CASES)
    def test_values_and_canonical_witnesses(self, host_ext, pattern):
        shape = Shape(host_ext)
        p = Matrix01.from_nested(pattern)
        (b_ssat, b_ssat_w), (b_sat, b_sat_w), (b_ex, b_ex_w) = (
            oracles.brute_exact_values(shape, p)
        )
        r_ssat = exact_ssat(shape, p)
        r_sat = exact_sat(shape, p)
        r_ex = exact_ex(shape, p)
        assert r_ssat.value == b_ssat
        assert r_sat.value == b_sat
        assert r_ex.value == b_ex
        # canonical witness: lexicographically least optimum, bit for bit
        assert r_ssat.witness == b_ssat_w
        assert r_sat.witness == b_sat_w
        assert r_ex.witness == b_ex_w

    def test_random_instances(self):
        rng = random.Random(19)
        for _ in range(12):
            d = rng.choice((1, 2))
            ext = tuple(rng.randint(1, 3) for _ in range(d))
            shape = Shape(ext)
            if shape.cell_count > 9:
                continue
            pext = tuple(rng.randint(1, 2) for _ in range(d))
            pshape = Shape(pext)
            p = Matrix01(pshape, rng.randrange(1, 1 << pshape.cell_count))
            (b_ssat, _), (b_sat, _), (b_ex, _) = oracles.brute_exact_values(shape, p)
            assert exact_ssat(shape, p).value == b_ssat
            assert exact_sat(shape, p).value == b_sat
            assert exact_ex(shape, p).value == b_ex

    @given(host_and_pattern(max_host_cells=10, nonzero=True))
    # non-fitting: every cell is forced to 1
    @example((Matrix01.zeros(Shape((2, 2))), I3))
    # the identity pattern on a square host, where sat equals ex
    @example((Matrix01.zeros(Shape((3, 3))), I2))
    @example((Matrix01.zeros(Shape((10,))), Matrix01.from_nested([1, 0, 1])))
    @example((Matrix01.zeros(Shape((2, 2, 2))), identity_pattern(3, 2)))
    def test_canonical_witnesses_across_dimensions(self, pair):
        host, p = pair
        shape = host.shape
        expected = oracles.brute_exact_values(shape, p)
        for fn, (value, witness) in zip((exact_ssat, exact_sat, exact_ex), expected):
            res = fn(shape, p)
            assert (res.value, res.witness) == (value, witness), fn.__name__


class TestWitnessValidity:
    def test_witnesses_verify(self):
        rng = random.Random(3)
        for _ in range(10):
            d = rng.choice((2, 3))
            ext = tuple(rng.randint(1, 4) for _ in range(d))
            shape = Shape(ext)
            if shape.cell_count > 16:
                continue
            pshape = Shape(tuple(rng.randint(1, 2) for _ in range(d)))
            p = Matrix01(pshape, rng.randrange(1, 1 << pshape.cell_count))
            budget = SearchBudget(max_cells=16)
            ssat = exact_ssat(shape, p, budget)
            sat = exact_sat(shape, p, budget)
            ex = exact_ex(shape, p, budget)
            assert ssat.value <= sat.value <= ex.value
            assert is_semisaturating(ssat.witness, p).verdict
            assert is_saturating(sat.witness, p).verdict
            assert avoids(ex.witness, p)


class TestEdgeCases:
    def test_nonfitting_pattern(self):
        shape = Shape((2, 2))
        p = Matrix01.from_ones(Shape((3, 3)), [(1, 1)])
        for fn in (exact_ex, exact_sat, exact_ssat):
            res = fn(shape, p)
            assert res.value == 4
            assert res.witness == Matrix01.filled(shape)

    def test_zero_pattern_rejected(self):
        with pytest.raises(ValueError):
            exact_ex(Shape((2, 2)), Matrix01.zeros(Shape((2, 2))))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            exact_ex(Shape((2, 2)), identity_pattern(3, 2))

    def test_determinism(self):
        a = exact_sat(Shape((3, 3)), I2)
        b = exact_sat(Shape((3, 3)), I2)
        assert a == b


class TestBudgets:
    def test_cell_cap(self):
        with pytest.raises(BudgetExceededError):
            exact_ssat(Shape((5, 4)), I2)  # 20 > 16 default
        with pytest.raises(BudgetExceededError):
            exact_ex(Shape((6, 6)), I2)  # 36 > 30 default
        # explicit budget lifts the default
        assert exact_ssat(Shape((5, 4)), I2, SearchBudget(max_cells=20)).value >= 1

    def test_node_cap(self):
        with pytest.raises(BudgetExceededError) as err:
            exact_ex(Shape((4, 4)), I2, SearchBudget(node_limit=5))
        assert err.value.nodes > 0

    def test_time_cap(self):
        with pytest.raises(BudgetExceededError):
            exact_ex(Shape((5, 5)), I2, SearchBudget(max_cells=25, time_limit=0.0))

    def test_bad_budgets_are_rejected(self):
        # a NaN or negative budget is an input error, not a search without
        # a budget or one refused by it; zero and infinity stay valid
        for name in ("max_cells", "time_limit", "node_limit"):
            for bad in (-3, float("nan")):
                with pytest.raises(ValueError, match=name):
                    SearchBudget(**{name: bad})
        inf = float("inf")
        endless = SearchBudget(max_cells=inf, time_limit=inf, node_limit=inf)
        assert exact_sat(Shape((3, 3)), I2, endless).value == 5
        with pytest.raises(BudgetExceededError, match="budget of 0"):
            exact_sat(Shape((3, 3)), I2, SearchBudget(max_cells=0))

    def test_node_cap_bounds_table_construction(self):
        # the selection enumeration itself counts against the node budget
        p = Matrix01.from_nested([1, 1, 1, 1, 1])
        with pytest.raises(BudgetExceededError):
            exact_ssat(Shape((16,)), p, SearchBudget(node_limit=10))

    def test_time_budget_covers_the_whole_search(self):
        # every step runs under the meter, so a tiny time limit on a large
        # host aborts at once instead of after a pass outside the budget
        budget = SearchBudget(max_cells=784, time_limit=0.01)
        for fn in (exact_sat, exact_ex):
            start = time.monotonic()
            with pytest.raises(BudgetExceededError):
                fn(Shape((28, 28)), I3, budget)
            assert time.monotonic() - start < 0.1, fn.__name__

    def test_node_cap_just_past_the_tables_aborts_in_the_search(self):
        # I2 on 20x20 has 36,100 images; building the per-cell rows of the
        # search counts no node, so a cap just past the images is reached in
        # the branch and bound, which proves bounds
        limit = 36_100 + 400 + 100
        with pytest.raises(BudgetExceededError, match="node") as err:
            exact_sat(Shape((20, 20)), I2, SearchBudget(max_cells=400, node_limit=limit))
        assert err.value.nodes == limit + 1
        assert err.value.bounds is not None
        assert err.value.bounds[0] == 2

    def test_support_cap(self):
        # I3 on 28x28 has 10.7M selections of 3 cells each: the support
        # table is refused before it is built
        budget = SearchBudget(max_cells=784)
        for fn in (exact_ex, exact_sat, exact_ssat):
            start = time.monotonic()
            with pytest.raises(BudgetExceededError, match="enumeration cap") as err:
                fn(Shape((28, 28)), I3, budget)
            assert time.monotonic() - start < 0.1, fn.__name__
            assert err.value.nodes == 0 and err.value.bounds is None
        # I2 has 285,768 supports there, under the cap: the search starts,
        # and its table building runs under the time budget
        budget = SearchBudget(max_cells=784, node_limit=1)
        with pytest.raises(BudgetExceededError, match="node budget exceeded"):
            exact_sat(Shape((28, 28)), I2, budget)
        start = time.monotonic()
        with pytest.raises(BudgetExceededError, match="time budget exceeded"):
            exact_sat(Shape((28, 28)), I2, SearchBudget(max_cells=784, time_limit=0.01))
        assert time.monotonic() - start < 0.1

    def test_hosts_longer_than_the_recursion_limit(self):
        # the ex capacities search a diagonal in a loop, and a 1-D host is
        # one diagonal: no host is refused for its length
        n = sys.getrecursionlimit() + 1
        unit = Matrix01.from_nested([[1]])
        budget = SearchBudget(max_cells=n)
        assert exact_ex(Shape((1, n)), unit, budget).value == 0
        assert exact_sat(Shape((1, n)), I2, budget).value == n
        assert exact_ssat(Shape((1, n)), I2, budget).value == n

    def test_row_cap(self):
        # 100,000 rows of 100,000 bits each: refused before any table is
        # built, whatever the cell budget
        start = time.monotonic()
        with pytest.raises(BudgetExceededError, match="row cap") as err:
            exact_ssat(Shape((1, 100_000)), I2, SearchBudget(max_cells=100_000))
        assert time.monotonic() - start < 0.5
        assert err.value.nodes == 0 and err.value.bounds is None


class TestNodeLimits:
    @given(host_and_pattern(max_host_cells=12, nonzero=True))
    def test_a_limit_at_the_node_count_is_exact(self, pair):
        # N nodes fit a limit of N and abort on node N under N - 1, also
        # when a child cut by its bound or by the table is the node counted
        # last; with a clock check every other node the frontier table
        # starts at once, so its keys and its cuts are counted too
        shape, p = pair[0].shape, pair[1]
        for tick in (exact._TICK, 2):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(exact, "_TICK", tick)
                for fn in (exact_ex, exact_sat, exact_ssat):
                    full = fn(shape, p, SearchBudget(max_cells=12))
                    n = full.nodes
                    res = fn(shape, p, SearchBudget(max_cells=12, node_limit=n))
                    assert (res.value, res.witness, res.nodes) == (full.value, full.witness, n)
                    with pytest.raises(BudgetExceededError, match="node") as err:
                        fn(shape, p, SearchBudget(max_cells=12, node_limit=n - 1))
                    assert err.value.nodes == n, (fn.__name__, tick)


class TestSearchTree:
    # (value, nodes) at max_cells=30: a change that reshapes the search tree
    # moves a node count even when every value and witness stays the same
    @pytest.mark.parametrize(
        "ext,pattern,pins",
        [
            ((5, 5), I2, {"ex": (9, 217), "sat": (9, 3739), "ssat": (4, 814)}),
            ((5, 5), I3, {"ex": (16, 222), "sat": (16, 8802), "ssat": (10, 2811)}),
            (
                (3, 3, 3),
                identity_pattern(3, 2),
                {"ex": (19, 131), "sat": (19, 2259), "ssat": (14, 335)},
            ),
            (
                (4, 4),
                Matrix01.filled(Shape((3, 1))),
                {"ex": (8, 3485), "sat": (8, 1720), "ssat": (8, 1800)},
            ),
            # one diagonal is the whole host
            (
                (10,),
                Matrix01.from_nested([1, 0, 1]),
                {"ex": (2, 236), "sat": (2, 174), "ssat": (2, 174)},
            ),
            # cannot fit: every put-in is forced and no cell has a live support
            ((2, 2), I3, {"ex": (4, 16), "sat": (4, 5), "ssat": (4, 5)}),
            # the zero row gives selections with the same image
            (
                (3, 4),
                Matrix01.from_nested([[1], [0]]),
                {"ex": (4, 47), "sat": (4, 25), "ssat": (4, 33)},
            ),
            # no copy on any diagonal: every quota is 0
            (
                (4, 4),
                Matrix01.from_nested([[0, 1], [1, 0]]),
                {"ex": (7, 403), "sat": (7, 362), "ssat": (4, 125)},
            ),
            # every support is empty, so every put-in completes a copy
            (
                (3, 3),
                Matrix01.from_nested([[1]]),
                {"ex": (0, 33), "sat": (0, 19), "ssat": (0, 28)},
            ),
        ],
        ids=[
            "I2-5x5",
            "I3-5x5",
            "I2-3x3x3",
            "column-4x4",
            "gap-10",
            "I3-2x2",
            "zero-row-3x4",
            "anti-identity-4x4",
            "unit-3x3",
        ],
    )
    @pytest.mark.parametrize("quantity", ["ex", "sat", "ssat"])
    def test_values_and_node_counts(self, ext, pattern, pins, quantity):
        fn = {"ex": exact_ex, "sat": exact_sat, "ssat": exact_ssat}[quantity]
        res = fn(Shape(ext), pattern, SearchBudget(max_cells=30))
        assert (res.value, res.nodes) == pins[quantity]


class TestFrontierTable:
    # (value, nodes) of searches the frontier table brings within reach
    @pytest.mark.parametrize(
        "ext,pattern,quantity,pin",
        [
            ((8, 8), I2, "sat", (15, 73076)),
            ((5, 5), Matrix01.filled(Shape((3, 1))), "ex", (10, 17502)),
            ((5, 5), Matrix01.filled(Shape((3, 1))), "sat", (10, 12004)),
            ((4, 4, 4), identity_pattern(3, 2), "sat", (37, 218554)),
        ],
        ids=["I2-8x8", "column-5x5-ex", "column-5x5-sat", "I2-4x4x4"],
    )
    def test_values_and_node_counts(self, ext, pattern, quantity, pin):
        fn = {"ex": exact_ex, "sat": exact_sat}[quantity]
        shape = Shape(ext)
        res = fn(shape, pattern, SearchBudget(max_cells=shape.cell_count))
        assert (res.value, res.nodes) == pin

    @given(host_and_pattern(max_host_cells=16, nonzero=True))
    # a key without the open 0s' sets cuts the optimum here (sat 7, not 8)
    @example((Matrix01.zeros(Shape((4, 3))), Matrix01(Shape((3, 2)), 19)))
    # so does a cut at a cost one above the earlier one's (sat 8, not 9)
    @example((Matrix01.zeros(Shape((4, 4))), Matrix01(Shape((2, 3)), 44)))
    @example((Matrix01.zeros(Shape((2, 2, 2))), identity_pattern(3, 2)))
    def test_keyed_from_the_start_keeps_values_and_witnesses(self, pair):
        # the table starts at the first clock check past _TICK nodes: with a
        # check every other node it keys these small searches too, and with
        # none in reach it never starts
        shape, p = pair[0].shape, pair[1]
        for fn in (exact_sat, exact_ex):
            found = []
            for tick in (2, 10**9):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(exact, "_TICK", tick)
                    res = fn(shape, p, SearchBudget(max_cells=16))
                found.append((res.value, res.witness))
            assert found[0] == found[1], fn.__name__

    @given(host_and_pattern(max_host_cells=12, nonzero=True))
    @example((Matrix01.zeros(Shape((4, 3))), I2))
    @example((Matrix01.zeros(Shape((2, 2, 3))), identity_pattern(3, 2)))
    def test_masks_match_their_definitions(self, pair):
        # at each line start t but the last, over the sorted supports of
        # every field, each as the bits of its image: the tops of the runs of
        # equal future parts, the supports of the cells below t lying wholly
        # below t plus those cells' guards, and the first bit of t's field
        shape = pair[0].shape
        line = shape.extents[-1]
        assume(shape.cell_count >= 3 * line)  # the searches keep no table below
        meter = exact._Meter(SearchBudget())
        supports = [sorted(s) for s in image_bits(shape, pair[1], meter)]
        width = shape.cell_count + sum(map(len, supports))
        expected = {}
        for t in range(line, shape.cell_count - line, line):
            tops = ends = cut = 0
            i = 0
            for z, sups in enumerate(supports):
                if z == t:
                    cut = i
                for j, s in enumerate(sups):
                    if j + 1 == len(sups) or sups[j + 1] >> t != s >> t:
                        tops |= 1 << i
                    if z < t and not s >> t:
                        ends |= 1 << i
                    i += 1
                if z < t:
                    ends |= 1 << i
                i += 1
            expected[t] = (tops, ends, cut)
        assert exact._frontier_masks(shape, supports, width, meter) == expected


class TestSupportTables:
    @given(host_and_pattern(max_host_cells=12, nonzero=True))
    @example((Matrix01.zeros(Shape((2, 2))), I3))  # cannot fit: no supports
    @example((Matrix01.zeros(Shape((3, 4))), Matrix01.filled(Shape((2, 2)))))
    @example((Matrix01.zeros(Shape((2, 2, 3))), identity_pattern(3, 2)))
    # a 1-D host: no prefix dimension to sum
    @example((Matrix01.zeros(Shape((5,))), Matrix01.from_nested([1, 0, 1])))
    # the zero row: distinct selections share an image
    @example((Matrix01.zeros(Shape((3, 3))), Matrix01.from_nested([[1, 1], [0, 0]])))
    def test_supports_are_images_without_the_cell(self, pair):
        # selections are injective, so every support has weight - 1 cells and
        # none can contain another: deduplication alone leaves them minimal
        host, p = pair
        shape = host.shape
        images = [
            sum(
                1 << shape.flat_index(tuple(sels[i][q[i] - 1] for i in range(shape.d)))
                for q in p.iter_ones()
            )
            for sels in oracles.all_selections(shape, p.shape)
        ]
        tables = exact._support_tables(shape, p, exact._Meter(SearchBudget()))
        for z in range(shape.cell_count):
            expected = [e ^ 1 << z for e in images if e >> z & 1]
            supports = [sum(1 << c for c in cells) ^ 1 << z for cells in tables[z]]
            assert supports == list(dict.fromkeys(expected)), z
            assert all(s.bit_count() == p.weight - 1 for s in supports)
            # each kept as the cells of the image it came from, ascending
            assert list(tables[z]) == [
                tuple(c for c in range(shape.cell_count) if (s | 1 << z) >> c & 1)
                for s in supports
            ]


def image_bits(shape, p, meter):
    """Per cell, the bits of the images through it, as the search reads them."""
    return [[sum(1 << c for c in cells) for cells in imgs]
            for imgs in exact._support_tables(shape, p, meter)]


def block_caps(shape, p):
    """Capacity of every diagonal, computed from the search's supports."""
    meter = exact._Meter(SearchBudget())
    images = image_bits(shape, p, meter)
    return [
        exact._block_capacity([shape.flat_index(c) for c in diag], images, meter)
        for diag in diagonals(shape)
    ]


class TestBlockCapacities:
    @given(host_and_pattern(max_host_cells=12, nonzero=True))
    # anti-diagonal: no copy fits on one diagonal, so every cap is the length
    @example((Matrix01.zeros(Shape((3, 3))), Matrix01.from_nested([[0, 1], [1, 0]])))
    # cannot fit anywhere
    @example((Matrix01.zeros(Shape((2, 2))), I3))
    # all-one patterns: any three cells of a line, or four cells off any diagonal
    @example((Matrix01.zeros(Shape((12,))), Matrix01.from_nested([1, 1, 1])))
    @example((Matrix01.zeros(Shape((3, 4))), Matrix01.filled(Shape((2, 2)))))
    @example((Matrix01.zeros(Shape((12,))), Matrix01.from_nested([1, 0, 1, 1])))
    @example((Matrix01.zeros(Shape((2, 2, 3))), identity_pattern(3, 2)))
    def test_caps_match_brute_force(self, pair):
        host, p = pair
        shape = host.shape
        caps = block_caps(shape, p)
        for diag, cap in zip(diagonals(shape), caps):
            assert cap == oracles.brute_block_cap(diag, shape, p), diag

    @pytest.mark.parametrize(
        "ext,k",
        [((7,), 3), ((4, 4), 1), ((4, 4), 2), ((3, 5), 2), ((6, 6), 2), ((3, 3, 4), 1), ((4, 4, 4), 2)],
    )
    def test_identity_caps_sum_to_closed_form(self, ext, k):
        # each diagonal holds at most k ones of a host avoiding I_{k+1}
        shape = Shape(ext)
        p = identity_pattern(shape.d, k + 1)
        expected = shape.cell_count - prod(n - k for n in ext)
        assert sum(block_caps(shape, p)) == expected


class TestBlockBound:
    @pytest.mark.parametrize(
        "ext,size,value",
        [((4, 4, 4), 2, 37), ((5, 5, 5), 2, 61), ((8, 8), 3, 28), ((6, 6), 3, 20)],
    )
    def test_identity_ex_within_node_budget(self, ext, size, value):
        # without the diagonal block bound none of these finishes in 20,000 nodes
        shape = Shape(ext)
        p = identity_pattern(shape.d, size)
        k = size - 1
        assert value == shape.cell_count - prod(n - k for n in ext)
        res = exact_ex(shape, p, SearchBudget(max_cells=shape.cell_count, node_limit=20_000))
        assert res.value == value
        assert res.witness.weight == value
        assert avoids(res.witness, p)

    def test_abort_bounds_for_ex(self):
        # the three-cell column fits on no diagonal, so the caps are the lengths
        col = Matrix01.filled(Shape((3, 1)))
        shape = Shape((4, 4))
        assert exact_ex(shape, col).value == 8
        with pytest.raises(BudgetExceededError) as err:
            exact_ex(shape, col, SearchBudget(node_limit=1000))
        assert err.value.bounds == (8, 16)
        # the first leaf is not reached yet
        with pytest.raises(BudgetExceededError) as err:
            exact_ex(shape, col, SearchBudget(node_limit=60))
        assert err.value.bounds == (None, 16)

    def test_abort_bounds_for_sat_and_ssat(self):
        # two corners of the 5x5 host have no support and are forced in
        shape = Shape((5, 5))
        for fn in (exact_sat, exact_ssat):
            value = fn(shape, I2, SearchBudget(max_cells=25)).value
            with pytest.raises(BudgetExceededError) as err:
                fn(shape, I2, SearchBudget(max_cells=25, node_limit=200))
            lower, upper = err.value.bounds
            assert lower == 2
            assert upper is not None and value <= upper, fn.__name__

    def test_no_bounds_before_the_search(self):
        # the budget runs out while the support table is built
        for fn in (exact_ex, exact_sat, exact_ssat):
            with pytest.raises(BudgetExceededError) as err:
                fn(Shape((4, 4)), I2, SearchBudget(node_limit=5))
            assert err.value.bounds is None, fn.__name__


class TestRecurrence:
    def test_unit_base_case(self):
        unit = identity_pattern(2, 1)
        rep = verify_recurrence(unit, Shape((3, 3)))
        assert rep.holds
        assert rep.sat_outer == 5 and rep.sat_inner == 0 and rep.boundary == 5

    def test_identity_step(self):
        rep = verify_recurrence(I2, Shape((4, 4)))
        assert rep.holds
        assert (rep.sat_outer, rep.sat_inner, rep.boundary) == (12, 5, 7)
        assert (rep.ex_outer, rep.ex_inner) == (12, 5)

    def test_rejects_bad_inner_pattern(self):
        p = Matrix01.from_nested([[1, 1], [0, 1]])  # shell has two 1s
        with pytest.raises(ValueError):
            verify_recurrence(p, Shape((4, 4)))

    def test_rejects_tight_shape(self):
        with pytest.raises(ValueError):
            verify_recurrence(I2, Shape((2, 2)))


def test_answers_under_a_low_recursion_limit():
    # no search takes a stack frame per dimension or per cell, so 60 frames
    # above the caller's suffice: a 4-D containment, the ex capacities of a
    # 300-cell diagonal, and sat keeping its frontier table on I2 over 6x6
    # (124,147 nodes without)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        m = Matrix01.filled(Shape((2, 2, 2, 2)))
        found = contains(m, identity_pattern(4, 2))
        ex = exact_ex(Shape((300,)), Matrix01.from_nested([1]), SearchBudget(max_cells=300))
        sat = exact_sat(Shape((6, 6)), I2, SearchBudget(max_cells=36))
    finally:
        sys.setrecursionlimit(limit)
    assert found is not None and found.selections == ((1, 2),) * 4
    assert ex.value == 0
    assert (sat.value, sat.nodes) == (11, 9285)
    assert sat == exact_sat(Shape((6, 6)), I2, SearchBudget(max_cells=36))
