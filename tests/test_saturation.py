import random
import time
from itertools import product
from math import prod

import pytest
from hypothesis import given, strategies as st

import oracles
import satmat.containment as containment
import satmat.core as core
import satmat.saturation as saturation
from conftest import host_and_pattern, shapes
from satmat import (
    BudgetExceededError,
    Embedding,
    Matrix01,
    SaturationReport,
    SearchBudget,
    Shape,
    avoids,
    cell_order,
    contains,
    corner_block,
    embeddings_count,
    exact_sat,
    exact_ssat,
    greedy_saturate,
    identity_layers,
    identity_pattern,
    is_saturating,
    is_semisaturating,
    offset_block,
)

I2 = identity_pattern(2, 2)


class TestAvoids:
    def test_all_zero_host(self):
        assert avoids(Matrix01.zeros(Shape((3, 3))), I2)

    def test_self(self):
        assert not avoids(I2, I2)

    def test_shell_antichain(self):
        host = Shape((3, 3))
        m = Matrix01.from_ones(host, [(3, 1), (3, 2), (3, 3), (1, 3), (2, 3)])
        assert avoids(m, I2)


class TestIsSaturating:
    def test_spec_saturating_example(self):
        m = Matrix01.from_ones(Shape((2, 2)), [(1, 2), (2, 1), (2, 2)])
        assert is_saturating(m, I2).verdict

    def test_nonfitting_pattern_all_one_host(self):
        m = Matrix01.filled(Shape((2, 2)))
        p = Matrix01.from_ones(Shape((3, 3)), [(1, 1)])
        assert is_saturating(m, p).verdict

    def test_nonfitting_pattern_other_hosts_fail(self):
        m = Matrix01.from_ones(Shape((2, 2)), [(1, 1)])
        p = Matrix01.from_ones(Shape((3, 3)), [(1, 1)])
        rep = is_saturating(m, p)
        assert not rep.verdict and rep.failure_kind == "dead_flip"

    def test_all_zero_host_reports_first_dead_flip(self):
        rep = is_saturating(Matrix01.zeros(Shape((3, 3))), I2)
        assert not rep.verdict
        assert rep.failure_kind == "dead_flip"
        # row-major first offender
        assert rep.counterexample == (1, 1)

    def test_containment_failure_reports_witness(self):
        m = Matrix01.filled(Shape((2, 2)))
        rep = is_saturating(m, I2)
        assert not rep.verdict
        assert rep.failure_kind == "contains_pattern"
        assert isinstance(rep.counterexample, Embedding)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            is_saturating(Matrix01.zeros(Shape((2, 2))), identity_pattern(3, 2))

    @given(host_and_pattern(max_host_cells=9, max_pattern_cells=4))
    def test_agrees_with_brute_force(self, pair):
        m, p = pair
        assert is_saturating(m, p).verdict == oracles.brute_is_saturating(m, p)

    def test_fallback_path_agrees(self, monkeypatch):
        # force the per-flip search path and re-check against brute force
        monkeypatch.setattr(saturation, "SWEEP_LIMIT", -1)
        import random

        rng = random.Random(11)
        host = Shape((3, 3))
        for _ in range(40):
            m = Matrix01(host, rng.randrange(1 << 9))
            p = Matrix01(Shape((2, 2)), rng.randrange(1 << 4))
            sat_rep = is_saturating(m, p)
            semi_rep = is_semisaturating(m, p)
            assert sat_rep.verdict == oracles.brute_is_saturating(m, p)
            assert semi_rep.verdict == oracles.brute_is_semisaturating(m, p)

    @given(host_and_pattern(max_host_cells=12, max_pattern_cells=6))
    def test_sweep_and_per_flip_reports_agree(self, pair):
        # the whole report, counterexample included, for both verdicts
        m, p = pair
        sweep = [is_saturating(m, p), is_semisaturating(m, p)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(saturation, "SWEEP_LIMIT", -1)
            per_flip = [is_saturating(m, p), is_semisaturating(m, p)]
        assert sweep == per_flip

    @given(host_and_pattern(max_host_cells=12, max_pattern_cells=6, nonzero=True))
    def test_sweep_witness_is_least_embedding_without_search(self, pair):
        # the sweep reads the lexicographically least copy off its table
        m, p = pair
        want = contains(m, p)

        def no_search(*args):
            raise AssertionError("the sweep path ran a containment search")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(saturation, "contains", no_search)
            rep = is_saturating(m, p)
        if want is None:
            assert rep.failure_kind != "contains_pattern"
        else:
            assert rep.failure_kind == "contains_pattern"
            assert rep.counterexample == want

    def test_pattern_as_tall_as_the_host_is_fast(self):
        # one selection but as many distinct rows as cells: the table is
        # read off that selection, not built per (row, cell)
        shape = Shape((3000, 1))
        p = Matrix01.filled(shape)
        start = time.perf_counter()
        assert is_saturating(Matrix01(shape, shape.full_mask ^ 1), p).verdict
        rep = is_saturating(Matrix01.filled(shape), p)
        assert rep.failure_kind == "contains_pattern"
        assert time.perf_counter() - start < 1.0


class TestIsSemisaturating:
    def test_single_one_pattern_all_zero_host(self):
        p = Matrix01.from_nested([[1]])
        assert is_semisaturating(Matrix01.zeros(Shape((3, 3))), p).verdict

    def test_four_corners(self):
        host = Shape((5, 5))
        m = Matrix01.from_ones(host, [(1, 1), (1, 5), (5, 1), (5, 5)])
        assert is_semisaturating(m, I2).verdict

    def test_failure_names_first_offender(self):
        rep = is_semisaturating(Matrix01.zeros(Shape((2, 2))), I2)
        assert not rep.verdict and rep.counterexample == (1, 1)

    @given(host_and_pattern(max_host_cells=9, max_pattern_cells=4))
    def test_agrees_with_brute_force(self, pair):
        m, p = pair
        assert (
            is_semisaturating(m, p).verdict == oracles.brute_is_semisaturating(m, p)
        )

    @given(host_and_pattern(max_host_cells=12, max_pattern_cells=4, nonzero=True))
    def test_saturating_implies_semisaturating(self, pair):
        m, p = pair
        if is_saturating(m, p).verdict:
            assert is_semisaturating(m, p).verdict

    def test_monotone_upward(self):
        # adding 1s never breaks semisaturation
        host = Shape((4, 4))
        m = Matrix01.from_ones(host, [(1, 1), (1, 4), (4, 1), (4, 4)])
        assert is_semisaturating(m, I2).verdict
        grown = m
        for z in [(2, 2), (3, 1), (1, 2)]:
            grown = grown.flip(z)
            assert is_semisaturating(grown, I2).verdict


class TestZeroPatternConvention:
    def test_saturating_iff_host_all_zero(self):
        p = Matrix01.zeros(Shape((2, 2)))
        assert is_saturating(Matrix01.zeros(Shape((3, 3))), p).verdict
        rep = is_saturating(Matrix01.from_ones(Shape((3, 3)), [(2, 2)]), p)
        assert not rep.verdict and rep.failure_kind == "contains_pattern"

    def test_semisaturating_always(self):
        p = Matrix01.zeros(Shape((2, 2)))
        for bits in range(8):
            m = Matrix01(Shape((3, 1)), bits)
            assert is_semisaturating(m, p).verdict


class TestGreedyInstances:
    def test_greedy_results_saturate(self):
        for seed in range(4):
            host = Shape((4, 4))
            from satmat import cell_order

            m = greedy_saturate(I2, host, cell_order(host, seed))
            assert is_saturating(m, I2).verdict
            assert is_semisaturating(m, I2).verdict


class TestSweepSwitch:
    """The verdicts sweep the table only while its bits per search are few."""

    @staticmethod
    def _refuse(*args):
        raise AssertionError("the verdict took the other path")

    @pytest.mark.parametrize(
        "m, p",
        [
            # 364² selections × 196 cells against 145 searches
            (identity_layers(Shape((14, 14)), 2), identity_pattern(2, 3)),
            # 499,500 selections × 1,000 cells against 1,000 searches
            (Matrix01(Shape((1000,)), 1), Matrix01.filled(Shape((2,)))),
            # nine full rows, and one 1 in each other row
            (
                Matrix01.from_ones(
                    Shape((20, 2)),
                    [(r, c) for r in range(1, 21) for c in (1, 2) if r < 10 or c == 1],
                ),
                Matrix01.filled(Shape((10, 2))),
            ),
        ],
        ids=["I3-14x14-layers", "vector-1000", "20x2-all-one-10x2"],
    )
    def test_large_tables_answer_per_flip(self, m, p, monkeypatch):
        monkeypatch.setattr(saturation, "image_columns", self._refuse)
        assert is_saturating(m, p) == SaturationReport(True)
        assert is_semisaturating(m, p) == SaturationReport(True)
        # the first flip of the all-zero host makes no copy
        zero = Matrix01.zeros(m.shape)
        dead = SaturationReport(False, "dead_flip", (1,) * m.shape.d)
        assert is_saturating(zero, p) == is_semisaturating(zero, p) == dead

    def test_small_tables_sweep(self, monkeypatch):
        m, p = identity_layers(Shape((8, 8, 8)), 1), identity_pattern(3, 2)
        monkeypatch.setattr(saturation, "_pinned_hits", self._refuse)
        monkeypatch.setattr(saturation, "contains", self._refuse)
        assert is_saturating(m, p) == SaturationReport(True)
        assert is_semisaturating(m, p) == SaturationReport(True)
        rep = is_saturating(m.flip(next(m.iter_zeros())), p)
        assert rep.failure_kind == "contains_pattern"

    @pytest.mark.parametrize(
        "n, l",
        [
            # 65,703 selections × 363 cells against 364 searches
            (363, 2),
            # 48,620 selections × 18 cells against 19 searches
            (18, 9),
        ],
    )
    def test_longest_swept_dimensions(self, n, l, monkeypatch):
        m, p = Matrix01.zeros(Shape((n,))), Matrix01.filled(Shape((l,)))
        monkeypatch.setattr(saturation, "_pinned_hits", self._refuse)
        monkeypatch.setattr(saturation, "contains", self._refuse)
        dead = SaturationReport(False, "dead_flip", (1,))
        for verdict in (is_saturating, is_semisaturating):
            saturation.image_columns.cache_clear()
            start = time.perf_counter()
            assert verdict(m, p) == dead
            assert time.perf_counter() - start < 1.0


class TestZeroCellWalk:
    """Both paths walk the 0-cells read off the host's inverted bits."""

    @staticmethod
    def _hosts(d, n):
        """Offset blocks of C05's patterns on the n^d host, each also with one
        cell flipped, next to all-one, all-zero and random hosts."""
        rng = random.Random(10 * d + n)
        shape = Shape((n,) * d)
        shapes = [Shape(ext) for ext in product(range(1, 6), repeat=d)
                  if prod(ext) <= 8 and max(ext) <= n]
        for _ in range(4):
            ps = rng.choice(shapes)
            p = Matrix01(ps, rng.randrange(1, 1 << ps.cell_count))
            m = offset_block(p, n, rng.choice(list(p.iter_ones())))
            yield m, p
            yield m.flip(tuple(rng.randint(1, n) for _ in range(d))), p
            yield Matrix01.filled(shape), p
            yield Matrix01.zeros(shape), p
            # the cells from a random one up are all 1s, so the host's
            # inverted bits stop short of its cell count
            top = rng.randrange(1, shape.cell_count)
            yield Matrix01(shape, rng.randrange(1 << top) | shape.full_mask >> top << top), p

    @pytest.mark.parametrize("d, n", [(2, 5), (2, 6), (3, 5), (3, 6)])
    def test_sweep_and_per_flip_reports_agree(self, d, n, monkeypatch):
        # hosts beyond the hypothesis strategy's 12 cells, whole reports
        for m, p in self._hosts(d, n):
            reports = []
            for limit in (1 << 62, -1):  # every table swept, then none
                monkeypatch.setattr(saturation, "SWEEP_LIMIT", limit)
                reports.append([is_saturating(m, p), is_semisaturating(m, p)])
            assert reports[0] == reports[1], (m, p)

    def test_per_flip_path_calls_no_iter_zeros(self, monkeypatch):
        rng = random.Random(26)
        hosts = [Matrix01(Shape((4, 4)), rng.randrange(1 << 16)) for _ in range(20)]
        hosts.append(identity_layers(Shape((4, 4)), 1))
        want = [
            (oracles.brute_is_saturating(m, I2), oracles.brute_is_semisaturating(m, I2))
            for m in hosts
        ]

        def refuse(self):
            raise AssertionError("the verdict called iter_zeros")

        monkeypatch.setattr(Matrix01, "iter_zeros", refuse)
        monkeypatch.setattr(saturation, "SWEEP_LIMIT", -1)
        got = [(is_saturating(m, I2).verdict, is_semisaturating(m, I2).verdict) for m in hosts]
        assert got == want
        assert want[-1] == (True, True)
        dead = SaturationReport(False, "dead_flip", (1, 1))
        assert is_saturating(Matrix01.zeros(Shape((4, 4))), I2) == dead

    def test_per_flip_verdict_is_linear_in_cells(self, monkeypatch):
        # 89,401 0-cells of 90,000: walking them by peeling bits off the
        # inverted host copies it per cell, 0.5 s of this verdict's 1.5 s
        m = identity_layers(Shape((300, 300)), 1)
        monkeypatch.setattr(saturation, "image_columns", TestSweepSwitch._refuse)
        start = time.perf_counter()
        assert is_saturating(m, I2) == SaturationReport(True)
        assert time.perf_counter() - start < 15.0

    def test_per_flip_verdict_copies_the_line_table_once(self, monkeypatch):
        # one private copy per verdict, each flip toggled in and back out
        rng = random.Random(27)
        hosts = [Matrix01(Shape((5, 5)), rng.randrange(1 << 25)) for _ in range(20)]
        hosts += [identity_layers(Shape((5, 5)), 1), Matrix01.zeros(Shape((5, 5)))]
        verdicts = (is_saturating, is_semisaturating)
        want = [[v(m, I2) for v in verdicts] for m in hosts]
        toggled, calls = core._toggled, []

        def counted(*args):
            calls.append(args)
            return toggled(*args)

        monkeypatch.setattr(core, "_toggled", counted)
        monkeypatch.setattr(containment, "_toggled", counted)
        monkeypatch.setattr(saturation, "SWEEP_LIMIT", -1)
        for m, reports in zip(hosts, want):
            lines = list(m._last_lines)
            for v, rep in zip(verdicts, reports):
                calls.clear()
                assert v(m, I2) == rep
                assert len(calls) <= 1
            assert m._last_lines == lines
        assert want[-2] == [SaturationReport(True)] * 2


@st.composite
def searched_hosts(draw):
    """A host shape of at most 16 cells, d ≤ 3, and a nonzero pattern of at
    most 3 per extent (it may not fit, and may have one 1); hosts follow."""
    shape = draw(shapes(max_cells=16))
    ext = tuple(draw(st.lists(st.integers(1, 3), min_size=shape.d, max_size=shape.d)))
    cells = prod(ext)
    if draw(st.booleans()):
        p = Matrix01(Shape(ext), 1 << draw(st.integers(0, cells - 1)))
    else:
        p = Matrix01(Shape(ext), draw(st.integers(1, (1 << cells) - 1)))
    host = Matrix01(shape, draw(st.integers(0, shape.full_mask)))
    return shape, p, host, draw(st.integers(0, shape.cell_count - 1))


class TestSearchRows:
    """After an exact search on (shape, p), the verdicts on that (shape, p)
    read the search's rows and build no table."""

    @staticmethod
    def _reports(m, p):
        return [is_saturating(m, p), is_semisaturating(m, p)]

    @given(searched_hosts())
    def test_rows_reports_match_both_table_paths(self, drawn):
        shape, p, random_host, k = drawn
        try:
            witness = exact_ssat(shape, p, SearchBudget(node_limit=100_000)).witness
        except BudgetExceededError:  # the rows are built before the search
            witness = random_host
        assert containment._search_rows[0][0] == (shape, p)
        # the witness, a host one flip away from it, and a random host
        hosts = [witness, Matrix01(shape, witness.bits ^ 1 << k), random_host]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(saturation, "image_columns", TestSweepSwitch._refuse)
            mp.setattr(saturation, "_pinned_hits", TestSweepSwitch._refuse)
            rows = [self._reports(m, p) for m in hosts]
        containment._search_rows[0] = None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(saturation, "SWEEP_LIMIT", 1 << 62)
            sweep = [self._reports(m, p) for m in hosts]
            mp.setattr(saturation, "SWEEP_LIMIT", -1)
            per_flip = [self._reports(m, p) for m in hosts]
        assert rows == sweep == per_flip
        assert rows[0][1] == SaturationReport(True) or witness is random_host

    def test_the_slot_holds_the_latest_search(self):
        exact_ssat(Shape((3, 3)), I2)
        exact_sat(Shape((4, 4)), I2)
        assert containment._search_rows[0][0] == (Shape((4, 4)), I2)

    def test_rows_past_the_bound_leave_no_slot(self, monkeypatch):
        # I2 on 12×12: 144 cells × (144 + 8,712 supports) bits, above
        # ENUMERATION_LIMIT; the search stops at its first node, after its rows
        shape = Shape((12, 12))
        exact_ssat(Shape((3, 3)), I2)
        budget = SearchBudget(max_cells=144, node_limit=embeddings_count(shape, I2))
        with pytest.raises(BudgetExceededError):
            exact_ssat(shape, I2, budget)
        assert containment._search_rows == [None]
        built = []
        columns = saturation.image_columns

        def counted(*args):
            built.append(args)
            return columns(*args)

        monkeypatch.setattr(saturation, "image_columns", counted)
        m = identity_layers(shape, 1)
        assert is_saturating(m, I2) == SaturationReport(True)
        assert built == [(shape, I2)]


# patterns whose 1-entries share a rank with another entry, so moving one
# entry to a new anchor moves the others' cells too
SHARED_RANKS = [
    Matrix01.from_nested([[1, 1], [1, 0]]),
    Matrix01.from_nested([[1, 0, 1]]),
    Matrix01.from_nested([[[1, 0], [0, 1]], [[0, 0], [1, 0]]]),
    Matrix01.from_nested([[[1, 1], [0, 0]], [[1, 0], [0, 1]]]),
]


class TestRepin:
    """A per-flip verdict first tries the last flip's copy, its pinned entry
    moved to the next 0-cell, and searches only when that is no copy."""

    @staticmethod
    def _next_hit(m, p, anchor, last=None):
        """The first hit of m with the 0-cell anchor flipped."""
        plan = containment._plan(m.shape.extents, p)
        lines = containment._lines_with_flip(m, anchor)
        return next(containment._pinned_hits(lines, plan, anchor, last=last), None)

    @pytest.mark.parametrize(
        "p, ones, a, b",
        [
            # [[1,1],[1,0]] pinned at (1,1): rows (1,2), columns (1,4); at
            # (1,3) the columns (3,4) ascend but (2,3) is a 0
            ([[1, 1], [1, 0]], [(1, 4), (2, 1)], (1, 1), (1, 3)),
            # [[1,0,1]] pinned at (1,1) in row 1: moving the shared row to 2
            # takes (1,2)'s cell onto (2,3), a 0
            ([[1, 0, 1]], [(1, 3)], (1, 1), (2, 1)),
            # a 2×2×2 pattern of weight 3: the moved last index takes
            # (1,1,0)'s cell onto a 0
            ([[[1, 0], [0, 1]], [[0, 0], [1, 0]]], [(1, 3, 4), (2, 3, 1)],
             (1, 1, 1), (1, 1, 2)),
            # weight 4, the moved entry sharing a rank in every dimension
            ([[[1, 1], [0, 0]], [[1, 0], [0, 1]]], [(1, 1, 3), (2, 1, 1), (2, 3, 3)],
             (1, 1, 1), (1, 1, 2)),
        ],
        ids=["2x2", "1x3", "2x2x2-weight-3", "2x2x2-weight-4"],
    )
    def test_an_ascending_move_onto_a_0_is_refused(self, p, ones, a, b):
        p = Matrix01.from_nested(p)
        shape = Shape(tuple(max(c[i] for c in ones + [b]) for i in range(p.shape.d)))
        m = Matrix01.from_ones(shape, ones)
        o0, sel = hit = self._next_hit(m, p, a)
        assert all(sel[i][o0[i]] == x - 1 for i, x in enumerate(a))
        # the move ascends, so only the cell check can refuse it
        moved = [s[:o] + (x - 1,) + s[o + 1 :] for o, x, s in zip(o0, b, sel)]
        assert all(list(s) == sorted(set(s)) for s in moved)
        assert self._next_hit(m, p, b, last=hit) == self._next_hit(m, p, b) is None

    @pytest.mark.parametrize(
        "p, bits, a, b, want",
        [
            # I2 on 2×2: the columns would not ascend, and (1,2) is dead
            (I2, 0b1000, (1, 1), (1, 2), None),
            # [1,0,1] on a 1-D host of 5: the pinned entry would pass the
            # middle column, and a search finds (2,3,5)
            ([1, 0, 1], 0b10000, (1,), (2,), ((0, 0), ((0,), (1, 2, 4)))),
        ],
        ids=["I2-2x2", "1-D"],
    )
    def test_a_move_that_does_not_ascend_is_refused(self, p, bits, a, b, want):
        p = p if isinstance(p, Matrix01) else Matrix01.from_nested(p)
        n = (2, 2) if p.shape.d == 2 else (5,)
        m = Matrix01(Shape(n), bits)
        hit = self._next_hit(m, p, a)
        assert self._next_hit(m, p, b, last=hit) == self._next_hit(m, p, b) == want

    @pytest.mark.parametrize(
        "p, bits, n, a, b",
        [(I2, 1 << 15, (4, 4), (1, 1), (1, 2)), ([1, 1], 0b1000, (4,), (1,), (2,))],
        ids=["I2-4x4", "1-D"],
    )
    def test_a_move_onto_1s_runs_no_search(self, p, bits, n, a, b, monkeypatch):
        p = p if isinstance(p, Matrix01) else Matrix01.from_nested(p)
        m = Matrix01(Shape(n), bits)
        hit = self._next_hit(m, p, a)
        monkeypatch.setattr(containment, "_search", TestSweepSwitch._refuse)
        o0, sel = self._next_hit(m, p, b, last=hit)
        head = len(sel) - m.shape.d
        e = Embedding(tuple(tuple(x + 1 for x in s) for s in sel[head:]))
        assert containment.embedding_is_valid(m.flip(b), p, e)
        assert e.host_cell(tuple(x + 1 for x in o0[head:])) == b

    @staticmethod
    def _hosts(p, rng):
        """Greedy hosts of p on 6^d or 4^3 and a longer one, each also with a
        1-cell and a 0-cell flipped: long runs of productive flips, some
        ended by a dead flip or a copy."""
        n = 4 if p.shape.d == 3 else 6
        for shape in (Shape((n,) * p.shape.d), Shape((n,) * (p.shape.d - 1) + (n + 3,))):
            for seed in (None, 1, 2):
                m = greedy_saturate(p, shape, cell_order(shape, seed))
                yield m
                yield m.flip(rng.choice(list(m.iter_ones())))
                yield m.flip(rng.choice(list(m.iter_zeros())))

    @pytest.mark.parametrize("p", SHARED_RANKS + [I2, identity_pattern(2, 3)],
                             ids=["2x2", "1x3", "2x2x2-3", "2x2x2-4", "I2", "I3"])
    def test_per_flip_reports_match_the_sweep(self, p, monkeypatch):
        rng = random.Random(p.bits)
        for m in self._hosts(p, rng):
            reports = []
            for limit in (1 << 62, -1):  # every table swept, then none
                monkeypatch.setattr(saturation, "SWEEP_LIMIT", limit)
                reports.append([is_saturating(m, p), is_semisaturating(m, p)])
            assert reports[0] == reports[1], (m, p)

    def test_each_verdict_starts_without_a_copy(self, monkeypatch):
        # verdicts of different patterns on one host shape in a row, each
        # against the sweep: a copy kept from the verdict before would move
        # another pattern's entry
        rng = random.Random(28)
        shape = Shape((5, 5))
        patterns = [I2, identity_pattern(2, 3), SHARED_RANKS[0],
                    Matrix01.from_nested([[0, 1], [1, 0]]), Matrix01.from_nested([[1]])]
        hosts = [Matrix01.zeros(shape), identity_layers(shape, 1)]
        hosts += [Matrix01(shape, rng.randrange(1 << 25)) for _ in range(6)]
        for m in hosts:
            for p in patterns:
                monkeypatch.setattr(saturation, "SWEEP_LIMIT", 1 << 62)
                want = [is_saturating(m, p), is_semisaturating(m, p)]
                monkeypatch.setattr(saturation, "SWEEP_LIMIT", -1)
                assert [is_saturating(m, p), is_semisaturating(m, p)] == want, (m, p)

    @pytest.mark.parametrize("n", [30, 45])
    def test_corner_blocks_run_few_searches(self, n, monkeypatch):
        # I2's corner block on n×n has n^2 - 4 0-cells, and a per-flip
        # verdict without the moved copy runs a search for each
        m = corner_block(I2, n)
        zeros = m.shape.cell_count - m.weight
        search, calls = containment._search, []

        def counted(*args):
            calls.append(None)
            return search(*args)

        monkeypatch.setattr(containment, "_search", counted)
        assert is_semisaturating(m, I2) == SaturationReport(True)
        assert zeros == n * n - 4 and len(calls) <= zeros // 10
