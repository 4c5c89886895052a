import random
import sys
import time

import pytest
from hypothesis import assume, example, given

import oracles
from conftest import host_and_pattern
from satmat import (
    Embedding,
    Matrix01,
    Shape,
    anchored_contains,
    contains,
    embedding_is_valid,
    embeddings_count,
    enumerate_embeddings,
    exact_sat,
    greedy_saturate,
    identity_pattern,
    is_saturating,
    is_semisaturating,
    potentially_matches,
)
from satmat.containment import _kronecker, _transposed, image_columns, image_offsets

I2 = identity_pattern(2, 2)

# d = 1, an all-zero pattern, and a pattern that does not fit
BUILDER_EXAMPLES = [
    (Matrix01.from_nested([1, 0, 1, 1]), Matrix01.from_nested([1, 0, 1])),
    (Matrix01.from_nested([[0, 1], [1, 0]]), Matrix01.zeros(Shape((1, 2)))),
    (Matrix01.filled(Shape((2, 3))), Matrix01.filled(Shape((3, 1)))),
]


def oracle_columns(host: Shape, p: Matrix01) -> tuple[int, ...]:
    """Column c holds bit k iff the image of the k-th oracle selection holds c."""
    cols = [0] * host.cell_count
    for k, sels in enumerate(oracles.all_selections(host, p.shape)):
        for o in p.iter_ones():
            cols[host.flat_index(tuple(s[q - 1] for s, q in zip(sels, o)))] |= 1 << k
    return tuple(cols)


def with_builder_examples(test):
    for pair in BUILDER_EXAMPLES:
        test = example(pair)(test)
    return test


def as_embedding(sels):
    return Embedding(tuple(tuple(s) for s in sels))


def random_matrix(rng, shape, density):
    bits = sum(1 << c for c in range(shape.cell_count) if rng.random() < density)
    return Matrix01(shape, bits)


class TestContains:
    def test_self_containment(self):
        m = Matrix01.from_nested([[1, 0], [1, 1]])
        e = contains(m, m)
        assert e == as_embedding(((1, 2), (1, 2)))

    def test_all_zero_pattern(self):
        m = Matrix01.zeros(Shape((3, 3)))
        p = Matrix01.zeros(Shape((2, 2)))
        assert contains(m, p) == as_embedding(((1, 2), (1, 2)))

    def test_spec_example(self):
        m = Matrix01.from_ones(Shape((3, 3)), [(1, 1), (2, 3), (3, 2)])
        e = contains(m, I2)
        assert e is not None and embedding_is_valid(m, I2, e)
        # least witness pairs (1,1) with (2,3)
        assert e == as_embedding(((1, 2), (1, 3)))

    def test_pattern_larger_than_host(self):
        m = Matrix01.filled(Shape((2, 2)))
        p = Matrix01.zeros(Shape((2, 3)))
        assert contains(m, p) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            contains(Matrix01.zeros(Shape((2, 2))), Matrix01.zeros(Shape((2,))))

    @given(host_and_pattern())
    def test_agrees_with_brute_force(self, pair):
        m, p = pair
        got = contains(m, p)
        want = oracles.brute_contains(m, p)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert got.selections == want  # identical lex-least witness
            assert embedding_is_valid(m, p, got)

    @given(host_and_pattern())
    def test_monotone_under_flips(self, pair):
        m, p = pair
        if contains(m, p) is None:
            return
        grown = m
        for z in list(m.iter_zeros())[:3]:
            grown = grown.flip(z)
            assert contains(grown, p) is not None


class TestAnchored:
    def test_single_cell(self):
        unit = identity_pattern(1, 1)
        m = Matrix01.from_nested([1])
        assert anchored_contains(m, unit, (1,)) is not None

    def test_all_ones_wrong_anchor(self):
        m = Matrix01.filled(Shape((2, 2)))
        assert anchored_contains(m, I2, (1, 2)) is None
        assert anchored_contains(m, I2, (1, 1)) is not None

    def test_unique_embedding(self):
        m = Matrix01.from_ones(Shape((3, 3)), [(1, 1), (3, 3)])
        e = anchored_contains(m, I2, (3, 3))
        assert e == as_embedding(((1, 3), (1, 3)))

    def test_anchor_errors(self):
        m = Matrix01.from_ones(Shape((2, 2)), [(1, 1)])
        with pytest.raises(ValueError):
            anchored_contains(m, I2, (2, 2))  # a 0-entry
        with pytest.raises(ValueError):
            anchored_contains(m, I2, (3, 1))  # out of bounds

    @given(host_and_pattern())
    def test_agrees_with_brute_force(self, pair):
        m, p = pair
        ones = list(m.iter_ones())
        if not ones:
            return
        anchor = ones[0]
        got = anchored_contains(m, p, anchor)
        want = oracles.brute_anchored(m, p, anchor)
        if want is None:
            assert got is None
        else:
            assert got is not None and got.selections == want
            # anchored implies plain containment
            assert contains(m, p) is not None

    @given(host_and_pattern(max_host_cells=16, max_pattern_cells=6, nonzero=True))
    @example((Matrix01.from_nested([[1, 1], [0, 1]]), Matrix01.from_nested([[1], [1]])))
    def test_every_anchor_agrees_with_brute_force(self, pair):
        # every pin position; in the example only the column right of the
        # anchor (1, 1) holds a copy, which must not count as anchored
        m, p = pair
        for anchor in m.iter_ones():
            got = anchored_contains(m, p, anchor)
            want = oracles.brute_anchored(m, p, anchor)
            assert (got and got.selections) == want


class TestKernelAtScale:
    @pytest.mark.parametrize("extents", [(3000, 1), (3000,)])
    def test_long_all_one_pattern_in_itself(self, extents):
        # 3000 ranks of a prefix dimension, picked in a loop at no stack
        # cost, or 3000 columns of the last dimension
        m = Matrix01.filled(Shape(extents))
        whole = as_embedding(tuple(range(1, n + 1)) for n in extents)
        start = time.perf_counter()
        assert contains(m, m) == whole
        assert anchored_contains(m, m, extents) == whole
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize(
        "d, max_extent, count", [(2, 5, 300), (3, 5, 150), (4, 3, 150), (5, 3, 150)]
    )
    def test_seeded_larger_hosts_agree_with_brute_force(self, d, max_extent, count):
        # pins at inner ranks and cuts at middle ranks, which hosts of at
        # most 12 cells barely reach
        rng = random.Random(d)
        for i in range(count):
            density = (0.3, 0.6, 0.9)[i % 3]
            host = Shape(tuple(rng.randint(2, max_extent) for _ in range(d)))
            m = random_matrix(rng, host, density)
            p = random_matrix(rng, Shape(tuple(rng.randint(1, 3) for _ in range(d))), 0.4)
            got = contains(m, p)
            assert (got and got.selections) == oracles.brute_contains(m, p)
            for anchor in m.iter_ones():
                got = anchored_contains(m, p, anchor)
                assert (got and got.selections) == oracles.brute_anchored(m, p, anchor)


class TestPotentiallyMatches:
    def test_single_one_pattern(self):
        p = Matrix01.from_nested([[1]])
        m = Matrix01.zeros(Shape((2, 2)))
        assert potentially_matches(m, (2, 1), p, (1, 1))

    def test_pair_below(self):
        m = Matrix01.from_ones(Shape((3, 3)), [(3, 3)])
        assert potentially_matches(m, (1, 1), I2, (1, 1))

    def test_blocked_direction(self):
        m = Matrix01.from_ones(Shape((3, 3)), [(1, 1)])
        assert not potentially_matches(m, (1, 2), I2, (2, 2))

    def test_errors(self):
        m = Matrix01.from_ones(Shape((2, 2)), [(1, 1)])
        with pytest.raises(ValueError):
            potentially_matches(m, (1, 1), I2, (1, 1))  # z is a 1-entry
        with pytest.raises(ValueError):
            potentially_matches(m, (2, 2), I2, (1, 2))  # o is a pattern 0

    @given(host_and_pattern(max_host_cells=9, max_pattern_cells=4))
    def test_matches_anchored_on_flip(self, pair):
        m, p = pair
        zeros = list(m.iter_zeros())
        pos = list(p.iter_ones())
        if not zeros or not pos:
            return
        z, o = zeros[0], pos[0]
        got = potentially_matches(m, z, p, o)
        flipped = m.flip(z)
        want = False
        for sels in oracles.all_selections(m.shape, p.shape):
            d = m.shape.d
            if any(z[i] not in sels[i] for i in range(d)):
                continue
            if tuple(sels[i].index(z[i]) + 1 for i in range(d)) != o:
                continue
            if oracles.selection_valid(flipped, p, sels):
                want = True
                break
        assert got == want


class TestEnumeration:
    def test_lex_order_and_head(self):
        m = Matrix01.from_ones(Shape((3, 3)), [(1, 1), (2, 3), (3, 2)])
        embs = enumerate_embeddings(m, I2)
        assert embs == sorted(embs, key=lambda e: e.selections)
        assert embs[0] == contains(m, I2)
        assert all(embedding_is_valid(m, I2, e) for e in embs)

    def test_count(self):
        host = Shape((4, 3))
        assert embeddings_count(host, I2) == 6 * 3

    @with_builder_examples
    @given(host_and_pattern())
    def test_image_columns_match_oracle(self, pair):
        m, p = pair
        assert image_columns(m.shape, p) == oracle_columns(m.shape, p)

    @given(host_and_pattern(nonzero=True))
    def test_both_table_builds_match_oracle(self, pair):
        # image_columns runs one build per input; each must give the table
        m, p = pair
        assume(m.shape.fits(p.shape))
        want = oracle_columns(m.shape, p)
        assert _transposed(m.shape, p) == want
        assert _kronecker(m.shape, p) == want

    @pytest.mark.parametrize(
        "host,p",
        [
            # dimensions with many more selections than host indices, so
            # the per-dimension sets are built in several windows
            ((9,), Matrix01.from_nested([1, 0, 1])),
            ((9, 2), Matrix01.filled(Shape((3, 1)))),
            ((2, 10), Matrix01.from_nested([[0, 1, 1], [1, 0, 1]])),
            ((7, 2, 3), Matrix01.from_ones(Shape((3, 1, 2)), [(1, 1, 2), (3, 1, 1)])),
        ],
    )
    def test_image_columns_of_long_dimensions(self, host, p):
        want = oracle_columns(Shape(host), p)
        assert _kronecker(Shape(host), p) == image_columns(Shape(host), p) == want

    @with_builder_examples
    @given(host_and_pattern())
    def test_full_list_matches_oracle(self, pair):
        m, p = pair
        want = [
            as_embedding(sels)
            for sels in oracles.all_selections(m.shape, p.shape)
            if oracles.selection_valid(m, p, sels)
        ]
        assert enumerate_embeddings(m, p) == want

    def test_walk_of_a_pattern_that_does_not_fit_is_empty(self):
        # no dimension's selections are built, not even those that fit
        p = Matrix01.filled(Shape((4, 2)))
        assert image_offsets(Shape((9, 1)), p) == [[], []]

    def test_gate(self):
        m = Matrix01.zeros(Shape((40, 40)), cell_limit=None)
        p = Matrix01.zeros(Shape((10, 10)))
        with pytest.raises(ValueError):
            enumerate_embeddings(m, p, limit=1000)


class TestManyDimensions:
    def test_every_entry_point_on_twice_the_recursion_limit(self):
        # no search recurses per dimension, so a host of more unit
        # dimensions than the recursion limit is answered, not refused
        d = 2 * sys.getrecursionlimit()
        shape = Shape((1,) * d)
        one, zero, cell = Matrix01.filled(shape), Matrix01.zeros(shape), (1,) * d
        calls = {
            "contains": (lambda: contains(one, one), Embedding(((1,),) * d)),
            "anchored_contains": (lambda: anchored_contains(one, one, cell), Embedding(((1,),) * d)),
            "potentially_matches": (lambda: potentially_matches(zero, cell, one, cell), True),
            "is_saturating": (lambda: is_saturating(one, one).failure_kind, "contains_pattern"),
            "is_semisaturating": (lambda: is_semisaturating(zero, one).verdict, True),
            "greedy_saturate": (lambda: greedy_saturate(one, shape), zero),
        }
        for name, (call, want) in calls.items():
            assert call() == want, name


@pytest.mark.parametrize(
    "call", [exact_sat, embeddings_count, image_columns], ids=lambda f: f.__name__
)
def test_dimension_mismatch_names_both_dimensions(call):
    # every question about a host and a pattern goes through one gate
    with pytest.raises(ValueError, match="host is 2-dimensional, pattern is 3-dimensional"):
        call(Shape((3, 3)), identity_pattern(3, 2))
