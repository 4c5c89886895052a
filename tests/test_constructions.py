import math
import random

import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import matrix_of_random_shape, shapes
from satmat import (
    DEFAULT_CELL_LIMIT,
    Matrix01,
    PatternFitError,
    Shape,
    bottom_staircase,
    cell_order,
    corner_block,
    diagonal_concatenation,
    greedy_saturate,
    has_corner_only_shell,
    identity_layers,
    identity_pattern,
    is_complete_staircase,
    is_saturating,
    is_semisaturating,
    offset_block,
    shell,
    staircase_decompose,
    strip_shell,
)

I2 = identity_pattern(2, 2)
I3 = identity_pattern(2, 3)
UNIT2 = identity_pattern(2, 1)


class TestDiagonalConcatenation:
    def test_builds_identities(self):
        assert diagonal_concatenation(UNIT2, UNIT2) == I2
        assert diagonal_concatenation(I2, UNIT2) == I3

    def test_filler_zeros(self):
        a = Matrix01.filled(Shape((1, 2)))
        b = Matrix01.filled(Shape((2, 1)))
        m = diagonal_concatenation(a, b)
        assert m.shape.extents == (3, 3)
        assert sorted(m.iter_ones()) == [(1, 1), (1, 2), (2, 3), (3, 3)]

    @given(matrix_of_random_shape(max_d=3, max_extent=2, max_cells=8), st.data())
    def test_weight_additivity(self, a, data):
        b_bits = data.draw(st.integers(0, (1 << a.shape.cell_count) - 1))
        b = Matrix01(a.shape, b_bits)
        m = diagonal_concatenation(a, b)
        assert m.weight == a.weight + b.weight
        assert m.shape.extents == tuple(2 * n for n in a.shape.extents)


class TestCornerOnlyShell:
    def test_identity_has_it(self):
        assert has_corner_only_shell(I2)
        assert has_corner_only_shell(identity_pattern(3, 2))
        assert has_corner_only_shell(identity_pattern(1, 1))

    def test_counterexamples(self):
        assert not has_corner_only_shell(Matrix01.from_nested([[1, 1], [0, 1]]))
        assert not has_corner_only_shell(Matrix01.from_nested([[1, 0], [0, 0]]))


class TestBottomStaircase:
    def test_shell_indicator(self):
        sh = Shape((3, 3))
        m = Matrix01.from_ones(sh, shell(sh))
        assert bottom_staircase(m) == shell(sh)

    def test_all_zero(self):
        assert bottom_staircase(Matrix01.zeros(Shape((2, 2)))) is None

    def test_offset_block_witness(self):
        m = offset_block(I2, 3, (1, 1))
        s = bottom_staircase(m)
        assert s == shell(Shape((3, 3)))
        assert is_complete_staircase(s, m.shape)

    def test_missing_diagonal_gives_none(self):
        m = Matrix01.from_ones(Shape((3, 3)), [(1, 1), (3, 2)])
        assert bottom_staircase(m) is None  # several empty diagonals

    def test_not_necessarily_antichain(self):
        # every diagonal hit, but the bottommost 1s are comparable
        from satmat import is_staircase

        m = Matrix01.from_ones(
            Shape((3, 3)), [(1, 1), (3, 2), (1, 3), (2, 3), (3, 1)]
        )
        s = bottom_staircase(m)
        assert s == {(1, 1), (3, 2), (1, 3), (2, 3), (3, 1)}
        assert not is_staircase(s)


class TestStripShell:
    def test_all_one_two_by_two(self):
        m = Matrix01.filled(Shape((2, 2)))
        out = strip_shell(m, shell(m.shape))
        assert out.shape.extents == (1, 1) and out.weight == 1

    def test_shell_indicator_goes_blank(self):
        sh = Shape((3, 3))
        m = Matrix01.from_ones(sh, shell(sh))
        out = strip_shell(m, shell(sh))
        assert out.shape.extents == (2, 2) and out.weight == 0

    def test_shape_shrinks(self):
        m = Matrix01.filled(Shape((2, 3, 2)))
        out = strip_shell(m, shell(m.shape))
        assert out.shape.extents == (1, 2, 1)

    def test_errors(self):
        m = Matrix01.filled(Shape((3, 3)))
        with pytest.raises(ValueError):
            strip_shell(m, {(3, 3)})
        with pytest.raises(ValueError):
            strip_shell(Matrix01.filled(Shape((1, 3))), shell(Shape((1, 3))))


class TestIdentityLayers:
    @pytest.mark.parametrize(
        "extents,k,weight",
        [((4, 4), 1, 7), ((3, 3, 3), 1, 19), ((4, 4), 2, 12), ((5, 5), 2, 16)],
    )
    def test_weights(self, extents, k, weight):
        m = identity_layers(Shape(extents), k)
        assert m.weight == weight
        assert m.weight == math.prod(extents) - math.prod(n - k for n in extents)

    def test_matches_union_of_nested_shells(self):
        sh = Shape((4, 5))
        m = identity_layers(sh, 2)
        want = set()
        for j in range(2):
            inner = Shape(tuple(n - j for n in sh.extents))
            want.update(shell(inner))
        assert set(m.iter_ones()) == want

    def test_saturates_identity(self):
        assert is_saturating(identity_layers(Shape((4, 4)), 2), I3).verdict
        assert is_saturating(
            identity_layers(Shape((3, 3, 3)), 1), identity_pattern(3, 2)
        ).verdict

    def test_k_range(self):
        with pytest.raises(ValueError):
            identity_layers(Shape((3, 3)), 4)
        with pytest.raises(ValueError):
            identity_layers(Shape((3, 3)), 0)
        assert identity_layers(Shape((2, 2)), 2) == Matrix01.filled(Shape((2, 2)))


class TestGreedySaturate:
    def test_row_major_3x3(self):
        m = greedy_saturate(I2, Shape((3, 3)))
        assert sorted(m.iter_ones()) == [(1, 1), (1, 2), (1, 3), (2, 1), (3, 1)]
        assert m.weight == 5

    def test_cube_identity(self):
        p = identity_pattern(3, 2)
        m = greedy_saturate(p, Shape((2, 2, 2)))
        assert m.weight == 7

    def test_idempotent_on_saturating_seed(self):
        host = Shape((4, 4))
        m = greedy_saturate(I2, host, cell_order(host, seed=3))
        seed_first = list(m.iter_ones()) + list(m.iter_zeros())
        again = greedy_saturate(I2, host, seed_first)
        assert again == m

    def test_random_orders_always_saturate(self):
        host = Shape((3, 4))
        for seed in range(6):
            m = greedy_saturate(I2, host, cell_order(host, seed))
            assert oracles.brute_is_saturating(m, I2)

    def test_errors(self):
        with pytest.raises(ValueError):
            greedy_saturate(Matrix01.zeros(Shape((2, 2))), Shape((3, 3)))
        with pytest.raises(PatternFitError):
            greedy_saturate(I3, Shape((2, 2)))
        with pytest.raises(ValueError):
            greedy_saturate(I2, Shape((2, 2)), [(1, 1), (1, 2)])


class TestStaircaseDecompose:
    def test_layer_weights(self):
        m = identity_layers(Shape((4, 4)), 2)
        layers = staircase_decompose(m, 2)
        assert layers is not None
        assert [len(l) for l in layers] == [7, 5]

    def test_greedy_instances_decompose(self):
        host = Shape((4, 4))
        for seed in range(4):
            m = greedy_saturate(I3, host, cell_order(host, seed))
            layers = staircase_decompose(m, 2)
            assert layers is not None
            assert [len(l) for l in layers] == [7, 5]

    def test_all_zero_fails(self):
        assert staircase_decompose(Matrix01.zeros(Shape((2, 2))), 1) is None

    def test_wrong_k_fails(self):
        m = identity_layers(Shape((4, 4)), 2)
        assert staircase_decompose(m, 1) is None
        assert staircase_decompose(m, 3) is None


class TestOffsetBlock:
    def test_identity_anchor_low(self):
        m = offset_block(I2, 4, (1, 1))
        zeros = {c for c in m.shape.cells() if not m.get(c)}
        assert zeros == {(a, b) for a in (1, 2, 3) for b in (1, 2, 3)}
        assert m.weight == 7

    def test_weight_formula(self):
        p = Matrix01.filled(Shape((2, 3)))
        m = offset_block(p, 5)
        assert m.weight == 25 - (5 - 2 + 1) * (5 - 3 + 1) == 13

    def test_default_anchor_is_first_one(self):
        p = Matrix01.from_nested([[0, 1], [1, 0]])
        assert offset_block(p, 4) == offset_block(p, 4, (1, 2))

    def test_anchor_must_be_one(self):
        with pytest.raises(ValueError):
            offset_block(I2, 4, (1, 2))

    def test_saturates(self):
        rng = random.Random(5)
        for _ in range(10):
            ext = (rng.randint(1, 2), rng.randint(1, 3))
            pshape = Shape(ext)
            p = Matrix01(pshape, rng.randrange(1, 1 << pshape.cell_count))
            n = rng.randint(max(ext) + 1, 5)
            anchors = list(p.iter_ones())
            anchor = rng.choice(anchors)
            m = offset_block(p, n, anchor)
            assert oracles.brute_is_saturating(m, p)


class TestCornerBlock:
    def test_identity_corners(self):
        m = corner_block(I2, 5)
        assert sorted(m.iter_ones()) == [(1, 1), (1, 5), (5, 1), (5, 5)]
        assert m.weight == 4

    def test_degenerate_extent_weight_zero(self):
        p = Matrix01.from_nested([[1]])
        assert corner_block(p, 4).weight == 0

    def test_weight_constant_in_n(self):
        p = Matrix01.from_nested([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        weights = {corner_block(p, n).weight for n in range(5, 9)}
        assert weights == {4 * 4}

    def test_bands_must_not_overlap(self):
        with pytest.raises(ValueError):
            corner_block(I3, 4)

    def test_semisaturates_for_identity(self):
        for n in (3, 4, 5):
            assert is_semisaturating(corner_block(I2, n), I2).verdict


class TestWeightRigidity:
    """All saturating matrices for an identity pattern share one weight."""

    @pytest.mark.parametrize(
        "extents,size",
        [((2, 2), 2), ((2, 3), 2), ((3, 3), 2), ((3, 3), 3), ((2, 2, 2), 2)],
    )
    def test_exhaustive_census(self, extents, size):
        shape = Shape(extents)
        k = size - 1
        p = identity_pattern(shape.d, size)
        want = math.prod(extents) - math.prod(n - k for n in extents)
        weights = {
            m.weight
            for m in (Matrix01(shape, bits) for bits in range(1 << shape.cell_count))
            if oracles.brute_is_saturating(m, p)
        }
        assert weights == {want}


class TestShellWrap:
    """Wrapping a saturating matrix in an all-1 shell saturates the grown pattern."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wrap_preserves_saturation(self, seed):
        p_inner = I2
        p_outer = diagonal_concatenation(p_inner, UNIT2)
        inner_host = Shape((3, 3))
        inner = greedy_saturate(p_inner, inner_host, cell_order(inner_host, seed))
        outer_host = Shape((4, 4))
        ones = set(shell(outer_host)) | set(inner.iter_ones())
        outer = Matrix01.from_ones(outer_host, ones)
        assert is_saturating(outer, p_outer).verdict


class TestAgainstDefinitions:
    """Each box construction equals its per-cell definition in the oracles."""

    @given(matrix_of_random_shape(max_d=3, max_extent=3, max_cells=12), st.data())
    def test_offset_block_every_anchor(self, p, data):
        if p.weight == 0:
            return
        n = data.draw(st.integers(max(p.shape.extents), max(p.shape.extents) + 3))
        for anchor in p.iter_ones():
            assert offset_block(p, n, anchor) == oracles.brute_offset_block(p, n, anchor)

    @given(shapes(max_d=3, max_extent=6, max_cells=60), st.data())
    def test_identity_layers(self, shape, data):
        k = data.draw(st.integers(1, min(shape.extents)))
        assert identity_layers(shape, k) == oracles.brute_identity_layers(shape, k)

    @given(matrix_of_random_shape(max_d=3, max_extent=3, max_cells=12), st.data())
    def test_corner_block(self, p, data):
        lo = 2 * max(p.shape.extents) - 1
        n = data.draw(st.integers(lo, lo + 3))
        assert corner_block(p, n) == oracles.brute_corner_block(p, n)

    @given(matrix_of_random_shape(max_d=3, max_extent=4, max_cells=16))
    def test_corner_only_shell(self, p):
        assert has_corner_only_shell(p) == oracles.brute_corner_only_shell(p)


class TestCellCap:
    """Constructions refuse hosts above the cap before building them."""

    N = 4097  # 4097**2 = 16_785_409 cells

    def test_cap_is_just_exceeded(self):
        assert self.N**2 > DEFAULT_CELL_LIMIT >= (self.N - 1) ** 2

    def test_identity_layers(self):
        shape = Shape((self.N, self.N))
        with pytest.raises(ValueError, match="exceeds the cap"):
            identity_layers(shape, 1)
        assert "full_mask" not in shape.__dict__

    def test_offset_block(self):
        with pytest.raises(ValueError, match="exceeds the cap"):
            offset_block(I2, self.N)

    def test_corner_block(self):
        with pytest.raises(ValueError, match="exceeds the cap"):
            corner_block(I2, self.N)

    def test_reasons_do_not_mention_cell_limit(self):
        # these constructions take no cell_limit parameter to lift the cap
        for build in (
            lambda: identity_layers(Shape((self.N, self.N)), 1),
            lambda: offset_block(I2, self.N),
            lambda: corner_block(I2, self.N),
        ):
            with pytest.raises(ValueError, match="exceeds the cap") as err:
                build()
            assert "cell_limit" not in str(err.value)

    def test_cell_order_and_greedy(self, monkeypatch):
        # a missing check would fail here instead of listing 16.8M cells
        monkeypatch.setattr(Shape, "cells", lambda self: pytest.fail("cells listed"))
        shape = Shape((self.N, self.N))
        for build in (
            lambda: cell_order(shape),
            lambda: cell_order(shape, seed=1),
            lambda: greedy_saturate(I2, shape),
            lambda: greedy_saturate(I2, shape, order=[]),
        ):
            with pytest.raises(ValueError, match="exceeds the cap") as err:
                build()
            assert "cell_limit" not in str(err.value)

    def test_diagonal_concatenation_output(self):
        # two 4096-cell inputs whose concatenation has 4097**2 cells
        a = Matrix01.filled(Shape((1, self.N - 1)))
        b = Matrix01.filled(Shape((self.N - 1, 1)))
        with pytest.raises(ValueError, match="exceeds the cap") as err:
            diagonal_concatenation(a, b)
        assert "cell_limit" not in str(err.value)
