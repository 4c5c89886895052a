from itertools import product

import pytest
from hypothesis import given, strategies as st

import oracles
from satmat import classification
from satmat import (
    Matrix01,
    Shape,
    classify_ssat,
    identity_pattern,
    lone_entry_condition,
    lone_in_hyperplane,
    property_i,
    property_ii,
)

I2 = identity_pattern(2, 2)


def pattern_2d(max_extent=3):
    return (
        st.tuples(st.integers(1, max_extent), st.integers(1, max_extent))
        .map(Shape)
        .flatmap(
            lambda s: st.integers(1, (1 << s.cell_count) - 1).map(
                lambda bits: Matrix01(s, bits)
            )
        )
    )


class TestLoneInHyperplane:
    def test_identity_rows(self):
        assert lone_in_hyperplane(I2, (1, 1), 1)
        assert lone_in_hyperplane(I2, (1, 1), 2)

    def test_dense_pattern(self):
        p = Matrix01.filled(Shape((2, 2)))
        assert not lone_in_hyperplane(p, (1, 1), 1)
        assert not lone_in_hyperplane(p, (2, 2), 2)

    def test_single_entry(self):
        p = Matrix01.from_nested([[1]])
        assert lone_in_hyperplane(p, (1, 1), 1)

    def test_errors(self):
        with pytest.raises(ValueError):
            lone_in_hyperplane(I2, (1, 2), 1)  # a 0-entry
        with pytest.raises(ValueError):
            lone_in_hyperplane(I2, (1, 1), 3)  # bad dimension


class TestPropertyII:
    def test_identity(self):
        assert property_ii(I2) == (1, 1)
        assert property_ii(identity_pattern(2, 3)) == (1, 1)

    def test_upper_triangle_fails(self):
        p = Matrix01.from_nested([[1, 1], [0, 1]])
        assert property_ii(p) is None

    def test_single_entry(self):
        assert property_ii(Matrix01.from_nested([[1]])) == (1, 1)

    def test_anti_identity_holds(self):
        # the reversed identity is a reflection of the identity, and the
        # lone-entry condition is reflection-invariant
        p = Matrix01.from_nested([[0, 1], [1, 0]])
        assert property_ii(p) == (1, 2)

    def test_one_dimensional_first_entry(self):
        assert property_ii(Matrix01.from_nested([0, 1, 1])) == (2,)

    def test_zero_pattern_rejected(self):
        with pytest.raises(ValueError):
            property_ii(Matrix01.zeros(Shape((2, 2))))


class TestPropertyI:
    def test_identity_passes(self):
        assert property_i(I2) is None

    def test_anti_identity_passes(self):
        assert property_i(Matrix01.from_nested([[0, 1], [1, 0]])) is None

    def test_corner_one_fails_on_far_face(self):
        p = Matrix01.from_nested([[1, 0], [0, 0]])
        face = property_i(p)
        assert face is not None
        assert face.fixed == ((1, 2),)  # the all-zero far row

    def test_one_dimensional_vacuous(self):
        assert property_i(Matrix01.from_nested([1, 0, 1])) is None

    def test_exhaustive_against_brute_force(self):
        # every nonzero 2-D pattern up to 3x3 and 3-D pattern up to 2x2x2
        exts = [*product(range(1, 4), repeat=2), *product(range(1, 3), repeat=3)]
        for ext in exts:
            shape = Shape(ext)
            for bits in range(1, 1 << shape.cell_count):
                p = Matrix01(shape, bits)
                assert property_i(p) == oracles.brute_property_i(p), (ext, bits)

    def test_cube_identity_fails_on_mixed_edge(self):
        # the 3D identity has all-zero edges, e.g. x1 low with x3 high
        p = identity_pattern(3, 2)
        face = property_i(p)
        assert face is not None
        assert len(face.fixed) == 2


class TestLoneEntryCondition:
    def test_single_entry_3d(self):
        p = Matrix01.from_ones(Shape((1, 1, 1)), [(1, 1, 1)])
        assert lone_entry_condition(p, 1) == (1, 1, 1)

    def test_identity_2d(self):
        assert lone_entry_condition(I2, 1) == (1, 1)

    def test_dense_2d(self):
        assert lone_entry_condition(Matrix01.filled(Shape((2, 2))), 1) is None

    def test_dprime_range(self):
        with pytest.raises(ValueError):
            lone_entry_condition(I2, 2)
        with pytest.raises(ValueError):
            lone_entry_condition(I2, 0)

    def test_same_entry_as_property_ii_over_both_universes(self):
        # every nonzero 2-D pattern up to 3x3 and 3-D pattern up to 2x2x2
        exts = [*product(range(1, 4), repeat=2), *product(range(1, 3), repeat=3)]
        seen = 0
        for ext in exts:
            shape = Shape(ext)
            for bits in range(1, 1 << shape.cell_count):
                p = Matrix01(shape, bits)
                assert lone_entry_condition(p, shape.d - 1) == property_ii(p), (ext, bits)
                seen += 1
        assert seen == 983

    @given(pattern_2d())
    def test_matches_property_ii_at_codimension_one(self, p):
        assert (lone_entry_condition(p, 1) is not None) == (
            property_ii(p) is not None
        )


class TestClassify:
    def test_identity_2d_bounded(self):
        for size in (1, 2, 3):
            v = classify_ssat(identity_pattern(2, size))
            assert v.bounded and v.witness_entry == (1, 1)

    def test_identity_3d_unbounded(self):
        # mixed low/high edges of the cube carry no 1-entry, so some face
        # fails and the semisaturation weight grows with n
        v = classify_ssat(identity_pattern(3, 2))
        assert not v.bounded
        assert not v.property_i_holds
        assert v.property_ii_holds

    def test_all_ones_unbounded(self):
        v = classify_ssat(Matrix01.filled(Shape((2, 2))))
        assert not v.bounded and not v.property_ii_holds

    def test_lonely_corner_unbounded(self):
        v = classify_ssat(Matrix01.from_nested([[1, 0], [0, 0]]))
        assert not v.bounded
        assert v.failing_face is not None

    def test_verdict_consistency(self):
        v = classify_ssat(I2)
        assert v.bounded == (v.property_i_holds and v.property_ii_holds)

    def test_one_cell_pattern_walks_no_faces(self, monkeypatch):
        # the 1-cell pattern of d dimensions has 2^d - 2 faces, all passing
        def no_walk(*args):
            raise AssertionError("faces walked")

        monkeypatch.setattr(classification, "iter_faces", no_walk)
        v = classify_ssat(Matrix01.filled(Shape((1,) * 40)))
        assert v.bounded
        assert v.witness_entry == (1,) * 40

    @given(pattern_2d())
    def test_reflection_invariance(self, p):
        # reflecting any axis maps embeddings to embeddings, so boundedness
        # must be invariant
        rows, cols = p.shape.extents
        flipped = Matrix01.from_ones(
            p.shape, [(rows + 1 - r, c) for r, c in p.iter_ones()]
        )
        assert classify_ssat(p).bounded == classify_ssat(flipped).bounded

    def test_bounded_census(self):
        # regression: counts pinned from this suite's own enumeration and
        # cross-validated by the acceptance criteria
        def universe_2d():
            for l1 in (1, 2, 3):
                for l2 in (1, 2, 3):
                    shape = Shape((l1, l2))
                    for bits in range(1, 1 << shape.cell_count):
                        yield Matrix01(shape, bits)

        bounded = [p for p in universe_2d() if classify_ssat(p).bounded]
        assert len(bounded) == 19
        anti_diag = Matrix01.from_nested([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
        assert any(p == anti_diag for p in bounded)
