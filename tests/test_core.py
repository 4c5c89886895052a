import math
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from conftest import matrix_of_random_shape, shapes
from satmat import (
    CrossSectionSpec,
    Matrix01,
    ParseError,
    Relation,
    Shape,
    comparable,
    diagonal_key,
    diagonal_through,
    diagonals,
    entries_above,
    entries_below,
    format_01m,
    is_complete_staircase,
    is_semiabove,
    is_semibelow,
    is_staircase,
    iter_faces,
    iter_i_rows,
    order_relation,
    parse_01m,
    shell,
)


class TestShape:
    def test_validation(self):
        with pytest.raises(ValueError):
            Shape(())
        with pytest.raises(ValueError):
            Shape((3, 0))

    @pytest.mark.parametrize(
        "extents,cells,diags",
        [((3, 3), 9, 5), ((2, 2, 2), 8, 7), ((1, 1), 1, 1), ((4, 5), 20, 8)],
    )
    def test_counts(self, extents, cells, diags):
        s = Shape(extents)
        assert s.cell_count == cells
        assert s.diagonal_count == diags

    @given(st.lists(st.integers(1, 9), min_size=1, max_size=5))
    def test_cell_count_and_strides(self, extents):
        # the product of the extents, and the row-major strides: the last
        # dimension fastest, each stride the product of the extents after it
        s = Shape(tuple(extents))
        assert s.cell_count == math.prod(extents)
        assert s.strides == tuple(math.prod(extents[i + 1 :]) for i in range(len(extents)))
        assert s.flat_index(tuple(extents)) == sum((n - 1) * t for n, t in zip(extents, s.strides))

    def test_a_huge_shape_allocates_nothing(self):
        # a cell count of 10^27: the shape and a matrix on it are built from
        # small ints, as the full mask is never made
        tracemalloc.start()
        try:
            s = Shape((10**9,) * 3)
            m = Matrix01(s, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (s.cell_count, s.strides) == (10**27, (10**18, 10**9, 1))
        assert m.weight == 2
        assert peak < 64 * 1024

    def test_flat_round_trip(self):
        s = Shape((2, 3, 2))
        flats = [s.flat_index(c) for c in s.cells()]
        assert flats == list(range(s.cell_count))
        assert [s.coord_at(f) for f in flats] == list(s.cells())


class TestOrderRelation:
    def test_spec_cases(self):
        assert order_relation((1, 1), (2, 2)) is Relation.ABOVE
        assert order_relation((1, 2), (2, 1)) is Relation.INCOMPARABLE
        assert order_relation((2, 2, 2), (1, 1, 1)) is Relation.BELOW
        assert order_relation((2, 2), (2, 2)) is Relation.EQUAL

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            order_relation((1, 2), (1, 2, 3))

    @given(
        st.integers(1, 3).flatmap(
            lambda d: st.tuples(
                st.tuples(*(st.integers(1, 4) for _ in range(d))),
                st.tuples(*(st.integers(1, 4) for _ in range(d))),
            )
        )
    )
    def test_matches_naive_definition(self, pair):
        a, b = pair
        rel = order_relation(a, b)
        if a == b:
            assert rel is Relation.EQUAL
        elif all(x < y for x, y in zip(a, b)):
            assert rel is Relation.ABOVE
        elif all(x > y for x, y in zip(a, b)):
            assert rel is Relation.BELOW
        else:
            assert rel is Relation.INCOMPARABLE
        assert is_semiabove(a, b) == all(x <= y for x, y in zip(a, b))
        assert is_semibelow(a, b) == all(x >= y for x, y in zip(a, b))
        assert comparable(a, b) == (rel in (Relation.ABOVE, Relation.BELOW))


class TestDiagonals:
    @given(shapes())
    def test_partition_and_steps(self, shape):
        ds = diagonals(shape)
        assert len(ds) == shape.diagonal_count
        seen = set()
        for diag in ds:
            assert min(diag[0]) == 1  # top touches a low boundary
            assert any(x == n for x, n in zip(diag[-1], shape.extents))
            for a, b in zip(diag, diag[1:]):
                assert all(y - x == 1 for x, y in zip(a, b))
            assert len({diagonal_key(c) for c in diag}) == 1
            seen.update(diag)
        assert seen == set(shape.cells())

    def test_through(self):
        assert diagonal_through(Shape((3, 3)), (2, 3)) == [(1, 2), (2, 3)]
        assert diagonal_through(Shape((1, 1)), (1, 1)) == [(1, 1)]


class TestShell:
    @given(shapes())
    def test_shell_law(self, shape):
        s = shell(shape)
        expected = {
            c for c in shape.cells() if any(x == n for x, n in zip(c, shape.extents))
        }
        assert s == expected
        assert len(s) == shape.diagonal_count
        assert is_complete_staircase(s, shape)

    def test_examples(self):
        assert shell(Shape((3, 3))) == {(3, 1), (3, 2), (3, 3), (1, 3), (2, 3)}
        s = shell(Shape((2, 2, 2)))
        assert len(s) == 7 and (1, 1, 1) not in s
        assert shell(Shape((1, 1, 1))) == {(1, 1, 1)}


class TestStaircases:
    def test_complete_staircase_examples(self):
        s33 = Shape((3, 3))
        assert is_complete_staircase(shell(s33), s33)
        assert not is_complete_staircase({(1, 3), (2, 2), (3, 1)}, s33)
        assert not is_complete_staircase({(3, 1), (1, 3), (2, 2), (3, 2)}, s33)

    def test_antichain(self):
        assert is_staircase({(1, 3), (2, 2), (3, 1)})
        assert not is_staircase({(1, 1), (2, 2)})

    def test_entries_below_shell_empty(self):
        s = Shape((2, 2))
        assert entries_below(s, shell(s)) == []

    def test_entries_below_requires_complete(self):
        s = Shape((3, 3))
        with pytest.raises(ValueError):
            entries_below(s, {(2, 1), (2, 2), (2, 3), (1, 3)})

    @given(shapes(max_cells=16))
    def test_partition_against_shell(self, shape):
        s = shell(shape)
        below = set(entries_below(shape, s))
        above = set(entries_above(shape, s))
        assert below.isdisjoint(above)
        assert below.isdisjoint(s) and above.isdisjoint(s)
        assert below | above | s == set(shape.cells())

    def test_partition_inner_staircase(self):
        # a complete staircase away from the shell separates both sides
        shape = Shape((3, 3))
        s = {(3, 1), (2, 1), (2, 2), (2, 3), (1, 3)}  # keys -2..2
        assert is_complete_staircase(s, shape)
        below = set(entries_below(shape, s))
        above = set(entries_above(shape, s))
        assert below == {(3, 2), (3, 3)}
        assert above == {(1, 1), (1, 2)}
        assert below | above | s == set(shape.cells())


class TestMatrix01:
    def test_bits_validation(self):
        for bits in (1 << 4, -1):
            with pytest.raises(ValueError, match="bits outside the cell range"):
                Matrix01(Shape((2, 2)), bits)

    def test_cell_limit(self):
        with pytest.raises(ValueError):
            Matrix01.zeros(Shape((2,) * 25))
        assert Matrix01.zeros(Shape((2,) * 25), cell_limit=None).weight == 0

    def test_from_nested(self):
        m = Matrix01.from_nested([[1, 0, 1], [0, 1, 0]])
        assert m.shape.extents == (2, 3)
        assert sorted(m.iter_ones()) == [(1, 1), (1, 3), (2, 2)]

    @pytest.mark.parametrize("nested", [[], [[]], [[], []], [[[]]]])
    def test_from_nested_empty(self, nested):
        with pytest.raises(ValueError, match="empty"):
            Matrix01.from_nested(nested)

    @pytest.mark.parametrize("nested", [[1, [0]], [[1, [0, 0]]], [[1, 0], 5], [[1], [0, 1]]])
    def test_from_nested_ragged(self, nested):
        with pytest.raises(ValueError, match="ragged"):
            Matrix01.from_nested(nested)

    def test_from_nested_on_twice_the_recursion_limit(self):
        # flattened level by level, so no nesting is refused for its depth
        d = 2 * sys.getrecursionlimit()
        nested = 1
        for _ in range(d):
            nested = [nested]
        assert Matrix01.from_nested(nested) == Matrix01.filled(Shape((1,) * d))

    def test_factories_advise_lifting_the_cap(self):
        shape = Shape((2,) * 25)
        for build in (
            lambda: Matrix01.zeros(shape),
            lambda: Matrix01.filled(shape),
            lambda: Matrix01.from_ones(shape, []),
            lambda: parse_01m("dims: " + "2 " * 25),
        ):
            with pytest.raises(ValueError, match="pass cell_limit=None to override"):
                build()

    @given(matrix_of_random_shape())
    def test_weight_and_iteration(self, m):
        ones = list(m.iter_ones())
        zeros = list(m.iter_zeros())
        assert len(ones) == m.weight
        assert len(ones) + len(zeros) == m.shape.cell_count
        assert ones == sorted(ones) and zeros == sorted(zeros)
        assert all(m.get(c) == 1 for c in ones)
        assert all(m.get(c) == 0 for c in zeros)

    @given(
        shapes(max_extent=16, max_cells=400),
        st.randoms(use_true_random=False),
        st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]),
    )
    def test_iteration_against_the_definition(self, shape, rng, density):
        # both sides of the switch: bits peeled up to 64 cells, flag bytes above
        m = Matrix01(shape, sum(1 << k for k in range(shape.cell_count) if rng.random() < density))
        assert list(m.iter_ones()) == [c for c in shape.cells() if m.get(c)]
        assert list(m.iter_zeros()) == [c for c in shape.cells() if not m.get(c)]

    def test_walking_a_million_cells_is_linear(self):
        # peeling a bit at a time copies the int per cell: a quadratic walk
        # of a million cells takes about a minute
        shape = Shape((1000, 1000))
        start = time.perf_counter()
        assert sum(1 for _ in Matrix01.filled(shape).iter_ones()) == 10**6
        assert sum(1 for _ in Matrix01.zeros(shape).iter_zeros()) == 10**6
        assert next(Matrix01.filled(shape).iter_zeros(), None) is None
        assert time.perf_counter() - start < 10.0

    @given(matrix_of_random_shape())
    def test_flip_involution(self, m):
        for c in list(m.shape.cells())[:4]:
            f = m.flip(c)
            assert f.get(c) == 1 - m.get(c)
            assert f.flip(c) == m
            assert abs(f.weight - m.weight) == 1

    @given(matrix_of_random_shape(), st.integers(0, 11), st.booleans())
    def test_flip_carries_the_line_table(self, m, i, built):
        # a built table is passed on with one line toggled, as a fresh list
        # that leaves the parent's as it was; an unbuilt one stays unbuilt
        z = m.shape.coord_at(i % m.shape.cell_count)
        before = list(m._last_lines) if built else None
        f = m.flip(z)
        assert ("_last_lines" in vars(f)) == built
        assert f._last_lines == Matrix01(f.shape, f.bits)._last_lines
        if built:
            assert m._last_lines == before
            assert f._last_lines is not m._last_lines
        else:
            assert "_last_lines" not in vars(m)


class TestFormat01m:
    def test_golden_2d(self):
        m = Matrix01.from_nested([[1, 0, 1], [0, 1, 0]])
        assert format_01m(m) == "dims: 2 3\n101\n010\n"

    def test_golden_3d_groups(self):
        m = Matrix01.from_nested([[[1, 0], [0, 1]], [[1, 1], [0, 0]]])
        assert format_01m(m) == "dims: 2 2 2\n10\n01\n\n11\n00\n"

    def test_golden_1d(self):
        m = Matrix01.from_nested([1, 1, 0])
        assert format_01m(m) == "dims: 3\n110\n"

    @given(matrix_of_random_shape())
    def test_round_trip(self, m):
        assert parse_01m(format_01m(m)) == m

    def test_whitespace_insensitive(self):
        assert parse_01m("dims: 2 2\n1 0\n\n 0\t1\n") == Matrix01.from_nested(
            [[1, 0], [0, 1]]
        )

    @pytest.mark.parametrize(
        "text",
        [
            "dim: 2 2\n1001",
            "dims: 2 2\n100",
            "dims: 2 2\n10011",
            "dims: 2 2\n10x1",
            "dims: 0 2\n",
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises((ParseError, ValueError)):
            parse_01m(text)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("dim: 2 2\n1001", "bad header line: 'dim: 2 2'"),
            ("dims: 2 2\n100", r"expected 4 cells for dims \(2, 2\), got 3"),
            ("dims: 2 2\n1 0\n1x1", "unexpected character 'x' in matrix body"),
            # the first offending character is named, before any count check
            ("dims: 3\n1\u0663 1 1 2", "unexpected character '\u0663' in matrix body"),
            # extents are ASCII digits only
            ("dims: \u0663\n111", "bad header line"),
        ],
    )
    def test_parse_error_messages(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_01m(text)

    def test_unicode_whitespace_in_body(self):
        text = "dims: 2 2\n1\u00a00\u2028\x1c0\u30001\n"
        assert parse_01m(text) == Matrix01.from_nested([[1, 0], [0, 1]])

    @given(
        st.one_of(
            st.text(),
            st.tuples(
                st.sampled_from(["dims:", "dims: ", "dim: ", ""]),
                st.lists(
                    st.one_of(
                        st.integers(0, 4).map(str),
                        st.sampled_from(["\u0663", "-1", "1_0", "x"]),
                    ),
                    max_size=3,
                ),
                st.sampled_from(["\n", " \n", "\n\n", ""]),
                st.lists(
                    st.sampled_from(list("01 \n\t\x1c\x85\xa0\u3000\u0663x_2")),
                    max_size=20,
                ),
            ).map(lambda t: t[0] + " ".join(t[1]) + t[2] + "".join(t[3])),
        )
    )
    def test_fuzz_parses_or_raises_value_error(self, text):
        # ParseError is a ValueError; nothing else may escape
        try:
            m = parse_01m(text)
        except ValueError:
            return
        body = text.lstrip().partition("\n")[2]
        assert m.shape.cell_count == body.count("0") + body.count("1")
        assert m.weight == body.count("1")
        assert parse_01m(format_01m(m)) == m

    @given(
        matrix_of_random_shape(), st.integers(1, 7), st.sampled_from([" ", "\n", "\t "])
    )
    def test_round_trip_rewrapped(self, m, width, sep):
        # any rewrapping of the body reads back as the same matrix
        header, body = format_01m(m).split("\n", 1)
        cells = "".join(body.split())
        rewrapped = sep.join(cells[i : i + width] for i in range(0, len(cells), width))
        assert parse_01m(header + "\n" + rewrapped) == m

    def test_large_body_parses_in_linear_time(self):
        # a quadratic parser takes seconds here
        m = Matrix01(Shape((1000, 1000)), random.Random(1).getrandbits(1000 * 1000))
        text = format_01m(m)
        start = time.perf_counter()
        assert parse_01m(text) == m
        assert time.perf_counter() - start < 1.0


class TestBoundsChecks:
    def test_coord_and_flat_validation(self):
        s = Shape((2, 3))
        with pytest.raises(ValueError):
            s.flat_index((3, 1))
        with pytest.raises(ValueError):
            s.flat_index((1,))
        with pytest.raises(ValueError):
            s.coord_at(6)
        with pytest.raises(ValueError):
            diagonal_through(s, (0, 1))

    def test_matrix_get_checks_bounds(self):
        m = Matrix01.zeros(Shape((2, 2)))
        with pytest.raises(ValueError):
            m.get((3, 3))

    def test_cross_section_out_of_bounds(self):
        with pytest.raises(ValueError):
            list(CrossSectionSpec(((1, 5),)).cells(Shape((2, 2))))

    def test_face_and_row_enumeration_ranges(self):
        with pytest.raises(ValueError):
            list(iter_faces(Shape((2, 2)), 2))
        with pytest.raises(ValueError):
            list(iter_i_rows(Shape((2, 2)), 3))


class TestCrossSections:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CrossSectionSpec(((1, 1), (1, 2)))

    def test_cells_and_dims(self):
        s = Shape((2, 3))
        spec = CrossSectionSpec(((1, 2),))
        assert list(spec.cells(s)) == [(2, 1), (2, 2), (2, 3)]
        assert spec.free_dims(2) == (2,)
        assert spec.dimension(2) == 1
        assert spec.is_face(s)

    def test_iter_faces_square(self):
        s = Shape((2, 2))
        faces = list(iter_faces(s, 1))
        assert [f.fixed for f in faces] == [
            ((1, 1),),
            ((1, 2),),
            ((2, 1),),
            ((2, 2),),
        ]

    def test_iter_faces_collapsed_extent(self):
        faces = list(iter_faces(Shape((1, 3)), 1))
        assert [f.fixed for f in faces] == [((1, 1),), ((2, 1),), ((2, 3),)]

    def test_i_rows(self):
        s = Shape((2, 2, 3))
        rows = list(iter_i_rows(s, 3))
        assert len(rows) == 4
        assert all(r.dimension(3) == 1 for r in rows)
        cells = [c for r in rows for c in r.cells(s)]
        assert sorted(cells) == sorted(s.cells())
