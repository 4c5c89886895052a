import math

import pytest
from hypothesis import settings, strategies as st

from satmat import Matrix01, Shape
from satmat.containment import _search_rows

settings.register_profile("satmat", deadline=None, max_examples=100)
settings.load_profile("satmat")


@pytest.fixture(autouse=True)
def no_search_rows():
    """Each test starts with no exact search's rows kept, so its verdicts
    take the path it forces, whatever test ran before."""
    _search_rows[0] = None


def shapes(max_d=3, max_extent=4, max_cells=12):
    return (
        st.lists(st.integers(1, max_extent), min_size=1, max_size=max_d)
        .map(tuple)
        .filter(lambda e: math.prod(e) <= max_cells)
        .map(Shape)
    )


def matrices(shape: Shape):
    return st.integers(0, (1 << shape.cell_count) - 1).map(
        lambda bits: Matrix01(shape, bits)
    )


@st.composite
def matrix_of_random_shape(draw, max_d=3, max_extent=4, max_cells=12):
    shape = draw(shapes(max_d, max_extent, max_cells))
    return draw(matrices(shape))


@st.composite
def host_and_pattern(draw, max_host_cells=12, max_pattern_cells=6, nonzero=False):
    """A host/pattern pair of equal dimension; the pattern may not fit."""
    host_shape = draw(shapes(max_cells=max_host_cells))
    d = host_shape.d
    p_ext = tuple(
        draw(st.lists(st.integers(1, 3), min_size=d, max_size=d))
    )
    p_shape = Shape(p_ext)
    if p_shape.cell_count > max_pattern_cells:
        p_ext = tuple(min(e, 2) for e in p_ext)
        p_shape = Shape(p_ext)
    lo = 1 if nonzero else 0
    p = Matrix01(p_shape, draw(st.integers(lo, (1 << p_shape.cell_count) - 1)))
    host = draw(matrices(host_shape))
    return host, p


# one pass/fail line per acceptance criterion, printed at the end of the run
def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            if "test_acceptance" not in rep.nodeid or rep.when != "call":
                continue
            name = rep.nodeid.split("::")[-1]
            outcome = "PASS" if status == "passed" else "FAIL"
            lines.append((name, f"{name}: {outcome} ({rep.duration:.1f}s)"))
    if lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.write_line(line)
