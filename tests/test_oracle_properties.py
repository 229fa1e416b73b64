"""Property tests of the oracle's grid helpers."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from aubincheck.oracle import _with_neighbors  # noqa: E402


def neighbors_by_unique(idx: np.ndarray, n: int, m: int) -> np.ndarray:
    """Reference: gather each index's in-grid axis neighbors, then np.unique."""
    if n == 1:
        out = np.concatenate([idx, idx - 1, idx + 1])
        return np.unique(out[(out >= 0) & (out < m)])
    rows, cols = idx // m, idx % m
    parts = [idx]
    for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        r, c = rows + dr, cols + dc
        keep = (r >= 0) & (r < m) & (c >= 0) & (c < m)
        parts.append(r[keep] * m + c[keep])
    return np.unique(np.concatenate(parts))


@st.composite
def grid_index_sets(draw):
    n = draw(st.sampled_from([1, 2]))
    m = draw(st.integers(1, 7).map(lambda k: 2 * k + 1))
    idx = draw(st.sets(st.integers(0, m**n - 1)))
    return np.array(sorted(idx), dtype=np.intp), n, m


def _case(idx, n, m):
    return np.array(idx, dtype=np.intp), n, m


@given(grid_index_sets())
@example(_case([], 1, 5))
@example(_case([], 2, 5))
@example(_case([0, 4], 1, 5))  # both ends of a line
@example(_case([0, 4, 20, 24], 2, 5))  # the four corners
@example(_case([2, 10, 14, 22], 2, 5))  # one point on each edge
@example(_case(list(range(25)), 2, 5))  # the whole grid
def test_with_neighbors_matches_unique(case):
    idx, n, m = case
    got = _with_neighbors(idx, n, m)
    want = neighbors_by_unique(idx, n, m)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
