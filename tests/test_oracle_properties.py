"""Property tests of the oracle's grid helpers, Newton step, refiner,
acceptance rule and flag rule."""

import dataclasses
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from aubincheck import oracle  # noqa: E402
from aubincheck.calculus import ToleranceConfig, problem_derivatives  # noqa: E402
from aubincheck.expr import ProblemSpec, parse  # noqa: E402
from aubincheck.oracle import (  # noqa: E402
    _DET_TAU,
    ACCEPT_RESIDUAL,
    GridSpec,
    LevelStats,
    ProbeConfig,
    _acceptance_box,
    _flag,
    _local_minima,
    _pinv_step,
    _stationary,
    _with_neighbors,
)


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
    """Flat indices into ``sets`` grids of m^n points, stacked set by set."""
    n = draw(st.sampled_from([1, 2]))
    m = draw(st.integers(1, 7).map(lambda k: 2 * k + 1))
    sets = draw(st.integers(1, 3))
    idx = draw(st.sets(st.integers(0, sets * m**n - 1)))
    return np.array(sorted(idx), dtype=np.intp), n, m, sets


def _case(idx, n, m, sets=1):
    return np.array(idx, dtype=np.intp), n, m, sets


def stacked(per_set: list, size: int) -> np.ndarray:
    """Each set's flat grid indices, as flat indices into the stacked grids."""
    return np.concatenate([idx + j * size for j, idx in enumerate(per_set)])


@given(grid_index_sets())
@example(_case([], 1, 5))
@example(_case([], 2, 5))
@example(_case([0, 4], 1, 5))  # both ends of a line
@example(_case([0, 4, 20, 24], 2, 5))  # the four corners
@example(_case([2, 10, 14, 22], 2, 5))  # one point on each edge
@example(_case(list(range(25)), 2, 5))  # the whole grid
@example(_case([4, 5], 1, 5, 2))  # the last point of one set and the first of the next
@example(_case([20, 24, 25, 29], 2, 5, 2))  # the last row of one set and the first of the next
def test_with_neighbors_matches_unique(case):
    idx, n, m, sets = case
    got = _with_neighbors(idx, (sets,) + (m,) * n)
    size = m**n
    want = stacked([neighbors_by_unique(idx[idx // size == j] - j * size, n, m) for j in range(sets)], size)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def local_minima_by_loop(res: np.ndarray, n: int, m: int) -> np.ndarray:
    """Reference: a point is kept when its residual is finite and <= that of
    each in-grid axis neighbor (a NaN neighbor compares false)."""
    R = res.reshape((m,) * n)
    keep = []
    for flat, cell in enumerate(np.ndindex(R.shape)):
        v = R[cell]
        ok = bool(np.isfinite(v))
        for ax in range(n):
            for step in (-1, 1):
                j = list(cell)
                j[ax] += step
                if 0 <= j[ax] < m:
                    ok = ok and bool(v <= R[tuple(j)])
        if ok:
            keep.append(flat)
    return np.array(keep, dtype=np.intp)


@st.composite
def residual_grids(draw):
    """Residuals of ``sets`` grids of m^n points, stacked set by set."""
    n = draw(st.sampled_from([1, 2]))
    m = draw(st.integers(1, 7).map(lambda k: 2 * k + 1))
    sets = draw(st.integers(1, 3))
    value = st.one_of(
        st.sampled_from([0.0, 1.0, 2.0, np.inf, np.nan]),
        st.floats(0.0, 10.0),
    )
    res = draw(st.lists(value, min_size=sets * m**n, max_size=sets * m**n))
    return np.array(res, dtype=float), n, m, sets


@given(residual_grids())
@example((np.array([1.0, np.nan, 0.0, 0.0, np.inf]), 1, 5, 1))  # NaN and tie neighbors
@example((np.full(9, np.inf), 2, 3, 1))  # no finite point
@example((np.zeros(25), 2, 5, 1))  # a plateau: every point is a minimum
@example((np.array([1.0, 2.0, 0.0, 3.0, 4.0, 4.0]), 1, 3, 2))  # index 3 is no neighbor of 2
def test_local_minima_matches_loop(case):
    res, n, m, sets = case
    got = _local_minima(res.reshape((sets,) + (m,) * n))
    want = stacked([local_minima_by_loop(r, n, m) for r in np.split(res, sets)], m**n)
    assert np.array_equal(got, want)


EPS = np.finfo(float).eps


@st.composite
def jacobian_rows(draw, m):
    """One symmetric m x m Jacobian: well conditioned, nearly or exactly
    singular, or all zero, at scale 1, 1e200 or 1e-200."""
    kind = draw(st.sampled_from(["well", "near", "rank", "zero"]))
    B = np.array(draw(st.lists(st.floats(-1, 1), min_size=m * m, max_size=m * m))).reshape(m, m)
    Q, _ = np.linalg.qr(B + 2 * np.eye(m))
    lam = np.array(draw(st.lists(st.floats(0.1, 10), min_size=m, max_size=m)))
    lam *= np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=m, max_size=m)))
    if kind == "near":
        lam[: draw(st.integers(1, m))] *= 10.0 ** -draw(st.integers(4, 17))
    J = Q @ np.diag(lam) @ Q.T
    J = (J + J.T) / 2
    if kind == "rank":  # an exactly zero row and column, as on a residual plateau
        J[-1, :] = J[:, -1] = 0.0
    if kind == "zero":
        J[:] = 0.0
    return J * draw(st.sampled_from([1.0, 1e200, 1e-200]))


@st.composite
def newton_batches(draw):
    m = draw(st.sampled_from([1, 2, 3]))
    k = draw(st.integers(1, 8))
    J = np.array(draw(st.lists(jacobian_rows(m), min_size=k, max_size=k)))
    g = st.floats(-1, 1, allow_subnormal=False)
    G = np.array(draw(st.lists(g, min_size=k * m, max_size=k * m))).reshape(k, m)
    return J, G


def _batch(rows, G):
    return np.array(rows, dtype=float), np.array(G, dtype=float)


@settings(deadline=None)
@given(newton_batches())
@example(_batch([[[0.0]], [[2.0]]], [[1.0], [1.0]]))
@example(_batch([[[0.0, 0.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]], [[2.0, 1.0], [1.0, 3.0]]],
                [[1.0, 0.5], [1.0, -1.0], [0.5, 0.25]]))
@example(_batch([[[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]],
                 [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 0.0]],
                 [[1e200, 0.0, 0.0], [0.0, 1e200, 1e200], [0.0, 1e200, 0.0]]],
                [[1.0, 2.0, 3.0], [1.0, -1.0, 0.5], [1.0, 1.0, 1.0]]))
def test_newton_step_matches_pinv(batch):
    """Rows that pass the det test get the adjugate step, within a bound set
    by kappa = ||J||_F^m / |det J| >= cond(J); the rest get pinv's step.

    The test cannot see which rows passed, so it sorts rows by kappa with a
    factor-10 margin on either side of 1 / _DET_TAU: rows clearly above must
    carry pinv's step to rounding of its matrix-vector product, rows below
    must lie within the kappa bound (pinv's own step does too), and rows in
    the margin may take either.  Each row's step is also that of the row
    alone, bit for bit.
    """
    J, G = batch
    m = J.shape[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        step = _pinv_step(J, G)
        alone = [_pinv_step(J[i : i + 1], G[i : i + 1])[0] for i in range(J.shape[0])]
    assert step.shape == G.shape
    for i in range(J.shape[0]):
        assert np.array_equal(alone[i], step[i], equal_nan=True)
        P = np.linalg.pinv(J[i])
        ref = -(P @ G[i])
        pinv_err = 4 * m * EPS * (np.abs(P) @ np.abs(G[i]))
        scale = np.max(np.abs(J[i]))
        sigma = np.linalg.svd(J[i] / scale, compute_uv=False) if scale > 0 else np.zeros(m)
        det = np.prod(sigma)
        kappa = np.sum(sigma**2) ** (m / 2) / det if det > 0 else np.inf
        err = np.abs(step[i] - ref)
        close_to_pinv = np.all(err <= pinv_err)
        if kappa > 10 / _DET_TAU:
            assert close_to_pinv, (J[i], G[i], step[i], ref)
        else:
            within_kappa = np.all(err <= 64 * m * EPS * kappa * np.max(np.abs(ref)))
            in_margin = kappa >= 0.1 / _DET_TAU
            assert within_kappa or (in_margin and close_to_pinv), (J[i], G[i], step[i], ref, kappa)


# grad f0 = x1^3 - w1: the root w1^(1/3) is simple but, for small w1, Newton
# from the box approaches it by about a third per step, so rows still move
# when they run out of steps.  The boundary system adds lam and F = x1 - w1.
SLOW_ROOT = ProblemSpec(1, 1, parse("x1^4/4 - w1*x1", 1, 1), parse("x1 - w1", 1, 1))


def _refiner(cap: int):
    return oracle._Refiner(
        problem_derivatives(SLOW_ROOT), GridSpec(newton_cap=cap), ToleranceConfig(), np.zeros(1)
    )


@st.composite
def refiner_streams(draw):
    """Rows for one run: each row is (start, parameter, depth), its seed the
    interior iterate that `start` reaches at that parameter in `depth` steps.
    Rows repeat, share seeds across parameters, and continue each other's
    paths, so with a small pool equal iterates enter at different steps."""
    starts = draw(st.lists(st.floats(-0.5, 0.5, allow_subnormal=False), min_size=1, max_size=3))
    params = draw(st.lists(st.sampled_from([0.0, 1e-6, -8e-6, 2.7e-5, 1e-3, 0.05]), min_size=1, max_size=3))
    row = st.tuples(st.integers(0, len(starts) - 1), st.integers(0, len(params) - 1), st.integers(0, 3))
    rows = draw(st.lists(row, min_size=8, max_size=30))
    return draw(st.sampled_from([7, oracle._CHUNK_ROWS])), draw(st.integers(1, 5)), starts, params, rows


def _stream(chunk, cap, starts, params, rows):
    return chunk, cap, starts, params, rows


# One path from x = 0.4 at w = 1e-6, entered at four depths, four times: in a
# pool of 7 rows, rows join while others already stand where they start.
_CHAIN = [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 3)] * 4


@settings(deadline=None, max_examples=60)
@given(refiner_streams())
@example(_stream(7, 4, [0.4], [1e-6], _CHAIN))
@example(_stream(7, 3, [0.3], [1e-6, 2.7e-5], [(0, 0, 0), (0, 1, 0)] * 5))  # one seed, two parameters
@example(_stream(oracle._CHUNK_ROWS, 2, [0.0, 0.25], [0.0, 1e-3], [(0, 0, 0), (1, 1, 2), (0, 1, 0), (1, 1, 2)]))
def test_refiner_stream_equals_each_row_alone(stream):
    """Every row of a run, merged rows included, ends bit for bit as it does
    refined by itself: points, lam and ||G||."""
    chunk, cap, starts, params, rows = stream
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_CHUNK_ROWS", chunk)
        paths = {}
        for i, x in enumerate(starts):
            for j, w in enumerate(params):
                W = np.array([[w]])
                paths[i, j] = [np.array([[x]])] + [
                    _refiner(k).run(np.array([[x]]), W, "interior", np.arange(1))[0] for k in (1, 2, 3)
                ]
        seeds = np.vstack([paths[i, j][k] for i, j, k in rows])
        W = np.array([[params[j] for _, j, _ in rows]])
        refiner = _refiner(cap)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for branch in ("interior", "boundary"):
                batch = refiner.run(seeds, W, branch, np.arange(len(rows)))
                for r in range(len(rows)):
                    alone = refiner.run(seeds[r : r + 1], W[:, r : r + 1], branch, np.arange(1))
                    for a, b in zip(alone, batch):
                        assert a[0].tobytes() == b[r].tobytes(), (branch, r, rows[r])


# ---------------------------------------------------------------------------
# The acceptance rule
# ---------------------------------------------------------------------------

@st.composite
def acceptance_cases(draw):
    """(res, pts, lams, box): one point of n = 1 or 2 coordinates near the
    box of a drawn grid, with a residual that may be nan or infinite."""
    n = draw(st.sampled_from([1, 2]))
    coord = st.floats(-2.0, 2.0, allow_subnormal=False)
    center = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    grid = GridSpec(r_x=draw(st.floats(1e-3, 1.0)), points_per_axis=draw(st.sampled_from([3, 5, 61, 201])))
    box = _acceptance_box(center, grid, ToleranceConfig(tau_zero=draw(st.floats(1e-12, 1e-4))))
    pts = np.array([draw(st.lists(coord, min_size=n, max_size=n))])
    lams = np.array([draw(st.floats(-1e-3, 1e3, allow_subnormal=False))])
    res = np.array([draw(st.sampled_from([0.0, ACCEPT_RESIDUAL, np.nan, np.inf]) | st.floats(0.0, 1e-8))])
    return res, pts, lams, box


def test_acceptance_box():
    grid, tol = GridSpec(r_x=0.5, points_per_axis=201), ToleranceConfig(tau_zero=1e-10)
    center, reach, bar, lam_floor = _acceptance_box(np.array([0.25]), grid, tol)
    assert (center.tolist(), reach, bar, lam_floor) == ([0.25], 0.5 + 0.005, ACCEPT_RESIDUAL, -1e-10)


@given(acceptance_cases())
def test_each_bound_is_inclusive(case):
    """A point exactly at the bar, the reach and lam = -tau_zero is
    accepted, and moving any one of them outward by one ulp rejects it."""
    _, pts, _, (center, _, bar, lam_floor) = case
    reach = float(np.max(np.abs(pts - center)))
    box = (center, reach, bar, lam_floor)
    at = (np.array([bar]), pts, np.array([lam_floor]), box)
    assert _stationary(*at).tolist() == [True]
    assert _stationary(np.nextafter(at[0], np.inf), *at[1:]).tolist() == [False]
    assert _stationary(*at[:2], np.nextafter(at[2], -np.inf), box).tolist() == [False]
    assert _stationary(*at[:3], (center, np.nextafter(reach, -np.inf), bar, lam_floor)).tolist() == [False]


# A point well inside the box of GridSpec() around 0, at half the bar.
INSIDE = (np.array([5e-10]), np.array([[0.1]]), np.array([0.0]), (np.array([0.0]), 0.505, ACCEPT_RESIDUAL, -1e-8))


@given(acceptance_cases(), st.sampled_from([np.nan, np.inf]))
@example(INSIDE, np.nan)
def test_non_finite_residuals_fail(case, bad):
    _, pts, lams, box = case
    assert _stationary(np.array([bad]), pts, lams, box).tolist() == [False]


@given(acceptance_cases(), st.floats(0.0, 1.0))
@example(INSIDE, 0.5)
def test_monotone_in_the_residual(case, shrink):
    """A point accepted at one residual is accepted at every smaller one."""
    res, pts, lams, box = case
    if _stationary(res, pts, lams, box)[0]:
        assert _stationary(res * shrink, pts, lams, box)[0]
        assert _stationary(np.zeros(1), pts, lams, box)[0]


# ---------------------------------------------------------------------------
# The flag rule
# ---------------------------------------------------------------------------

NOTHING_MEASURED = "nothing was measured"
CAUSES = {
    True: "every parameter draw rounds to the reference w",
    False: "no perturbed stationary set has a point within rho_u of the reference x",
}


def _levels(worsts: list, events: list) -> list:
    """LevelStats with the given worst ratios (None: no ratio pair) and
    empty-value event counts, at halving radii."""
    return [
        LevelStats(0.1 * 2.0**-k, 160, 0 if wr is None else 160, wr, ev, None)
        for k, (wr, ev) in enumerate(zip(worsts, events))
    ]


@st.composite
def flag_inputs(draw):
    """(levels, baseline, cfg, unresolved) for ``_flag``: 2-5 levels, each
    with or without a worst ratio and with 0-3 empty-value events."""
    count = draw(st.integers(2, 5))
    worsts = draw(st.lists(st.none() | st.floats(0.0, 1e3), min_size=count, max_size=count))
    events = draw(st.lists(st.integers(0, 3), min_size=count, max_size=count))
    baseline = draw(st.none() | st.floats(1e-3, 1e2))
    cfg = ProbeConfig(
        levels=count,
        growth=draw(st.floats(0.1, 10.0)),
        blowup=draw(st.floats(1.0, 1e3)),
        ratio_floor=draw(st.floats(1e-9, 1e-2)),
    )
    return _levels(worsts, events), baseline, cfg, draw(st.booleans())


CONSISTENT = (_levels([1.0, 1.2, 0.9], [0, 0, 0]), 1.0, ProbeConfig(levels=3), False)
FLOORED = (_levels([1e-9, None], [0, 0]), None, ProbeConfig(), False)
GROWTH = (_levels([1.0, 3.0, 9.0, 150.0], [0, 0, 0, 0]), 1.0, ProbeConfig(), False)
NOTHING = (_levels([None, None], [0, 0]), None, ProbeConfig(), True)


@given(flag_inputs(), st.integers(0, 4), st.integers(1, 10))
@example(CONSISTENT, 2, 1)
@example(FLOORED, 1, 1)
def test_events_never_give_consistent(case, i, extra):
    levels, baseline, cfg, unresolved = case
    i %= len(levels)
    levels[i] = dataclasses.replace(levels[i], empty_value_events=levels[i].empty_value_events + extra)
    assert _flag(levels, baseline, cfg, unresolved)[0] != "Consistent"


@given(flag_inputs(), st.integers(0, 4), st.floats(0.0, 1e6))
@example(GROWTH, 1, 0.5)  # growth breaks: Violation turns Inconclusive
@example((_levels([1.0, 11.0], [0, 0]), 1.0, ProbeConfig(), False), 0, 5.0)
@example((_levels([1.0, None], [0, 1]), 1.0, ProbeConfig(), False), 0, 0.0)
def test_raising_a_ratio_never_gives_consistent(case, i, rise):
    levels, baseline, cfg, unresolved = case
    measured = [j for j, lv in enumerate(levels) if lv.worst_ratio is not None]
    assume(measured)
    before = _flag(levels, baseline, cfg, unresolved)[0]
    j = measured[i % len(measured)]
    levels[j] = dataclasses.replace(levels[j], worst_ratio=levels[j].worst_ratio + rise)
    if before != "Consistent":
        assert _flag(levels, baseline, cfg, unresolved)[0] != "Consistent"


@given(flag_inputs(), st.lists(st.integers(1, 10), min_size=5, max_size=5))
@example(CONSISTENT, [1, 1, 1, 1, 1])
@example(GROWTH, [1, 2, 3, 4, 5])
@example(NOTHING, [1, 1, 1, 1, 1])
def test_events_at_every_level_give_violation(case, counts):
    levels, baseline, cfg, unresolved = case
    levels = [dataclasses.replace(lv, empty_value_events=c) for lv, c in zip(levels, counts)]
    flag, reason = _flag(levels, baseline, cfg, unresolved)
    assert flag == "Violation"
    assert reason.startswith("empty-value events at every radius level")


@given(flag_inputs())
@example(NOTHING)
@example((NOTHING[0], None, ProbeConfig(), False))
@example((_levels([None, None, 2.0], [0, 0, 0]), None, ProbeConfig(levels=3), True))
@example((_levels([None, None], [0, 1]), None, ProbeConfig(), True))
def test_nothing_measured_reason(case):
    """The reason says that nothing was measured exactly when no level has a
    ratio or an event, and its cause follows ``unresolved``."""
    levels, baseline, cfg, unresolved = case
    flag, reason = _flag(levels, baseline, cfg, unresolved)
    nothing = all(lv.worst_ratio is None and lv.empty_value_events == 0 for lv in levels)
    assert reason.startswith(NOTHING_MEASURED) == nothing
    if nothing:
        assert flag == "Inconclusive"
        assert reason.endswith(CAUSES[unresolved])


@pytest.mark.parametrize(
    "worsts, baseline, flag",
    [
        ([1.0, 10.0], 1.0, "Consistent"),  # at 10x the baseline
        ([1.0, 10.5], 1.0, "Inconclusive"),
        ([1e-7, 1e-6], 1e-8, "Consistent"),  # 10x the baseline is under the floor
        ([1e-7, 2e-6], 1e-8, "Inconclusive"),
        ([1e-6, None], None, "Consistent"),
        ([1e-6, 2e-6], None, "Inconclusive"),
    ],
)
def test_consistent_bound(worsts, baseline, flag):
    """Consistent holds up to max(10 x baseline, ratio_floor), or up to the
    floor without a baseline."""
    assert _flag(_levels(worsts, [0, 0]), baseline, ProbeConfig(), False)[0] == flag
