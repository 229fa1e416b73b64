"""Brute-force numerical verifier.

``sample_stationary_set`` enumerates the stationary points of the problem
inside a box around the reference point by a vectorized grid scan of the
first-order residual followed by damped (batched) Newton refinement on the
active branch.  ``aubin_probe`` samples parameter pairs at shrinking radii
and measures one-sided set-distance ratios, producing evidence for or
against the Lipschitz-like property.  The probe is an evidence generator,
not a decision procedure: its thresholds are heuristic and recorded in the
report.

The probe works a radius level at a time.  The stationary sets of all the
level's parameter draws are sampled together: each grid is scanned on its
own, but the Newton seeds of consecutive sets are refined in shared
batches, each row at its own parameter.  Likewise the distance polish of
all the level's (base, perturbed) pairs runs as one batch.  Rows never
interact, so the results are those of sampling and polishing one set or
pair at a time.

The refiner does only work that can change a result.  Its line search
evaluates the full step for every row and, for the rows it does not
improve enough, all ten halvings in one batch; each row keeps the halving
a one-at-a-time backtracking loop would stop at.  Each row's residual is
carried from the evaluation that accepted its iterate.  And once per
sampled parameter, each branch system is enclosed by interval arithmetic
over the acceptance box (see ``_empty_branches``); where an equation's
enclosure excludes the convergence bar, no row at that parameter can be
accepted on that branch, so those rows are returned unconverged without a
step, in set sampling and in the distance polish alike.  The report is
unchanged by all three, except that a set whose two branches are both
certified empty reports no diverged seeds.

One rule, in ``_accepted``, decides which refined points are stationary,
for set sampling and the distance polish alike: a converged row counts when
its first-order residual is at most ACCEPT_RESIDUAL, it lies within r_x
plus one grid spacing of the centre, and on the boundary branch
lam >= -tau_zero.  The residual evaluation that accepts a point also labels
its branch.  A set's points are deduplicated in half-spacing cells, each
keeping its smallest-residual point.
"""

from __future__ import annotations

import csv
import math
import warnings as _warnings
import dataclasses
from dataclasses import dataclass

import numpy as np

from .calculus import (
    EvalPoint,
    ProblemDerivatives,
    ToleranceConfig,
    _activity_threshold,
    _finite_positive,
    problem_derivatives,
)
from .errors import DimensionMismatch, GridTooCoarse
from .expr import ProblemSpec, eval_interval

__all__ = [
    "GridSpec",
    "ProbeConfig",
    "SampleSet",
    "LevelStats",
    "ProbeReport",
    "kkt_residual",
    "sample_stationary_set",
    "aubin_probe",
    "write_samples_csv",
    "ACCEPT_RESIDUAL",
]

# A grid/Newton point counts as stationary when its first-order residual is
# below this bar (absolute; the problems are desk-scale).
ACCEPT_RESIDUAL = 1e-9

_BRANCHES = ("interior", "boundary")

_GOLDEN = 0.6180339887498949
_PLASTIC = 0.7548776662466927

FLAG_CONSISTENT = "Consistent"
FLAG_VIOLATION = "Violation"
FLAG_INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class GridSpec:
    """Sampling box around the reference x and Newton refinement controls.

    ``points_per_axis`` defaults to 201 for n = 1 and 61 for n = 2; it must
    be odd and >= 3 so the reference point itself lies on the grid.
    """

    r_x: float = 0.5
    points_per_axis: int | None = None
    newton_cap: int = 30
    tau_newton: float = 1e-12

    def __post_init__(self):
        if not _finite_positive(self.r_x):
            raise ValueError("box radius r_x must be finite and positive")
        if self.points_per_axis is not None:
            m = self.points_per_axis
            if m < 3 or m % 2 == 0:
                raise ValueError("points_per_axis must be odd and >= 3")
        if self.newton_cap < 1 or not _finite_positive(self.tau_newton):
            raise ValueError("invalid Newton controls")

    def resolve_points(self, n: int) -> int:
        if self.points_per_axis is not None:
            return self.points_per_axis
        return 201 if n == 1 else 61

    def spacing(self, n: int) -> float:
        return 2.0 * self.r_x / (self.resolve_points(n) - 1)


@dataclass(frozen=True)
class ProbeConfig:
    """Parameter sampling plan and flag thresholds for the Aubin probe.

    Radii shrink as delta_k = delta0 * 2^-k for k = 0..levels-1.  Each level
    draws ``samples`` parameters: a bulk annulus plus a radial ladder that
    deepens geometrically with the level, so a genuinely divergent distance
    ratio grows by a constant factor per level while a Lipschitz map stays
    flat.  ``growth`` and ``blowup`` gate the Violation flag; ratios below
    ``ratio_floor`` count as numerically zero.
    """

    delta0: float = 0.1
    levels: int = 4
    samples: int = 64
    rho_u: float | None = None  # locality radius; defaults to r_x / 2
    growth: float = 3.0
    blowup: float = 100.0
    ratio_floor: float = 1e-6
    seed: int = 20260810

    def __post_init__(self):
        if not all(map(_finite_positive, (self.delta0, self.growth, self.blowup, self.ratio_floor))):
            raise ValueError("probe thresholds must be finite and positive")
        if self.levels < 2 or self.samples < 8:
            raise ValueError("need at least 2 levels and 8 samples per level")
        if self.rho_u is not None and not _finite_positive(self.rho_u):
            raise ValueError("locality radius must be finite and positive")


@dataclass
class SampleSet:
    """Stationary points found inside the box for one parameter value."""

    w: tuple
    points: np.ndarray  # (k, n), lexicographically sorted
    residuals: np.ndarray
    lambdas: np.ndarray
    branches: tuple  # "interior" | "boundary" per point
    warnings: tuple = ()
    certified_empty: tuple = ()  # branches with provably no root in the box

    def __len__(self):
        return self.points.shape[0]

    @property
    def is_empty(self) -> bool:
        return self.points.shape[0] == 0


# ---------------------------------------------------------------------------
# KKT residual
# ---------------------------------------------------------------------------

def _kkt_batch(derivs: ProblemDerivatives, X: np.ndarray, W: np.ndarray, tol: ToleranceConfig):
    """Vectorized first-order residual over a batch of (x, w) columns.

    X is (n, N) and W is (d, N).  Returns (residuals, lambdas,
    boundary_mask, mfcq_skipped).  Infeasible points get +inf; non-finite
    evaluations are treated as out of domain.
    """
    N = X.shape[1]
    F = derivs.eval_rows(derivs.F_row, X, W)[0]
    g = derivs.eval_rows(derivs.f0x, X, W)
    thr = _activity_threshold(F, tol)
    res = np.full(N, np.inf)
    lam = np.zeros(N)

    bad = ~np.isfinite(F) | ~np.all(np.isfinite(g), axis=0)
    interior = (F < -thr) & ~bad
    if np.any(interior):
        res[interior] = np.linalg.norm(g[:, interior], axis=0)

    boundary = (np.abs(F) <= thr) & ~bad
    skipped = 0
    if np.any(boundary):
        gF = derivs.eval_rows(derivs.Fx, X, W)
        gg = np.sum(gF * gF, axis=0)
        ok = boundary & np.all(np.isfinite(gF), axis=0) & (gg > tol.tau_zero**2)
        skipped = int(np.sum(boundary & ~ok))
        lam_star = np.zeros(N)
        with np.errstate(invalid="ignore", divide="ignore"):
            lam_star[ok] = np.maximum(0.0, -np.sum(gF * g, axis=0)[ok] / gg[ok])
        if np.any(ok):
            res[ok] = np.linalg.norm(g[:, ok] + lam_star[ok] * gF[:, ok], axis=0)
            lam[ok] = lam_star[ok]
    return res, lam, boundary, skipped


def kkt_residual(spec: ProblemSpec, x, w, tol: ToleranceConfig = ToleranceConfig()) -> float:
    """First-order residual of the stationarity system at (x, w).

    +inf encodes infeasibility (F > 0) and out-of-domain evaluations; at a
    boundary point the residual minimizes ||grad f0 + lam grad F|| over
    lam >= 0 in closed form.
    """
    derivs = problem_derivatives(spec)
    X = np.asarray(x, dtype=float).reshape(-1, 1)
    res, _, _, _ = _kkt_batch(derivs, X, derivs.param_rows(w, 1), tol)
    return float(res[0])


# ---------------------------------------------------------------------------
# Batched damped Newton refinement
# ---------------------------------------------------------------------------

# Rows per Newton batch.  The probe refines the seeds of many stationary sets
# and polishes the pairs of a whole radius level at once; chunking bounds the
# working memory, and since every row follows its own iterations it cannot
# change a result.  On a 2-CPU VM (Python 3.11, numpy 2.4), 1024 rows ran the
# eight fixture probes about 15% faster than 512 but raised their peak RSS by
# 0.6 MiB more (+0.8 against +0.2 MiB over sampling one set at a time).
_CHUNK_ROWS = 512

# A Newton Jacobian J (m x m) is solved by its adjugate when |det J| >
# _DET_TAU * ||J||_F^m, which implies sigma_min / sigma_max > _DET_TAU.  That is
# 1000x above pinv's rcond of 1e-15, so no row pinv would truncate is inverted.
_DET_TAU = 1e-12

# Relative allowance of the empty-branch certificate for the rounding of the
# residual norm and of the acceptance box test.
_ROUNDING = 1e-12


def _cofactors(A: np.ndarray):
    """Cofactor matrix and determinant of each A[:, :, k] (m x m, m <= 3),
    for A (m, m, N)."""
    m = A.shape[0]
    if m == 1:
        C = np.ones_like(A)
    elif m == 2:
        C = A[::-1, ::-1] * np.array([[[1.0], [-1.0]], [[-1.0], [1.0]]])
    else:
        # Entry (i, j) from rows i+1, i+2 and columns j+1, j+2, taken
        # cyclically, which also gives each cofactor its sign.
        E = A[np.ix_([0, 1, 2, 0, 1], [0, 1, 2, 0, 1])]
        C = E[1:4, 1:4] * E[2:5, 2:5] - E[1:4, 2:5] * E[2:5, 1:4]
    t = A[0] * C[0]  # expansion along the first row
    return C, sum(t[1:], t[0])


def _transpose_times(M: np.ndarray, G: np.ndarray) -> np.ndarray:
    """M^T·G per row for M (m, m, N) and G (N, m), as (m, N); the sum runs
    in index order, so each row's bits depend on that row alone."""
    prod = M * G.T[:, None, :]
    return sum(prod[1:], prod[0])


def _pinv_step(J: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Newton step -J^-1 G per row, batched, for J (N, m, m) with m <= 3.

    Rows that pass the det test of _DET_TAU are solved by the adjugate,
    after scaling J by its largest entry so no cofactor over- or underflows.
    The rest, all-zero rows included, take pinv's least-squares step, so
    singular Jacobians yield short steps.
    """
    m = J.shape[1]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s = np.max(np.abs(J), axis=(1, 2))
        A = np.divide(J.transpose(1, 2, 0), s, order="C")
        C, det = _cofactors(A)
        sq = (A * A).reshape(m * m, -1)
        ok = np.abs(det) > _DET_TAU * sum(sq[1:], sq[0]) ** (m / 2)
        step = (-_transpose_times(C, G) / det / s).T
        bad = np.flatnonzero(~ok)
        if bad.size:
            step[bad] = -_transpose_times(np.linalg.pinv(J[bad]).transpose(2, 1, 0), G[bad]).T
    return step


class _Refiner:
    """Damped Newton on the interior or boundary branch, batched over rows.

    Each row carries its own parameter, a column of the (d, N) matrix W, so
    one run serves seeds from many stationary sets.
    """

    def __init__(self, derivs, grid: GridSpec, tol: ToleranceConfig, center: np.ndarray):
        self.derivs = derivs
        self.grid = grid
        self.tol = tol
        self.center = center
        self.n = derivs.spec.n

    def _residual(self, Zc: np.ndarray, W: np.ndarray, branch: str):
        """Branch system values over a (k, m) subset; returns (G, ||G||)."""
        d = self.derivs
        X = Zc[:, : self.n].T
        g = d.eval_rows(d.f0x, X, W)
        if branch == "interior":
            G = g.T
        else:
            lam = Zc[:, self.n]
            gF = d.eval_rows(d.Fx, X, W)
            F = d.eval_rows(d.F_row, X, W)[0]
            G = np.concatenate([(g + lam[None, :] * gF).T, F[:, None]], axis=1)
        G = np.where(np.isfinite(G), G, 1e30)
        # A huge finite entry squares to inf; the line search and the stall
        # test reject that norm.
        with np.errstate(over="ignore"):
            return G, np.linalg.norm(G, axis=1)

    def _jacobian(self, Zc: np.ndarray, W: np.ndarray, branch: str) -> np.ndarray:
        d = self.derivs
        n = self.n
        X = Zc[:, : self.n].T
        H = d.hess_rows(d.f0xx, X, W)
        if branch == "interior":
            return np.where(np.isfinite(H), H, 0.0)
        lam = Zc[:, self.n]
        H = H + lam[:, None, None] * d.hess_rows(d.Fxx, X, W)
        gF = d.eval_rows(d.Fx, X, W).T
        J = np.zeros((Zc.shape[0], n + 1, n + 1))
        J[:, :n, :n] = H
        J[:, :n, n] = gF
        J[:, n, :n] = gF
        return np.where(np.isfinite(J), J, 0.0)

    def run(self, seeds: np.ndarray, W: np.ndarray, branch: str, skip: np.ndarray):
        """Refine seeds (N, n) at parameters W (d, N); returns (points,
        lambdas, converged_mask).  The rows in the mask ``skip`` are returned
        as seeds, unconverged, without a Newton step.
        """
        N = seeds.shape[0]
        points, lams, conv = seeds.copy(), np.zeros(N), np.zeros(N, dtype=bool)
        live = np.flatnonzero(~skip)
        for s in range(0, live.size, _CHUNK_ROWS):
            rows = live[s : s + _CHUNK_ROWS]
            points[rows], lams[rows], conv[rows] = self._run(seeds[rows], W[:, rows], branch)
        return points, lams, conv

    def _line_search(self, Za: np.ndarray, Wa: np.ndarray, step: np.ndarray, base: np.ndarray, branch: str):
        """Armijo backtracking on the residual norm in at most two evaluations.

        Every row tries the full step.  Rows it does not decrease enough get
        all ten halvings evaluated at once and keep the first of halvings
        1..9 that passes, else the tenth: the alpha, candidate and residual
        of halving one at a time.  Returns (alpha, cand, G, ||G||).
        """
        alpha = np.ones(Za.shape[0])
        cand = Za + step
        G, rn = self._residual(cand, Wa, branch)
        worse = np.flatnonzero(rn > (1.0 - 1e-4) * base)
        if worse.size:
            halves = np.ldexp(1.0, -np.arange(1, 11))
            m = Za.shape[1]
            tries = (Za[worse, None, :] + halves[None, :, None] * step[worse, None, :]).reshape(-1, m)
            Gt, rt = self._residual(tries, np.repeat(Wa[:, worse], 10, axis=1), branch)
            ok = ~(rt.reshape(-1, 10)[:, :9] > (1.0 - 1e-4 * halves[:9]) * base[worse, None])
            pick = np.where(np.any(ok, axis=1), np.argmax(ok, axis=1), 9)
            sel = 10 * np.arange(worse.size) + pick
            alpha[worse] = halves[pick]
            cand[worse], G[worse], rn[worse] = tries[sel], Gt[sel], rt[sel]
        return alpha, cand, G, rn

    def _run(self, seeds: np.ndarray, W: np.ndarray, branch: str):
        N = seeds.shape[0]
        if branch == "interior":
            Z = seeds.copy()
        else:
            X = seeds.T
            g = self.derivs.eval_rows(self.derivs.f0x, X, W)
            gF = self.derivs.eval_rows(self.derivs.Fx, X, W)
            gg = np.sum(gF * gF, axis=0)
            with np.errstate(invalid="ignore", divide="ignore"):
                lam0 = np.where(gg > 0, np.maximum(0.0, -np.sum(gF * g, axis=0) / gg), 0.0)
            lam0 = np.where(np.isfinite(lam0), lam0, 0.0)
            Z = np.concatenate([seeds, lam0[:, None]], axis=1)

        settled = np.zeros(N, dtype=bool)
        kill_radius = 1.5 * self.grid.r_x

        # G and its norm at each row's iterate, carried from the evaluation
        # that accepted it.
        G, rnorm = self._residual(Z, W, branch)
        for _ in range(self.grid.newton_cap):
            # Iterate to stall, not to an absolute bar: very flat residual
            # landscapes need machine-level resolution to locate the root.
            active = np.flatnonzero(~settled & (rnorm > 0.0))
            if active.size == 0:
                break
            Za, Wa, base = Z[active], W[:, active], rnorm[active]
            J = self._jacobian(Za, Wa, branch)
            step = _pinv_step(J, G[active])
            alpha, cand, Gc, rn_new = self._line_search(Za, Wa, step, base, branch)

            stalled = (rn_new >= base * (1.0 - 1e-12)) | (
                np.linalg.norm(alpha[:, None] * step, axis=1)
                <= 1e-15 * (1.0 + np.linalg.norm(Za, axis=1))
            )
            moved = active[~stalled]
            Z[moved] = cand[~stalled]
            G[moved] = Gc[~stalled]
            rnorm[moved] = rn_new[~stalled]
            settled[active[stalled]] = True
            escaped = (
                np.max(np.abs(Z[active][:, : self.n] - self.center[None, :]), axis=1)
                > kill_radius
            )
            settled[active[escaped]] = True

        points = Z[:, : self.n]
        lams = Z[:, self.n] if branch == "boundary" else np.zeros(N)
        return points, lams, rnorm <= max(self.grid.tau_newton, ACCEPT_RESIDUAL)


def _empty_branches(derivs: ProblemDerivatives, W: np.ndarray, center: np.ndarray, grid: GridSpec, tol: ToleranceConfig) -> list:
    """The branches certified to hold no acceptable root, per parameter: a
    tuple of branch names for each column of W (d, K).

    A row is accepted only if its branch system converged, each equation at
    most bar = max(tau_newton, ACCEPT_RESIDUAL) in size, at a point within
    r_x plus one grid spacing of the centre, and on the boundary with
    lam >= -tau_zero.  Each equation is enclosed over that box (lam as
    x_{n+1}); a branch is certified empty at a parameter when some enclosure
    excludes [-bar, bar].  The enclosures hold the float values the refiner
    computes, and _ROUNDING covers the norm and the box test.
    """
    n = derivs.spec.n
    reach = (grid.r_x + grid.spacing(n)) * (1.0 + _ROUNDING)
    box = (
        np.nextafter(np.append(center - reach, -tol.tau_zero), -np.inf)[:, None],
        np.nextafter(np.append(center + reach, np.inf), np.inf)[:, None],
    )
    bar = max(grid.tau_newton, ACCEPT_RESIDUAL) * (1.0 + _ROUNDING)
    masks = []
    for tape in (derivs.f0x, derivs.boundary_system):
        empty = np.zeros(W.shape[1], dtype=bool)
        for lo, hi in eval_interval(tape, box, (W, W)):
            empty |= (lo > bar) | (hi < -bar)
        masks.append(empty)
    return [tuple(b for b, m in zip(_BRANCHES, col) if m) for col in zip(*masks)]


def _skip_masks(empty: list, counts) -> dict:
    """Per branch, the rows to skip for consecutive blocks of ``counts``
    rows, the j-th at a parameter whose certified-empty branches are
    ``empty[j]``."""
    return {b: np.repeat([b in e for e in empty], counts) for b in _BRANCHES}


def _accepted(refiner: _Refiner, seeds: np.ndarray, W: np.ndarray, skip: dict):
    """Refine seeds (N, n) at parameters W (d, N) on each branch and yield
    the rows that count as stationary points; the rows in ``skip[branch]``
    are not refined on that branch.

    A converged row is accepted when its first-order residual is at most
    ACCEPT_RESIDUAL, it lies within r_x plus one grid spacing of the centre,
    and, on the boundary branch, lam >= -tau_zero.  Yields, per branch,
    (rows, points, residuals, lambdas, boundary) of the accepted rows.  The
    residual evaluation that accepts a row also gives its boundary label;
    lam is max(lam, 0) on the boundary and 0 in the interior.
    """
    grid, tol = refiner.grid, refiner.tol
    reach = grid.r_x + grid.spacing(refiner.n)
    for branch in _BRANCHES:
        pts, lams, conv = refiner.run(seeds, W, branch, skip[branch])
        rows = np.flatnonzero(conv)
        if rows.size == 0:
            continue
        pts, lams = pts[rows], lams[rows]
        res, _, bmask, _ = _kkt_batch(refiner.derivs, pts.T, W[:, rows], tol)
        ok = (res <= ACCEPT_RESIDUAL) & (np.max(np.abs(pts - refiner.center), axis=1) <= reach)
        if branch == "boundary":
            ok &= lams >= -tol.tau_zero
        lams = np.where(bmask, np.maximum(lams, 0.0), 0.0)
        yield rows[ok], pts[ok], res[ok], lams[ok], bmask[ok]


# ---------------------------------------------------------------------------
# Stationary set sampling
# ---------------------------------------------------------------------------

def _build_grid(center: np.ndarray, grid: GridSpec, n: int) -> np.ndarray:
    m = grid.resolve_points(n)
    axes = [center[i] + np.linspace(-grid.r_x, grid.r_x, m) for i in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.vstack([a.ravel() for a in mesh])  # (n, m^n)


def _axis_neighbors(n: int):
    """(lo, hi) index pairs of an n-dimensional grid, one per axis: hi[...]
    is the next neighbor of lo[...] along that axis."""
    for ax in range(n):
        lo = tuple(slice(None, -1) if i == ax else slice(None) for i in range(n))
        hi = tuple(slice(1, None) if i == ax else slice(None) for i in range(n))
        yield lo, hi


def _local_minima(res: np.ndarray, n: int, m: int) -> np.ndarray:
    """Indices of grid points whose residual is <= every axis neighbor's."""
    R = res.reshape((m,) * n)
    ok = np.isfinite(R)
    for lo, hi in _axis_neighbors(n):
        ok[lo] &= R[lo] <= R[hi]
        ok[hi] &= R[hi] <= R[lo]
    return np.flatnonzero(ok)


def _with_neighbors(idx: np.ndarray, n: int, m: int) -> np.ndarray:
    """Sorted grid indices of idx and of their axis neighbors."""
    hit = np.zeros((m,) * n, dtype=bool)
    hit.reshape(-1)[idx] = True
    out = hit.copy()
    for lo, hi in _axis_neighbors(n):
        out[lo] |= hit[hi]
        out[hi] |= hit[lo]
    return np.flatnonzero(out)


def sample_stationary_set(
    spec: ProblemSpec,
    w,
    grid: GridSpec = GridSpec(),
    tol: ToleranceConfig = ToleranceConfig(),
    center=None,
) -> SampleSet:
    """Stationary points of the problem at parameter ``w`` inside the box.

    The box has radius ``grid.r_x`` around ``center`` (the reference x, or
    the origin when omitted).  Grid points that already meet the acceptance
    residual are kept as-is (degenerate stationary manifolds stay fully
    sampled); local minima of the residual field and their neighbors are
    refined by damped Newton on both the interior and the boundary branch.
    Accepted points satisfy the first-order residual bound, carry
    lam >= -tau_zero on the boundary branch, and are deduplicated within
    half a grid spacing.
    """
    n = spec.n
    if n > 2:
        raise DimensionMismatch("stationary set sampling supports n <= 2")
    derivs = problem_derivatives(spec)
    w = np.asarray(w, dtype=float)
    if w.shape[0] != spec.d:
        raise DimensionMismatch(f"parameter has {w.shape[0]} entries, expected {spec.d}")
    center = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    if center.shape[0] != n:
        raise DimensionMismatch(f"center has {center.shape[0]} entries, expected {n}")
    return _sample_sets(derivs, [w], center, grid, tol)[0]


def _sample_sets(
    derivs: ProblemDerivatives,
    ws: list,
    center: np.ndarray,
    grid: GridSpec,
    tol: ToleranceConfig,
) -> list:
    """``sample_stationary_set`` for each parameter in ``ws``, sampled together.

    Each set's grid is scanned, seeded, deduplicated and classified on its
    own.  The Newton seeds of consecutive sets are refined in one batch, each
    row at its own set's parameter; a batch closes before it would exceed
    ``_CHUNK_ROWS`` seeds, so only a few sets are held unrefined at a time.
    The empty-branch certificates of all the sets come from one call.
    """
    X = _build_grid(center, grid, derivs.spec.n)
    empty = _empty_branches(derivs, np.asarray(ws, dtype=float).T, center, grid, tol)
    sets, group, rows = [], [], 0
    for w, e in zip(ws, empty):
        scan = _scan_grid(derivs, X, w, grid, tol) + (e,)
        n_seeds = scan[2].shape[0]
        if group and rows + n_seeds > _CHUNK_ROWS:
            sets += _refine_group(derivs, group, center, grid, tol)
            group, rows = [], 0
        group.append(scan)
        rows += n_seeds
    return sets + _refine_group(derivs, group, center, grid, tol)


def _scan_grid(derivs: ProblemDerivatives, X: np.ndarray, w: np.ndarray, grid: GridSpec, tol: ToleranceConfig):
    """Grid scan of one set: (w, candidates, seeds, seed_direct).

    The candidates are four lists (points, residuals, lambdas, boundary
    masks) that start with the grid points accepted as they are;
    seed_direct marks the seeds that are such points.
    """
    n = derivs.spec.n
    m = grid.resolve_points(n)
    res, lam_grid, boundary_mask, _ = _kkt_batch(derivs, X, derivs.param_rows(w, X.shape[1]), tol)
    direct = np.flatnonzero(res <= ACCEPT_RESIDUAL)
    cand = ([], [], [], [])
    if direct.size:
        bmask = boundary_mask[direct]
        parts = (X[:, direct].T, res[direct], np.where(bmask, lam_grid[direct], 0.0), bmask)
        for lst, part in zip(cand, parts):
            lst.append(part)

    seeds_idx = _with_neighbors(_local_minima(res, n, m), n, m)
    seeds_idx = seeds_idx[np.isfinite(res[seeds_idx])]
    if seeds_idx.size > 256:
        # Large seed sets are residual plateaus; the direct-accept path above
        # keeps the manifold itself, so refining a stride subsample suffices.
        seeds_idx = seeds_idx[:: (seeds_idx.size + 255) // 256]
    return w, cand, X[:, seeds_idx].T, res[seeds_idx] <= ACCEPT_RESIDUAL


def _refine_group(derivs: ProblemDerivatives, group: list, center: np.ndarray, grid: GridSpec, tol: ToleranceConfig) -> list:
    """Refine the seeds of scanned sets in one batch; returns their SampleSets.

    Each scan is (w, candidates, seeds, seed_direct, certified-empty
    branches).  A set whose two branches are certified empty has no seed to
    refine, so none counts as diverged.
    """
    ws, cands, seeds, seed_direct, empty = zip(*group)
    counts = [s.shape[0] for s in seeds]
    first = np.concatenate([[0], np.cumsum(counts)])
    W = np.repeat(np.asarray(ws, dtype=float).T, counts, axis=1)
    skip = _skip_masks(empty, counts)
    produced = np.zeros(W.shape[1], dtype=bool)
    for rows, *parts in _accepted(_Refiner(derivs, grid, tol, center), np.vstack(seeds), W, skip):
        produced[rows] = True
        # Rows stay grouped by set, so each set's accepted rows are a slice.
        cut = np.searchsorted(rows, first)
        for j, cand in enumerate(cands):
            if cut[j] < cut[j + 1]:
                for lst, part in zip(cand, parts):
                    lst.append(part[cut[j] : cut[j + 1]])

    sets = []
    for j, w in enumerate(ws):
        warn = ()
        seed_ok = produced[first[j] : first[j + 1]] | seed_direct[j]
        n_diverged = int(np.sum(~seed_ok)) if len(empty[j]) < len(_BRANCHES) else 0
        if n_diverged > 0.1 * counts[j]:
            msg = (
                f"Newton refinement diverged for {n_diverged}/{counts[j]} seeds; "
                "the grid may be too coarse"
            )
            warn = (msg,)
            _warnings.warn(msg, GridTooCoarse, stacklevel=4)
        sets.append(_finish_set(w, cands[j], center, grid, warn, empty[j]))
    return sets


def _finish_set(w, cand, center: np.ndarray, grid: GridSpec, warn: tuple, empty: tuple) -> SampleSet:
    """Deduplicate one set's accepted points; each keeps the branch label of
    the residual evaluation that accepted it."""
    n = center.shape[0]
    if not cand[0]:
        return SampleSet(tuple(w), np.empty((0, n)), np.empty(0), np.empty(0), (), warn, empty)
    pts, rs, ls, bm = (np.concatenate(c) for c in cand)

    # Deduplicate within spacing/2: bucket to half-spacing cells and keep the
    # first point of each cell in (residual, x) order, its smallest residual.
    order = np.lexsort(tuple(pts[:, i] for i in reversed(range(n))) + (rs,))
    cells = np.floor((pts[order] - (center - grid.r_x)) / (grid.spacing(n) / 2.0) + 0.5).astype(int)
    cells -= cells.min(axis=0)
    key = np.ravel_multi_index(tuple(cells.T), tuple(cells.max(axis=0) + 1))
    keep = order[np.unique(key, return_index=True)[1]]
    keep = keep[np.lexsort(tuple(pts[keep, i] for i in reversed(range(n))))]
    branches = tuple("boundary" if b else "interior" for b in bm[keep])
    return SampleSet(tuple(w), pts[keep], rs[keep], ls[keep], branches, warn, empty)


# ---------------------------------------------------------------------------
# Aubin probe
# ---------------------------------------------------------------------------

@dataclass
class LevelStats:
    delta: float
    n_pairs: int
    n_ratio_pairs: int
    worst_ratio: float | None
    empty_value_events: int
    worst_pair: dict | None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class ProbeReport:
    """Evidence about the Lipschitz-like property gathered by sampling.

    flag semantics: Violation when per-level worst ratios grow by at least
    the ``growth`` factor across every consecutive radius level and the
    finest worst ratio exceeds ``blowup``, or when an empty-value event
    (perturbed set nonempty near x while the base set vanished from the box)
    occurs at every level; Consistent when no events occur and all worst
    ratios stay within 10x the coarsest-level median (or under the numeric
    floor); otherwise Inconclusive.
    """

    flag: str
    flag_reason: str
    levels: list
    baseline_median: float | None
    seed: int
    delta0: float
    rho_u: float
    growth: float
    blowup: float
    ratio_floor: float
    warnings: tuple = ()
    samples: list | None = None

    def to_dict(self) -> dict:
        return {
            "flag": self.flag,
            "flag_reason": self.flag_reason,
            "levels": [lv.to_dict() for lv in self.levels],
            "baseline_median": self.baseline_median,
            "seed": self.seed,
            "delta0": self.delta0,
            "rho_u": self.rho_u,
            "growth_threshold": self.growth,
            "blowup_threshold": self.blowup,
            "ratio_floor": self.ratio_floor,
            "warnings": list(self.warnings),
        }


def _frac(v: float) -> float:
    return v - math.floor(v)


def _directions(d: int, count: int, seed: int) -> list:
    if d == 1:
        start = seed % 2
        return [np.array([1.0 if (i + start) % 2 == 0 else -1.0]) for i in range(count)]
    offset = _frac(seed * 0.321750554396642)
    dirs = []
    for i in range(count):
        theta = 2.0 * math.pi * _frac((i + 1) * _GOLDEN + offset)
        dirs.append(np.array([math.cos(theta), math.sin(theta)]))
    return dirs


def _relative_radii(level: int, samples: int) -> list:
    # Radial ladder that deepens with the level: a divergent distance ratio
    # then grows by a fixed factor per level, while a Lipschitz map stays flat.
    ladder = [2.0 ** (-j) for j in range(5, 4 * level + 9)]
    bulk = [(i + 1) / 16.0 for i in range(16)]
    filler = [
        1.0 / 16.0 + (15.0 / 16.0) * _frac((t + 1) * _PLASTIC)
        for t in range(max(0, samples - len(ladder) - len(bulk)))
    ]
    return (ladder + bulk + filler)[:samples]


def _set_distances(queries: list, polisher: _Refiner) -> list:
    """Distance from each row of xps to the nonempty set target, for every
    (xps, target) query.

    Uses the sampled points plus a local Newton polish started from each
    query point at its target's parameter; grid-only distances overestimate
    by up to half the spacing.  The rows of all queries are polished in one
    batch, and skip the branches their target's sampling certified empty.
    """
    if not queries:
        return []
    xps = np.vstack([q for q, _ in queries])
    counts = [q.shape[0] for q, _ in queries]
    W = np.concatenate([polisher.derivs.param_rows(t.w, q.shape[0]) for q, t in queries], axis=1)
    dists = np.concatenate([
        np.min(np.linalg.norm(q[:, None, :] - t.points[None, :, :], axis=2), axis=1)
        for q, t in queries
    ])
    skip = _skip_masks([t.certified_empty for _, t in queries], counts)
    for rows, pts, _, _, _ in _accepted(polisher, xps, W, skip):
        dists[rows] = np.minimum(dists[rows], np.linalg.norm(pts - xps[rows], axis=1))
    return np.split(dists, np.cumsum(counts)[:-1])


def aubin_probe(
    spec: ProblemSpec,
    point: EvalPoint,
    cfg: ProbeConfig = ProbeConfig(),
    grid: GridSpec = GridSpec(),
    tol: ToleranceConfig = ToleranceConfig(),
    keep_samples: bool = False,
) -> ProbeReport:
    """Empirically probe the Lipschitz-like inclusion around (w, x).

    For each radius level, parameters are drawn deterministically around the
    reference w (bulk annulus plus deepening radial ladder, both paired with
    the reference itself and cross-paired); for every ordered pair (base,
    perturbed) the one-sided worst ratio

        max over x' in S(perturbed) near x of d(x', S(base)) / ||perturbed - base||

    is recorded.  See ProbeReport for the flag semantics.
    """
    if spec.n > 2 or spec.d > 2:
        raise DimensionMismatch("the probe supports n <= 2 and d <= 2")
    derivs = problem_derivatives(spec)
    x_center, w_bar = point.arrays()
    rho_u = cfg.rho_u if cfg.rho_u is not None else grid.r_x / 2.0
    # The distance polish only needs quadratic-convergent corrections.
    polish_grid = dataclasses.replace(grid, newton_cap=min(grid.newton_cap, 10))

    # Each level's sets are sampled together, before any is requested; the
    # first request fixes a set's place in the report's sample order.
    sampled: dict = {}
    requested: dict = {}

    def key(wv) -> tuple:
        return tuple(float(v) for v in wv)

    def get_set(wv: np.ndarray) -> SampleSet:
        kw = key(wv)
        if kw not in requested:
            requested[kw] = sampled[kw]
        return requested[kw]

    polisher = _Refiner(derivs, polish_grid, tol, x_center)
    levels: list[LevelStats] = []
    level0_ratios: list[float] = []
    warn_seen: list[str] = []

    for k in range(cfg.levels):
        delta = cfg.delta0 * 2.0 ** (-k)
        radii = _relative_radii(k, cfg.samples)
        dirs = _directions(spec.d, len(radii), cfg.seed + k)
        draws = [w_bar + delta * r * u for r, u in zip(radii, dirs)]

        # In the order of first request: the first draw, w_bar, the rest.
        new: dict = {}
        for wv in [draws[0], w_bar] + draws[1:]:
            kw = key(wv)
            if kw not in sampled:
                new.setdefault(kw, wv)
        if new:
            sampled.update(zip(new, _sample_sets(derivs, list(new.values()), x_center, grid, tol)))

        pairs = []
        for p in draws:
            pairs.append((w_bar, p))
            pairs.append((p, w_bar))
        for i in range(0, len(draws) - 1, 4):
            pairs.append((draws[i], draws[i + 1]))
            pairs.append((draws[i + 1], draws[i]))

        # (base, pert, dist_w, near) per measured pair, near = None for an
        # empty-value event; all ratio pairs are polished together.
        measured = []
        queries = []
        for base, pert in pairs:
            dist_w = float(np.linalg.norm(np.asarray(pert) - np.asarray(base)))
            if dist_w == 0.0:
                continue
            S_pert = get_set(pert)
            if S_pert.is_empty:
                continue
            near = S_pert.points[
                np.linalg.norm(S_pert.points - x_center[None, :], axis=1) <= rho_u
            ]
            if near.shape[0] == 0:
                continue
            S_base = get_set(base)
            if S_base.is_empty:
                measured.append((base, pert, dist_w, None))
                continue
            measured.append((base, pert, dist_w, near))
            queries.append((near, S_base))
        pair_dists = iter(_set_distances(queries, polisher))

        n_ratio_pairs = 0
        events = 0
        worst = None
        worst_pair = None
        for base, pert, dist_w, near in measured:
            if near is None:
                events += 1
                if worst_pair is None:
                    worst_pair = {
                        "w_base": [float(v) for v in base],
                        "w_perturbed": [float(v) for v in pert],
                        "event": "empty_base_set",
                        "ratio": None,
                    }
                continue
            dists = next(pair_dists)
            ratios = dists / dist_w
            i_max = int(np.argmax(ratios))
            ratio = float(ratios[i_max])
            n_ratio_pairs += 1
            if k == 0:
                level0_ratios.append(ratio)
            if worst is None or ratio > worst:
                worst = ratio
                worst_pair = {
                    "w_base": [float(v) for v in base],
                    "w_perturbed": [float(v) for v in pert],
                    "x_point": [float(v) for v in near[i_max]],
                    "distance": float(dists[i_max]),
                    "ratio": ratio,
                }
        levels.append(
            LevelStats(delta, len(pairs), n_ratio_pairs, worst, events, worst_pair)
        )

    order = list(requested.values())
    for s in order:
        for msg in s.warnings:
            if msg not in warn_seen:
                warn_seen.append(msg)

    significant = [r for r in level0_ratios if r > cfg.ratio_floor]
    baseline = float(np.median(significant)) if significant else None

    worsts = [lv.worst_ratio for lv in levels]
    events_every_level = all(lv.empty_value_events > 0 for lv in levels)
    growth_fires = (
        all(wr is not None for wr in worsts)
        and all(worsts[i + 1] >= cfg.growth * worsts[i] for i in range(len(worsts) - 1))
        and worsts[-1] > cfg.blowup
    )

    if events_every_level:
        flag = FLAG_VIOLATION
        reason = "empty-value events at every radius level: the base stationary set vanishes from the box while the perturbed one persists"
    elif growth_fires:
        flag = FLAG_VIOLATION
        reason = (
            f"worst distance ratios grew by >= {cfg.growth}x across every consecutive "
            f"radius level and reached {worsts[-1]:.3g} > {cfg.blowup} at the finest level"
        )
    else:
        total_events = sum(lv.empty_value_events for lv in levels)
        measured = [wr for wr in worsts if wr is not None]
        bound = 10.0 * baseline if baseline is not None else cfg.ratio_floor
        consistent = (
            total_events == 0
            and len(measured) > 0
            and all(wr <= max(bound, cfg.ratio_floor) for wr in measured)
        )
        if consistent:
            flag = FLAG_CONSISTENT
            reason = (
                "all worst ratios stay within 10x the coarsest-level median"
                if baseline is not None
                else "all measured ratios are below the numeric floor"
            )
        else:
            flag = FLAG_INCONCLUSIVE
            reason = "ratios neither stayed bounded near the baseline nor grew consistently past the thresholds"

    return ProbeReport(
        flag=flag,
        flag_reason=reason,
        levels=levels,
        baseline_median=baseline,
        seed=cfg.seed,
        delta0=cfg.delta0,
        rho_u=rho_u,
        growth=cfg.growth,
        blowup=cfg.blowup,
        ratio_floor=cfg.ratio_floor,
        warnings=tuple(warn_seen),
        samples=order if keep_samples else None,
    )


def write_samples_csv(samples, path, n: int, d: int):
    """Dump sampled stationary sets: w-components, x-components, residual,
    branch, lambda; one row per accepted point."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"w{k + 1}" for k in range(d)]
            + [f"x{i + 1}" for i in range(n)]
            + ["residual", "branch", "lambda"]
        )
        for s in samples:
            for i in range(len(s)):
                writer.writerow(
                    [repr(float(v)) for v in s.w]
                    + [repr(float(v)) for v in s.points[i]]
                    + [repr(float(s.residuals[i])), s.branches[i], repr(float(s.lambdas[i]))]
                )
