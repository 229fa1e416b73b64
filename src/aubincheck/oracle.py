"""Brute-force numerical verifier.

``sample_stationary_set`` enumerates the stationary points of the problem
inside a box around the reference point by a vectorized grid scan of the
first-order residual followed by damped (batched) Newton refinement on the
active branch.  Each branch's system and its Jacobian are the tapes of
``ProblemDerivatives.newton_systems``; the refiner and the empty-branch
certificate read the same ones.  ``aubin_probe`` samples parameter pairs
at shrinking radii and measures one-sided set-distance ratios, producing
evidence for or against the Lipschitz-like property.  The probe is an
evidence generator, not a decision procedure: its thresholds are heuristic
and recorded in the report.

A probe's sets, not a level's or one set, are the unit of work.  Every
level's draws and pairs depend only on the configuration, the reference w
and the seed, so the probe lays them all out first and then runs one
sampling stream (``_sample_sets``) and one polish stream
(``_set_distances``).  Rows never interact, so the results are those of
sampling and polishing one set or pair at a time.  The refiner does only
work that can change a result: a two-evaluation line search
(``_Refiner._line_search``), merged rows (``_Refiner.run``) and branches
certified empty over the acceptance box (``_empty_branches``) leave the
report unchanged, except that a set whose two branches are both certified
empty reports no diverged seeds.

Which points are stationary is decided by one rule, ``_stationary``, for
grid points, refined points and the distance polish alike, and the
empty-branch certificate encloses that rule.  The residual evaluation that
accepts a point also labels its branch.  A set's points are deduplicated
in half-spacing cells, each keeping its smallest-residual point.
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
    _check_dims,
    _finite_positive,
    problem_derivatives,
)
from .errors import DimensionMismatch, DomainError, GridTooCoarse, InputError
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

# The residual bar of the acceptance rule, ``_stationary`` (absolute; the
# problems are desk-scale).
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

    def __post_init__(self):
        if not _finite_positive(self.r_x):
            raise ValueError("box radius r_x must be finite and positive")
        if self.points_per_axis is not None:
            m = self.points_per_axis
            if m < 3 or m % 2 == 0:
                raise ValueError("points_per_axis must be odd and >= 3")
        if self.newton_cap < 1:
            raise ValueError("newton_cap must be >= 1")

    def resolve_points(self, n: int) -> int:
        if self.points_per_axis is not None:
            return self.points_per_axis
        return 201 if n == 1 else 61

    def spacing(self, n: int) -> float:
        return 2.0 * self.r_x / (self.resolve_points(n) - 1)


# Most parameter draws per radius level; each is a stationary set to sample.
_MAX_SAMPLES = 10**4
# Most radius levels; see ProbeConfig.
_MAX_LEVELS = 64


@dataclass(frozen=True)
class ProbeConfig:
    """Parameter sampling plan and flag thresholds for the Aubin probe.

    Radii shrink as delta_k = delta0 * 2^-k for k = 0..levels-1.  Each level
    draws ``samples`` parameters: a bulk annulus plus a radial ladder that
    deepens geometrically with the level, so a genuinely divergent distance
    ratio grows by a constant factor per level while a Lipschitz map stays
    flat.  ``growth`` and ``blowup`` gate the Violation flag; ratios below
    ``ratio_floor`` count as numerically zero.

    ``levels`` is at most _MAX_LEVELS = 64.  Each level samples up to
    ``samples`` new sets, so a probe's work grows with the level count, and
    finer levels cannot sharpen the evidence: delta_63 = delta0 * 2^-63 is
    about 1e-19 * delta0, far under the 1e-9 residual bar that decides which
    points are stationary, and under the double resolution of any parameter
    of order one, whose draws then round to the reference w.  ``seed`` is
    an integer in [-2^63, 2^63).
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
        if self.samples > _MAX_SAMPLES:
            raise ValueError(f"at most {_MAX_SAMPLES} samples per level")
        if self.levels > _MAX_LEVELS:
            raise ValueError(f"at most {_MAX_LEVELS} radius levels")
        if self.rho_u is not None and not _finite_positive(self.rho_u):
            raise ValueError("locality radius must be finite and positive")
        if not -(2**63) <= self.seed < 2**63:
            raise ValueError("seed must lie in [-2^63, 2^63)")


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

def _multiplier(g: np.ndarray, gF: np.ndarray):
    """The least-squares multiplier max(0, -<gF, g> / ||gF||^2) of each
    column of g = grad_x f0 and gF = grad_x F (n, N), and ||gF||^2.
    Callers mask the columns where it is undefined or not finite."""
    gg = np.sum(gF * gF, axis=0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return np.maximum(0.0, -np.sum(gF * g, axis=0) / gg), gg


def _kkt_batch(derivs: ProblemDerivatives, X: np.ndarray, W: np.ndarray, tol: ToleranceConfig):
    """Vectorized first-order residual over a batch of (x, w) columns.

    X is (n, N) and W is (d, N).  Returns (residuals, lambdas,
    boundary_mask).  Infeasible points get +inf; non-finite evaluations are
    treated as out of domain.
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
    if np.any(boundary):
        gF = derivs.eval_rows(derivs.Fx, X, W)
        lam_star, gg = _multiplier(g, gF)
        ok = boundary & np.all(np.isfinite(gF), axis=0) & (gg > tol.tau_zero**2)
        if np.any(ok):
            res[ok] = np.linalg.norm(g[:, ok] + lam_star[ok] * gF[:, ok], axis=0)
            lam[ok] = lam_star[ok]
    return res, lam, boundary


def _point_arrays(spec: ProblemSpec, x, w) -> tuple:
    """x and w as float vectors; raises DimensionMismatch unless they hold
    spec.n and spec.d numbers, and DomainError unless every one is finite."""
    x, w = np.asarray(x, dtype=float), np.asarray(w, dtype=float)
    if x.ndim != 1 or w.ndim != 1:
        raise DimensionMismatch(f"point has shapes {x.shape} and {w.shape}, expected vectors")
    _check_dims(spec, x, w)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))):
        raise DomainError("the point has a non-finite entry")
    return x, w


def kkt_residual(spec: ProblemSpec, x, w, tol: ToleranceConfig = ToleranceConfig()) -> float:
    """First-order residual of the stationarity system at (x, w).

    +inf encodes infeasibility (F > 0), out-of-domain evaluations and
    boundary points with ||grad_x F||^2 <= tau_zero^2, where the multiplier
    is undefined; at any other boundary point the residual minimizes
    ||grad f0 + lam grad F|| over lam >= 0 in closed form.  A point that is
    not a pair of finite vectors of the problem's sizes raises
    DimensionMismatch or DomainError, here and in the probe.
    """
    x, w = _point_arrays(spec, x, w)
    res, _, _ = _kkt_batch(problem_derivatives(spec), x[:, None], w[:, None], tol)
    return float(res[0])


# ---------------------------------------------------------------------------
# The acceptance rule
# ---------------------------------------------------------------------------

def _acceptance_box(center: np.ndarray, grid: GridSpec, tol: ToleranceConfig) -> tuple:
    """The box and bar of ``_stationary``: (centre, reach, bar, lam_floor)."""
    return center, grid.r_x + grid.spacing(center.shape[0]), ACCEPT_RESIDUAL, -tol.tau_zero


def _stationary(res: np.ndarray, pts: np.ndarray, lams: np.ndarray, box: tuple) -> np.ndarray:
    """Which points count as stationary: the probe's model of S(w).

    A point of pts (N, n), with multiplier lams (0 in the interior) and
    residual res, is accepted when res <= bar = ACCEPT_RESIDUAL, every
    coordinate lies within reach = r_x plus one grid spacing of the centre,
    and lam >= lam_floor = -tau_zero; each bound is inclusive, and a nan
    residual fails.  ``box`` comes from ``_acceptance_box``.

    Each point passes the rule on two residuals: a refined row on its
    Newton residual ||G|| and then on its first-order residual
    (``_accepted``); a grid point on its first-order residual and, when
    labelled boundary, on |F| (``_scan_grids``).  Either way every equation
    of the branch system the point solves is at most bar in size at a
    point of the box, which is what ``_empty_branches`` encloses.
    """
    center, reach, bar, lam_floor = box
    ok = res <= bar
    on = np.flatnonzero(ok)  # a scan's few hits: the box test runs on them alone
    ok[on] = (np.max(np.abs(pts[on] - center), axis=1) <= reach) & (lams[on] >= lam_floor)
    return ok


def _lambda_label(lams: np.ndarray, boundary: np.ndarray) -> np.ndarray:
    """The multiplier an accepted point reports: max(lam, 0) on the
    boundary and 0 in the interior."""
    return np.where(boundary, np.maximum(0.0, lams), 0.0)


# ---------------------------------------------------------------------------
# Batched damped Newton refinement
# ---------------------------------------------------------------------------

# Most distinct active rows of the Newton refiner, and so in one step
# batch.  The probe refines the seeds of all its stationary sets, and
# polishes all its pairs, as one stream each; every row follows its own
# iterations, so the bound cannot change a result.  Each step batch has a
# fixed numpy overhead, so fewer, fuller batches are faster: on a 2-CPU VM
# (Python 3.11, numpy 2.4), the eight fixture probes took a median of 461 ms
# in process at 1024 rows, 532 ms at 512, and 597 ms at 512 with one stream
# per radius level (7 alternating rounds of 5 runs each).  With one stream
# per probe, the traced peak is set by the stream's per-row state and not by
# this bound: 2.84-2.85 MiB for the costliest fixture probe (n = 2) at
# both 512 and 1024 rows.
_CHUNK_ROWS = 1024

# Most points of one grid-scan residual evaluation, and most (row, point)
# differences of one block of grid-only distances.  In the same rounds a
# 10240-point block ran the eight probes faster in 6 of 7 (median 439
# against 461 ms) but raised the traced peak of the n = 2 fixture probe that
# refines no Newton row from 1.10 to 1.54 MiB, so 5120 stays until the
# benchmark weighs the two.
_BLOCK_POINTS = 5120

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


# Odd multiplier of the merge test's checksum (the 64-bit golden ratio); the
# k-th key column is weighted by (2k + 1) times it.
_CHECKSUM = np.uint64(0x9E3779B97F4A7C15)


def _first_equal(key: np.ndarray):
    """For each row of key (k, c), the index of the first row with the same
    bits; None when no two rows are equal.

    A sorted 64-bit checksum of each row's bits rules most repeats out: rows
    whose checksums differ differ.  Only when two checksums agree are the
    rows' bytes compared exactly, by one sort.
    """
    weights = np.arange(1, 2 * key.shape[1], 2, dtype=np.uint64) * _CHECKSUM
    sums = np.sort(key.view(np.uint64) @ weights)  # sums wrap modulo 2^64
    if not np.any(sums[1:] == sums[:-1]):
        return None
    rows = key.view(np.dtype((np.void, key.itemsize * key.shape[1]))).ravel()
    _, first, inv = np.unique(rows, return_index=True, return_inverse=True)
    lead = first[inv]
    return lead if np.any(lead != np.arange(lead.size)) else None


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
        tape, _ = self.derivs.newton_systems[branch]
        G = self.derivs.eval_rows(tape, Zc.T, W).T
        G = np.where(np.isfinite(G), G, 1e30)
        # A huge finite entry squares to inf; the line search and the stall
        # test reject that norm.
        with np.errstate(over="ignore"):
            return G, np.linalg.norm(G, axis=1)

    def _jacobian(self, Zc: np.ndarray, W: np.ndarray, branch: str) -> np.ndarray:
        """Branch system Jacobians over a (k, m) subset, as (k, m, m)."""
        _, tape = self.derivs.newton_systems[branch]
        m = Zc.shape[1]
        J = self.derivs.eval_rows(tape, Zc.T, W).T.reshape(-1, m, m)
        return np.where(np.isfinite(J), J, 0.0)

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

    def _start(self, seeds: np.ndarray, W: np.ndarray, branch: str) -> np.ndarray:
        """Starting iterates (k, m): the seeds, on the boundary with each
        seed's least-squares lam >= 0 appended."""
        if branch == "interior":
            return seeds
        d, X = self.derivs, seeds.T
        lam0, gg = _multiplier(d.eval_rows(d.f0x, X, W), d.eval_rows(d.Fx, X, W))
        lam0 = np.where((gg > 0) & np.isfinite(lam0), lam0, 0.0)
        return np.concatenate([seeds, lam0[:, None]], axis=1)

    def run(self, seeds: np.ndarray, W: np.ndarray, branch: str, rows: np.ndarray):
        """Refine the seeds (N, n) in ``rows`` at their parameters W (d, N);
        returns (points, lambdas, ||G||) of those rows, in order.

        The state is kept in place, one entry per output position: iterate
        Z, G and its norm at the iterate (carried from the evaluation that
        accepted it) and steps taken; ``active`` holds the positions still
        iterating, at most _CHUNK_ROWS of them.  Each row iterates until it
        stalls, escapes, reaches residual 0 or has taken newton_cap steps,
        and pending rows enter as others leave.  Before each step, active
        rows whose iterate, parameter and step count agree bit for bit are
        merged: only the first is stepped, and at the end the others take
        its result.  A row's steps depend on that row alone, so every row
        ends as it would refined by itself.
        """
        n, cap = self.n, self.grid.newton_cap
        m = n + (branch == "boundary")
        Z, G = np.empty((rows.size, m)), np.empty((rows.size, m))
        rnorm, steps = np.empty(rows.size), np.zeros(rows.size, int)
        kill_radius = 1.5 * self.grid.r_x
        active = np.empty(0, int)
        merged = []  # (followers, leaders) as output positions, in merge order
        entered = 0

        while entered < rows.size or active.size:
            new = np.arange(entered, min(rows.size, entered + _CHUNK_ROWS - active.size))
            if new.size:
                entered = new[-1] + 1
                Wn = W[:, rows[new]]
                Z[new] = Zn = self._start(seeds[rows[new]], Wn, branch)
                G[new], rnorm[new] = self._residual(Zn, Wn, branch)
                active = np.concatenate([active, new[rnorm[new] > 0.0]])
                if active.size == 0:
                    continue

            Wa = W[:, rows[active]]
            lead = _first_equal(np.hstack([Z[active], Wa.T, steps[active, None]]))
            if lead is not None:
                follow = lead != np.arange(lead.size)
                merged.append((active[follow], active[lead[follow]]))
                active, Wa = active[~follow], Wa[:, ~follow]

            # Iterate to stall, not to an absolute bar: very flat residual
            # landscapes need machine-level resolution to locate the root.
            Za, ra = Z[active], rnorm[active]
            step = _pinv_step(self._jacobian(Za, Wa, branch), G[active])
            alpha, cand, Gc, rn_new = self._line_search(Za, Wa, step, ra, branch)
            with np.errstate(over="ignore"):  # a huge step's norm is inf: no stall
                stalled = (rn_new >= ra * (1.0 - 1e-12)) | (
                    np.linalg.norm(alpha[:, None] * step, axis=1)
                    <= 1e-15 * (1.0 + np.linalg.norm(Za, axis=1))
                )
            moved = active[~stalled]
            Z[moved], G[moved], rnorm[moved] = cand[~stalled], Gc[~stalled], rn_new[~stalled]
            steps[active] += 1
            escaped = np.max(np.abs(Z[active, :n] - self.center[None, :]), axis=1) > kill_radius
            active = active[~(stalled | escaped | ~(rnorm[active] > 0.0) | (steps[active] == cap))]

        for followers, leaders in reversed(merged):
            Z[followers], rnorm[followers] = Z[leaders], rnorm[leaders]
        lams = Z[:, n] if branch == "boundary" else np.zeros(rows.size)
        return Z[:, :n], lams, rnorm


def _empty_branches(derivs: ProblemDerivatives, W: np.ndarray, center: np.ndarray, grid: GridSpec, tol: ToleranceConfig) -> list:
    """The branches certified to hold no point ``_stationary`` accepts, per
    parameter: a tuple of branch names for each column of W (d, K).

    Each equation of a branch system is enclosed over the rule's box (lam
    as x_{n+1}); a branch is certified empty at a parameter when some
    enclosure excludes [-bar, bar].  The enclosures hold the float values
    the refiner computes, and _ROUNDING covers the norm and the box test.
    """
    center, reach, bar, lam_floor = _acceptance_box(center, grid, tol)
    reach *= 1.0 + _ROUNDING
    box = (
        np.nextafter(np.append(center - reach, lam_floor), -np.inf)[:, None],
        np.nextafter(np.append(center + reach, np.inf), np.inf)[:, None],
    )
    bar *= 1.0 + _ROUNDING
    masks = []
    for branch in _BRANCHES:
        empty = np.zeros(W.shape[1], dtype=bool)
        for lo, hi in eval_interval(derivs.newton_systems[branch][0], box, (W, W)):
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
    the rows that ``_stationary`` accepts, on their Newton residual and then
    on their first-order residual; the rows in ``skip[branch]`` are not
    refined on that branch.

    Yields, per branch, (rows, points, residuals, lambdas, boundary) of the
    accepted rows.  The residual evaluation that accepts a row also gives
    its boundary label.
    """
    box = _acceptance_box(refiner.center, refiner.grid, refiner.tol)
    for branch in _BRANCHES:
        live = np.flatnonzero(~skip[branch])
        pts, lams, gnorm = refiner.run(seeds, W, branch, live)
        ok = _stationary(gnorm, pts, lams, box)
        rows, pts, lams = live[ok], pts[ok], lams[ok]
        if rows.size == 0:
            continue
        res, bmask = np.empty(rows.size), np.empty(rows.size, dtype=bool)
        for s in range(0, rows.size, _CHUNK_ROWS):
            part = slice(s, s + _CHUNK_ROWS)
            res[part], _, bmask[part] = _kkt_batch(refiner.derivs, pts[part].T, W[:, rows[part]], refiner.tol)
        ok = _stationary(res, pts, lams, box)
        yield rows[ok], pts[ok], res[ok], _lambda_label(lams[ok], bmask[ok]), bmask[ok]


# ---------------------------------------------------------------------------
# Stationary set sampling
# ---------------------------------------------------------------------------

# Most points of one stationary set's grid, so the scan's arrays stay in memory.
_MAX_GRID_POINTS = 10**6


def _build_grid(center: np.ndarray, grid: GridSpec, n: int) -> np.ndarray:
    m = grid.resolve_points(n)
    if m**n > _MAX_GRID_POINTS:
        raise InputError(f"a grid of {m}^{n} points exceeds the {_MAX_GRID_POINTS} points a stationary set may scan")
    axes = [center[i] + np.linspace(-grid.r_x, grid.r_x, m) for i in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.vstack([a.ravel() for a in mesh])  # (n, m^n)


def _axis_neighbors(n: int):
    """(lo, hi) index pairs over the last n axes of an array, one per axis:
    hi[...] is the next neighbor of lo[...] along that axis."""
    for ax in range(n):
        lo = (Ellipsis,) + tuple(slice(None, -1) if i == ax else slice(None) for i in range(n))
        hi = (Ellipsis,) + tuple(slice(1, None) if i == ax else slice(None) for i in range(n))
        yield lo, hi


def _local_minima(R: np.ndarray) -> np.ndarray:
    """Flat indices of the points of R (sets, m, ..., m), one residual grid
    per set, that are finite and <= every axis neighbor in their grid."""
    ok = np.isfinite(R)
    for lo, hi in _axis_neighbors(R.ndim - 1):
        ok[lo] &= R[lo] <= R[hi]
        ok[hi] &= R[hi] <= R[lo]
    return np.flatnonzero(ok)


def _with_neighbors(idx: np.ndarray, shape: tuple) -> np.ndarray:
    """Sorted flat indices of idx and of their axis neighbors in an array of
    ``shape`` (sets, m, ..., m); the sets' grids do not touch."""
    hit = np.zeros(shape, dtype=bool)
    hit.reshape(-1)[idx] = True
    out = hit.copy()
    for lo, hi in _axis_neighbors(len(shape) - 1):
        out[lo] |= hit[hi]
        out[hi] |= hit[lo]
    return np.flatnonzero(out)


def sample_stationary_set(
    spec: ProblemSpec, w, grid: GridSpec = GridSpec(), tol: ToleranceConfig = ToleranceConfig(), center=None
) -> SampleSet:
    """Stationary points of the problem at parameter ``w`` inside the box.

    The box has radius ``grid.r_x`` around ``center`` (the reference x, or
    the origin when omitted).  Grid points that ``_stationary`` accepts are
    kept as-is (degenerate stationary manifolds stay fully sampled); local
    minima of the residual field and their neighbors are refined by damped
    Newton on both the interior and the boundary branch, and kept where the
    rule accepts them.  The points are deduplicated within half a grid
    spacing.  (center, w) is checked as a point, as in ``kkt_residual``.
    """
    if spec.n > 2:
        raise DimensionMismatch("stationary set sampling supports n <= 2")
    center, w = _point_arrays(spec, np.zeros(spec.n) if center is None else center, w)
    return _sample_sets(problem_derivatives(spec), [w], center, grid, tol)[0]


def _sample_sets(derivs: ProblemDerivatives, ws: list, center: np.ndarray, grid: GridSpec, tol: ToleranceConfig) -> list:
    """``sample_stationary_set`` for each parameter in ``ws``, sampled together.

    The grids are scanned and seeded a chunk of sets at a time (see
    ``_scan_grids``).  The Newton seeds of all the sets are refined as one
    stream per branch, each row at its own set's parameter; the bound on
    the refiner's active rows bounds the working memory.  The empty-branch
    certificates of all the sets come from one call.  A set whose two
    branches are certified empty is not seeded, so no seed of it counts as
    diverged.
    """
    Ws = np.asarray(ws, dtype=float).T
    empty = _empty_branches(derivs, Ws, center, grid, tol)
    seeded = np.array([len(e) < len(_BRANCHES) for e in empty])
    direct, seed_set, seeds, seed_direct = _scan_grids(derivs, Ws, seeded, center, grid, tol)
    found = [direct]
    counts = np.bincount(seed_set, minlength=len(ws))
    produced = np.zeros(seed_set.size, dtype=bool)
    refiner = _Refiner(derivs, grid, tol, center)
    for rows, *parts in _accepted(refiner, seeds, Ws[:, seed_set], _skip_masks(empty, counts)):
        produced[rows] = True
        found.append((seed_set[rows], *parts))

    diverged = np.bincount(seed_set[~(produced | seed_direct)], minlength=len(ws))
    warns = [()] * len(ws)
    for j in np.flatnonzero(diverged > 0.1 * counts):
        msg = f"Newton refinement diverged for {diverged[j]}/{counts[j]} seeds; the grid may be too coarse"
        warns[j] = (msg,)
        _warnings.warn(msg, GridTooCoarse, stacklevel=3)
    return _finish_sets(ws, found, center, grid, warns, empty)


def _scan_grids(derivs: ProblemDerivatives, Ws: np.ndarray, seeded: np.ndarray, center: np.ndarray, grid: GridSpec, tol: ToleranceConfig):
    """Grid scan of the sets at the parameters Ws (d, K): (direct, seed_set,
    seeds, seed_direct).

    The grids of consecutive sets share one _kkt_batch call of at most
    _BLOCK_POINTS points, or of one grid where a grid alone is larger; the
    working memory stays that of one call.
    ``direct`` holds the grid points ``_stationary`` accepts, as (set,
    points, residuals, lambdas, boundary): on the first-order residual and,
    for boundary-labelled points, on |F| too.  The seeds (N, n) are, per set
    in ``seeded``, the local minima of its residual grid and their axis
    neighbors, in set order; seed_set gives each seed's set and seed_direct
    marks the seeds accepted as they are.
    """
    n = derivs.spec.n
    m = grid.resolve_points(n)
    X = _build_grid(center, grid, n)
    size = X.shape[1]
    per = max(1, _BLOCK_POINTS // size)
    box = _acceptance_box(center, grid, tol)
    hits, picks = [], []  # per chunk: (set, grid index, residual, lambda, boundary) and (set, grid index, direct)
    for s in range(0, Ws.shape[1], per):
        k = min(per, Ws.shape[1] - s)
        Xk, Wk = np.tile(X, k), np.repeat(Ws[:, s : s + k], size, axis=1)
        res, lam, boundary = _kkt_batch(derivs, Xk, Wk, tol)
        ok = _stationary(res, Xk.T, lam, box)
        hit = np.flatnonzero(ok)
        on = hit[boundary[hit]]
        if on.size:
            F = derivs.eval_rows(derivs.F_row, Xk[:, on], Wk[:, on])[0]
            ok[on] = _stationary(np.abs(F), Xk[:, on].T, lam[on], box)
            hit = np.flatnonzero(ok)
        hits.append((s + hit // size, hit % size, res[hit], _lambda_label(lam[hit], boundary[hit]), boundary[hit]))

        R = res.reshape((k,) + (m,) * n)
        minima = _local_minima(R)
        idx = _with_neighbors(minima[seeded[s + minima // size]], R.shape)
        idx = idx[np.isfinite(res[idx])]
        # Large seed sets are residual plateaus; the direct-accept path above
        # keeps the manifold itself, so refining a stride subsample of a set's
        # seeds, at most 256 of them, suffices.
        sets = idx // size
        count = np.bincount(sets, minlength=k)
        rank = np.arange(idx.size) - (np.cumsum(count) - count)[sets]
        idx = idx[rank % ((count + 255) // 256)[sets] == 0]
        picks.append((s + idx // size, idx % size, ok[idx]))

    sid, at, res, lam, boundary = (np.concatenate(c) for c in zip(*hits))
    seed_set, seed_at, seed_direct = (np.concatenate(c) for c in zip(*picks))
    return (sid, X[:, at].T, res, lam, boundary), seed_set, X[:, seed_at].T, seed_direct


def _finish_sets(ws: list, found: list, center: np.ndarray, grid: GridSpec, warns: list, empty: list) -> list:
    """The SampleSet of each parameter in ``ws`` from its accepted points;
    ``found`` lists (set, points, residuals, lambdas, boundary) arrays, each
    grouped by set.  Each point keeps the branch label of the residual
    evaluation that accepted it."""
    n = center.shape[0]
    sid, pts, rs, ls, bm = (np.concatenate(c) for c in zip(*found))

    # Deduplicate within spacing/2: bucket each set's points to half-spacing
    # cells and keep the first point of each cell in (residual, x) order, its
    # smallest residual; the stable sort breaks ties in ``found`` order.
    keep = np.empty(0, dtype=int)
    if sid.size:
        order = np.lexsort(tuple(pts[:, i] for i in reversed(range(n))) + (rs,))
        cells = np.floor((pts[order] - (center - grid.r_x)) / (grid.spacing(n) / 2.0) + 0.5).astype(int)
        cells = np.column_stack([sid[order], cells])
        cells -= cells.min(axis=0)
        key = np.ravel_multi_index(tuple(cells.T), tuple(cells.max(axis=0) + 1))
        keep = order[np.unique(key, return_index=True)[1]]
        keep = keep[np.lexsort(tuple(pts[keep, i] for i in reversed(range(n))) + (sid[keep],))]
    cut = np.searchsorted(sid[keep], np.arange(len(ws) + 1))

    sets = []
    for j, w in enumerate(ws):
        kj = keep[cut[j] : cut[j + 1]]
        branches = tuple("boundary" if b else "interior" for b in bm[kj])
        sets.append(SampleSet(tuple(w), pts[kj], rs[kj], ls[kj], branches, warns[j], empty[j]))
    return sets


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

    ``flag`` and ``flag_reason`` come from ``_flag``, which states the flag
    semantics.  ``samples`` (with ``keep_samples``) lists every sampled
    stationary set in sampling order, and ``warnings`` follows it.
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
    stream, and skip the branches their target's sampling certified empty.
    """
    if not queries:
        return []
    xps = np.vstack([q for q, _ in queries])
    counts = [q.shape[0] for q, _ in queries]
    cut = np.cumsum([0] + counts)
    W = np.repeat(np.array([t.w for _, t in queries]).T, counts, axis=1)
    # Grid-only distances, once per target set over all its queries' rows, in
    # blocks of at most _BLOCK_POINTS (row, point) differences.
    dists = np.empty(xps.shape[0])
    by_target: dict = {}
    for j, (_, t) in enumerate(queries):
        by_target.setdefault(id(t), (t, []))[1].append(np.arange(cut[j], cut[j + 1]))
    for t, parts in by_target.values():
        rows = np.concatenate(parts)
        step = max(1, _BLOCK_POINTS // t.points.shape[0])
        for s in range(0, rows.size, step):
            r = rows[s : s + step]
            dists[r] = np.min(np.linalg.norm(xps[r, None, :] - t.points[None, :, :], axis=2), axis=1)
    skip = _skip_masks([t.certified_empty for _, t in queries], counts)
    for rows, pts, _, _, _ in _accepted(polisher, xps, W, skip):
        dists[rows] = np.minimum(dists[rows], np.linalg.norm(pts - xps[rows], axis=1))
    return [dists[cut[j] : cut[j + 1]] for j in range(len(queries))]


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

    is recorded.  All levels' sets are sampled in one stream, and all their
    pairs polished in another.  See ``_flag`` for the flag semantics.
    """
    if spec.n > 2 or spec.d > 2:
        raise DimensionMismatch("the probe supports n <= 2 and d <= 2")
    x_center, w_bar = _point_arrays(spec, point.x, point.w)
    derivs = problem_derivatives(spec)
    rho_u = cfg.rho_u if cfg.rho_u is not None else grid.r_x / 2.0
    # The distance polish only needs quadratic-convergent corrections.
    polish_grid = dataclasses.replace(grid, newton_cap=min(grid.newton_cap, 10))
    polisher = _Refiner(derivs, polish_grid, tol, x_center)

    # Every level's draws, keys and pairs depend only on cfg, w_bar and the
    # seed.  Pairs index a level's pts, its draws and then w_bar.
    plan = []  # per level: (delta, pts, keys, pairs)
    for k in range(cfg.levels):
        delta = cfg.delta0 * 2.0 ** (-k)
        radii = _relative_radii(k, cfg.samples)
        dirs = _directions(spec.d, len(radii), cfg.seed + k)
        pts = [w_bar + delta * r * u for r, u in zip(radii, dirs)] + [w_bar]
        bar = len(pts) - 1
        pairs = []
        for i in range(bar):
            pairs += [(bar, i), (i, bar)]
        for i in range(0, bar - 1, 4):
            pairs += [(i, i + 1), (i + 1, i)]
        plan.append((delta, pts, [tuple(float(v) for v in wv) for wv in pts], pairs))

    # Every level's new sets, sampled together in level order: per level the
    # first draw, w_bar, then the rest.  Parameter key -> (SampleSet, its
    # points within rho_u of x), in sampling order.
    new: dict = {}
    for _, pts, keys, _ in plan:
        bar = len(pts) - 1
        for i in [0, bar] + list(range(1, bar)):
            new.setdefault(keys[i], pts[i])
    sampled = {
        kw: (S, S.points[np.linalg.norm(S.points - x_center[None, :], axis=1) <= rho_u])
        for kw, S in zip(new, _sample_sets(derivs, list(new.values()), x_center, grid, tol))
    }
    # Whether every draw rounds to w_bar, so that no pair can be measured.
    unresolved = len(new) == 1

    # A pair whose perturbed set has points near x is an empty-value event
    # when its base set is empty, and a ratio pair otherwise; the ratio pairs
    # of every level are polished together.
    measured, queries = [], []  # per level: (events, ratio pairs)
    for _, pts, keys, pairs in plan:
        events, ratio_pairs = [], []
        for base, pert in pairs:
            dist_w = float(np.linalg.norm(pts[pert] - pts[base]))
            near = sampled[keys[pert]][1]
            if dist_w == 0.0 or near.shape[0] == 0:
                continue
            S_base = sampled[keys[base]][0]
            if S_base.is_empty:
                events.append((base, pert))
            else:
                ratio_pairs.append((base, pert, dist_w, near))
                queries.append((near, S_base))
        measured.append((events, ratio_pairs))
    polished = iter(_set_distances(queries, polisher))

    levels: list[LevelStats] = []
    for k, ((delta, pts, _, pairs), (events, ratio_pairs)) in enumerate(zip(plan, measured)):
        peaks = []  # (ratio, base, pert, x', distance) at each ratio pair's worst x'
        for base, pert, dist_w, near in ratio_pairs:
            dists = next(polished)
            ratios = dists / dist_w
            i_max = int(np.argmax(ratios))
            peaks.append((float(ratios[i_max]), base, pert, near[i_max], float(dists[i_max])))
        if k == 0:
            significant = [p[0] for p in peaks if p[0] > cfg.ratio_floor]
            baseline = float(np.median(significant)) if significant else None

        worst, worst_pair = None, None
        if peaks or events:
            if peaks:
                worst, base, pert, x_point, distance = max(peaks, key=lambda p: p[0])
                about = {"x_point": [float(v) for v in x_point], "distance": distance}
            else:
                (base, pert), about = events[0], {"event": "empty_base_set"}
            worst_pair = {"w_base": [float(v) for v in pts[base]], "w_perturbed": [float(v) for v in pts[pert]]}
            worst_pair.update(about, ratio=worst)
        levels.append(LevelStats(delta, len(pairs), len(peaks), worst, len(events), worst_pair))

    flag, reason = _flag(levels, baseline, cfg, unresolved)
    sets = [S for S, _ in sampled.values()]
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
        warnings=tuple(dict.fromkeys(msg for S in sets for msg in S.warnings)),
        samples=sets if keep_samples else None,
    )


def _flag(levels: list, baseline: float | None, cfg: ProbeConfig, unresolved: bool) -> tuple:
    """The probe's (flag, reason) from its levels, the median of the
    coarsest level's ratios above the floor (``baseline``), the thresholds
    of ``cfg``, and whether every draw rounds to the reference w
    (``unresolved``).

    Violation when an empty-value event (perturbed set nonempty near x while
    the base set vanished from the box) occurs at every level, or when the
    per-level worst ratios grow by at least the ``growth`` factor across
    every consecutive radius level and the finest worst ratio exceeds
    ``blowup``; Consistent when no events occur and all worst ratios stay
    within 10x the baseline (or under the numeric floor); otherwise
    Inconclusive.  When no level has a ratio or an event, the reason says
    that nothing was measured and why.
    """
    if all(lv.empty_value_events > 0 for lv in levels):
        return FLAG_VIOLATION, (
            "empty-value events at every radius level: the base stationary set vanishes "
            "from the box while the perturbed one persists"
        )
    worsts = [lv.worst_ratio for lv in levels]
    if (
        all(wr is not None for wr in worsts)
        and all(b >= cfg.growth * a for a, b in zip(worsts, worsts[1:]))
        and worsts[-1] > cfg.blowup
    ):
        return FLAG_VIOLATION, (
            f"worst distance ratios grew by >= {cfg.growth}x across every consecutive "
            f"radius level and reached {worsts[-1]:.3g} > {cfg.blowup} at the finest level"
        )
    measured = [wr for wr in worsts if wr is not None]
    events = sum(lv.empty_value_events for lv in levels)
    if not measured and not events:
        return FLAG_INCONCLUSIVE, "nothing was measured: no ratio and no empty-value event at any radius level, because " + (
            "every parameter draw rounds to the reference w"
            if unresolved
            else "no perturbed stationary set has a point within rho_u of the reference x"
        )
    bound = max(10.0 * baseline, cfg.ratio_floor) if baseline is not None else cfg.ratio_floor
    if not events and all(wr <= bound for wr in measured):
        return FLAG_CONSISTENT, (
            "all worst ratios stay within 10x the coarsest-level median"
            if baseline is not None
            else "all measured ratios are below the numeric floor"
        )
    return FLAG_INCONCLUSIVE, "ratios neither stayed bounded near the baseline nor grew consistently past the thresholds"


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
