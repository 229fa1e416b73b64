"""Derivative evaluation at the reference point, case classification,
stationarity verification, and the Lagrange multiplier.

The reference pair (x, w) is classified against the joint domain
D = {F <= 0}: interior (F < 0), boundary (F = 0), or infeasible.  On the
boundary the unique multiplier lambda solving

    grad_x f0 + lambda * grad_x F = 0,   lambda >= 0,

splits the analysis into the nondegenerate (lambda > 0) and degenerate
(lambda = 0) branches.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import expr as ex
from .errors import (
    DimensionMismatch,
    DomainError,
    InfeasiblePoint,
    InputError,
    MfcqViolated,
    NotStationary,
)

__all__ = [
    "ToleranceConfig",
    "EvalPoint",
    "BLOCKS",
    "DerivativeBundle",
    "ProblemDerivatives",
    "CaseTag",
    "MultiplierInfo",
    "derivative_bundle",
    "classify_point",
    "lagrange_multiplier",
    "verify_stationarity",
    "finite_difference_audit",
]


def _finite_positive(value) -> bool:
    return bool(np.isfinite(value) and value > 0.0)


@dataclass(frozen=True, slots=True)
class ToleranceConfig:
    """Numerical thresholds used across the analysis.

    tau_act   activity of the constraint (interior/boundary split)
    tau_zero  scalar zero test (MFCQ, multiplier sign)
    tau_stat  stationarity residual
    tau_rank  singular-value cutoff for rank decisions
    tau_col   collinearity of restricted cone functionals
    """

    tau_act: float = 1e-8
    tau_zero: float = 1e-8
    tau_stat: float = 1e-7
    tau_rank: float = 1e-9
    tau_col: float = 1e-8

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if not _finite_positive(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite and strictly positive")

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class EvalPoint:
    """Reference pair (x, w) of flat vectors of finite reals, checked by
    ``_check_pair`` when built; its sizes are checked against a problem
    where the point is used."""

    x: tuple
    w: tuple

    def __init__(self, x, w):
        x, w = _check_pair(x, w)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "w", w)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self.x), np.array(self.w)


def _check_pair(x, w, n: int | None = None, d: int | None = None, what: str = "point") -> tuple:
    """(x, w) as two tuples of floats: the one test of every pair in
    R^n x R^d, a point (x, w) or a coderivative query (x', w'), named
    ``what`` in the messages.

    Raises DimensionMismatch when x or w is not a flat vector, or when n is
    given and their sizes are not (n, d), and DomainError when an entry is
    nan or infinite.  Plain Python: n and d are small, and numpy's
    per-call overhead would dominate.
    """
    try:
        x, w = tuple(x), tuple(w)
        if any(getattr(v, "ndim", 0) for v in x + w):
            raise TypeError
        x, w = tuple(map(float, x)), tuple(map(float, w))
    except TypeError:
        xs, ws = (np.asarray(v, dtype=object).shape for v in (x, w))
        raise DimensionMismatch(f"{what} has shapes {xs} and {ws}, expected vectors") from None
    if n is not None and (len(x) != n or len(w) != d):
        raise DimensionMismatch(f"{what} has dimensions ({len(x)}, {len(w)}), problem expects ({n}, {d})")
    if not all(map(math.isfinite, x + w)):
        raise DomainError(f"the {what} has a non-finite entry")
    return x, w


class Block(NamedTuple):
    """A bundle block: its DerivativeBundle field, the ProblemDerivatives tape
    holding it, the rows the audit differences (f0 or F, or the gradient tape
    f0x or Fx) and the variables it differences them by ("x" or "w")."""

    field: str
    tape: str
    rows: str
    by: str

    @property
    def second_order(self) -> bool:
        return self.rows in ("f0x", "Fx")


# The bundle's blocks in report order.
BLOCKS = (
    Block("gxf0", "f0x", "f0", "x"),
    Block("gxF", "Fx", "F", "x"),
    Block("gwF", "Fw", "F", "w"),
    Block("Hxx", "f0xx", "f0x", "x"),
    Block("Hwx", "f0wx", "f0x", "w"),
    Block("Fxx", "Fxx", "Fx", "x"),
    Block("Fwx", "Fwx", "Fx", "w"),
)


@dataclass(frozen=True)
class DerivativeBundle:
    """All first/second partials of f0 and F evaluated at the reference pair.

    Shapes: gxf0, gxF are (n,); gwF is (d,); Hxx, Fxx are (n, n) and exactly
    symmetric (symmetrized after evaluation); Hwx, Fwx are (d, n) with
    Hwx[k, i] = d^2 f0 / dw_k dx_i.
    """

    n: int
    d: int
    Fval: float
    gxf0: np.ndarray
    Hxx: np.ndarray
    Hwx: np.ndarray
    gxF: np.ndarray
    gwF: np.ndarray
    Fxx: np.ndarray
    Fwx: np.ndarray

    def __post_init__(self):
        blocks = (getattr(self, blk.field) for blk in BLOCKS)
        if not (np.isfinite(self.Fval) and all(np.all(np.isfinite(b)) for b in blocks)):
            raise DomainError("derivative bundle contains non-finite entries")

    def scale(self) -> float:
        """Magnitude estimate of every block but grad_x f0, used for relative tests."""
        return max(
            float(np.max(np.abs(b))) if b.size else 0.0
            for b in (getattr(self, blk.field) for blk in BLOCKS if blk.field != "gxf0")
        )


class ProblemDerivatives:
    """Symbolic derivatives of a problem, built once and reused.

    Provides exact gradients/Hessians for bundle evaluation and fast
    vectorized evaluation for the sampling oracle.  Each block is a
    ``Tape`` of its entries in row-major order: ``f0xx[i*n + j]`` is
    d^2 f0 / dx_j dx_i and ``f0wx[k*n + i]`` is d^2 f0 / dw_k dx_i.
    ``newton_systems`` lays out each branch's first-order system and its
    Jacobian once; the oracle's Newton refiner and its empty-branch
    certificate both read it.
    """

    def __init__(self, spec: ex.ProblemSpec):
        self.spec = spec
        xs = [ex.Var("x", i + 1) for i in range(spec.n)]
        ws = [ex.Var("w", k + 1) for k in range(spec.d)]
        memo = {}  # node -> its nonzero partials, shared by f0, F and both orders
        zero = ex.Const(0.0)

        def grad(es, vs, by_row=True):
            """The derivatives of ``es`` by ``vs``, row-major (or variable-major
            when not ``by_row``), from one walk over the nodes below ``es``
            that the memo does not yet hold."""
            ex.derive(es, memo)
            pairs = ((e, v) for e in es for v in vs) if by_row else ((e, v) for v in vs for e in es)
            return ex.Tape(memo[e].get(v, zero) for e, v in pairs)

        self.F_row = ex.Tape((spec.F,))
        self.f0x = grad([spec.f0], xs)
        self.Fx = grad([spec.F], xs)
        self.Fw = grad([spec.F], ws)
        self.f0xx = grad(self.f0x, xs)
        self.f0wx = grad(self.f0x, ws, by_row=False)
        self.Fxx = grad(self.Fx, xs)
        self.Fwx = grad(self.Fx, ws, by_row=False)
        # F and the bundle's blocks, in BLOCKS order: one tape for the bundle.
        self.bundle_tape = ex.Tape([*self.F_row, *(e for blk in BLOCKS for e in getattr(self, blk.tape))])

    # -- evaluation at the reference point ------------------------------------

    def bundle(self, point: EvalPoint) -> DerivativeBundle:
        n, d = self.spec.n, self.spec.d
        x, w = _check_pair(point.x, point.w, n, d)
        values = np.array(ex.evaluate(self.bundle_tape, x, w))
        tapes = [getattr(self, blk.tape) for blk in BLOCKS]
        blocks = {}
        for blk, v in zip(BLOCKS, np.split(values[1:], np.cumsum([len(t) for t in tapes[:-1]]))):
            if blk.second_order:
                v = v.reshape(-1, n)
                if blk.by == "x":
                    v = (v + v.T) / 2.0
            blocks[blk.field] = v
        return DerivativeBundle(n=n, d=d, Fval=float(values[0]), **blocks)

    # -- vectorized evaluation over point batches (oracle fast path) ----------

    @cached_property
    def newton_systems(self) -> dict:
        """Each branch's first-order system, as a pair of tapes (G, J) over z.

        interior: z = x, G = grad_x f0 and J = grad_xx f0.
        boundary: z = (x, lam), lam as x_{n+1}; G = (grad_x f0 + lam grad_x F, F)
        and J = [[grad_xx f0 + lam grad_xx F, grad_x F], [grad_x F^T, 0]].

        J is row-major, J[i*m + j] = dG_i/dz_j.  Its entries keep their zero
        terms (f0xx + lam*Fxx); ``differentiate`` drops them, which can flip
        the sign of a zero and with it a Newton step.
        """
        n = self.spec.n
        lam = ex.Var("x", n + 1)
        G = [*(ex.Add(g, ex.Mul(lam, gF)) for g, gF in zip(self.f0x, self.Fx)), self.spec.F]
        H = [ex.Add(h, ex.Mul(lam, hF)) for h, hF in zip(self.f0xx, self.Fxx)]
        J = [e for i in range(n) for e in (*H[i * n : (i + 1) * n], self.Fx[i])] + [*self.Fx, ex.Const(0.0)]
        return {"interior": (self.f0x, self.f0xx), "boundary": (ex.Tape(G), ex.Tape(J))}

    def eval_rows(self, tape: ex.Tape, X: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Evaluate a tape over the batch; returns (len(tape), N).

        X is (n, N) and W is (d, N): each point carries its own parameter.
        """
        out = np.empty((len(tape), X.shape[1]))
        for i, v in enumerate(ex.eval_array(tape, X, W)):
            out[i] = v
        return out


@lru_cache(maxsize=64)
def _derivatives_for(spec: ex.ProblemSpec) -> ProblemDerivatives:
    return ProblemDerivatives(spec)


def problem_derivatives(spec: ex.ProblemSpec) -> ProblemDerivatives:
    """Cached symbolic derivatives for ``spec``."""
    return _derivatives_for(spec)


def derivative_bundle(spec: ex.ProblemSpec, point: EvalPoint) -> DerivativeBundle:
    """Evaluate every first/second partial of f0 and F at the reference pair."""
    return problem_derivatives(spec).bundle(point)


INTERIOR = "Interior"
BOUNDARY = "Boundary"
INFEASIBLE = "Infeasible"
NONDEGENERATE = "Nondegenerate"
DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class CaseTag:
    """Interior/boundary classification with the multiplier sub-tag.

    ``borderline_lambda`` marks a boundary point whose multiplier is nonzero
    but below tau_zero: it is classified Degenerate, and the verdict logic
    additionally evaluates the nondegenerate branch.
    """

    kind: str
    subtag: str | None = None
    borderline_lambda: bool = False

    @property
    def is_interior(self) -> bool:
        return self.kind == INTERIOR

    @property
    def is_boundary(self) -> bool:
        return self.kind == BOUNDARY


@dataclass(frozen=True)
class MultiplierInfo:
    """Multiplier lambda >= 0 and the residual of grad_x f0 + lambda grad_x F."""

    lam: float
    residual: float


def _activity_threshold(Fval: float, tol: ToleranceConfig) -> float:
    # Relative threshold: rescaling F must not flip the classification.
    return tol.tau_act * (1.0 + abs(Fval))


def _projected_multiplier(b: DerivativeBundle) -> float:
    gg = float(np.dot(b.gxF, b.gxF))
    return -float(np.dot(b.gxF, b.gxf0)) / gg


def classify_point(b: DerivativeBundle, tol: ToleranceConfig = ToleranceConfig()) -> CaseTag:
    """Classify the reference pair against the domain {F <= 0}.

    Raises InfeasiblePoint when F > 0 beyond tolerance, MfcqViolated when the
    point is on the boundary with a vanishing constraint gradient.
    """
    thr = _activity_threshold(b.Fval, tol)
    if b.Fval > thr:
        raise InfeasiblePoint(f"F = {b.Fval} > 0 at the reference point")
    if b.Fval < -thr:
        return CaseTag(INTERIOR)
    if float(np.linalg.norm(b.gxF)) <= tol.tau_zero:
        raise MfcqViolated("boundary point with grad_x F = 0; the analysis assumes MFCQ")
    lam = _projected_multiplier(b)
    if lam > tol.tau_zero:
        return CaseTag(BOUNDARY, NONDEGENERATE)
    borderline = lam != 0.0 and abs(lam) <= tol.tau_zero
    return CaseTag(BOUNDARY, DEGENERATE, borderline_lambda=borderline)


def lagrange_multiplier(b: DerivativeBundle, tol: ToleranceConfig = ToleranceConfig()) -> MultiplierInfo:
    """Unique multiplier of the boundary stationarity equation.

    lambda = -<grad_x F, grad_x f0> / ||grad_x F||^2; fails with NotStationary
    when the residual exceeds tau_stat * (1 + ||grad_x f0||) or lambda is
    negative beyond tolerance.
    """
    if float(np.linalg.norm(b.gxF)) <= tol.tau_zero:
        raise MfcqViolated("grad_x F = 0: multiplier undefined without MFCQ")
    lam = _projected_multiplier(b)
    residual = float(np.linalg.norm(b.gxf0 + lam * b.gxF))
    gnorm = float(np.linalg.norm(b.gxf0))
    if residual > tol.tau_stat * (1.0 + gnorm):
        raise NotStationary(
            f"stationarity residual {residual:.3e} exceeds tolerance at the boundary point"
        )
    if lam < -tol.tau_zero:
        raise NotStationary(f"multiplier lambda = {lam:.3e} is negative: point is not stationary")
    if abs(lam) <= tol.tau_zero and (lam < 0.0 or lam == 0.0):
        lam = 0.0  # clamp tolerance-level negatives and negative zero
    return MultiplierInfo(lam=lam, residual=residual)


def verify_stationarity(
    b: DerivativeBundle, tag: CaseTag, tol: ToleranceConfig = ToleranceConfig()
) -> bool:
    """First-order check of the reference point; False instead of raising."""
    if tag.is_interior:
        return float(np.linalg.norm(b.gxf0)) <= tol.tau_stat * (1.0 + b.scale())
    if tag.is_boundary:
        try:
            lagrange_multiplier(b, tol)
        except (NotStationary, MfcqViolated):
            return False
        return True
    return False


# ---------------------------------------------------------------------------
# Finite-difference audit
# ---------------------------------------------------------------------------

def finite_difference_audit(
    spec: ex.ProblemSpec, point: EvalPoint, b: DerivativeBundle, h: float = 1e-5
) -> dict:
    """Max absolute deviation of every block of ``b``, the bundle of ``spec`` at
    ``point``, from central differences.

    First-derivative blocks are differenced from raw f0/F values; each
    second-derivative block is differenced from the evaluated first-derivative
    level below it, so every differentiation step is checked against data that
    did not use that step.  Each block's 2k perturbed points are evaluated in
    one batch; raises DomainError when a value there is not finite.
    """
    if not _finite_positive(h):
        raise InputError(f"finite-difference step must be finite and strictly positive, got {h!r}")
    derivs = problem_derivatives(spec)
    z = np.concatenate(point.arrays())
    n = spec.n
    dev = {}
    for blk in BLOCKS:
        rows = getattr(derivs, blk.rows) if blk.second_order else ex.Tape((getattr(spec, blk.rows),))
        block = getattr(b, blk.field).reshape(-1, len(rows))
        axis = np.arange(n) if blk.by == "x" else n + np.arange(spec.d)
        k = axis.size
        # Columns z + h e_j, then z - h e_j: entry j is set, the others copied,
        # so a -0.0 coordinate stays -0.0.
        Z = np.tile(z[:, None], 2 * k)
        Z[axis, np.arange(k)] = z[axis] + h
        Z[axis, k + np.arange(k)] = z[axis] - h
        values = derivs.eval_rows(rows, Z[:n], Z[n:])
        if not np.all(np.isfinite(values)):
            raise DomainError(f"a point perturbed by {h!r} for the {blk.field} audit leaves the domain")
        fd = (values[:, :k] - values[:, k:]) / (2.0 * h)
        dev[blk.field] = float(np.max(np.abs(fd - block.T)))
    dev["worst"] = max(dev.values())
    return dev
