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
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
    """Reference pair (x, w); dimensions must match the problem."""

    x: tuple
    w: tuple

    def __init__(self, x, w):
        object.__setattr__(self, "x", tuple(float(v) for v in x))
        object.__setattr__(self, "w", tuple(float(v) for v in w))

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self.x), np.array(self.w)


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
        blocks = (self.gxf0, self.Hxx, self.Hwx, self.gxF, self.gwF, self.Fxx, self.Fwx)
        if not (np.isfinite(self.Fval) and all(np.all(np.isfinite(b)) for b in blocks)):
            raise DomainError("derivative bundle contains non-finite entries")

    def scale(self) -> float:
        """Magnitude estimate of the second-order data, used for relative tests."""
        return max(
            float(np.max(np.abs(b))) if b.size else 0.0
            for b in (self.Hxx, self.Hwx, self.Fxx, self.Fwx, self.gxF, self.gwF)
        )


class ProblemDerivatives:
    """Symbolic derivatives of a problem, built once and reused.

    Provides exact gradients/Hessians for bundle evaluation and fast
    vectorized evaluation for the sampling oracle.  Each block is a
    ``Tape`` of its entries in row-major order: ``f0xx[i*n + j]`` is
    d^2 f0 / dx_j dx_i and ``f0wx[k*n + i]`` is d^2 f0 / dw_k dx_i.
    """

    def __init__(self, spec: ex.ProblemSpec):
        self.spec = spec
        xs = [ex.Var("x", i + 1) for i in range(spec.n)]
        ws = [ex.Var("w", k + 1) for k in range(spec.d)]
        memos = {v: {} for v in xs + ws}  # one per variable, shared by f0, F and both orders

        def grad(es, vs):
            return ex.Tape(ex.differentiate(e, v, memos[v]) for e in es for v in vs)

        self.F_row = ex.Tape((spec.F,))
        self.f0x = grad([spec.f0], xs)
        self.Fx = grad([spec.F], xs)
        self.Fw = grad([spec.F], ws)
        self.f0xx = grad(self.f0x, xs)
        self.f0wx = ex.Tape(e for v in ws for e in grad(self.f0x, [v]))
        self.Fxx = grad(self.Fx, xs)
        self.Fwx = ex.Tape(e for v in ws for e in grad(self.Fx, [v]))

    # -- scalar evaluation ---------------------------------------------------

    def bundle(self, point: EvalPoint) -> DerivativeBundle:
        x, w = point.x, point.w
        n, d = self.spec.n, self.spec.d
        if len(x) != n or len(w) != d:
            raise DimensionMismatch(
                f"point has dimensions ({len(x)}, {len(w)}), problem expects ({n}, {d})"
            )
        blocks = (self.F_row, self.f0x, self.f0xx, self.f0wx, self.Fx, self.Fw, self.Fxx, self.Fwx)
        values = np.array(ex.evaluate([e for b in blocks for e in b], x, w))
        Fval, gxf0, Hxx, Hwx, gxF, gwF, Fxx, Fwx = np.split(values, np.cumsum([len(b) for b in blocks[:-1]]))
        Hxx, Fxx = Hxx.reshape(n, n), Fxx.reshape(n, n)
        return DerivativeBundle(
            n=n,
            d=d,
            Fval=float(Fval[0]),
            gxf0=gxf0,
            Hxx=(Hxx + Hxx.T) / 2.0,
            Hwx=Hwx.reshape(d, n),
            gxF=gxF,
            gwF=gwF,
            Fxx=(Fxx + Fxx.T) / 2.0,
            Fwx=Fwx.reshape(d, n),
        )

    # -- vectorized evaluation over point batches (oracle fast path) ----------

    @cached_property
    def boundary_system(self) -> ex.Tape:
        """The boundary branch's equations grad_x f0 + lam grad_x F and F,
        in the oracle's order of operations, with lam as x_{n+1}."""
        lam = ex.Var("x", self.spec.n + 1)
        return ex.Tape([*(ex.Add(g, ex.Mul(lam, gF)) for g, gF in zip(self.f0x, self.Fx)), self.spec.F])

    def param_rows(self, w, N: int) -> np.ndarray:
        W = np.empty((self.spec.d, N))
        W[:] = np.asarray(w, dtype=float)[:, None]
        return W

    def eval_rows(self, tape: ex.Tape, X: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Evaluate a tape over the batch; returns (len(tape), N).

        X is (n, N) and W is (d, N): each point carries its own parameter.
        """
        out = np.empty((len(tape), X.shape[1]))
        for i, v in enumerate(ex.eval_array(tape, X, W)):
            out[i] = v
        return out

    def hess_rows(self, tape: ex.Tape, X: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Evaluate a row-major n x n tape over the batch; returns (N, n, n)."""
        n = self.spec.n
        return self.eval_rows(tape, X, W).T.reshape(-1, n, n)


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

def _central(f, base: np.ndarray, i: int, h: float) -> float:
    up = base.copy()
    dn = base.copy()
    up[i] += h
    dn[i] -= h
    return (f(up) - f(dn)) / (2.0 * h)


def finite_difference_audit(spec: ex.ProblemSpec, point: EvalPoint, h: float = 1e-5) -> dict:
    """Max absolute deviation of every bundle block from central differences.

    First-derivative blocks are differenced from raw f0/F values; each
    second-derivative block is differenced from the evaluated first-derivative
    level below it, so every differentiation step is checked against data that
    did not use that step.
    """
    if not _finite_positive(h):
        raise InputError(f"finite-difference step must be finite and strictly positive, got {h!r}")
    derivs = problem_derivatives(spec)
    b = derivs.bundle(point)
    x, w = point.arrays()
    n, d = spec.n, spec.d

    def on_x(e):
        return lambda xv: ex.evaluate(e, xv, w)

    def on_w(e):
        return lambda wv: ex.evaluate(e, x, wv)

    dev = {}
    dev["gxf0"] = max(abs(_central(on_x(spec.f0), x, i, h) - b.gxf0[i]) for i in range(n))
    dev["gxF"] = max(abs(_central(on_x(spec.F), x, i, h) - b.gxF[i]) for i in range(n))
    dev["gwF"] = max(abs(_central(on_w(spec.F), w, k, h) - b.gwF[k]) for k in range(d))
    dev["Hxx"] = max(
        abs(_central(on_x(derivs.f0x[i]), x, j, h) - b.Hxx[j, i])
        for i in range(n)
        for j in range(n)
    )
    dev["Hwx"] = max(
        abs(_central(on_w(derivs.f0x[i]), w, k, h) - b.Hwx[k, i])
        for i in range(n)
        for k in range(d)
    )
    dev["Fxx"] = max(
        abs(_central(on_x(derivs.Fx[i]), x, j, h) - b.Fxx[j, i])
        for i in range(n)
        for j in range(n)
    )
    dev["Fwx"] = max(
        abs(_central(on_w(derivs.Fx[i]), w, k, h) - b.Fwx[k, i])
        for i in range(n)
        for k in range(d)
    )
    dev["worst"] = max(dev.values())
    return dev
