"""Tolerance-controlled subspace computations and exact case-split decisions
for cone-restricted kernel questions.

Everything here works on desk-scale dense matrices.  Rank decisions use
singular values with the relative cutoff tau_rank * sigma_max * max(dims).
Cone decisions are made by exact case analysis on restricted functionals
(never by an LP): at most two sign constraints occur, so the geometry is a
half-space, a wedge, or a slice, and the only degenerate configuration is
negative collinearity of the two restricted functionals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import ToleranceConfig
from .errors import DimensionMismatch, UnsupportedConePattern

__all__ = [
    "SubspaceBasis",
    "ConeConstraint",
    "ConeSpanResult",
    "Feasibility",
    "null_space",
    "stacked_kernel",
    "contained_in_kernel",
    "cone_span",
    "affine_feasibility",
    "STRICT_POSITIVE",
    "NONNEG",
    "STRICT_NEGATIVE",
]

STRICT_POSITIVE = "strict_positive"
NONNEG = "nonneg"
STRICT_NEGATIVE = "strict_negative"


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal column basis of a subspace of R^m (zero columns = {0})."""

    ambient: int
    basis: np.ndarray  # shape (ambient, dim)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def is_trivial(self) -> bool:
        return self.dim == 0


def _canonicalize_columns(B: np.ndarray) -> np.ndarray:
    """Flip column signs so the largest-magnitude entry of each is positive."""
    B = B.copy()
    for j in range(B.shape[1]):
        col = B[:, j]
        lead = int(np.argmax(np.abs(col)))
        if col[lead] < 0.0:
            B[:, j] = -col
    return B


def null_space(A: np.ndarray, tol: ToleranceConfig = ToleranceConfig()) -> SubspaceBasis:
    """Orthonormal basis of ker A with rank decided by singular values.

    Singular values sigma <= tau_rank * sigma_max * max(r, m) count as zero;
    the returned basis B satisfies ||A B||_max at the level of the discarded
    singular values and rank(A) + dim(B) = m.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    r, m = A.shape
    if not np.all(np.isfinite(A)):
        raise ValueError("null_space requires finite entries")
    if r == 0 or m == 0:
        return SubspaceBasis(m, np.eye(m))
    _, sigma, Vh = np.linalg.svd(A, full_matrices=True)
    smax = sigma[0] if sigma.size else 0.0
    if smax == 0.0:
        return SubspaceBasis(m, np.eye(m))
    cutoff = tol.tau_rank * smax * max(r, m)
    rank = int(np.sum(sigma > cutoff))
    B = Vh[rank:].T
    return SubspaceBasis(m, _canonicalize_columns(B))


def stacked_kernel(matrices, tol: ToleranceConfig = ToleranceConfig()) -> SubspaceBasis:
    """Intersection of the kernels, computed as ker of the vertical stack."""
    mats = [np.atleast_2d(np.asarray(M, dtype=float)) for M in matrices]
    if not mats:
        raise DimensionMismatch("stacked_kernel needs at least one matrix")
    m = mats[0].shape[1]
    for M in mats:
        if M.shape[1] != m:
            raise DimensionMismatch(
                f"ambient dimensions differ: {M.shape[1]} vs {m}"
            )
    return null_space(np.vstack(mats), tol)


def contained_in_kernel(
    B: SubspaceBasis, M: np.ndarray, tol: ToleranceConfig = ToleranceConfig()
) -> bool:
    """Whether span(B) is contained in ker M."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[1] != B.ambient:
        raise DimensionMismatch(
            f"matrix has {M.shape[1]} columns, subspace lives in R^{B.ambient}"
        )
    if B.is_trivial:
        return True
    resid = float(np.max(np.abs(M @ B.basis)))
    return resid <= tol.tau_rank * (1.0 + float(np.max(np.abs(M))))


@dataclass(frozen=True)
class ConeConstraint:
    """Sign constraint <c, z> (sense) 0 on vectors z."""

    c: tuple
    sense: str

    def __init__(self, c, sense: str):
        if sense not in (STRICT_POSITIVE, NONNEG, STRICT_NEGATIVE):
            raise UnsupportedConePattern(f"unknown sense {sense!r}")
        object.__setattr__(self, "c", tuple(float(v) for v in c))
        object.__setattr__(self, "sense", sense)

    def vector(self) -> np.ndarray:
        return np.array(self.c)


@dataclass(frozen=True)
class ConeSpanResult:
    """Span of {z in K : constraints}: Empty, or a subspace it spans."""

    empty: bool
    span: SubspaceBasis | None = None
    warnings: tuple = ()

    @property
    def spans(self) -> SubspaceBasis:
        if self.empty:
            raise ValueError("empty cone section has no span")
        return self.span


def _restricted(K: SubspaceBasis, c: np.ndarray) -> np.ndarray:
    return K.basis.T @ c


def _is_zero_functional(cK: np.ndarray, c: np.ndarray, tol: ToleranceConfig) -> bool:
    return float(np.linalg.norm(cK)) <= tol.tau_col * (1.0 + float(np.linalg.norm(c)))


def _collinearity(cK: np.ndarray, eK: np.ndarray) -> float:
    return float(np.dot(cK, eK) / (np.linalg.norm(cK) * np.linalg.norm(eK)))


def cone_span(
    K: SubspaceBasis, constraints, tol: ToleranceConfig = ToleranceConfig()
) -> ConeSpanResult:
    """Span of the cone section {z in K : sign constraints hold}.

    Supported patterns (the only ones that occur):
      * one strict constraint              (open half-space section)
      * strict-positive paired with nonneg (wedge section)
      * nonneg paired with nonneg          (closed wedge; 0 always belongs)

    A relatively open nonempty subset of a subspace spans it, so the result
    is Empty, all of K, or (closed wedge with negatively collinear
    functionals) the slice K intersect ker(e).
    """
    constraints = list(constraints)
    senses = [c.sense for c in constraints]
    warnings: list[str] = []

    if senses in ([STRICT_NEGATIVE], [STRICT_POSITIVE]):
        c = constraints[0].vector()
        _check_ambient(K, c)
        cK = _restricted(K, c)
        if _is_zero_functional(cK, c, tol):
            return ConeSpanResult(empty=True)
        return ConeSpanResult(empty=False, span=K)

    if sorted(senses) == sorted([STRICT_POSITIVE, NONNEG]):
        strict = constraints[senses.index(STRICT_POSITIVE)]
        soft = constraints[senses.index(NONNEG)]
        c, e = strict.vector(), soft.vector()
        _check_ambient(K, c)
        _check_ambient(K, e)
        cK, eK = _restricted(K, c), _restricted(K, e)
        if _is_zero_functional(cK, c, tol):
            return ConeSpanResult(empty=True)
        if _is_zero_functional(eK, e, tol):
            return ConeSpanResult(empty=False, span=K)
        cos = _collinearity(cK, eK)
        warnings.extend(_collinearity_warning(cos, tol))
        if abs(cos) >= 1.0 - tol.tau_col and cos < 0.0:
            return ConeSpanResult(empty=True, warnings=tuple(warnings))
        return ConeSpanResult(empty=False, span=K, warnings=tuple(warnings))

    if senses == [NONNEG, NONNEG]:
        c, e = constraints[0].vector(), constraints[1].vector()
        _check_ambient(K, c)
        _check_ambient(K, e)
        cK, eK = _restricted(K, c), _restricted(K, e)
        c_zero = _is_zero_functional(cK, c, tol)
        e_zero = _is_zero_functional(eK, e, tol)
        if not (c_zero or e_zero):
            cos = _collinearity(cK, eK)
            warnings.extend(_collinearity_warning(cos, tol))
            if abs(cos) >= 1.0 - tol.tau_col and cos < 0.0:
                # Section collapses to the slice {z in K : <e, z> = 0}.
                coeff = null_space(eK[None, :], tol)
                slice_basis = SubspaceBasis(
                    K.ambient, _canonicalize_columns(K.basis @ coeff.basis)
                )
                return ConeSpanResult(empty=False, span=slice_basis, warnings=tuple(warnings))
        return ConeSpanResult(empty=False, span=K, warnings=tuple(warnings))

    raise UnsupportedConePattern(f"unsupported constraint pattern {senses!r}")


def _check_ambient(K: SubspaceBasis, c: np.ndarray):
    if c.shape[0] != K.ambient:
        raise DimensionMismatch(
            f"functional has dimension {c.shape[0]}, subspace lives in R^{K.ambient}"
        )


def _collinearity_warning(cos: float, tol: ToleranceConfig) -> list[str]:
    gap = 1.0 - abs(cos)
    if tol.tau_col < gap <= 10.0 * tol.tau_col:
        return [
            f"restricted cone functionals are nearly collinear (1-|cos| = {gap:.3e}); "
            "the span decision is tolerance-sensitive"
        ]
    return []


# ---------------------------------------------------------------------------
# Affine feasibility with up to two sign constraints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Feasibility:
    """Outcome of an affine feasibility question; witness satisfies M z = b
    and every declared sign constraint when feasible."""

    feasible: bool
    witness: np.ndarray | None = None


class _Interval:
    """Real interval with open/closed endpoints, for the collinear reduction."""

    __slots__ = ("lo", "hi", "lo_open", "hi_open")

    def __init__(self, lo, hi, lo_open, hi_open):
        self.lo, self.hi = lo, hi
        self.lo_open, self.hi_open = lo_open, hi_open

    @classmethod
    def for_sense(cls, sense: str) -> "_Interval":
        if sense == STRICT_POSITIVE:
            return cls(0.0, math.inf, True, True)
        if sense == NONNEG:
            return cls(0.0, math.inf, False, True)
        return cls(-math.inf, 0.0, True, True)

    def shift_scale(self, alpha: float, mu: float) -> "_Interval":
        """Preimage of self under s -> alpha + mu * s (mu != 0)."""
        lo, hi = (self.lo - alpha), (self.hi - alpha)
        lo_open, hi_open = self.lo_open, self.hi_open
        if mu < 0.0:
            lo, hi = hi / mu, lo / mu
            lo_open, hi_open = hi_open, lo_open
        else:
            lo, hi = lo / mu, hi / mu
        return _Interval(lo, hi, lo_open, hi_open)

    def intersect(self, other: "_Interval") -> "_Interval | None":
        if self.lo > other.lo or (self.lo == other.lo and self.lo_open):
            lo, lo_open = self.lo, self.lo_open
        else:
            lo, lo_open = other.lo, other.lo_open
        if self.hi < other.hi or (self.hi == other.hi and self.hi_open):
            hi, hi_open = self.hi, self.hi_open
        else:
            hi, hi_open = other.hi, other.hi_open
        if lo > hi:
            return None
        if lo == hi and (lo_open or hi_open):
            return None
        return _Interval(lo, hi, lo_open, hi_open)

    def pick(self) -> float:
        if self.lo == self.hi:
            return self.lo
        if math.isinf(self.lo) and math.isinf(self.hi):
            return 0.0
        if math.isinf(self.lo):
            return self.hi - 1.0
        if math.isinf(self.hi):
            return self.lo + 1.0
        return 0.5 * (self.lo + self.hi)


def _sense_holds(value: float, sense: str, slack: float) -> bool:
    if sense == STRICT_POSITIVE:
        return value > 0.0
    if sense == NONNEG:
        return value >= -slack
    return value < 0.0


def affine_feasibility(
    M: np.ndarray,
    b: np.ndarray,
    constraints=(),
    tol: ToleranceConfig = ToleranceConfig(),
) -> Feasibility:
    """Decide existence of z with M z = b under at most two sign constraints.

    Solves least squares for a particular solution, reduces each constraint
    to an affine functional alpha + <beta, t> on null-space coordinates, and
    decides by the exhaustive case split on beta-degeneracy, independence,
    and (anti)collinearity.  The witness, when returned, satisfies the
    equalities within tau_stat and every sign constraint as declared.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    if M.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"M has {M.shape[0]} rows but b has {b.shape[0]} entries")
    constraints = list(constraints)
    if len(constraints) > 2:
        raise UnsupportedConePattern("at most two sign constraints are supported")
    for c in constraints:
        if len(c.c) != M.shape[1]:
            raise DimensionMismatch("constraint dimension does not match unknowns")

    z0, *_ = np.linalg.lstsq(M, b, rcond=None)
    scale = 1.0 + float(np.linalg.norm(b))
    if float(np.linalg.norm(M @ z0 - b)) > tol.tau_stat * scale:
        return Feasibility(False)

    N = null_space(M, tol)
    alphas = [float(np.dot(c.vector(), z0)) for c in constraints]
    betas = [N.basis.T @ c.vector() for c in constraints]
    zero = [
        _is_zero_functional(betas[i], constraints[i].vector(), tol)
        for i in range(len(constraints))
    ]
    slack = tol.tau_stat * scale

    t = np.zeros(N.dim)
    free = [i for i in range(len(constraints)) if not zero[i]]

    # Constraints whose functional vanishes on the null space are fixed at alpha.
    for i in range(len(constraints)):
        if zero[i] and not _sense_holds(alphas[i], constraints[i].sense, slack):
            return Feasibility(False)

    if len(free) == 1:
        i = free[0]
        target = 1.0 if constraints[i].sense in (STRICT_POSITIVE, NONNEG) else -1.0
        beta = betas[i]
        t = beta * (target - alphas[i]) / float(np.dot(beta, beta))
    elif len(free) == 2:
        i, j = free
        bi, bj = betas[i], betas[j]
        cos = _collinearity(bi, bj)
        if abs(cos) < 1.0 - tol.tau_col:
            targets = np.array(
                [
                    1.0 if constraints[k].sense in (STRICT_POSITIVE, NONNEG) else -1.0
                    for k in (i, j)
                ]
            )
            Bmat = np.vstack([bi, bj])
            t, *_ = np.linalg.lstsq(Bmat, targets - np.array([alphas[i], alphas[j]]), rcond=None)
        else:
            mu = float(np.dot(bi, bj)) / float(np.dot(bi, bi))  # bj ~= mu * bi
            Ii = _Interval.for_sense(constraints[i].sense).shift_scale(alphas[i], 1.0)
            Ij = _Interval.for_sense(constraints[j].sense).shift_scale(alphas[j], mu)
            section = Ii.intersect(Ij)
            if section is None:
                return Feasibility(False)
            s = section.pick()
            t = bi * s / float(np.dot(bi, bi))

    witness = z0 + N.basis @ t
    ok = float(np.linalg.norm(M @ witness - b)) <= tol.tau_stat * scale and all(
        _sense_holds(float(np.dot(c.vector(), witness)), c.sense, slack) for c in constraints
    )
    if not ok:
        return Feasibility(False)
    return Feasibility(True, witness)
