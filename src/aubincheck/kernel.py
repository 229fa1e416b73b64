"""Tolerance-controlled subspace computations and the exact case split of
a cone section.

Everything here works on desk-scale dense matrices.  Rank decisions use
singular values with the relative cutoff tau_rank * sigma_max * max(dims).
One routine, ``cone_section``, decides the section {z : M z = b} under at
most two sign constraints, by exact case analysis on the constraints'
functionals restricted to ker M (never by an LP).  With b = 0 it gives the
span of a cone section (the condition tests); with b != 0 a point of an
affine section (membership).  Past the functionals that vanish on ker M,
the free constraints are an independent pair or half-lines of one value
s = <beta, t>, which can pin s to a single value and leave a slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import ToleranceConfig
from .errors import DimensionMismatch, UnsupportedConePattern

__all__ = [
    "SubspaceBasis",
    "ConeConstraint",
    "Section",
    "null_space",
    "contained_in_kernel",
    "cone_section",
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


def _is_zero_functional(cK: np.ndarray, c: np.ndarray, tol: ToleranceConfig) -> bool:
    return float(np.linalg.norm(cK)) <= tol.tau_col * (1.0 + float(np.linalg.norm(c)))


def _collinearity(cK: np.ndarray, eK: np.ndarray) -> float:
    return float(np.dot(cK, eK) / (np.linalg.norm(cK) * np.linalg.norm(eK)))


def _collinearity_warning(cos: float, tol: ToleranceConfig) -> tuple:
    gap = 1.0 - abs(cos)
    if tol.tau_col < gap <= 10.0 * tol.tau_col:
        return (
            f"restricted cone functionals are nearly collinear (1-|cos| = {gap:.3e}); "
            "the span decision is tolerance-sensitive",
        )
    return ()


# ---------------------------------------------------------------------------
# Sections {z : M z = b} under up to two sign constraints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Section:
    """The section {z : M z = b, sign constraints}, Empty when ``point`` is None.

    ``source`` is ker M, left None when M z = b has no solution (never when
    b = 0), so that membership's inconsistent systems skip the SVD.
    ``point`` satisfies every sign constraint as declared, and M z = b within
    tau_stat when b != 0 (when b = 0 it lies in the computed ker M).
    ``span`` is the subspace of the section's directions: ker M, or the
    slice of it on which a collinear pair of constraints pins their
    functional to one value.  With b = 0 the section is a cone and ``span``
    is the subspace it spans.
    """

    source: SubspaceBasis | None
    point: np.ndarray | None = None
    span: SubspaceBasis | None = None
    warnings: tuple = ()

    @property
    def empty(self) -> bool:
        return self.point is None


def _sense_holds(value: float, sense: str, slack: float) -> bool:
    if sense == STRICT_POSITIVE:
        return value > 0.0
    if sense == NONNEG:
        return value >= -slack
    return value < 0.0


def _target(sense: str) -> float:
    """A value of the constraint's functional that meets its sense."""
    return -1.0 if sense == STRICT_NEGATIVE else 1.0


def cone_section(
    M: np.ndarray,
    b,
    constraints=(),
    tol: ToleranceConfig = ToleranceConfig(),
) -> Section:
    """The section {z : M z = b} under at most two sign constraints.

    Solves least squares for a particular solution z0 (z0 = 0 when b = 0,
    which asks for the span of the cone section of ker M) and reduces each
    constraint to an affine functional alpha + <beta, t> on null-space
    coordinates t.  Constraints whose beta vanishes are checked at alpha.
    The free ones are an independent pair, solved by least squares onto the
    targets +-1, or constraints on s = <beta, t> for the first free beta:
    one constraint, or a collinear pair with beta_j ~= mu * beta.  Each of
    these holds on a half-line of s with bound (0 - alpha) / mu (mu = 1 for
    the first), lower iff (sense != STRICT_NEGATIVE) == (mu > 0), closed iff
    NONNEG.  Half-lines that all face one way give s = max(lo) + 1 or
    s = min(hi) - 1.  Otherwise lo > hi, or lo == hi with an open end, is
    Empty; lo == hi gives s = lo and the slice N ∩ ker beta_j as span; else
    s = (lo + hi) / 2.  Then t = beta s / <beta, beta>.  With b = 0 the
    step lies in ker M by construction and is not re-checked against M z = 0.
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

    homogeneous = not b.any()
    if homogeneous:
        z0 = np.zeros(M.shape[1])
        scale = 1.0
    else:
        z0, *_ = np.linalg.lstsq(M, b, rcond=None)
        scale = 1.0 + float(np.linalg.norm(b))
        if float(np.linalg.norm(M @ z0 - b)) > tol.tau_stat * scale:
            return Section(None)

    N = null_space(M, tol)

    cs = [c.vector() for c in constraints]
    alphas = [float(np.dot(c, z0)) for c in cs]
    betas = [N.basis.T @ c for c in cs]
    zero = [_is_zero_functional(betas[i], cs[i], tol) for i in range(len(cs))]
    slack = tol.tau_stat * scale

    t = np.zeros(N.dim)
    span = N
    warnings = ()
    free = [i for i in range(len(constraints)) if not zero[i]]

    # Constraints whose functional vanishes on the null space are fixed at alpha.
    for i in range(len(constraints)):
        if zero[i] and not _sense_holds(alphas[i], constraints[i].sense, slack):
            return Section(N)

    if len(free) == 2:
        i, j = free
        cos = _collinearity(betas[i], betas[j])
        warnings = _collinearity_warning(cos, tol)
    if len(free) == 2 and abs(cos) < 1.0 - tol.tau_col:
        targets = np.array([_target(constraints[k].sense) for k in (i, j)])
        Bmat = np.vstack([betas[i], betas[j]])
        t, *_ = np.linalg.lstsq(Bmat, targets - np.array([alphas[i], alphas[j]]), rcond=None)
    elif free:
        beta = betas[free[0]]
        bb = float(np.dot(beta, beta))
        lower, upper = [], []  # (bound, closed)
        for k in free:
            mu = 1.0 if k == free[0] else float(np.dot(beta, betas[k])) / bb
            sense = constraints[k].sense
            side = lower if (sense != STRICT_NEGATIVE) == (mu > 0.0) else upper
            side.append(((0.0 - alphas[k]) / mu, sense == NONNEG))
        if not upper:
            s = max(lower)[0] + 1.0
        elif not lower:
            s = min(upper)[0] - 1.0
        else:
            (lo, lo_closed), (hi, hi_closed) = lower[0], upper[0]
            if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
                return Section(N, warnings=warnings)
            if lo == hi:
                # The pair pins s: the section lies in the slice N ∩ ker betas[j].
                coeff = null_space(betas[j][None, :], tol)
                span = SubspaceBasis(N.ambient, _canonicalize_columns(N.basis @ coeff.basis))
                s = lo
            else:
                s = 0.5 * (lo + hi)
        t = beta * s / bb

    witness = z0 + N.basis @ t
    ok = (homogeneous or float(np.linalg.norm(M @ witness - b)) <= tol.tau_stat * scale) and all(
        _sense_holds(float(np.dot(c, witness)), con.sense, slack)
        for c, con in zip(cs, constraints)
    )
    if not ok:
        return Section(N, warnings=warnings)
    return Section(N, witness, span, warnings)
