"""Condition matrices, named condition checks, the three-valued verdict,
and coderivative membership queries.

Condition identifiers follow a fixed catalogue:

  interior case      C3_2, C3_4, C3_5
  nondegenerate case C4_4, C4_6, C4_8
  degenerate case    C4_10, C4_11a, C4_11b, C4_12, C4_13, C4_14

with the structural implications C3_5 <=> C3_2 and C3_4,
C4_8 => C4_4 and C4_6, C4_13 => C4_14.

Membership reads one table per case (``gamma_systems``): the inner
estimate's branches, the outer estimate's branches, and the regularity
condition under which the outer estimate is valid:

  case           inner       outer                                 regularity
  interior       Gamma1      -                                     C3_2
  nondegenerate  Gamma2      -                                     C4_4
  degenerate     Gamma1_hat  Gamma3_tangential, Gamma3_ascent,     C4_10
                             Gamma3_descent

In the first two cases the single branch is exact, so it is the inner one
and the outer estimate adds nothing.  The regularity condition is read from
the verdict's report, not recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calculus import (
    BOUNDARY,
    DEGENERATE,
    NONDEGENERATE,
    _projected_multiplier as _projected,
    CaseTag,
    DerivativeBundle,
    EvalPoint,
    MultiplierInfo,
    ToleranceConfig,
    classify_point,
    derivative_bundle,
    lagrange_multiplier,
    verify_stationarity,
)
from .errors import DimensionMismatch, NotStationary
from .expr import ProblemSpec
from .kernel import (
    NONNEG,
    STRICT_NEGATIVE,
    STRICT_POSITIVE,
    ConeConstraint,
    SubspaceBasis,
    affine_feasibility,
    cone_span,
    contained_in_kernel,
    null_space,
    stacked_kernel,
)

__all__ = [
    "ConditionMatrices",
    "ConditionReport",
    "Verdict",
    "GammaBranch",
    "GammaSetDescription",
    "MembershipResult",
    "assemble_matrices",
    "check_interior",
    "check_nondegenerate",
    "check_degenerate",
    "verdict",
    "gamma_systems",
    "coderivative_membership",
    "CONDITION_ORDER",
]

YES = "Yes"
NO = "No"
UNKNOWN = "Unknown"

MODE_STRICT = "strict"
MODE_EXTENDED = "extended"

CONDITION_ORDER = (
    "C3_2",
    "C3_4",
    "C3_5",
    "C4_4",
    "C4_6",
    "C4_8",
    "C4_10",
    "C4_11a",
    "C4_11b",
    "C4_12",
    "C4_13",
    "C4_14",
)


@dataclass(frozen=True)
class ConditionMatrices:
    """The boundary-case block matrices.

    Nondegenerate: A1 = [Hxx + lam*Fxx | gxF], A2 = [Hwx + lam*Fwx | gwF].
    Degenerate:    A1 = [Hxx | gxF],           A2 = [Hwx | gwF]   (lam unused).
    Gradients enter as column blocks, so A1 is n x (n+1), A2 is d x (n+1).
    """

    degenerate: bool
    lam: float
    A1: np.ndarray
    A2: np.ndarray


@dataclass(frozen=True)
class ConditionReport:
    id: str
    holds: bool
    evidence: dict
    warnings: tuple = ()


@dataclass(frozen=True)
class Verdict:
    case: CaseTag
    multiplier: MultiplierInfo | None
    conditions: tuple
    lipschitz_like: str
    theorem_applied: str | None
    mode: str
    bundle: DerivativeBundle = field(compare=False)  # == compares the decision only
    warnings: tuple = ()

    def condition(self, cid: str) -> ConditionReport:
        for rep in self.conditions:
            if rep.id == cid:
                return rep
        raise KeyError(cid)


def assemble_matrices(b: DerivativeBundle, tag: CaseTag, lam: float) -> ConditionMatrices:
    """Build the boundary condition matrices for the case selected by ``tag``."""
    gxF = b.gxF.reshape(-1, 1)
    gwF = b.gwF.reshape(-1, 1)
    if tag.subtag == DEGENERATE:
        A1 = np.hstack([b.Hxx, gxF])
        A2 = np.hstack([b.Hwx, gwF])
        return ConditionMatrices(True, 0.0, A1, A2)
    A1 = np.hstack([b.Hxx + lam * b.Fxx, gxF])
    A2 = np.hstack([b.Hwx + lam * b.Fwx, gwF])
    return ConditionMatrices(False, lam, A1, A2)


def _gxF_row(gxF: np.ndarray) -> np.ndarray:
    """Row [gxF^T | 0] whose kernel is ker(gxF^T) x R in the (v, gamma) space."""
    return np.concatenate([gxF, [0.0]])[None, :]


def check_interior(b: DerivativeBundle, tol: ToleranceConfig = ToleranceConfig()) -> list:
    """Interior-case conditions on the kernels of Hxx and Hwx."""
    ker_joint = stacked_kernel([b.Hxx, b.Hwx], tol)
    ker_Hxx = null_space(b.Hxx, tol)
    c3_2 = ker_joint.is_trivial
    c3_4 = contained_in_kernel(ker_Hxx, b.Hwx, tol)
    c3_5 = ker_Hxx.is_trivial
    return [
        ConditionReport("C3_2", c3_2, {"kernel_dim": ker_joint.dim}),
        ConditionReport("C3_4", c3_4, {"ker_Hxx_dim": ker_Hxx.dim}),
        ConditionReport(
            "C3_5",
            c3_5,
            {"ker_Hxx_dim": ker_Hxx.dim, "extended_map_lipschitz_like": c3_5},
        ),
    ]


def check_nondegenerate(
    m: ConditionMatrices, gxF: np.ndarray, tol: ToleranceConfig = ToleranceConfig()
) -> list:
    """Nondegenerate boundary conditions on A1, A2 restricted to ker(gxF^T) x R."""
    row = _gxF_row(gxF)
    ker_444 = stacked_kernel([m.A1, m.A2, row], tol)
    ker_restricted = stacked_kernel([m.A1, row], tol)
    c4_4 = ker_444.is_trivial
    c4_6 = contained_in_kernel(ker_restricted, m.A2, tol)
    c4_8 = ker_restricted.is_trivial
    return [
        ConditionReport("C4_4", c4_4, {"kernel_dim": ker_444.dim}),
        ConditionReport("C4_6", c4_6, {"restricted_kernel_dim": ker_restricted.dim}),
        ConditionReport("C4_8", c4_8, {"restricted_kernel_dim": ker_restricted.dim}),
    ]


def _cone_condition(
    cid: str,
    K: SubspaceBasis,
    constraints,
    target: np.ndarray,
    tol: ToleranceConfig,
) -> ConditionReport:
    """holds <=> the cone section of K is empty or its span lies in ker(target)."""
    result = cone_span(K, constraints, tol)
    if result.empty:
        return ConditionReport(
            cid, True, {"cone_section": "empty", "source_dim": K.dim}, result.warnings
        )
    contained = contained_in_kernel(result.spans, target, tol)
    return ConditionReport(
        cid,
        contained,
        {"cone_section": "spans", "span_dim": result.spans.dim, "source_dim": K.dim},
        result.warnings,
    )


def check_degenerate(
    m: ConditionMatrices,
    Hxx: np.ndarray,
    Hwx: np.ndarray,
    gxF: np.ndarray,
    tol: ToleranceConfig = ToleranceConfig(),
) -> list:
    """Degenerate boundary conditions, including the cone-restricted ones."""
    n = gxF.shape[0]
    row = _gxF_row(gxF)
    lifted_gxF = np.concatenate([gxF, [0.0]])
    gamma_coord = np.zeros(n + 1)
    gamma_coord[n] = 1.0

    ker_joint = stacked_kernel([m.A1, m.A2], tol)
    ker_restricted = stacked_kernel([m.A1, row], tol)
    c4_10 = ConditionReport("C4_10", ker_joint.is_trivial, {"kernel_dim": ker_joint.dim})
    c4_11a = ConditionReport(
        "C4_11a",
        contained_in_kernel(ker_restricted, m.A2, tol),
        {"restricted_kernel_dim": ker_restricted.dim},
    )

    ker_A1 = null_space(m.A1, tol)
    delta1 = (
        ConeConstraint(lifted_gxF, STRICT_POSITIVE),
        ConeConstraint(gamma_coord, NONNEG),
    )
    c4_11b = _cone_condition("C4_11b", ker_A1, delta1, m.A2, tol)

    ker_Hxx = null_space(Hxx, tol)
    delta2 = (ConeConstraint(gxF, STRICT_NEGATIVE),)
    c4_12 = _cone_condition("C4_12", ker_Hxx, delta2, Hwx, tol)

    c4_13_holds = c4_10.holds and c4_11a.holds and c4_11b.holds and c4_12.holds
    c4_13 = ConditionReport(
        "C4_13",
        c4_13_holds,
        {"conjunction_of": ["C4_10", "C4_11a", "C4_11b", "C4_12"]},
    )

    delta3 = (
        ConeConstraint(lifted_gxF, NONNEG),
        ConeConstraint(gamma_coord, NONNEG),
    )
    c4_14 = _cone_condition("C4_14", ker_A1, delta3, m.A2, tol)

    return [c4_10, c4_11a, c4_11b, c4_12, c4_13, c4_14]


# ---------------------------------------------------------------------------
# Verdict synthesis
# ---------------------------------------------------------------------------

def _holds(reports, cid: str) -> bool:
    return next(r.holds for r in reports if r.id == cid)


def _interior_verdict(reports) -> tuple[str, str | None]:
    c2, c4 = _holds(reports, "C3_2"), _holds(reports, "C3_4")
    if c2 and c4:
        return YES, "Thm3.1(b,c)"
    if c2 and not c4:
        return NO, "Thm3.1(c)"
    if not c2 and not c4:
        return NO, "Thm3.1(a)"
    return UNKNOWN, None


def _nondegenerate_verdict(reports, mode: str) -> tuple[str, str | None]:
    c4, c6 = _holds(reports, "C4_4"), _holds(reports, "C4_6")
    if c4 and c6:
        return YES, "Thm4.1"
    if not c6:
        # The inner coderivative estimate already contains the C4_6 system, so
        # its failure refutes the property without assuming C4_4; strict mode
        # confines refutation to the literal theorem statement.
        if mode == MODE_EXTENDED:
            return NO, "LowerEstimateNecessity"
        return UNKNOWN, None
    return UNKNOWN, None


def _degenerate_verdict(reports) -> tuple[str, str | None]:
    if not _holds(reports, "C4_14"):
        return NO, "Thm4.3(a)"
    if _holds(reports, "C4_13"):
        return YES, "Thm4.3(b)"
    return UNKNOWN, None


def verdict(
    spec: ProblemSpec,
    point: EvalPoint,
    tol: ToleranceConfig = ToleranceConfig(),
    mode: str = MODE_EXTENDED,
) -> Verdict:
    """Run the full decision pipeline at the reference pair.

    Yes is returned only when a sufficient condition holds, No only when a
    necessary condition fails; anything else is Unknown.  Raises
    InfeasiblePoint / MfcqViolated / NotStationary when the standing
    assumptions fail at the point.
    """
    if mode not in (MODE_STRICT, MODE_EXTENDED):
        raise ValueError(f"mode must be 'strict' or 'extended', got {mode!r}")
    b = derivative_bundle(spec, point)
    tag = classify_point(b, tol)
    warnings: list[str] = []

    if tag.is_interior:
        if not verify_stationarity(b, tag, tol):
            raise NotStationary(
                f"interior point is not stationary: ||grad_x f0|| = {np.linalg.norm(b.gxf0):.3e}"
            )
        reports = check_interior(b, tol)
        answer, theorem = _interior_verdict(reports)
        return Verdict(tag, None, tuple(reports), answer, theorem, mode, b, tuple(warnings))

    minfo = lagrange_multiplier(b, tol)
    if tag.borderline_lambda:
        warnings.append(
            f"multiplier lambda = {_projected(b):.3e} lies within the zero tolerance; "
            "classified degenerate and both boundary branches evaluated"
        )

    if tag.subtag == NONDEGENERATE:
        mats = assemble_matrices(b, tag, minfo.lam)
        reports = check_nondegenerate(mats, b.gxF, tol)
        answer, theorem = _nondegenerate_verdict(reports, mode)
        return Verdict(tag, minfo, tuple(reports), answer, theorem, mode, b, tuple(warnings))

    deg_mats = assemble_matrices(b, tag, 0.0)
    deg_reports = check_degenerate(deg_mats, b.Hxx, b.Hwx, b.gxF, tol)
    deg_answer, deg_theorem = _degenerate_verdict(deg_reports)

    if not tag.borderline_lambda:
        return Verdict(
            tag, minfo, tuple(deg_reports), deg_answer, deg_theorem, mode, b, tuple(warnings)
        )

    # Borderline multiplier: evaluate the nondegenerate branch as well and
    # take the meet of the two verdicts (No dominates, Yes requires both).
    nd_tag = CaseTag(BOUNDARY, NONDEGENERATE)
    nd_mats = assemble_matrices(b, nd_tag, minfo.lam)
    nd_reports = check_nondegenerate(nd_mats, b.gxF, tol)
    nd_answer, nd_theorem = _nondegenerate_verdict(nd_reports, mode)
    reports = tuple(deg_reports) + tuple(nd_reports)
    if NO in (deg_answer, nd_answer):
        answer = NO
        theorem = deg_theorem if deg_answer == NO else nd_theorem
    elif deg_answer == YES and nd_answer == YES:
        answer = YES
        theorem = f"{nd_theorem}+{deg_theorem}"
    else:
        answer, theorem = UNKNOWN, None
    return Verdict(tag, minfo, reports, answer, theorem, mode, b, tuple(warnings))


# ---------------------------------------------------------------------------
# Coderivative set descriptions and membership
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaBranch:
    """One affine-conic branch system: M z = rhs(x', w') with sign constraints.

    ``rhs_layout`` labels the stacked rows: "x" rows receive -x', "zero" rows
    receive 0, "w" rows receive w'.  Unknowns are (v, gamma) when
    ``has_gamma`` else v alone.
    """

    name: str
    M: np.ndarray
    rhs_layout: tuple
    constraints: tuple
    has_gamma: bool

    def rhs(self, xprime: np.ndarray, wprime: np.ndarray) -> np.ndarray:
        parts = []
        for label, count in self.rhs_layout:
            if label == "x":
                parts.append(-np.asarray(xprime, dtype=float))
            elif label == "zero":
                parts.append(np.zeros(count))
            else:
                parts.append(np.asarray(wprime, dtype=float))
        return np.concatenate(parts)


@dataclass(frozen=True)
class GammaSetDescription:
    """One case's table: inner branches, outer branches, regularity condition."""

    case: str
    inner: tuple
    outer: tuple
    regularity: str


def gamma_systems(b: DerivativeBundle, tag: CaseTag, lam: float) -> GammaSetDescription:
    """Branch systems of the coderivative set description for the given case."""
    n, d = b.n, b.d
    if tag.is_interior:
        M = np.vstack([b.Hxx, b.Hwx])
        branch = GammaBranch("Gamma1", M, (("x", n), ("w", d)), (), has_gamma=False)
        return GammaSetDescription("interior", (branch,), (), "C3_2")

    gxF_lift = np.concatenate([b.gxF, [0.0]])
    gamma_coord = np.zeros(n + 1)
    gamma_coord[n] = 1.0

    if tag.subtag == NONDEGENERATE:
        mats = assemble_matrices(b, tag, lam)
        M = np.vstack([mats.A1, _gxF_row(b.gxF), mats.A2])
        branch = GammaBranch(
            "Gamma2", M, (("x", n), ("zero", 1), ("w", d)), (), has_gamma=True
        )
        return GammaSetDescription("nondegenerate", (branch,), (), "C4_4")

    mats = assemble_matrices(b, tag, 0.0)
    pair = np.vstack([mats.A1, mats.A2])
    inner = GammaBranch(
        "Gamma1_hat",
        pair,
        (("x", n), ("w", d)),
        (ConeConstraint(gxF_lift, NONNEG), ConeConstraint(gamma_coord, NONNEG)),
        has_gamma=True,
    )
    outer_eq = GammaBranch(
        "Gamma3_tangential",
        np.vstack([mats.A1, _gxF_row(b.gxF), mats.A2]),
        (("x", n), ("zero", 1), ("w", d)),
        (),
        has_gamma=True,
    )
    outer_wedge = GammaBranch(
        "Gamma3_ascent",
        pair,
        (("x", n), ("w", d)),
        (ConeConstraint(gxF_lift, STRICT_POSITIVE), ConeConstraint(gamma_coord, NONNEG)),
        has_gamma=True,
    )
    outer_descent = GammaBranch(
        "Gamma3_descent",
        np.vstack([b.Hxx, b.Hwx]),
        (("x", n), ("w", d)),
        (ConeConstraint(b.gxF, STRICT_NEGATIVE),),
        has_gamma=False,
    )
    return GammaSetDescription(
        "degenerate", (inner,), (outer_eq, outer_wedge, outer_descent), "C4_10"
    )


@dataclass(frozen=True)
class MembershipResult:
    answer: str  # "In" | "Out" | "Unknown"
    witness_v: tuple | None = None
    witness_gamma: float | None = None
    branch: str | None = None
    notes: tuple = ()


def _witness_from(z: np.ndarray, branch: GammaBranch, n: int) -> tuple:
    if branch.has_gamma:
        return tuple(float(t) for t in z[:n]), float(z[n])
    return tuple(float(t) for t in z), None


def coderivative_membership(
    v: Verdict, xprime, wprime, tol: ToleranceConfig = ToleranceConfig()
) -> MembershipResult:
    """Decide whether w' belongs to the coderivative value at x'.

    In is certified by the unconditional inner estimate of the case; Out
    requires the case's regularity condition (C3_2 interior, C4_4
    nondegenerate, C4_10 degenerate), read from the verdict, so the outer
    estimate is valid.  When that condition fails and the inner test does not
    certify In, the answer is downgraded to Unknown.  ``tol`` drives the
    feasibility tests; the regularity condition was decided by ``verdict``
    under its own tolerances.
    """
    b = v.bundle
    xprime = np.asarray(xprime, dtype=float).ravel()
    wprime = np.asarray(wprime, dtype=float).ravel()
    if xprime.shape[0] != b.n or wprime.shape[0] != b.d:
        raise DimensionMismatch(
            f"query has dimensions ({xprime.shape[0]}, {wprime.shape[0]}), "
            f"problem expects ({b.n}, {b.d})"
        )
    lam = v.multiplier.lam if v.multiplier is not None else 0.0
    desc = gamma_systems(b, v.case, lam)

    def solve(branch):
        return affine_feasibility(branch.M, branch.rhs(xprime, wprime), branch.constraints, tol)

    for branch in desc.inner:
        feas = solve(branch)
        if feas.feasible:
            witness_v, gamma = _witness_from(feas.witness, branch, b.n)
            return MembershipResult("In", witness_v, gamma, branch.name)
    if not v.condition(desc.regularity).holds:
        note = f"exactness unavailable: {desc.regularity} fails, outer estimate not certified"
        return MembershipResult("Unknown", notes=(note,))
    for branch in desc.outer:
        if solve(branch).feasible:
            note = (
                f"inside the outer estimate (branch {branch.name}) but not certified "
                "by the inner one"
            )
            return MembershipResult("Unknown", notes=(note,))
    return MembershipResult("Out")
