"""The case tables of branch systems, the named conditions read from them,
the three-valued verdict, and coderivative membership queries.

Condition identifiers follow a fixed catalogue:

  interior case      C3_2, C3_4, C3_5
  nondegenerate case C4_4, C4_6, C4_8
  degenerate case    C4_10, C4_11a, C4_11b, C4_12, C4_13, C4_14

with the structural implications C3_5 <=> C3_2 and C3_4,
C4_8 => C4_4 and C4_6, C4_13 => C4_14.

Verdict and membership read one table per case (``gamma_systems``): the
inner estimate's branch, the outer estimate's branches, the regularity
condition under which the outer estimate is valid, and the exactness
condition.  Each branch names its condition:

  case           inner              outer                     regularity  exactness
  interior       Gamma1 (C3_4)      -                         C3_2        C3_5
  nondegenerate  Gamma2 (C4_6)      -                         C4_4        C4_8
  degenerate     Gamma1_hat (C4_14) Gamma3_tangential (C4_11a), C4_10     -
                                    Gamma3_ascent (C4_11b),
                                    Gamma3_descent (C4_12)

A branch's condition is the Mordukhovich test D*S(w|x)(0) = {0} on that
branch: every solution of its system at x' = 0 gives w' = 0.  With K the
null space of the branch's x and zero rows, it holds when the cone section
of K (all of K without sign constraints) lies in the kernel of the w rows.
The regularity condition is a trivial kernel of the inner branch's whole
matrix, the exactness condition a trivial K of the inner branch, and C4_13
is the regularity condition together with every outer branch condition.

In the first two cases the single branch is exact, so it is the inner one
and the outer estimate adds nothing.  Membership reads the regularity
condition from the verdict's report, not recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calculus import (
    BOUNDARY,
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
    cone_section,
    contained_in_kernel,
    null_space,
)

__all__ = [
    "ConditionReport",
    "Verdict",
    "GammaBranch",
    "GammaSetDescription",
    "MembershipResult",
    "condition_reports",
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
class ConditionReport:
    id: str
    holds: bool
    evidence: dict
    warnings: tuple = ()


# ---------------------------------------------------------------------------
# Case tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaBranch:
    """One affine-conic branch system: M z = rhs(x', w') with sign constraints.

    The first n rows of M receive -x', its last ``w_rows`` (= d) rows receive
    w', and the rows between them (none, or the one row [gxF^T | 0]) receive 0.
    Its columns are the unknowns: v (n columns), then gamma when M has n + 1.
    ``condition`` is the id of the branch's x' = 0 test; ``evidence_key``
    names the kernel dimension in its report when the branch has no sign
    constraints.
    """

    name: str
    condition: str
    M: np.ndarray
    w_rows: int
    constraints: tuple = ()
    evidence_key: str = "restricted_kernel_dim"

    def rhs(self, xprime: np.ndarray, wprime: np.ndarray) -> np.ndarray:
        xprime = np.asarray(xprime, dtype=float)
        zeros = np.zeros(self.M.shape[0] - xprime.shape[0] - self.w_rows)
        return np.concatenate([-xprime, zeros, np.asarray(wprime, dtype=float)])


@dataclass(frozen=True)
class GammaSetDescription:
    """One case's table: the inner branch, the outer branches, regularity and
    exactness ids."""

    case: str
    inner: GammaBranch
    outer: tuple
    regularity: str
    exactness: str | None = None


def gamma_systems(b: DerivativeBundle, tag: CaseTag, lam: float) -> GammaSetDescription:
    """Branch systems of the coderivative set description for the given case.

    Boundary branches act on (v, gamma) through A1 = [Hxx + lam*Fxx | gxF] and
    A2 = [Hwx + lam*Fwx | gwF] (lam = 0 in the degenerate case); the row
    [gxF^T | 0] restricts v to ker(gxF^T).
    """
    n, d = b.n, b.d
    if tag.is_interior:
        M = np.vstack([b.Hxx, b.Hwx])
        branch = GammaBranch("Gamma1", "C3_4", M, d, evidence_key="ker_Hxx_dim")
        return GammaSetDescription("interior", branch, (), "C3_2", "C3_5")

    Hxx, Hwx = b.Hxx, b.Hwx
    if tag.subtag == NONDEGENERATE:
        Hxx, Hwx = Hxx + lam * b.Fxx, Hwx + lam * b.Fwx
    A1 = np.hstack([Hxx, b.gxF[:, None]])
    A2 = np.hstack([Hwx, b.gwF[:, None]])
    gxF_lift = np.concatenate([b.gxF, [0.0]])
    gamma_coord = np.zeros(n + 1)
    gamma_coord[n] = 1.0
    restricted = np.vstack([A1, gxF_lift[None, :], A2])

    if tag.subtag == NONDEGENERATE:
        branch = GammaBranch("Gamma2", "C4_6", restricted, d)
        return GammaSetDescription("nondegenerate", branch, (), "C4_4", "C4_8")

    pair = np.vstack([A1, A2])
    wedge = (ConeConstraint(gxF_lift, NONNEG), ConeConstraint(gamma_coord, NONNEG))
    ascent = (ConeConstraint(gxF_lift, STRICT_POSITIVE), ConeConstraint(gamma_coord, NONNEG))
    descent = (ConeConstraint(b.gxF, STRICT_NEGATIVE),)
    inner = GammaBranch("Gamma1_hat", "C4_14", pair, d, wedge)
    outer = (
        GammaBranch("Gamma3_tangential", "C4_11a", restricted, d),
        GammaBranch("Gamma3_ascent", "C4_11b", pair, d, ascent),
        GammaBranch("Gamma3_descent", "C4_12", np.vstack([b.Hxx, b.Hwx]), d, descent),
    )
    return GammaSetDescription("degenerate", inner, outer, "C4_10")


# ---------------------------------------------------------------------------
# Conditions and verdict
# ---------------------------------------------------------------------------

def _branch_test(branch: GammaBranch, tol: ToleranceConfig):
    """(report of the branch's x' = 0 test, K = null space of its x and zero rows)."""
    top = branch.M[: -branch.w_rows]
    W = branch.M[-branch.w_rows :]
    section = cone_section(top, np.zeros(top.shape[0]), branch.constraints, tol)
    K = section.source
    holds = section.empty or contained_in_kernel(section.span, W, tol)
    if not branch.constraints:
        evidence = {branch.evidence_key: K.dim}
    elif section.empty:
        evidence = {"cone_section": "empty", "source_dim": K.dim}
    else:
        evidence = {"cone_section": "spans", "span_dim": section.span.dim, "source_dim": K.dim}
    return ConditionReport(branch.condition, holds, evidence, section.warnings), K


def condition_reports(desc: GammaSetDescription, tol: ToleranceConfig = ToleranceConfig()) -> tuple:
    """The case's condition reports, read off its table, in CONDITION_ORDER."""
    inner_report, K = _branch_test(desc.inner, tol)
    outer_reports = [_branch_test(branch, tol)[0] for branch in desc.outer]
    joint = null_space(desc.inner.M, tol)
    regular = ConditionReport(desc.regularity, joint.is_trivial, {"kernel_dim": joint.dim})
    reports = [inner_report, regular, *outer_reports]
    if desc.exactness is not None:
        evidence = {desc.inner.evidence_key: K.dim}
        if desc.exactness == "C3_5":  # also the extended map's criterion
            evidence["extended_map_lipschitz_like"] = K.is_trivial
        reports.append(ConditionReport(desc.exactness, K.is_trivial, evidence))
    if desc.outer:
        parts = [regular, *outer_reports]  # the outer estimate's sufficient bundle
        evidence = {"conjunction_of": [r.id for r in parts]}
        reports.append(ConditionReport("C4_13", all(r.holds for r in parts), evidence))
    return tuple(sorted(reports, key=lambda r: CONDITION_ORDER.index(r.id)))


# Theorem cited per case: Yes, and No with the regularity condition holding
# or failing.  The inner coderivative estimate already contains the C4_6
# system, so its failure refutes the property without assuming C4_4; strict
# mode confines refutation to the literal theorem statements.
_THEOREMS = {
    "interior": ("Thm3.1(b,c)", "Thm3.1(c)", "Thm3.1(a)"),
    "nondegenerate": ("Thm4.1", "LowerEstimateNecessity", "LowerEstimateNecessity"),
    "degenerate": ("Thm4.3(b)", "Thm4.3(a)", "Thm4.3(a)"),
}
_EXTENDED_ONLY = "LowerEstimateNecessity"


def _decide(desc: GammaSetDescription, reports, mode: str) -> tuple[str, str | None]:
    """No when the inner branch's condition fails; Yes when the regularity
    condition and the outer estimate's conditions (the inner branch's, when
    there is no outer branch) hold; Unknown otherwise."""
    holds = {r.id: r.holds for r in reports}
    yes, no_regular, no_irregular = _THEOREMS[desc.case]
    regular = holds[desc.regularity]
    if not holds[desc.inner.condition]:
        theorem = no_regular if regular else no_irregular
        if mode == MODE_EXTENDED or theorem != _EXTENDED_ONLY:
            return NO, theorem
    if regular and all(holds[b.condition] for b in desc.outer or (desc.inner,)):
        return YES, yes
    return UNKNOWN, None


@dataclass(frozen=True)
class Verdict:
    case: CaseTag
    multiplier: MultiplierInfo | None
    conditions: tuple
    lipschitz_like: str
    theorem_applied: str | None
    mode: str
    # == compares the decision only
    bundle: DerivativeBundle = field(compare=False)
    table: GammaSetDescription = field(compare=False)
    warnings: tuple = ()

    def condition(self, cid: str) -> ConditionReport:
        for rep in self.conditions:
            if rep.id == cid:
                return rep
        raise KeyError(cid)


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
    minfo = None
    if tag.is_interior:
        if not verify_stationarity(b, tag, tol):
            raise NotStationary(
                f"interior point is not stationary: ||grad_x f0|| = {np.linalg.norm(b.gxf0):.3e}"
            )
    else:
        minfo = lagrange_multiplier(b, tol)
        if tag.borderline_lambda:
            warnings.append(
                f"multiplier lambda = {_projected(b):.3e} lies within the zero tolerance; "
                "classified degenerate and both boundary branches evaluated"
            )

    table = gamma_systems(b, tag, minfo.lam if minfo is not None else 0.0)
    reports = condition_reports(table, tol)
    answer, theorem = _decide(table, reports, mode)
    if tag.borderline_lambda:
        # Evaluate the nondegenerate branch as well and take the meet of the
        # two verdicts (No dominates, Yes requires both).
        nd_table = gamma_systems(b, CaseTag(BOUNDARY, NONDEGENERATE), minfo.lam)
        nd_reports = condition_reports(nd_table, tol)
        nd_answer, nd_theorem = _decide(nd_table, nd_reports, mode)
        reports += nd_reports
        if NO in (answer, nd_answer):
            theorem = theorem if answer == NO else nd_theorem
            answer = NO
        elif answer == YES and nd_answer == YES:
            theorem = f"{nd_theorem}+{theorem}"
        else:
            answer, theorem = UNKNOWN, None
    return Verdict(tag, minfo, reports, answer, theorem, mode, b, table, tuple(warnings))


# ---------------------------------------------------------------------------
# Coderivative membership
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MembershipResult:
    answer: str  # "In" | "Out" | "Unknown"
    witness_v: tuple | None = None
    witness_gamma: float | None = None
    branch: str | None = None
    notes: tuple = ()


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
    under its own tolerances.  The query is decided scaled by 2^-k, so that
    its largest entry lies in [1, 2), and the witness is scaled back by 2^k:
    D*S(w|x) is positively homogeneous, and no answer depends on the
    query's scale.
    """
    b = v.bundle
    xprime = np.asarray(xprime, dtype=float).ravel()
    wprime = np.asarray(wprime, dtype=float).ravel()
    if xprime.shape[0] != b.n or wprime.shape[0] != b.d:
        raise DimensionMismatch(
            f"query has dimensions ({xprime.shape[0]}, {wprime.shape[0]}), "
            f"problem expects ({b.n}, {b.d})"
        )
    desc = v.table
    # At that scale tau_stat (1 + ||rhs||) is a relative tolerance and
    # ||rhs||^2 cannot overflow; scaling by 2^k is exact unless it underflows.
    top = float(np.max(np.abs(np.concatenate([xprime, wprime]))))
    k = int(np.frexp(top)[1]) - 1 if top > 0.0 else 0
    xprime, wprime = np.ldexp(xprime, -k), np.ldexp(wprime, -k)

    def solve(branch):
        """A point of the branch's section at (x', w'), or None when it is Empty."""
        return cone_section(branch.M, branch.rhs(xprime, wprime), branch.constraints, tol).point

    point = solve(desc.inner)
    if point is not None:
        z = [float(t) for t in np.ldexp(point, k)]
        gamma = z[b.n] if len(z) > b.n else None
        return MembershipResult("In", tuple(z[: b.n]), gamma, desc.inner.name)
    if not v.condition(desc.regularity).holds:
        note = f"exactness unavailable: {desc.regularity} fails, outer estimate not certified"
        return MembershipResult("Unknown", notes=(note,))
    for branch in desc.outer:
        if solve(branch) is not None:
            note = (
                f"inside the outer estimate (branch {branch.name}) but not certified "
                "by the inner one"
            )
            return MembershipResult("Unknown", notes=(note,))
    return MembershipResult("Out")
