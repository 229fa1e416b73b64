"""Lipschitz-like (Aubin) property analysis of parametric stationary-point
set maps: exact condition checks on derivative matrices, coderivative
membership queries, and an independent brute-force numerical probe."""

from .calculus import (
    CaseTag,
    DerivativeBundle,
    EvalPoint,
    MultiplierInfo,
    ToleranceConfig,
    classify_point,
    derivative_bundle,
    finite_difference_audit,
    lagrange_multiplier,
    verify_stationarity,
)
from .conditions import (
    ConditionReport,
    MembershipResult,
    Verdict,
    coderivative_membership,
    condition_reports,
    gamma_systems,
    verdict,
)
from .errors import (
    AubinCheckError,
    DimensionMismatch,
    DomainError,
    ExponentError,
    ExpressionSyntaxError,
    GridTooCoarse,
    InfeasiblePoint,
    InputError,
    MfcqViolated,
    NotStationary,
    PreconditionError,
    UnsupportedConePattern,
    VariableIndexError,
)
from .expr import ProblemSpec, differentiate, evaluate, parse, render
from .kernel import (
    ConeConstraint,
    Section,
    SubspaceBasis,
    cone_section,
    contained_in_kernel,
    null_space,
)
from .oracle import (
    GridSpec,
    ProbeConfig,
    ProbeReport,
    SampleSet,
    aubin_probe,
    kkt_residual,
    sample_stationary_set,
)
from .problemfile import ProblemFile, load_problem

__version__ = "0.1.0"
