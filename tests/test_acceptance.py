"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.
"""

import json
import time

import numpy as np
import pytest

from aubincheck.calculus import (
    BOUNDARY,
    DEGENERATE,
    CaseTag,
    ToleranceConfig,
    classify_point,
    derivative_bundle,
    lagrange_multiplier,
)
from aubincheck.conditions import (
    MODE_EXTENDED,
    MODE_STRICT,
    coderivative_membership,
    condition_reports,
    gamma_systems,
    verdict,
)
from aubincheck.kernel import null_space
from aubincheck.oracle import aubin_probe, sample_stationary_set
from conftest import PRODUCT_CONSTRAINT_ALT, PROBEABLE, fixture_path
from test_cli import run_cli

TOL = ToleranceConfig()

VERDICTS = {
    "trust_region": "Yes",
    "bilinear_ball": "No",
    "cubic_pitchfork": "Unknown",
    "quartic_cuberoot": "Unknown",
    "circle_boundary": "Yes",
    "moving_plane": "Unknown",
    "product_constraint": "Yes",
    "halfline_quadratic": "Yes",
    "halfline_bilinear": "No",
}

PROBE_FLAGS = {
    "cubic_pitchfork": "Consistent",
    "quartic_cuberoot": "Violation",
    "moving_plane": "Violation",
    "halfline_quadratic": "Consistent",
    "halfline_bilinear": "Violation",
}

_probe_cache = {}


def _probe(problems, name):
    if name not in _probe_cache:
        pf = problems[name]
        _probe_cache[name] = aubin_probe(pf.spec, pf.point, pf.probe, pf.grid, pf.tolerances)
    return _probe_cache[name]


def test_criterion_1_verdict_suite(problems):
    """Example-verdict reproduction, each fixture analyzed in under 1 s."""
    for name, expected in VERDICTS.items():
        pf = problems[name]
        t0 = time.perf_counter()
        v = verdict(pf.spec, pf.point, pf.tolerances, MODE_EXTENDED)
        elapsed = time.perf_counter() - t0
        assert v.lipschitz_like == expected, name
        assert elapsed < 1.0, (name, elapsed)
    # the strict-mode detail: moving_plane stays Unknown with C4_6 true, C4_4 false
    pf = problems["moving_plane"]
    v = verdict(pf.spec, pf.point, pf.tolerances, MODE_STRICT)
    assert v.lipschitz_like == "Unknown"
    assert v.condition("C4_6").holds and not v.condition("C4_4").holds
    # halfline_bilinear is refuted by the cone-restricted necessary condition
    pf = problems["halfline_bilinear"]
    v = verdict(pf.spec, pf.point, pf.tolerances, MODE_EXTENDED)
    assert not v.condition("C4_14").holds and v.theorem_applied == "Thm4.3(a)"
    print("\nACCEPTANCE 1 PASS: all nine fixture verdicts reproduced (< 1 s each)")


def test_criterion_2_value_reproduction(problems):
    """Multiplier and matrix values reproduced to tight tolerances."""
    pf = problems["circle_boundary"]
    b = derivative_bundle(pf.spec, pf.point)
    tag = classify_point(b, TOL)
    m = lagrange_multiplier(b, TOL)
    assert abs(m.lam - 1.0) <= 1e-10
    A1 = gamma_systems(b, tag, m.lam).inner.M[: b.n]  # [Hxx + lam*Fxx | gxF]
    assert np.max(np.abs(A1 - np.array([[0.0, 2.0]]))) <= 1e-10
    ker = null_space(A1, TOL)
    assert ker.dim == 1
    assert np.max(np.abs(ker.basis.ravel() - np.array([1.0, 0.0]))) <= 1e-10

    pf = problems["moving_plane"]
    b = derivative_bundle(pf.spec, pf.point)
    tag = classify_point(b, TOL)
    m = lagrange_multiplier(b, TOL)
    assert abs(m.lam - 1.0) <= 1e-10
    A1 = gamma_systems(b, tag, m.lam).inner.M[: b.n]
    ker = null_space(A1, TOL)
    # ker A1 is the (v1, v2) plane: dimension 2, gamma component zero.
    assert ker.dim == 2
    assert np.max(np.abs(ker.basis[2, :])) <= 1e-10
    kerF = null_space(b.gxF[None, :], TOL)
    assert kerF.dim == 1
    assert np.max(np.abs(kerF.basis.ravel() - np.array([1.0, 0.0]))) <= 1e-10
    print("\nACCEPTANCE 2 PASS: multiplier and kernel values reproduced to 1e-10")


def test_criterion_3_discrepancy_adjudication(problems):
    """product_constraint: recomputed route wins, alt reading documented."""
    pf = problems["product_constraint"]
    b = derivative_bundle(pf.spec, pf.point)
    m = lagrange_multiplier(b, TOL)
    assert abs(m.lam - 2.0) <= 1e-10
    v = verdict(pf.spec, pf.point, pf.tolerances, MODE_EXTENDED)
    assert v.lipschitz_like == "Yes"
    assert v.condition("C4_8").holds

    # the sampling oracle confirms a locally single-valued stationary map
    for w in np.linspace(0.9, 1.1, 9):
        s = sample_stationary_set(pf.spec, [w], pf.grid, pf.tolerances, center=[1.0])
        assert len(s) == 1
        assert abs(s.points[0, 0] - 1.0) <= 1e-6

    # the alternative degenerate reading fails C4_11b
    desc = gamma_systems(PRODUCT_CONSTRAINT_ALT, CaseTag(BOUNDARY, DEGENERATE), 0.0)
    reports = condition_reports(desc, TOL)
    holds = {r.id: r.holds for r in reports}
    assert holds["C4_11b"] is False

    # and the CLI report carries the documented note
    code, out = run_cli(["analyze", fixture_path("product_constraint"), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert any("C4_11b" in w for w in doc["warnings"])
    print("\nACCEPTANCE 3 PASS: lambda = 2 route certified, alt reading fails C4_11b, note emitted")


def test_criterion_4_oracle_cross_validation(problems):
    """Probe flags on the pinned fixtures and no-contradiction over the corpus."""
    t0 = time.perf_counter()
    for name, expected in PROBE_FLAGS.items():
        r = _probe(problems, name)
        assert r.flag == expected, (name, r.flag, r.flag_reason)
    # halfline_bilinear violates via empty-value events at positive parameters
    r = _probe(problems, "halfline_bilinear")
    assert "empty-value" in r.flag_reason
    assert all(lv.empty_value_events > 0 for lv in r.levels)
    pf = problems["halfline_bilinear"]
    s = sample_stationary_set(pf.spec, [0.05], pf.grid, pf.tolerances, center=[0.0])
    assert s.is_empty

    # a probe flag never contradicts a definite verdict on the whole corpus
    for name in PROBEABLE:
        pf = problems[name]
        v = verdict(pf.spec, pf.point, pf.tolerances, MODE_EXTENDED)
        flag = _probe(problems, name).flag
        if v.lipschitz_like == "Yes":
            assert flag != "Violation", name
        if v.lipschitz_like == "No":
            assert flag != "Consistent", name
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, elapsed
    print(f"\nACCEPTANCE 4 PASS: probe flags reproduced, corpus consistent ({elapsed:.1f}s < 30s)")


def test_criterion_5a_derivative_audit():
    from test_expr import test_derivative_matches_central_differences

    test_derivative_matches_central_differences()
    print("\nACCEPTANCE 5a PASS: 200 random expressions match central differences at 1e-6")


def test_criterion_5b_null_space_invariants():
    from test_kernel import TestNullSpace

    TestNullSpace().test_random_invariants()
    print("\nACCEPTANCE 5b PASS: null-space residual/orthonormality/rank-nullity on 500 matrices")


def test_criterion_5c_cone_span_agreement():
    from test_kernel import TestConeSpan

    t = TestConeSpan()
    t.test_sphere_sampling_agreement_fixtures()
    t.test_sphere_sampling_agreement_random()
    print(
        "\nACCEPTANCE 5c PASS: cone spans agree with sphere sampling on fixtures + "
        "20 random K per sense pattern (3 single, 9 ordered pairs)"
    )


def test_criterion_5d_condition_implications(problems):
    from test_conditions import TestImplicationInvariants

    t = TestImplicationInvariants()
    t.test_interior_equivalence_random()
    t.test_boundary_implications_random()
    t.test_fixture_implications(problems)
    print("\nACCEPTANCE 5d PASS: condition implications hold on fixtures + 100 random problems")


def test_criterion_5e_membership_witnesses(problems):
    rng = np.random.default_rng(123)
    for pf in problems.values():
        v = verdict(pf.spec, pf.point, TOL)
        # membership(0, 0) is In in every case
        r0 = coderivative_membership(v, [0.0] * pf.spec.n, [0.0] * pf.spec.d, TOL)
        assert r0.answer == "In", pf.path
        desc = v.table
        for _ in range(8):
            xp = rng.integers(-2, 3, size=pf.spec.n).astype(float)
            wp = rng.integers(-2, 3, size=pf.spec.d).astype(float)
            r = coderivative_membership(v, xp, wp, TOL)
            if r.answer != "In":
                continue
            branch = next(br for br in (desc.inner, *desc.outer) if br.name == r.branch)
            z = np.array(list(r.witness_v) + ([r.witness_gamma] if r.witness_gamma is not None else []))
            rhs = branch.rhs(xp, wp)
            assert np.linalg.norm(branch.M @ z - rhs) <= 1e-7 * (1.0 + np.linalg.norm(rhs))
    print("\nACCEPTANCE 5e PASS: witnesses re-satisfy branch systems at 1e-7; origin always In")


def test_criterion_6_determinism():
    a1 = run_cli(["analyze", fixture_path("halfline_quadratic"), "--json"])
    a2 = run_cli(["analyze", fixture_path("halfline_quadratic"), "--json"])
    assert a1 == a2
    p1 = run_cli(["probe", fixture_path("halfline_bilinear"), "--json"])
    p2 = run_cli(["probe", fixture_path("halfline_bilinear"), "--json"])
    assert p1 == p2
    m1 = run_cli(
        ["membership", fixture_path("circle_boundary"), "--xprime", "-2", "--wprime", "2", "--json"]
    )
    m2 = run_cli(
        ["membership", fixture_path("circle_boundary"), "--xprime", "-2", "--wprime", "2", "--json"]
    )
    assert m1 == m2
    print("\nACCEPTANCE 6 PASS: repeated runs produce byte-identical JSON reports")
