import math
import warnings

import numpy as np
import pytest

from aubincheck.calculus import (
    BOUNDARY,
    DEGENERATE,
    INTERIOR,
    NONDEGENERATE,
    CaseTag,
    EvalPoint,
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
from aubincheck.errors import NotStationary
from aubincheck.expr import ProblemSpec, parse
from conftest import FIXTURE_NAMES, PRODUCT_CONSTRAINT_ALT, golden_queries, make_bundle

TOL = ToleranceConfig()


def _case(problems, name):
    pf = problems[name]
    b = derivative_bundle(pf.spec, pf.point)
    tag = classify_point(b, TOL)
    lam = lagrange_multiplier(b, TOL).lam if tag.is_boundary else 0.0
    return pf, b, tag, lam


def _verdict(problems, name):
    pf = problems[name]
    return verdict(pf.spec, pf.point, TOL)


def _holds(reports):
    return {r.id: r.holds for r in reports}


def _table(problems, name):
    _, b, tag, lam = _case(problems, name)
    return gamma_systems(b, tag, lam)


def _blocks(desc, n, d):
    """(A1, A2) of a boundary table: the inner branch's first n and last d rows."""
    M = desc.inner.M
    return M[:n], M[-d:]


def _conditions(problems, name):
    return _holds(condition_reports(_table(problems, name), TOL))


class TestAssembleMatrices:
    """A1 = [Hxx + lam*Fxx | gxF] and A2 = [Hwx + lam*Fwx | gwF] as the case
    table builds them."""

    def test_circle(self, problems):
        A1, A2 = _blocks(_table(problems, "circle_boundary"), 1, 1)
        assert np.max(np.abs(A1 - np.array([[0.0, 2.0]]))) <= 1e-10
        assert np.max(np.abs(A2 - np.array([[1.0, 2.0]]))) <= 1e-10

    def test_moving_plane(self, problems):
        A1, A2 = _blocks(_table(problems, "moving_plane"), 2, 1)
        assert np.allclose(A1, [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(A2, [[0.0, 0.0, -1.0]])

    def test_halfline_quadratic_degenerate(self, problems):
        desc = _table(problems, "halfline_quadratic")
        A1, A2 = _blocks(desc, 1, 1)
        assert desc.case == "degenerate"
        assert np.allclose(A1, [[2.0, 1.0]])
        assert np.allclose(A2, [[0.0, 1.0]])

    def test_product_constraint_recomputed(self, problems):
        _, b, tag, lam = _case(problems, "product_constraint")
        assert lam == pytest.approx(2.0)
        A1, A2 = _blocks(gamma_systems(b, tag, lam), 1, 1)
        assert np.allclose(A1, [[-2.0, 1.0]])
        assert np.allclose(A2, [[4.0, 0.0]])


class TestInteriorConditions:
    def test_bilinear_ball(self, problems):
        h = _conditions(problems, "bilinear_ball")
        assert h == {"C3_2": True, "C3_4": False, "C3_5": False}

    def test_cubic_pitchfork(self, problems):
        h = _conditions(problems, "cubic_pitchfork")
        assert h == {"C3_2": False, "C3_4": True, "C3_5": False}

    def test_trust_region(self, problems):
        h = _conditions(problems, "trust_region")
        assert h == {"C3_2": True, "C3_4": True, "C3_5": True}


class TestNondegenerateConditions:
    def test_circle(self, problems):
        h = _conditions(problems, "circle_boundary")
        assert h == {"C4_4": True, "C4_6": True, "C4_8": True}

    def test_moving_plane(self, problems):
        h = _conditions(problems, "moving_plane")
        assert h == {"C4_4": False, "C4_6": True, "C4_8": False}

    def test_product_constraint(self, problems):
        h = _conditions(problems, "product_constraint")
        assert h["C4_8"] and h["C4_4"] and h["C4_6"]


class TestDegenerateConditions:
    def test_halfline_quadratic_all_hold(self, problems):
        h = _conditions(problems, "halfline_quadratic")
        assert all(h[c] for c in ("C4_10", "C4_11a", "C4_11b", "C4_12", "C4_13", "C4_14"))

    def test_halfline_bilinear_necessity_fails(self, problems):
        h = _conditions(problems, "halfline_bilinear")
        assert not h["C4_14"]
        assert not h["C4_13"]

    def test_alt_matrix_fixture_c4_11b_fails(self):
        # The alternative degenerate reading of the product-constraint data.
        desc = gamma_systems(PRODUCT_CONSTRAINT_ALT, CaseTag(BOUNDARY, DEGENERATE), 0.0)
        h = _holds(condition_reports(desc, TOL))
        assert h["C4_10"] and h["C4_11a"]
        assert not h["C4_11b"]
        assert not h["C4_13"]


class TestVerdict:
    EXPECTED = {
        "trust_region": ("Yes", "Thm3.1(b,c)"),
        "bilinear_ball": ("No", "Thm3.1(c)"),
        "cubic_pitchfork": ("Unknown", None),
        "quartic_cuberoot": ("Unknown", None),
        "circle_boundary": ("Yes", "Thm4.1"),
        "moving_plane": ("Unknown", None),
        "product_constraint": ("Yes", "Thm4.1"),
        "halfline_quadratic": ("Yes", "Thm4.3(b)"),
        "halfline_bilinear": ("No", "Thm4.3(a)"),
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_fixture_verdicts(self, problems, name):
        pf = problems[name]
        v = verdict(pf.spec, pf.point, pf.tolerances, MODE_EXTENDED)
        answer, theorem = self.EXPECTED[name]
        assert v.lipschitz_like == answer
        assert v.theorem_applied == theorem

    def test_moving_plane_strict_unknown(self, problems):
        pf = problems["moving_plane"]
        v = verdict(pf.spec, pf.point, pf.tolerances, MODE_STRICT)
        assert v.lipschitz_like == "Unknown"
        assert v.condition("C4_6").holds and not v.condition("C4_4").holds

    def test_extended_mode_refutes_on_c4_6(self):
        # Boundary nondegenerate with C4_4 holding but C4_6 failing: strict
        # stays Unknown, extended refutes via the unconditional inner estimate.
        spec = ProblemSpec(2, 1, parse("w1*x1 - x2", 2, 1), parse("x2 + w1", 2, 1))
        point = EvalPoint([0.0, 0.0], [0.0])
        strict = verdict(spec, point, TOL, MODE_STRICT)
        extended = verdict(spec, point, TOL, MODE_EXTENDED)
        assert strict.condition("C4_4").holds and not strict.condition("C4_6").holds
        assert strict.lipschitz_like == "Unknown"
        assert extended.lipschitz_like == "No"
        assert extended.theorem_applied == "LowerEstimateNecessity"

    def test_mode_monotonicity(self, problems):
        # strict Unknown may only sharpen to extended No, never to Yes.
        for pf in problems.values():
            s = verdict(pf.spec, pf.point, pf.tolerances, MODE_STRICT)
            e = verdict(pf.spec, pf.point, pf.tolerances, MODE_EXTENDED)
            if s.lipschitz_like != e.lipschitz_like:
                assert (s.lipschitz_like, e.lipschitz_like) == ("Unknown", "No")

    def test_borderline_lambda_dual_analysis(self):
        spec = ProblemSpec(1, 1, parse("-0.000000005*x1", 1, 1), parse("x1 + w1", 1, 1))
        point = EvalPoint([0.0], [0.0])
        v = verdict(spec, point, TOL, MODE_EXTENDED)
        ids = {r.id for r in v.conditions}
        assert {"C4_10", "C4_8"} <= ids  # both branches evaluated
        assert v.case.borderline_lambda
        # degenerate branch is Unknown here, nondegenerate says Yes: meet is Unknown
        assert v.lipschitz_like == "Unknown"
        assert any("zero tolerance" in w for w in v.warnings)

    def test_interior_refuted_without_regularity(self):
        # C3_2, C3_4 and C3_5 all fail: the x2 direction is free and w1 moves
        # the gradient along x1, so both modes refute via Thm3.1(a).
        spec = ProblemSpec(2, 1, parse("x1*w1", 2, 1), parse("x1^2 + x2^2 - 1", 2, 1))
        point = EvalPoint([0.0, 0.0], [0.0])
        for mode in (MODE_EXTENDED, MODE_STRICT):
            v = verdict(spec, point, TOL, mode)
            assert _holds(v.conditions) == {"C3_2": False, "C3_4": False, "C3_5": False}
            assert (v.lipschitz_like, v.theorem_applied) == ("No", "Thm3.1(a)")

    def test_not_stationary_raises(self):
        spec = ProblemSpec(1, 1, parse("x1", 1, 1), parse("x1 - 1", 1, 1))
        with pytest.raises(NotStationary):
            verdict(spec, EvalPoint([0.0], [0.0]), TOL)


class TestExtendedMap:
    # The extended map is Lipschitz-like at an interior point iff ker Hxx = {0}:
    # the C3_5 report.
    def test_trust_region_true(self, problems):
        assert _verdict(problems, "trust_region").condition("C3_5").holds

    def test_cubic_false(self, problems):
        assert not _verdict(problems, "cubic_pitchfork").condition("C3_5").holds

    def test_simple_true(self):
        spec = ProblemSpec(1, 1, parse("x1^2", 1, 1), parse("x1 - 1", 1, 1))
        assert verdict(spec, EvalPoint([0.0], [0.0]), TOL).condition("C3_5").holds


class TestImplicationInvariants:
    def test_interior_equivalence_random(self):
        """C3_5 <=> C3_2 and C3_4 on random integer problems."""
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(1, 4))
            M = rng.integers(-3, 4, size=(n, n)).astype(float)
            Hxx = (M + M.T) / 2.0
            Hwx = rng.integers(-3, 4, size=(d, n)).astype(float)
            desc = gamma_systems(make_bundle(Hxx, Hwx), CaseTag(INTERIOR), 0.0)
            h = _holds(condition_reports(desc, TOL))
            assert h["C3_5"] == (h["C3_2"] and h["C3_4"])

    def test_boundary_implications_random(self):
        """C4_8 => C4_4 and C4_6; C4_13 => C4_14 on random boundary data."""
        rng = np.random.default_rng(21)
        for trial in range(100):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(1, 4))
            M = rng.integers(-3, 4, size=(n, n)).astype(float)
            Hxx = (M + M.T) / 2.0
            Hwx = rng.integers(-3, 4, size=(d, n)).astype(float)
            Fsym = rng.integers(-2, 3, size=(n, n)).astype(float)
            Fxx = (Fsym + Fsym.T) / 2.0
            Fwx = rng.integers(-2, 3, size=(d, n)).astype(float)
            gxF = rng.integers(-3, 4, size=n).astype(float)
            while not np.any(gxF):
                gxF = rng.integers(-3, 4, size=n).astype(float)
            gwF = rng.integers(-3, 4, size=d).astype(float)
            b = make_bundle(Hxx, Hwx, gxF, gwF, Fxx, Fwx)
            if trial % 2 == 0:
                lam = float(rng.integers(1, 4))
                desc = gamma_systems(b, CaseTag(BOUNDARY, NONDEGENERATE), lam)
                h = _holds(condition_reports(desc, TOL))
                if h["C4_8"]:
                    assert h["C4_4"] and h["C4_6"]
            else:
                desc = gamma_systems(b, CaseTag(BOUNDARY, DEGENERATE), 0.0)
                h = _holds(condition_reports(desc, TOL))
                assert h["C4_13"] == (
                    h["C4_10"] and h["C4_11a"] and h["C4_11b"] and h["C4_12"]
                )
                if h["C4_13"]:
                    assert h["C4_14"]

    def test_fixture_implications(self, problems):
        for pf in problems.values():
            v = verdict(pf.spec, pf.point, pf.tolerances, MODE_EXTENDED)
            h = {r.id: r.holds for r in v.conditions}
            if "C3_5" in h:
                assert h["C3_5"] == (h["C3_2"] and h["C3_4"])
            if "C4_8" in h and h["C4_8"]:
                assert h["C4_4"] and h["C4_6"]
            if "C4_13" in h and h["C4_13"]:
                assert h["C4_14"]


class TestMembership:
    def test_circle_origin(self, problems):
        v = _verdict(problems, "circle_boundary")
        r = coderivative_membership(v, [0.0], [0.0], TOL)
        assert r.answer == "In"

    def test_circle_in_with_witness(self, problems):
        v = _verdict(problems, "circle_boundary")
        r = coderivative_membership(v, [-2.0], [2.0], TOL)
        assert r.answer == "In"
        assert r.witness_v == pytest.approx([0.0], abs=1e-10)
        assert r.witness_gamma == pytest.approx(1.0, abs=1e-10)

    def test_circle_out(self, problems):
        v = _verdict(problems, "circle_boundary")
        r = coderivative_membership(v, [0.0], [1.0], TOL)
        assert r.answer == "Out"

    def test_origin_in_everywhere(self, problems):
        for pf in problems.values():
            v = verdict(pf.spec, pf.point, TOL)
            zero_x = [0.0] * pf.spec.n
            zero_w = [0.0] * pf.spec.d
            r = coderivative_membership(v, zero_x, zero_w, TOL)
            assert r.answer == "In", pf.path

    def test_witnesses_satisfy_branch_systems(self, problems):
        rng = np.random.default_rng(77)
        desc_cache = {}
        for pf in problems.values():
            v = verdict(pf.spec, pf.point, TOL)
            desc = v.table
            for _ in range(10):
                xp = rng.integers(-2, 3, size=pf.spec.n).astype(float)
                wp = rng.integers(-2, 3, size=pf.spec.d).astype(float)
                r = coderivative_membership(v, xp, wp, TOL)
                if r.answer != "In":
                    continue
                branch = next(br for br in (desc.inner, *desc.outer) if br.name == r.branch)
                z = np.array(
                    list(r.witness_v) + ([r.witness_gamma] if r.witness_gamma is not None else [])
                )
                resid = np.linalg.norm(branch.M @ z - branch.rhs(xp, wp))
                assert resid <= 1e-7 * (1.0 + np.linalg.norm(branch.rhs(xp, wp)))

    SCALES = (2.0**-1000, 1e-300, 1e-9, 1e-7, 1e-3, 3.0, 1e100, 1e200, 1e300)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_answers_do_not_depend_on_scale(self, problems, capfd, name):
        # D*S(w|x) is positively homogeneous: (t x', t w') gets the answer of
        # (x', w') for every t > 0, and for t = 2^j the witness times t.
        pf = problems[name]
        v = verdict(pf.spec, pf.point, pf.tolerances)
        branches = {v.table.inner.name: v.table.inner}
        for xs, ws in golden_queries(name)[1:]:  # not the origin
            xp, wp = (np.array(q.split(","), dtype=float) for q in (xs, ws))
            base = coderivative_membership(v, xp, wp, pf.tolerances)
            for t in self.SCALES:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    r = coderivative_membership(v, t * xp, t * wp, pf.tolerances)
                assert caught == [] and r.answer == base.answer, (xs, ws, t)
                if r.answer != "In":
                    continue
                if math.frexp(t)[0] == 0.5:
                    assert r.witness_v == tuple(t * c for c in base.witness_v)
                    assert r.witness_gamma == (None if base.witness_gamma is None else t * base.witness_gamma)
                branch = branches[r.branch]
                z = np.array(r.witness_v + ((r.witness_gamma,) if r.witness_gamma is not None else ()))
                rhs = branch.rhs(t * xp, t * wp)
                # Compared at scale 2^-e, where nothing overflows.
                e = math.frexp(float(np.max(np.abs(rhs))))[1]
                rhs, z = np.ldexp(rhs, -e), np.ldexp(z, -e)
                tau = pf.tolerances.tau_stat
                assert np.linalg.norm(branch.M @ z - rhs) <= 2.0 * tau * np.linalg.norm(rhs), (xs, ws, t)
        assert capfd.readouterr().err == ""

    def test_degenerate_unknown_without_regularity(self):
        # C4_10 fails here, so a non-inner point cannot be certified Out.
        spec = ProblemSpec(1, 1, parse("-0.000000005*x1", 1, 1), parse("x1 + w1", 1, 1))
        v = verdict(spec, EvalPoint([0.0], [0.0]), TOL)
        assert (v.case.kind, v.case.subtag) == (BOUNDARY, DEGENERATE)
        r = coderivative_membership(v, [0.0], [5.0], TOL)
        assert r.answer == "Unknown"
        assert any("C4_10" in note for note in r.notes)

    def test_interior_out_requires_c3_2(self, problems):
        # cubic_pitchfork: C3_2 fails, infeasible queries downgrade to Unknown.
        v = _verdict(problems, "cubic_pitchfork")
        r = coderivative_membership(v, [1.0], [1.0], TOL)
        assert r.answer == "Unknown"
        assert any("C3_2" in note for note in r.notes)

    def test_degenerate_outer_estimate_out(self, problems):
        # halfline_quadratic has C4_10; at x'=0, w'=1 the inner system forces
        # v = -1/2 < 0 and every outer branch is inconsistent, hence Out.
        v = _verdict(problems, "halfline_quadratic")
        r = coderivative_membership(v, [0.0], [1.0], TOL)
        assert r.answer == "Out"

    def test_degenerate_inner_estimate_in(self, problems):
        # halfline_quadratic at x'=-2, w'=1: v=1/2 >= 0, gamma=1 >= 0 solves
        # the inner system (2v + gamma = 2, gamma = 1).
        v = _verdict(problems, "halfline_quadratic")
        r = coderivative_membership(v, [-2.0], [1.0], TOL)
        assert r.answer == "In"
        assert r.witness_v == pytest.approx([0.5], abs=1e-9)
        assert r.witness_gamma == pytest.approx(1.0, abs=1e-9)


class TestTwoDimensionalDegenerate:
    """Degenerate boundary case with a free direction: exercises the
    negative-collinear slice path of the closed-wedge cone decision in 2-D."""

    def _setup(self):
        spec = ProblemSpec(2, 1, parse("x1^2", 2, 1), parse("x1 + w1", 2, 1))
        point = EvalPoint([0.0, 0.0], [0.0])
        return spec, point

    def test_conditions(self):
        spec, point = self._setup()
        b = derivative_bundle(spec, point)
        tag = classify_point(b, TOL)
        assert (tag.kind, tag.subtag) == (BOUNDARY, DEGENERATE)
        desc = gamma_systems(b, tag, 0.0)
        A1, A2 = _blocks(desc, 2, 1)
        assert np.allclose(A1, [[2.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        assert np.allclose(A2, [[0.0, 0.0, 1.0]])
        h = _holds(condition_reports(desc, TOL))
        # the free x2 direction sits in ker A1' and ker A2': C4_10 fails,
        # but the cone-restricted necessary condition holds via the slice.
        assert h == {
            "C4_10": False,
            "C4_11a": True,
            "C4_11b": True,
            "C4_12": True,
            "C4_13": False,
            "C4_14": True,
        }

    def test_verdict_unknown(self):
        spec, point = self._setup()
        v = verdict(spec, point, TOL)
        assert v.lipschitz_like == "Unknown"
