import dataclasses

import numpy as np
import pytest

from aubincheck.calculus import (
    BLOCKS,
    BOUNDARY,
    DEGENERATE,
    INTERIOR,
    NONDEGENERATE,
    DerivativeBundle,
    EvalPoint,
    ToleranceConfig,
    classify_point,
    derivative_bundle,
    problem_derivatives,
    finite_difference_audit,
    lagrange_multiplier,
    verify_stationarity,
)
from aubincheck.errors import InfeasiblePoint, MfcqViolated, NotStationary
from aubincheck.expr import Mul, Const, ProblemSpec, Tape, Var, differentiate, parse

TOL = ToleranceConfig()


def _bundle(problems, name):
    pf = problems[name]
    return derivative_bundle(pf.spec, pf.point)


class TestDerivativeBundle:
    def test_circle_values(self, problems):
        b = _bundle(problems, "circle_boundary")
        assert b.gxf0 == pytest.approx([-2.0])
        assert b.gxF == pytest.approx([2.0])
        assert np.allclose(b.Hxx, [[-2.0]])
        assert np.allclose(b.Fxx, [[2.0]])
        assert np.allclose(b.Hwx, [[1.0]])
        assert np.allclose(b.Fwx, [[0.0]])
        assert b.gwF == pytest.approx([2.0])
        assert b.Fval == pytest.approx(0.0, abs=1e-15)

    def test_bilinear_ball_blocks(self, problems):
        b = _bundle(problems, "bilinear_ball")
        assert np.allclose(b.Hxx, np.zeros((2, 2)))
        assert np.allclose(b.Hwx, np.eye(2))

    def test_moving_plane_blocks(self, problems):
        b = _bundle(problems, "moving_plane")
        assert b.gxF == pytest.approx([0.0, 1.0])
        assert b.gxf0 == pytest.approx([0.0, -1.0])
        assert np.allclose(b.Hxx, np.zeros((2, 2)))
        assert np.allclose(b.Hwx, [[-1.0, 0.0]])
        assert np.allclose(b.Fwx, [[1.0, 0.0]])
        assert b.gwF == pytest.approx([-1.0])

    def test_trust_region_hessian(self, problems):
        b = _bundle(problems, "trust_region")
        assert np.allclose(b.Hxx, np.diag([1.0, -1.0]))

    def test_blocks_name_every_array_field(self):
        arrays = [f.name for f in dataclasses.fields(DerivativeBundle) if f.type == "np.ndarray"]
        names = [blk.field for blk in BLOCKS]
        assert len(names) == len(set(names)) == 7
        assert sorted(names) == sorted(arrays)

    def test_hessians_exactly_symmetric(self, problems):
        for pf in problems.values():
            b = derivative_bundle(pf.spec, pf.point)
            assert np.array_equal(b.Hxx, b.Hxx.T)
            assert np.array_equal(b.Fxx, b.Fxx.T)

    def test_bundle_is_eval_rows_at_the_point(self, problems):
        # analyze and probe read one evaluator: the bundle's unsymmetrized
        # blocks are, bit for bit, its tapes evaluated as a one-column batch.
        for name, pf in problems.items():
            derivs = problem_derivatives(pf.spec)
            b = derivs.bundle(pf.point)
            x, w = pf.point.arrays()
            fields = [("Fval", "F_row")] + [
                (blk.field, blk.tape) for blk in BLOCKS if blk.by == "w" or not blk.second_order
            ]
            assert [f for f, _ in fields] == ["Fval", "gxf0", "gxF", "gwF", "Hwx", "Fwx"]
            for field, tape in fields:
                want = derivs.eval_rows(getattr(derivs, tape), x[:, None], w[:, None])[:, 0]
                got = np.asarray(getattr(b, field), dtype=float).ravel()
                assert got.tobytes() == want.tobytes(), (name, field)

    def test_mixed_block_order_agrees(self, problems):
        # d/dw d/dx f0 equals d/dx d/dw f0 at every fixture point.
        for pf in problems.values():
            spec, (x, w) = pf.spec, pf.point.arrays()
            b = derivative_bundle(spec, pf.point)
            other = np.empty((spec.d, spec.n))
            for k in range(spec.d):
                dw = differentiate(spec.f0, Var("w", k + 1))
                for i in range(spec.n):
                    from aubincheck.expr import evaluate

                    other[k, i] = evaluate(differentiate(dw, Var("x", i + 1)), x, w)
            assert np.allclose(b.Hwx, other, atol=1e-10)


def _newton_points(entry, m: int, rng) -> tuple:
    """Columns z (m, K) and w (d, K) to evaluate a branch system at: random
    points, the same with about half their entries set to +0 or -0, and the
    reference point with lam (z_{n+1}, on the boundary) 0 or random."""
    x, w = entry.point.arrays()
    Z, W = rng.normal(size=(m, 12)), rng.normal(size=(w.size, 12))
    zeroed = [np.where(rng.random(A.shape) < 0.5, np.copysign(0.0, A), A) for A in (Z, W)]
    ref_z = np.array([np.append(x, lam)[:m] for lam in (0.0, rng.normal())]).T
    return (
        np.hstack([Z, zeroed[0], ref_z]),
        np.hstack([W, zeroed[1], np.tile(w[:, None], 2)]),
    )


class TestNewtonSystems:
    """Each branch's Jacobian tape is the derivative of its system tape."""

    def test_jacobian_equals_derivative_tape(self, corpus):
        # By value, so +0 and -0 agree: the hand-built J keeps zero terms
        # that differentiation simplifies away.
        rng = np.random.default_rng(20261019)
        systems = 0
        for entry in corpus:
            if entry.variant is not None and (entry.spec.n > 2 or entry.spec.d > 2):
                continue  # the generated problems within the probe's reach
            derivs = problem_derivatives(entry.spec)
            for branch, (G, J) in derivs.newton_systems.items():
                m = entry.spec.n + (branch == "boundary")
                assert len(G) == m and len(J) == m * m
                dG = Tape(differentiate(g, Var("x", j + 1)) for g in G for j in range(m))
                Z, W = _newton_points(entry, m, rng)
                got, want = derivs.eval_rows(J, Z, W), derivs.eval_rows(dG, Z, W)
                assert np.array_equal(got, want, equal_nan=True), (entry.name, branch)
                systems += 1
        assert systems == 2 * (9 + 14)  # the fixtures and 14 generated problems

    def test_boundary_system_values(self, problems):
        # circle_boundary: f0 = -x1^2 + (w1 - 1)*x1 and F = x1^2 + w1^2 - 2.
        # At x1 = 1, lam = 0.5, w1 = 2: G = (-2 + 1 + 0.5*2, 1 + 4 - 2) and
        # J = [[-2 + 0.5*2, 2], [2, 0]].
        derivs = problem_derivatives(problems["circle_boundary"].spec)
        G, J = derivs.newton_systems["boundary"]
        Z, W = np.array([[1.0], [0.5]]), np.array([[2.0]])
        assert derivs.eval_rows(G, Z, W)[:, 0].tolist() == [0.0, 3.0]
        assert derivs.eval_rows(J, Z, W)[:, 0].tolist() == [-1.0, 2.0, 2.0, 0.0]
        assert derivs.newton_systems["interior"] == (derivs.f0x, derivs.f0xx)


class TestClassify:
    def test_interior(self, problems):
        for name in ("trust_region", "bilinear_ball", "cubic_pitchfork", "quartic_cuberoot"):
            assert classify_point(_bundle(problems, name), TOL).kind == INTERIOR

    def test_boundary_nondegenerate(self, problems):
        tag = classify_point(_bundle(problems, "circle_boundary"), TOL)
        assert (tag.kind, tag.subtag) == (BOUNDARY, NONDEGENERATE)

    def test_boundary_degenerate(self, problems):
        tag = classify_point(_bundle(problems, "halfline_quadratic"), TOL)
        assert (tag.kind, tag.subtag) == (BOUNDARY, DEGENERATE)
        assert not tag.borderline_lambda

    def test_infeasible_is_hard_error(self):
        spec = ProblemSpec(1, 1, parse("x1^2", 1, 1), parse("x1", 1, 1))
        b = derivative_bundle(spec, EvalPoint([1.0], [0.0]))
        with pytest.raises(InfeasiblePoint):
            classify_point(b, TOL)

    def test_mfcq_violation(self):
        spec = ProblemSpec(1, 1, parse("x1^2", 1, 1), parse("x1^2 + w1", 1, 1))
        b = derivative_bundle(spec, EvalPoint([0.0], [0.0]))
        with pytest.raises(MfcqViolated):
            classify_point(b, TOL)

    def test_borderline_lambda_flagged(self):
        spec = ProblemSpec(1, 1, parse("-0.000000005*x1", 1, 1), parse("x1 + w1", 1, 1))
        b = derivative_bundle(spec, EvalPoint([0.0], [0.0]))
        tag = classify_point(b, TOL)
        assert tag.subtag == DEGENERATE and tag.borderline_lambda

    def test_scale_stability(self, problems):
        # Doubling F never flips Interior <-> Boundary at the fixture points.
        for pf in problems.values():
            b = derivative_bundle(pf.spec, pf.point)
            scaled = ProblemSpec(pf.spec.n, pf.spec.d, pf.spec.f0, Mul(Const(2.0), pf.spec.F))
            b2 = derivative_bundle(scaled, pf.point)
            assert classify_point(b, TOL).kind == classify_point(b2, TOL).kind


class TestMultiplier:
    def test_circle(self, problems):
        m = lagrange_multiplier(_bundle(problems, "circle_boundary"), TOL)
        assert m.lam == pytest.approx(1.0, abs=1e-12)
        assert m.residual <= 1e-12

    def test_moving_plane(self, problems):
        m = lagrange_multiplier(_bundle(problems, "moving_plane"), TOL)
        assert m.lam == pytest.approx(1.0, abs=1e-12)
        assert m.residual <= 1e-12

    def test_product_constraint_recomputed(self, problems):
        m = lagrange_multiplier(_bundle(problems, "product_constraint"), TOL)
        assert m.lam == pytest.approx(2.0, abs=1e-12)
        assert m.residual <= 1e-12

    def test_degenerate_lambda_is_zero(self, problems):
        for name in ("halfline_quadratic", "halfline_bilinear"):
            m = lagrange_multiplier(_bundle(problems, name), TOL)
            assert m.lam == 0.0

    def test_negative_multiplier_rejected(self):
        spec = ProblemSpec(1, 1, parse("x1", 1, 1), parse("x1 - 1", 1, 1))
        b = derivative_bundle(spec, EvalPoint([1.0], [0.0]))
        with pytest.raises(NotStationary):
            lagrange_multiplier(b, TOL)

    def test_perturbation_bound(self):
        # |lambda(g + delta) - lambda(g)| <= ||delta|| / ||gxF||.
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = rng.integers(1, 4)
            gxF = rng.standard_normal(n)
            while np.linalg.norm(gxF) < 0.1:
                gxF = rng.standard_normal(n)
            g = rng.standard_normal(n)
            delta = 1e-3 * rng.standard_normal(n)
            lam = -np.dot(gxF, g) / np.dot(gxF, gxF)
            lam2 = -np.dot(gxF, g + delta) / np.dot(gxF, gxF)
            assert abs(lam2 - lam) <= np.linalg.norm(delta) / np.linalg.norm(gxF) + 1e-15


class TestStationarity:
    def test_interior_stationary(self, problems):
        b = _bundle(problems, "cubic_pitchfork")
        assert verify_stationarity(b, classify_point(b, TOL), TOL)

    def test_interior_not_stationary(self):
        spec = ProblemSpec(1, 1, parse("x1", 1, 1), parse("x1 - 1", 1, 1))
        b = derivative_bundle(spec, EvalPoint([0.0], [0.0]))
        assert not verify_stationarity(b, classify_point(b, TOL), TOL)

    def test_boundary_stationary(self, problems):
        b = _bundle(problems, "product_constraint")
        assert verify_stationarity(b, classify_point(b, TOL), TOL)


class TestFiniteDifferenceAudit:
    def test_circle(self, problems):
        pf = problems["circle_boundary"]
        dev = finite_difference_audit(pf.spec, pf.point, _bundle(problems, "circle_boundary"), 1e-5)
        assert dev["worst"] <= 1e-6

    def test_moving_plane(self, problems):
        pf = problems["moving_plane"]
        dev = finite_difference_audit(pf.spec, pf.point, _bundle(problems, "moving_plane"), 1e-5)
        assert dev["worst"] <= 1e-6

    def test_constant_problem_exact(self):
        spec = ProblemSpec(1, 1, parse("3", 1, 1), parse("-1", 1, 1))
        point = EvalPoint([0.2], [0.4])
        dev = finite_difference_audit(spec, point, derivative_bundle(spec, point), 1e-5)
        assert dev["worst"] == 0.0

    def test_all_fixtures(self, problems):
        for name, pf in problems.items():
            dev = finite_difference_audit(pf.spec, pf.point, _bundle(problems, name), 1e-5)
            assert dev["worst"] <= 1e-6, pf.path


class TestNonReferenceInstances:
    def test_bilinear_ball_blocks_at_interior_offset(self):
        # Hxx = 0 and Hwx = identity at any point inside the ball, not just 0.
        spec = ProblemSpec(
            2, 2, parse("x1*w1 + x2*w2", 2, 2),
            parse("(1 - w1^2)*x1^2 + (1 - w2^2)*x2^2 - 1", 2, 2),
        )
        b = derivative_bundle(spec, EvalPoint([0.3, -0.2], [0.0, 0.0]))
        assert np.allclose(b.Hxx, np.zeros((2, 2)))
        assert np.allclose(b.Hwx, np.eye(2))
        assert classify_point(b, TOL).kind == INTERIOR

    def test_trust_region_offset_instance(self):
        # Same quadratic model, stationary at a nonzero interior point:
        # the linear coefficients are set to -D x so grad f0 vanishes.
        spec = ProblemSpec(
            2, 6,
            parse("0.5*(w1*x1^2 + 2*w2*x1*x2 + w3*x2^2) + w4*x1 + w5*x2", 2, 6),
            parse("x1^2 + x2^2 - w6^2", 2, 6),
        )
        point = EvalPoint([0.2, 0.1], [1.0, 0.0, -1.0, -0.2, 0.1, 1.0])
        b = derivative_bundle(spec, point)
        tag = classify_point(b, TOL)
        assert tag.kind == INTERIOR
        assert verify_stationarity(b, tag, TOL)
        from aubincheck.conditions import verdict as _verdict

        assert _verdict(spec, point, TOL).lipschitz_like == "Yes"
