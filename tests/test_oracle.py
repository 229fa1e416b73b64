import dataclasses
import hashlib
import json
import math
import pathlib
import warnings

import numpy as np
import pytest

from aubincheck import oracle
from aubincheck.calculus import INTERIOR, EvalPoint, ToleranceConfig, problem_derivatives
from aubincheck.conditions import MODE_EXTENDED, MODE_STRICT, verdict
from aubincheck.errors import DimensionMismatch, GridTooCoarse
from aubincheck.expr import ProblemSpec, parse
from aubincheck.oracle import (
    ACCEPT_RESIDUAL,
    GridSpec,
    ProbeConfig,
    aubin_probe,
    kkt_residual,
    sample_stationary_set,
    write_samples_csv,
)
from conftest import PROBEABLE

TOL = ToleranceConfig()

NEWTON_GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "newton_steps.json"


def record_newton_steps(monkeypatch, n: int) -> dict:
    """Count and hash every Newton step, per branch, from now on.

    Wraps ``oracle._pinv_step``; the branch follows from the Jacobian, n x n
    on the interior and (n + 1) x (n + 1) on the boundary.  The hash runs
    over the C-order bytes of J, G and the step of each call, so a step that
    differs in its last bit shows.
    """
    log = {b: {"calls": 0, "rows": 0, "hash": hashlib.sha256()} for b in ("interior", "boundary")}
    step_fn = oracle._pinv_step

    def recording(J, G):
        step = step_fn(J, G)
        entry = log["interior" if J.shape[-1] == n else "boundary"]
        entry["calls"] += 1
        entry["rows"] += J.shape[0]
        for a in (J, G, step):
            entry["hash"].update(a.tobytes())
        return step

    monkeypatch.setattr(oracle, "_pinv_step", recording)
    return log


def newton_digests(log: dict) -> dict:
    return {
        b: {"calls": e["calls"], "rows": e["rows"], "sha256": e["hash"].hexdigest()}
        for b, e in log.items()
    }


class TestKktResidual:
    def test_circle_reference_stationary(self, problems):
        pf = problems["circle_boundary"]
        assert kkt_residual(pf.spec, [1.0], [1.0], TOL) <= 1e-12

    def test_interior_gradient_norm(self):
        spec = ProblemSpec(1, 1, parse("x1", 1, 1), parse("x1 - 1", 1, 1))
        assert kkt_residual(spec, [0.0], [0.0], TOL) == pytest.approx(1.0)

    def test_infeasible_is_infinite(self):
        spec = ProblemSpec(1, 1, parse("x1^2", 1, 1), parse("x1", 1, 1))
        assert math.isinf(kkt_residual(spec, [1.0], [0.0], TOL))

    def test_boundary_clamps_lambda(self, problems):
        # halfline_bilinear at w > 0: best lambda clamps to 0, residual |w|.
        pf = problems["halfline_bilinear"]
        assert kkt_residual(pf.spec, [0.0], [0.5], TOL) == pytest.approx(0.5)


class TestSampleStationarySet:
    def test_ball_manifold_fully_sampled(self, problems):
        pf = problems["bilinear_ball"]
        s = sample_stationary_set(pf.spec, [0.0, 0.0], pf.grid, TOL, center=[0.0, 0.0])
        # Whole box lies inside the unit ball: every grid node is stationary.
        assert len(s) == 61 * 61

    def test_cuberoot_single_point(self, problems):
        pf = problems["quartic_cuberoot"]
        s = sample_stationary_set(pf.spec, [0.001], pf.grid, TOL, center=[0.0])
        assert len(s) == 1
        assert s.points[0, 0] == pytest.approx(0.001 ** (2.0 / 3.0), abs=1e-9)

    def test_moving_plane_single_point(self, problems):
        pf = problems["moving_plane"]
        s = sample_stationary_set(pf.spec, [0.01], pf.grid, TOL, center=[0.0, 0.0])
        assert len(s) == 1
        assert abs(s.points[0, 0]) <= 1e-3
        assert s.points[0, 1] == pytest.approx(0.01, abs=1e-6)

    def test_moving_plane_base_line(self, problems):
        pf = problems["moving_plane"]
        s = sample_stationary_set(pf.spec, [0.0], pf.grid, TOL, center=[0.0, 0.0])
        assert len(s) == 61
        assert np.allclose(s.points[:, 1], 0.0)

    def test_halfline_bilinear_cases(self, problems):
        pf = problems["halfline_bilinear"]
        # At w > 0 both branches are certified empty: no point, no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = sample_stationary_set(pf.spec, [0.05], pf.grid, TOL, center=[0.0])
        assert s.is_empty
        assert s.warnings == ()
        assert s.certified_empty == ("interior", "boundary")
        s = sample_stationary_set(pf.spec, [-0.05], pf.grid, TOL, center=[0.0])
        assert len(s) == 1 and s.points[0, 0] == pytest.approx(0.0, abs=1e-12)
        s = sample_stationary_set(pf.spec, [0.0], pf.grid, TOL, center=[0.0])
        assert len(s) == 101  # the sampled half-line x <= 0

    def test_residual_bound_invariant(self, problems):
        for name in ("circle_boundary", "cubic_pitchfork", "halfline_quadratic"):
            pf = problems[name]
            x, w = pf.point.arrays()
            for shift in (0.0, 0.03, -0.07):
                s = sample_stationary_set(pf.spec, w + shift, pf.grid, TOL, center=x)
                for pt in s.points:
                    assert kkt_residual(pf.spec, pt, w + shift, TOL) <= ACCEPT_RESIDUAL

    def test_reference_point_recovered(self, problems):
        # x itself reappears in the sample at the reference parameter.
        for name in ("circle_boundary", "moving_plane", "halfline_quadratic", "cubic_pitchfork"):
            pf = problems[name]
            x, w = pf.point.arrays()
            s = sample_stationary_set(pf.spec, w, pf.grid, TOL, center=x)
            spacing = pf.grid.spacing(pf.spec.n)
            d = np.min(np.linalg.norm(s.points - x[None, :], axis=1))
            assert d <= spacing / 2.0, name

    def test_boundary_refinement_soundness(self, problems):
        pf = problems["circle_boundary"]
        from aubincheck.expr import evaluate

        s = sample_stationary_set(pf.spec, [0.93], pf.grid, TOL, center=[1.0])
        assert len(s) == 1 and s.branches[0] == "boundary"
        assert abs(evaluate(pf.spec.F, s.points[0], [0.93])) <= 1e-9
        assert s.lambdas[0] >= -TOL.tau_zero

    def test_sorted_lexicographically(self, problems):
        pf = problems["cubic_pitchfork"]
        s = sample_stationary_set(pf.spec, [0.05], pf.grid, TOL, center=[0.0])
        pts = [tuple(p) for p in s.points]
        assert pts == sorted(pts)
        assert len(pts) == 2  # the two symmetric stationary points

    def test_dimension_guard(self):
        spec = ProblemSpec(3, 1, parse("x1^2+x2^2+x3^2", 3, 1), parse("x1 - 1", 3, 1))
        with pytest.raises(DimensionMismatch):
            sample_stationary_set(spec, [0.0], GridSpec(), TOL)


class TestBatchedSampling:
    """Sampling many parameters at once equals sampling each alone."""

    def _check(self, pf, ws):
        x, _ = pf.point.arrays()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridTooCoarse)
            alone = [sample_stationary_set(pf.spec, w, pf.grid, TOL, center=x) for w in ws]
            batch = oracle._sample_sets(
                problem_derivatives(pf.spec), [np.asarray(w, dtype=float) for w in ws], x, pf.grid, TOL
            )
        assert len(batch) == len(alone)
        for a, b in zip(alone, batch):
            assert a.w == b.w
            assert np.array_equal(a.points, b.points)
            assert np.array_equal(a.residuals, b.residuals)
            assert np.array_equal(a.lambdas, b.lambdas)
            assert a.branches == b.branches
            assert a.warnings == b.warnings
        return alone

    def test_seeds_exceed_one_batch(self, problems, monkeypatch):
        # w > 0 leaves the box without stationary points, and both branches
        # are certified empty there; w = 0 is the sampled half-line; w < 0 is
        # the single point x = 0, which each of its ~100 boundary seeds
        # reaches in one Newton step (the system is linear).  Together the
        # refined rows span several Newton batches.
        pf = problems["halfline_bilinear"]
        ws = [[0.05]] + [[0.01 * k] for k in range(-8, 17)]
        sets = self._check(pf, ws)
        assert sets[0].is_empty
        log = record_newton_steps(monkeypatch, 1)
        oracle._sample_sets(
            problem_derivatives(pf.spec), [np.asarray(w, dtype=float) for w in ws], pf.point.arrays()[0], pf.grid, TOL
        )
        assert log["boundary"]["rows"] > oracle._CHUNK_ROWS

    @pytest.mark.parametrize("chunk", [7, oracle._CHUNK_ROWS])
    @pytest.mark.parametrize(
        "name, ws",
        [
            ("circle_boundary", [[1.0], [0.93], [1.07], [0.5]]),
            ("cubic_pitchfork", [[0.0], [0.05], [-0.02]]),
            ("moving_plane", [[0.0], [0.01], [-0.03]]),
        ],
    )
    def test_sets_share_chunks(self, problems, monkeypatch, name, ws, chunk):
        monkeypatch.setattr(oracle, "_CHUNK_ROWS", chunk)
        self._check(problems[name], ws)

    @pytest.mark.parametrize("chunk", [7, oracle._CHUNK_ROWS])
    def test_polish_batch_equals_each_pair(self, problems, monkeypatch, chunk):
        # The probe polishes all (base, perturbed) pairs of a level together,
        # each row at its own base parameter.
        monkeypatch.setattr(oracle, "_CHUNK_ROWS", chunk)
        pf = problems["quartic_cuberoot"]
        x, _ = pf.point.arrays()
        polish_grid = dataclasses.replace(pf.grid, newton_cap=10)
        polisher = oracle._Refiner(problem_derivatives(pf.spec), polish_grid, TOL, x)
        sets = [
            sample_stationary_set(pf.spec, [w], pf.grid, TOL, center=x)
            for w in (0.0, 0.001, -0.002, 0.004, -0.0005)
        ]
        queries = [(p.points, b) for p in sets for b in sets if p is not b]
        batch = oracle._set_distances(queries, polisher)
        assert len(batch) == len(queries)
        for q, dists in zip(queries, batch):
            assert np.array_equal(oracle._set_distances([q], polisher)[0], dists)


class TestNewtonPath:
    """The Newton steps of each fixture probe, pinned by count and hash."""

    @pytest.mark.parametrize("name", PROBEABLE)
    def test_steps_match_golden(self, problems, monkeypatch, name):
        pf = problems[name]
        log = record_newton_steps(monkeypatch, pf.spec.n)
        aubin_probe(pf.spec, pf.point, pf.probe, pf.grid, pf.tolerances)
        got = newton_digests(log)
        assert got == json.loads(NEWTON_GOLDEN.read_text())[name]


class TestEmptyBranchCertificate:
    """Rows of a branch whose system provably has no root in the box are not
    refined."""

    def test_certificate_is_exact(self, monkeypatch):
        # The same problem twice: grad_x f0 is w1 in both, but the second
        # tree also mentions x.  The enclosure sees through it, so neither
        # refines an interior row at w != 0, and both give the same sets.
        plain = ProblemSpec(1, 1, parse("x1*w1", 1, 1), parse("x1", 1, 1))
        with_x = ProblemSpec(1, 1, parse("x1*w1 + (x1 - x1)^2", 1, 1), parse("x1", 1, 1))
        log = record_newton_steps(monkeypatch, 1)
        for w in (0.0, 0.05, -0.05):
            sets = []
            for spec in (plain, with_x):
                before = log["interior"]["calls"]
                sets.append(sample_stationary_set(spec, [w], GridSpec(), TOL))
                if w != 0.0:
                    assert log["interior"]["calls"] == before
            a, b = sets
            assert np.array_equal(a.points, b.points)
            assert np.array_equal(a.residuals, b.residuals)
            assert np.array_equal(a.lambdas, b.lambdas)
            assert a.branches == b.branches
            assert a.warnings == b.warnings

    @pytest.mark.parametrize(
        "f0, F, branch",
        [("(x1 - w1)^2", "x1 - 10", "interior"), ("-x1", "x1 - w1", "boundary")],
    )
    def test_root_at_the_box_edge(self, f0, F, branch):
        # The only root is x1 = w1.  Acceptance reaches r_x plus one spacing
        # (0.505) from the centre, so the root at 0.504 is kept and its
        # branch is not certified; at 0.506 both branches are.
        spec = ProblemSpec(1, 1, parse(f0, 1, 1), parse(F, 1, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inside = sample_stationary_set(spec, [0.504], GridSpec(), TOL)
            outside = sample_stationary_set(spec, [0.506], GridSpec(), TOL)
        assert inside.branches == (branch,) and inside.points[0, 0] == pytest.approx(0.504, abs=1e-12)
        assert branch not in inside.certified_empty
        assert outside.is_empty and outside.certified_empty == ("interior", "boundary")

    @pytest.mark.parametrize(
        "name",
        ["bilinear_ball", "circle_boundary", "cubic_pitchfork", "halfline_bilinear", "product_constraint", "quartic_cuberoot"],
    )
    def test_probe_unchanged_without_certificate(self, problems, monkeypatch, tmp_path, name):
        # The fixtures where the certificate fires probe to the same report
        # and CSV with every branch refined; only the warnings may differ.
        pf = problems[name]
        certify = oracle._empty_branches
        fired = []

        def recording(*args):
            out = certify(*args)
            fired.extend(e for e in out if e)
            return out

        def probe():
            r = aubin_probe(pf.spec, pf.point, pf.probe, pf.grid, pf.tolerances, keep_samples=True)
            write_samples_csv(r.samples, tmp_path / "samples.csv", pf.spec.n, pf.spec.d)
            doc = r.to_dict()
            del doc["warnings"]
            return json.dumps(doc, sort_keys=True), (tmp_path / "samples.csv").read_bytes()

        monkeypatch.setattr(oracle, "_empty_branches", recording)
        certified = probe()
        assert fired
        monkeypatch.setattr(oracle, "_empty_branches", lambda derivs, W, *rest: [()] * W.shape[1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridTooCoarse)
            assert probe() == certified


class TestAubinProbe:
    def test_violation_by_growth(self, problems):
        pf = problems["quartic_cuberoot"]
        r = aubin_probe(pf.spec, pf.point, pf.probe, pf.grid, TOL)
        assert r.flag == "Violation"
        worsts = [lv.worst_ratio for lv in r.levels]
        assert all(
            worsts[i + 1] >= r.growth * worsts[i] for i in range(len(worsts) - 1)
        )
        assert worsts[-1] > r.blowup

    def test_consistent_flag(self, problems):
        pf = problems["halfline_quadratic"]
        r = aubin_probe(pf.spec, pf.point, pf.probe, pf.grid, TOL)
        assert r.flag == "Consistent"
        assert all(lv.empty_value_events == 0 for lv in r.levels)

    def test_violation_by_empty_values(self, problems):
        pf = problems["halfline_bilinear"]
        r = aubin_probe(pf.spec, pf.point, pf.probe, pf.grid, TOL)
        assert r.flag == "Violation"
        assert all(lv.empty_value_events > 0 for lv in r.levels)
        assert "empty-value" in r.flag_reason

    def test_determinism(self, problems):
        pf = problems["halfline_bilinear"]
        r1 = aubin_probe(pf.spec, pf.point, pf.probe, pf.grid, TOL)
        r2 = aubin_probe(pf.spec, pf.point, pf.probe, pf.grid, TOL)
        assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(r2.to_dict(), sort_keys=True)

    def test_seed_recorded(self, problems):
        pf = problems["halfline_quadratic"]
        cfg = ProbeConfig(seed=12345)
        r = aubin_probe(pf.spec, pf.point, cfg, pf.grid, TOL)
        assert r.seed == 12345

    def test_dimension_guard(self, problems):
        pf = problems["trust_region"]
        with pytest.raises(DimensionMismatch):
            aubin_probe(pf.spec, pf.point, pf.probe, pf.grid, TOL)


class TestImplicitFunctionCase:
    """An interior point with invertible Hxx: the stationary map is the
    implicit function x(w) = -Hxx^-1 Hwx^T w near it, so the verdict is Yes
    and every probed ratio is the modulus |Hxx^-1 Hwx^T|."""

    @pytest.mark.parametrize(
        "n, f0, F, modulus",
        [
            (1, "x1^2 - w1*x1", "x1 - 1", 0.5),
            (2, "x1^2 + x1*x2 + x2^2 - w1*x2", "x1 + x2 - 1", math.sqrt(5.0) / 3.0),
        ],
    )
    def test_yes_and_consistent(self, n, f0, F, modulus):
        spec = ProblemSpec(n, 1, parse(f0, n, 1), parse(F, n, 1))
        point = EvalPoint([0.0] * n, [0.0])
        for mode in (MODE_EXTENDED, MODE_STRICT):
            v = verdict(spec, point, TOL, mode)
            assert v.case.kind == INTERIOR
            assert (v.lipschitz_like, v.theorem_applied) == ("Yes", "Thm3.1(b,c)")
        r = aubin_probe(spec, point, ProbeConfig(), GridSpec(), TOL)
        assert r.flag == "Consistent"
        assert r.warnings == ()
        for lv in r.levels:
            assert lv.empty_value_events == 0
            assert lv.worst_ratio == pytest.approx(modulus, rel=1e-9)


class TestOverflowIsQuiet:
    # exp(x1) overflows far out on a Newton path; the squared residual then
    # is inf, which the line search rejects without a numpy warning.
    SPEC = ProblemSpec(
        2,
        2,
        parse("exp(x1) - x1 + x2^2 - w1*x1 - w2*x2", 2, 2),
        parse("x1^2 + x2^2 - 4", 2, 2),
    )

    def test_probe_raises_no_runtime_warning(self):
        point = EvalPoint([0.0, 0.0], [0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            r = aubin_probe(self.SPEC, point, ProbeConfig(), GridSpec(), TOL)
        assert r.flag == "Consistent"


class TestCsvDump:
    def test_columns_and_rows(self, problems, tmp_path):
        pf = problems["halfline_quadratic"]
        r = aubin_probe(pf.spec, pf.point, pf.probe, pf.grid, TOL, keep_samples=True)
        out = tmp_path / "samples.csv"
        write_samples_csv(r.samples, out, pf.spec.n, pf.spec.d)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "w1,x1,residual,branch,lambda"
        assert len(lines) > 100
        first = lines[1].split(",")
        assert first[3] in ("interior", "boundary")
        assert float(first[2]) <= ACCEPT_RESIDUAL


class TestFreeDirectionManifolds:
    def test_line_manifold_probe_consistent(self):
        # Degenerate boundary problem whose stationary sets are parallel
        # lines translating at unit speed: the probe must see modulus ~1.
        spec = ProblemSpec(2, 1, parse("x1^2", 2, 1), parse("x1 + w1", 2, 1))
        point = EvalPoint([0.0, 0.0], [0.0])
        s = sample_stationary_set(spec, [0.05], GridSpec(), TOL, center=[0.0, 0.0])
        assert len(s) == 61
        assert np.allclose(s.points[:, 0], -0.05)
        r = aubin_probe(spec, point, ProbeConfig(), GridSpec(), TOL)
        assert r.flag == "Consistent"
