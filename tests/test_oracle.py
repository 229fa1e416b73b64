import dataclasses
import hashlib
import json
import math
import pathlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from aubincheck import oracle
from aubincheck.calculus import INTERIOR, EvalPoint, ToleranceConfig, problem_derivatives
from aubincheck.conditions import MODE_EXTENDED, MODE_STRICT, verdict
from aubincheck.errors import DimensionMismatch, DomainError, GridTooCoarse, InputError
from aubincheck.expr import ProblemSpec, evaluate, parse
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

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
NEWTON_GOLDEN = GOLDEN_DIR / "newton_steps.json"


def record_newton_steps(monkeypatch, n: int) -> dict:
    """Count and hash every Newton step, per branch, from now on.

    Wraps ``oracle._pinv_step``; the branch follows from the Jacobian, n x n
    on the interior and (n + 1) x (n + 1) on the boundary.  The hash runs
    over the C-order bytes of J, G and the step of each call, so a step that
    differs in its last bit shows.  Each row's bytes of J, G and step are
    also collected in a set: the distinct steps do not depend on how the
    rows are batched.  ``widest`` is the most rows of one call.
    """
    log = {
        b: {"calls": 0, "rows": 0, "widest": 0, "hash": hashlib.sha256(), "distinct": set()}
        for b in ("interior", "boundary")
    }
    step_fn = oracle._pinv_step

    def recording(J, G):
        step = step_fn(J, G)
        entry = log["interior" if J.shape[-1] == n else "boundary"]
        entry["calls"] += 1
        entry["rows"] += J.shape[0]
        entry["widest"] = max(entry["widest"], J.shape[0])
        for a in (J, G, step):
            entry["hash"].update(a.tobytes())
        for i in range(J.shape[0]):
            entry["distinct"].add(J[i].tobytes() + G[i].tobytes() + step[i].tobytes())
        return step

    monkeypatch.setattr(oracle, "_pinv_step", recording)
    return log


def distinct_digest(rows: set) -> str:
    h = hashlib.sha256()
    for r in sorted(rows):
        h.update(r)
    return h.hexdigest()


def newton_digests(log: dict) -> dict:
    return {
        b: {
            "calls": e["calls"],
            "rows": e["rows"],
            "sha256": e["hash"].hexdigest(),
            "distinct": len(e["distinct"]),
            "distinct_sha256": distinct_digest(e["distinct"]),
        }
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
        # At w = 1e-8 every grid point of moving_plane with |x1| <= 0.46 has
        # a first-order residual under the bar, and |F| up to ~1e-8 keeps it
        # labelled boundary; only (0, w) solves F = 0 within the bar.
        pf = problems["moving_plane"]
        s = sample_stationary_set(pf.spec, [1e-8], pf.grid, TOL, center=[0.0, 0.0])
        assert s.branches == ("boundary",)
        assert abs(evaluate(pf.spec.F, s.points[0], [1e-8])) <= ACCEPT_RESIDUAL
        assert s.points[0] == pytest.approx([0.0, 1e-8], abs=1e-12)

    def test_no_point_on_a_certified_empty_branch(self):
        # F lies in [1.2e-9, 1.2e-8] on the box: within tau_act of 0, so every
        # grid point is labelled boundary with residual 0, but |F| exceeds the
        # bar, and the certificate proves both branches empty.
        spec = ProblemSpec(1, 1, parse("-x1 + 0*w1", 1, 1), parse("0.0000000065 + 0.0000000105*x1", 1, 1))
        s = sample_stationary_set(spec, [0.0], GridSpec(), TOL)
        assert s.certified_empty == ("interior", "boundary")
        assert s.is_empty

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

    def test_grid_size_bound(self, problems):
        # More than 10^6 grid points per set is an input error, raised before
        # any allocation; 999999 points on one axis are still scanned.
        pf = problems["bilinear_ball"]
        with pytest.raises(InputError, match="1000001\\^2 points"):
            sample_stationary_set(pf.spec, pf.point.w, GridSpec(points_per_axis=1000001), TOL)
        with pytest.raises(InputError, match="1001\\^2 points"):
            oracle._build_grid(np.zeros(2), GridSpec(points_per_axis=1001), 2)
        assert oracle._build_grid(np.zeros(1), GridSpec(points_per_axis=999999), 1).shape == (1, 999999)


def record_scan_widths(monkeypatch) -> list:
    """The number of columns of every ``_kkt_batch`` call from now on."""
    widths = []
    kkt = oracle._kkt_batch

    def recording(derivs, X, W, tol):
        widths.append(X.shape[1])
        return kkt(derivs, X, W, tol)

    monkeypatch.setattr(oracle, "_kkt_batch", recording)
    return widths


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
            assert a.certified_empty == b.certified_empty
        return alone

    def test_scan_chunks_equal_each_set(self, problems, monkeypatch):
        # 61 parameters of an n = 1 fixture, whose grids have 201 points, take
        # three scan calls of at most _BLOCK_POINTS // 201 = 25 grids.  Among
        # them are sets with points, sets with both branches certified empty,
        # and sets with no points where only one branch is certified empty.
        pf = problems["circle_boundary"]
        ws = [[1.0 + 0.05 * k] for k in range(-30, 31)]
        widths = record_scan_widths(monkeypatch)
        sets = self._check(pf, ws)
        per = oracle._BLOCK_POINTS // 201
        assert per == 25
        # The refined points are checked in calls of at most _CHUNK_ROWS.
        assert [w for w in widths if w > oracle._CHUNK_ROWS] == [per * 201, per * 201, (61 - 2 * per) * 201]
        assert any(s.certified_empty == ("interior", "boundary") for s in sets)
        assert any(s.is_empty and len(s.certified_empty) == 1 for s in sets)
        assert any(not s.is_empty for s in sets)

    def test_seeds_exceed_one_batch(self, problems, monkeypatch):
        # w > 0 leaves the box without stationary points, and both branches
        # are certified empty there; w = 0 is the sampled half-line; w < 0 is
        # the single point x = 0, which each of its ~100 boundary seeds
        # reaches in one Newton step (the system is linear).  Together the
        # refined rows span several Newton batches.
        pf = problems["halfline_bilinear"]
        ws = [[0.05]] + [[0.01 * k] for k in range(-16, 17)]
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
    """The Newton steps of each fixture probe, pinned by count and hash.

    The refiner's pool bounds its working memory: no step batch exceeds
    ``_CHUNK_ROWS`` rows.
    """

    @pytest.mark.parametrize("name", PROBEABLE)
    def test_steps_match_golden(self, problems, monkeypatch, name):
        pf = problems[name]
        log = record_newton_steps(monkeypatch, pf.spec.n)
        aubin_probe(pf.spec, pf.point, pf.probe, pf.grid, pf.tolerances)
        got = newton_digests(log)
        assert got == json.loads(NEWTON_GOLDEN.read_text())[name]
        assert all(e["widest"] <= oracle._CHUNK_ROWS for e in log.values())


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

    @pytest.mark.parametrize("name", PROBEABLE)
    def test_no_point_solves_a_certified_system(self, problems, name):
        # Stated per branch system, not per label: an interior root within
        # tau_act of F = 0 is labelled boundary.  Every sampled point solves
        # some branch system at its parameter, each equation within the bar
        # (the boundary one at the point's lam), and none that the
        # certificate proves empty there.
        pf = problems[name]
        derivs = problem_derivatives(pf.spec)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridTooCoarse)
            r = aubin_probe(pf.spec, pf.point, pf.probe, pf.grid, pf.tolerances, keep_samples=True)
        for s in r.samples:
            W = np.repeat(np.array([s.w]).T, len(s), axis=1)
            Z = {"interior": s.points, "boundary": np.column_stack([s.points, s.lambdas])}
            solves = {
                b: np.all(np.abs(derivs.eval_rows(derivs.newton_systems[b][0], z.T, W)) <= ACCEPT_RESIDUAL, axis=0)
                for b, z in Z.items()
            }
            assert not any(np.any(solves[b]) for b in s.certified_empty), s.w
            assert np.all(solves["interior"] | solves["boundary"]), s.w

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

    @pytest.mark.parametrize(
        "x, delta0, cause",
        [
            # Every draw 1 + 1e-300 * r * u rounds to w = 1.
            (1.0, 1e-300, "every parameter draw rounds to the reference w"),
            # Off the reference point: S(w) = {sqrt(2 - w^2)} stays near 1,
            # farther than rho_u = 0.25 from x = 1.3.
            (1.3, 0.01, "no perturbed stationary set has a point within rho_u of the reference x"),
        ],
    )
    def test_nothing_measured(self, problems, x, delta0, cause):
        pf = problems["circle_boundary"]
        r = aubin_probe(pf.spec, EvalPoint([x], [1.0]), ProbeConfig(delta0=delta0, levels=2), pf.grid, TOL)
        assert r.flag == "Inconclusive"
        assert all(lv.n_ratio_pairs == 0 and lv.empty_value_events == 0 for lv in r.levels)
        assert r.flag_reason.startswith("nothing was measured") and r.flag_reason.endswith(cause)

    @pytest.mark.parametrize("name", PROBEABLE)
    def test_flag_rule_reproduces_golden(self, name):
        # The flag rule reads only the levels, the baseline and the
        # thresholds: applied to a golden report's, it gives its flag.
        doc = json.loads((GOLDEN_DIR / f"{name}_probe.json").read_text())["probe"]
        levels = [oracle.LevelStats(**lv) for lv in doc["levels"]]
        cfg = ProbeConfig(
            delta0=doc["delta0"],
            levels=len(levels),
            growth=doc["growth_threshold"],
            blowup=doc["blowup_threshold"],
            ratio_floor=doc["ratio_floor"],
            seed=doc["seed"],
        )
        got = oracle._flag(levels, doc["baseline_median"], cfg, False)
        assert got == (doc["flag"], doc["flag_reason"])

    # n = 2, d = 1: too few x entries, too many w entries, too many x
    # entries; then a nan x and an infinite w, which no call samples.
    @pytest.mark.parametrize(
        "x, w",
        [([0.0], [0.0]), ([0.0, 0.0], [0.0, 0.0]), ([0.0, 0.0, 0.0], [0.0]), ([math.nan, 0.0], [0.0]), ([0.0, 0.0], [math.inf])],
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda spec, x, w: kkt_residual(spec, x, w, TOL),
            lambda spec, x, w: aubin_probe(spec, EvalPoint(x, w), ProbeConfig(levels=2, samples=8)),
            lambda spec, x, w: sample_stationary_set(spec, w, GridSpec(), TOL, center=x),
        ],
        ids=["kkt_residual", "aubin_probe", "sample_stationary_set"],
    )
    def test_point_dimensions(self, call, x, w):
        spec = ProblemSpec(2, 1, parse("x1^2 + x2^2 - w1*x1", 2, 1), parse("x1 - 5", 2, 1))
        if (len(x), len(w)) == (2, 1):
            error, expected = DomainError, "the point has a non-finite entry"
        else:
            error, expected = DimensionMismatch, f"point has dimensions ({len(x)}, {len(w)}), problem expects (2, 1)"
        with pytest.raises(error, match=re.escape(expected)):
            call(spec, x, w)

    @pytest.mark.parametrize(
        "call",
        [kkt_residual, lambda spec, x, w: sample_stationary_set(spec, w, center=x)],
        ids=["kkt_residual", "sample_stationary_set"],
    )
    def test_nested_parameter(self, call):
        # A point is a pair of vectors; a nested w is not flattened.
        spec = ProblemSpec(2, 1, parse("x1^2 + x2^2 - w1*x1", 2, 1), parse("x1 - 5", 2, 1))
        with pytest.raises(DimensionMismatch, match=re.escape("point has shapes (2,) and (1, 1), expected vectors")):
            call(spec, [0.0, 0.0], [[0.0]])

    def test_levels_bound(self):
        assert ProbeConfig(levels=oracle._MAX_LEVELS).levels == 64
        with pytest.raises(ValueError, match="at most 64 radius levels"):
            ProbeConfig(levels=65)

    def test_seed_bound(self):
        # Negative seeds work; the probe draws directions from seed + level.
        for seed in (-(2**63), -1, 2**63 - 1):
            assert ProbeConfig(seed=seed).seed == seed
            assert len(oracle._directions(2, 4, seed + oracle._MAX_LEVELS - 1)) == 4
        for seed in (-(2**63) - 1, 2**63, 10**400):
            with pytest.raises(ValueError, match=re.escape("seed must lie in [-2^63, 2^63)")):
                ProbeConfig(seed=seed)

    def test_scan_calls_stay_chunk_bounded(self, problems, monkeypatch):
        # The grid scan shares _kkt_batch calls between sets only up to
        # _BLOCK_POINTS points, so the working memory stays bounded.
        widths = record_scan_widths(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridTooCoarse)
            for name in ("circle_boundary", "moving_plane"):
                pf = problems[name]
                aubin_probe(pf.spec, pf.point, pf.probe, pf.grid, TOL)
        assert max(widths) <= oracle._BLOCK_POINTS


def probe_by_level(spec, point, cfg, grid, tol):
    """The Aubin probe as one stream per radius level: sample the level's new
    sets, then polish the level's pairs.  ``aubin_probe`` must agree with it
    on every report, sample and warning."""
    derivs = problem_derivatives(spec)
    x_center, w_bar = point.arrays()
    rho_u = cfg.rho_u if cfg.rho_u is not None else grid.r_x / 2.0
    polisher = oracle._Refiner(derivs, dataclasses.replace(grid, newton_cap=min(grid.newton_cap, 10)), tol, x_center)
    sampled, unresolved, levels = {}, True, []
    for k in range(cfg.levels):
        delta = cfg.delta0 * 2.0 ** (-k)
        radii = oracle._relative_radii(k, cfg.samples)
        dirs = oracle._directions(spec.d, len(radii), cfg.seed + k)
        pts = [w_bar + delta * r * u for r, u in zip(radii, dirs)] + [w_bar]
        keys = [tuple(float(v) for v in wv) for wv in pts]
        bar = len(pts) - 1
        new = {}
        for i in [0, bar] + list(range(1, bar)):
            if keys[i] not in sampled:
                new.setdefault(keys[i], pts[i])
        if new:
            for kw, S in zip(new, oracle._sample_sets(derivs, list(new.values()), x_center, grid, tol)):
                sampled[kw] = (S, S.points[np.linalg.norm(S.points - x_center[None, :], axis=1) <= rho_u])
        unresolved = unresolved and all(kw == keys[bar] for kw in keys)
        pairs = [p for i in range(bar) for p in ((bar, i), (i, bar))]
        pairs += [p for i in range(0, bar - 1, 4) for p in ((i, i + 1), (i + 1, i))]
        events, ratio_pairs, queries = [], [], []
        for base, pert in pairs:
            dist_w = float(np.linalg.norm(pts[pert] - pts[base]))
            near = sampled[keys[pert]][1]
            if dist_w == 0.0 or near.shape[0] == 0:
                continue
            S_base = sampled[keys[base]][0]
            if S_base.is_empty:
                events.append((base, pert))
            else:
                ratio_pairs.append((base, pert, dist_w, near))
                queries.append((near, S_base))
        peaks = []
        for (base, pert, dist_w, near), dists in zip(ratio_pairs, oracle._set_distances(queries, polisher)):
            ratios = dists / dist_w
            i_max = int(np.argmax(ratios))
            peaks.append((float(ratios[i_max]), base, pert, near[i_max], float(dists[i_max])))
        if k == 0:
            significant = [p[0] for p in peaks if p[0] > cfg.ratio_floor]
            baseline = float(np.median(significant)) if significant else None
        worst, worst_pair = None, None
        if peaks:
            worst, base, pert, x_point, distance = max(peaks, key=lambda p: p[0])
            worst_pair = {
                "w_base": [float(v) for v in pts[base]],
                "w_perturbed": [float(v) for v in pts[pert]],
                "x_point": [float(v) for v in x_point],
                "distance": distance,
                "ratio": worst,
            }
        elif events:
            base, pert = events[0]
            worst_pair = {
                "w_base": [float(v) for v in pts[base]],
                "w_perturbed": [float(v) for v in pts[pert]],
                "event": "empty_base_set",
                "ratio": None,
            }
        levels.append(oracle.LevelStats(delta, len(pairs), len(peaks), worst, len(events), worst_pair))
    flag, reason = oracle._flag(levels, baseline, cfg, unresolved)
    sets = [S for S, _ in sampled.values()]
    return oracle.ProbeReport(
        flag, reason, levels, baseline, cfg.seed, cfg.delta0, rho_u, cfg.growth, cfg.blowup, cfg.ratio_floor,
        tuple(dict.fromkeys(msg for S in sets for msg in S.warnings)), sets,
    )


class TestOneStreamProbe:
    """One probe samples all its sets in one stream and polishes all its
    pairs in another; the result is that of a stream per radius level."""

    @pytest.mark.parametrize("samples", [8, 20])
    @pytest.mark.parametrize("levels", [2, 5])
    @pytest.mark.parametrize("name", ["circle_boundary", "quartic_cuberoot", "moving_plane"])
    def test_equals_probe_by_level(self, problems, monkeypatch, name, levels, samples):
        pf = problems[name]
        cfg = dataclasses.replace(pf.probe, levels=levels, samples=samples)
        calls = {"_sample_sets": 0, "_set_distances": 0}

        def counting(fn_name):
            fn = getattr(oracle, fn_name)

            def wrapper(*args):
                calls[fn_name] += 1
                return fn(*args)

            return wrapper

        for fn_name in calls:
            monkeypatch.setattr(oracle, fn_name, counting(fn_name))
        with warnings.catch_warnings(record=True) as got_warned:
            warnings.simplefilter("always")
            got = aubin_probe(pf.spec, pf.point, cfg, pf.grid, pf.tolerances, keep_samples=True)
        assert calls == {"_sample_sets": 1, "_set_distances": 1}
        with warnings.catch_warnings(record=True) as ref_warned:
            warnings.simplefilter("always")
            ref = probe_by_level(pf.spec, pf.point, cfg, pf.grid, pf.tolerances)

        assert got.to_dict() == ref.to_dict()
        assert [(w.category, str(w.message)) for w in got_warned] == [(w.category, str(w.message)) for w in ref_warned]
        assert len(got.samples) == len(ref.samples)
        for a, b in zip(got.samples, ref.samples):
            assert a.w == b.w
            assert np.array_equal(a.points, b.points)
            assert np.array_equal(a.residuals, b.residuals)
            assert np.array_equal(a.lambdas, b.lambdas)
            assert a.branches == b.branches
            assert a.warnings == b.warnings

    def test_stream_memory(self, problems):
        # The stream holds its per-row state and no more.  After a warm-up
        # probe, moving_plane at 4 levels of 32 samples peaked at 1.62 MiB
        # traced on a 2-CPU VM (Python 3.11, numpy 2.4), against 0.76 MiB
        # with one stream per radius level; the ceiling is 1.5 times that.
        pf = problems["moving_plane"]
        aubin_probe(pf.spec, pf.point, dataclasses.replace(pf.probe, levels=2, samples=8), pf.grid, pf.tolerances)
        tracemalloc.start()
        try:
            aubin_probe(pf.spec, pf.point, dataclasses.replace(pf.probe, levels=4, samples=32), pf.grid, pf.tolerances)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.45 * 2**20


class TestMergeKeys:
    """The refiner merges rows whose keys (iterate, parameter, step count)
    agree bit for bit."""

    def test_equal_rows_merge(self):
        key = np.array([[0.5, 1.0, 0.0], [0.25, 1.0, 0.0], [0.5, 1.0, 0.0], [0.25, 1.0, 0.0]])
        assert oracle._first_equal(key).tolist() == [0, 1, 0, 1]

    def test_signed_zeros_do_not_merge(self):
        assert oracle._first_equal(np.array([[0.0, 1.0, 2.0], [-0.0, 1.0, 2.0]])) is None
        key = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]])
        assert oracle._first_equal(key).tolist() == [0, 1, 0]

    def test_equal_checksums_of_distinct_rows(self):
        # Column k weighs (2k + 1) times one constant, so 3 more in the bits
        # of column 0 and 1 less in column 1 keep a row's checksum.  The exact
        # test then tells the first two rows apart and merges the third.
        bits = np.array([[1.0, 2.0]]).view(np.uint64)
        twin = bits.copy()
        twin[0, 0] += np.uint64(3)
        twin[0, 1] -= np.uint64(1)
        key = np.vstack([bits, twin, bits]).view(float)
        assert oracle._first_equal(key).tolist() == [0, 1, 0]
        assert oracle._first_equal(key[:2]) is None


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
