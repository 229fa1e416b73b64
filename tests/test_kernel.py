import hashlib
import json
import pathlib

import numpy as np
import pytest

from aubincheck.calculus import ToleranceConfig
from aubincheck.errors import UnsupportedConePattern
from aubincheck.kernel import (
    NONNEG,
    STRICT_NEGATIVE,
    STRICT_POSITIVE,
    ConeConstraint,
    SubspaceBasis,
    cone_section,
    contained_in_kernel,
    null_space,
)

TOL = ToleranceConfig()

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


class TestNullSpace:
    def test_row_vector(self):
        # ker [0 2] is the first axis.
        B = null_space(np.array([[0.0, 2.0]]))
        assert B.dim == 1
        assert np.allclose(np.abs(B.basis.ravel()), [1.0, 0.0])

    def test_identity_trivial(self):
        assert null_space(np.eye(3)).is_trivial

    def test_alt_matrix_kernel(self):
        B = null_space(np.array([[-4.0, 1.0]]))
        assert B.dim == 1
        v = B.basis.ravel()
        assert np.allclose(v, np.array([1.0, 4.0]) / np.sqrt(17.0))

    def test_zero_matrix_full_space(self):
        B = null_space(np.zeros((2, 3)))
        assert B.dim == 3

    def test_random_invariants(self):
        """500 random matrices up to 8x8: residual, orthonormality, rank-nullity."""
        rng = np.random.default_rng(42)
        for trial in range(500):
            r = int(rng.integers(1, 9))
            m = int(rng.integers(1, 9))
            if trial % 2 == 0:
                A = rng.standard_normal((r, m))
            else:
                k = int(rng.integers(0, min(r, m) + 1))
                A = rng.standard_normal((r, k)) @ rng.standard_normal((k, m)) if k else np.zeros((r, m))
            B = null_space(A, TOL)
            if B.dim:
                assert np.max(np.abs(A @ B.basis)) <= 1e-8 * (1.0 + np.max(np.abs(A)))
                assert np.max(np.abs(B.basis.T @ B.basis - np.eye(B.dim))) <= 1e-10
            rank = np.linalg.matrix_rank(A, tol=1e-9 * max(r, m) * max(np.linalg.svd(A, compute_uv=False)[0], 1e-300))
            assert rank + B.dim == m

    def test_deterministic_sign(self):
        A = np.array([[1.0, 1.0]])
        B1 = null_space(A).basis
        B2 = null_space(A.copy()).basis
        assert np.array_equal(B1, B2)
        assert B1[np.argmax(np.abs(B1[:, 0])), 0] > 0


class TestContainedInKernel:
    def test_ball_necessity_fails(self):
        B = null_space(np.zeros((2, 2)))  # all of R^2
        assert not contained_in_kernel(B, np.eye(2))

    def test_trivial_subspace_vacuous(self):
        B = SubspaceBasis(3, np.zeros((3, 0)))
        assert contained_in_kernel(B, np.ones((2, 3)))

    def test_moving_plane_inclusion(self):
        B = SubspaceBasis(3, np.array([[1.0], [0.0], [0.0]]))
        assert contained_in_kernel(B, np.array([[0.0, 0.0, -1.0]]))

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = int(rng.integers(1, 7))
            A = rng.standard_normal((int(rng.integers(1, 5)), m))
            B = null_space(A, TOL)
            M = rng.standard_normal((int(rng.integers(1, 5)), m))
            if rng.random() < 0.5 and B.dim:
                # Force containment: make M annihilate span(B).
                M = M - (M @ B.basis) @ B.basis.T
            verdict = contained_in_kernel(B, M, TOL)
            sampled = True
            for _ in range(100):
                t = rng.standard_normal(B.dim) if B.dim else np.zeros(0)
                z = B.basis @ t if B.dim else np.zeros(m)
                if np.linalg.norm(M @ z) > 1e-6 * (1.0 + np.linalg.norm(t)):
                    sampled = False
                    break
            assert verdict == sampled


def _sphere_span_dim(K: SubspaceBasis, constraints, n_samples=10_000, seed=0):
    """Brute-force oracle: span dimension of the constrained section of K."""
    if K.is_trivial:
        ok0 = all(c.sense == NONNEG for c in constraints)
        return 0 if ok0 else None  # None encodes "empty section"
    rng = np.random.default_rng(seed)
    T = rng.standard_normal((n_samples, K.dim))
    T /= np.linalg.norm(T, axis=1, keepdims=True)
    Z = T @ K.basis.T
    mask = np.ones(n_samples, dtype=bool)
    for c in constraints:
        vals = Z @ c.vector()
        if c.sense == STRICT_POSITIVE:
            mask &= vals > 1e-12
        elif c.sense == STRICT_NEGATIVE:
            mask &= vals < -1e-12
        else:
            mask &= vals >= -1e-12
    accepted = Z[mask]
    if accepted.shape[0] == 0:
        # 0 always satisfies pure-nonneg patterns even when sampling misses.
        return 0 if all(c.sense == NONNEG for c in constraints) else None
    return int(np.linalg.matrix_rank(accepted, tol=1e-8))


def cone_span(K: SubspaceBasis, constraints, tol=TOL):
    """The cone section of K, asked through rows whose kernel is K."""
    M = null_space(K.basis.T, tol).basis.T
    return cone_section(M, np.zeros(M.shape[0]), constraints, tol)


def _result_dim(result):
    if result.empty:
        return None
    return result.span.dim


class TestConeSpan:
    def _delta1(self, m):
        c = np.zeros(m)
        c[0] = 1.0
        e = np.zeros(m)
        e[-1] = 1.0
        return (ConeConstraint(c, STRICT_POSITIVE), ConeConstraint(e, NONNEG))

    def test_positively_collinear_spans(self):
        K = SubspaceBasis(2, np.array([[1.0], [4.0]]) / np.sqrt(17.0))
        result = cone_span(K, self._delta1(2), TOL)
        assert not result.empty
        assert result.span.dim == 1

    def test_negatively_collinear_empty(self):
        K = SubspaceBasis(2, np.array([[1.0], [-2.0]]) / np.sqrt(5.0))
        result = cone_span(K, self._delta1(2), TOL)
        assert result.empty

    def test_full_plane_halfspace_spans(self):
        K = SubspaceBasis(2, np.eye(2))
        result = cone_span(K, (ConeConstraint([1.0, 0.0], STRICT_NEGATIVE),), TOL)
        assert not result.empty and result.span.dim == 2

    def test_delta3_never_empty(self):
        K = SubspaceBasis(2, np.array([[1.0], [0.0]]))
        cons = (ConeConstraint([1.0, 0.0], NONNEG), ConeConstraint([0.0, 1.0], NONNEG))
        result = cone_span(K, cons, TOL)
        assert not result.empty and result.span.dim == 1

    def test_delta3_negatively_collinear_slice(self):
        # On K = R^2 with e = -c the section is the line c.z = 0.
        K = SubspaceBasis(2, np.eye(2))
        cons = (ConeConstraint([1.0, 1.0], NONNEG), ConeConstraint([-1.0, -1.0], NONNEG))
        result = cone_span(K, cons, TOL)
        assert not result.empty and result.span.dim == 1
        z = result.span.basis[:, 0]
        assert abs(z[0] + z[1]) <= 1e-12

    def test_long_step_along_a_small_singular_value(self):
        # sigma = 1.5e-9 is under the rank cutoff, so ker M is the second axis;
        # the step z = (0, 1000) leaves M z = (0, 1.5e-6), above tau_stat,
        # yet the cone {z in ker M : 1e-3 z_2 > 0} still spans ker M.
        M = np.diag([1.0, 1.5e-9])
        cons = (ConeConstraint([0.0, 1e-3], STRICT_POSITIVE),)
        result = cone_section(M, np.zeros(2), cons, TOL)
        assert not result.empty and result.span.dim == 1

    def test_unsupported_pattern(self):
        K = SubspaceBasis(2, np.eye(2))
        with pytest.raises(UnsupportedConePattern):
            cone_span(K, (ConeConstraint([1.0, 0.0], STRICT_POSITIVE),) * 3, TOL)

    def test_sphere_sampling_agreement_fixtures(self):
        cases = [
            # (basis columns, ambient, constraints)
            (np.array([[1.0], [4.0]]) / np.sqrt(17.0), self._delta1(2)),
            (np.array([[1.0], [-2.0]]) / np.sqrt(5.0), self._delta1(2)),
            (np.array([[1.0], [0.0]]), self._delta1(2)),
            (np.eye(2), (ConeConstraint([1.0, 0.0], STRICT_NEGATIVE),)),
            (
                np.array([[1.0], [0.0]]),
                (ConeConstraint([1.0, 0.0], NONNEG), ConeConstraint([0.0, 1.0], NONNEG)),
            ),
        ]
        for basis, cons in cases:
            K = SubspaceBasis(basis.shape[0], basis)
            assert _result_dim(cone_span(K, cons, TOL)) == _sphere_span_dim(K, cons)

    def test_sphere_sampling_agreement_random(self):
        """Each single sense and ordered pair of senses, on 20 random K, against
        the sampling oracle; a third of the pairs are exactly (anti)collinear."""
        rng = np.random.default_rng(314)
        senses = (STRICT_POSITIVE, NONNEG, STRICT_NEGATIVE)
        patterns = [(s,) for s in senses] + [(s, t) for s in senses for t in senses]
        for trial in range(20 * len(patterns)):
            pattern = patterns[trial % len(patterns)]
            collinear = (trial // len(patterns)) % 3 == 0
            m = int(rng.integers(1, 6))
            A = rng.standard_normal((int(rng.integers(0, m + 1)), m))
            K = null_space(A, TOL) if A.shape[0] else SubspaceBasis(m, np.eye(m))
            c = rng.standard_normal(m)
            e = rng.standard_normal(m)
            if collinear:
                e = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0) * c
            if pattern == (NONNEG, NONNEG) and collinear and np.dot(c, e) < 0.0 and K.dim >= 2:
                continue  # a measure-zero slice; see test_delta3_negatively_collinear_slice
            cons = tuple(ConeConstraint(v, sense) for v, sense in zip((c, e), pattern))
            got = _result_dim(cone_span(K, cons, TOL))
            want = _sphere_span_dim(K, cons, seed=trial)
            assert got == want, (trial, pattern, collinear, m, K.dim)


class TestAffineFeasibility:
    def test_unconstrained(self):
        r = cone_section(np.array([[2.0]]), np.array([2.0]))
        assert not r.empty and r.point == pytest.approx([1.0])

    def test_forced_sign_infeasible(self):
        cons = (ConeConstraint([0.0, 1.0], NONNEG),)
        r = cone_section(np.eye(2), np.array([1.0, -1.0]), cons)
        assert r.empty

    def test_halfline_inner_branch(self):
        # System: 0*v + 1*gamma = 0 with v >= 0, gamma >= 0.
        cons = (ConeConstraint([1.0, 0.0], NONNEG), ConeConstraint([0.0, 1.0], NONNEG))
        r = cone_section(np.array([[0.0, 1.0]]), np.array([0.0]), cons)
        assert not r.empty
        v, gamma = r.point
        assert v >= 0.0 and gamma == pytest.approx(0.0, abs=1e-12)

    def test_inconsistent_equalities(self):
        r = cone_section(np.array([[1.0], [1.0]]), np.array([0.0, 1.0]))
        assert r.empty and r.source is None

    def test_strict_against_collinear_nonneg(self):
        # v > 0 and -v >= 0 cannot hold together.
        cons = (ConeConstraint([1.0], STRICT_POSITIVE), ConeConstraint([-1.0], NONNEG))
        r = cone_section(np.zeros((1, 1)), np.array([0.0]), cons)
        assert r.empty

    def test_collinear_interval_feasible(self):
        # v > 0 and v - 2 <= 0 style: both map to the same null direction.
        cons = (ConeConstraint([1.0], STRICT_POSITIVE), ConeConstraint([1.0], NONNEG))
        r = cone_section(np.zeros((1, 1)), np.array([0.0]), cons)
        assert not r.empty and r.point[0] > 0.0

    def test_witness_property_random(self):
        rng = np.random.default_rng(2718)
        senses = (STRICT_POSITIVE, NONNEG, STRICT_NEGATIVE)
        for _ in range(200):
            m = int(rng.integers(1, 5))
            rows = int(rng.integers(1, 4))
            M = rng.standard_normal((rows, m))
            z_true = rng.standard_normal(m)
            b = M @ z_true
            k = int(rng.integers(0, 3))
            cons = tuple(
                ConeConstraint(rng.standard_normal(m), senses[int(rng.integers(0, 3))])
                for _ in range(k)
            )
            r = cone_section(M, b, cons, TOL)
            if not r.empty:
                assert np.linalg.norm(M @ r.point - b) <= 1e-7 * (1.0 + np.linalg.norm(b))
                for c in cons:
                    val = float(np.dot(c.vector(), r.point))
                    if c.sense == STRICT_POSITIVE:
                        assert val > 0.0
                    elif c.sense == STRICT_NEGATIVE:
                        assert val < 0.0
                    else:
                        assert val >= -1e-7 * (1.0 + np.linalg.norm(b))


class TestConditioningWarnings:
    def test_near_collinear_warning(self):
        # 1 - |cos| between tau_col and 10*tau_col triggers a warning but the
        # wedge still spans the subspace.
        t = 3.163e-4  # 1 - |cos| ~= t^2/2 ~= 5e-8
        K = SubspaceBasis(2, np.eye(2))
        cons = (
            ConeConstraint([1.0, 0.0], STRICT_POSITIVE),
            ConeConstraint([-1.0, -t], NONNEG),
        )
        result = cone_span(K, cons, TOL)
        assert not result.empty and result.span.dim == 2
        assert result.warnings and "collinear" in result.warnings[0]

    def test_exact_collinear_no_warning(self):
        K = SubspaceBasis(2, np.eye(2))
        cons = (
            ConeConstraint([1.0, 0.0], STRICT_POSITIVE),
            ConeConstraint([-2.0, 0.0], NONNEG),
        )
        result = cone_span(K, cons, TOL)
        assert result.empty and not result.warnings


# ---------------------------------------------------------------------------
# cone_section pinned byte for byte
# ---------------------------------------------------------------------------

SENSES = (STRICT_POSITIVE, NONNEG, STRICT_NEGATIVE)
SENSE_PATTERNS = [()] + [(s,) for s in SENSES] + [(s, t) for s in SENSES for t in SENSES]
# Exact multiples, so collinear pairs stay collinear bit for bit on ker M.
MULTIPLES = (0.5, -0.5, 1.0, -1.0, 2.0, -2.0)
CASES_PER_GROUP = 30


def _section_bytes(section) -> bytes:
    """The bytes of a Section: ker M, point, span and warnings."""
    parts = []
    for a in (
        None if section.source is None else section.source.basis,
        section.point,
        None if section.span is None else section.span.basis,
    ):
        parts.append(b"none" if a is None else repr(a.shape).encode() + a.tobytes())
    parts.append("\n".join(section.warnings).encode())
    return b"|".join(parts)


def _random_case(rng, rhs: str, pattern: tuple, geometry: str):
    """(M, b, constraints) of one seeded input.

    ``rhs`` is "zero", "consistent" or "inconsistent"; ``geometry`` is
    "general", "collinear" (the second functional an exact multiple of the
    first) or "integer" (rounded data, for exact ties and functionals that
    vanish on ker M).
    """
    m = int(rng.integers(1, 5))
    rows = int(rng.integers(1, m + 2))
    rank = int(rng.integers(0, min(rows, m) + 1))
    M = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, m))
    cs = [rng.standard_normal(m) for _ in pattern]
    if geometry == "collinear":
        cs[1] = rng.choice(MULTIPLES) * cs[0]
    if geometry == "integer":
        M = np.round(2.0 * M)
        cs = [np.round(1.5 * c) for c in cs]
    if rhs == "zero":
        b = np.zeros(rows)
    elif rhs == "consistent":
        z = rng.standard_normal(m)
        b = M @ (np.round(2.0 * z) if geometry == "integer" else z)
    else:
        b = rng.standard_normal(rows)
        if geometry == "integer":
            b = np.round(2.0 * b)
        if rank == rows:  # M z = b would be solvable: add a dependent row
            M = np.vstack([M, M[:1]])
            b = np.append(b, b[0] + 1.0)
    return M, b, tuple(ConeConstraint(c, s) for c, s in zip(cs, pattern))


def _named_cases() -> dict:
    t = 3.163e-4  # 1 - |cos| ~= 5e-8, inside (tau_col, 10 tau_col]
    band = (ConeConstraint([1.0, 0.0], STRICT_POSITIVE), ConeConstraint([-1.0, -t], NONNEG))
    slice_pair = (ConeConstraint([1.0, 1.0, 1.0], NONNEG), ConeConstraint([-1.0, -1.0, -1.0], NONNEG))
    plane = np.array([[0.0, 0.0, 1.0]])
    return {
        "slice_b0": (plane, [0.0], slice_pair),
        "slice_b_nonzero": (plane, [2.0], slice_pair),
        "slice_scaled": (plane, [-3.0], (slice_pair[0], ConeConstraint([2.0, 2.0, 2.0], NONNEG))),
        "strict_meets_nonneg_b0": (
            np.zeros((1, 1)), [0.0],
            (ConeConstraint([1.0], STRICT_POSITIVE), ConeConstraint([-1.0], NONNEG)),
        ),
        "strict_meets_nonneg_b_nonzero": (
            plane, [1.0],
            (ConeConstraint([0.0, 1.0, 1.0], STRICT_POSITIVE), ConeConstraint([0.0, -2.0, -2.0], NONNEG)),
        ),
        "nonneg_meets_strict_negative": (
            plane, [1.0],
            (ConeConstraint([0.0, 1.0, 1.0], NONNEG), ConeConstraint([0.0, 1.0, 1.0], STRICT_NEGATIVE)),
        ),
        "warning_band_b0": (np.zeros((1, 2)), [0.0], band),
        "warning_band_b_nonzero": (np.array([[0.0, 0.0, 1.0]]), [1.0], tuple(
            ConeConstraint(list(c.c) + [0.5], c.sense) for c in band
        )),
        "warning_band_reversed": (np.zeros((1, 2)), [0.0], band[::-1]),
    }


def cone_section_document() -> dict:
    """sha256 of the Sections of every seeded group and named case."""
    out = {}
    group = 0
    for rhs in ("zero", "consistent", "inconsistent"):
        for pattern in SENSE_PATTERNS:
            geometries = ("general", "collinear", "integer") if len(pattern) == 2 else ("general", "integer")
            for geometry in geometries:
                rng = np.random.default_rng(group)
                group += 1
                h = hashlib.sha256()
                for _ in range(CASES_PER_GROUP):
                    M, b, cons = _random_case(rng, rhs, pattern, geometry)
                    h.update(_section_bytes(cone_section(M, b, cons, TOL)))
                out[f"{rhs}/{','.join(pattern) or 'none'}/{geometry}"] = h.hexdigest()
    for name, (M, b, cons) in _named_cases().items():
        out[name] = hashlib.sha256(_section_bytes(cone_section(M, b, cons, TOL))).hexdigest()
    return out


def test_cone_sections_match_golden():
    golden = json.loads((GOLDEN_DIR / "cone_sections.json").read_text())
    digests = cone_section_document()
    assert digests.keys() == golden.keys()
    assert sorted(k for k in golden if digests[k] != golden[k]) == []
