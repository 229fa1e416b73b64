"""Cross-check of `analyze` against `membership` by the Mordukhovich criterion.

S is Lipschitz-like at (w̄, x̄) iff D*S(w̄|x̄)(0) = {0}.  Membership certifies
In only from the inner estimate, which lies inside D*S, so:

  * a Yes verdict admits no w' != 0 with membership(0, w') = In;
  * a No verdict comes with such a w'.

Candidates for w' come from the first (inner) branch of the case's table:
for k = ± a basis vector of the null space of its x and zero rows, the
branch system holds at z = k with x' = 0 and w' = (its w rows)·k.

The corpus is the fixtures plus seeded problems of the benchmark generator
(`bench/problems.py`, imported read-only) with their metamorphic variants,
in both modes.
"""

import numpy as np
import pytest

from aubincheck.calculus import ToleranceConfig
from aubincheck.conditions import (
    MODE_EXTENDED,
    MODE_STRICT,
    coderivative_membership,
    verdict,
)
from aubincheck.kernel import null_space
from conftest import BASE_PROBLEMS, FIXTURE_NAMES, GENERATOR_SEEDS

TOL = ToleranceConfig()


def _candidates(v):
    """Nonzero w' with z = ±k solving the inner branch's equations at x' = 0."""
    branch = v.table.inner
    K = null_space(branch.M[: -branch.w_rows], TOL).basis
    W = branch.M[-branch.w_rows :]
    out = []
    for k in K.T:
        for sign in (1.0, -1.0):
            wprime = W @ (sign * k)
            if np.linalg.norm(wprime) > 1e-8:
                out.append(wprime)
    return out


@pytest.fixture(scope="module")
def verdicts(corpus):
    out = []
    for e in corpus:
        for mode in (MODE_EXTENDED, MODE_STRICT):
            out.append((f"{e.name}/{mode}", verdict(e.spec, e.point, TOL, mode)))
    return out


def test_corpus_has_both_answers(verdicts):
    answers = [v.lipschitz_like for _, v in verdicts]
    assert answers.count("Yes") >= 40 and answers.count("No") >= 40
    assert len(verdicts) >= 2 * (len(FIXTURE_NAMES) + len(GENERATOR_SEEDS) * BASE_PROBLEMS * 3)


def test_yes_admits_no_nonzero_coderivative_at_zero(verdicts):
    rng = np.random.default_rng(5)
    for name, v in verdicts:
        if v.lipschitz_like != "Yes":
            continue
        n, d = v.bundle.n, v.bundle.d
        queries = _candidates(v)
        while len(queries) < 8:
            wprime = rng.integers(-2, 3, size=d).astype(float)
            if np.any(wprime):
                queries.append(wprime)
        for wprime in queries:
            r = coderivative_membership(v, np.zeros(n), wprime, TOL)
            assert r.answer != "In", (name, wprime.tolist())


def test_no_comes_with_a_certified_nonzero_coderivative_at_zero(verdicts):
    refuted = 0
    for name, v in verdicts:
        if v.lipschitz_like != "No":
            continue
        answers = [
            coderivative_membership(v, np.zeros(v.bundle.n), wprime, TOL).answer
            for wprime in _candidates(v)
        ]
        assert "In" in answers, (name, v.theorem_applied, answers)
        refuted += 1
    assert refuted >= 40
