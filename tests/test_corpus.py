"""Checks over the verdict corpus: the fixtures plus the benchmark generator's
seeded problems with their metamorphic variants (``conftest.build_corpus``).

* Every verdict is pinned.  ``golden/verdicts.json`` holds one sha256 per
  (problem, mode, tau_rank) over the canonical JSON of the case, multiplier,
  condition reports (id, holds, evidence, warnings), answer, theorem and
  warnings.
* Every ``derivatives --json`` report is pinned, with and without
  ``--fd-audit 1e-5``: ``golden/derivatives.json`` holds one sha256 of stdout
  per problem and audit setting.
* Every derivative DAG is pinned, not only its values: ``golden/tapes.json``
  holds one sha256 per problem over ``render`` of every entry of the bundle
  tape and of both branches' Newton tapes.
* Every case table is pinned: ``golden/case_tables.json`` holds one sha256
  per problem over its verdict's table (``case_table_digests``).
* Every derivative block of the bundle agrees with an evaluation of the
  problem text that shares no code with the program: gradients by the complex
  step (``bench/checks.Function``), second-order blocks by central
  differences of those gradients, at the reference pair and at a seeded
  nearby point.
* The benchmark's independent checks (``bench/checks.py``, imported read-only)
  hold on each generated problem's ``analyze --json``: case and multiplier
  against a complex-step evaluation of the problem text, case, multiplier and
  verdict against what the generator built, and the metamorphic relations
  among the variants of one base problem.
"""

import hashlib
import json
import pathlib
import random

import numpy as np

from aubincheck.calculus import EvalPoint, ToleranceConfig, derivative_bundle, problem_derivatives
from aubincheck.conditions import MODE_EXTENDED, MODE_STRICT, verdict
from aubincheck.expr import render
from aubincheck.report import dumps_canonical
from conftest import bench_module, fixture_path
from test_cli import run_cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "verdicts.json"
DERIVATIVES_GOLDEN = GOLDEN.parent / "derivatives.json"
TAPES_GOLDEN = GOLDEN.parent / "tapes.json"
CASE_TABLES_GOLDEN = GOLDEN.parent / "case_tables.json"
TAU_RANKS = (1e-6, 1e-9, 1e-12)


def verdict_digest(v) -> str:
    doc = {
        "case": [v.case.kind, v.case.subtag, v.case.borderline_lambda],
        "multiplier": (
            None if v.multiplier is None else [v.multiplier.lam, v.multiplier.residual]
        ),
        "conditions": [
            [r.id, bool(r.holds), r.evidence, list(r.warnings)] for r in v.conditions
        ],
        "answer": v.lipschitz_like,
        "theorem": v.theorem_applied,
        "warnings": list(v.warnings),
    }
    return hashlib.sha256(dumps_canonical(doc).encode()).hexdigest()


def corpus_digests(corpus) -> dict:
    out = {}
    for e in corpus:
        # Tolerances vary inside the problem loop, so the problem's derivative
        # trees stay cached across its verdicts.
        for tau_rank in TAU_RANKS:
            tol = ToleranceConfig(tau_rank=tau_rank)
            for mode in (MODE_EXTENDED, MODE_STRICT):
                key = f"{e.name}/{mode}/tau_rank={tau_rank:g}"
                out[key] = verdict_digest(verdict(e.spec, e.point, tol, mode))
    return out


def test_verdicts_match_golden(corpus):
    golden = json.loads(GOLDEN.read_text())
    digests = corpus_digests(corpus)
    assert digests.keys() == golden.keys()
    changed = sorted(k for k in golden if digests[k] != golden[k])
    assert not changed, changed


def test_bench_checks_hold(corpus, tmp_path):
    checks = bench_module("checks")
    bad, groups = [], {}
    for i, e in enumerate(x for x in corpus if x.variant is not None):
        var = e.variant
        path = tmp_path / f"{i}.prob"
        path.write_text(var.text())
        code, out = run_cli(["analyze", str(path), "--json"])
        assert code == 0, (e.name, code)
        doc = json.loads(out)
        ref = checks.Reference(var.n, var.d, var.f0, var.F, var.x, var.w)
        bad += checks.check_analyze(e.name, doc, ref, var)
        seed = e.name.split("/")[0]
        groups.setdefault((seed, var.base), []).append(
            (var.transform != "base", e.name, doc, var.transform, var.scale)
        )
    assert len(groups) == 24
    for members in groups.values():
        members.sort(key=lambda m: m[0])
        assert not members[0][0] and len(members) >= 3
        bad += checks.check_metamorphic([m[1:] for m in members])
    assert not bad, bad


def derivatives_digests(corpus, directory) -> dict:
    """sha256 of ``derivatives --json`` stdout per problem, with and without
    the finite-difference audit."""
    out = {}
    for i, e in enumerate(corpus):
        if e.variant is None:
            path = fixture_path(e.name)
        else:
            path = directory / f"{i}.prob"
            path.write_text(e.variant.text())
        for extra in ((), ("--fd-audit", "1e-5")):
            code, text = run_cli(["derivatives", str(path), "--json", *extra])
            assert code == 0, (e.name, extra, code)
            out[" ".join((e.name, *extra))] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_derivatives_match_golden(corpus, tmp_path):
    golden = json.loads(DERIVATIVES_GOLDEN.read_text())
    digests = derivatives_digests(corpus, tmp_path)
    assert digests.keys() == golden.keys()
    changed = sorted(k for k in golden if digests[k] != golden[k])
    assert not changed, changed


def tape_digests(corpus) -> dict:
    """sha256 per problem over the rendered entries of its bundle tape and of
    the interior and boundary Newton tapes, one entry a line."""
    out = {}
    for e in corpus:
        derivs = problem_derivatives(e.spec)
        tapes = [derivs.bundle_tape, *(t for branch in ("interior", "boundary") for t in derivs.newton_systems[branch])]
        text = "\n".join(render(entry) for tape in tapes for entry in tape)
        out[e.name] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_tapes_match_golden(corpus):
    golden = json.loads(TAPES_GOLDEN.read_text())
    digests = tape_digests(corpus)
    assert digests.keys() == golden.keys()
    changed = sorted(k for k in golden if digests[k] != golden[k])
    assert not changed, changed


def case_table_digests(corpus) -> dict:
    """sha256 per problem over its verdict's case table: the case, regularity
    and exactness ids, then per branch, inner then outer, its name, condition,
    evidence key, M (shape and bytes), w_rows, sign constraints (c and sense)
    and rhs(x', w') at x' = (1, ..., n)/8 and w' = -(1, ..., d)/4."""
    out = {}
    for e in corpus:
        table = verdict(e.spec, e.point).table
        xprime = np.arange(1, e.spec.n + 1) / 8
        wprime = -np.arange(1, e.spec.d + 1) / 4
        h = hashlib.sha256(repr((table.case, table.regularity, table.exactness)).encode())
        for br in (table.inner, *table.outer):
            h.update(repr((br.name, br.condition, br.evidence_key, br.M.shape, br.w_rows)).encode())
            h.update(br.M.tobytes())
            h.update(repr([(c.c, c.sense) for c in br.constraints]).encode())
            h.update(br.rhs(xprime, wprime).tobytes())
        out[e.name] = h.hexdigest()
    return out


def test_case_tables_match_golden(corpus):
    golden = json.loads(CASE_TABLES_GOLDEN.read_text())
    digests = case_table_digests(corpus)
    assert digests.keys() == golden.keys()
    changed = sorted(k for k in golden if digests[k] != golden[k])
    assert not changed, changed


_STEP = 1e-30  # complex step
_H = 1e-5  # central-difference step on the complex-step gradients


def _complex_grad(f, x, w, axis: str) -> np.ndarray:
    """Complex-step gradient of the text function ``f`` in x or in w."""
    out = []
    for i in range(len(x if axis == "x" else w)):
        xc, wc = [complex(t) for t in x], [complex(t) for t in w]
        (xc if axis == "x" else wc)[i] += 1j * _STEP
        out.append(f(xc, wc).imag / _STEP)
    return np.array(out)


def _second_block(f, x, w, axis: str) -> np.ndarray:
    """Rows k: central difference in ``axis``-component k of the x-gradient,
    i.e. block[k, i] = d^2 f / d(axis)_k dx_i."""
    rows = []
    for k in range(len(x if axis == "x" else w)):
        up, dn = [list(x), list(w)], [list(x), list(w)]
        a = 0 if axis == "x" else 1
        up[a][k] += _H
        dn[a][k] -= _H
        rows.append((_complex_grad(f, *up, "x") - _complex_grad(f, *dn, "x")) / (2.0 * _H))
    return np.array(rows)


def _bundle_deviations(spec, f0, F, x, w) -> dict:
    b = derivative_bundle(spec, EvalPoint(x, w))
    ref = {
        "gxf0": _complex_grad(f0, x, w, "x"),
        "gxF": _complex_grad(F, x, w, "x"),
        "gwF": _complex_grad(F, x, w, "w"),
        "Hxx": _second_block(f0, x, w, "x"),
        "Hwx": _second_block(f0, x, w, "w"),
        "Fxx": _second_block(F, x, w, "x"),
        "Fwx": _second_block(F, x, w, "w"),
    }
    first = ("gxf0", "gxF", "gwF")
    out = {}
    for name, r in ref.items():
        got = getattr(b, name)
        tol = (1e-9 if name in first else 1e-5) * (1.0 + np.abs(r))
        out[name] = float(np.max(np.abs(got - r) - tol, initial=-1.0))
    return out


def test_bundle_blocks_match_complex_step(corpus, problems):
    """Each bundle block against the problem text, at the reference pair and at
    a seeded point nearby, where the generator's higher-order tail terms
    contribute to every block."""
    checks = bench_module("checks")
    rng = random.Random(8)
    bad = []
    for e in corpus:
        if e.variant is None:
            texts = problems[e.name].f0_text, problems[e.name].F_text
        else:
            texts = e.variant.f0, e.variant.F
        f0, F = (checks.Function(t) for t in texts)
        x, w = list(e.point.x), list(e.point.w)
        near = [t + rng.uniform(-0.4, 0.4) for t in x], [t + rng.uniform(-0.4, 0.4) for t in w]
        for where, point in (("reference", (x, w)), ("nearby", near)):
            for name, excess in _bundle_deviations(e.spec, f0, F, *point).items():
                if excess > 0.0:
                    bad.append((e.name, where, name, excess))
    assert not bad, bad
