"""Checks over the verdict corpus: the fixtures plus the benchmark generator's
seeded problems with their metamorphic variants (``conftest.build_corpus``).

* Every verdict is pinned.  ``golden/verdicts.json`` holds one sha256 per
  (problem, mode, tau_rank) over the canonical JSON of the case, multiplier,
  condition reports (id, holds, evidence, warnings), answer, theorem and
  warnings.
* The benchmark's independent checks (``bench/checks.py``, imported read-only)
  hold on each generated problem's ``analyze --json``: case and multiplier
  against a complex-step evaluation of the problem text, case, multiplier and
  verdict against what the generator built, and the metamorphic relations
  among the variants of one base problem.
"""

import hashlib
import json
import pathlib

from aubincheck.calculus import ToleranceConfig
from aubincheck.conditions import MODE_EXTENDED, MODE_STRICT, verdict
from aubincheck.report import dumps_canonical
from conftest import bench_module
from test_cli import run_cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "verdicts.json"
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
