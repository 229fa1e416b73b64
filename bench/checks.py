"""Checks of the program's reports against computations made apart from it.

`Function` evaluates problem text with Python's own parser over complex
numbers, so gradients come from the complex step and share no code with the
program's parser, evaluator or differentiator.  Each check returns a list of
(op index, message) for the operations it finds wrong.
"""

from __future__ import annotations

import cmath
import math
import re

_VAR = re.compile(r"\b([xw])(\d+)\b")
_NAMESPACE = {"__builtins__": {}, "sin": cmath.sin, "cos": cmath.cos, "exp": cmath.exp,
              "ln": cmath.log, "sqrt": cmath.sqrt}
_STEP = 1e-30
# Bar for the benchmark's own residuals.  The probe accepts points at 1e-9 in
# its own evaluation; the two evaluations differ by rounding only.
STATIONARY_TOL = 1e-7


class Function:
    """f(x, w) compiled from the `.prob` expression text."""

    def __init__(self, text: str):
        source = _VAR.sub(lambda m: f"{m.group(1)}[{int(m.group(2)) - 1}]", text.replace("^", "**"))
        self._code = compile(source, "<problem>", "eval")

    def __call__(self, x, w) -> complex:
        return eval(self._code, _NAMESPACE, {"x": x, "w": w})

    def grad_x(self, x, w) -> list:
        out = []
        for i in range(len(x)):
            xc = [complex(t) for t in x]
            xc[i] += 1j * _STEP
            out.append(self(xc, w).imag / _STEP)
        return out


def _dot(a, b) -> float:
    return sum(s * t for s, t in zip(a, b))


class Reference:
    """Independent view of one problem file: case, multiplier, stationarity."""

    def __init__(self, n: int, d: int, f0: str, F: str, x, w):
        self.n, self.d = n, d
        self.f0, self.F = Function(f0), Function(F)
        self.x, self.w = list(x), list(w)

    def kkt(self, x, w):
        """(F, ||∇x f0||, boundary residual, λ*) at (x, w)."""
        Fv = self.F(x, w).real
        g, gF = self.f0.grad_x(x, w), self.F.grad_x(x, w)
        gg = _dot(gF, gF)
        lam = max(0.0, -_dot(gF, g) / gg) if gg > 0.0 else 0.0
        boundary = math.sqrt(sum((a + lam * b) ** 2 for a, b in zip(g, gF)))
        return Fv, math.sqrt(_dot(g, g)), boundary, lam

    def is_stationary(self, x, w) -> bool:
        Fv, interior, boundary, _ = self.kkt(x, w)
        if Fv > STATIONARY_TOL:
            return False
        return interior <= STATIONARY_TOL or (abs(Fv) <= STATIONARY_TOL and boundary <= STATIONARY_TOL)

    def case(self):
        """((tag, subtag), λ) at the reference pair, classified as the README states."""
        Fv = self.F(self.x, self.w).real
        if Fv < -1e-9:
            return ("Interior", None), None
        g, gF = self.f0.grad_x(self.x, self.w), self.F.grad_x(self.x, self.w)
        lam = -_dot(gF, g) / _dot(gF, gF)
        return ("Boundary", "Nondegenerate" if lam > 1e-8 else "Degenerate"), lam


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * (1.0 + abs(b))


def _lam(doc):
    return None if doc["multiplier"] is None else doc["multiplier"]["lambda"]


def _case(doc):
    return doc["case"]["tag"], doc["case"]["subtag"]


def check_analyze(i, doc, ref: Reference, expected=None) -> list:
    """Case and λ against the independent evaluation; verdict etc. against the generator."""
    bad = []
    case, lam = ref.case()
    if _case(doc) != case:
        bad.append((i, f"case {_case(doc)} but the problem text gives {case}"))
    if (lam is None) != (_lam(doc) is None) or (lam is not None and not close(_lam(doc), lam, 1e-7)):
        bad.append((i, f"multiplier {_lam(doc)} but the problem text gives {lam}"))
    if expected is not None:
        if _case(doc) != tuple(expected.case):
            bad.append((i, f"case {_case(doc)} but the generator built {expected.case}"))
        if (expected.lam is None) != (_lam(doc) is None) or (
            expected.lam is not None and not close(_lam(doc), expected.lam)
        ):
            bad.append((i, f"multiplier {_lam(doc)} but the generator built {expected.lam}"))
        if doc["verdict"]["lipschitz_like"] != expected.verdict:
            bad.append((i, f"verdict {doc['verdict']['lipschitz_like']} but the generator "
                           f"built a {expected.verdict} problem ({expected.name})"))
    return bad


def check_metamorphic(members) -> list:
    """members: [(op index, analyze doc, transform, scale c)] of one base problem.

    Verdict and case do not change; λ is unchanged, or scales by c (f0 scaled)
    or 1/c (F scaled).
    """
    bad = []
    _, base, _, _ = members[0]
    for i, doc, transform, c in members[1:]:
        if doc["verdict"]["lipschitz_like"] != base["verdict"]["lipschitz_like"]:
            bad.append((i, f"{transform}: verdict {doc['verdict']['lipschitz_like']} differs from "
                           f"the base problem's {base['verdict']['lipschitz_like']}"))
        if _case(doc) != _case(base):
            bad.append((i, f"{transform}: case {_case(doc)} differs from {_case(base)}"))
        if _lam(base) is not None and _lam(doc) is not None:
            want = _lam(base) * {"scale_f0": c, "scale_F": 1.0 / c}.get(transform, 1.0)
            if not close(_lam(doc), want):
                bad.append((i, f"{transform}: multiplier {_lam(doc)}, expected {want}"))
    return bad


def check_membership(i, doc, role: str, verdict: str) -> list:
    """Query-role rules that hold whatever the problem."""
    answer = doc["membership"][0]["answer"]
    bad = []
    if doc["verdict"]["lipschitz_like"] != verdict:
        bad.append((i, f"membership reports verdict {doc['verdict']['lipschitz_like']}, analyze {verdict}"))
    if role == "zero" and answer != "In":
        bad.append((i, f"(0, 0) answered {answer}; it always belongs"))
    if role == "w_only" and verdict == "Yes" and answer == "In":
        bad.append((i, "Yes verdict but (0, w') with w' != 0 is In (Mordukhovich criterion)"))
    if role == "smooth" and answer != "In":
        bad.append((i, f"w' = ∇s(w̄)ᵀx' answered {answer}; the map is locally smooth here"))
    return bad


def check_scaled(i, doc, doc_unscaled) -> list:
    a, b = doc["membership"][0]["answer"], doc_unscaled["membership"][0]["answer"]
    if a != b:
        return [(i, f"answer {a} for t·(x', w') but {b} for (x', w')")]
    return []


def check_tolerance_sweep(i, doc, default_doc) -> list:
    """tau_rank and the mode leave the case and λ alone; strict only weakens No."""
    bad = []
    if _case(doc) != _case(default_doc) or _lam(doc) != _lam(default_doc):
        bad.append((i, "case or multiplier changed with tau_rank or mode"))
    if doc["verdict"]["mode"] == "strict":
        ext, strict = default_doc["verdict"]["lipschitz_like"], doc["verdict"]["lipschitz_like"]
        if strict != ext and not (ext == "No" and strict == "Unknown"):
            bad.append((i, f"strict verdict {strict} against extended {ext}"))
    return bad


def check_probe(i, doc, ref: Reference, verdict: str) -> list:
    """Flag against the verdict; every worst-pair point stationary for its parameter."""
    bad = []
    flag = doc["probe"]["flag"]
    if doc["verdict"]["lipschitz_like"] != verdict:
        bad.append((i, f"probe reports verdict {doc['verdict']['lipschitz_like']}, analyze {verdict}"))
    if verdict == "Yes" and flag == "Violation":
        bad.append((i, "Yes verdict with a Violation flag"))
    if verdict == "No" and flag == "Consistent":
        bad.append((i, "No verdict with a Consistent flag"))
    for level in doc["probe"]["levels"]:
        pair = level["worst_pair"]
        if pair is None or "x_point" not in pair:
            continue
        if not ref.is_stationary(pair["x_point"], pair["w_perturbed"]):
            Fv, interior, boundary, _ = ref.kkt(pair["x_point"], pair["w_perturbed"])
            bad.append((i, f"worst-pair x_point {pair['x_point']} is not stationary at "
                           f"w = {pair['w_perturbed']} (F = {Fv:.3e}, residuals {interior:.3e}, "
                           f"{boundary:.3e})"))
    return bad
