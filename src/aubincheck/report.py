"""Report document assembly: one JSON-serializable dict per run, plus a
human-readable text rendering carrying the same facts."""

from __future__ import annotations

import json

from .calculus import BLOCKS, DerivativeBundle
from .conditions import Verdict
from .problemfile import ProblemFile

__all__ = [
    "SCHEMA_VERSION",
    "analysis_document",
    "derivatives_document",
    "dumps_canonical",
    "render_text",
    "render_derivatives_text",
]

SCHEMA_VERSION = "1"


def _header(command: str, pf: ProblemFile) -> dict:
    """The keys every report opens with: the command and its input."""
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "problem": {"n": pf.spec.n, "d": pf.spec.d, "f0": pf.f0_text, "F": pf.F_text},
        "point": {"x": list(pf.point.x), "w": list(pf.point.w)},
        "tolerances": pf.tolerances.as_dict(),
    }


def analysis_document(
    command: str, pf: ProblemFile, verdict: Verdict, membership=None, probe=None
) -> dict:
    """The report of one command; the problem file's note joins the verdict's warnings."""
    doc = {
        **_header(command, pf),
        "case": {
            "tag": verdict.case.kind,
            "subtag": verdict.case.subtag,
            "borderline_lambda": verdict.case.borderline_lambda,
            "F_value": float(verdict.bundle.Fval),
        },
        "multiplier": (
            None
            if verdict.multiplier is None
            else {
                "lambda": float(verdict.multiplier.lam),
                "residual": float(verdict.multiplier.residual),
            }
        ),
        "conditions": [
            {
                "id": rep.id,
                "holds": bool(rep.holds),
                "evidence": rep.evidence,
                "warnings": list(rep.warnings),
            }
            for rep in verdict.conditions
        ],
        "verdict": {
            "lipschitz_like": verdict.lipschitz_like,
            "theorem_applied": verdict.theorem_applied,
            "mode": verdict.mode,
        },
        "warnings": list(verdict.warnings) + ([pf.note] if pf.note is not None else []),
    }
    if membership is not None:
        doc["membership"] = membership
    if probe is not None:
        doc["probe"] = probe.to_dict()
    return doc


def derivatives_document(pf: ProblemFile, bundle: DerivativeBundle, fd_audit=None) -> dict:
    blocks = {blk.field: getattr(bundle, blk.field).tolist() for blk in BLOCKS}
    doc = {**_header("derivatives", pf), "bundle": {"F_value": float(bundle.Fval), **blocks}}
    if fd_audit is not None:
        doc["fd_audit"] = {k: float(v) for k, v in fd_audit.items()}
    return doc


def dumps_canonical(doc: dict) -> str:
    """Deterministic JSON serialization (sorted keys, fixed layout)."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render_text(doc: dict) -> str:
    lines = []
    p = doc["problem"]
    lines.append(f"problem: n={p['n']} d={p['d']}")
    lines.append(f"  f0 = {p['f0']}")
    lines.append(f"  F  = {p['F']}")
    lines.append(f"point: x={doc['point']['x']} w={doc['point']['w']}")
    case = doc["case"]
    tag = case["tag"] + (f"/{case['subtag']}" if case["subtag"] else "")
    lines.append(f"case: {tag} (F = {_fmt(case['F_value'])})")
    if case.get("borderline_lambda"):
        lines.append("  note: multiplier within zero tolerance, both branches evaluated")
    mult = doc.get("multiplier")
    if mult is not None:
        lines.append(f"multiplier: lambda = {_fmt(mult['lambda'])}, residual = {_fmt(mult['residual'])}")
    lines.append("conditions:")
    for rep in doc["conditions"]:
        mark = "holds" if rep["holds"] else "fails"
        lines.append(f"  {rep['id']}: {mark}")
        for wmsg in rep.get("warnings", []):
            lines.append(f"    warning: {wmsg}")
    v = doc["verdict"]
    theorem = f" via {v['theorem_applied']}" if v["theorem_applied"] else ""
    lines.append(f"verdict: {v['lipschitz_like']}{theorem} (mode: {v['mode']})")
    for entry in doc.get("membership", []):
        witness = ""
        if entry.get("witness_v") is not None:
            witness = f", witness v={entry['witness_v']}"
            if entry.get("witness_gamma") is not None:
                witness += f", gamma={_fmt(entry['witness_gamma'])}"
        lines.append(
            f"membership: x'={entry['x_prime']} w'={entry['w_prime']} -> {entry['answer']}{witness}"
        )
        for note in entry.get("notes", []):
            lines.append(f"  note: {note}")
    if "probe" in doc:
        pr = doc["probe"]
        lines.append(f"probe: flag = {pr['flag']}")
        lines.append(f"  reason: {pr['flag_reason']}")
        for lv in pr["levels"]:
            lines.append(
                f"  delta={_fmt(lv['delta'])}: worst_ratio={_fmt(lv['worst_ratio'])} "
                f"pairs={lv['n_ratio_pairs']}/{lv['n_pairs']} empty_events={lv['empty_value_events']}"
            )
    for wmsg in doc.get("warnings", []):
        lines.append(f"warning: {wmsg}")
    return "\n".join(lines) + "\n"


def render_derivatives_text(doc: dict) -> str:
    lines = []
    p = doc["problem"]
    lines.append(f"problem: n={p['n']} d={p['d']}")
    lines.append(f"point: x={doc['point']['x']} w={doc['point']['w']}")
    b = doc["bundle"]
    lines.append(f"F_value = {_fmt(b['F_value'])}")
    for blk in BLOCKS:
        lines.append(f"{blk.field} = {b[blk.field]}")
    if "fd_audit" in doc:
        lines.append("fd_audit (max abs deviation per block):")
        for key, val in doc["fd_audit"].items():
            lines.append(f"  {key}: {_fmt(val)}")
    return "\n".join(lines) + "\n"
