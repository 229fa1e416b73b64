"""Sectioned problem files.

The format is INI-style text with four sections::

    [problem]           required: n, d, f0, F (expressions in double quotes);
                        optional: note (quoted text the reports add to
                        their warnings)
    [point]             required: x, w (bracketed comma-separated lists)
    [tolerances]        optional: tau_act, tau_zero, tau_stat, tau_rank, tau_col
    [probe]             optional sampling overrides: r_x, points_per_axis,
                        newton_cap, delta0, levels, samples,
                        rho_u, growth, blowup, ratio_floor, seed

Unknown sections or keys are rejected.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields

from .calculus import EvalPoint, ToleranceConfig, _check_dims
from .errors import InputError
from .expr import ProblemSpec, parse
from .oracle import GridSpec, ProbeConfig

__all__ = ["ProblemFile", "load_problem"]

_TOL_KEYS, _GRID_KEYS, _PROBE_KEYS = (
    tuple(f.name for f in fields(cls)) for cls in (ToleranceConfig, GridSpec, ProbeConfig)
)
_INT_KEYS = ("n", "d", "points_per_axis", "newton_cap", "levels", "samples", "seed")


@dataclass(frozen=True)
class ProblemFile:
    spec: ProblemSpec
    point: EvalPoint
    tolerances: ToleranceConfig
    grid: GridSpec
    probe: ProbeConfig
    f0_text: str
    F_text: str
    path: str
    note: str | None = None


def _unquote(raw: str, key: str) -> str:
    s = raw.strip()
    if len(s) >= 2 and s[0] == s[-1] and s[0] in "\"'":
        return s[1:-1]
    raise InputError(f"value of {key!r} must be quoted, got {raw!r}")


def _parse_list(raw: str, key: str) -> list:
    s = raw.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise InputError(f"value of {key!r} must be a bracketed list, got {raw!r}")
    body = s[1:-1].strip()
    if not body:
        raise InputError(f"list {key!r} must not be empty")
    try:
        values = [float(tok) for tok in body.split(",")]
    except ValueError as exc:
        raise InputError(f"could not parse list {key!r}: {exc}") from None
    if not all(map(math.isfinite, values)):
        raise InputError(f"list {key!r} must hold finite reals, got {raw!r}")
    return values


def _number(raw: str, key: str):
    try:
        if key in _INT_KEYS:
            return int(raw.strip())
        return float(raw.strip())
    except ValueError as exc:
        raise InputError(f"could not parse {key!r}: {exc}") from None


def load_problem(
    path: str, tol_overrides: dict | None = None, probe_overrides: dict | None = None
) -> ProblemFile:
    """Load and validate a problem file; optional CLI tolerance and [probe]
    overrides win over the file's values."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keys are case-sensitive
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh, source=path)
    except OSError as exc:
        raise InputError(f"cannot read problem file: {exc}") from None
    except configparser.Error as exc:
        raise InputError(f"malformed problem file: {exc}") from None

    allowed = {
        "problem": {"n", "d", "f0", "F", "note"},
        "point": {"x", "w"},
        "tolerances": set(_TOL_KEYS),
        "probe": set(_GRID_KEYS) | set(_PROBE_KEYS),
    }
    for section in cp.sections():
        if section not in allowed:
            raise InputError(f"unknown section [{section}] in {path}")
        for key in cp[section]:
            if key not in allowed[section]:
                raise InputError(f"unknown key {key!r} in section [{section}]")
    for required in ("problem", "point"):
        if required not in cp:
            raise InputError(f"missing required section [{required}]")
    for key in ("n", "d", "f0", "F"):
        if key not in cp["problem"]:
            raise InputError(f"missing key {key!r} in [problem]")
    for key in ("x", "w"):
        if key not in cp["point"]:
            raise InputError(f"missing key {key!r} in [point]")

    n = _number(cp["problem"]["n"], "n")
    d = _number(cp["problem"]["d"], "d")
    f0_text = _unquote(cp["problem"]["f0"], "f0")
    F_text = _unquote(cp["problem"]["F"], "F")
    spec = ProblemSpec(n, d, parse(f0_text, n, d), parse(F_text, n, d))

    x = _parse_list(cp["point"]["x"], "x")
    w = _parse_list(cp["point"]["w"], "w")
    _check_dims(spec, x, w)
    point = EvalPoint(x, w)
    note = _unquote(cp["problem"]["note"], "note") if "note" in cp["problem"] else None

    tol_kwargs = {}
    if "tolerances" in cp:
        for key in cp["tolerances"]:
            tol_kwargs[key] = _number(cp["tolerances"][key], key)
    if tol_overrides:
        for key, value in tol_overrides.items():
            if key not in _TOL_KEYS:
                raise InputError(f"unknown tolerance {key!r}")
            tol_kwargs[key] = float(value)
    try:
        tol = ToleranceConfig(**tol_kwargs)
    except ValueError as exc:
        raise InputError(str(exc)) from None

    probe_values = {}
    if "probe" in cp:
        for key in cp["probe"]:
            probe_values[key] = _number(cp["probe"][key], key)
    for key, value in (probe_overrides or {}).items():
        if key not in allowed["probe"]:
            raise InputError(f"unknown probe setting {key!r}")
        probe_values[key] = value
    grid_kwargs = {k: v for k, v in probe_values.items() if k in _GRID_KEYS}
    probe_kwargs = {k: v for k, v in probe_values.items() if k not in _GRID_KEYS}
    try:
        grid = GridSpec(**grid_kwargs)
        probe = ProbeConfig(**probe_kwargs)
    except ValueError as exc:
        raise InputError(str(exc)) from None

    return ProblemFile(spec, point, tol, grid, probe, f0_text, F_text, str(path), note)
