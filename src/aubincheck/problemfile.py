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

Unknown sections or keys are rejected.  Every number outside an expression
is an optional sign and ASCII decimals: ``[+-]?[0-9]+`` for n, d and the
integer probe settings, an optional sign and the expression grammar's
literal for reals, which must also be finite.  ``1_000``, ``inf``, ``nan``
and other scripts' digits are rejected.  The command line's settings
(``--tol-overrides`` and the probe flags) are read as the file's values:
``load_problem`` lays them over the file before it checks any key or
number.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, fields

from .calculus import EvalPoint, ToleranceConfig, _check_pair
from .errors import InputError
from .expr import _NUM, ProblemSpec, parse
from .oracle import GridSpec, ProbeConfig

__all__ = ["ProblemFile", "load_problem"]

_TOL_KEYS, _GRID_KEYS, _PROBE_KEYS = (
    tuple(f.name for f in fields(cls)) for cls in (ToleranceConfig, GridSpec, ProbeConfig)
)
_INT_KEYS = ("n", "d", "points_per_axis", "newton_cap", "levels", "samples", "seed")
_INT_RE = re.compile(r"[+-]?[0-9]+")
_REAL_RE = re.compile(rf"[+-]?{_NUM}")


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


def _reals(text: str, key: str) -> list:
    """The comma-separated reals of a point list or a membership query."""
    return [_number(tok, key) for tok in text.split(",")]


def _parse_list(raw: str, key: str) -> list:
    s = raw.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise InputError(f"value of {key!r} must be a bracketed list, got {raw!r}")
    if not s[1:-1].strip():
        raise InputError(f"list {key!r} must not be empty")
    return _reals(s[1:-1], key)


def _number(raw: str, key: str):
    s = raw.strip()
    if key in _INT_KEYS:
        if _INT_RE.fullmatch(s):
            return int(s)
    elif _REAL_RE.fullmatch(s) and math.isfinite(float(s)):
        return float(s)
    kind = "an integer" if key in _INT_KEYS else "a finite real"
    raise InputError(f"could not parse {key!r}: {s!r} is not {kind} in ASCII decimals")


def load_problem(path: str, overrides: dict | None = None) -> ProblemFile:
    """Load and validate a problem file.  ``overrides`` ({section: {key:
    text}}, the command line's settings) replace the file's values and are
    checked exactly like them."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keys are case-sensitive
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh, source=path)
        cp.read_dict(overrides or {}, source="<command line>")
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
    point = EvalPoint(*_check_pair(x, w, n, d))
    note = _unquote(cp["problem"]["note"], "note") if "note" in cp["problem"] else None

    tol_values, probe_values = (
        {k: _number(v, k) for k, v in cp[section].items()} if section in cp else {}
        for section in ("tolerances", "probe")
    )
    try:
        tol = ToleranceConfig(**tol_values)
        grid = GridSpec(**{k: v for k, v in probe_values.items() if k in _GRID_KEYS})
        probe = ProbeConfig(**{k: v for k, v in probe_values.items() if k not in _GRID_KEYS})
    except ValueError as exc:
        raise InputError(str(exc)) from None

    return ProblemFile(spec, point, tol, grid, probe, f0_text, F_text, str(path), note)
