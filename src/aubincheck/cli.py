"""Command-line interface.

Subcommands: analyze (three-valued Lipschitz-like verdict), membership
(coderivative membership query), probe (numerical Aubin probe), and
derivatives (derivative bundle dump with optional finite-difference audit).
``COMMANDS`` lists them; ``main`` builds only the parser of the command it
runs, about a third of the argparse set-up of all four.  ``--version``
prints the package version.

Exit codes: 0 analysis completed (including an Unknown verdict or an
Inconclusive probe); 2 input or parse error, including an expression nested
too deeply to process; 3 precondition failure at the
reference point (infeasible, not stationary, MFCQ violated, out of domain);
4 dimensions exceed the probe capability.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from . import __version__
from .calculus import derivative_bundle, finite_difference_audit
from .conditions import MODE_EXTENDED, MODE_STRICT, coderivative_membership, verdict
from .errors import DomainError, GridTooCoarse, InputError, PreconditionError
from .oracle import aubin_probe, write_samples_csv
from .problemfile import ProblemFile, _number, _reals, load_problem
from .report import (
    analysis_document,
    derivatives_document,
    dumps_canonical,
    render_derivatives_text,
    render_text,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_CAPABILITY = 4


# probe flags and the [probe] keys they set
_PROBE_FLAGS = (
    ("box_radius", "r_x"),
    ("grid_points", "points_per_axis"),
    ("delta0", "delta0"),
    ("samples", "samples"),
    ("seed", "seed"),
    ("levels", "levels"),
)


def _load(args) -> ProblemFile:
    """The problem file with the command line's settings, as text, read as
    its values."""
    tolerances = {}
    for item in getattr(args, "tol_overrides", None) or ():
        if "=" not in item:
            raise InputError(f"tolerance override {item!r} is not of the form key=value")
        key, value = item.split("=", 1)
        tolerances[key.strip()] = value
    probe = {
        key: getattr(args, flag)
        for flag, key in _PROBE_FLAGS
        if getattr(args, flag, None) is not None
    }
    # configparser would add an empty section too, at a cost on every command
    overrides = {section: kv for section, kv in (("tolerances", tolerances), ("probe", probe)) if kv}
    return load_problem(args.file, overrides)


def _emit(args, doc, text_renderer=render_text) -> None:
    if args.json:
        sys.stdout.write(dumps_canonical(doc))
    else:
        sys.stdout.write(text_renderer(doc))


def cmd_analyze(args) -> int:
    pf = _load(args)
    v = verdict(pf.spec, pf.point, pf.tolerances, args.mode)
    _emit(args, analysis_document("analyze", pf, v))
    return EXIT_OK


def cmd_membership(args) -> int:
    pf = _load(args)
    xprime = _reals(args.xprime, "xprime")
    wprime = _reals(args.wprime, "wprime")
    v = verdict(pf.spec, pf.point, pf.tolerances, args.mode)
    result = coderivative_membership(v, xprime, wprime, pf.tolerances)
    entry = {
        "x_prime": xprime,
        "w_prime": wprime,
        "answer": result.answer,
        "witness_v": list(result.witness_v) if result.witness_v is not None else None,
        "witness_gamma": result.witness_gamma,
        "branch": result.branch,
        "notes": list(result.notes),
    }
    _emit(args, analysis_document("membership", pf, v, membership=[entry]))
    return EXIT_OK


def cmd_probe(args) -> int:
    pf = _load(args)
    if pf.spec.n > 2 or pf.spec.d > 2:
        print(
            f"error: probe supports n <= 2 and d <= 2, problem has "
            f"n={pf.spec.n}, d={pf.spec.d}",
            file=sys.stderr,
        )
        return EXIT_CAPABILITY
    v = verdict(pf.spec, pf.point, pf.tolerances, MODE_EXTENDED)
    # The report's warnings go to stderr as plain lines, once each.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GridTooCoarse)
        report = aubin_probe(pf.spec, pf.point, pf.probe, pf.grid, pf.tolerances)
    for msg in report.warnings:
        print(f"warning: {msg}", file=sys.stderr)
    if args.csv is not None:
        write_samples_csv(report.samples, args.csv, pf.spec.n, pf.spec.d)
    _emit(args, analysis_document("probe", pf, v, probe=report))
    return EXIT_OK


def cmd_derivatives(args) -> int:
    pf = _load(args)
    h = None if args.fd_audit is None else _number(args.fd_audit, "fd_audit")
    bundle = derivative_bundle(pf.spec, pf.point)
    audit = None if h is None else finite_difference_audit(pf.spec, pf.point, bundle, h)
    doc = derivatives_document(pf, bundle, audit)
    _emit(args, doc, render_derivatives_text)
    return EXIT_OK


def _common_arguments(p, mode=True) -> None:
    p.add_argument("file", help="problem file (sectioned key-value text)")
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.add_argument(
        "--tol-overrides",
        nargs="*",
        metavar="KEY=VALUE",
        help="tolerance overrides, e.g. tau_rank=1e-8",
    )
    if mode:
        p.add_argument(
            "--mode",
            choices=[MODE_STRICT, MODE_EXTENDED],
            default=MODE_EXTENDED,
            help="strict confines No verdicts to the literal theorem statements",
        )


def _membership_arguments(p) -> None:
    _common_arguments(p)
    p.add_argument("--xprime", required=True, help="comma-separated x' query vector")
    p.add_argument("--wprime", required=True, help="comma-separated w' query vector")


def _probe_arguments(p) -> None:
    _common_arguments(p, mode=False)
    p.add_argument("--csv", help="dump sampled stationary sets to this CSV file")
    p.add_argument("--delta0", help="coarsest parameter radius")
    p.add_argument("--samples", help="parameter draws per radius level")
    p.add_argument("--seed", help="deterministic sampling seed")
    p.add_argument("--levels", help="number of radius levels")
    p.add_argument("--box-radius", help="stationary-set box radius around x")
    p.add_argument("--grid-points", help="grid points per axis (odd)")


def _derivatives_arguments(p) -> None:
    _common_arguments(p, mode=False)
    p.add_argument(
        "--fd-audit",
        metavar="H",
        help="audit the bundle against central differences with step H",
    )


# name -> (help, handler, argument adder), in the order the help lists them
COMMANDS = {
    "analyze": ("three-valued Lipschitz-like verdict", cmd_analyze, _common_arguments),
    "membership": ("coderivative membership query", cmd_membership, _membership_arguments),
    "probe": ("numerical Aubin probe (evidence, not judgment)", cmd_probe, _probe_arguments),
    "derivatives": ("derivative bundle dump", cmd_derivatives, _derivatives_arguments),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The CLI's parser: with only ``command``'s subparser when it names a
    command, else with all of them.  Either parses a command line that starts
    with ``command`` the same way, and prints the same usage and errors."""
    parser = argparse.ArgumentParser(
        prog="aubincheck",
        description=(
            "Decide, certify, or refute the local Lipschitz-like (Aubin) property "
            "of the stationary point set map of a parametric program at a "
            "reference point."
        ),
    )
    parser.add_argument("--version", action="version", version=f"aubincheck {__version__}")
    if command in COMMANDS:
        # The usage line still lists every command.  A metavar also renames the
        # action in the errors for a missing or unknown command, which only the
        # full parser can raise, so it is set only here.
        names, metavar = (command,), "{" + ",".join(COMMANDS) + "}"
    else:
        names, metavar = tuple(COMMANDS), None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, handler, add_arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (PreconditionError, DomainError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
