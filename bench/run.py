"""aubincheck benchmark: whole CLI commands run in one process.

    python3 bench/run.py --workload {probe,decide} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each operation is one `aubincheck` command
run through `aubincheck.cli.main(argv)` with stdout captured.  A run repeats
whole passes over its workload's commands while one more fits in
`--seconds`, and at least twice, then checks the reports (see checks.py) and
prints one JSON object as its last line.  `--trace 1` alternates untraced
and traced passes and reports per-layer figures instead of the end-to-end
ones.  Details of each run go to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from time import perf_counter

import checks
import problems
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "fixtures")
OUT = os.path.join(HERE, "out")

# Every fixture within the probe's reach (n <= 2, d <= 2): six with n = 1, where
# few points reach each evaluation call, and two with n = 2, where many do.
PROBE_FIXTURES = ("circle_boundary", "cubic_pitchfork", "halfline_bilinear", "halfline_quadratic",
                  "product_constraint", "quartic_cuberoot", "bilinear_ball", "moving_plane")
ALL_FIXTURES = PROBE_FIXTURES + ("trust_region",)

# decide: the base problems' variants plus the fixtures (72 problems) must
# outnumber the 64 entries of the derivative cache in calculus, so that cycling
# through the problems in a fixed order never finds trees an earlier command built.
BASE_PROBLEMS = 16
SCALE_T = 3.0  # t in the scale-invariance queries t·(x', w')
RANDOM_DIRECTIONS = 4  # membership directions per fixture in the probe workloads
SWEEP = ("1e-06", "1e-07", "1e-08", "1e-10", "1e-11", "1e-12")  # tau_rank values
SETUP_IMPORTS = 11
MIN_PASSES = 2
# Loop time per command outside any traced span: redirecting stdout and the
# tracer's own bookkeeping take about 25 µs; cli.main's own work, 150 µs or more.
UNACCOUNTED_PER_COMMAND = 75e-6


@dataclass(eq=False)
class Op:
    argv: list
    kind: str  # analyze | membership | probe
    problem: str
    role: str = ""  # membership: zero | w_only | smooth | random | scaled; analyze: sweep
    pair: Op | None = None  # the op a scaled query or sweep entry is compared with


@dataclass
class ProblemEntry:
    path: str
    reference: checks.Reference
    expected: problems.Variant | None = None


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _read_fixture(name: str) -> ProblemEntry:
    path = os.path.join(FIXTURES, f"{name}.prob")
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp.read(path, encoding="utf-8")
    pr, pt = cp["problem"], cp["point"]
    vec = lambda s: [float(t) for t in s.strip()[1:-1].split(",")]
    ref = checks.Reference(int(pr["n"]), int(pr["d"]), pr["f0"].strip()[1:-1], pr["F"].strip()[1:-1],
                           vec(pt["x"]), vec(pt["w"]))
    return ProblemEntry(path, ref)


def _vector_arg(flag: str, v) -> str:
    return f"--{flag}=" + ",".join(repr(float(t)) for t in v)


def _membership(path, name, x, w, role) -> Op:
    return Op(["membership", path, "--json", _vector_arg("xprime", x), _vector_arg("wprime", w)],
              "membership", name, role)


def _nonzero(rng, size):
    v = [rng.randint(-3, 3) for _ in range(size)]
    if not any(v):
        v[rng.randrange(size)] = 1
    return v


def _queries(rng, entry: ProblemEntry, name: str, directions: int, smooth=None) -> list:
    """Membership queries on one problem: (0, 0), (0, w'), then pairs (x', w'), t·(x', w')."""
    n, d = entry.reference.n, entry.reference.d
    ops = [_membership(entry.path, name, [0] * n, [0] * d, "zero"),
           _membership(entry.path, name, [0] * n, _nonzero(rng, d), "w_only")]
    for k in range(directions):
        if smooth is not None and k == 0:
            x, w, role = smooth[0], smooth[1], "smooth"
        else:
            x, w, role = _nonzero(rng, n), [rng.randint(-3, 3) for _ in range(d)], "random"
        ops.append(_membership(entry.path, name, x, w, role))
        ops.append(_membership(entry.path, name, [SCALE_T * t for t in x], [SCALE_T * t for t in w], "scaled"))
        ops[-1].pair = ops[-2]
    return ops


def build_decide(seed: int, workdir: str):
    """Five rounds over all problems in one fixed order.  In round r, problem j
    runs command (j + r) mod 5 of: analyze and four membership queries.

    71 other problems pass through the 64-entry derivative cache in calculus
    between two visits of a problem, so no command finds trees an earlier
    command built, as with a fresh CLI process.  The rotation spreads the
    analyze commands over the whole pass, like the membership ones, so both
    shares sample the same stretch of time.
    """
    rng = random.Random(seed)
    table = {name: _read_fixture(name) for name in ALL_FIXTURES}
    for base in problems.generate(seed, BASE_PROBLEMS):
        for v in problems.variants(base, rng):
            path = os.path.join(workdir, f"{v.name}.prob")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(v.text())
            table[v.name] = ProblemEntry(path, checks.Reference(v.n, v.d, v.f0, v.F, v.x, v.w), v)
    order = sorted(table)
    rng.shuffle(order)
    per_problem = []
    for name in order:
        e = table[name]
        smooth = None
        if e.expected is not None and e.expected.x_query is not None:
            smooth = (e.expected.x_query, e.expected.w_query)
        per_problem.append([Op(["analyze", e.path, "--json"], "analyze", name)]
                           + _queries(rng, e, name, 1, smooth))
    width = len(per_problem[0])
    ops = [per_problem[j][(j + r) % width] for r in range(width) for j in range(len(order))]
    return table, ops


def build_probe(fixtures, seed: int):
    """Per fixture: analyze (default, strict, a tau_rank sweep), membership
    queries, then the probe."""
    rng = random.Random(seed)
    table = {name: _read_fixture(name) for name in fixtures}
    order = list(fixtures)
    rng.shuffle(order)
    ops = []
    for name in order:
        path = table[name].path
        default = Op(["analyze", path, "--json"], "analyze", name)
        ops.append(default)
        ops.append(Op(["analyze", path, "--json", "--mode", "strict"], "analyze", name, "sweep", default))
        for tau in SWEEP:
            ops.append(Op(["analyze", path, "--json", "--tol-overrides", f"tau_rank={tau}"],
                          "analyze", name, "sweep", default))
        ops.extend(_queries(rng, table[name], name, RANDOM_DIRECTIONS))
        ops.append(Op(["probe", path, "--json"], "probe", name))
    return table, ops


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def fresh_caches():
    """The `cache_clear` of every functools cache in the `aubincheck` modules."""
    found = {}
    for modname, module in list(sys.modules.items()):
        if modname == "aubincheck" or modname.startswith("aubincheck."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj.cache_clear
    return list(found.values())


def run_pass(cli, ops, first=None, between=None):
    """One pass; `cli.main` is looked up per call so that a traced pass sees its wrapper.

    Every command starts with the program's caches empty, as in a fresh CLI
    process; the clearing is not timed.  The first pass keeps its reports.
    A later pass, given them as `first`, keeps only the indices of the
    reports that differ, so memory does not grow with the number of passes.
    `between`, if given, is called after each command, outside its timing.
    """
    clears = fresh_caches()
    outs, changed, codes, times = [], set(), [], []
    t0, cpu0 = perf_counter(), time.process_time()
    for i, op in enumerate(ops):
        for clear in clears:
            clear()
        out, err = io.StringIO(), io.StringIO()
        t = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(op.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is one failed operation, not the end of the run
                code = "exception"
                err.write(traceback.format_exc())
        times.append(perf_counter() - t)
        if first is None:
            outs.append(out.getvalue())
        elif out.getvalue() != first[i]:
            changed.add(i)
        codes.append(code if code == 0 else (code, err.getvalue()[-2000:]))
        if between is not None:
            between()
    return {"wall": perf_counter() - t0, "cpu": time.process_time() - cpu0,
            "outs": outs, "changed": changed, "codes": codes, "times": times}


def check_pass(ops, table, result) -> dict:
    """Failures of the first pass: op index -> messages."""
    failures = {}

    def fail(found):
        for i, msg in found:
            failures.setdefault(i, []).append(msg)

    docs = {}
    for i, (op, code) in enumerate(zip(ops, result["codes"])):
        if code != 0:
            fail([(i, f"exit code {code}")])
        else:
            docs[i] = json.loads(result["outs"][i])
    analyze = {}
    for i, op in enumerate(ops):
        if op.kind == "analyze" and not op.role and i in docs:
            e = table[op.problem]
            fail(checks.check_analyze(i, docs[i], e.reference, e.expected))
            analyze[op.problem] = (i, docs[i])
    verdict = {name: doc["verdict"]["lipschitz_like"] for name, (_, doc) in analyze.items()}
    groups = {}
    for name, (i, doc) in analyze.items():
        e = table[name]
        if e.expected is not None:
            groups.setdefault(e.expected.base, []).append(
                (e.expected.transform != "base", i, doc, e.expected.transform, e.expected.scale))
    for members in groups.values():
        members.sort(key=lambda m: m[0])
        fail(checks.check_metamorphic([m[1:] for m in members]))
    index = {op: i for i, op in enumerate(ops)}
    for i, op in enumerate(ops):
        if i not in docs or op.problem not in verdict:
            continue
        pair = docs.get(index[op.pair]) if op.pair is not None else None
        if op.kind == "membership":
            fail(checks.check_membership(i, docs[i], op.role, verdict[op.problem]))
            if op.role == "scaled" and pair is not None:
                fail(checks.check_scaled(i, docs[i], pair))
        elif op.kind == "probe":
            fail(checks.check_probe(i, docs[i], table[op.problem].reference, verdict[op.problem]))
        elif op.role == "sweep" and pair is not None:
            fail(checks.check_tolerance_sweep(i, docs[i], pair))
    return failures


def tally(passes, failures) -> int:
    """Failed operations over all passes: the first pass's failures recur in
    every pass, and a report that differs from the first pass's fails."""
    failed = 0
    for p in passes:
        for i, code in enumerate(p["codes"]):
            if i in failures or code != 0:
                failed += 1
            elif i in p["changed"]:
                failures.setdefault(i, []).append("report differs between passes of one run")
                failed += 1
    return failed


IMPORT = [sys.executable, "-I", "-c", "import sys; sys.path.insert(0, sys.argv[1]); import aubincheck.cli", SRC]


def time_import() -> float:
    """Wall time of a fresh interpreter importing aubincheck.cli."""
    t = perf_counter()
    subprocess.run(IMPORT, check=True, cwd=ROOT)
    return perf_counter() - t


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

TRACED = ("cli.main", "problemfile.load_problem", "expr.parse", "expr.differentiate", "expr.evaluate",
          "expr.eval_array", "calculus.problem_derivatives", "calculus.derivative_bundle",
          "kernel.null_space", "kernel.cone_span", "kernel.affine_feasibility", "conditions.verdict",
          "conditions.coderivative_membership", "oracle.aubin_probe", "report.analysis_document",
          "report.dumps_canonical", "numpy.pinv")


def commands_time(passes, ops, kind=None) -> float:
    """Median over the passes of the time of their commands (of `kind`).

    On the 2-vCPU reference machine of README.md, each command's least time
    over the passes spread more from run to run than this median.
    """
    return statistics.median(sum(t for t, op in zip(p["times"], ops) if kind in (None, op.kind))
                             for p in passes)


def end_to_end(passes, ops, setup_s) -> dict:
    return {
        "wall_s": (commands_time(passes, ops), "s"),
        "analyze_s": (commands_time(passes, ops, "analyze"), "s"),
        "membership_s": (commands_time(passes, ops, "membership"), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def per_layer(traced, untraced, ops, reports) -> dict:
    """Medians over the traced passes; each pass carries its tracer snapshot.
    `reports` are the first pass's, from which the probe counts are read."""
    def med(f):
        return statistics.median(f(p) for p in traced)

    stat = lambda p, name, k: p["stats"].get(name, (0, 0.0, 0.0))[k]
    m = {}
    for name in TRACED:
        m[f"{name}_s"] = (med(lambda p: stat(p, name, 1)), "s")
        m[f"{name}_self_s"] = (med(lambda p: stat(p, name, 2)), "s")
        m[f"{name}_calls"] = (med(lambda p: stat(p, name, 0)), "count")
    points = med(lambda p: p["counts"].get("expr.eval_array_points", 0))
    m["expr.eval_array_points"] = (points, "count")
    calls = m["expr.eval_array_calls"][0]
    m["expr.points_per_eval_array"] = (points / calls if calls else 0.0, "points/call")
    m["numpy.pinv_matrices"] = (med(lambda p: p["counts"].get("numpy.pinv_matrices", 0)), "count")
    commands = len(ops)
    m["calculus.derivative_bundle_per_command"] = (m["calculus.derivative_bundle_calls"][0] / commands, "calls/cmd")
    m["conditions.verdict_per_command"] = (m["conditions.verdict_calls"][0] / commands, "calls/cmd")
    for key, field in (("oracle.pairs", "n_pairs"), ("oracle.ratio_pairs", "n_ratio_pairs"),
                       ("oracle.empty_value_events", "empty_value_events")):
        m[key] = (_probe_total(reports, ops, field), "count")
    m["process.cpu_s"] = (med(lambda p: p["cpu"]), "s")
    untraced_wall = commands_time(untraced, ops)
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_s"] = (commands_time(traced, ops) - untraced_wall, "s")
    m["trace.unaccounted_s"] = (med(unaccounted), "s")
    return m


def unaccounted(p) -> float:
    """The benchmark loop's own times of a traced pass's commands minus the
    tracer's self times summed over all functions, in the same pass.

    The two are measured apart, by different clock readings.  Every span lies
    inside one command, so the difference is never negative; it is the part
    of the commands no traced function covers, which is small only if
    `cli.main` and everything below it were traced.
    """
    return sum(p["times"]) - sum(s[2] for s in p["stats"].values())


def accounted(p, commands: int) -> bool:
    return 0.0 <= unaccounted(p) <= UNACCOUNTED_PER_COMMAND * commands


def _probe_total(reports, ops, field) -> int:
    total = 0
    for op, out in zip(ops, reports):
        if op.kind == "probe" and out:
            total += sum(level[field] for level in json.loads(out)["probe"]["levels"])
    return total


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("probe", "decide"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (os.path.isfile(os.path.join(SRC, "aubincheck", "cli.py")) and os.path.isdir(FIXTURES)):
        print(f"error: {ROOT} is not an aubincheck checkout (src/aubincheck and fixtures/ needed)",
              file=sys.stderr)
        return 2
    subprocess.run(IMPORT, check=True, cwd=ROOT)  # untimed: a fresh checkout writes its bytecode here
    sys.path.insert(0, SRC)
    import aubincheck.cli

    if not os.path.abspath(aubincheck.cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported {aubincheck.cli.__file__}, not the checkout's", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.workload == "decide":
            table, ops = build_decide(args.seed, workdir)
        else:
            table, ops = build_probe(PROBE_FIXTURES, args.seed)
        passes, setup_samples = run_passes(aubincheck.cli, ops, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = check_pass(ops, table, passes[0])
    failed = tally(passes, failures)
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    # The tracer's self times must account for the commands' time, pass by pass.
    unexplained = [i for i, p in enumerate(passes) if p["traced"] and not accounted(p, len(ops))]
    if args.trace:
        metrics = per_layer(traced, untraced, ops, passes[0]["outs"])
    else:
        metrics = end_to_end(untraced, ops, statistics.median(setup_samples))
    result = {
        "correct": not failures and not unexplained,
        "attempted": len(ops) * len(passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, passes=len(passes),
                  ops_per_pass=len(ops), pass_walls=[p["wall"] for p in passes],
                  op_times=[[round(t, 6) for t in p["times"]] for p in passes], setup_samples=setup_samples,
                  traced=[p["traced"] for p in passes], unexplained_passes=unexplained,
                  failures={str(i): (ops[i].argv, msgs) for i, msgs in failures.items()},
                  edges=[[a, b, c, t] for (a, b), (c, t) in sorted(traced[0]["edges"].items())] if traced else [])
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


def run_passes(cli, ops, seconds, trace):
    """Whole passes while one more fits in `seconds`, and at least MIN_PASSES;
    with tracing, untraced and traced passes alternate.

    Between commands, SETUP_IMPORTS fresh-interpreter imports are timed, the
    k-th once k/SETUP_IMPORTS of `seconds` have gone by, so that they sample
    the machine's speed over the whole run rather than over a few seconds.
    Returns the passes and the import times.
    """
    tracer = Tracer()
    passes, imports = [], []
    start = perf_counter()

    def between():
        if len(imports) < SETUP_IMPORTS and perf_counter() - start >= len(imports) * seconds / SETUP_IMPORTS:
            imports.append(time_import())

    while len(passes) < MIN_PASSES or (perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
        traced = bool(trace) and len(passes) % 2 == 1
        first = passes[0]["outs"] if passes else None
        if traced:
            tracer.reset()
            tracer.install()
            try:
                p = run_pass(cli, ops, first, between)
            finally:
                tracer.uninstall()
            p.update(stats=tracer.stats, counts=tracer.counts, edges=tracer.edges)
        else:
            p = run_pass(cli, ops, first, between)
        p["traced"] = traced
        passes.append(p)
    while len(imports) < SETUP_IMPORTS:
        imports.append(time_import())
    return passes, imports


if __name__ == "__main__":
    sys.exit(main())
