"""Shows that each check of the benchmark can fail.

    python3 bench/selftest.py [--seed N]

Runs one pass of the decide workload and one of a two-fixture probe
workload, requires the checks to pass on the program's real reports, then
feeds each check a report with one fact made wrong (a flipped verdict, a
perturbed point, ...) and requires the check to flag it.  Exits 1 if any
check misses its mutation.  Takes about a minute.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import sys

import checks
import run
from tracer import Tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    sys.path.insert(0, run.SRC)
    import aubincheck.cli as cli

    os.makedirs(run.OUT, exist_ok=True)
    workdir = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        decide_table, decide_ops = run.build_decide(args.seed, workdir)
        decide = run.run_pass(cli, decide_ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probe_table, probe_ops = run.build_probe(("circle_boundary", "halfline_bilinear"), args.seed)
    probe = run.run_pass(cli, probe_ops)

    missed = []

    def expect(label, found):
        print(f"{'caught' if found else 'MISSED'}: {label}")
        if not found:
            missed.append(label)

    for label, ops, table, result in (("decide", decide_ops, decide_table, decide),
                                      ("probe", probe_ops, probe_table, probe)):
        failures = run.check_pass(ops, table, result)
        print(f"clean {label} pass: {len(failures)} failing operations")
        if failures:
            missed.append(f"clean {label} pass has failures: {failures}")

    docs = lambda result: [json.loads(o) if o else None for o in result["outs"]]
    d_docs, p_docs = docs(decide), docs(probe)

    def find(ops, pred):
        return next(i for i, op in enumerate(ops) if pred(op))

    def mutated(doc, path, value):
        doc = copy.deepcopy(doc)
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return doc

    # analyze against the generator and the independent evaluation
    for kind, subtag in (("interior_yes", None), ("nondeg_no", "Nondegenerate"), ("degen_yes", "Degenerate")):
        i = find(decide_ops, lambda op: op.kind == "analyze" and kind in op.problem and op.problem.endswith("_base"))
        e = decide_table[decide_ops[i].problem]
        doc = d_docs[i]
        flipped = {"Yes": "No", "No": "Yes"}[doc["verdict"]["lipschitz_like"]]
        expect(f"{kind}: wrong verdict", checks.check_analyze(
            i, mutated(doc, ("verdict", "lipschitz_like"), flipped), e.reference, e.expected))
        expect(f"{kind}: wrong case tag", checks.check_analyze(
            i, mutated(doc, ("case", "tag"), "Boundary" if subtag is None else "Interior"),
            e.reference, e.expected))
        if subtag is not None:
            lam = doc["multiplier"]["lambda"]
            expect(f"{kind}: wrong multiplier", checks.check_analyze(
                i, mutated(doc, ("multiplier", "lambda"), lam * 1.001 + 1e-3), e.reference, None))

    # metamorphic relations
    i = find(decide_ops, lambda op: op.kind == "analyze" and "nondeg_yes" in op.problem and op.problem.endswith("_base"))
    base = decide_table[decide_ops[i].problem].expected.base
    members = sorted(
        ((decide_table[op.problem].expected.transform != "base", j, d_docs[j],
          decide_table[op.problem].expected.transform, decide_table[op.problem].expected.scale)
         for j, op in enumerate(decide_ops)
         if op.kind == "analyze" and decide_table[op.problem].expected is not None
         and decide_table[op.problem].expected.base == base),
        key=lambda m: m[0])
    members = [m[1:] for m in members]
    expect("metamorphic: clean group passes", not checks.check_metamorphic(members))
    for k, (j, doc, transform, c) in enumerate(members[1:], start=1):
        bad = list(members)
        bad[k] = (j, mutated(doc, ("verdict", "lipschitz_like"), "Unknown"), transform, c)
        expect(f"metamorphic {transform}: verdict changed", checks.check_metamorphic(bad))
        if transform.startswith("scale"):
            bad[k] = (j, mutated(doc, ("multiplier", "lambda"), members[0][1]["multiplier"]["lambda"]),
                      transform, c)
            expect(f"metamorphic {transform}: multiplier not scaled", checks.check_metamorphic(bad))

    # membership rules
    def membership_case(label, pred, answer):
        i = find(decide_ops, lambda op: op.kind == "membership" and pred(op))
        op = decide_ops[i]
        verdict = d_docs[find(decide_ops, lambda o: o.kind == "analyze" and o.problem == op.problem)]["verdict"]["lipschitz_like"]
        doc = d_docs[i]
        expect(f"{label} (clean report passes)", not checks.check_membership(i, doc, op.role, verdict))
        expect(label, checks.check_membership(i, mutated(doc, ("membership", 0, "answer"), answer), op.role, verdict))

    membership_case("(0, 0) answered Out", lambda op: op.role == "zero", "Out")
    membership_case("smooth query answered Unknown", lambda op: op.role == "smooth", "Unknown")
    i = find(decide_ops, lambda op: op.role == "w_only" and "interior_yes" in op.problem)
    expect("Yes verdict with (0, w') In", checks.check_membership(
        i, mutated(d_docs[i], ("membership", 0, "answer"), "In"), "w_only", "Yes"))
    expect("membership verdict differs from analyze", checks.check_membership(
        i, mutated(d_docs[i], ("verdict", "lipschitz_like"), "No"), "w_only", "Yes"))
    i = find(decide_ops, lambda op: op.role == "scaled")
    j = decide_ops.index(decide_ops[i].pair)
    other = {"In": "Out", "Out": "In", "Unknown": "In"}[d_docs[i]["membership"][0]["answer"]]
    expect("scaled query answered differently", checks.check_scaled(
        i, mutated(d_docs[i], ("membership", 0, "answer"), other), d_docs[j]))

    # tolerance sweep
    i = find(probe_ops, lambda op: op.role == "sweep" and "strict" in op.argv)
    j = probe_ops.index(probe_ops[i].pair)
    expect("sweep: multiplier changed", checks.check_tolerance_sweep(
        i, mutated(p_docs[i], ("multiplier",), {"lambda": 7.0, "residual": 0.0}), p_docs[j]))
    expect("strict: Yes where extended says No", checks.check_tolerance_sweep(
        i, mutated(p_docs[i], ("verdict", "lipschitz_like"), "Yes"),
        mutated(p_docs[j], ("verdict", "lipschitz_like"), "No")))

    # probe
    for name, flag in (("circle_boundary", "Violation"), ("halfline_bilinear", "Consistent")):
        i = find(probe_ops, lambda op: op.kind == "probe" and op.problem == name)
        ref = probe_table[name].reference
        verdict = p_docs[i]["verdict"]["lipschitz_like"]
        expect(f"probe {name}: {verdict} with {flag}", checks.check_probe(
            i, mutated(p_docs[i], ("probe", "flag"), flag), ref, verdict))
    i = find(probe_ops, lambda op: op.kind == "probe" and op.problem == "circle_boundary")
    doc = copy.deepcopy(p_docs[i])
    level = next(lv for lv in doc["probe"]["levels"] if lv["worst_pair"] and "x_point" in lv["worst_pair"])
    level["worst_pair"]["x_point"] = [t + 1e-4 for t in level["worst_pair"]["x_point"]]
    expect("probe: perturbed worst-pair point", checks.check_probe(
        i, doc, probe_table["circle_boundary"].reference, p_docs[i]["verdict"]["lipschitz_like"]))

    # reports that differ between passes
    first = list(probe["outs"])
    first[i] = first[i].replace('"flag"', '"flag" ', 1)
    second = run.run_pass(cli, probe_ops, first)
    expect("report differs between passes", second["changed"] == {i} and run.tally([probe, second], {}) == 1)

    # the tracer's self times against the benchmark loop's own times
    def traced_pass(ops, unwrap_main):
        original = cli.main
        tracer = Tracer()
        tracer.install()
        if unwrap_main:
            cli.main = original
        try:
            p = run.run_pass(cli, ops)
        finally:
            tracer.uninstall()
        p["stats"] = tracer.stats
        return p

    decisions = [op for op in probe_ops if op.kind != "probe"]
    clean = traced_pass(decisions, False)
    print(f"traced pass: {run.unaccounted(clean) / len(decisions) * 1e6:.1f} µs per command outside traced spans")
    expect("traced pass accounted for (clean pass passes)", run.accounted(clean, len(decisions)))
    p = traced_pass(decisions, True)
    print(f"cli.main unwrapped: {run.unaccounted(p) / len(decisions) * 1e6:.1f} µs per command outside traced spans")
    expect("cli.main left unwrapped", not run.accounted(p, len(decisions)))
    inflated = dict(clean, stats={name: [c, t, s * 1.01] for name, (c, t, s) in clean["stats"].items()})
    expect("self times beyond the commands' time", not run.accounted(inflated, len(decisions)))

    print("all checks able to fail" if not missed else f"{len(missed)} problem(s): {missed}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
