import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from aubincheck import __version__
from aubincheck.calculus import BLOCKS, ProblemDerivatives
from aubincheck.cli import COMMANDS, _load, build_parser, main
from aubincheck.problemfile import load_problem
from conftest import FIXTURE_NAMES, PROBEABLE, fixture_path, golden_queries

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
ROOT = GOLDEN_DIR.parent.parent


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


class TestAnalyze:
    EXPECTED = {
        "trust_region": "Yes",
        "bilinear_ball": "No",
        "cubic_pitchfork": "Unknown",
        "quartic_cuberoot": "Unknown",
        "circle_boundary": "Yes",
        "moving_plane": "Unknown",
        "product_constraint": "Yes",
        "halfline_quadratic": "Yes",
        "halfline_bilinear": "No",
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_exit_zero_and_verdict(self, name):
        code, out = run_cli(["analyze", fixture_path(name), "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"]["lipschitz_like"] == self.EXPECTED[name]

    def test_strict_mode_moving_plane(self):
        code, out = run_cli(
            ["analyze", fixture_path("moving_plane"), "--json", "--mode", "strict"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"]["lipschitz_like"] == "Unknown"
        holds = {c["id"]: c["holds"] for c in doc["conditions"]}
        assert holds["C4_6"] and not holds["C4_4"]

    def test_discrepancy_note_in_report(self):
        code, out = run_cli(["analyze", fixture_path("product_constraint"), "--json"])
        doc = json.loads(out)
        assert any("C4_11b" in w for w in doc["warnings"])
        assert doc["multiplier"]["lambda"] == 2.0

    def test_json_matches_golden(self):
        for name in FIXTURE_NAMES:
            code, out = run_cli(["analyze", fixture_path(name), "--json"])
            golden = (GOLDEN_DIR / f"{name}_analyze.json").read_text()
            assert out == golden, name

    def test_json_roundtrip(self):
        _, out = run_cli(["analyze", fixture_path("circle_boundary"), "--json"])
        doc = json.loads(out)
        assert json.loads(json.dumps(doc)) == doc

    def test_text_and_json_agree(self):
        for name in ("circle_boundary", "bilinear_ball", "halfline_bilinear"):
            _, js = run_cli(["analyze", fixture_path(name), "--json"])
            _, text = run_cli(["analyze", fixture_path(name)])
            doc = json.loads(js)
            v = doc["verdict"]["lipschitz_like"]
            assert f"verdict: {v}" in text
            case = doc["case"]
            tag = case["tag"] + (f"/{case['subtag']}" if case["subtag"] else "")
            assert f"case: {tag}" in text
            if doc["multiplier"] is not None:
                assert f"lambda = {doc['multiplier']['lambda']!r}" in text
            for cond in doc["conditions"]:
                mark = "holds" if cond["holds"] else "fails"
                assert f"{cond['id']}: {mark}" in text

    def test_determinism(self):
        a = run_cli(["analyze", fixture_path("halfline_quadratic"), "--json"])
        b = run_cli(["analyze", fixture_path("halfline_quadratic"), "--json"])
        assert a == b

    def test_tol_override(self):
        code, out = run_cli(
            [
                "analyze",
                fixture_path("circle_boundary"),
                "--json",
                "--tol-overrides",
                "tau_rank=1e-8",
            ]
        )
        assert code == 0
        assert json.loads(out)["tolerances"]["tau_rank"] == 1e-8

    def test_bad_tol_override(self):
        code, _ = run_cli(
            ["analyze", fixture_path("circle_boundary"), "--tol-overrides", "bogus=1"]
        )
        assert code == 2


class TestErrorPaths:
    def test_infeasible_point(self, tmp_path):
        p = tmp_path / "infeasible.prob"
        p.write_text(
            '[problem]\nn = 1\nd = 1\nf0 = "x1^2"\nF = "x1"\n\n[point]\nx = [1]\nw = [0]\n'
        )
        code, _ = run_cli(["analyze", str(p)])
        assert code == 3

    def test_not_stationary(self, tmp_path):
        p = tmp_path / "ns.prob"
        p.write_text(
            '[problem]\nn = 1\nd = 1\nf0 = "x1"\nF = "x1 - 1"\n\n[point]\nx = [0]\nw = [0]\n'
        )
        code, _ = run_cli(["analyze", str(p)])
        assert code == 3

    def test_mfcq_violated(self, tmp_path):
        p = tmp_path / "mfcq.prob"
        p.write_text(
            '[problem]\nn = 1\nd = 1\nf0 = "x1^2"\nF = "x1^2 + w1"\n\n[point]\nx = [0]\nw = [0]\n'
        )
        code, _ = run_cli(["analyze", str(p)])
        assert code == 3

    @staticmethod
    def _assert_domain_error(code, out, err):
        assert code == 3
        assert out == "" and "Traceback" not in err
        assert err.startswith("error: DomainError:") and err.count("\n") == 1

    @pytest.mark.parametrize("f0, x", [("ln(x1)", "0"), ("sqrt(x1)", "-1"), ("1/x1", "0")])
    @pytest.mark.parametrize(
        "argv",
        [["analyze"], ["membership", "--xprime", "0", "--wprime", "0"], ["probe"], ["derivatives"]],
        ids=lambda argv: argv[0],
    )
    def test_point_outside_domain(self, f0, x, argv, tmp_path, capsys):
        p = tmp_path / "domain.prob"
        p.write_text(f'[problem]\nn = 1\nd = 1\nf0 = "{f0}"\nF = "x1 - 1"\n\n[point]\nx = [{x}]\nw = [0]\n')
        code, out = run_cli([argv[0], str(p), *argv[1:]])
        self._assert_domain_error(code, out, capsys.readouterr().err)

    def test_fd_audit_point_outside_domain(self, tmp_path, capsys):
        # The bundle holds no value of ln; x1 - h is negative, so the audit's
        # difference of f0 is not.
        p = tmp_path / "edge.prob"
        p.write_text(
            '[problem]\nn = 1\nd = 1\nf0 = "(x1 - 0.000001)^2 + ln(x1)*0"\nF = "x1 - 1"\n\n'
            "[point]\nx = [0.000001]\nw = [0]\n"
        )
        assert run_cli(["derivatives", str(p)])[0] == 0
        capsys.readouterr()
        code, out = run_cli(["derivatives", str(p), "--fd-audit", "1e-5"])
        self._assert_domain_error(code, out, capsys.readouterr().err)

    def test_parse_error(self, tmp_path):
        p = tmp_path / "bad.prob"
        p.write_text("not a problem file")
        code, _ = run_cli(["analyze", str(p)])
        assert code == 2

    def test_bad_expression(self, tmp_path):
        p = tmp_path / "badexpr.prob"
        p.write_text(
            '[problem]\nn = 1\nd = 1\nf0 = "x2"\nF = "x1"\n\n[point]\nx = [0]\nw = [0]\n'
        )
        code, _ = run_cli(["analyze", str(p)])
        assert code == 2

    def test_non_ascii_digit(self, tmp_path, capsys):
        p = tmp_path / "digit.prob"
        p.write_text(
            '[problem]\nn = 1\nd = 1\nf0 = "x\u0661^2"\nF = "x1 - 1"\n\n[point]\nx = [0]\nw = [0]\n',
            encoding="utf-8",
        )
        code, out = run_cli(["analyze", str(p)])
        err = capsys.readouterr().err
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "unknown.prob"
        p.write_text(
            '[problem]\nn = 1\nd = 1\nf0 = "x1^2"\nF = "x1 - 1"\nq = 3\n\n[point]\nx = [0]\nw = [0]\n'
        )
        code, _ = run_cli(["analyze", str(p)])
        assert code == 2

    def test_missing_file(self):
        code, _ = run_cli(["analyze", "/nonexistent/file.prob"])
        assert code == 2

    @staticmethod
    def _sum_problem(tmp_path, terms: int, tail: str = "") -> str:
        """A problem whose f0 is a flat sum of ``terms`` terms: a left spine
        ``terms`` nodes deep, followed by ``tail``."""
        f0 = " + ".join(f"{i + 1}*x1^2" for i in range(terms)) + tail
        p = tmp_path / f"sum{terms}.prob"
        p.write_text(f'[problem]\nn = 1\nd = 1\nf0 = "{f0}"\nF = "x1 - 1"\n\n[point]\nx = [0]\nw = [0]\n')
        return str(p)

    def test_long_flat_sum_is_valid(self, tmp_path):
        code, out = run_cli(["analyze", self._sum_problem(tmp_path, 10_000), "--json"])
        assert code == 0 and json.loads(out)["verdict"]["lipschitz_like"] == "Yes"
        path = self._sum_problem(tmp_path, 1000)
        assert run_cli(["membership", path, "--xprime", "0", "--wprime", "1"])[0] == 0
        code, out = run_cli(["derivatives", path, "--json"])
        assert code == 0 and json.loads(out)["bundle"]["Hxx"] == [[1001000.0]]

    def test_bad_last_character_of_a_long_sum(self, tmp_path, capsys):
        code, out = run_cli(["analyze", self._sum_problem(tmp_path, 20_000, tail="$")])
        err = capsys.readouterr().err
        assert code == 2
        assert out == "" and "Traceback" not in err
        assert err.startswith("error: ExpressionSyntaxError: unexpected character '$'") and err.count("\n") == 1

    def test_deep_expression_is_input_error(self, tmp_path, capsys):
        # Nesting past the parser's limit, by parentheses, unary minus or
        # function calls, is an input error reported on one line.
        for opening, closing in [("(", ")"), ("-", ""), ("sin(", ")")]:
            f0 = opening * 150 + "x1" + closing * 150
            p = tmp_path / "deep.prob"
            p.write_text(f'[problem]\nn = 1\nd = 1\nf0 = "{f0}"\nF = "x1 - 1"\n\n[point]\nx = [0]\nw = [0]\n')
            code, out = run_cli(["analyze", str(p)])
            err = capsys.readouterr().err
            assert code == 2, opening
            assert out == "" and "Traceback" not in err
            assert err.startswith("error:") and err.count("\n") == 1
            assert "nests deeper than" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["probe", "{fixture}", "--grid-points", "4"],
            ["probe", "{ball}", "--grid-points", "1000001"],  # 10^12 points on n = 2
            ["probe", "{fixture}", "--samples", "0"],
            ["probe", "{fixture}", "--levels", "0"],
            ["probe", "{fixture}", "--delta0=-1"],
            ["probe", "{fixture}", "--box-radius", "0"],
            ["probe", "{fixture}", "--delta0", "nan"],
            ["probe", "{fixture}", "--box-radius", "inf"],
            ["probe", "{nan_delta0}"],
            ["analyze", "{fixture}", "--tol-overrides", "tau_rank=nan"],
            ["analyze", "{fixture}", "--tol-overrides", "tau_act=inf"],
            ["membership", "{fixture}", "--xprime", "nan", "--wprime", "0"],
            ["membership", "{fixture}", "--xprime", "inf", "--wprime", "0"],
            ["membership", "{fixture}", "--xprime", "0", "--wprime=-inf"],
            ["analyze", "{nan_x}"],
            ["analyze", "{inf_w}"],
            ["analyze", "{big_literal}"],
            ["derivatives", "{fixture}", "--fd-audit", "0"],
            ["derivatives", "{fixture}", "--fd-audit=-1"],
            ["derivatives", "{fixture}", "--fd-audit", "nan"],
            ["derivatives", "{fixture}", "--fd-audit", "inf"],
        ],
        ids=" ".join,
    )
    def test_bad_setting_is_input_error(self, argv, tmp_path, capsys):
        base = pathlib.Path(fixture_path("halfline_quadratic")).read_text()
        variants = {
            "nan_delta0": base + "\n[probe]\ndelta0 = nan\n",
            "nan_x": base.replace("x = [0]", "x = [nan]"),
            "inf_w": base.replace("w = [0]", "w = [inf]"),
            "big_literal": base.replace('f0 = "x1^2"', 'f0 = "1e400*x1 + x1^2"'),
        }
        paths = {"fixture": fixture_path("halfline_quadratic"), "ball": fixture_path("bilinear_ball")}
        for name, text in variants.items():
            paths[name] = str(tmp_path / f"{name}.prob")
            pathlib.Path(paths[name]).write_text(text)
        code, out = run_cli([arg.format(**paths) for arg in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert out == "" and "Traceback" not in err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_probe_capability_bound(self, tmp_path):
        p = tmp_path / "n3.prob"
        p.write_text(
            '[problem]\nn = 3\nd = 1\nf0 = "x1^2 + x2^2 + x3^2"\nF = "x1 - 1"\n\n'
            "[point]\nx = [0, 0, 0]\nw = [0]\n"
        )
        code, _ = run_cli(["probe", str(p)])
        assert code == 4


class TestInputChecks:
    @staticmethod
    def _assert_one_error_line(code, out, err, prefix="error:"):
        assert code == 2
        assert out == "" and "Traceback" not in err
        assert err.startswith(prefix) and err.count("\n") == 1

    def test_note_comes_from_the_file(self, tmp_path):
        # The product_constraint note is data of its file: the same problem
        # without the note line reports no warning.
        text = pathlib.Path(fixture_path("product_constraint")).read_text()
        lines = text.splitlines(keepends=True)
        assert sum(line.startswith("note = ") for line in lines) == 1
        p = tmp_path / "product_constraint.prob"
        p.write_text("".join(line for line in lines if not line.startswith("note = ")))
        code, out = run_cli(["analyze", str(p), "--json"])
        doc = json.loads(out)
        assert code == 0
        assert doc["warnings"] == []
        assert doc["multiplier"]["lambda"] == 2.0

    def test_note_follows_the_verdict_warnings(self, tmp_path):
        # lambda within the zero tolerance: the verdict warns on its own.
        p = tmp_path / "borderline.prob"
        p.write_text(
            '[problem]\nn = 1\nd = 1\nf0 = "-0.000000005*x1"\nF = "x1 + w1"\nnote = "a = b: [c]"\n\n'
            "[point]\nx = [0]\nw = [0]\n"
        )
        code, out = run_cli(["analyze", str(p), "--json"])
        warnings = json.loads(out)["warnings"]
        assert code == 0
        assert len(warnings) == 2 and "zero tolerance" in warnings[0] and warnings[1] == "a = b: [c]"

    def test_unquoted_note(self, tmp_path, capsys):
        text = pathlib.Path(fixture_path("halfline_quadratic")).read_text()
        p = tmp_path / "note.prob"
        p.write_text(text.replace("[point]", "note = an unquoted note\n\n[point]"))
        code, out = run_cli(["analyze", str(p)])
        self._assert_one_error_line(code, out, capsys.readouterr().err)

    def test_tau_newton_is_unknown(self, tmp_path, capsys):
        text = pathlib.Path(fixture_path("halfline_quadratic")).read_text()
        p = tmp_path / "tau_newton.prob"
        p.write_text(text + "\n[probe]\ntau_newton = 1e-12\n")
        code, out = run_cli(["probe", str(p)])
        self._assert_one_error_line(code, out, capsys.readouterr().err)

    @pytest.mark.parametrize(
        "seed", ["1" + "0" * 400, str(2**63), str(-(2**63) - 1)], ids=["1e400", "2^63", "-2^63-1"]
    )
    @pytest.mark.parametrize("where", ["flag", "file"])
    def test_seed_out_of_range(self, where, seed, tmp_path, capsys):
        # A seed past float range stopped in the direction draws with a
        # traceback; any seed outside [-2^63, 2^63) is a bad probe setting.
        argv = ["probe", fixture_path("bilinear_ball"), f"--seed={seed}"]
        if where == "file":
            p = tmp_path / "seed.prob"
            p.write_text(pathlib.Path(argv[1]).read_text() + f"\n[probe]\nseed = {seed}\n")
            argv = ["probe", str(p)]
        code, out = run_cli(argv)
        err = capsys.readouterr().err
        self._assert_one_error_line(code, out, err)
        assert "seed" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "{n_zero}"],
            ["analyze", "{x_too_long}"],
            ["membership", "{circle}", "--xprime", "1,2", "--wprime", "1"],
        ],
        ids=["n_zero", "x_too_long", "query"],
    )
    def test_dimension_mismatch(self, argv, tmp_path, capsys):
        base = pathlib.Path(fixture_path("halfline_quadratic")).read_text()
        variants = {"n_zero": base.replace("n = 1", "n = 0"), "x_too_long": base.replace("x = [0]", "x = [0, 1]")}
        paths = {"circle": fixture_path("circle_boundary")}
        for name, text in variants.items():
            assert text != base
            paths[name] = str(tmp_path / f"{name}.prob")
            pathlib.Path(paths[name]).write_text(text)
        code, out = run_cli([arg.format(**paths) for arg in argv])
        self._assert_one_error_line(code, out, capsys.readouterr().err, "error: DimensionMismatch:")

    @pytest.mark.parametrize(
        "edit, argv",
        [
            (("n = 1", "n = \u0661"), []),  # Arabic-Indic one
            (("x = [0]", "x = [\u0660]"), []),
            (("w = [0]", "w = [0]\n\n[tolerances]\ntau_rank = \uff11e-8"), []),  # full-width one
            (("w = [0]", "w = [0]\n\n[probe]\nseed = \u0663"), []),
            (("w = [0]", "w = [0]\n\n[tolerances]\ntau_rank = 1_0e-10"), []),
            (None, ["--tol-overrides", "tau_rank=\uff11e-8"]),
        ],
        ids=["n", "x", "full-width", "seed", "underscore", "tol-overrides"],
    )
    def test_numbers_take_ascii_decimals_only(self, edit, argv, tmp_path, capsys):
        # Python's int() and float() take any script's decimal digits and
        # underscores; numbers outside expressions follow the expression
        # grammar instead.
        text = pathlib.Path(fixture_path("halfline_quadratic")).read_text()
        if edit is not None:
            assert edit[0] in text
            text = text.replace(*edit)
        p = tmp_path / "digits.prob"
        p.write_text(text)
        code, out = run_cli(["analyze", str(p), *argv])
        self._assert_one_error_line(code, out, capsys.readouterr().err, "error: InputError:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["probe", "{fixture}", "--seed", "\u0663"],
            ["probe", "{fixture}", "--delta0", "\uff10.05"],
            ["probe", "{fixture}", "--samples", "1_6"],
            ["probe", "{fixture}", "--samples", "1.5"],
            ["derivatives", "{fixture}", "--fd-audit", "1e-\u0665"],
        ],
        ids=["seed", "delta0", "samples-underscore", "samples-real", "fd-audit"],
    )
    def test_flags_take_ascii_decimals_only(self, argv, capsys):
        # The flags reach load_problem's number reader as text, not through
        # argparse's int() and float().
        code, out = run_cli([arg.format(fixture=fixture_path("halfline_quadratic")) for arg in argv])
        self._assert_one_error_line(code, out, capsys.readouterr().err, "error: InputError: could not parse")

    def test_flags_load_as_file_values(self):
        args = build_parser("probe").parse_args(
            ["probe", fixture_path("halfline_quadratic"), "--samples", "16", "--delta0", "0.05"]
        )
        pf = _load(args)
        assert pf.probe == dataclasses.replace(load_problem(args.file).probe, samples=16, delta0=0.05)
        assert (type(pf.probe.samples), type(pf.probe.delta0)) == (int, float)

    def test_query_takes_ascii_decimals_only(self, capsys):
        argv = ["membership", fixture_path("circle_boundary"), "--xprime=\u0662", "--wprime=1"]
        code, out = run_cli(argv)
        self._assert_one_error_line(code, out, capsys.readouterr().err, "error: InputError:")


class TestMembershipCommand:
    def test_in_with_witness(self):
        code, out = run_cli(
            [
                "membership",
                fixture_path("circle_boundary"),
                "--xprime",
                "-2",
                "--wprime",
                "2",
                "--json",
            ]
        )
        assert code == 0
        entry = json.loads(out)["membership"][0]
        assert entry["answer"] == "In"
        assert entry["witness_gamma"] == pytest.approx(1.0, abs=1e-9)

    def test_out(self):
        code, out = run_cli(
            [
                "membership",
                fixture_path("circle_boundary"),
                "--xprime",
                "0",
                "--wprime",
                "1",
                "--json",
            ]
        )
        assert json.loads(out)["membership"][0]["answer"] == "Out"

    def test_origin_in(self):
        code, out = run_cli(
            [
                "membership",
                fixture_path("circle_boundary"),
                "--xprime",
                "0",
                "--wprime",
                "0",
                "--json",
            ]
        )
        assert json.loads(out)["membership"][0]["answer"] == "In"

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_json_matches_golden(self, name):
        # sha256 of `membership --json` per query, pinned before membership
        # was rewritten to read the verdict's condition reports.
        golden = json.loads((GOLDEN_DIR / "membership.json").read_text())[name]
        digests = {}
        for xp, wp in golden_queries(name):
            code, out = run_cli(
                ["membership", fixture_path(name), "--json", f"--xprime={xp}", f"--wprime={wp}"]
            )
            assert code == 0
            digests[f"{xp};{wp}"] = hashlib.sha256(out.encode()).hexdigest()
        assert digests == golden

    def test_dimension_mismatch(self):
        code, _ = run_cli(
            [
                "membership",
                fixture_path("circle_boundary"),
                "--xprime",
                "0,1",
                "--wprime",
                "0",
            ]
        )
        assert code == 2


class TestProbeCommand:
    def test_probe_consistent_fixture(self, tmp_path):
        csv_path = tmp_path / "samples.csv"
        code, out = run_cli(
            [
                "probe",
                fixture_path("halfline_quadratic"),
                "--json",
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["probe"]["flag"] == "Consistent"
        header = csv_path.read_text().splitlines()[0]
        assert header == "w1,x1,residual,branch,lambda"

    def test_probe_violation_exit_zero(self):
        code, out = run_cli(["probe", fixture_path("halfline_bilinear"), "--json"])
        assert code == 0  # evidence, not judgment
        assert json.loads(out)["probe"]["flag"] == "Violation"

    def test_probe_determinism(self):
        a = run_cli(["probe", fixture_path("halfline_bilinear"), "--json"])
        b = run_cli(["probe", fixture_path("halfline_bilinear"), "--json"])
        assert a == b

    def test_overflow_leaves_stderr_empty(self, tmp_path):
        # A huge finite exp(x1) on a Newton path squares to inf inside the
        # residual norm; numpy must not print a RuntimeWarning for it.
        p = tmp_path / "overflow.prob"
        p.write_text(
            '[problem]\nn = 2\nd = 2\n'
            'f0 = "exp(x1) - x1 + x2^2 - w1*x1 - w2*x2"\nF = "x1^2 + x2^2 - 4"\n\n'
            "[point]\nx = [0, 0]\nw = [0, 0]\n"
        )
        env = dict(os.environ, PYTHONPATH=str(GOLDEN_DIR.parent.parent / "src"))
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "aubincheck.cli", "probe", str(p), "--json"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["probe"]["flag"] == "Consistent"

    def test_probe_warnings_are_plain_lines(self):
        # GridTooCoarse reaches stderr as "warning: <message>", one line per
        # report warning, without the location of the warning call.
        env = dict(os.environ, PYTHONPATH=str(GOLDEN_DIR.parent.parent / "src"))
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "aubincheck.cli", "probe", fixture_path("quartic_cuberoot"), "--json"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN_DIR / "quartic_cuberoot_probe.json").read_text()
        warnings = json.loads(proc.stdout)["probe"]["warnings"]
        assert warnings
        assert proc.stderr == "".join(f"warning: {msg}\n" for msg in warnings)
        assert ".py:" not in proc.stderr

    # sha256 of `probe --csv`: the rows follow the order in which the probe
    # samples the stationary sets, so a reordering shows here.
    # The CSV is the only output that shows each point's branch, lambda and
    # residual.  Every number is written as repr of a Python float, so the
    # text does not depend on the numpy version.
    CSV_SHA256 = {
        "bilinear_ball": "8ee20932a493dced17bf03d3f859d056c88c3a2cc19f7d1e68683a4312c1e04d",
        "circle_boundary": "e9fe84554b39ae420d76f42fa42370759ac940e4909422d82b51306fa2ac1a00",
        "cubic_pitchfork": "7e9faa0ff1e9c1f6b1c1a53385b79369589354a95b072811cdb4ac0ce44137dc",
        "halfline_bilinear": "ecf108b7c327900838fc6540b9117c21f3892e821b7e1e23b0dafa87da1b4af8",
        "halfline_quadratic": "a11e1e4960779365dc739d7f8ec1b4607d1b8848511a176edc1d4cbed4fe962d",
        "moving_plane": "7b3bdd29b13713f89d89f0f97c77031f217bfde84954f69a4ee70a649b55d9ce",
        "product_constraint": "549895cc244448596dec3558f0bb45965dc24ce732de1aa54237aac7e4ffebd6",
        "quartic_cuberoot": "55a01c20811e6ce8fa51722340c8c75306c992bccfe9f6a718b5ae31327f55ee",
    }

    def test_csv_lists_every_sampled_set(self, tmp_path):
        # Every draw rounds to the reference w = 1, so no pair is measured;
        # the CSV still lists the one set the probe sampled, S(1) = {1}.
        csv_path = tmp_path / "samples.csv"
        argv = ["probe", fixture_path("circle_boundary"), "--delta0", "1e-300", "--levels", "2"]
        code, out = run_cli(argv + ["--json", "--csv", str(csv_path)])
        assert code == 0
        assert json.loads(out)["probe"]["flag_reason"].startswith("nothing was measured")
        assert csv_path.read_text().splitlines() == [
            "w1,x1,residual,branch,lambda",
            "1.0,1.0,0.0,boundary,1.0",
        ]

    @pytest.mark.parametrize("name", PROBEABLE)
    def test_json_matches_golden(self, name, tmp_path):
        csv_path = tmp_path / "samples.csv"
        code, out = run_cli(["probe", fixture_path(name), "--json", "--csv", str(csv_path)])
        assert code == 0
        assert out == (GOLDEN_DIR / f"{name}_probe.json").read_text()
        digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        assert digest == self.CSV_SHA256[name]


class TestDerivativesCommand:
    def test_circle_dump(self):
        code, out = run_cli(["derivatives", fixture_path("circle_boundary"), "--json"])
        assert code == 0
        b = json.loads(out)["bundle"]
        assert b["gxf0"] == [-2.0]
        assert b["gxF"] == [2.0]
        assert b["Hxx"] == [[-2.0]]
        assert b["Fxx"] == [[2.0]]

    def test_constant_objective(self, tmp_path):
        p = tmp_path / "const.prob"
        p.write_text(
            '[problem]\nn = 1\nd = 1\nf0 = "3"\nF = "-1"\n\n[point]\nx = [0]\nw = [0]\n'
        )
        code, out = run_cli(["derivatives", str(p), "--json"])
        assert code == 0
        b = json.loads(out)["bundle"]
        assert b["gxf0"] == [0.0] and b["Hxx"] == [[0.0]]
        assert b["F_value"] == -1.0

    @pytest.mark.parametrize("extra", [[], ["--fd-audit", "1e-5"]])
    def test_one_bundle_evaluation(self, extra, monkeypatch):
        # The audit checks the bundle the report prints; it evaluates none of its own.
        calls = []
        bundle = ProblemDerivatives.bundle

        def counting(self, point):
            calls.append(point)
            return bundle(self, point)

        monkeypatch.setattr(ProblemDerivatives, "bundle", counting)
        code, _ = run_cli(["derivatives", fixture_path("moving_plane"), *extra])
        assert code == 0
        assert len(calls) == 1

    def test_fd_audit(self):
        code, out = run_cli(
            ["derivatives", fixture_path("moving_plane"), "--json", "--fd-audit", "1e-5"]
        )
        assert code == 0
        audit = json.loads(out)["fd_audit"]
        assert audit["worst"] <= 1e-6

    # The report order of the bundle's blocks; the text report follows it.
    REPORT_ORDER = ("gxf0", "gxF", "gwF", "Hxx", "Hwx", "Fxx", "Fwx")

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_text_follows_block_order(self, name):
        assert tuple(blk.field for blk in BLOCKS) == self.REPORT_ORDER
        argv = ["derivatives", fixture_path(name), "--fd-audit", "1e-5"]
        code, text = run_cli(argv)
        assert code == 0
        doc = json.loads(run_cli(argv + ["--json"])[1])
        lines = text.splitlines()
        assert lines[2] == f"F_value = {doc['bundle']['F_value']!r}"
        assert lines[3:10] == [f"{key} = {doc['bundle'][key]}" for key in self.REPORT_ORDER]
        assert lines[10] == "fd_audit (max abs deviation per block):"
        keys = (*self.REPORT_ORDER, "worst")
        assert lines[11:] == [f"  {key}: {doc['fd_audit'][key]!r}" for key in keys]


class TestNoPanicSweep:
    def test_all_commands_on_all_fixtures(self):
        # Exit codes stay within the documented taxonomy on the whole corpus.
        for name in FIXTURE_NAMES:
            for argv in (
                ["analyze", fixture_path(name), "--json"],
                ["analyze", fixture_path(name), "--mode", "strict"],
                ["membership", fixture_path(name), "--xprime",
                 ",".join(["0"] * (2 if name in ("trust_region", "bilinear_ball", "moving_plane") else 1)),
                 "--wprime",
                 ",".join(["0"] * {"trust_region": 6, "bilinear_ball": 2}.get(name, 1)),
                 "--json"],
                ["derivatives", fixture_path(name), "--json"],
            ):
                code, _ = run_cli(argv)
                assert code == 0, (name, argv)
        code, _ = run_cli(["probe", fixture_path("trust_region")])
        assert code == 4


class TestCliSurface:
    """Usage, help and argument errors, byte for byte.  ``cli_surface.json``
    holds stdout, stderr and the exit code of each argv, run from the root of
    the checkout with ``COLUMNS=80`` so that help wrapping does not depend on
    the terminal."""

    SURFACE = json.loads((GOLDEN_DIR / "cli_surface.json").read_text())
    F = "fixtures/moving_plane.prob"

    @staticmethod
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
        return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    @pytest.mark.parametrize("entry", SURFACE, ids=lambda e: " ".join(e["argv"]) or "no-arguments")
    def test_matches_golden(self, entry, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(ROOT)
        assert self.run(entry["argv"]) == entry

    # Command lines per command: every probe flag, --tol-overrides with 0, 1
    # and 2 pairs, both --mode values.
    ARGVS = {
        "analyze": [
            [F], [F, "--json"], [F, "--mode", "strict"], [F, "--mode", "extended"],
            [F, "--tol-overrides"], [F, "--tol-overrides", "tau_rank=1e-8"],
            [F, "--tol-overrides", "tau_rank=1e-8", "tau_col=1e-6", "--json"],
        ],
        "membership": [
            [F, "--xprime", "1,0", "--wprime", "0,1"],
            ["--xprime", "0,0", "--wprime", "0,0", "--mode", "strict", "--json", F],
            [F, "--xprime", "1,0", "--wprime", "0,1", "--tol-overrides", "tau_rank=1e-8"],
        ],
        "probe": [
            [F],
            [F, "--csv", "out.csv", "--delta0", "0.1", "--samples", "8", "--seed", "3", "--levels", "2",
             "--box-radius", "0.5", "--grid-points", "11", "--json"],
            [F, "--tol-overrides", "tau_rank=1e-8", "tau_col=1e-6"],
        ],
        "derivatives": [
            [F], [F, "--fd-audit", "1e-5", "--json"], [F, "--tol-overrides"],
        ],
    }

    def test_commands_table_covers_the_argvs(self):
        assert tuple(self.ARGVS) == tuple(COMMANDS)

    @pytest.mark.parametrize("command", list(ARGVS))
    def test_one_command_parser_parses_like_the_full_parser(self, command):
        for argv in self.ARGVS[command]:
            argv = [command, *argv]
            assert vars(build_parser(command).parse_args(argv)) == vars(build_parser().parse_args(argv))

    @staticmethod
    def _commands(parser):
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return list(sub.choices)

    def test_version_is_the_package_version(self):
        assert self.run(["--version"])["stdout"] == f"aubincheck {__version__}\n"
        assert f'version = "{__version__}"' in (ROOT / "pyproject.toml").read_text()

    def test_every_parser_prints_the_same_usage(self):
        for command in COMMANDS:
            assert build_parser(command).format_usage() == build_parser().format_usage()

    def test_builds_only_the_named_command(self):
        assert self._commands(build_parser()) == list(COMMANDS)
        for command in (None, "foo", "-h"):
            assert self._commands(build_parser(command)) == list(COMMANDS)
        for command in COMMANDS:
            assert self._commands(build_parser(command)) == [command]

    @staticmethod
    def _module(*argv):
        # The console script's path: main() reads sys.argv itself.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80")
        env.pop("PYTHONWARNINGS", None)
        return subprocess.run(
            [sys.executable, "-m", "aubincheck.cli", *argv],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
        )

    def test_module_without_arguments(self):
        proc = self._module()
        (pinned,) = [e for e in self.SURFACE if e["argv"] == []]
        assert proc.returncode == 2
        assert proc.stderr == pinned["stderr"]
        assert proc.stdout == ""

    def test_module_analyze_json(self):
        proc = self._module("analyze", self.F, "--json")
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN_DIR / "moving_plane_analyze.json").read_text()
        assert proc.stderr == ""
