import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from aubincheck.cli import main
from conftest import FIXTURE_NAMES, PROBEABLE, fixture_path, problem_dims

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


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
    def _sum_problem(tmp_path, terms: int) -> str:
        """A problem whose f0 is a flat sum of ``terms`` terms: a left spine
        ``terms`` nodes deep."""
        f0 = " + ".join(f"{i + 1}*x1^2" for i in range(terms))
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
        paths = {"fixture": fixture_path("halfline_quadratic")}
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

    # Extra queries beyond the generic ones of `golden_queries`.
    EXTRA_QUERIES = {
        "circle_boundary": [("-2", "2")],
        "halfline_quadratic": [("0", "1"), ("-2", "1")],
    }

    @classmethod
    def golden_queries(cls, name):
        """(x', w') arguments: the origin, (0, e_k), (e_i, 0), a few integer
        vectors and the fixture's extra queries."""
        n, d = problem_dims(name)
        vec = lambda v: ",".join(str(t) for t in v)
        unit = lambda size, i: [int(j == i) for j in range(size)]
        queries = [(vec([0] * n), vec([0] * d))]
        queries += [(vec([0] * n), vec(unit(d, k))) for k in range(d)]
        queries += [(vec(unit(n, i)), vec([0] * d)) for i in range(n)]
        queries += [
            (vec([1] * n), vec([1] * d)),
            (vec([-2] * n), vec([1] * d)),
            (vec([1] * n), vec([-2] * d)),
            (vec(range(1, n + 1)), vec(range(-1, -d - 1, -1))),
        ]
        return queries + [q for q in cls.EXTRA_QUERIES.get(name, []) if q not in queries]

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_json_matches_golden(self, name):
        # sha256 of `membership --json` per query, pinned before membership
        # was rewritten to read the verdict's condition reports.
        golden = json.loads((GOLDEN_DIR / "membership.json").read_text())[name]
        digests = {}
        for xp, wp in self.golden_queries(name):
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
    # first requests each stationary set, so a reordering shows here.
    # The CSV is the only output that shows each point's branch, lambda and
    # residual.  Every number is written as repr of a Python float, so the
    # text does not depend on the numpy version.
    CSV_SHA256 = {
        "bilinear_ball": "8ee20932a493dced17bf03d3f859d056c88c3a2cc19f7d1e68683a4312c1e04d",
        "circle_boundary": "e9fe84554b39ae420d76f42fa42370759ac940e4909422d82b51306fa2ac1a00",
        "cubic_pitchfork": "7e9faa0ff1e9c1f6b1c1a53385b79369589354a95b072811cdb4ac0ce44137dc",
        "halfline_bilinear": "ecf108b7c327900838fc6540b9117c21f3892e821b7e1e23b0dafa87da1b4af8",
        "halfline_quadratic": "a11e1e4960779365dc739d7f8ec1b4607d1b8848511a176edc1d4cbed4fe962d",
        "moving_plane": "94c3d3918877ddd86496e37fdda69d182cbdc775f4b1afe2366bb12a4fae682d",
        "product_constraint": "549895cc244448596dec3558f0bb45965dc24ce732de1aa54237aac7e4ffebd6",
        "quartic_cuberoot": "55a01c20811e6ce8fa51722340c8c75306c992bccfe9f6a718b5ae31327f55ee",
    }

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

    def test_fd_audit(self):
        code, out = run_cli(
            ["derivatives", fixture_path("moving_plane"), "--json", "--fd-audit", "1e-5"]
        )
        assert code == 0
        audit = json.loads(out)["fd_audit"]
        assert audit["worst"] <= 1e-6


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
