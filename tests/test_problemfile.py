import math
from dataclasses import fields

import pytest

from aubincheck.calculus import ToleranceConfig
from aubincheck.cli import _PROBE_FLAGS, _load, build_parser
from aubincheck.errors import InputError
from aubincheck.oracle import GridSpec, ProbeConfig
from aubincheck.problemfile import load_problem
from conftest import fixture_path


def _write(tmp_path, body):
    p = tmp_path / "case.prob"
    p.write_text(body)
    return str(p)


BASE = '[problem]\nn = 1\nd = 1\nf0 = "x1^2"\nF = "x1 - 1"\n\n[point]\nx = [0]\nw = [0]\n'


class TestLoadProblem:
    def test_minimal(self, tmp_path):
        pf = load_problem(_write(tmp_path, BASE))
        assert pf.spec.n == 1 and pf.spec.d == 1
        assert pf.f0_text == "x1^2"
        assert pf.point.x == (0.0,)

    def test_tolerances_section(self, tmp_path):
        pf = load_problem(_write(tmp_path, BASE + "\n[tolerances]\ntau_rank = 1e-7\n"))
        assert pf.tolerances.tau_rank == 1e-7
        assert pf.tolerances.tau_act == 1e-8  # untouched default

    def test_cli_override_wins(self, tmp_path):
        path = _write(tmp_path, BASE + "\n[tolerances]\ntau_rank = 1e-7\n")
        pf = load_problem(path, {"tolerances": {"tau_rank": "1e-6"}})
        assert pf.tolerances.tau_rank == 1e-6

    def test_probe_section_split(self, tmp_path):
        body = BASE + (
            "\n[probe]\nr_x = 0.25\npoints_per_axis = 101\nnewton_cap = 40\n"
            "delta0 = 0.05\nsamples = 32\nseed = 7\nrho_u = 0.1\n"
        )
        pf = load_problem(_write(tmp_path, body))
        assert pf.grid.r_x == 0.25
        assert pf.grid.points_per_axis == 101
        assert pf.grid.newton_cap == 40
        assert pf.probe.delta0 == 0.05
        assert pf.probe.samples == 32
        assert pf.probe.seed == 7
        assert pf.probe.rho_u == 0.1

    def test_unknown_section(self, tmp_path):
        with pytest.raises(InputError):
            load_problem(_write(tmp_path, BASE + "\n[extra]\nk = 1\n"))

    def test_unknown_probe_key(self, tmp_path):
        with pytest.raises(InputError):
            load_problem(_write(tmp_path, BASE + "\n[probe]\nbogus = 1\n"))

    def test_unquoted_expression_rejected(self, tmp_path):
        body = BASE.replace('f0 = "x1^2"', "f0 = x1^2")
        with pytest.raises(InputError):
            load_problem(_write(tmp_path, body))

    def test_unbracketed_point_rejected(self, tmp_path):
        body = BASE.replace("x = [0]", "x = 0")
        with pytest.raises(InputError):
            load_problem(_write(tmp_path, body))

    def test_dimension_mismatch(self, tmp_path):
        body = BASE.replace("x = [0]", "x = [0, 1]")
        with pytest.raises(InputError):
            load_problem(_write(tmp_path, body))

    def test_duplicate_key(self, tmp_path):
        body = BASE.replace('f0 = "x1^2"', 'f0 = "x1^2"\nf0 = "x1"')
        with pytest.raises(InputError):
            load_problem(_write(tmp_path, body))

    def test_missing_section(self, tmp_path):
        with pytest.raises(InputError):
            load_problem(_write(tmp_path, '[problem]\nn = 1\nd = 1\nf0 = "x1"\nF = "x1"\n'))

    def test_even_grid_rejected(self, tmp_path):
        with pytest.raises(InputError):
            load_problem(_write(tmp_path, BASE + "\n[probe]\npoints_per_axis = 100\n"))

    def test_samples_bound(self, tmp_path):
        assert load_problem(_write(tmp_path, BASE + "\n[probe]\nsamples = 10000\n")).probe.samples == 10000
        with pytest.raises(InputError, match="at most 10000 samples"):
            load_problem(_write(tmp_path, BASE + "\n[probe]\nsamples = 1000000000\n"))

    def test_levels_bound(self, tmp_path):
        # Past the bound the file or the --levels override is rejected at
        # load, before any probe runs.
        assert load_problem(_write(tmp_path, BASE + "\n[probe]\nlevels = 64\n")).probe.levels == 64
        with pytest.raises(InputError, match="at most 64 radius levels"):
            load_problem(_write(tmp_path, BASE + "\n[probe]\nlevels = 100000\n"))
        with pytest.raises(InputError, match="at most 64 radius levels"):
            load_problem(_write(tmp_path, BASE), {"probe": {"levels": "65"}})

    def test_negative_tolerance_rejected(self, tmp_path):
        with pytest.raises(InputError):
            load_problem(_write(tmp_path, BASE + "\n[tolerances]\ntau_act = -1\n"))

    def test_case_sensitive_keys(self, tmp_path):
        # f0 and F are distinct keys; swapping case must fail key validation.
        body = BASE.replace('F = "x1 - 1"', 'f = "x1 - 1"')
        with pytest.raises(InputError):
            load_problem(_write(tmp_path, body))

    def test_note(self, tmp_path):
        assert load_problem(_write(tmp_path, BASE)).note is None
        body = BASE.replace('F = "x1 - 1"', 'F = "x1 - 1"\nnote = "a = b: [c]"')
        assert load_problem(_write(tmp_path, body)).note == "a = b: [c]"

    def test_ascii_reals_load_exactly(self, tmp_path):
        body = BASE.replace("n = 1", "n = 4").replace("x = [0]", "x = [-0.0, +1., .5, 1E-3]")
        x = load_problem(_write(tmp_path, body)).point.x
        assert x == (-0.0, 1.0, 0.5, 1e-3) and math.copysign(1.0, x[0]) == -1.0

    def test_fixture_files_all_load(self):
        from conftest import FIXTURE_NAMES

        for name in FIXTURE_NAMES:
            pf = load_problem(fixture_path(name))
            assert pf.spec.n >= 1


TOL_KEYS = {f.name for f in fields(ToleranceConfig)}
PROBE_KEYS = {f.name for f in fields(GridSpec)} | {f.name for f in fields(ProbeConfig)}


def _settings(load):
    """(tolerances, grid, probe) of a load, or the message of its InputError."""
    try:
        pf = load()
    except InputError as exc:
        return str(exc)
    return pf.tolerances, pf.grid, pf.probe


class TestCommandLineSettings:
    """The command line's settings are read as the file's values."""

    # each unlike its default
    PROBE_TEXT = {
        "r_x": "0.25", "points_per_axis": "11", "delta0": "0.05", "samples": "16", "seed": "-3", "levels": "3",
    }

    def _compare(self, tmp_path, section, key, text, argv):
        from_file = _settings(lambda: load_problem(_write(tmp_path, BASE + f"\n[{section}]\n{key} = {text}\n")))
        path = _write(tmp_path, BASE)
        from_cli = _settings(lambda: _load(build_parser("probe").parse_args(["probe", path, *argv])))
        assert from_file == from_cli, (key, text)
        return from_file

    def test_tolerances(self, tmp_path):
        for key in sorted(TOL_KEYS):
            for text in ("2.5e-6", "abc", "nan"):
                got = self._compare(tmp_path, "tolerances", key, text, ["--tol-overrides", f"{key}={text}"])
                assert isinstance(got, str) == (text != "2.5e-6"), (key, text, got)
        got = self._compare(tmp_path, "tolerances", "bogus", "1", ["--tol-overrides", "bogus=1"])
        assert got == "unknown key 'bogus' in section [tolerances]"

    def test_probe_flags(self, tmp_path):
        for flag, key in _PROBE_FLAGS:
            argv = [f"--{flag.replace('_', '-')}", self.PROBE_TEXT[key]]
            assert not isinstance(self._compare(tmp_path, "probe", key, self.PROBE_TEXT[key], argv), str)
            if key in ("r_x", "delta0"):  # argparse's float takes nan, its int does not
                got = self._compare(tmp_path, "probe", key, "nan", [argv[0], "nan"])
                assert got.startswith(f"could not parse {key!r}"), got

    def test_keys_are_config_fields(self, tmp_path):
        # Every probe flag sets a config field, and each section allows
        # exactly its configs' fields: a bad value fails on the number, the
        # other section's fields and a bogus key on the key.
        assert {key for _, key in _PROBE_FLAGS} <= PROBE_KEYS
        for section, keys, others in (("tolerances", TOL_KEYS, PROBE_KEYS), ("probe", PROBE_KEYS, TOL_KEYS)):
            for key in sorted(keys):
                with pytest.raises(InputError, match=f"could not parse {key!r}"):
                    load_problem(_write(tmp_path, BASE + f"\n[{section}]\n{key} = ?\n"))
            for key in sorted(others | {"bogus"}):
                with pytest.raises(InputError, match=f"unknown key {key!r} in section \\[{section}\\]"):
                    load_problem(_write(tmp_path, BASE + f"\n[{section}]\n{key} = 1\n"))
