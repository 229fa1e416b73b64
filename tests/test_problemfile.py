import pytest

from aubincheck.errors import InputError
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
        pf = load_problem(path, {"tau_rank": 1e-6})
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
            load_problem(_write(tmp_path, BASE), None, {"levels": 65})

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

    def test_fixture_files_all_load(self):
        from conftest import FIXTURE_NAMES

        for name in FIXTURE_NAMES:
            pf = load_problem(fixture_path(name))
            assert pf.spec.n >= 1
