import importlib
import pathlib
import random
import sys
from dataclasses import dataclass

import numpy as np
import pytest

from aubincheck.calculus import DerivativeBundle, EvalPoint
from aubincheck.expr import ProblemSpec, parse
from aubincheck.problemfile import load_problem

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE_DIR = ROOT / "fixtures"

FIXTURE_NAMES = (
    "trust_region",
    "bilinear_ball",
    "cubic_pitchfork",
    "quartic_cuberoot",
    "circle_boundary",
    "moving_plane",
    "product_constraint",
    "halfline_quadratic",
    "halfline_bilinear",
)

# Fixtures within the probe's dimensional capability (n <= 2, d <= 2).
PROBEABLE = tuple(n for n in FIXTURE_NAMES if n != "trust_region")


def make_bundle(Hxx, Hwx, gxF=None, gwF=None, Fxx=None, Fwx=None) -> DerivativeBundle:
    """A derivative bundle with the given blocks, zero where none is given."""
    Hxx = np.atleast_2d(np.asarray(Hxx, dtype=float))
    Hwx = np.atleast_2d(np.asarray(Hwx, dtype=float))
    d, n = Hwx.shape

    def block(value, shape):
        return np.zeros(shape) if value is None else np.asarray(value, dtype=float)

    return DerivativeBundle(
        n, d, 0.0, np.zeros(n), Hxx, Hwx,
        block(gxF, n), block(gwF, d), block(Fxx, (n, n)), block(Fwx, (d, n)),
    )


# The alternative degenerate reading of the product_constraint fixture (its
# multiplier treated as zero): A1 = [Hxx | gxF] = [-4, 1], A2 = [Hwx | gwF] = [2, 0].
PRODUCT_CONSTRAINT_ALT = make_bundle([[-4.0]], [[2.0]], gxF=[1.0], gwF=[0.0])


def fixture_path(name: str) -> str:
    return str(FIXTURE_DIR / f"{name}.prob")


def problem_dims(name: str) -> tuple:
    """(n, d) of a fixture."""
    spec = load_problem(fixture_path(name)).spec
    return spec.n, spec.d


# Membership queries beyond the generic ones of `golden_queries`.
EXTRA_QUERIES = {
    "circle_boundary": [("-2", "2")],
    "halfline_quadratic": [("0", "1"), ("-2", "1")],
}


def golden_queries(name: str) -> list:
    """The (x', w') arguments of the membership golden: the origin, (0, e_k),
    (e_i, 0), a few integer vectors and the fixture's extra queries."""
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
    return queries + [q for q in EXTRA_QUERIES.get(name, []) if q not in queries]


@pytest.fixture(scope="session")
def problems():
    return {name: load_problem(fixture_path(name)) for name in FIXTURE_NAMES}


# The generated part of the verdict corpus: seeded problems of the benchmark
# generator, each with its metamorphic variants.
GENERATOR_SEEDS = (1, 2)
BASE_PROBLEMS = 12  # per seed: two of each generator kind


def bench_module(name: str):
    """A module of the benchmark (``bench/problems`` or ``bench/checks``),
    imported read-only."""
    bench = str(ROOT / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    return importlib.import_module(name)


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    spec: ProblemSpec
    point: EvalPoint
    variant: object = None  # the generator's ``Variant``; None for a fixture


def build_corpus(problems) -> list:
    """The fixtures, then the generated problems in generator order."""
    generator = bench_module("problems")
    out = [CorpusEntry(name, pf.spec, pf.point) for name, pf in problems.items()]
    for seed in GENERATOR_SEEDS:
        rng = random.Random(seed)
        for p in generator.generate(seed, BASE_PROBLEMS):
            for var in generator.variants(p, rng):
                spec = ProblemSpec(
                    var.n, var.d, parse(var.f0, var.n, var.d), parse(var.F, var.n, var.d)
                )
                out.append(
                    CorpusEntry(f"seed{seed}/{var.name}", spec, EvalPoint(var.x, var.w), var)
                )
    return out


@pytest.fixture(scope="session")
def corpus(problems):
    return build_corpus(problems)
