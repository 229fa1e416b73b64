import pathlib

import pytest

from aubincheck.problemfile import load_problem

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

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


# The alternative degenerate reading of the product_constraint fixture (its
# multiplier treated as zero), kept as raw matrices for the condition checkers.
PRODUCT_CONSTRAINT_ALT = {
    "A1_deg": ((-4.0, 1.0),),
    "A2_deg": ((2.0, 0.0),),
    "gxF": (1.0,),
}


def fixture_path(name: str) -> str:
    return str(FIXTURE_DIR / f"{name}.prob")


def problem_dims(name: str) -> tuple:
    """(n, d) of a fixture."""
    spec = load_problem(fixture_path(name)).spec
    return spec.n, spec.d


@pytest.fixture(scope="session")
def problems():
    return {name: load_problem(fixture_path(name)) for name in FIXTURE_NAMES}
