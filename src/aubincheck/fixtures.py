"""The one in-repo fixture whose reports carry a note.

The `product_constraint` fixture admits two readings of the same data, and
its reports say which one they follow.  The note is attached when the
analyzed problem is structurally equal to that fixture: equal expression
trees and the same reference point.
"""

from __future__ import annotations

import numpy as np

from .calculus import EvalPoint
from .expr import ProblemSpec, parse

__all__ = ["fixture_notes"]

_PRODUCT_NOTE = (
    "registered fixture 'product-constraint': direct differentiation at the reference "
    "point gives multiplier lambda = 2 > 0, so the nondegenerate analysis applies "
    "(C4_8 holds and sampling confirms a locally single-valued stationary map); an "
    "alternative degenerate reading of the same problem uses matrices A1' = [-4 1], "
    "A2' = [2 0], which fail condition C4_11b.  The two readings disagree; this report "
    "follows the recomputed multiplier."
)

_PRODUCT_SPEC = ProblemSpec(1, 1, parse("x1^2*(w1 - 2)", 1, 1), parse("w1*(x1 - 1)", 1, 1))
_PRODUCT_POINT = EvalPoint((1.0,), (1.0,))


def fixture_notes(spec: ProblemSpec, point: EvalPoint) -> tuple:
    """The notes of the fixture structurally equal to (spec, point), if any."""
    if (spec.n, spec.d) != (1, 1) or spec.f0 != _PRODUCT_SPEC.f0 or spec.F != _PRODUCT_SPEC.F:
        return ()
    (px, pw), (fx, fw) = point.arrays(), _PRODUCT_POINT.arrays()
    if np.allclose(px, fx, atol=1e-12, rtol=0.0) and np.allclose(pw, fw, atol=1e-12, rtol=0.0):
        return (_PRODUCT_NOTE,)
    return ()
