import itertools
import math
import random
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aubincheck.errors import (
    DomainError,
    ExponentError,
    ExpressionSyntaxError,
    VariableIndexError,
)
from aubincheck.expr import (
    MAX_NESTING,
    Add,
    Call,
    Const,
    Div,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    differentiate,
    eval_array,
    eval_interval,
    evaluate,
    max_indices,
    parse,
    render,
)


class TestParse:
    def test_simple_sum(self):
        e = parse("x1^2 + w1*x1", 1, 1)
        assert e == Add(Pow(Var("x", 1), 2), Mul(Var("w", 1), Var("x", 1)))

    def test_quartic_objective(self):
        e = parse("0.25*w1*x1^4 - w1*x1 - x2", 2, 1)
        expected = Sub(
            Sub(
                Mul(Mul(Const(0.25), Var("w", 1)), Pow(Var("x", 1), 4)),
                Mul(Var("w", 1), Var("x", 1)),
            ),
            Var("x", 2),
        )
        assert e == expected

    def test_index_out_of_range(self):
        with pytest.raises(VariableIndexError):
            parse("x3", 2, 1)
        with pytest.raises(VariableIndexError):
            parse("w2", 2, 1)

    def test_index_zero(self):
        with pytest.raises(VariableIndexError):
            parse("x0 + 1", 2, 1)

    def test_exponent_must_be_nonneg_integer(self):
        for bad in ("x1^-2", "x1^2.5", "x1^(2)", "x1^w1"):
            with pytest.raises(ExponentError):
                parse(bad, 1, 1)
        assert parse("x1^0", 1, 1) == Pow(Var("x", 1), 0)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse("x1 + * 2", 1, 1)
        assert err.value.position == 5

    def test_unknown_identifier(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("tan(x1)", 1, 1)

    def test_trailing_input(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("x1 2", 1, 1)

    def test_function_needs_parens(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("sin x1", 1, 1)

    def test_negation_binds_power(self):
        # '-x1^2' is -(x1^2) per the grammar.
        assert parse("-x1^2", 1, 1) == Neg(Pow(Var("x", 1), 2))

    def test_whitespace_insignificant(self):
        assert parse(" x1 +  w1 ", 1, 1) == parse("x1+w1", 1, 1)

    def test_scientific_literals(self):
        assert parse("1e-3", 1, 1) == Const(1e-3)

    def test_literal_out_of_range(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse("x1^2 + 1e400*x1", 1, 1)
        assert err.value.position == 7

    @pytest.mark.parametrize("opening, closing", [("(", ")"), ("-", ""), ("sin(", ")")])
    def test_nesting_limit(self, opening, closing):
        at_limit = opening * MAX_NESTING + "x1" + closing * MAX_NESTING
        assert max_indices(parse(at_limit, 1, 1)) == (1, 0)
        with pytest.raises(ExpressionSyntaxError) as err:
            parse(opening + at_limit + closing, 1, 1)
        assert err.value.position == MAX_NESTING * len(opening)


class TestEvaluate:
    def test_circle_objective_value(self):
        e = parse("-x1^2 + (w1 - 1)*x1", 1, 1)
        assert evaluate(e, [1.0], [1.0]) == -1.0

    def test_circle_constraint_active(self):
        e = parse("x1^2 + w1^2 - 2", 1, 1)
        assert evaluate(e, [1.0], [1.0]) == 0.0

    def test_log_of_negative(self):
        with pytest.raises(DomainError):
            evaluate(parse("ln(x1)", 1, 1), [-1.0], [0.0])

    def test_sqrt_of_negative(self):
        with pytest.raises(DomainError):
            evaluate(parse("sqrt(x1)", 1, 1), [-4.0], [0.0])

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            evaluate(parse("1/x1", 1, 1), [0.0], [0.0])

    def test_functions(self):
        assert evaluate(parse("sin(x1)", 1, 1), [0.5], [0.0]) == pytest.approx(math.sin(0.5))
        assert evaluate(parse("exp(w1)", 1, 1), [0.0], [0.3]) == pytest.approx(math.exp(0.3))

    def test_eval_array_matches_scalar(self):
        e = parse("0.25*w1*x1^4 - w1*x1 - x2", 2, 1)
        X = np.array([[0.1, -0.3, 0.7], [0.2, 0.0, -1.0]])
        W = np.array([[1.5, 1.5, 1.5]])
        out = eval_array(e, X, W)
        for j in range(3):
            assert out[j] == pytest.approx(evaluate(e, X[:, j], W[:, j]), abs=1e-14)

    def test_eval_array_nan_instead_of_raise(self):
        e = parse("ln(x1)", 1, 1)
        out = eval_array(e, np.array([[-1.0, 1.0]]), np.array([[0.0, 0.0]]))
        assert np.isnan(out[0]) and out[1] == 0.0


class TestDifferentiate:
    def test_power_rule(self):
        e = parse("0.25*w1*x1^4", 1, 1)
        d = differentiate(e, Var("x", 1))
        for x, w in [(0.5, 2.0), (-1.2, 0.3), (2.0, -1.0)]:
            assert evaluate(d, [x], [w]) == pytest.approx(w * x**3, rel=1e-14)

    def test_parameter_derivative(self):
        e = parse("x1^3/3 - w1^2*x1", 1, 1)
        d = differentiate(e, Var("w", 1))
        for x, w in [(0.7, 0.2), (-0.4, 1.1)]:
            assert evaluate(d, [x], [w]) == pytest.approx(-2.0 * w * x, rel=1e-13)

    def test_constant_derivative(self):
        assert differentiate(Const(5.0), Var("x", 1)) == Const(0.0)

    def test_second_derivatives_exact(self):
        e = parse("x1^2*(w1 - 2)", 1, 1)
        dxx = differentiate(differentiate(e, Var("x", 1)), Var("x", 1))
        assert evaluate(dxx, [1.0], [1.0]) == -2.0
        dwx = differentiate(differentiate(e, Var("x", 1)), Var("w", 1))
        assert evaluate(dwx, [1.0], [1.0]) == 2.0

    def test_function_rules(self):
        cases = [
            ("sin(x1)", lambda x: math.cos(x)),
            ("cos(x1)", lambda x: -math.sin(x)),
            ("exp(x1)", lambda x: math.exp(x)),
            ("ln(x1)", lambda x: 1.0 / x),
            ("sqrt(x1)", lambda x: 0.5 / math.sqrt(x)),
        ]
        for src, ref in cases:
            d = differentiate(parse(src, 1, 1), Var("x", 1))
            for x in (0.3, 1.7):
                assert evaluate(d, [x], [0.0]) == pytest.approx(ref(x), rel=1e-12)

    def test_linearity(self):
        rng = random.Random(7)
        for _ in range(25):
            a = _random_expression(rng, 1, 1, depth=3)
            b = _random_expression(rng, 1, 1, depth=3)
            da = differentiate(a, Var("x", 1))
            db = differentiate(b, Var("x", 1))
            ds = differentiate(Add(a, b), Var("x", 1))
            for _ in range(3):
                x, w = [rng.uniform(-1.5, 1.5)], [rng.uniform(-1.5, 1.5)]
                try:
                    lhs = evaluate(ds, x, w)
                    rhs = evaluate(da, x, w) + evaluate(db, x, w)
                except DomainError:
                    continue
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# Randomized properties
# ---------------------------------------------------------------------------

def _random_expression(rng, n, d, depth):
    """Random well-behaved expression tree (guards against blow-ups)."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.random()
        if kind < 0.4:
            return Const(round(rng.uniform(0.0, 3.0), 3))
        if kind < 0.7 or d == 0:
            return Var("x", rng.randint(1, n))
        return Var("w", rng.randint(1, d))
    op = rng.choice(["add", "sub", "mul", "pow", "neg", "sin", "cos", "exp", "sqrt1p", "ln1p", "div"])
    a = _random_expression(rng, n, d, depth - 1)
    if op == "add":
        return Add(a, _random_expression(rng, n, d, depth - 1))
    if op == "sub":
        return Sub(a, _random_expression(rng, n, d, depth - 1))
    if op == "mul":
        return Mul(a, _random_expression(rng, n, d, depth - 1))
    if op == "pow":
        return Pow(a, rng.randint(0, 3))
    if op == "neg":
        return Neg(a)
    if op == "sin":
        return Call("sin", a)
    if op == "cos":
        return Call("cos", a)
    if op == "exp":
        # Dampen the argument so exp stacks stay in a benign range.
        return Call("exp", Mul(Const(0.25), a))
    if op == "sqrt1p":
        return Call("sqrt", Add(Const(1.0), Pow(a, 2)))
    if op == "ln1p":
        return Call("ln", Add(Const(1.0), Pow(a, 2)))
    return Div(a, Add(Const(1.0), Pow(_random_expression(rng, n, d, depth - 1), 2)))


def _central_diff(e, x, w, axis, index, h):
    if axis == "x":
        up = list(x)
        dn = list(x)
        up[index - 1] += h
        dn[index - 1] -= h
        return (evaluate(e, up, w) - evaluate(e, dn, w)) / (2.0 * h)
    up = list(w)
    dn = list(w)
    up[index - 1] += h
    dn[index - 1] -= h
    return (evaluate(e, x, up) - evaluate(e, x, dn)) / (2.0 * h)


def test_derivative_matches_central_differences():
    """200 random expressions: symbolic derivative vs finite differences."""
    rng = random.Random(20260810)
    h = 1e-5
    checked = 0
    while checked < 200:
        n, d = rng.randint(1, 2), rng.randint(1, 2)
        e = _random_expression(rng, n, d, depth=rng.randint(1, 4))
        axis = rng.choice(["x", "w"])
        index = rng.randint(1, n if axis == "x" else d)
        v = Var(axis, index)
        de = differentiate(e, v)
        x = [rng.uniform(-1.5, 1.5) for _ in range(n)]
        w = [rng.uniform(-1.5, 1.5) for _ in range(d)]
        try:
            sym = evaluate(de, x, w)
            fd = _central_diff(e, x, w, axis, index, h)
            probe = abs(evaluate(e, x, w))
        except DomainError:
            continue
        if not (math.isfinite(fd) and probe < 1e3 and abs(sym) < 1e3):
            continue
        assert abs(sym - fd) <= 1e-6 * (1.0 + abs(sym)), (render(e), axis, index, x, w)
        checked += 1


def test_render_parse_roundtrip():
    rng = random.Random(99)
    for _ in range(300):
        n, d = rng.randint(1, 3), rng.randint(1, 3)
        e = _random_expression(rng, n, d, depth=rng.randint(0, 5))
        text = render(e)
        assert parse(text, n, d) == e, text


def test_fixture_expressions_roundtrip(problems):
    for pf in problems.values():
        for e in (pf.spec.f0, pf.spec.F):
            assert parse(render(e), pf.spec.n, pf.spec.d) == e


def test_nodes_are_immutable():
    e = parse("x1 + 1", 1, 1)
    with pytest.raises(Exception):
        e.a = Const(2.0)
    with pytest.raises(AttributeError):
        del e.b
    with pytest.raises(AttributeError):
        e.extra = 1
    assert e.a == Var("x", 1) and e.b == Const(1.0)


def test_max_indices():
    e = parse("x2*w3 + x1", 2, 3)
    assert max_indices(e) == (2, 3)


# ---------------------------------------------------------------------------
# The interned DAG and its walks
# ---------------------------------------------------------------------------

_leaves = st.one_of(
    st.floats(0.0, 1e6).map(lambda v: Const(abs(v))),
    st.builds(Var, st.sampled_from("xw"), st.integers(1, 2)),
)


def _extend(children):
    return st.one_of(
        st.builds(lambda op, a, b: op(a, b), st.sampled_from([Add, Sub, Mul, Div]), children, children),
        st.builds(Pow, children, st.integers(0, 4)),
        st.builds(Neg, children),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp", "ln", "sqrt"]), children),
    )


_trees = st.recursive(_leaves, _extend, max_leaves=12)
_small_trees = st.recursive(_leaves, _extend, max_leaves=3)


@st.composite
def _spines(draw, ops=(Add, Sub, Mul, Div, Neg, Call)):
    """A left spine thousands deep: a short pattern of steps repeated,
    each step applying one operation to the expression so far."""
    e = draw(_trees)
    steps = draw(st.lists(st.tuples(st.sampled_from(ops), _small_trees), min_size=1, max_size=4))
    for i in range(draw(st.integers(1000, 3000))):
        op, t = steps[i % len(steps)]
        e = Neg(e) if op is Neg else Call("sin", e) if op is Call else op(e, t)
    return e


# Spines of one precedence class render without parentheses on the spine,
# so they stay within the parser's nesting limit.
_flat_spines = st.one_of(_spines(ops=(Add, Sub)), _spines(ops=(Mul, Div)))


@settings(max_examples=25, deadline=None)
@given(st.one_of(_trees, _flat_spines))
def test_render_parse_identity(e):
    assert parse(render(e), 2, 2) is e


@settings(max_examples=15, deadline=None)
@given(_spines())
def test_walks_on_deep_spines(e):
    X = np.array([[0.3, -0.7], [1.1, 0.2]])
    W = np.array([[0.5, 0.5], [-0.4, 0.9]])
    for v in (Var("x", 1), Var("w", 2)):
        de = differentiate(e, v)
        values = eval_array([e, de], X, W)
        assert len(values) == 2
        assert np.shape(np.broadcast_to(values[1], (2,))) == (2,)
    assert max_indices(e)[0] <= 2


def test_deep_spine_values_are_exact():
    terms = 3000
    e = parse(" + ".join(f"{i + 1}*x1^2" for i in range(terms)), 1, 1)
    d2 = differentiate(differentiate(e, Var("x", 1)), Var("x", 1))
    total = terms * (terms + 1)  # 2 * (1 + ... + terms)
    assert evaluate(d2, [0.5], [0.0]) == total
    d1 = differentiate(e, Var("x", 1))
    assert np.array_equal(eval_array(d1, np.array([[0.5, -2.0]]), np.array([[0.0, 0.0]])), [total / 2, -2 * total])
    assert evaluate([e, d2], [1.0], [0.0]) == [total / 2, total]


def test_interning():
    assert parse("x1*w1 + sin(x1)", 1, 1) is parse("x1 * w1+sin( x1 )", 1, 1)
    assert Const(0.0) is not Const(-0.0)
    assert Const(0) is Const(0.0) and type(Const(2).value) is float
    assert Add(Var("x", 1), Const(1.0)) is parse("x1 + 1", 1, 1)


def test_intern_table_holds_nodes_weakly():
    ref = weakref.ref(parse("x1 + 987.125", 1, 1))
    assert ref() is None


# ---------------------------------------------------------------------------
# Interval enclosures
# ---------------------------------------------------------------------------

# Box bounds: near the domain edges of ln, sqrt and division (0, +-tiny), near
# the extrema of sin and cos, and magnitudes up to 1e+-200.
_bounds = st.one_of(
    st.floats(-4.0, 4.0),
    st.floats(-1e200, 1e200),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-200, -1e-200, 1e200, -1e200, math.pi / 2, -math.pi, 2.0**20]),
)
_boxes = st.lists(st.tuples(_bounds, _bounds).map(sorted), min_size=4, max_size=4)  # x1, x2, w1, w2
_fractions = st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 4), min_size=1, max_size=8)


def _box_args(box):
    lo, hi = np.array(box, dtype=float).T
    return (lo[:2, None], hi[:2, None]), (lo[2:, None], hi[2:, None])


def _x1_box(lo, hi):
    return [(lo, hi), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)]


@settings(max_examples=200, deadline=None)
@given(_trees, _boxes, _fractions)
@example(parse("ln(x1)", 2, 2), _x1_box(5e-324, 1e-200), [(0.5,) * 4])
@example(parse("ln(x1)", 2, 2), _x1_box(0.0, 1.0), [(0.5,) * 4])
@example(parse("sqrt(x1 - 1)", 2, 2), _x1_box(1.0, 2.0), [(1e-17,) * 4])
@example(parse("1/x1", 2, 2), _x1_box(-1e-300, 1e-300), [(0.5,) * 4])
@example(parse("1/x1", 2, 2), _x1_box(5e-324, 1.0), [(1e-300,) * 4])
@example(parse("x2*(x1*x1*x1)", 2, 2), [(1e200, 1e200), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)], [(0.5,) * 4])
@example(parse("sin(x1) + cos(x2)", 2, 2), [(1.5, 1.6), (3.1, 3.2), (0.0, 0.0), (0.0, 0.0)], [(0.3,) * 4])
@example(parse("exp(x1) - exp(x2)", 2, 2), [(700.0, 710.0), (-800.0, 800.0), (0.0, 0.0), (0.0, 0.0)], [(0.99,) * 4])
@example(parse("(x1 - w1)^2 - x2^3", 2, 2), [(-1e200, 1e200), (-1e-200, 1e-200), (1.0, 1.0), (0.0, 0.0)], [(0.5,) * 4])
def test_interval_encloses_batch_values(e, box, fractions):
    # Each enclosure holds the batch value at the box's corners and at
    # random points of the box; a NaN value (no value) is exempt.
    lo, hi = np.array(box, dtype=float).T
    inner = lo[:, None] + np.array(fractions).T * (hi - lo)[:, None]
    P = np.concatenate([np.array(list(itertools.product(*box))).T, np.clip(inner, lo[:, None], hi[:, None])], axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        enc_lo, enc_hi = eval_interval(e, *_box_args(box))
        v = np.broadcast_to(eval_array(e, P[:2], P[2:]), P.shape[1:])
    assert not np.any(np.isnan(enc_lo) | np.isnan(enc_hi))
    assert np.all(np.isnan(v) | ((enc_lo <= v) & (v <= enc_hi)))


@pytest.mark.parametrize(
    "text, x1, want",
    [
        ("ln(x1)", (0.0, 1.0), (-math.inf, math.inf)),
        ("sqrt(x1)", (-1e-300, 4.0), (-math.inf, math.inf)),
        ("1/x1", (-0.0, 1.0), (-math.inf, math.inf)),
        ("x1*x2", (0.0, 0.0), (-5e-324, 5e-324)),  # 0*inf = 0, with x2 the whole line
        ("x1^2", (-1.0, 2.0), (0.0, 4.0)),
        ("sin(x1)", (0.0, 4.0), (-0.7568024953079283, 1.0)),
        ("exp(x1)", (0.0, 1.0), (1.0, math.e)),
    ],
)
def test_interval_values(text, x1, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lo, hi = eval_interval(parse(text, 2, 1), (np.array([x1[0], -math.inf]), np.array([x1[1], math.inf])), (np.zeros(1),) * 2)
    assert lo <= want[0] and hi >= want[1]
    assert math.isinf(want[0]) or want[0] - lo <= 1e-13 * max(1.0, abs(want[0]))
    assert math.isinf(want[1]) or hi - want[1] <= 1e-13 * max(1.0, abs(want[1]))
