"""Scalar expressions in the variables x1..xn, w1..wd.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' nonneg-integer)?
    base   := number | ident | '(' expr ')' | '-' factor | func '(' expr ')'
    ident  := ('x'|'w') positive-integer
    func   := sin | cos | exp | ln | sqrt
    number := decimal literal (optional fraction and exponent), finite as a float

'(', unary '-' and calls nest at most ``MAX_NESTING`` deep.  Powers are
restricted to non-negative integer exponents so that every expression is C^2
wherever it is defined.  Nodes are interned: equal expressions are the
identical object.  Every walk visits the unique nodes below its roots once,
children first, without recursion.  Differentiation is exact; the only
simplification applied is neutral-element elimination (u+0, u*1, u*0, u^0,
u^1), never factoring or constant folding.
"""

from __future__ import annotations

import math
import operator
import re
import weakref
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import count
from typing import Union

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    ExponentError,
    ExpressionSyntaxError,
    VariableIndexError,
)

__all__ = [
    "Expression", "Const", "Var", "Add", "Sub", "Mul", "Div", "Pow", "Neg", "Call", "ProblemSpec",
    "Tape", "parse", "evaluate", "eval_array", "eval_interval", "differentiate", "render", "max_indices",
]

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt")
MAX_NESTING = 100


# ---------------------------------------------------------------------------
# Interned nodes.  The table holds weak references, so a node lives only as
# long as some expression uses it.
# ---------------------------------------------------------------------------

_live: dict = {}  # key -> weakref.KeyedRef to the live node with those fields
_next_serial = count().__next__
_init = object.__setattr__


def _forget(ref):
    if _live.get(ref.key) is ref:
        del _live[ref.key]


def _intern(key, kids):
    """The live node with ``key`` = (class, *fields), else a new one."""
    ref = _live.get(key)
    if ref is not None and (node := ref()) is not None:
        return node
    cls = key[0]
    node = object.__new__(cls)
    for name, value in zip(cls._fields, key[1:]):
        _init(node, name, value)
    _init(node, "_kids", kids)
    _init(node, "_serial", _next_serial())  # children are always older
    _live[key] = weakref.KeyedRef(node, _forget, key)
    return node


class _Node:
    __slots__ = ("_kids", "_serial", "__weakref__")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __repr__(self):
        return f"{type(self).__name__}<{render(self)}>"


class Const(_Node):
    """Real literal, stored as a float; ``0.0`` and ``-0.0`` are distinct nodes.

    ``parse`` only ever produces non-negative values; a negative value
    renders as a negation and re-reads as ``Neg(Const)``.
    """

    __slots__ = _fields = ("value",)

    def __new__(cls, value):
        value = float(value)
        if not math.isfinite(value):
            raise ValueError("constants must be finite")
        return _intern((cls, value, math.copysign(1.0, value)), ())


class Var(_Node):
    """Reference to x<index> or w<index> (1-based)."""

    __slots__ = _fields = ("axis", "index")

    def __new__(cls, axis, index):
        if axis not in ("x", "w"):
            raise ValueError(f"axis must be 'x' or 'w', got {axis!r}")
        if index < 1:
            raise VariableIndexError(f"variable index must be >= 1, got {index}")
        return _intern((cls, axis, index), ())

    @property
    def name(self) -> str:
        return f"{self.axis}{self.index}"


class _Binary(_Node):
    __slots__ = _fields = ("a", "b")

    def __new__(cls, a, b):
        return _intern((cls, a, b), (a, b))


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Pow(_Node):
    """Integer power with non-negative exponent."""

    __slots__ = _fields = ("base", "exponent")

    def __new__(cls, base, exponent):
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise ExponentError(f"exponent must be an integer, got {exponent!r}")
        if exponent < 0:
            raise ExponentError(f"exponent must be >= 0, got {exponent}")
        return _intern((cls, base, exponent), (base,))


class Neg(_Node):
    __slots__ = _fields = ("a",)

    def __new__(cls, a):
        return _intern((cls, a), (a,))


class Call(_Node):
    __slots__ = _fields = ("fn", "a")

    def __new__(cls, fn, a):
        if fn not in FUNCTIONS:
            raise ValueError(f"unknown function {fn!r}")
        return _intern((cls, fn, a), (a,))


Expression = Union[Const, Var, Add, Sub, Mul, Div, Pow, Neg, Call]


def _order(roots, skip=()) -> list:
    """The unique nodes below ``roots``, children first; the walk does not
    enter nodes in ``skip``."""
    seen = set()
    stack = list(roots)
    pop, push, add = stack.pop, stack.extend, seen.add
    while stack:
        e = pop()
        if e not in seen and e not in skip:
            add(e)
            push(e._kids)
    return sorted(seen, key=operator.attrgetter("_serial"))


class Tape(tuple):
    """Roots evaluated together; their node order is computed on first use
    and kept."""

    @cached_property
    def order(self) -> list:
        return _order(self)


def max_indices(e: Expression) -> tuple[int, int]:
    """Largest x-index and w-index referenced by ``e`` (0 when absent)."""
    found = [node for node in _order((e,)) if type(node) is Var]
    return tuple(max((v.index for v in found if v.axis == axis), default=0) for axis in "xw")


@dataclass(frozen=True, slots=True)
class ProblemSpec:
    """Dimensions and defining expressions of the parametric program.

    ``f0`` is the objective and ``F`` the single functional constraint of

        minimize f0(x, w)  subject to  F(x, w) <= 0,   x in R^n, w in R^d.
    """

    n: int
    d: int
    f0: Expression
    F: Expression

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise DimensionMismatch(f"dimensions must be >= 1, got n={self.n}, d={self.d}")
        for label, e in (("f0", self.f0), ("F", self.F)):
            mx, mw = max_indices(e)
            if mx > self.n or mw > self.d:
                raise VariableIndexError(
                    f"{label} references x{mx}/w{mw} beyond dimensions n={self.n}, d={self.d}"
                )


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z]+\d*)|(?P<op>[-+*/^()]))"
)
_INT_RE = re.compile(r"\d+$")
_Token = namedtuple("_Token", "kind text pos")  # kind: "num" | "name" | "op" | "end"


def _tokenize(source: str) -> list[_Token]:
    tokens, i = [], 0
    while m := _TOKEN_RE.match(source, i):
        tokens.append(_Token(m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        i = m.end()
    rest = source[i:].lstrip()
    if rest:
        raise ExpressionSyntaxError(f"unexpected character {rest[0]!r}", len(source) - len(rest))
    tokens.append(_Token("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str, n: int, d: int):
        self.tokens = _tokenize(source)
        self.k = 0
        self.n = n
        self.d = d
        self.depth = 0  # open parentheses, unary minuses and calls

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def advance(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op: str):
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ExpressionSyntaxError(f"expected {op!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.advance()

    def parse(self) -> Expression:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionSyntaxError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return e

    def expr(self) -> Expression:
        e = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self) -> Expression:
        e = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            rhs = self.factor()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def factor(self) -> Expression:
        e = self.base()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "num" or not _INT_RE.match(tok.text):
                raise ExponentError(
                    f"exponent after '^' must be a non-negative integer literal, "
                    f"found {tok.text or 'end of input'!r} at position {tok.pos}"
                )
            self.advance()
            e = Pow(e, int(tok.text))
        return e

    def base(self) -> Expression:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            value = float(tok.text)
            if not math.isfinite(value):
                raise ExpressionSyntaxError(f"numeric literal {tok.text!r} is out of range", tok.pos)
            return Const(value)
        if tok.kind == "name" and tok.text not in FUNCTIONS:
            self.advance()
            return self.variable(tok)
        if tok.kind == "name" or (tok.kind == "op" and tok.text in "-("):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ExpressionSyntaxError(f"expression nests deeper than {MAX_NESTING} levels", tok.pos)
            self.advance()
            if tok.text == "-":
                e = Neg(self.factor())
            else:
                if tok.kind == "name":
                    self.expect_op("(")
                e = self.expr()
                self.expect_op(")")
                if tok.kind == "name":
                    e = Call(tok.text, e)
            self.depth -= 1
            return e
        raise ExpressionSyntaxError(
            f"expected a number, variable, function or '(', found {tok.text or 'end of input'!r}",
            tok.pos,
        )

    def variable(self, tok: _Token) -> Expression:
        m = re.fullmatch(r"([xw])(\d+)", tok.text)
        if not m:
            raise ExpressionSyntaxError(f"unknown identifier {tok.text!r}", tok.pos)
        axis, idx = m.group(1), int(m.group(2))
        if idx == 0:
            raise VariableIndexError(f"variable index 0 in {tok.text!r} (indices are 1-based)")
        bound = self.n if axis == "x" else self.d
        if idx > bound:
            raise VariableIndexError(
                f"{tok.text!r} exceeds declared dimension ({axis} has {bound} component(s))"
            )
        return Var(axis, idx)


def parse(source: str, n: int, d: int) -> Expression:
    """Parse ``source`` into an expression over x1..xn, w1..wd."""
    if n < 1 or d < 1:
        raise DimensionMismatch(f"dimensions must be >= 1, got n={n}, d={d}")
    return _Parser(source, n, d).parse()


# ---------------------------------------------------------------------------
# Evaluation: one loop over the nodes in order, with an op table per mode.
# Each op takes (node, values so far, x, w).
# ---------------------------------------------------------------------------

def _run(roots, ops, x, w) -> list:
    val = {}
    for e in roots.order if isinstance(roots, Tape) else _order(roots):
        val[e] = ops[e.__class__](e, val, x, w)
    return [val[r] for r in roots]


def _scalar_var(e, val, x, w):
    vec = x if e.axis == "x" else w
    if e.index > len(vec):
        raise DimensionMismatch(f"{e.name} referenced but only {len(vec)} {e.axis}-component(s) supplied")
    return float(vec[e.index - 1])


def _scalar_div(e, val, x, w):
    den = val[e.b]
    if den == 0.0:
        raise DomainError("division by zero")
    return val[e.a] / den


def _scalar_pow(e, val, x, w):
    try:
        return val[e.base] ** e.exponent
    except OverflowError:
        raise DomainError("overflow in power") from None


def _scalar_call(e, val, x, w):
    arg = val[e.a]
    if e.fn == "ln" and arg <= 0.0:
        raise DomainError(f"ln of non-positive argument {arg}")
    if e.fn == "sqrt" and arg < 0.0:
        raise DomainError(f"sqrt of negative argument {arg}")
    try:
        return _MATH[e.fn](arg)
    except OverflowError:
        raise DomainError("overflow in function evaluation") from None


_MATH = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "ln": math.log, "sqrt": math.sqrt}
_UFUNC = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "ln": np.log, "sqrt": np.sqrt}

_COMMON = {
    Const: lambda e, val, x, w: e.value,
    Add: lambda e, val, x, w: val[e.a] + val[e.b],
    Sub: lambda e, val, x, w: val[e.a] - val[e.b],
    Mul: lambda e, val, x, w: val[e.a] * val[e.b],
    Neg: lambda e, val, x, w: -val[e.a],
}
_SCALAR = {
    **_COMMON,
    Var: _scalar_var,
    Div: _scalar_div,
    Pow: _scalar_pow,
    Call: _scalar_call,
}
_BATCH = {
    **_COMMON,
    Const: lambda e, val, x, w: np.float64(e.value),  # 0/0 of constants gives NaN, not ZeroDivisionError
    Var: lambda e, val, x, w: (x if e.axis == "x" else w)[e.index - 1],
    Div: lambda e, val, x, w: val[e.a] / val[e.b],
    Pow: lambda e, val, x, w: np.power(val[e.base], e.exponent),
    Call: lambda e, val, x, w: _UFUNC[e.fn](val[e.a]),
}


# Interval mode: every value is a pair (lo, hi) of arrays.  Each op rounds its
# bounds outward, so an enclosure holds the exact values over the box and,
# since rounding is monotone, the float values _BATCH computes at its points.
# A NaN bound (inf - inf, inf / inf) becomes the whole line.
_INF = math.inf
# Relative error allowed for np.power and the functions, far above their few
# ulps; the absolute floor covers subnormal results.
_FN_SLACK = 1e-14
_FN_FLOOR = 1e-300
# sin and cos: absolute allowance, and the phase of a maximum (a minimum lies
# pi later).  Beyond |x| = 2^20 the phase test is not trusted: [-1, 1].
_TRIG_SLACK = 1e-14
_TRIG_PEAK = {"sin": math.pi / 2, "cos": 0.0}
_TRIG_REACH = 2.0**20


def _outward(lo, hi, slack=0.0):
    if slack:
        lo = lo - (np.abs(lo) + _FN_FLOOR) * slack
        hi = hi + (np.abs(hi) + _FN_FLOOR) * slack
    lo, hi = np.nextafter(lo, -_INF), np.nextafter(hi, _INF)
    return np.where(np.isnan(lo), -_INF, lo), np.where(np.isnan(hi), _INF, hi)


def _hull(values):
    return _outward(reduce(np.minimum, values), reduce(np.maximum, values))


def _times(a, b):
    """a*b with 0*inf = 0, as for the sets the bounds stand for."""
    return np.where((a == 0.0) | (b == 0.0), 0.0, a * b)


def _interval_mul(e, val, x, w):
    (al, ah), (bl, bh) = val[e.a], val[e.b]
    return _hull([_times(al, bl), _times(al, bh), _times(ah, bl), _times(ah, bh)])


def _interval_div(e, val, x, w):
    (al, ah), (bl, bh) = val[e.a], val[e.b]
    lo, hi = _hull([al / bl, al / bh, ah / bl, ah / bh])
    pole = (bl <= 0.0) & (bh >= 0.0)
    return np.where(pole, -_INF, lo), np.where(pole, _INF, hi)


def _interval_pow(e, val, x, w):
    lo, hi = val[e.base]
    k = e.exponent
    if k == 0:
        return np.float64(1.0), np.float64(1.0)
    a, b = np.power(lo, k), np.power(hi, k)
    if k % 2:
        return _outward(a, b, _FN_SLACK)
    low = np.where(lo >= 0.0, a, np.where(hi <= 0.0, b, 0.0))
    return _outward(low, np.maximum(a, b), _FN_SLACK)


def _interval_call(e, val, x, w):
    lo, hi = val[e.a]
    fn = _UFUNC[e.fn]
    if e.fn in _TRIG_PEAK:
        a, b = fn(lo), fn(hi)
        peak = _TRIG_PEAK[e.fn]
        wide = ~(np.maximum(np.abs(lo), np.abs(hi)) <= _TRIG_REACH)  # NaN too

        def holds(phase):  # some phase + 2*pi*k lies in [lo, hi]
            return np.floor((hi - phase) / (2.0 * math.pi)) * (2.0 * math.pi) + phase >= lo

        return (
            np.where(wide | holds(peak + math.pi), -1.0, np.minimum(a, b) - _TRIG_SLACK),
            np.where(wide | holds(peak), 1.0, np.maximum(a, b) + _TRIG_SLACK),
        )
    lo_out, hi_out = _outward(fn(lo), fn(hi), _FN_SLACK)
    if e.fn == "exp":
        return lo_out, hi_out
    off = ~(lo > 0.0) if e.fn == "ln" else ~(lo >= 0.0)  # domain left, or NaN
    return np.where(off, -_INF, lo_out), np.where(off, _INF, hi_out)


_INTERVAL = {
    Const: lambda e, val, x, w: (np.float64(e.value),) * 2,
    Var: lambda e, val, x, w: tuple(b[e.index - 1] for b in (x if e.axis == "x" else w)),
    Add: lambda e, val, x, w: _outward(val[e.a][0] + val[e.b][0], val[e.a][1] + val[e.b][1]),
    Sub: lambda e, val, x, w: _outward(val[e.a][0] - val[e.b][1], val[e.a][1] - val[e.b][0]),
    Mul: _interval_mul,
    Div: _interval_div,
    Pow: _interval_pow,
    Neg: lambda e, val, x, w: (-val[e.a][1], -val[e.a][0]),
    Call: _interval_call,
}


def evaluate(roots, x, w):
    """Evaluate an expression, or a sequence of them, at the point (x, w).

    Raises DomainError when a value leaves the reals (log/sqrt of a negative
    argument, division by zero, overflow).
    """
    single = isinstance(roots, _Node)
    out = _run((roots,) if single else roots, _SCALAR, x, w)
    for v in out:
        if not math.isfinite(v):
            raise DomainError(f"expression evaluated to {v}")
    return out[0] if single else out


def eval_array(roots, x: np.ndarray, w: np.ndarray):
    """Vectorized evaluation of an expression, or a sequence of them, over
    batches of points.

    ``x`` has shape (n, N) and ``w`` shape (d, N) (or (d,) broadcast over the
    batch).  Out-of-domain entries become NaN/inf instead of raising; callers
    are expected to mask non-finite results.
    """
    single = isinstance(roots, _Node)
    with np.errstate(all="ignore"):
        out = _run((roots,) if single else roots, _BATCH, np.asarray(x), np.asarray(w))
    return out[0] if single else out


def eval_interval(roots, x, w):
    """Enclosures of an expression, or a sequence of them, over boxes.

    ``x`` and ``w`` are (lo, hi) pairs of arrays shaped like the arguments of
    ``eval_array``.  Each result is a (lo, hi) pair that holds every value
    other than NaN that ``eval_array`` computes at a point of the box, and
    the exact one.  Where an argument leaves the domain (ln, sqrt, division
    by an interval holding 0) the enclosure is the whole line.
    """
    single = isinstance(roots, _Node)
    with np.errstate(all="ignore"):
        out = _run((roots,) if single else roots, _INTERVAL, x, w)
    return out[0] if single else out


# ---------------------------------------------------------------------------
# Differentiation with neutral-element simplification
# ---------------------------------------------------------------------------

# Held here, so that they stay interned; -0.0 simplifies like 0.0.
_ZERO, _NEG_ZERO, _ONE, _TWO = Const(0.0), Const(-0.0), Const(1.0), Const(2.0)


def _zero(e) -> bool:
    return e is _ZERO or e is _NEG_ZERO


def _add(a, b):
    return b if _zero(a) else a if _zero(b) else Add(a, b)


def _sub(a, b):
    return a if _zero(b) else _neg(b) if _zero(a) else Sub(a, b)


def _mul(a, b):
    if _zero(a) or _zero(b):
        return _ZERO
    return b if a is _ONE else a if b is _ONE else Mul(a, b)


def _div(a, b):
    return _ZERO if _zero(a) else a if b is _ONE else Div(a, b)


def _neg(a):
    return _ZERO if _zero(a) else Neg(a)


def _pow(base, k: int):
    return _ONE if k == 0 else base if k == 1 else Pow(base, k)


def _d_pow(e, d, v):
    if e.exponent == 0:
        return _ZERO
    return _mul(_mul(Const(float(e.exponent)), _pow(e.base, e.exponent - 1)), d[e.base])


# Each rule takes (node, derivatives of its children so far, variable).
_RULES = {
    Const: lambda e, d, v: _ZERO,
    Var: lambda e, d, v: _ONE if e is v else _ZERO,
    Add: lambda e, d, v: _add(d[e.a], d[e.b]),
    Sub: lambda e, d, v: _sub(d[e.a], d[e.b]),
    Mul: lambda e, d, v: _add(_mul(d[e.a], e.b), _mul(e.a, d[e.b])),
    Div: lambda e, d, v: _div(_sub(_mul(d[e.a], e.b), _mul(e.a, d[e.b])), _pow(e.b, 2)),
    Pow: _d_pow,
    Neg: lambda e, d, v: _neg(d[e.a]),
    Call: lambda e, d, v: _CALL_RULES[e.fn](e.a, d[e.a]),
}
_CALL_RULES = {
    "sin": lambda u, du: _mul(Call("cos", u), du),
    "cos": lambda u, du: _neg(_mul(Call("sin", u), du)),
    "exp": lambda u, du: _mul(Call("exp", u), du),
    "ln": lambda u, du: _div(du, u),
    "sqrt": lambda u, du: _div(du, _mul(_TWO, Call("sqrt", u))),
}


def differentiate(e: Expression, v: Var, memo: dict | None = None) -> Expression:
    """Exact symbolic partial derivative of ``e`` with respect to ``v``.

    Each node's derivative is built once and recorded in ``memo``, which
    callers may share across expressions differentiated by the same ``v``.
    Repeated application yields exact higher derivatives.
    """
    memo = {} if memo is None else memo
    for node in _order((e,), memo):
        memo[node] = _RULES[node.__class__](node, memo, v)
    return memo[e]


# ---------------------------------------------------------------------------
# Rendering (inverse of parse up to node identity)
# ---------------------------------------------------------------------------

_PREC_ADD = 1
_PREC_MUL = 2  # also unary '-', which sits at factor level
_PREC_POW = 3
_PREC_ATOM = 4
_PREC = {Add: _PREC_ADD, Sub: _PREC_ADD, Mul: _PREC_MUL, Div: _PREC_MUL, Neg: _PREC_MUL, Pow: _PREC_POW}
_SYMBOL = {Add: " + ", Sub: " - ", Mul: "*", Div: "/"}


def render(e: Expression) -> str:
    """Render to text; re-parsing yields the identical expression."""
    pieces = {}  # node -> its text, as strings and child nodes

    def wrap(child, parent_prec: int, strict: bool) -> tuple:
        prec = _PREC.get(child.__class__, _PREC_ATOM)
        if prec < parent_prec or (strict and prec == parent_prec):
            return ("(", child, ")")
        return (child,)

    for node in _order((e,)):
        cls = node.__class__
        if cls is Const:
            pieces[node] = (repr(node.value),)
        elif cls is Var:
            pieces[node] = (node.name,)
        elif cls is Neg:
            inner = node.a
            paren = _PREC.get(inner.__class__, _PREC_ATOM) <= _PREC_MUL and inner.__class__ is not Neg
            pieces[node] = ("-(", inner, ")") if paren else ("-", inner)
        elif cls is Pow:
            pieces[node] = (*wrap(node.base, _PREC_ATOM, strict=False), f"^{node.exponent}")
        elif cls is Call:
            pieces[node] = (f"{node.fn}(", node.a, ")")
        else:
            prec = _PREC[cls]
            pieces[node] = (*wrap(node.a, prec, strict=False), _SYMBOL[cls], *wrap(node.b, prec, strict=True))
    out, stack = [], [e]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
        else:
            stack.extend(reversed(pieces[item]))
    return "".join(out)
