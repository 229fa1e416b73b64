"""Seeded generator of `.prob` problems whose answers are known by construction.

Every problem is written in local coordinates around its reference pair
(x̄, w̄): u_i = x_i - x̄_i, s_k = w_k - w̄_k, and the linear forms
l = T u with T unit upper triangular times a column permutation, so T is
invertible without any linear algebra.  In these coordinates

    f0 = Σ_j g_j l_j + ½ Σ_j h_j l_j² + Σ_k s_k (B l)_k + (terms of order ≥ 3)
    F  = c0 + Σ_j α_j l_j + ½ Σ_j q_j l_j² + Σ_k s_k (R l)_k + e·s + (order ≥ 3)

so at the reference pair, exactly,

    ∇x f0 = Tᵀg,  Hxx = Tᵀ diag(h) T,  Hwx = B T,
    F = c0,  ∇x F = Tᵀα,  ∇w F = e,  Fxx = Tᵀ diag(q) T,  Fwx = R T.

All coefficients are dyadic rationals, so the program's floating-point
derivative values are exact and singular matrices are exactly singular.
Each kind fixes its case, multiplier and verdict by a short argument on
these coefficients (see KINDS), and the locally
single-valued kinds also give the derivative ∇s(w̄) of the stationary map.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction as Q

KINDS = (
    "interior_yes",  # h > 0: Hxx positive definite, implicit-function theorem
    "interior_no",  # h_j0 = 0 with B[:, j0] != 0: ker Hxx ⊄ ker Hwx, C3_4 fails
    "nondeg_yes",  # λ > 0, h + λq > 0: KKT matrix nonsingular (Thm 4.1)
    "nondeg_no",  # λ > 0, (h + λq)_j0 = 0, α_j0 = 0, (B + λR)[:, j0] != 0: C4_6 fails
    "degen_yes",  # λ = 0, h > 0, e - B diag(1/h) α != 0: C4_10..C4_12 hold (Thm 4.3b)
    "degen_no",  # λ = 0, h_j0 = 0, α_j0 > 0, B[:, j0] != 0: C4_14 fails (Thm 4.3a)
)

_CASE = {
    "interior": ("Interior", None),
    "nondeg": ("Boundary", "Nondegenerate"),
    "degen": ("Boundary", "Degenerate"),
}

_SCALES = (Q(2), Q(4), Q(1, 2), Q(1, 4))


def fmt(c: Q) -> str:
    """Decimal text of a non-negative dyadic rational (exact)."""
    if c.denominator == 1:
        return str(c.numerator)
    return repr(float(c))


@dataclass
class Problem:
    """Coefficients of one generated problem in abstract coordinates."""

    name: str
    kind: str
    n: int
    d: int
    xbar: list
    wbar: list
    T: list  # n x n, l = T u
    g: list
    h: list
    B: list  # d x n
    c0: Q
    alpha: list
    q: list
    R: list  # d x n
    e: list
    lam: Q | None
    f0_extra: list = field(default_factory=list)  # order >= 3 terms, see _higher_order_term
    F_extra: list = field(default_factory=list)


@dataclass(frozen=True)
class Variant:
    """A rendered problem file plus what the benchmark expects of it."""

    name: str
    base: str  # name of the base problem; variants share their base's answers
    transform: str  # "base" | "permute" | "scale_f0" | "scale_F" | "w_term"
    n: int
    d: int
    f0: str
    F: str
    x: tuple
    w: tuple
    case: tuple  # (tag, subtag)
    lam: float | None
    verdict: str
    x_query: tuple | None  # (x', w') with w' = ∇s(w̄)ᵀ x', when single-valued
    w_query: tuple | None
    scale: float = 1.0  # c of scale_f0 / scale_F

    def text(self) -> str:
        vec = lambda v: "[" + ", ".join(repr(float(t)) for t in v) + "]"
        return (
            f'[problem]\nn = {self.n}\nd = {self.d}\nf0 = "{self.f0}"\nF = "{self.F}"\n\n'
            f"[point]\nx = {vec(self.x)}\nw = {vec(self.w)}\n"
        )


# ---------------------------------------------------------------------------
# Coefficient generation
# ---------------------------------------------------------------------------


def _nonzero(rng, lo=-2, hi=2) -> Q:
    v = 0
    while v == 0:
        v = rng.randint(lo, hi)
    return Q(v, rng.choice((1, 2)))


def _sparse(rng, size, count, lo=-2, hi=2) -> list:
    """A vector with exactly `count` nonzero entries at random places."""
    v = [Q(0)] * size
    for i in rng.sample(range(size), min(count, size)):
        v[i] = _nonzero(rng, lo, hi)
    return v


def _dyadic_point(rng) -> Q:
    return Q(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), 4)


def _transform(rng, n):
    """Unit upper triangular with n // 2 entries ±1 above the diagonal, columns permuted."""
    U = [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in rng.sample(upper, min(n // 2, len(upper))):
        U[i][j] = Q(rng.choice((-1, 1)))
    perm = list(range(n))
    rng.shuffle(perm)
    return [[U[i][perm[j]] for j in range(n)] for i in range(n)]


# The shape of slot i is fixed and only the values come from the seed, so every
# seed gives the program about the same amount of work.  n runs over 1..8, d
# over 1..6; every fourth problem carries long higher-order tails.
_N = (1, 2, 3, 4, 5, 6, 7, 8, 2, 3, 4, 5, 6, 7, 8, 3)
_D = (1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6, 1, 2, 3, 4)


def generate(seed: int, count: int) -> list:
    """`count` base problems cycling through KINDS, reproducible from `seed`."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        kind = KINDS[i % len(KINDS)]
        out.append(_problem(rng, f"gen{i:03d}_{kind}", kind, _N[i % len(_N)], _D[i % len(_D)], i % 4 == 1))
    return out


def _problem(rng, name: str, kind: str, n: int, d: int, long_tail: bool) -> Problem:
    case, answer = kind.split("_")
    T = _transform(rng, n)
    h = [Q(rng.randint(1, 6), 2) for _ in range(n)]
    B = [_sparse(rng, n, 2) for _ in range(d)]
    q = [Q(rng.randint(1, 2), 2) for _ in range(n)]
    R = [_sparse(rng, n, 1, -1, 1) for _ in range(d)]
    e = _sparse(rng, d, (d + 1) // 2, -1, 1)
    alpha = [_nonzero(rng) for _ in range(n)]
    j0 = rng.randrange(n)
    lam = None
    c0 = Q(0)

    if case == "interior":
        c0 = -Q(rng.randint(2, 8), 2)
    if answer == "no":
        h[j0] = Q(0)
        col = _sparse(rng, d, 1 + d // 3)
        for k in range(d):
            B[k][j0] = col[k]
    if case == "nondeg":
        lam = Q(rng.randint(1, 6), 2)
        if answer == "no":
            q[j0] = Q(0)
            alpha[j0] = Q(0)
            # Make (B + λR)[:, j0] nonzero whatever R holds.
            for k in range(d):
                B[k][j0] = col[k] - lam * R[k][j0]
    elif case == "degen":
        lam = Q(0)
        if answer == "no":
            alpha[j0] = Q(rng.randint(1, 2))
        else:
            # C4_10 needs e - B diag(1/h) α != 0.
            v = [e[k] - sum(B[k][j] * alpha[j] / h[j] for j in range(n)) for k in range(d)]
            if all(t == 0 for t in v):
                e[0] += 1

    g = [-(lam or 0) * a for a in alpha]
    p = Problem(name, kind, n, d, [_dyadic_point(rng) for _ in range(n)],
                [_dyadic_point(rng) for _ in range(d)], T, g, h, B, c0, alpha, q, R, e, lam)
    p.f0_extra = [_higher_order_term(rng, n, d, t) for t in range(16 if long_tail else 3)]
    p.F_extra = [_higher_order_term(rng, n, d, t + 5) for t in range(8 if long_tail else 1)]
    return p


# Each template is of order >= 3 jointly in (u, s) at the reference pair, so it
# adds nothing to the derivative data above and leaves F(x̄, w̄) unchanged.
_TEMPLATES = (
    "{u}^3",
    "{u}^2*{s}",
    "{u}*{s}^2",
    "sin({u})^3",
    "{u}*{v}*{u2}*exp({s})",
    "{u}^2*sin({s})",
    "{u}^3/(2 + {s}^2)",
    "cos({s})*{v}^3",
    "{u}*ln(1 + {s}^2)",
    "{u}^4*sqrt(1 + {s}^2)",
)


def _higher_order_term(rng, n, d, t: int) -> tuple:
    """The t-th tail term: (coefficient, template, x-slots, w-slot)."""
    c = Q(rng.randint(1, 8), rng.choice((1, 2, 4))) * rng.choice((1, -1))
    return c, _TEMPLATES[t % len(_TEMPLATES)], [t % n, (t + 1) % n, (t + 2) % n], t % d


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _shift(var: str, a: Q) -> str:
    if a == 0:
        return var
    return f"({var} - {fmt(a)})" if a > 0 else f"({var} + {fmt(-a)})"


def _sum(terms) -> str:
    """Join (coefficient, body) pairs into text; body None is a constant."""
    out = ""
    for c, body in terms:
        if c == 0:
            continue
        mag = abs(c)
        piece = fmt(mag) if body is None else (body if mag == 1 else f"{fmt(mag)}*{body}")
        if not out:
            out = piece if c > 0 else f"-{piece}"
        else:
            out += (" + " if c > 0 else " - ") + piece
    return out or "0"


class _Renderer:
    def __init__(self, p: Problem, perm):
        self.p = p
        self.u = [_shift(f"x{perm[i] + 1}", p.xbar[i]) for i in range(p.n)]
        self.s = [_shift(f"w{k + 1}", p.wbar[k]) for k in range(p.d)]
        self.l = ["(" + _sum([(p.T[j][i], self.u[i]) for i in range(p.n)]) + ")" for j in range(p.n)]

    def linear(self, coeffs) -> str:
        return "(" + _sum(list(zip(coeffs, self.l))) + ")"

    def extra(self, term) -> str:
        c, template, xs, k = term
        return template.format(u=self.u[xs[0]], v=self.u[xs[1]], u2=self.u[xs[2]], s=self.s[k])

    def function(self, lin, quad, cross, const, w_lin, extra) -> str:
        p = self.p
        terms = [(const, None)]
        terms += list(zip(lin, self.l))
        terms += [(c / 2, f"{l}^2") for c, l in zip(quad, self.l)]
        terms += [(Q(1), f"{self.s[k]}*{self.linear(cross[k])}") for k in range(p.d)
                  if any(c != 0 for c in cross[k])]
        terms += list(zip(w_lin, self.s))
        terms += [(t[0], self.extra(t)) for t in extra]
        return _sum(terms)


def variants(p: Problem, rng) -> list:
    """The base problem and its metamorphic variants.

    permute  relabels the x coordinates (never the identity, so n = 1 has none);
    scale_*  multiplies f0 or F by c > 0 (λ scales by c or 1/c);
    w_term   adds a function of w alone to f0.
    All share the verdict, and ∇s(w̄)ᵀx' up to the relabelling.
    """
    identity = list(range(p.n))
    perm = identity[:]
    while p.n > 1 and perm == identity:
        rng.shuffle(perm)
    xq, wq = _single_valued_query(p, rng)
    out = []
    for transform in ("base", "permute", "scale", "w_term"):
        if transform == "permute" and p.n == 1:
            continue
        pm = perm if transform == "permute" else identity
        r = _Renderer(p, pm)
        f0 = r.function(p.g, p.h, p.B, Q(0), [Q(0)] * p.d, p.f0_extra)
        F = r.function(p.alpha, p.q, p.R, p.c0, p.e, p.F_extra)
        lam = p.lam
        label = transform
        c = Q(1)
        if transform == "scale":
            c = rng.choice(_SCALES)
            if rng.random() < 0.5:
                f0, label = f"{fmt(c)}*({f0})", "scale_f0"
                lam = None if lam is None else lam * c
            else:
                F, label = f"{fmt(c)}*({F})", "scale_F"
                lam = None if lam is None else lam / c
        elif transform == "w_term":
            k = rng.randrange(p.d)
            f0 = f"{f0} + {fmt(Q(rng.randint(1, 5)))}*w{k + 1}^2 - sin(w{rng.randrange(p.d) + 1}) + exp(w{k + 1})"
        x = [0.0] * p.n
        x_query = None
        for i in range(p.n):
            x[pm[i]] = float(p.xbar[i])
        if xq is not None:
            x_query = [0.0] * p.n
            for i in range(p.n):
                x_query[pm[i]] = float(xq[i])
        out.append(Variant(
            name=f"{p.name}_{label}", base=p.name, transform=label, n=p.n, d=p.d, f0=f0, F=F,
            x=tuple(x), w=tuple(float(t) for t in p.wbar), case=_CASE[p.kind.split("_")[0]],
            lam=None if lam is None else float(lam), verdict=_expected_verdict(p),
            x_query=None if x_query is None else tuple(x_query),
            w_query=None if wq is None else tuple(float(t) for t in wq), scale=float(c),
        ))
    return out


def _expected_verdict(p: Problem) -> str:
    return "Yes" if p.kind.endswith("yes") else "No"


def _single_valued_query(p: Problem, rng):
    """(x', w') with w' = ∇s(w̄)ᵀ x', or (None, None) where S is not a smooth map.

    With x' = Tᵀy and ∇s = T⁻¹K this is w' = Kᵀy, where
      interior:  K = -diag(1/h) Bᵀ                        (implicit functions)
      boundary:  K = -diag(1/p)(Cᵀ + α ν),  C = B + λR,  p = h + λq,
                 ν = (eᵀ - αᵀ diag(1/p) Cᵀ) / (αᵀ diag(1/p) α)
    from differentiating ∇x f0 + λ∇x F = 0, F = 0 along w (λ > 0, LICQ).
    """
    if p.kind not in ("interior_yes", "nondeg_yes"):
        return None, None
    n, d = p.n, p.d
    y = [Q(rng.randint(-3, 3)) for _ in range(n)]
    if all(t == 0 for t in y):
        y[0] = Q(1)
    if p.kind == "interior_yes":
        K = [[-p.B[k][j] / p.h[j] for k in range(d)] for j in range(n)]
    else:
        lam = p.lam
        C = [[p.B[k][j] + lam * p.R[k][j] for j in range(n)] for k in range(d)]
        pv = [p.h[j] + lam * p.q[j] for j in range(n)]
        den = sum(p.alpha[j] ** 2 / pv[j] for j in range(n))
        nu = [(p.e[k] - sum(p.alpha[j] * C[k][j] / pv[j] for j in range(n))) / den for k in range(d)]
        K = [[-(C[k][j] + p.alpha[j] * nu[k]) / pv[j] for k in range(d)] for j in range(n)]
    x_query = [sum(p.T[j][i] * y[j] for j in range(n)) for i in range(n)]
    w_query = [sum(K[j][k] * y[j] for j in range(n)) for k in range(d)]
    return x_query, w_query
