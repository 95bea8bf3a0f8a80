"""Truncated generating functions over the integers.

Everything here is exact: series are stored sparsely as maps from
exponent vectors to integer coefficients.  A series with x variables is
truncated by total x degree; one without (the pure t grading, where
collapsing the x variables first would make individual factors
divergent) is truncated by t degree.

Gradings accepted everywhere: "x-multi" (alias "x"), "(t,x)" ("tx"),
"(t,q)" ("tq"), "q", and "t".  `_GRADINGS` gives the shape of each
grading's series, and `_graded` is the one place that turns a value
vector into a monomial of that shape.
"""

from __future__ import annotations

import math

from .errors import ArgError, InstabilityError, LabelError, NotFWDError
from .extensions import DEFAULT_CAP, linear_extensions
from .partitions import (
    WEAK,
    _multiset_vector,
    connected_decomposition,
    enumerate_partitions,
    satisfies,
)
from .poset import (
    Poset,
    connected_ideals,
    hasse_components,
    is_naturally_labelled,
    nontrivial_pairs,
    trivially_intersecting,
)
from .qpoly import QPolynomial, q_factorial, q_int

DEFAULT_TRUNC = 12

# Canonical grading -> (has a t variable, x variable names), where None
# means one x variable per element of the poset.
_GRADINGS = {
    "x": (False, None),
    "tx": (True, None),
    "q": (False, ("q",)),
    "tq": (True, ("q",)),
    "t": (True, ()),
}
_ALIASES = {"x-multi": "x", "(t,x)": "tx", "t,x": "tx", "(t,q)": "tq", "t,q": "tq"}


def normalize_grading(grading: str) -> str:
    g = grading.lower()
    g = _ALIASES.get(g, g)
    if g not in _GRADINGS:
        raise ArgError(f"unknown grading {grading!r}")
    return g


class TruncSeries:
    """Sparse integer series in t and x1..xnx, truncated by total degree.

    The truncation bound applies to the total x degree when there are x
    variables (nx > 0), and to the t degree when there are none.
    """

    __slots__ = ("nx", "has_t", "trunc", "coeffs", "xnames")

    def __init__(self, nx, trunc, has_t=True, coeffs=None, xnames=None):
        self.nx = nx
        self.trunc = trunc
        self.has_t = has_t
        self.xnames = tuple(xnames) if xnames else tuple(f"x{i+1}" for i in range(nx))
        self.coeffs = {}
        if coeffs:
            for key, c in coeffs.items():
                self.add_term(key[0], key[1], c)

    def _deg(self, t, xs):
        return sum(xs) if self.nx else t

    def add_term(self, t, xs, coeff):
        xs = tuple(xs)
        if len(xs) != self.nx:
            raise ArgError("exponent vector length mismatch")
        if t and not self.has_t:
            raise ArgError("t exponent in a t-free series")
        if self._deg(t, xs) > self.trunc:
            return
        key = (t, xs)
        c = self.coeffs.get(key, 0) + coeff
        if c:
            self.coeffs[key] = c
        elif key in self.coeffs:
            del self.coeffs[key]

    def _like(self):
        return TruncSeries(self.nx, self.trunc, self.has_t, xnames=self.xnames)

    def copy(self):
        out = self._like()
        out.coeffs = dict(self.coeffs)
        return out

    def one_like(self):
        out = self._like()
        out.coeffs[(0, (0,) * self.nx)] = 1
        return out

    def one_minus(self, t, xs):
        """1 - t^t x^xs, shaped like this series."""
        out = self.one_like()
        out.add_term(t, xs, -1)
        return out

    def _compatible(self, other):
        if (self.nx, self.has_t, self.trunc) != (other.nx, other.has_t, other.trunc):
            raise ArgError("series have incompatible shapes")

    def __add__(self, other):
        self._compatible(other)
        out = self.copy()
        for (t, xs), c in other.coeffs.items():
            out.add_term(t, xs, c)
        return out

    def __neg__(self):
        out = self._like()
        out.coeffs = {k: -c for k, c in self.coeffs.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._compatible(other)
        out = self._like()
        for (t1, x1), c1 in self.coeffs.items():
            for (t2, x2), c2 in other.coeffs.items():
                t = t1 + t2
                xs = tuple(a + b for a, b in zip(x1, x2))
                if out._deg(t, xs) <= self.trunc:
                    out.add_term(t, xs, c1 * c2)
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            return self.coeffs == ({(0, (0,) * self.nx): other} if other else {})
        return isinstance(other, TruncSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def constant_term(self):
        return self.coeffs.get((0, (0,) * self.nx), 0)

    def inverse(self):
        """Multiplicative inverse up to the truncation order.

        The constant term must be 1 or -1, and every other monomial must
        have positive truncated degree (otherwise powers never die out).
        """
        c0 = self.constant_term()
        if c0 not in (1, -1):
            raise ArgError("inverse needs constant term +-1")
        for (t, xs) in self.coeffs:
            if (t, xs) != (0, (0,) * self.nx) and self._deg(t, xs) == 0:
                raise ArgError("inverse needs positive degree on nonconstant terms")
        a = self if c0 == 1 else -self
        u = a.one_like() - a
        inv = a.one_like()
        for _ in range(self.trunc):
            inv = a.one_like() + u * inv
        return inv if c0 == 1 else -inv

    def substitute_neg_t(self):
        out = self._like()
        out.coeffs = {
            (t, xs): (-c if t % 2 else c) for (t, xs), c in self.coeffs.items()
        }
        return out

    def is_nonnegative(self):
        return all(c >= 0 for c in self.coeffs.values())

    def terms(self):
        """Coefficients in the canonical order: by total degree, then t
        degree, then exponent vector."""
        return sorted(
            ((t, xs, c) for (t, xs), c in self.coeffs.items()),
            key=lambda item: (item[0] + sum(item[1]), item[0], item[1]),
        )

    def to_json(self):
        variables = (("t",) if self.has_t else ()) + self.xnames
        return {
            "variables": list(variables),
            "trunc": self.trunc,
            "trunc_on": "x" if self.nx else "t",
            "terms": [[t, list(xs), c] for t, xs, c in self.terms()],
        }

    def _monomial_str(self, t, xs):
        parts = []
        if t == 1:
            parts.append("t")
        elif t > 1:
            parts.append(f"t^{t}")
        for name, e in zip(self.xnames, xs):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def __repr__(self):
        if not self.coeffs:
            return "0"
        chunks = []
        for t, xs, c in self.terms():
            mono = self._monomial_str(t, xs)
            mag = abs(c)
            body = mono if mag == 1 and mono != "1" else (
                str(mag) if mono == "1" else f"{mag}*{mono}"
            )
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(("+ " if c > 0 else "- ") + body)
        return " ".join(chunks)


# -- grading plumbing ---------------------------------------------------


def _graded(P: Poset, grading: str, N: int):
    """The empty series of a grading, truncated at N, and its key
    (f, nu) -> (t exponent, x exponents) for a value vector f with nu(f) = nu."""
    has_t, xnames = _GRADINGS[normalize_grading(grading)]
    nx = P.n if xnames is None else len(xnames)
    out = TruncSeries(nx, N, has_t, xnames=xnames)

    def key(f, nu):
        if xnames is None:
            xs = tuple(f)
        elif xnames:
            xs = (sum(f),)  # a single q keeps |f|
        else:
            xs = ()  # the pure t grading keeps no x exponent
        return (nu if has_t else 0, xs)

    return out, key


# -- trivially-intersecting multisets -----------------------------------


def _iter_trivial_multisets(P: Poset, N: int, weighted: bool):
    """Multisets of pairwise trivially-intersecting connected ideals of
    total degree at most N, an ideal's degree being its size when
    weighted and 1 otherwise.

    Yields lists of (ideal mask, multiplicity)."""
    order = connected_ideals(P)

    def rec(idx, budget, chosen):
        yield list(chosen)
        for i in range(idx, len(order)):
            J = order[i]
            w = J.bit_count() if weighted else 1
            if w > budget or any(not trivially_intersecting(J, K) for K, _ in chosen):
                continue
            for m in range(1, budget // w + 1):
                chosen.append((J, m))
                yield from rec(i + 1, budget - m * w, chosen)
                chosen.pop()

    yield from rec(0, N, [])


def _multiset_series(P: Poset, flavor: str, out: TruncSeries, key) -> TruncSeries:
    """Add t^nu x^f to out for every trivially-intersecting multiset of
    connected ideals up to out's truncation whose vector f has the flavor.

    Each weak vector arises from exactly one multiset, of size nu(f), and
    its total x degree is the multiset's weight."""
    for ms in _iter_trivial_multisets(P, out.trunc, weighted=out.nx > 0):
        f = _multiset_vector(P.n, ms)
        if flavor == WEAK or satisfies(P, f, flavor):
            t, xs = key(f, sum(m for _, m in ms))
            out.add_term(t, xs, 1)
    return out


def initial_quotient_hilbert(P: Poset, grading: str, N: int) -> TruncSeries:
    """Hilbert series of the quotient by the initial ideal, counted as
    trivially-intersecting multisets of connected ideals by total weight."""
    return _multiset_series(P, WEAK, *_graded(P, grading, N))


# -- the main operations ------------------------------------------------


def hilbert_truncated(P: Poset, flavor: str, grading: str, N: int) -> TruncSeries:
    """Sum of t^nu(f) x^f over value vectors of the given flavor,
    truncated at total x degree N (or nu <= N for the pure t grading)."""
    out, key = _graded(P, grading, N)
    if not out.nx:
        # Enumerating by |f| is hopeless when only nu is bounded.
        return _multiset_series(P, flavor, out, key)
    for f in enumerate_partitions(P, flavor, N):
        nu = connected_decomposition(P, f).nu if out.has_t else 0
        t, xs = key(f, nu)
        out.add_term(t, xs, 1)
    return out


def rational_sum_truncated(P: Poset, grading: str, N: int,
                           cap: int = DEFAULT_CAP) -> TruncSeries:
    """Sum over linear extensions w of
    t^{des_P(w)} prod_{i in Des(w)} x^{w[:i]} / prod_i (1 - t^{c} x^{w[:i]}),
    expanded as a truncated series."""
    if not is_naturally_labelled(P):
        raise LabelError("rational sum needs a naturally labelled poset")
    out, key = _graded(P, grading, N)
    for ext in linear_extensions(P, cap=cap):
        term = out.one_like()
        descents = set(ext.des_set)
        for i in range(1, P.n + 1):
            prefix = ext.prefix_mask(i)
            c = len(hasse_components(P, prefix))
            t, xs = key(_multiset_vector(P.n, ((prefix, 1),)), c)
            term = term * out.one_minus(t, xs).inverse()
            if i in descents:
                numer = out._like()
                numer.add_term(t, xs, 1)
                term = term * numer
        out = out + term
    return out


def numerator_polynomial(P: Poset, N: int = DEFAULT_TRUNC) -> TruncSeries:
    """g with Hilb(gr R_P, t, x) = g(t,x) / prod_{J in J_conn}(1 - t x^J).

    Computed as the truncated product.  When the poset classifies as a
    forest with duplications the numerator degree is known exactly from
    the closed product form, so insufficient N is detected soundly; for
    other posets stability is checked by recomputation at N + 2 (which a
    wide enough gap in the numerator's degrees could in principle fool).
    """
    from .structure import BuildRecipe, classify

    if isinstance(classify(P), BuildRecipe):
        need = sum(_hook_sizes(P)[0])
        if N < need:
            raise InstabilityError(
                f"numerator has degree {need}, above truncation {N}"
            )
        return _numerator_at(P, N)
    g_n = _numerator_at(P, N)
    g_n2 = _numerator_at(P, N + 2)
    small = {k: c for k, c in g_n2.coeffs.items() if sum(k[1]) <= N}
    if small != g_n.coeffs or any(sum(k[1]) > N for k in g_n2.coeffs):
        raise InstabilityError(f"numerator not stable at truncation {N}")
    return g_n


def _numerator_at(P: Poset, N: int) -> TruncSeries:
    h = hilbert_truncated(P, WEAK, "tx", N)
    _, key = _graded(P, "tx", N)
    out = h
    for J in connected_ideals(P):
        out = out * h.one_minus(*key(_multiset_vector(P.n, ((J, 1),)), 1))
    return out


def _hook_sizes(P: Poset):
    """The sizes in the hook formula: |J1| + |J2| for each pair of Pi,
    and |J| for each connected ideal."""
    pairs = [pr.j1.bit_count() + pr.j2.bit_count() for pr in nontrivial_pairs(P)]
    return pairs, [J.bit_count() for J in connected_ideals(P)]


def hook_formula(P: Poset, cap: int = DEFAULT_CAP) -> QPolynomial:
    """[n]!_q * prod over pairs [|J1|+|J2|]_q / prod over ideals [|J|]_q,
    by exact division; equals the maj generating polynomial."""
    if not is_naturally_labelled(P):
        raise LabelError("the q hook formula needs a natural labelling")
    _require_fwd(P)
    pairs, ideals = _hook_sizes(P)
    out = q_factorial(P.n)
    for size in pairs:
        out = out * q_int(size)
    for size in ideals:
        out = out.exact_div(q_int(size))
    return out


def hook_count(P: Poset) -> int:
    """n! * prod(|J1|+|J2|) / prod|J| as an exact integer (any labelling)."""
    _require_fwd(P)
    pairs, ideals = _hook_sizes(P)
    numer = math.factorial(P.n) * math.prod(pairs)
    denom = math.prod(ideals)
    if numer % denom:
        raise AssertionError("hook count is not an integer")
    return numer // denom


def _require_fwd(P: Poset):
    from .structure import BuildRecipe, classify

    result = classify(P)
    if not isinstance(result, BuildRecipe):
        raise NotFWDError("poset is not a forest with duplications")
    return result


def duplication_product(P: Poset, classification, grading: str,
                        N: int = DEFAULT_TRUNC) -> TruncSeries:
    """prod over pairs (1 - t^2 x^{J1} x^{J2}) / prod over ideals (1 - t x^J),
    truncated.  classification must be a successful recipe."""
    from .structure import BuildRecipe

    if not isinstance(classification, BuildRecipe):
        raise NotFWDError("duplication product needs a classified poset")
    out, key = _graded(P, grading, N)
    out = out.one_like()
    for pr in nontrivial_pairs(P):
        f = _multiset_vector(P.n, ((pr.j1, 1), (pr.j2, 1)))
        out = out * out.one_minus(*key(f, 2))
    for J in connected_ideals(P):
        out = out * out.one_minus(*key(_multiset_vector(P.n, ((J, 1),)), 1)).inverse()
    return out


def koszul_inverse(P: Poset, N: int = DEFAULT_TRUNC):
    """Invert Hilb(gr R_P, -t, x) up to degree N.

    Returns (series, nonnegative) where nonnegative reports whether every
    coefficient of the inverse is >= 0."""
    h = hilbert_truncated(P, WEAK, "tx", N)
    inv = h.substitute_neg_t().inverse()
    return inv, inv.is_nonnegative()
