"""Truncated generating functions over the integers.

Everything here is exact: series are stored sparsely as maps from
exponent vectors to integer coefficients, truncated by total degree in
the x variables (or in t for the pure t grading, where collapsing the x
variables first would make individual factors divergent).

Gradings accepted everywhere: "x-multi" (alias "x"), "(t,x)" ("tx"),
"(t,q)" ("tq"), "q", and "t".
"""

from __future__ import annotations

from .errors import ArgError, InstabilityError, LabelError, NotFWDError
from .extensions import DEFAULT_CAP, linear_extensions
from .partitions import (
    WEAK,
    connected_decomposition,
    enumerate_partitions,
    satisfies,
)
from .poset import (
    Poset,
    connected_ideals,
    hasse_components,
    is_naturally_labelled,
    members,
    nontrivial_pairs,
    trivially_intersecting,
)
from .qpoly import QPolynomial, q_factorial, q_int

DEFAULT_TRUNC = 12

_GRADINGS = {
    "x-multi": "x",
    "x": "x",
    "(t,x)": "tx",
    "tx": "tx",
    "t,x": "tx",
    "(t,q)": "tq",
    "tq": "tq",
    "t,q": "tq",
    "q": "q",
    "t": "t",
}


def normalize_grading(grading: str) -> str:
    try:
        return _GRADINGS[grading.lower()]
    except KeyError:
        raise ArgError(f"unknown grading {grading!r}") from None


class TruncSeries:
    """Sparse integer series in t and x1..xnx, truncated by total degree.

    trunc_on selects whether the truncation bound applies to the x total
    degree (the usual case) or to the t degree (pure t grading).
    """

    __slots__ = ("nx", "has_t", "trunc", "trunc_on", "coeffs", "xnames")

    def __init__(self, nx, trunc, has_t=True, trunc_on="x", coeffs=None, xnames=None):
        if trunc_on not in ("x", "t"):
            raise ArgError(f"bad trunc_on {trunc_on!r}")
        self.nx = nx
        self.trunc = trunc
        self.has_t = has_t
        self.trunc_on = trunc_on
        self.xnames = tuple(xnames) if xnames else tuple(f"x{i+1}" for i in range(nx))
        self.coeffs = {}
        if coeffs:
            for key, c in coeffs.items():
                self.add_term(key[0], key[1], c)

    def _deg(self, t, xs):
        return sum(xs) if self.trunc_on == "x" else t

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
        return TruncSeries(self.nx, self.trunc, self.has_t, self.trunc_on,
                           xnames=self.xnames)

    def copy(self):
        out = self._like()
        out.coeffs = dict(self.coeffs)
        return out

    @classmethod
    def constant(cls, value, nx, trunc, has_t=True, trunc_on="x", xnames=None):
        s = cls(nx, trunc, has_t, trunc_on, xnames=xnames)
        if value:
            s.coeffs[(0, (0,) * nx)] = value
        return s

    def one_like(self):
        return TruncSeries.constant(1, self.nx, self.trunc, self.has_t,
                                    self.trunc_on, self.xnames)

    def _compatible(self, other):
        if (self.nx, self.has_t, self.trunc, self.trunc_on) != (
            other.nx, other.has_t, other.trunc, other.trunc_on
        ):
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
            "trunc_on": self.trunc_on,
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


def _series_shape(P: Poset, grading: str, N: int):
    g = normalize_grading(grading)
    if g == "x":
        return TruncSeries(P.n, N, has_t=False)
    if g == "tx":
        return TruncSeries(P.n, N, has_t=True)
    if g == "q":
        return TruncSeries(1, N, has_t=False, xnames=("q",))
    if g == "tq":
        return TruncSeries(1, N, has_t=True, xnames=("q",))
    return TruncSeries(0, N, has_t=True, trunc_on="t")


def _vector_key(grading: str, f, v):
    """(t exponent, x exponents) for a value vector f with nu = v."""
    if grading == "x":
        return (0, tuple(f))
    if grading == "tx":
        return (v, tuple(f))
    if grading == "q":
        return (0, (sum(f),))
    if grading == "tq":
        return (v, (sum(f),))
    return (v, ())


# -- trivially-intersecting multisets -----------------------------------


def _iter_trivial_multisets(P: Poset, max_size, weight_bound=None):
    """Multisets of pairwise trivially-intersecting connected ideals with
    at most max_size members (and, optionally, total weight bound).

    Yields lists of (ideal mask, multiplicity)."""
    order = connected_ideals(P)

    def rec(idx, size, weight, chosen):
        yield list(chosen)
        for i in range(idx, len(order)):
            J = order[i]
            if any(not trivially_intersecting(J, K) for K, _ in chosen):
                continue
            w = J.bit_count()
            m = 1
            while size + m <= max_size and (
                weight_bound is None or weight + m * w <= weight_bound
            ):
                chosen.append((J, m))
                yield from rec(i + 1, size + m, weight + m * w, chosen)
                chosen.pop()
                m += 1

    yield from rec(0, 0, 0, [])


def _multiset_vector(P: Poset, multiset):
    f = [0] * P.n
    for mask, mult in multiset:
        for p in members(mask):
            f[p - 1] += mult
    return tuple(f)


def initial_quotient_hilbert(P: Poset, grading: str, N: int) -> TruncSeries:
    """Hilbert series of the quotient by the initial ideal, counted as
    trivially-intersecting multisets of connected ideals by total weight."""
    g = normalize_grading(grading)
    out = _series_shape(P, g, N)
    # The t grading truncates by multiset size, the others by weight.
    bound = None if g == "t" else N
    for ms in _iter_trivial_multisets(P, N, weight_bound=bound):
        t, xs = _vector_key(g, _multiset_vector(P, ms), sum(m for _, m in ms))
        out.add_term(t, xs, 1)
    return out


# -- the main operations ------------------------------------------------


def hilbert_truncated(P: Poset, flavor: str, grading: str, N: int) -> TruncSeries:
    """Sum of t^nu(f) x^f over value vectors of the given flavor,
    truncated at total x degree N (or nu <= N for the pure t grading)."""
    g = normalize_grading(grading)
    out = _series_shape(P, g, N)
    if g == "t":
        # Enumerating by |f| is hopeless here; walk the multisets of
        # pairwise trivially-intersecting connected ideals instead (each
        # weak vector arises from exactly one) and filter by flavor.
        for ms in _iter_trivial_multisets(P, N):
            f = _multiset_vector(P, ms)
            if flavor != WEAK and not satisfies(P, f, flavor):
                continue
            out.add_term(sum(m for _, m in ms), (), 1)
        return out
    for f in enumerate_partitions(P, flavor, N):
        v = connected_decomposition(P, f).nu if g in ("tx", "tq") else 0
        t, xs = _vector_key(g, f, v)
        out.add_term(t, xs, 1)
    return out


def rational_sum_truncated(P: Poset, grading: str, N: int,
                           cap: int = DEFAULT_CAP) -> TruncSeries:
    """Sum over linear extensions w of
    t^{des_P(w)} prod_{i in Des(w)} x^{w[:i]} / prod_i (1 - t^{c} x^{w[:i]}),
    expanded as a truncated series."""
    if not is_naturally_labelled(P):
        raise LabelError("rational sum needs a naturally labelled poset")
    g = normalize_grading(grading)
    out = _series_shape(P, g, N)
    for ext in linear_extensions(P, cap=cap):
        term = out.one_like()
        descents = set(ext.des_set)
        for i in range(1, P.n + 1):
            prefix = ext.prefix_mask(i)
            c = len(hasse_components(P, prefix))
            t, xs = _vector_key(g, _multiset_vector(P, ((prefix, 1),)), c)
            factor = out.one_like()
            factor.add_term(t, xs, -1)
            term = term * factor.inverse()
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
        need = sum(
            pr.j1.bit_count() + pr.j2.bit_count() for pr in nontrivial_pairs(P)
        )
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
    out = h
    for J in connected_ideals(P):
        factor = h.one_like()
        factor.add_term(*_vector_key("tx", _multiset_vector(P, ((J, 1),)), 1), -1)
        out = out * factor
    return out


def hook_formula(P: Poset, cap: int = DEFAULT_CAP) -> QPolynomial:
    """[n]!_q * prod over pairs [|J1|+|J2|]_q / prod over ideals [|J|]_q,
    by exact division; equals the maj generating polynomial."""
    if not is_naturally_labelled(P):
        raise LabelError("the q hook formula needs a natural labelling")
    _require_fwd(P)
    numer = q_factorial(P.n)
    for pr in nontrivial_pairs(P):
        numer = numer * q_int(pr.j1.bit_count() + pr.j2.bit_count())
    out = numer
    for J in connected_ideals(P):
        out = out.exact_div(q_int(J.bit_count()))
    return out


def hook_count(P: Poset) -> int:
    """n! * prod(|J1|+|J2|) / prod|J| as an exact integer (any labelling)."""
    _require_fwd(P)
    import math

    numer = math.factorial(P.n)
    for pr in nontrivial_pairs(P):
        numer *= pr.j1.bit_count() + pr.j2.bit_count()
    denom = 1
    for J in connected_ideals(P):
        denom *= J.bit_count()
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
    g = normalize_grading(grading)
    out = _series_shape(P, g, N)
    out.add_term(0, (0,) * out.nx, 1)
    for pr in nontrivial_pairs(P):
        factor = out.one_like()
        f = _multiset_vector(P, ((pr.j1, 1), (pr.j2, 1)))
        factor.add_term(*_vector_key(g, f, 2), -1)
        out = out * factor
    for J in connected_ideals(P):
        factor = out.one_like()
        factor.add_term(*_vector_key(g, _multiset_vector(P, ((J, 1),)), 1), -1)
        out = out * factor.inverse()
    return out


def koszul_inverse(P: Poset, N: int = DEFAULT_TRUNC):
    """Invert Hilb(gr R_P, -t, x) up to degree N.

    Returns (series, nonnegative) where nonnegative reports whether every
    coefficient of the inverse is >= 0."""
    h = hilbert_truncated(P, WEAK, "tx", N)
    inv = h.substitute_neg_t().inverse()
    return inv, inv.is_nonnegative()
