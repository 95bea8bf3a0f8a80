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

import itertools
import math
from operator import add

from .errors import ArgError, CapError, InstabilityError, LabelError, NotFWDError
from .extensions import fold_extensions, maj_coefficients
from .partitions import (
    WEAK,
    _check_flavor,
    _multiset_vector,
    connected_decomposition,
    enumerate_partitions,
    flavor_labelling,
    satisfies,
)
from .poset import (
    Poset,
    connected_ideals,
    hasse_components,
    is_naturally_labelled,
    mask_of,
    members,
    nontrivial_pairs,
    trivially_intersecting,
)
from .qpoly import QPolynomial, q_factorial, q_int
from .structure import BuildRecipe, classify

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

    def __init__(self, nx, trunc, has_t=True, xnames=None):
        self.nx = nx
        self.trunc = trunc
        self.has_t = has_t
        self.xnames = tuple(xnames) if xnames else tuple(f"x{i+1}" for i in range(nx))
        self.coeffs = {}

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

    def _buckets(self):
        """Terms as (t, xs, c), grouped by truncated degree."""
        buckets = {}
        for (t, xs), c in self.coeffs.items():
            buckets.setdefault(self._deg(t, xs), []).append((t, xs, c))
        return buckets

    def __mul__(self, other):
        """Only bucket pairs whose degrees add up to at most trunc are
        multiplied, so no product term is built and then dropped."""
        self._compatible(other)
        acc = {}
        b = other._buckets()
        for da, terms in self._buckets().items():
            for db, other_terms in b.items():
                if da + db <= self.trunc:
                    _mul_into(acc, terms, other_terms)
        out = self._like()
        out.coeffs = {k: c for k, c in acc.items() if c}
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
        The inverse b of a = c0 + a_1 + a_2 + ..., split by degree, is
        found one degree at a time: b_0 = c0 and
        b_d = -c0 * sum_{k=1..d} a_k b_{d-k} (Knuth, TAOCP vol. 2, 4.7).
        """
        c0 = self.constant_term()
        if c0 not in (1, -1):
            raise ArgError("inverse needs constant term +-1")
        a = self._buckets()
        if len(a[0]) > 1:
            raise ArgError("inverse needs positive degree on nonconstant terms")
        b = [a[0]]
        for d in range(1, self.trunc + 1):
            acc = {}
            for k in range(1, d + 1):
                if k in a:
                    _mul_into(acc, a[k], b[d - k])
            b.append([(t, xs, -c0 * c) for (t, xs), c in acc.items() if c])
        out = self._like()
        out.coeffs = {(t, xs): c for terms in b for t, xs, c in terms}
        return out

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


def _mul_into(acc, terms_a, terms_b):
    """Add the product of every term of terms_a with every term of
    terms_b to the map acc from (t, xs) to coefficient."""
    for t1, x1, c1 in terms_a:
        for t2, x2, c2 in terms_b:
            key = (t1 + t2, tuple(map(add, x1, x2)))
            acc[key] = acc.get(key, 0) + c1 * c2


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
    del rec  # its closure cycle would outlive the walk until a full collection


def _multiset_series(P: Poset, flavor: str, out: TruncSeries, key) -> TruncSeries:
    """Add t^nu x^f to out for every trivially-intersecting multiset of
    connected ideals up to out's truncation whose vector f has the flavor.

    Each weak vector arises from exactly one multiset, of size nu(f), and
    its total x degree is the multiset's weight, so every key is within
    the truncation and is counted straight into out."""
    counts = {}
    for ms in _iter_trivial_multisets(P, out.trunc, weighted=out.nx > 0):
        f = _multiset_vector(P.n, ms)
        if flavor == WEAK or satisfies(P, f, flavor):
            k = key(f, sum(m for _, m in ms))
            counts[k] = counts.get(k, 0) + 1
    out.coeffs = counts
    return out


def initial_quotient_hilbert(P: Poset, grading: str, N: int) -> TruncSeries:
    """Hilbert series of the quotient by the initial ideal, counted as
    trivially-intersecting multisets of connected ideals by total weight."""
    return _multiset_series(P, WEAK, *_graded(P, grading, N))


# -- the main operations ------------------------------------------------


def hilbert_truncated(P: Poset, flavor: str, grading: str, N: int) -> TruncSeries:
    """Sum of t^nu(f) x^f over value vectors of the given flavor,
    truncated at total x degree N (or nu <= N for the pure t grading).

    The q grading (and the x grading of a one-element poset, whose keys
    are the same) counts vectors by |f| alone, by Stanley's theorem (see
    `_stanley_q`); the x, (t,x) and (t,q) gradings enumerate the vectors."""
    _check_flavor(flavor)
    out, key = _graded(P, grading, N)
    if not out.nx:
        # Enumerating by |f| is hopeless when only nu is bounded.
        return _multiset_series(P, flavor, out, key)
    if out.nx == 1 and not out.has_t:
        out.coeffs = _stanley_q(P, flavor, N)
        return out
    counts = {}  # every enumerated f has |f| <= N, within the truncation
    for f in enumerate_partitions(P, flavor, N):
        k = key(f, connected_decomposition(P, f).nu if out.has_t else 0)
        counts[k] = counts.get(k, 0) + 1
    out.coeffs = counts
    return out


def _stanley_q(P: Poset, flavor: str, N: int) -> dict:
    """Coefficients of q^0..q^N of the sum of q^|f| over the vectors of
    the flavor, as TruncSeries keys: W(q) / ((1 - q)(1 - q^2)...(1 - q^n))
    with W the maj polynomial of `flavor_labelling` (Stanley, Ordered
    structures and partitions, 1972), W truncated at N by
    `maj_coefficients` and divided one factor at a time."""
    c = maj_coefficients(flavor_labelling(P, flavor), N)
    for i in range(1, P.n + 1):
        for d in range(i, N + 1):
            c[d] += c[d - i]
    return {(0, (d,)): v for d, v in enumerate(c) if v}


def rational_sum_truncated(P: Poset, grading: str, N: int) -> TruncSeries:
    """Sum over linear extensions w of
    t^{des_P(w)} prod_{i in Des(w)} x^{w[:i]} / prod_i (1 - t^{c} x^{w[:i]}),
    expanded as a truncated series.

    The factor of prefix i depends only on the prefix ideal and on
    whether i is a descent, so the sum runs over the states of
    `fold_extensions`, not over L(P); the last factor, of the full
    ideal, is common to all extensions."""
    if not is_naturally_labelled(P):
        raise LabelError("rational sum needs a naturally labelled poset")
    zero, key = _graded(P, grading, N)
    # (prefix mask, is a descent) -> 1/(1 - m), or m/(1 - m) = 1/(1 - m) - 1
    # at a descent, for the prefix's monomial m = t^c x^J.
    factors = {}

    def factor(prefix, descent):
        f = factors.get((prefix, descent))
        if f is None:
            c = len(hasse_components(P, prefix))
            t, xs = key(_multiset_vector(P.n, ((prefix, 1),)), c)
            f = zero.one_minus(t, xs).inverse()
            if descent:
                f = f - f.one_like()
            factors[(prefix, descent)] = f
        return f

    def step(term, prefix, descent):
        return term * factor(prefix, descent) if prefix else term

    total = fold_extensions(P, zero.one_like(), step, add)
    return total * factor(P.full_mask, False)


def numerator_polynomial(P: Poset, N: int = DEFAULT_TRUNC) -> TruncSeries:
    """g with Hilb(gr R_P, t, x) = g(t,x) / prod_{J in J_conn}(1 - t x^J),
    a polynomial fixed by Pi alone (Prop 6.2; see `_flag_numerator`).

    Raises InstabilityError iff g has a term of x degree above N: at once
    when N is below the lower bound of `_numerator_bounds`, else when g up
    to N + 1, or up to the upper bound if that is above N + 1, has one.
    """
    lo, hi = _numerator_bounds(P)
    if N < lo:
        raise InstabilityError(
            f"numerator has degree at least {lo}, above truncation {N}"
        )
    g = _flag_numerator(P, N + 1)
    if any(sum(xs) > N for _, xs in g.coeffs):
        raise InstabilityError(f"numerator not stable at truncation {N}")
    if hi > N + 1 and any(sum(xs) > N for _, xs in _flag_numerator(P, hi).coeffs):
        raise InstabilityError(f"numerator has degree above truncation {N}")
    g.trunc = N  # every term is of x degree <= N
    return g


def _numerator_bounds(P: Poset) -> tuple[int, int]:
    """(lo, hi) with lo <= x degree of the numerator <= hi.

    lo is the largest |J1| + |J2| over Pi: the t^2 coefficients of the
    numerator are minus the number of pairs of Pi with that vector, so
    none cancels.  hi is the sum of |J| over the connected ideals in some
    pair of Pi: the rest are cone points of the flag complex, which add
    nothing to its Stanley-Reisner numerator (Hochster's formula)."""
    lo, in_pairs = 0, set()
    for j1, j2 in itertools.combinations(connected_ideals(P), 2):
        if not trivially_intersecting(j1, j2):
            lo = max(lo, j1.bit_count() + j2.bit_count())
            in_pairs.update((j1, j2))
    return lo, sum(J.bit_count() for J in in_pairs)


def _flag_numerator(P: Poset, D: int) -> TruncSeries:
    """g up to x degree D, by the pivot recursion for monomial ideals
    (Bayer-Stillman, JSC 1992; Bigatti, JPAA 1997).  For a set S of
    connected ideals, v in S and C the ideals of S whose pair with v is in Pi,
    g(S) = (1 - m_v) g(S - v) + m_v prod_{u in C} (1 - m_u) g(S - v - C)
    with m_J = t x^J; when C is empty this is g(S - v), so a cone point
    drops out."""
    conn = connected_ideals(P)  # vertex j is conn[j - 1], bit j - 1 of S
    clash = [0] + [mask_of(k for k, K in enumerate(conn, 1)
                           if not trivially_intersecting(J, K)) for J in conn]
    memo = {0: {(0, (0,) * P.n): 1}}

    def times(X, j, sign, acc):  # acc + sign * m_J * X for J = conn[j - 1], truncated
        J = conn[j - 1]
        room, xJ = D - J.bit_count(), _multiset_vector(P.n, ((J, 1),))
        for (t, xs), c in X.items():
            if sum(xs) <= room:
                k = (t + 1, tuple(map(add, xs, xJ)))
                acc[k] = acc.get(k, 0) + sign * c
        return acc

    def g(S):
        S = mask_of(j for j in members(S) if clash[j] & S)  # drop the cone points
        if S not in memo:
            v = max(members(S), key=lambda j: (clash[j] & S).bit_count())
            s_v = S & ~(1 << (v - 1))
            rest, pivot = g(s_v), g(s_v & ~clash[v])
            for u in members(clash[v] & S):
                pivot = times(pivot, u, -1, dict(pivot))
            out = times(rest, v, -1, times(pivot, v, 1, dict(rest)))
            memo[S] = {k: c for k, c in out.items() if c}
        return memo[S]

    out = TruncSeries(P.n, D)
    try:
        out.coeffs = g((1 << len(conn)) - 1)
    except RecursionError:
        non_cone = sum(1 for c in clash if c)
        raise CapError(
            f"numerator recursion over {non_cone} non-cone connected"
            " ideals exceeds the interpreter's recursion limit"
        ) from None
    finally:
        del g  # its closure cycle would keep memo alive until a full collection
    return out


def _hook_sizes(P: Poset):
    """The sizes in the hook formula: |J1| + |J2| for each pair of Pi,
    and |J| for each connected ideal."""
    pairs = [pr.j1.bit_count() + pr.j2.bit_count() for pr in nontrivial_pairs(P)]
    return pairs, [J.bit_count() for J in connected_ideals(P)]


def hook_formula(P: Poset) -> QPolynomial:
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
    result = classify(P)
    if not isinstance(result, BuildRecipe):
        raise NotFWDError("poset is not a forest with duplications")
    return result


def duplication_product(P: Poset, classification, grading: str,
                        N: int = DEFAULT_TRUNC) -> TruncSeries:
    """prod over pairs (1 - t^2 x^{J1} x^{J2}) / prod over ideals (1 - t x^J),
    truncated.  classification must be a successful recipe."""
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
