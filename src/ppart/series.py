"""Truncated generating functions over the integers.

Everything here is exact: series are stored sparsely as maps from
exponents (t, (x1, ..., xn)) to integer coefficients.  A series with x
variables is truncated by total x degree; one without (the pure t
grading, where collapsing the x variables first would make individual
factors divergent) is truncated by t degree.

The kernels key on packed monomials (`_Monomials`; Monagan and Pearce,
CASC 2007): t^a x^f is one int of equal fields for x_n (lowest) to x1,
then |f|, then a, unbounded (a alone with no x), so a product is one int
sum.  A field holds 2 * max(trunc, 127), and a sum adds monomials of
degree at most trunc, or an ideal's (at most n <= 64), so no field
carries over.  Kernels pack `TruncSeries.coeffs` and unpack their result.

Gradings accepted everywhere: "x-multi" (alias "x"), "(t,x)" ("tx"),
"(t,q)" ("tq"), "q", and "t".  `_GRADINGS` gives the shape of each
grading's series, and `_graded` is the one place that turns an ideal
into a monomial of that shape.  On a complete intersection (the count
test, `structure.ci_test_counts`) `hilbert_truncated`, with no strict
cover, and `koszul_inverse` take the paper's products over Pi and J_conn.
Any other poset walks, one counting engine per grading, whatever the
flavor: faces of the flag complex of Pi for t (`_flag_walk`, on candidate
masks, which also weighs the multisets of the initial quotient),
Stanley's theorem for q, and for x, (t,x) and (t,q) the walk over chains
of level ideals, whose monomial sums its levels' monomials.  The walks
are kept by name, as the independent side of the formulas' checks.
Eq. 3.1 takes an ideal's edges as A_p + m T / (1 - m), one division per
ideal: its 23 benchmark sums take 6.0 ms, not 7.4 (shared 2-core host).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import reduce
from itertools import accumulate

from .errors import ArgError, CapError, InstabilityError, LabelError, NotFWDError
from .extensions import _hook_coefficients, _hook_sizes, maj_coefficients
from .partitions import (
    WEAK,
    _check_flavor,
    _level_chains,
    _Monomials,
    _strict_covers,
    flavor_labelling,
)
from .poset import (
    Poset,
    _Memo,
    _pair_masks,
    clashes,
    connected_ideals,
    hasse_components,
    is_naturally_labelled,
    mask_of,
    members,
)
from .qpoly import QPolynomial, _q_product
from .structure import BuildRecipe, ci_test_counts

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
    variables (nx > 0), and to the t degree when there are none.  No
    engine calls `*`, `inverse`, `substitute_neg_t` or `one_like`; they
    stay for the benchmark's Cor 1.5 check and its tracer.
    """

    __slots__ = ("nx", "has_t", "trunc", "coeffs", "xnames")

    def __init__(self, nx, trunc, has_t=True, xnames=None):
        self.nx = nx
        self.trunc = trunc
        self.has_t = has_t
        self.xnames = tuple(xnames) if xnames else tuple(f"x{i+1}" for i in range(nx))
        self.coeffs = {}

    def _like(self):
        return TruncSeries(self.nx, self.trunc, self.has_t, xnames=self.xnames)

    def one_like(self):
        out = self._like()
        out.coeffs[(0, (0,) * self.nx)] = 1
        return out

    def _compatible(self, other):
        if (self.nx, self.has_t, self.trunc) != (other.nx, other.has_t, other.trunc):
            raise ArgError("series have incompatible shapes")

    def _packed(self):
        """The codec, and the terms within the truncation packed."""
        codec = _Monomials(self.nx, self.trunc)
        return codec, {codec.pack(t, xs): c for (t, xs), c in self.coeffs.items()
                       if (sum(xs) if xs else t) <= self.trunc}

    def __mul__(self, other):
        """Only bucket pairs whose degrees add up to at most trunc are
        multiplied, so no product term is built and then dropped."""
        self._compatible(other)
        (codec, a), (_, b), acc = self._packed(), other._packed(), {}
        a, b = _buckets(a, codec), _buckets(b, codec)
        for da, terms in a.items():
            for db, other_terms in b.items():
                if da + db <= self.trunc:
                    _mul_into(acc, terms, other_terms)
        out = self._like()
        out.coeffs = codec.unpacked(acc)
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            return self.coeffs == ({(0, (0,) * self.nx): other} if other else {})
        return isinstance(other, TruncSeries) and self.coeffs == other.coeffs

    def inverse(self):
        """Multiplicative inverse up to the truncation order (`_inverse`)."""
        codec, a = self._packed()
        out = self._like()
        out.coeffs = codec.unpacked(_inverse(a, codec))
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


def _buckets(c, codec):
    """The terms of c within the truncation, {degree: [(monomial, coeff)]}."""
    buckets = {}
    for m, v in c.items():
        if (d := m >> codec.shift & codec.mask) <= codec.trunc:
            buckets.setdefault(d, []).append((m, v))
    return buckets


def _inverse(c, codec):
    """The inverse of c, a dict packed monomial -> coefficient, up to the
    truncation.  The constant term must be 1 or -1, and every other
    monomial must have positive degree (otherwise powers never die out).
    The inverse b of a = c0 + a_1 + a_2 + ..., split by degree, is found
    one degree at a time: b_0 = c0 and b_d = -c0 * sum_{k=1..d} a_k b_{d-k}
    (Knuth, TAOCP vol. 2, 4.7)."""
    if (c0 := c.get(0, 0)) not in (1, -1):
        raise ArgError("inverse needs constant term +-1")
    a = _buckets(c, codec)
    if len(a[0]) > 1:
        raise ArgError("inverse needs positive degree on nonconstant terms")
    b = [a[0]]
    for d in range(1, codec.trunc + 1):
        acc = {}
        for k in range(1, d + 1):
            _mul_into(acc, a.get(k, ()), b[d - k])
        b.append([(m, -c0 * c) for m, c in acc.items() if c])
    return {m: c for terms in b for m, c in terms}


def _mul_into(acc, terms_a, terms_b):
    """Add the product of every term of terms_a with every term of
    terms_b to the map acc from packed monomial to coefficient."""
    for m1, c1 in terms_a:
        for m2, c2 in terms_b:
            k = m1 + m2
            acc[k] = acc.get(k, 0) + c1 * c2


# -- times and over 1 - m in place, on dicts packed monomial -> coefficient


def _plus_times(acc, c, m, codec, sign=-1):
    """acc + sign * m * c in place, dropping every term past the
    truncation: one addition per term of c with room for m."""
    shift, mask = codec.shift, codec.mask
    room = codec.trunc - (m >> shift & mask)
    for k, v in c.items():
        if k >> shift & mask <= room:
            acc[k + m] = acc.get(k + m, 0) + sign * v
    return acc


def _times_one_minus(c, m, codec):
    """c * (1 - m), with no zero stored."""
    if m >> codec.shift & codec.mask < 1:
        raise ArgError("1 - m needs m of positive degree")
    return {k: v for k, v in _plus_times(dict(c), c, m, codec).items() if v}


def _plus(a, b):
    """a + b, neither changed: a new dict, or the other when one is empty."""
    return {**a, **{k: a.get(k, 0) + v for k, v in b.items()}} if a and b else a or b


def _over_one_minus(c, m, codec, shift=False):
    """c / (1 - m), or c * m / (1 - m) with shift, in one pass by
    increasing degree: out[k] = c[k] + out[k - m]."""
    if (d := m >> codec.shift & codec.mask) < 1:
        raise ArgError("1 - m needs m of positive degree")
    trunc, sh, mask, m0 = codec.trunc, codec.shift, codec.mask, m if shift else 0
    out, by_degree = {}, [[] for _ in range(trunc + 1)]
    for k, v in c.items():
        k += m0
        if (e := k >> sh & mask) <= trunc:
            out[k] = v
            by_degree[e].append(k)
    for e in range(trunc + 1 - d):
        for k in by_degree[e]:
            if v := out[k]:
                if (k := k + m) not in out:
                    by_degree[e + d].append(k)
                out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


# -- grading plumbing ---------------------------------------------------


def _graded(P: Poset, grading: str, N: int):
    """The empty series of a grading, truncated at N >= 0, its codec, and
    mono[I] = t^c(I) x^I packed, for an ideal I of c(I) Hasse components."""
    if N < 0:
        raise ArgError(f"negative truncation {N}")
    has_t, xnames = _GRADINGS[normalize_grading(grading)]
    nx = P.n if xnames is None else len(xnames)
    out, codec = TruncSeries(nx, N, has_t, xnames=xnames), _Monomials(nx, N)
    # x^I is the product of an x per element of I: its own for x, the q for q, 1 for t
    unit = codec.units if xnames is None else (sum(codec.units),) * P.n
    mono = _Memo(lambda I: (len(hasse_components(P, I)) << codec.top if has_t else 0)
                 + sum(unit[p - 1] for p in members(I)))
    return out, codec, mono


# -- the flag complex of Pi, walked on candidate masks -------------------


def _flag_walk(P: Poset, N: int, values, root: int = 0, held=None):
    """One depth-first walk over the flag complex of Pi.  A node carries
    acc, cand and its budget, what is left of N; cand is the mask of the
    higher-index connected ideals that clash with none it holds, and only
    its set bits within the budget are visited.  Without held, the nodes
    are the multisets of total size at most N, an ideal weighing its
    number of elements; ideal i with multiplicity m adds m * values[i] to
    acc, and the walk returns {acc: its nodes}.  With held, they are the
    faces of fewer than N ideals (or the empty one), acc starts at root
    and ideal i clears values[i] from it.  A node adds its children that
    clear acc, popcount(cand & held[acc]), to counts[budget], and a node
    of budget 2 adds its grandchildren that do to counts[1], unwalked: so
    counts[b] is the number of faces of N + 1 - b ideals that clear root."""
    conn, clash, faces = connected_ideals(P), clashes(P), held is not None
    weight = [1 if faces else J.bit_count() for J in conn]
    # conn is sorted by size, so the ideals that fit a budget b are a prefix
    fits = [(1 << bisect_right(weight, b)) - 1 if b > faces else 0 for b in range(N + 1)]
    free = [~c for c in clash]  # the ideals that do not clash with each
    counts, stack = [0] * (N + 1) if faces else {}, [(root, (1 << len(conn)) - 1, N)]
    while stack:
        acc, cand, budget = stack.pop()
        rest = cand & fits[budget]
        if not faces:
            counts[acc] = counts.get(acc, 0) + 1
        else:
            counts[budget] += (cand & held[acc] if acc else cand).bit_count()
            if budget == 2:
                last = 0
                while rest:
                    low = rest & -rest
                    rest ^= low
                    i = low.bit_length() - 1
                    last += (rest & free[i] & (held[acc & ~values[i]] if acc else -1)).bit_count()
                counts[1] += last
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            if faces:
                stack.append((acc & ~values[i], rest & free[i], budget - 1))
            else:
                below, w, v = rest & free[i], weight[i], values[i]
                stack.extend((acc + m * v, below, budget - m * w)
                             for m in range(1, budget // w + 1))
    return counts


def _t_by_faces(P: Poset, flavor: str, N: int) -> dict:
    """Coefficients of t^0..t^N of the sum of t^nu(f) over the vectors of
    the flavor, as TruncSeries keys, counted by faces, not multisets.

    A weak f is a multiset of nu(f) trivially-intersecting connected
    ideals whose support is a face of the flag complex of Pi.  Along a
    cover a < b, f(a) - f(b) is the multiplicity of the ideals holding a
    but not b, so a face counts when it separates every cover along which
    the flavor drops strictly.  A face of i ideals carries C(k - 1, i - 1)
    multisets of size k, so with f_i the counted faces of size i, t^k has
    coefficient the sum of f_i C(k - 1, i - 1) (the Stanley-Reisner face
    expansion); t^0 counts the empty face.  `_flag_walk` counts f_i for
    i >= 1, the faces of N ideals by popcount."""
    strict, conn = _strict_covers(P, flavor), connected_ideals(P)
    sep = [mask_of(k for k, (a, b) in enumerate(strict, 1)  # bit k - 1: the k-th cover
                   if J >> (a - 1) & 1 and not J >> (b - 1) & 1)
           for J in conn] if strict else [0] * len(conn)
    if sum(sorted((s.bit_count() for s in sep), reverse=True)[:N]) < len(strict):
        return {}  # the N ideals separating the most covers miss one, so every face does
    held = _Memo(lambda missing: mask_of(i for i, s in enumerate(sep, 1) if not missing & ~s))
    counts = _flag_walk(P, N, sep, (1 << len(strict)) - 1, held)
    sizes = [(i, f) for i, f in enumerate(counts[:0:-1], 1) if f]  # f counted faces of i ideals
    coeffs = {(k, ()): sum(f * math.comb(k - 1, i - 1) for i, f in sizes if i <= k)
              for k in range(1, N + 1)}
    return {k: c for k, c in {(0, ()): int(not strict), **coeffs}.items() if c}


def initial_quotient_hilbert(P: Poset, grading: str, N: int) -> TruncSeries:
    """Hilbert series of the quotient by the initial ideal, counted as
    trivially-intersecting multisets of connected ideals by total weight,
    each of them one weak vector (the t grading by `_t_by_faces`), by
    `_flag_walk` with each multiset's packed monomial."""
    out, codec, mono = _graded(P, grading, N)
    if not out.nx:
        out.coeffs = _t_by_faces(P, WEAK, N)
    else:  # a multiset's weight is its vector's x degree, within the truncation
        values = [mono[J] for J in connected_ideals(P) if J.bit_count() <= N]
        out.coeffs = codec.unpacked(_flag_walk(P, N, values))
    return out


# -- the main operations ------------------------------------------------


def hilbert_truncated(P: Poset, flavor: str, grading: str, N: int) -> TruncSeries:
    """Sum of t^nu(f) x^f over value vectors of the given flavor,
    truncated at total x degree N (or nu <= N for the pure t grading).

    A complete intersection on which no cover drops strictly in the flavor
    takes the product of Thm 4.2 (`_ci_product`).  Otherwise `_hilbert_walk`
    walks, one engine per grading, whatever the flavor.  The t grading counts
    vectors by nu alone, from the faces of the flag complex of Pi that
    separate the flavor's strict covers (`_t_by_faces`); enumerating by
    |f| is hopeless when only nu is bounded.  The q grading (and the x
    grading of a one-element poset, whose keys are the same) counts them
    by |f| alone, by Stanley's theorem (`_stanley_q`).  The x, (t,x) and
    (t,q) gradings walk chains of level ideals, nu summed per level."""
    _check_flavor(flavor)
    if not _strict_covers(P, flavor) and ci_test_counts(P):
        return _ci_product(P, grading, N)
    return _hilbert_walk(P, flavor, grading, N)


def _hilbert_walk(P: Poset, flavor: str, grading: str, N: int) -> TruncSeries:
    """`hilbert_truncated` by the walk of the grading, in any flavor."""
    out, codec, mono = _graded(P, grading, N)
    if not out.nx:
        out.coeffs = _t_by_faces(P, flavor, N)
    elif out.nx == 1 and not out.has_t:
        out.coeffs = _stanley_q(P, flavor, N)
    else:  # every listed f has |f| <= N, within the truncation
        out.coeffs = codec.unpacked(Counter(_level_chains(P, flavor, N, mono)))
    return out


def _stanley_q(P: Poset, flavor: str, N: int) -> dict:
    """Coefficients of q^0..q^N of the sum of q^|f| over the vectors of
    the flavor, as TruncSeries keys: W(q) / ((1 - q)(1 - q^2)...(1 - q^n))
    with W the maj polynomial of `flavor_labelling` (Stanley, Ordered
    structures and partitions, 1972), W truncated at N by
    `maj_coefficients` and divided one factor at a time (`_q_product`)."""
    c = _q_product(maj_coefficients(flavor_labelling(P, flavor), N), over=range(1, P.n + 1))
    return {(0, (d,)): v for d, v in enumerate(c) if v}


def rational_sum_truncated(P: Poset, grading: str, N: int) -> TruncSeries:
    """Sum over linear extensions w of
    t^{des_P(w)} prod_{i in Des(w)} x^{w[:i]} / prod_i (1 - t^{c} x^{w[:i]}),
    expanded as a truncated series.

    The factor of prefix i depends only on the prefix ideal I and on
    whether i is a descent, so the sum runs over the states (I, last) of
    the ideal lattice.  With m = t^c x^I, T the sum over the states of I
    and A_p over those with last < p, the edges into (I + p, p) carry
    [A_p + m (T - A_p)] / (1 - m) = A_p + m T / (1 - m), m of positive
    degree: one division per nonempty ideal expanded, plus the full
    ideal's.  With x variables, past |I| = N a factor is 1 and a descent
    drops the term, so the walk stops at depth N + 1 (a state counts if
    labels 1..last are in I); the t grading walks all n levels."""
    if not is_naturally_labelled(P):
        raise LabelError("rational sum needs a naturally labelled poset")
    out, codec, mono = _graded(P, grading, N)
    level = {0: {0: {0: 1}}}  # ideal -> {last: v}; every coefficient is positive
    for _ in range(min(P.n, N + 1) if out.nx else P.n):
        nxt = {}
        for ideal, states in level.items():
            lasts = sorted(states)
            sums = list(accumulate((states[last] for last in lasts), _plus, initial={}))
            shifted = _over_one_minus(sums[-1], mono[ideal], codec, shift=True) if ideal else {}
            for p in P.minimal_elements(P.full_mask & ~ideal):
                target = nxt.setdefault(ideal | 1 << (p - 1), {})
                target[p] = _plus(target.get(p, {}), _plus(sums[bisect_left(lasts, p)], shifted))
        level = nxt
    total = reduce(_plus, (v for ideal, states in level.items()
                           for last, v in states.items() if not ~ideal & ((1 << last) - 1)))
    out.coeffs = codec.unpacked(_over_one_minus(total, mono[P.full_mask], codec))
    return out


def numerator_polynomial(P: Poset, N: int = DEFAULT_TRUNC) -> TruncSeries:
    """g with Hilb(gr R_P, t, x) = g(t,x) / prod_{J in J_conn}(1 - t x^J),
    a polynomial fixed by Pi alone (Prop 6.2; see `_flag_numerator`).

    Raises InstabilityError iff g has a term of x degree above N: at once
    when N is below the lower bound of `_numerator_bounds`, else when g up
    to N + 1, or up to the upper bound if that is above N + 1, has one.
    """
    if N < 0:
        raise ArgError(f"negative truncation {N}")
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
    conn = connected_ideals(P)
    paired = [(J.bit_count(), c) for J, c in zip(conn, clashes(P)) if c]
    # conn is sorted by size, so a clash mask's top bit is its largest partner
    lo = max((s + conn[c.bit_length() - 1].bit_count() for s, c in paired), default=0)
    return lo, sum(s for s, _ in paired)


def _flag_numerator(P: Poset, D: int) -> TruncSeries:
    """g up to x degree D, by the pivot recursion for monomial ideals
    (Bayer-Stillman, JSC 1992; Bigatti, JPAA 1997).  For a set S of
    connected ideals, v in S and C the ideals of S whose pair with v is in Pi,
    g(S) = (1 - m_v) g(S - v) + m_v prod_{u in C} (1 - m_u) g(S - v - C)
    with m_J = t x^J; when C is empty this is g(S - v), so a cone point
    drops out."""
    conn = connected_ideals(P)  # vertex j is conn[j - 1], bit j - 1 of S
    clash = (0,) + clashes(P)
    out, codec, mono = _graded(P, "tx", D)
    m = [None] + [mono[J] for J in conn]  # m[j] = m_J
    memo = {0: {0: 1}}

    def g(S):
        S = mask_of(j for j in members(S) if clash[j] & S)  # drop the cone points
        if S not in memo:
            v = max(members(S), key=lambda j: (clash[j] & S).bit_count())
            s_v = S & ~(1 << (v - 1))
            rest, pivot = g(s_v), g(s_v & ~clash[v])
            for u in members(clash[v] & S):
                pivot = _plus_times(dict(pivot), pivot, m[u], codec)  # zeros go once, below
            gS = _plus_times(_times_one_minus(rest, m[v], codec), pivot, m[v], codec, sign=1)
            memo[S] = {k: c for k, c in gS.items() if c}
        return memo[S]

    try:
        out.coeffs = codec.unpacked(g((1 << len(conn)) - 1))
    except RecursionError:
        non_cone = sum(1 for c in clash if c)
        raise CapError(
            f"numerator recursion over {non_cone} non-cone connected"
            " ideals exceeds the interpreter's recursion limit"
        ) from None
    finally:
        del g  # its closure cycle would keep memo alive until a full collection
    return out


def hook_formula(P: Poset) -> QPolynomial:
    """[n]!_q * prod over pairs [|J1|+|J2|]_q / prod over ideals [|J|]_q,
    on a dense coefficient list (`extensions._hook_coefficients`); equals
    the maj generating polynomial."""
    if not is_naturally_labelled(P):
        raise LabelError("the q hook formula needs a natural labelling")
    _require_fwd(P)
    return QPolynomial(_hook_coefficients(P))


def hook_count(P: Poset) -> int:
    """n! * prod(|J1|+|J2|) / prod|J| as an exact integer (any labelling)."""
    _require_fwd(P)
    pairs, ideals = _hook_sizes(P)
    numer = math.factorial(P.n) * math.prod(pairs)
    denom = math.prod(ideals)
    if numer % denom:
        raise AssertionError("hook count is not an integer")
    return numer // denom


def _require_fwd(P: Poset) -> None:
    if not ci_test_counts(P):
        raise NotFWDError("poset is not a forest with duplications")


def duplication_product(P: Poset, classification, grading: str,
                        N: int = DEFAULT_TRUNC) -> TruncSeries:
    """prod over pairs (1 - t^2 x^{J1} x^{J2}) / prod over ideals (1 - t x^J),
    truncated (`_ci_product`).  classification must be a successful recipe."""
    if not isinstance(classification, BuildRecipe):
        raise NotFWDError("duplication product needs a classified poset")
    return _ci_product(P, grading, N)


def _ci_product(P: Poset, grading: str, N: int) -> TruncSeries:
    """prod over pairs (1 - t^2 x^{J1} x^{J2}) / prod over ideals (1 - t x^J),
    truncated: on a dense list in one variable (q, or t, where a connected
    ideal is t^1), else one pass times or over 1 - m per factor of degree
    at most N (x^J has degree |J| there, and a factor past N is 1)."""
    out, codec, mono = _graded(P, grading, N)
    pairs, conn = _pair_masks(P), connected_ideals(P)
    if out.nx + out.has_t == 1:
        size = (lambda J: 1) if out.has_t else int.bit_count
        c = _q_product([1] + [0] * N, [size(J1) + size(J2) for J1, J2 in pairs], map(size, conn))
        out.coeffs = {((d, ()) if out.has_t else (0, (d,))): v for d, v in enumerate(c) if v}
        return out
    c = {0: 1}
    for J1, J2 in pairs:
        if J1.bit_count() + J2.bit_count() <= N:
            c = _times_one_minus(c, mono[J1] + mono[J2], codec)
    for J in conn:
        if J.bit_count() <= N:
            c = _over_one_minus(c, mono[J], codec)
    out.coeffs = codec.unpacked(c)
    return out


def koszul_inverse(P: Poset, N: int = DEFAULT_TRUNC):
    """Invert Hilb(gr R_P, -t, x) up to degree N.

    Returns (series, nonnegative) where nonnegative reports whether every
    coefficient of the inverse is >= 0.  On a complete intersection the
    inverse is prod over ideals (1 + t x^J) / prod over pairs
    (1 - t^2 x^{J1} x^{J2}) (`_ci_koszul`); elsewhere `_koszul_walk`."""
    return (_ci_koszul if ci_test_counts(P) else _koszul_walk)(P, N)


def _ci_koszul(P: Poset, N: int):
    """`koszul_inverse` of a complete intersection, one pass per factor
    of degree at most N."""
    out, codec, mono = _graded(P, "tx", N)
    c = {0: 1}
    for J in connected_ideals(P):  # no coefficient is negative, so none cancels
        if J.bit_count() <= N:
            c = _plus_times(dict(c), c, mono[J], codec, sign=1)
    for J1, J2 in _pair_masks(P):
        if J1.bit_count() + J2.bit_count() <= N:
            c = _over_one_minus(c, mono[J1] + mono[J2], codec)
    out.coeffs = codec.unpacked(c)
    return out, out.is_nonnegative()


def _koszul_walk(P: Poset, N: int):
    """`koszul_inverse` from the weak (t,x) walk: its packed terms of odd t
    degree are negated in place, and only the inverse is unpacked."""
    out, codec, mono = _graded(P, "tx", N)
    h = Counter(_level_chains(P, WEAK, N, mono))
    h.subtract({m: 2 * c for m, c in h.items() if m >> codec.top & 1})  # t -> -t
    out.coeffs = codec.unpacked(_inverse(h, codec))
    return out, out.is_nonnegative()
