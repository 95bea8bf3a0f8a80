"""Value vectors on a poset: flavors, unique decompositions, enumeration,
and the minimal-vector machinery behind principality of the partition ideal.

A value vector f assigns a nonnegative integer to each element; f is
"weak" when it weakly decreases going up the poset, "standard" when it
additionally drops strictly along covers a < b with a > b as integers,
and "strict" when it drops strictly along every cover.
"""

from __future__ import annotations

import struct
from functools import cache, reduce
from operator import add, or_
from typing import NamedTuple

from .errors import ArgError, FlavorError
from .poset import (
    Poset,
    _Memo,
    hasse_components,
    ideal_key,
    is_naturally_labelled,
    lex_min_extension,
    members,
    natural_relabel,
)

WEAK = "weak"
STANDARD = "standard"
STRICT = "strict"
FLAVORS = (WEAK, STANDARD, STRICT)
NONE = "none"


def _check_flavor(flavor: str) -> None:
    if flavor not in FLAVORS:
        raise FlavorError(f"unknown flavor {flavor!r}")


def _strict_covers(P: Poset, flavor: str) -> list[tuple[int, int]]:
    """The covers a < b along which the vectors of the flavor drop
    strictly: none for weak, those with a > b for standard, all for strict."""
    return [(a, b) for a, b in P.covers
            if flavor == STRICT or (flavor == STANDARD and a > b)]


def flavor_labelling(P: Poset, flavor: str) -> Poset:
    """P relabelled so that its standard vectors are P's vectors of the
    flavor, relabelled alike: along a natural labelling for weak (no
    cover drops strictly), P itself for standard, and along the reverse
    of a natural labelling for strict (every cover drops strictly)."""
    _check_flavor(flavor)
    if flavor == STANDARD or (flavor == WEAK and is_naturally_labelled(P)):
        return P
    Q, perm = natural_relabel(P)
    if flavor == WEAK:
        return Q
    return Poset(P.n, [(P.n + 1 - perm[a - 1], P.n + 1 - perm[b - 1]) for a, b in P.covers])


def satisfies(P: Poset, f, flavor: str) -> bool:
    _check_flavor(flavor)
    return classify_map(P, f) in FLAVORS[FLAVORS.index(flavor):]


def classify_map(P: Poset, f) -> str:
    """Most restrictive class among strict/standard/weak that f satisfies."""
    cls = STRICT  # in one pass: f(a) = f(b) on a cover a < b rules out strict, standard if a > b
    for a, b in P.covers:
        if f[a - 1] < f[b - 1]:
            return NONE
        if f[a - 1] == f[b - 1]:
            cls = WEAK if a > b or cls == WEAK else STANDARD
    return cls


def is_standard(P: Poset, f) -> bool:
    return satisfies(P, f, STANDARD)


def nested_decomposition(P: Poset, f) -> list[int]:
    """The chain of level ideals I_k = {p : f(p) >= k}, k = 1..max(f)."""
    if not satisfies(P, f, WEAK):
        raise FlavorError(f"{f} is not weakly order-reversing on {P!r}")
    top = max(f, default=0)
    chain = []
    for k in range(1, top + 1):
        mask = 0
        for p in range(1, P.n + 1):
            if f[p - 1] >= k:
                mask |= 1 << (p - 1)
        chain.append(mask)
    return chain


class ConnDecomposition(NamedTuple):
    """Multiset of pairwise trivially-intersecting connected ideals summing
    to a value vector; nu is the total multiplicity."""

    parts: tuple[tuple[int, int], ...]  # (ideal mask, multiplicity)
    nu: int

    def as_vector(self, n: int) -> tuple[int, ...]:
        return _multiset_vector(n, self.parts)


def _multiset_vector(n: int, parts) -> tuple[int, ...]:
    """The value vector sum of mult * indicator(mask) over the
    (ideal mask, multiplicity) pairs of a multiset."""
    f = [0] * n
    for mask, mult in parts:
        for p in members(mask):
            f[p - 1] += mult
    return tuple(f)


@cache  # one codec per shape, shared by every call
class _Monomials:
    """t^a x1^f1 ... x_nx^f_nx packed into one int, fields of 1, 2, 4 or 8
    bytes holding 2 * trunc (the layout is in `ppart.series`)."""

    def __init__(self, nx: int, trunc: int):
        size = next((s for s in (1, 2, 4, 8) if 2 * trunc < 1 << 8 * s), None)
        if size is None:
            raise ArgError(f"truncation {trunc} too large")
        self.trunc, self.fields = trunc, struct.Struct(f">{nx}{'BHIQ'[size.bit_length() - 1]}")
        self.shift = nx * 8 * size  # of the degree field
        self.mask = (1 << 8 * size) - 1 if nx else -1  # the degree is a when nx = 0
        self.top = self.shift + 8 * size if nx else 0
        self.units = tuple(self.pack(0, (0,) * i + (1,) + (0,) * (nx - 1 - i)) for i in range(nx))

    def pack(self, t: int, xs) -> int:
        return t << self.top | sum(xs) << self.shift | int.from_bytes(self.fields.pack(*xs), "big")

    def unpack(self, key: int) -> tuple[int, tuple[int, ...]]:
        low = (key & (1 << self.shift) - 1).to_bytes(self.fields.size, "big")
        return key >> self.top, self.fields.unpack(low)

    def unpacked(self, c: dict) -> dict:  # as TruncSeries coefficients, no zero kept
        return {self.unpack(k): v for k, v in c.items() if v}


def connected_decomposition(P: Poset, f) -> ConnDecomposition:
    """Split each level ideal into Hasse components; the resulting multiset
    is the unique trivially-intersecting expression for f."""
    counts: dict[int, int] = {}
    for level in nested_decomposition(P, f):
        for comp in hasse_components(P, level):
            counts[comp] = counts.get(comp, 0) + 1
    parts = tuple(sorted(counts.items(), key=lambda kv: ideal_key(kv[0])))
    return ConnDecomposition(parts, sum(counts.values()))


def nu(P: Poset, f) -> int:
    """The size of f's connected decomposition, without building it."""
    return sum(len(hasse_components(P, level)) for level in nested_decomposition(P, f))


def fundamental_permutation(P: Poset, f):
    """The unique compatible listing w with f weakly decreasing along w and
    strict drops at label descents, plus the telescoping expression.

    Returns (w, terms) where terms is a list of (coefficient, prefix mask)
    with sum(coeff * indicator(prefix)) == f.
    """
    if not is_standard(P, f):
        raise FlavorError(f"{f} is not a standard value vector on {P!r}")
    order = sorted(range(1, P.n + 1), key=lambda p: (-f[p - 1], p))
    taken = 0
    for p in order:
        if P.down_strict(p) & ~taken & P.full_mask:
            raise AssertionError("tie-break sort left the extension set")
        taken |= 1 << (p - 1)
    for i in range(P.n - 1):
        a, b = order[i], order[i + 1]
        if a > b and not f[a - 1] > f[b - 1]:
            raise AssertionError("descent without a strict drop")
    terms = []
    prefix = 0
    for i, p in enumerate(order):
        prefix |= 1 << (p - 1)
        nxt = f[order[i + 1] - 1] if i + 1 < P.n else 0
        terms.append((f[p - 1] - nxt, prefix))
    return order, terms


def _levels(P: Poset, flavor: str, N: int) -> list[dict[int, int]]:
    """levels[k] maps each ideal A of size k <= N to need(A); a last level
    {P: need(P)} follows when P has more than N elements.  The sizes past
    N are never built, so these are not the levels of `poset._chain_levels`.

    A vector f is its chain P = A_0 >= A_1 >= ... of level ideals A_v =
    {f >= v} (Stanley, Ordered structures and partitions, 1972).  A step
    A > B is admissible for the flavor when A - B holds both ends of no
    cover a < b along which it drops strictly: when B holds need(A), the
    a of every such cover with b in A.  So |f| >= |A_1| >= |need(P)|, and
    when need(P) has more than N elements levels 1..N are left empty."""
    _check_flavor(flavor)
    below = [0] * (P.n + 1)  # below[b]: the a of the strict covers a < b
    for a, b in _strict_covers(P, flavor):
        below[b] |= 1 << (a - 1)
    need_P = reduce(or_, below)
    if need_P.bit_count() > N:  # no vector of the flavor has |f| <= N
        return [{0: 0}] + [{} for _ in range(N)] + [{P.full_mask: need_P}]
    levels = [{0: 0}]
    for _ in range(min(N, P.n)):
        levels.append({I | 1 << (p - 1): need | below[p] for I, need in levels[-1].items()
                       for p in P.minimal_elements(P.full_mask & ~I)})
    return levels + ([{P.full_mask: need_P}] if P.n > N else [])


def _level_chains(P: Poset, flavor: str, N: int, mono):
    """The monomial of each vector f of the flavor with |f| <= N, depth
    first from a stack of open chains of admissible steps (`_levels`): the
    sum of mono[A] over the levels A_1, A_2, ... of f, in a `_Monomials`
    codec; a chain ends when the step to 0 is admissible."""
    levels = _levels(P, flavor, N)
    stack = [(P.full_mask, levels[-1][P.full_mask], 0, N)] if N >= 0 else []
    while stack:  # (last level A, need(A), the monomial so far, budget) per open chain
        A, need, f, budget = stack.pop()
        if not need:
            yield f
        for size, level in enumerate(levels[1:budget + 1], 1):
            for B, B_need in level.items():
                if not B & ~A and not need & ~B:
                    stack.append((B, B_need, f + mono[B], budget - size))


def enumerate_partitions(P: Poset, flavor: str, max_total: int):
    """All vectors of the given flavor with entry-sum <= max_total, in
    lexicographic order: the chains of level ideals of `_level_chains`."""
    fields = _Monomials(P.n, max_total)
    mono = _Memo(lambda B: sum(fields.units[p - 1] for p in members(B)))
    return sorted(fields.unpack(f)[1] for f in _level_chains(P, flavor, max_total, mono))


def count_by_size(P: Poset, flavor: str, N: int) -> list[int]:
    """c[d] for d = 0..N: the number of vectors of the flavor with |f| = d,
    counted by their chains of level ideals (`_levels`), not listed.

    |f| = |A_1| + |A_2| + ...  With F(0) = 1 and, over the ideals B < A
    with A > B admissible, F(A) = sum q^|B| F(B) / (1 - q^|A|), the answer
    is F(P).  Each pair of the ideals of size at most N, and P, is met
    once: the cost grows with the square of their number, not with the
    number of vectors.  Nothing here reads maj or a linear extension."""
    F = {0: [1] + [0] * N}
    for A, need in (item for level in _levels(P, flavor, N)[1:] for item in level.items()):
        c = [0] * (N + 1)
        for B, g in F.items():  # every ideal below A comes before it
            if not B & ~A and not need & ~B:
                s = B.bit_count()
                c[s:] = map(add, c[s:], g)  # c += q^|B| F(B)
        a = A.bit_count()
        for d in range(a, N + 1):  # c /= 1 - q^|A|
            c[d] += c[d - a]
        F[A] = c
    return F[P.full_mask]


# -- minimal standard vector and chain conditions -----------------------


class DeltaData(NamedTuple):
    """Per-element count of strict covers along the longest chain above,
    with the agreement flag and the total when all chains agree."""

    delta: tuple[int, ...]
    satisfies_labelled_condition: bool
    maj_p: int | None


def delta_data(P: Poset) -> DeltaData:
    delta = [0] * (P.n + 1)
    agree = True
    for p in reversed(lex_min_extension(P)):
        vals = [delta[b] + (1 if p > b else 0) for b in P.upper_covers[p]]
        if vals:
            delta[p] = max(vals)
            if min(vals) != max(vals):
                agree = False
    dvec = tuple(delta[1:])
    return DeltaData(dvec, agree, sum(dvec) if agree else None)


def delta_counterexample(P: Poset):
    """When the chain condition fails, a standard vector f with f - delta
    not weak (mirrors the failing-cover construction); None otherwise."""
    data = delta_data(P)
    if data.satisfies_labelled_condition:
        return None
    delta = (0,) + data.delta
    for i, j in sorted(P.covers):
        if delta[i] > delta[j] + (1 if i > j else 0):
            above_i = P.up_strict(i) | (1 << (i - 1))
            f = []
            for k in range(1, P.n + 1):
                in_above = bool(above_i & (1 << (k - 1)))
                f.append(delta[k] if in_above and k != j else delta[k] + 1)
            return tuple(f)
    raise AssertionError("condition failed but no witness cover found")


def stanley_delta_chain(P: Poset) -> bool:
    """True iff for every element all maximal chains above it have equal
    length: delta's chain condition on the strict labelling, where every
    cover falls in label, so delta is the height above each element."""
    return delta_data(flavor_labelling(P, STRICT)).satisfies_labelled_condition
