"""Value vectors on a poset: flavors, unique decompositions, enumeration,
and the minimal-vector machinery behind principality of the partition ideal.

A value vector f assigns a nonnegative integer to each element; f is
"weak" when it weakly decreases going up the poset, "standard" when it
additionally drops strictly along covers a < b with a > b as integers,
and "strict" when it drops strictly along every cover.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FlavorError
from .poset import (
    Poset,
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


def _cover_ok(flavor: str, a: int, b: int, fa: int, fb: int) -> bool:
    # Checking covers suffices: any chain witnessing i <_P j with i > j
    # as integers must contain at least one label-decreasing cover.
    if flavor == WEAK:
        return fa >= fb
    if flavor == STANDARD:
        return fa > fb if a > b else fa >= fb
    return fa > fb


def _check_flavor(flavor: str) -> None:
    if flavor not in FLAVORS:
        raise FlavorError(f"unknown flavor {flavor!r}")


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
    return all(_cover_ok(flavor, a, b, f[a - 1], f[b - 1]) for a, b in P.covers)


def classify_map(P: Poset, f) -> str:
    """Most restrictive class among strict/standard/weak that f satisfies."""
    if not satisfies(P, f, WEAK):
        return NONE
    if satisfies(P, f, STRICT):
        return STRICT
    if satisfies(P, f, STANDARD):
        return STANDARD
    return WEAK


def is_standard(P: Poset, f) -> bool:
    return classify_map(P, f) in (STRICT, STANDARD)


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


@dataclass(frozen=True)
class ConnDecomposition:
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
    return connected_decomposition(P, f).nu


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


def enumerate_partitions(P: Poset, flavor: str, max_total: int):
    """All vectors of the given flavor with entry-sum <= max_total,
    in lexicographic order.  Exact and exhaustive."""
    _check_flavor(flavor)
    # Assign values top-down along a reversed linear extension so each
    # element sees the constraints from its upper covers.
    order = list(reversed(lex_min_extension(P)))
    f = [0] * P.n
    out = []

    def assign(idx: int, total: int):
        if idx == len(order):
            out.append(tuple(f))
            return
        p = order[idx]
        lo = 0
        for b in P.upper_covers[p]:
            need = f[b - 1]
            if flavor == STRICT or (flavor == STANDARD and p > b):
                need += 1
            lo = max(lo, need)
        for v in range(lo, max_total - total + 1):
            f[p - 1] = v
            assign(idx + 1, total + v)
        f[p - 1] = 0

    assign(0, 0)
    del assign  # its closure cycle would keep out alive until a full collection
    out.sort()
    return out


# -- minimal standard vector and chain conditions -----------------------


@dataclass(frozen=True)
class DeltaData:
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
    length."""
    height = [0] * (P.n + 1)
    for p in reversed(lex_min_extension(P)):
        vals = [height[b] + 1 for b in P.upper_covers[p]]
        if vals:
            if min(vals) != max(vals):
                return False
            height[p] = vals[0]
    return True
