"""Finite posets on {1..n} with order-ideal machinery.

Elements are labelled 1..n and subsets are stored as n-bit masks
(element p occupies bit p-1), so all ideal arithmetic is word-sized.
"""

from __future__ import annotations

import functools
import gc
import itertools
from typing import NamedTuple

from .errors import CycleError, PosetSyntaxError, RangeError

MAX_ELEMENTS = 64


def mask_of(elements) -> int:
    """Bitmask of an iterable of labels."""
    m = 0
    for p in elements:
        m |= 1 << (p - 1)
    return m


def members(mask: int) -> list[int]:
    """Sorted labels present in a bitmask, lowest set bit first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


def _collector_paused(fn):
    """fn with the cyclic garbage collector off for the length of each call.

    For the kernels that build a large acyclic result of containers the
    collector tracks (NamedTuple records, which CPython never untracks):
    every collection the build triggers would traverse what was built so
    far once more, while reference counting alone frees every temporary.
    The paused results are freed before they grow old, so CPython would
    seldom start a full collection, which frees the cyclic garbage of
    everything else; one that is due by count runs before the pause.
    The collector is turned back on only if it was on at entry, so
    callers that turned it off, and nested paused calls, keep it off."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        if gc.get_count()[2] > gc.get_threshold()[2]:
            gc.collect()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


class _Memo(dict):
    """fn of one hashable key, read as memo[key]: each value, falsy ones
    included, is computed once on its first miss and kept, so a hit is a
    dict lookup.  For the per-call memos of one poset's ideals and masks;
    it forms no cycle unless fn refers to the memo."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def ideal_key(mask: int) -> tuple[int, int]:
    """Canonical sort key for ideal sets: cardinality, then mask value."""
    return (mask.bit_count(), mask)


class Poset:
    """A partial order on {1..n}, stored via covers plus reachability masks.

    J_conn, its clash masks, the classification and the CI count test are
    computed on first use and kept on the instance (see connected_ideals,
    clashes and structure).  None of them walks the ideal lattice J(P).
    """

    def __init__(self, n: int, relations=()):
        if not 1 <= n <= MAX_ELEMENTS:
            raise RangeError(f"element count {n} outside 1..{MAX_ELEMENTS}")
        self.n = n
        strict = [0] * (n + 1)  # strict[a] = mask of {b : a < b}
        for a, b in relations:
            if not (1 <= a <= n and 1 <= b <= n):
                raise RangeError(f"label out of range in relation {a} {b}")
            if a == b:
                raise CycleError(f"relation {a} < {a} is a loop")
            strict[a] |= 1 << (b - 1)
        # Warshall closure on the up-sets.
        for k in range(1, n + 1):
            kbit = 1 << (k - 1)
            for a in range(1, n + 1):
                if strict[a] & kbit:
                    strict[a] |= strict[k]
        for a in range(1, n + 1):
            if strict[a] & (1 << (a - 1)):
                raise CycleError("relation digraph has a directed cycle")
        self._up_strict = strict
        self._down_strict = [0] * (n + 1)
        for a in range(1, n + 1):
            for b in members(strict[a]):
                self._down_strict[b] |= 1 << (a - 1)
        # upper_covers[a] = sorted elements covering a (index 0 unused).
        self.upper_covers = tuple(
            tuple(b for b in members(strict[a]) if not strict[a] & self._down_strict[b])
            for a in range(n + 1)
        )
        self.covers = frozenset(
            (a, b) for a in range(1, n + 1) for b in self.upper_covers[a]
        )
        # Undirected Hasse adjacency, for component computations.
        self._adj = [0] * (n + 1)
        for a, b in self.covers:
            self._adj[a] |= 1 << (b - 1)
            self._adj[b] |= 1 << (a - 1)
        self.full_mask = (1 << n) - 1
        self._jconn = None
        self._clashes = None
        self._classification = None
        self._ci_counts = None

    # -- comparabilities ------------------------------------------------

    def lt(self, a: int, b: int) -> bool:
        return bool(self._up_strict[a] & (1 << (b - 1)))

    def comparable(self, a: int, b: int) -> bool:
        return a == b or self.lt(a, b) or self.lt(b, a)

    def up_strict(self, a: int) -> int:
        """Mask of {b : a <_P b}."""
        return self._up_strict[a]

    def down_strict(self, a: int) -> int:
        """Mask of {b : b <_P a}."""
        return self._down_strict[a]

    def minimal_elements(self, mask: int) -> list[int]:
        """Minimal elements of the set, in ascending order."""
        out = []
        down = self._down_strict
        m = mask
        while m:
            low = m & -m
            p = low.bit_length()
            if not down[p] & mask:
                out.append(p)
            m ^= low
        return out

    def maximal_elements(self, mask: int) -> list[int]:
        return [p for p in members(mask) if not (self._up_strict[p] & mask)]

    # -- dunder / misc --------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and self.n == other.n
            and self.covers == other.covers
        )

    def __hash__(self):
        return hash((self.n, self.covers))

    def __repr__(self):
        cov = sorted(self.covers)
        return f"Poset(n={self.n}, covers={cov})"


# -- parsing ------------------------------------------------------------


def _decimal(text: str) -> int:
    """text as an ASCII decimal integer, [0-9]+ with leading zeros allowed;
    ValueError otherwise (`int` alone takes a sign, `_` and other digits)."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(text)
    return int(text)


def parse_poset(text: str) -> Poset:
    """Parse the poset file format: 'n <int>' then '<a> <b>' relation
    lines, every integer in ASCII decimal.

    '#' starts a comment, blank lines are ignored, relations need not
    be covers (the transitive reduction is computed).
    """
    n = None
    relations = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise PosetSyntaxError(f"line {lineno}: expected 'n <int>', got {raw!r}")
            try:
                n = _decimal(parts[1])
            except ValueError:
                raise PosetSyntaxError(f"line {lineno}: bad element count {parts[1]!r}")
        else:
            if len(parts) != 2:
                raise PosetSyntaxError(f"line {lineno}: expected '<a> <b>', got {raw!r}")
            try:
                a, b = _decimal(parts[0]), _decimal(parts[1])
            except ValueError:
                raise PosetSyntaxError(f"line {lineno}: non-integer labels in {raw!r}")
            relations.append((a, b))
    if n is None:
        raise PosetSyntaxError("missing 'n <int>' header line")
    return Poset(n, relations)


# -- ideals and components ----------------------------------------------


def is_ideal(P: Poset, mask: int) -> bool:
    """True iff the set is downward closed in P."""
    for p in members(mask):
        if P.down_strict(p) & ~mask:
            return False
    return True


def hasse_components(P: Poset, mask: int) -> list[int]:
    """Connected components of the cover graph restricted to the set.

    Returned in increasing order of minimum element; the list length
    is the statistic c_P of the set.
    """
    comps = []
    adj = P._adj
    remaining = mask
    while remaining:
        seed = remaining & -remaining
        comp = seed
        frontier = seed
        while frontier:
            grown = comp
            while frontier:
                low = frontier & -frontier
                grown |= adj[low.bit_length()]
                frontier ^= low
            grown &= mask
            frontier = grown & ~comp
            comp = grown
        comps.append(comp)
        remaining &= ~comp
    return comps


def _chain_levels(P: Poset):
    """For k = 0..n, the ideals of k elements, in the order first reached,
    each mapped to its number of maximal chains up from the empty ideal
    (so the last level is {P: |L(P)|}).  Only the current level is kept."""
    level = {0: 1}
    full = P.full_mask
    yield level
    for _ in range(P.n):
        nxt = {}
        for ideal, count in level.items():
            for p in P.minimal_elements(full & ~ideal):
                grown = ideal | 1 << (p - 1)
                nxt[grown] = nxt.get(grown, 0) + count
        level = nxt
        yield level


def iter_ideals(P: Poset):
    """All order ideals of P (including the empty one), by size: the
    levels of `_chain_levels`, each in the order first reached."""
    for level in _chain_levels(P):
        yield from level


def count_ideals(P: Poset) -> int:
    """|J(P)|, the empty ideal included, without walking J(P).

    For x maximal in S, |J(S)| = |J(S - x)| + |J(S - down(x))|: the
    ideals without x, and those with all of down(x).  Every set met is
    convex, so its cover components are its comparability components and
    its count is the product of theirs.  Memoized by component mask."""
    memo = {}
    up, down = P._up_strict, P._down_strict

    def count(S):
        total = 1
        for comp in hasse_components(P, S):
            c = memo.get(comp)
            if c is None:
                x = next(p for p in members(comp) if not up[p] & comp)
                without = comp & ~(1 << (x - 1))
                c = memo[comp] = count(without) + count(without & ~down[x])
            total *= c
        return total

    total = count(P.full_mask)
    del count  # its closure cycle would keep memo alive until a full collection
    return total


def connected_ideals(P: Poset) -> list[int]:
    """All nonempty connected order ideals, sorted by (size, mask).

    A nonempty ideal is connected iff it is a union of principal ideals
    whose overlap graph is connected: a cover a < b inside the ideal lies
    in the principal ideal of any element above b, so two principal
    ideals with a connected union must meet.  J_conn is therefore grown
    from the n principal ideals by adding each principal ideal that
    meets the current one without lying inside it, at about |J_conn| * n
    mask operations; J(P) is never walked.  Computed once per Poset
    object; each call returns a new list.
    """
    if P._jconn is None:
        principal = [principal_ideal(P, p) for p in range(1, P.n + 1)]
        seen = set(principal)
        frontier = list(seen)
        while frontier:
            nxt = []
            for ideal in frontier:
                for D in principal:
                    if D & ideal and D & ~ideal:
                        grown = ideal | D
                        if grown not in seen:
                            seen.add(grown)
                            nxt.append(grown)
            frontier = nxt
        P._jconn = tuple(sorted(seen, key=ideal_key))
    return list(P._jconn)


def clashes(P: Poset) -> tuple[int, ...]:
    """Pi(P) as masks: bit j of entry i is set iff (J_i, J_j) is in Pi, for
    J_i = connected_ideals(P)[i].  The rows of `_clash_rows`, kept once
    per Poset object."""
    if P._clashes is None:
        P._clashes = tuple(_clash_rows(P))
    return P._clashes


def _pair_masks(P: Poset) -> list[tuple[int, int]]:
    """Pi(P) as (J1, J2) pairs in no set order, read off `clashes`."""
    conn = connected_ideals(P)
    return [(J, conn[i + j]) for i, (J, row) in enumerate(zip(conn, clashes(P)))
            for j in members(row >> i + 1)]


def _clash_rows(P: Poset):
    """The rows of `clashes`, one at a time.  With holds[p] the mask of the
    ideals containing p, J_i's partners meet it (OR of holds over J_i),
    leave it (OR over its complement) and do not contain it (AND over
    J_i): about |J_conn| * n big-int operations in all."""
    conn = connected_ideals(P)
    holds = [0] * (P.n + 1)
    for i, J in enumerate(conn):
        for p in members(J):
            holds[p] |= 1 << i
    for J in conn:
        meets, leaves, contains = 0, 0, -1
        for p in range(1, P.n + 1):
            if J >> (p - 1) & 1:
                meets |= holds[p]
                contains &= holds[p]
            else:
                leaves |= holds[p]
        yield meets & leaves & ~contains


def principal_ideal(P: Poset, p: int) -> int:
    if not 1 <= p <= P.n:
        raise RangeError(f"element {p} outside 1..{P.n}")
    return P.down_strict(p) | (1 << (p - 1))


class PiPair(NamedTuple):
    """A pair of connected order ideals intersecting nontrivially."""

    j1: int
    j2: int
    intersection_components: tuple[int, ...]

    @property
    def union(self) -> int:
        return self.j1 | self.j2

    @property
    def intersection(self) -> int:
        return self.j1 & self.j2


def trivially_intersecting(j1: int, j2: int) -> bool:
    """Disjoint or nested."""
    inter = j1 & j2
    return inter == 0 or inter == j1 or inter == j2


def nontrivial_pairs(P: Poset) -> list[PiPair]:
    """The set Pi(P): unordered pairs of connected ideals that are
    neither disjoint nor nested, each with its intersection's components,
    ordered by (ideal_key(j1), ideal_key(j2))."""
    return pairs_among(P, connected_ideals(P))


@_collector_paused
def pairs_among(P: Poset, conn) -> list[PiPair]:
    """The pairs of Pi(P) with both members in conn, a list of connected
    ideals sorted by ideal_key (so j1 precedes j2 in every pair).

    The components of each distinct intersection are computed once and
    shared by every pair with that intersection."""
    components = {}
    new = tuple.__new__  # skips the NamedTuple constructor's argument handling
    out = []
    for j1, j2 in itertools.combinations(conn, 2):
        inter = j1 & j2
        if inter and inter != j1 and inter != j2:
            comps = components.get(inter)
            if comps is None:
                comps = components[inter] = tuple(hasse_components(P, inter))
            out.append(new(PiPair, (j1, j2, comps)))
    return out


# -- labelling ----------------------------------------------------------


def is_naturally_labelled(P: Poset) -> bool:
    """True iff i <_P j implies i < j as integers."""
    return all(a < b for a, b in P.covers)


def lex_min_extension(P: Poset) -> list[int]:
    """Lexicographically least linear extension (greedy smallest minimal)."""
    w = []
    taken = 0
    for _ in range(P.n):
        p = min(q for q in P.minimal_elements(P.full_mask & ~taken))
        w.append(p)
        taken |= 1 << (p - 1)
    return w


def natural_relabel(P: Poset):
    """Relabel P along a linear extension so the result is naturally
    labelled.  Returns (Q, perm) with perm[old_label - 1] = new_label."""
    w = lex_min_extension(P)
    perm = [0] * P.n
    for newlabel, old in enumerate(w, start=1):
        perm[old - 1] = newlabel
    Q = Poset(P.n, [(perm[a - 1], perm[b - 1]) for a, b in P.covers])
    return Q, tuple(perm)


# -- induced subposet search --------------------------------------------


def induced_occurrences(P: Poset, Q: Poset) -> list[tuple[int, ...]]:
    """All injections i: Q -> P with i(q) <=_P i(q') iff q <=_Q q'.

    An occurrence is a tuple t with t[q-1] = image of q; the list is in
    lexicographic order of t.  Empty list means P is Q-free.
    """
    if Q.n > P.n:
        return []
    out = []
    image = [0] * Q.n

    def extend(q: int, used: int):
        if q > Q.n:
            out.append(tuple(image))
            return
        for p in range(1, P.n + 1):
            bit = 1 << (p - 1)
            if used & bit:
                continue
            ok = True
            for r in range(1, q):
                if Q.lt(r, q) != P.lt(image[r - 1], p) or Q.lt(q, r) != P.lt(
                    p, image[r - 1]
                ):
                    ok = False
                    break
            if ok:
                image[q - 1] = p
                extend(q + 1, used | bit)
        image[q - 1] = 0

    extend(1, 0)
    del extend  # its closure cycle would keep out alive until a full collection
    return out


# -- exhaustive poset enumeration (test-harness support) ----------------


def enumerate_posets(n: int):
    """Every labelled poset on {1..n} exactly once, for n <= 5."""
    if not 1 <= n <= 5:
        raise RangeError("enumerate_posets supports 1 <= n <= 5")
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for choice in itertools.product((0, 1, 2), repeat=len(pairs)):
        rels = [(a, b) if c == 1 else (b, a) for (a, b), c in zip(pairs, choice) if c]
        up = [0] * (n + 1)
        for a, b in rels:
            up[a] |= 1 << (b - 1)
        # transitive iff every b above a has nothing above it that a lacks
        if all(not up[b] & ~up[a] for a in range(1, n + 1) for b in members(up[a])):
            yield Poset(n, rels)
