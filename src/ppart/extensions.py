"""Linear extensions of a poset and their descent statistics.

Whether w has a descent at position i (w[i-1] > w[i]) depends only on
the last element of the prefix w[:i] and the next one, and the descent
statistics of this package add at a descent a term that depends only on
i and the prefix ideal.  So they can be summed over the states (ideal,
last element) of the ideal lattice instead of over L(P) (Stanley,
Ordered structures and partitions, 1972): see `fold_extensions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

from .errors import ExplosionError
from .poset import Poset, hasse_components, mask_of
from .qpoly import QPolynomial

DEFAULT_CAP = 10_000_000


@dataclass(frozen=True)
class LinearExtension:
    """A compatible listing w with its descent data.

    des_set is Des(w); maj sums the descent positions; des_p sums, over
    descent positions i, the Hasse component count of the prefix w[:i].
    """

    w: tuple[int, ...]
    des_set: tuple[int, ...]
    maj: int
    des_p: int

    @property
    def n(self) -> int:
        return len(self.w)

    def prefix_mask(self, i: int) -> int:
        return mask_of(self.w[:i])


def _check_cap(P: Poset, cap: int) -> None:
    """Raise ExplosionError when P has more than cap linear extensions."""
    count = count_extensions(P)
    if count > cap:
        raise ExplosionError(f"|L(P)| = {count} exceeds cap {cap}")


def linear_extensions(P: Poset, cap: int = DEFAULT_CAP) -> list[LinearExtension]:
    """All linear extensions in lexicographic order of w, with statistics.

    Raises ExplosionError when more than cap extensions exist.
    """
    _check_cap(P, cap)
    out = []
    w: list[int] = []
    components: dict[int, int] = {}  # prefix ideal -> its c_P

    def extend(taken: int, last: int, des: tuple, maj: int, des_p: int):
        i = len(w)
        if i == P.n:
            out.append(LinearExtension(tuple(w), des, maj, des_p))
            return
        for p in P.minimal_elements(P.full_mask & ~taken):
            w.append(p)
            grown = taken | (1 << (p - 1))
            if last > p:
                c = components.get(taken)
                if c is None:
                    c = components[taken] = len(hasse_components(P, taken))
                extend(grown, p, des + (i,), maj + i, des_p + c)
            else:
                extend(grown, p, des, maj, des_p)
            w.pop()

    extend(0, 0, (), 0, 0)
    # extend refers to itself through its closure; break that cycle, or
    # out stays alive after its caller drops it, until a full collection.
    del extend
    return out


def fold_extensions(P: Poset, start, step, merge):
    """Fold a value along every linear extension of P at once.

    The states are pairs (I, last): an order ideal I listed by a prefix
    that ends in last (0 for the empty prefix).  Appending a minimal
    element p of the complement moves (I, last) to (I + p, p), with a
    descent at position |I| when last > p.  step(v, I, descent) is the
    value carried along such an edge; it is called at most once per
    state and kind of edge.  merge adds the values reaching one state
    and must not change its arguments.  Returns the merged value of the
    full ideal.  The walk keeps two levels of states, never L(P).
    """
    level = {0: {0: start}}
    for _ in range(P.n):
        nxt: dict[int, dict] = {}
        for ideal, states in level.items():
            moves = P.minimal_elements(P.full_mask & ~ideal)
            targets = [(p, nxt.setdefault(ideal | (1 << (p - 1)), {})) for p in moves]
            for last, v in states.items():
                carried = {}
                for p, target in targets:
                    descent = last > p
                    u = carried.get(descent)
                    if u is None:
                        u = carried[descent] = step(v, ideal, descent)
                    target[p] = merge(target[p], u) if p in target else u
        level = nxt
    return reduce(merge, level[P.full_mask].values())


def count_extensions(P: Poset) -> int:
    """Exact |L(P)| by dynamic programming over the ideal lattice
    (number of maximal chains from the empty ideal to the full one)."""
    counts = {0: 1}
    frontier = [0]
    while frontier:
        by_size: dict[int, int] = {}
        for ideal in frontier:
            c = counts[ideal]
            for p in P.minimal_elements(P.full_mask & ~ideal):
                grown = ideal | (1 << (p - 1))
                by_size[grown] = by_size.get(grown, 0) + c
        for ideal, c in by_size.items():
            counts[ideal] = counts.get(ideal, 0) + c
        frontier = list(by_size)
    return counts[P.full_mask]


def maj_polynomial(P: Poset, cap: int = DEFAULT_CAP) -> QPolynomial:
    """Sum over L(P) of q^maj(w), by `fold_extensions`: a descent at
    position |I| shifts the state's coefficient list by |I|.

    Raises ExplosionError when more than cap extensions exist."""
    _check_cap(P, cap)
    size = P.n * (P.n - 1) // 2 + 1  # maj <= n(n-1)/2

    def step(coeffs, ideal, descent):
        if not descent:
            return coeffs
        k = ideal.bit_count()
        return [0] * k + coeffs[: size - k]

    def merge(a, b):
        return list(map(add, a, b))

    return QPolynomial(tuple(fold_extensions(P, [1] + [0] * (size - 1), step, merge)))
