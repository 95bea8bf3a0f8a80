"""Linear extensions of a poset and their descent statistics.

Whether w has a descent at position i (w[i-1] > w[i]) depends only on
the last element of the prefix w[:i] and the next one, and the descent
statistics of this package add at a descent a term that depends only on
i and the prefix ideal.  So they can be summed over the states (ideal,
last element) of the ideal lattice instead of over L(P) (Stanley,
Ordered structures and partitions, 1972): see `fold_levels`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

from .errors import ExplosionError
from .partitions import delta_data
from .poset import Poset, hasse_components, mask_of, members
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


def fold_levels(P: Poset, start, step, merge, depth: int) -> dict:
    """The states (I, last) with |I| = depth and the values folded into
    them along every prefix of a linear extension of P.

    A state is an order ideal I listed by a prefix that ends in last (0
    for the empty prefix).  Appending a minimal element p of the
    complement moves (I, last) to (I + p, p), with a descent at position
    |I| when last > p.  step(v, I, descent) is the value carried along
    such an edge, or None to drop it; it is called at most once per state
    and kind of edge.  merge adds the values reaching one state and must
    not change its arguments.  Only ideals of fewer than depth elements
    are expanded, and the walk keeps two levels of states, never L(P).
    Returns {I: {last: value}}.
    """
    level = {0: {0: start}}
    for _ in range(depth):
        nxt: dict[int, dict] = {}
        for ideal, states in level.items():
            if not states:  # every value reaching it was dropped
                continue
            moves = P.minimal_elements(P.full_mask & ~ideal)
            targets = [(p, nxt.setdefault(ideal | (1 << (p - 1)), {})) for p in moves]
            for last, v in states.items():
                carried = {}
                for p, target in targets:
                    descent = last > p
                    if descent in carried:
                        u = carried[descent]
                    else:
                        u = carried[descent] = step(v, ideal, descent)
                    if u is not None:
                        target[p] = merge(target[p], u) if p in target else u
        level = nxt
    return level


def fold_extensions(P: Poset, start, step, merge):
    """Fold a value along every linear extension of P at once: the merged
    value of the full ideal after `fold_levels` over all n levels."""
    return reduce(merge, fold_levels(P, start, step, merge, P.n)[P.full_mask].values())


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
    """Sum over L(P) of q^maj(w), by `maj_coefficients` up to the largest
    maj, n(n-1)/2.

    Raises ExplosionError when more than cap extensions exist."""
    _check_cap(P, cap)
    return QPolynomial(tuple(maj_coefficients(P, P.n * (P.n - 1) // 2)))


def maj_coefficients(P: Poset, N: int) -> list[int]:
    """The coefficients of q^0..q^N of the sum over L(P) of q^maj(w).

    By `fold_levels`: a descent at position |I| shifts the state's
    coefficient list by |I|, and a state is dropped once none of its
    coefficients can end at or below N.  After a prefix I of k elements,
    a listing u of the rest R adds k des(u) + maj(u) to maj.  By Stanley's
    theorem the least maj(u) is the least |f| over R's standard vectors,
    the sum of delta over R (see `delta_data`), and des(u) >= delta(a) for
    every a in R: each label-decreasing cover on a chain up from a puts a
    descent between its two ends.

    A descent past position N adds more than N, so the walk stops at
    |I| = N + 1.  A state kept there has delta 0 on its rest R (else it
    was dropped at |I| = N), so no cover in R falls in label and R in
    increasing label order is a linear extension: the state's one
    descent-free completion, which counts if it begins above last.  No
    cap applies, since no extension is listed and at most the ideals of
    up to N + 1 elements are visited."""
    size = N + 1
    prune = N < P.n * (P.n - 1) // 2  # else no state can be dropped
    delta = (0,) + delta_data(P).delta if prune else ()
    bounded = any(delta)  # else every rest may add nothing
    forced = {}  # ideal -> the least maj its rest adds

    def step(coeffs, ideal, descent):
        k = ideal.bit_count()
        if prune:
            least = k if descent else 0
            if bounded:
                tail = forced.get(ideal)
                if tail is None:
                    deltas = [delta[a] for a in members(P.full_mask & ~ideal)]
                    tail = forced[ideal] = k * max(deltas) + sum(deltas)
                least += tail
            if least and (least > N or not any(coeffs[: size - least])):
                return None
        return [0] * k + coeffs[: size - k] if descent else coeffs

    def merge(a, b):
        return list(map(add, a, b))

    total = [0] * size
    for ideal, states in fold_levels(P, [1] + [0] * N, step, merge, min(P.n, size)).items():
        rest = P.full_mask & ~ideal
        first = (rest & -rest).bit_length() or P.n + 1  # P.n + 1 when rest is empty
        for last, coeffs in states.items():
            if last < first:
                total = merge(total, coeffs)
    return total
