"""Linear extensions of a poset and their descent statistics.

Whether w has a descent at position i (w[i-1] > w[i]) depends only on
the last element of the prefix w[:i] and the next one, and the descent
statistics of this package add at a descent a term that depends only on
i and the prefix ideal.  So they can be summed over the states (ideal,
last element) of the ideal lattice instead of over L(P) (Stanley,
Ordered structures and partitions, 1972): see `fold_extensions`.

What must list L(P), `linear_extensions` here and the descent vectors
of `presentation.semigroup_ideal`, joins two halves at a middle level k
(`_halves`): the prefixes that list an ideal I of k elements and the
suffixes that list its rest.  A descent at position k needs only the
prefix's last element and the suffix's first, so each extension is one
prefix plus one suffix, and neither half is rebuilt per extension.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from functools import reduce
from operator import add
from typing import NamedTuple

from .errors import ExplosionError
from .partitions import delta_data
from .poset import (Poset, _chain_levels, _collector_paused, _Memo, hasse_components, mask_of,
                    members)
from .qpoly import QPolynomial

DEFAULT_CAP = 10_000_000


class LinearExtension(NamedTuple):
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


def _check_cap(count: int, cap: int, relation: str = "=") -> None:
    """Raise ExplosionError, naming |L(P)| relation count, if count > cap."""
    if count > cap:
        raise ExplosionError(f"|L(P)| {relation} {count} exceeds cap {cap}")


def _capped_levels(P: Poset, cap: int):
    """The levels of `_chain_levels`, each checked against the cap.

    The chains up to an ideal of level k are the prefixes of k elements
    of the linear extensions, and each begins at least one extension, so
    once the prefixes of one level outnumber cap, so does L(P):
    ExplosionError is raised there, before the next level is built, with
    that count as a lower bound (exact from level n - 1 on).  Level 0,
    the empty prefix alone, is not checked.  A forest or its dual is
    checked once instead, by its hooks, before the first level."""
    hooks = _hook_count(P)
    if hooks is not None:
        _check_cap(hooks, cap)
    for k, level in enumerate(_chain_levels(P)):
        if k and hooks is None:
            _check_cap(sum(level.values()), cap, "=" if k >= P.n - 1 else ">=")
        yield level


# A linear extension's descent statistics summed into one int by
# `_halves`: a descent at position i sets bit i - 1 of Des(w) and adds i
# to maj and c_P of the prefix ideal to des_P.  Positions stay below
# MAX_ELEMENTS = 64, and maj and des_P sum fewer than 64 numbers below
# 64, so no field carries into the next.
_MAJ, _DES_P = 64, 80
_DES_SET = (1 << _MAJ) - 1
_FIELD = (1 << (_DES_P - _MAJ)) - 1


@_collector_paused
def linear_extensions(P: Poset, cap: int = DEFAULT_CAP) -> list[LinearExtension]:
    """All linear extensions in lexicographic order of w, with statistics.

    Each is a prefix of `_halves` joined to a suffix of the ideal that
    the prefix lists, with a descent at the junction when the prefix's
    last element exceeds the suffix's first.  The prefixes are taken in
    lexicographic order and the suffixes of each in lexicographic order,
    so the records come out in order with no sort.  Equal descent sets
    share one tuple.
    Raises ExplosionError when more than cap extensions exist.
    """

    def weight(ideal):
        i = ideal.bit_count()
        return 1 << (i - 1) | i << _MAJ | len(hasse_components(P, ideal)) << _DES_P

    prefixes, suffixes, weighed = _halves(P, weight, cap)
    for tails in suffixes.values():  # each suffix's sum split into its fields
        tails[:] = [(first, u, s & _DES_SET, s >> _MAJ & _FIELD, s >> _DES_P)
                    for first, u, s in tails]
    new = tuple.__new__  # skips the NamedTuple constructor's argument handling
    des_sets = _Memo(lambda mask: tuple(members(mask)))  # Des(w) as a bitmask -> its positions
    out = []
    for w, ideal, last, s in prefixes:
        tails = suffixes[ideal]
        cut = bisect_left(tails, (last,))  # the suffixes that begin below last
        parts = ((tails[:cut], s + weighed[ideal]), (tails[cut:], s)) if cut else ((tails, s),)
        for part, t in parts:
            d, maj, des_p = t & _DES_SET, t >> _MAJ & _FIELD, t >> _DES_P
            out += [new(LinearExtension, (w + u, des_sets[d | td], maj + tm, des_p + tc))
                    for _, u, td, tm, tc in part]
    return out


def _halves(P: Poset, weight, cap: int):
    """Every linear extension of P cut at a middle level k into a prefix,
    which lists an ideal I of k elements, and a suffix, which lists the
    rest.  weight(J) is the int that a descent adds when J is the ideal
    listed before it; each half carries the sum over its descents.

    Returns (prefixes, suffixes, weighed).  prefixes is a list of
    (w, I, last, sum) in lexicographic order of w, last being w's last
    element (0 when w is empty).  suffixes maps each I to its suffixes u
    as (first, u, sum) in lexicographic order of u, first being u's first
    element (n + 1 when u is empty).  weighed is weight, memoized.  So
    w + u is a linear extension, and its sum is the two halves' sums plus
    weighed[I] when last > first.  The suffixes of I that begin below
    last are the first bisect_left(suffixes[I], (last,)).

    The prefixes grow from the empty one, each by its next elements p in
    ascending order.  The suffixes of an ideal are built from those of the
    ideals one element larger: p followed by each suffix of the ideal plus
    p, for its next elements p in ascending order, so every suffix is
    built once and shared by the ideals below it.  k is the (highest)
    level whose prefixes and suffixes are fewest: an ideal J has as many
    prefixes as there are chains from the empty ideal to J, counted by
    `_capped_levels` under the cap before either half is built, and as
    many suffixes as there are chains from J to P, counted down from P
    while the moves of each ideal are listed.
    """
    levels = list(_capped_levels(P, cap))  # the ideals of each size -> their number of prefixes
    full = P.full_mask
    moves = {}  # ideal -> [(p, ideal + p)] for p minimal in the rest
    rests = {full: 1}  # ideal -> its number of suffixes
    sizes = [levels[-1][full] + 1]  # the prefixes and suffixes of each level, from the top
    for level in reversed(levels[:-1]):
        listed = 0
        for ideal, count in level.items():
            moves[ideal] = steps = [(p, ideal | 1 << (p - 1))
                                    for p in P.minimal_elements(full & ~ideal)]
            rest = 0
            for _, grown in steps:
                rest += rests[grown]
            rests[ideal] = rest
            listed += count + rest
        sizes.append(listed)
    k = P.n - sizes.index(min(sizes))

    weighed = _Memo(weight)
    prefixes = [((), 0, 0, 0)]
    for _ in range(k):
        prefixes = [(w + (p,), grown, p, s + weighed[ideal] if last > p else s)
                    for w, ideal, last, s in prefixes for p, grown in moves[ideal]]
    suffixes = {full: [(P.n + 1, (), 0)]}
    for level in reversed(levels[k:-1]):
        above, suffixes = suffixes, {}
        for ideal in level:
            suffixes[ideal] = led = []
            for p, grown in moves[ideal]:
                tails = above[grown]
                cut = bisect_left(tails, (p,))  # the suffixes that begin below p
                if cut:
                    s = weighed[grown]
                    led += [(p, (p,) + u, t + s) for _, u, t in tails[:cut]]
                led += [(p, (p,) + u, t) for _, u, t in tails[cut:]]
    return prefixes, suffixes, weighed


def fold_extensions(P: Poset, start, step, merge, depth: int):
    """Fold a value along every linear extension of P at once, over the
    states (I, last) of the ideal lattice, and return the merged value of
    the states with |I| = depth and labels 1..last in I (None if none).

    A state is an order ideal I listed by a prefix that ends in last (0
    for the empty prefix).  Appending a minimal element p of the
    complement moves (I, last) to (I + p, p), with a descent at position
    |I| when last > p.  step(v, I, descent) is the value carried along
    such an edge, or None to drop it; it is called at most once per state
    and kind of edge.  merge adds the values reaching one state and must
    not change its arguments.  Only the ideals of fewer than depth
    elements that a kept state reaches are expanded, so the walk is not
    `poset._chain_levels`, and it keeps two levels of states, never L(P).

    A counted state's rest R in increasing label order begins above last.
    At depth n, R is empty.  Below n, the step must drop a value at a
    descent past depth and keep it elsewhere, and R so listed must be a
    linear extension, the state's one completion (as on a naturally
    labelled P)."""
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
    counted = [v for ideal, states in level.items()
               for last, v in states.items() if not ~ideal & ((1 << last) - 1)]
    return reduce(merge, counted) if counted else None


def count_extensions(P: Poset) -> int:
    """Exact |L(P)|.

    When every element has at most one upper cover, P is a forest and
    |L(P)| = n!/prod |down x| (Knuth's hook length formula for forests);
    when every element has at most one lower cover, dually n!/prod |up x|.
    Any other poset is counted as the maximal chains of its ideal lattice,
    the last level of `_chain_levels`."""
    count = _hook_count(P)
    return deque(_chain_levels(P), maxlen=1).pop()[P.full_mask] if count is None else count


def _hook_count(P: Poset) -> int | None:
    """|L(P)| by the hook length formula when P or its dual is a forest,
    else None."""
    if len({a for a, _ in P.covers}) == len(P.covers):
        strict = P.down_strict
    elif len({b for _, b in P.covers}) == len(P.covers):
        strict = P.up_strict
    else:
        return None
    hooks = math.prod(strict(x).bit_count() + 1 for x in range(1, P.n + 1))
    return math.factorial(P.n) // hooks


def maj_polynomial(P: Poset, cap: int = DEFAULT_CAP) -> QPolynomial:
    """Sum over L(P) of q^maj(w), by `maj_coefficients` up to the largest
    maj, n(n-1)/2.

    Raises ExplosionError when more than cap extensions exist: at once by
    the hook count on a forest or its dual, else at the first level of
    `_capped_levels` whose prefixes outnumber cap."""
    hooks = _hook_count(P)
    if hooks is None:
        deque(_capped_levels(P, cap), maxlen=0)  # walked for its checks only
    else:
        _check_cap(hooks, cap)
    return QPolynomial(tuple(maj_coefficients(P, P.n * (P.n - 1) // 2)))


def maj_coefficients(P: Poset, N: int) -> list[int]:
    """The coefficients of q^0..q^N of the sum over L(P) of q^maj(w).

    By `fold_extensions`: a descent at position |I| shifts the state's
    coefficient list by |I|, and a state is dropped once none of its
    coefficients can end at or below N.  After a prefix I of k elements,
    a listing u of the rest R adds k des(u) + maj(u) to maj.  By Stanley's
    theorem the least maj(u) is the least |f| over R's standard vectors,
    the sum of delta over R (see `delta_data`), and des(u) >= delta(a) for
    every a in R: each label-decreasing cover on a chain up from a puts a
    descent between its two ends.

    A descent past position N adds more than N, so `fold_extensions`
    stops at |I| = N + 1.  A state kept there has delta 0 on its rest R
    (else it was dropped at |I| = N), so no cover in R falls in label and
    R in increasing label order is a linear extension.  No cap applies:
    no extension is listed, and no ideal of over N + 1 elements visited."""
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

    return fold_extensions(P, [1] + [0] * N, step, merge, min(P.n, size)) or [0] * size
