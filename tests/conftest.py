import random
from collections import Counter

import pytest

from ppart import (
    Poset,
    TruncSeries,
    clashes,
    connected_ideals,
    enumerate_posets,
    lex_min_extension,
    members,
)
from ppart.partitions import FLAVORS, _check_flavor, _strict_covers, classify_map


def random_poset(rng, n, p=0.3):
    """Random labelled poset: forward edges along a shuffled order."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    rels = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rels.append((perm[i], perm[j]))
    return Poset(n, rels)


def random_posets(seed, count, sizes, p=0.3):
    rng = random.Random(seed)
    return [random_poset(rng, rng.choice(sizes), p) for _ in range(count)]


def truncated(s, N):
    """The series s with its terms above degree N dropped: the x degree,
    or the t degree when there is no x variable."""
    out = TruncSeries(s.nx, N, s.has_t, xnames=s.xnames)
    out.coeffs = {(t, xs): c for (t, xs), c in s.coeffs.items() if (sum(xs) if xs else t) <= N}
    return out


def one_minus(like, m):
    """1 - m for the key m = (t, xs), shaped like the series like."""
    out = like.one_like()
    out.add_term(*m, -1)
    return out


def plus(a, b, sign=1):
    """a + sign * b, for two series of one shape."""
    assert (a.nx, a.has_t, a.trunc) == (b.nx, b.has_t, b.trunc), "series of different shapes"
    out = TruncSeries(a.nx, a.trunc, a.has_t, xnames=a.xnames)
    for s, k in ((a, 1), (b, sign)):
        for (t, xs), c in s.coeffs.items():
            out.add_term(t, xs, k * c)
    return out


@pytest.fixture(scope="session")
def posets3():
    return list(enumerate_posets(3))


@pytest.fixture(scope="session")
def posets4():
    return list(enumerate_posets(4))


@pytest.fixture(scope="session")
def posets5():
    return list(enumerate_posets(5))


def t_series_by_walk(P, N):
    """The t series of every flavor the plain way, as {flavor: coeffs}:
    each multiset of pairwise trivially-intersecting connected ideals of
    size nu <= N adds t^nu to the flavors its vector f has, sorted out by
    `classify_map` in one walk."""
    order, clash = connected_ideals(P), clashes(P)
    elements = [members(J) for J in order]
    by_class = Counter()  # (class of f, nu)
    f = [0] * P.n  # the vector of the multiset chosen so far

    def rec(idx, size, blocked):  # blocked: the clashes of the ideals chosen
        by_class[classify_map(P, f), size] += 1
        for i in range(idx, len(order)):
            if not blocked >> i & 1:
                for m in range(1, N - size + 1):  # ideal i with multiplicity m
                    for p in elements[i]:
                        f[p - 1] += 1
                    rec(i + 1, size + m, blocked | clash[i])
                for p in elements[i]:  # take its N - size copies out again
                    f[p - 1] -= N - size

    rec(0, 0, 0)
    out = {flavor: Counter() for flavor in FLAVORS}
    for (cls, nu), c in by_class.items():
        for flavor in FLAVORS[:FLAVORS.index(cls) + 1]:  # cls and every weaker flavor
            out[flavor][(nu, ())] += c
    return {flavor: dict(c) for flavor, c in out.items()}


def enumerate_by_assignment(P, flavor, max_total):
    """The vectors of the flavor with entry-sum <= max_total the plain
    way, in lexicographic order: values assigned element by element
    down a reversed linear extension, each at least its upper covers'
    values (plus one along a strict cover)."""
    _check_flavor(flavor)
    # Assign values top-down along a reversed linear extension so each
    # element sees the constraints from its upper covers.
    order = list(reversed(lex_min_extension(P)))
    strict = set(_strict_covers(P, flavor))
    # ups[p]: (b, 1 if the flavor drops strictly along p < b else 0) per upper cover b
    ups = [[(b, int((p, b) in strict)) for b in bs] for p, bs in enumerate(P.upper_covers)]
    f = [0] * P.n
    out = []

    def assign(idx: int, total: int):
        if idx == len(order):
            out.append(tuple(f))
            return
        p = order[idx]
        lo = 0
        for b, s in ups[p]:
            lo = max(lo, f[b - 1] + s)
        for v in range(lo, max_total - total + 1):
            f[p - 1] = v
            assign(idx + 1, total + v)
        f[p - 1] = 0

    assign(0, 0)
    del assign  # its closure cycle would keep out alive until a full collection
    out.sort()
    return out
