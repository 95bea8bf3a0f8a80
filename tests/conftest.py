import random
from collections import Counter

import pytest

from ppart import Poset, TruncSeries, clashes, connected_ideals, enumerate_posets, members
from ppart.partitions import FLAVORS, classify_map


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
