"""Reference answers computed without ppart.

Each function takes a poset as (n, covers), with (a, b) meaning a is
covered by b, and re-derives a quantity that a benchmarked ppart call
must agree with.  Subsets are bitmasks (label p is bit p - 1), as in
ppart, but none of ppart's code runs here, so a bug introduced in ppart
cannot cancel out of a check.
"""

from __future__ import annotations

import math


def lower_covers(n, covers):
    """lower[r] = mask of the elements r covers."""
    lower = [0] * (n + 1)
    for a, b in covers:
        lower[b] |= 1 << (a - 1)
    return lower


def _addable(n, lower, ideal):
    """Labels r outside the ideal whose lower covers all lie in it."""
    return [
        r for r in range(1, n + 1)
        if not ideal >> (r - 1) & 1 and not lower[r] & ~ideal
    ]


def ideal_levels(n, covers):
    """The order ideals of the poset, one set per cardinality 0..n."""
    lower = lower_covers(n, covers)
    level = {0}
    yield level
    for _ in range(n):
        level = {I | 1 << (r - 1) for I in level for r in _addable(n, lower, I)}
        yield level


def component_counter(n, covers):
    """A memoised map from a mask to the number of connected components
    of the cover graph restricted to it."""
    adj = [0] * (n + 1)
    for a, b in covers:
        adj[a] |= 1 << (b - 1)
        adj[b] |= 1 << (a - 1)
    memo = {}

    def count(mask):
        if mask in memo:
            return memo[mask]
        comps, rest = 0, mask
        while rest:
            comp = frontier = rest & -rest
            while frontier:
                grown = comp
                m = frontier
                while m:
                    low = m & -m
                    grown |= adj[low.bit_length()] & mask
                    m ^= low
                frontier = grown & ~comp
                comp = grown
            rest &= ~comp
            comps += 1
        memo[mask] = comps
        return comps

    return count


def size_key(mask):
    return mask.bit_count(), mask


def connected_ideals(n, covers):
    """Nonempty ideals with one cover-graph component, by (size, mask)."""
    comps = component_counter(n, covers)
    out = [I for level in ideal_levels(n, covers) for I in level
           if I and comps(I) == 1]
    out.sort(key=size_key)
    return out


def disjoint_or_nested(j1, j2):
    inter = j1 & j2
    return inter == 0 or inter == j1 or inter == j2


def pairs_digest(n, covers, conn):
    """(|Pi|, digest) over the pairs of connected ideals that are neither
    disjoint nor nested, in the (size, mask) order of both members.  The
    digest covers each pair's union and intersection component count."""
    comps = component_counter(n, covers)
    count, digest = 0, 0
    for i, j1 in enumerate(conn):
        for j2 in conn[i + 1:]:
            if not disjoint_or_nested(j1, j2):
                count += 1
                digest = hash((digest, j1, j2, j1 | j2, comps(j1 & j2)))
    return count, digest


def pi_digest(pairs):
    """The `pairs_digest` digest of a list of ppart PiPair objects."""
    digest = 0
    for pr in pairs:
        digest = hash((digest, pr.j1, pr.j2, pr.union,
                       len(pr.intersection_components)))
    return digest


def maj_coeffs(n, covers):
    """Coefficients of sum over linear extensions w of q^maj(w), by a DP
    over (ideal, last element).  Polynomials are packed into one integer,
    B bits per coefficient, so a shift by i*B multiplies by q^i."""
    lower = lower_covers(n, covers)
    B = math.factorial(n).bit_length() + 1
    level = {(0, 0): 1}
    for i in range(n):
        nxt = {}
        for (ideal, last), poly in level.items():
            for r in _addable(n, lower, ideal):
                key = (ideal | 1 << (r - 1), r)
                nxt[key] = nxt.get(key, 0) + (poly << i * B if last > r else poly)
        level = nxt
    total = sum(level.values())
    coeffs, digit = [], (1 << B) - 1
    while total:
        coeffs.append(total & digit)
        total >>= B
    return tuple(coeffs) or (0,)


def extension_count(n, covers):
    """|L(P)| as the number of maximal chains of the ideal lattice."""
    lower = lower_covers(n, covers)
    level = {0: 1}
    for _ in range(n):
        nxt = {}
        for ideal, c in level.items():
            for r in _addable(n, lower, ideal):
                grown = ideal | 1 << (r - 1)
                nxt[grown] = nxt.get(grown, 0) + c
        level = nxt
    return level[(1 << n) - 1]


def forest_extension_count(n, covers):
    """Knuth's hook length formula for a forest whose roots are maximal:
    n! divided by the product of the down-set sizes."""
    lower = lower_covers(n, covers)
    down = {}

    def below(r):
        if r not in down:
            m = 1 << (r - 1)
            for a in range(1, n + 1):
                if lower[r] >> (a - 1) & 1:
                    m |= below(a)
            down[r] = m
        return down[r]

    return math.factorial(n) // math.prod(below(r).bit_count() for r in range(1, n + 1))


def extensions(n, covers):
    """Enumerate L(P) in lexicographic order of w.

    Returns (count, digest, generators): the digest runs over
    (w, Des(w), maj(w), des_P(w)) exactly as `extensions_digest` hashes
    ppart's LinearExtension list, and generators is the sorted tuple of
    distinct descent vectors sum_{i in Des(w)} 1_{w[:i]}.
    """
    lower = lower_covers(n, covers)
    comps = component_counter(n, covers)
    count, digest = 0, 0
    gens = set()
    w = []

    def walk(ideal):
        nonlocal count, digest
        if len(w) == n:
            des = tuple(i for i in range(1, n) if w[i - 1] > w[i])
            prefix = [0]
            for p in w:
                prefix.append(prefix[-1] | 1 << (p - 1))
            des_p = sum(comps(prefix[i]) for i in des)
            digest = hash((digest, tuple(w), des, sum(des), des_p))
            count += 1
            f = [0] * n
            for i in des:
                for p in w[:i]:
                    f[p - 1] += 1
            gens.add(tuple(f))
            return
        for r in _addable(n, lower, ideal):
            w.append(r)
            walk(ideal | 1 << (r - 1))
            w.pop()

    walk(0)
    return count, digest, tuple(sorted(gens))


def extensions_digest(exts):
    """The `extensions` digest of a list of ppart LinearExtension objects."""
    digest = 0
    for e in exts:
        digest = hash((digest, e.w, e.des_set, e.maj, e.des_p))
    return digest


def trivial_multiset_counts(conn, N):
    """Number of multisets of pairwise disjoint-or-nested connected
    ideals with k members, for k = 0..N.  By the unique decomposition of
    weak vectors this is the t-graded weak Hilbert series."""
    counts = [0] * (N + 1)

    def rec(start, size, chosen):
        counts[size] += 1
        for i in range(start, len(conn)):
            J = conn[i]
            if all(disjoint_or_nested(J, K) for K in chosen):
                chosen.append(J)
                for m in range(1, N - size + 1):
                    rec(i + 1, size + m, chosen)
                chosen.pop()

    rec(0, 0, [])
    return counts


def times_q_factorial_denominator(h, n, N):
    """prod_{i=1..n} (1 - q^i) times the power series h (a coefficient
    list), truncated at degree N."""
    out = list(h[: N + 1]) + [0] * (N + 1 - len(h))
    for i in range(1, n + 1):
        out = [out[d] - (out[d - i] if d >= i else 0) for d in range(N + 1)]
    return out
