import itertools
import math
import random
from collections import Counter
from functools import reduce
from operator import add, or_

import pytest

from ppart import (
    Poset,
    TruncSeries,
    clashes,
    connected_ideals,
    enumerate_posets,
    hasse_components,
    lex_min_extension,
    mask_of,
    members,
)
from ppart.partitions import (
    FLAVORS,
    _check_flavor,
    _levels,
    _Monomials,
    _multiset_vector,
    _strict_covers,
    classify_map,
)
from ppart.poset import ideal_key
from ppart.series import _GRADINGS, _graded, normalize_grading
from ppart.structure import DisjointUnion, Hang, Leaf


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


def add_terms(s, terms):
    """s plus each term (t, xs, c), in place, and s returned: a term past
    the truncation is dropped, and no zero coefficient is kept."""
    for t, xs, c in terms:
        xs = tuple(xs)
        if (sum(xs) if xs else t) <= s.trunc:
            if c := c + s.coeffs.pop((t, xs), 0):
                s.coeffs[t, xs] = c
    return s


def one_minus(like, m):
    """1 - m for the key m = (t, xs), shaped like the series like."""
    return add_terms(like.one_like(), [(*m, -1)])


def plus(a, b, sign=1):
    """a + sign * b, for two series of one shape."""
    assert (a.nx, a.has_t, a.trunc) == (b.nx, b.has_t, b.trunc), "series of different shapes"
    out = TruncSeries(a.nx, a.trunc, a.has_t, xnames=a.xnames)
    return add_terms(out, [(t, xs, k * c) for s, k in ((a, 1), (b, sign))
                           for (t, xs), c in s.coeffs.items()])


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


# -- the plain oracles, run once per session ------------------------------
#
# The every-small-poset tests of the walk, the counts by size and the face
# count ask the same oracles of the same posets; these fixtures share that
# work.  Each keeps every case its tests check.

SMALL_DEPTH = 9  # the deepest N the small-poset tests list or count vectors to
SMALL_SHORT = 6  # the deepest N they compare lists of vectors at


@pytest.fixture(scope="session")
def posets_to5(posets3, posets4, posets5):
    """Every poset with n <= 5."""
    return [P for n in (1, 2) for P in enumerate_posets(n)] + posets3 + posets4 + posets5


@pytest.fixture(scope="session")
def small_vectors(posets_to5):
    """{P: {flavor: (sizes, short)}} for every poset with n <= 5, the
    plain way: one assignment listing of the weak vectors with |f| <=
    SMALL_DEPTH, each sorted into the flavors it has by `classify_map`.
    sizes[d] counts the vectors of the flavor with |f| = d, and short
    lists those with |f| <= SMALL_SHORT in lexicographic order."""
    out = {}
    for P in posets_to5:
        sizes = {flavor: [0] * (SMALL_DEPTH + 1) for flavor in FLAVORS}
        short = {flavor: [] for flavor in FLAVORS}
        for f in enumerate_by_assignment(P, FLAVORS[0], SMALL_DEPTH):
            cls, d = classify_map(P, f), sum(f)
            for flavor in FLAVORS[:FLAVORS.index(cls) + 1]:  # cls and every weaker flavor
                sizes[flavor][d] += 1
                if d <= SMALL_SHORT:
                    short[flavor].append(f)
        out[P] = {flavor: (sizes[flavor], short[flavor]) for flavor in FLAVORS}
    return out


@pytest.fixture(scope="session")
def t_walks():
    """`t_series_by_walk`, each poset walked once at the deepest N asked;
    a shallower N keeps the terms of t degree up to N."""
    kept = {}  # P -> (the deepest N walked, its walk)

    def walks(P, N):
        if P not in kept or kept[P][0] < N:
            kept[P] = (N, t_series_by_walk(P, N))
        return {flavor: {k: c for k, c in coeffs.items() if k[0] <= N}
                for flavor, coeffs in kept[P][1].items()}

    return walks


# -- packed monomials and the tuple-key kernels they replaced ------------
#
# The series kernels key on packed monomials (`partitions._Monomials`);
# TruncSeries.coeffs keys on (t, xs).  The kernels below are the tuple-key
# code they replaced, kept as oracles: a key is (t, xs), and its degree the
# x degree, or the t degree when there is no x variable.


def codec_of(s):
    """The packed-monomial codec of a series' shape."""
    return _Monomials(s.nx, s.trunc)


def packed(coeffs, codec):
    return {codec.pack(t, xs): c for (t, xs), c in coeffs.items()}


def unpacked(coeffs, codec):
    return {codec.unpack(k): c for k, c in coeffs.items()}


def graded_key(P, grading, N):
    """The empty series of a grading and its tuple key (f, nu) -> (t, xs)
    for a value vector f with nu(f) = nu."""
    has_t, xnames = _GRADINGS[normalize_grading(grading)]

    def key(f, nu):
        # x keeps f, a single q keeps |f|, the pure t grading keeps no x exponent
        xs = tuple(f) if xnames is None else (sum(f),) if xnames else ()
        return (nu if has_t else 0, xs)

    return _graded(P, grading, N)[0], key


def specialized(s, P, grading):
    """The (t,x) series s in a grading with an x variable: each term
    t^nu x^f moves to the grading's key of (f, nu)."""
    out, key = graded_key(P, grading, s.trunc)
    return add_terms(out, [(*key(xs, t), c) for (t, xs), c in s.coeffs.items()])


def degree(key):
    return sum(key[1]) if key[1] else key[0]


def plus_times(acc, c, m, trunc, sign=-1):
    """acc + sign * m * c in place, dropping every term past trunc."""
    room, (tm, xm) = trunc - degree(m), m
    for (t, xs), v in c.items():
        if (sum(xs) if xs else t) <= room:
            k = (t + tm, tuple(map(add, xs, xm)))
            acc[k] = acc.get(k, 0) + sign * v
    return acc


def times_one_minus(c, m, trunc):
    """c * (1 - m), with no zero stored."""
    assert degree(m) >= 1
    return {k: v for k, v in plus_times(dict(c), c, m, trunc).items() if v}


def over_one_minus(c, m, trunc, shift=False):
    """c / (1 - m), or c * m / (1 - m) with shift, in one pass by
    increasing degree: out[k] = c[k] + out[k - m]."""
    assert (d := degree(m)) >= 1
    out, by_degree, (tm, xm) = {}, [[] for _ in range(trunc + 1)], m
    for (t, xs), v in c.items():
        t, xs = (t + tm, tuple(map(add, xs, xm))) if shift else (t, xs)
        if (e := sum(xs) if xs else t) <= trunc:
            out[t, xs] = v
            by_degree[e].append((t, xs))
    for e in range(trunc + 1 - d):
        for t, xs in by_degree[e]:
            if v := out[t, xs]:
                k = (t + tm, tuple(map(add, xs, xm)))
                if k not in out:
                    by_degree[e + d].append(k)
                out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def _buckets(s):
    """Terms as (t, xs, c), grouped by truncated degree."""
    buckets = {}
    for (t, xs), c in s.coeffs.items():
        buckets.setdefault(degree((t, xs)), []).append((t, xs, c))
    return buckets


def _mul_into(acc, terms_a, terms_b):
    for t1, x1, c1 in terms_a:
        for t2, x2, c2 in terms_b:
            key = (t1 + t2, tuple(map(add, x1, x2)))
            acc[key] = acc.get(key, 0) + c1 * c2


def mul_by_tuples(a, b):
    """a * b, bucket pairs of degrees adding up to at most trunc."""
    acc = {}
    for da, terms in _buckets(a).items():
        for db, other_terms in _buckets(b).items():
            if da + db <= a.trunc:
                _mul_into(acc, terms, other_terms)
    out = TruncSeries(a.nx, a.trunc, a.has_t, xnames=a.xnames)
    out.coeffs = {k: c for k, c in acc.items() if c}
    return out


def inverse_by_tuples(s):
    """1 / s one degree at a time: b_d = -c0 * sum_{k=1..d} a_k b_{d-k}."""
    c0, a = s.coeffs.get((0, (0,) * s.nx), 0), _buckets(s)
    b = [a[0]]
    for d in range(1, s.trunc + 1):
        acc = {}
        for k in range(1, d + 1):
            if k in a:
                _mul_into(acc, a[k], b[d - k])
        b.append([(t, xs, -c0 * c) for (t, xs), c in acc.items() if c])
    out = TruncSeries(s.nx, s.trunc, s.has_t, xnames=s.xnames)
    out.coeffs = {(t, xs): c for terms in b for t, xs, c in terms}
    return out


def level_chains_by_tuples(P, flavor, N):
    """(f, nu(f)) for each vector f of the flavor with |f| <= N, from the
    chains of level ideals, f and nu summed as tuples and ints."""
    levels = _levels(P, flavor, N)
    seen = {}  # ideal -> (its indicator, its number of cover components), on first use
    stack = [(P.full_mask, levels[-1][P.full_mask], (0,) * P.n, N, 0)] if N >= 0 else []
    while stack:  # (last level A, need(A), f, budget, nu(f)) per open chain
        A, need, f, budget, nu_f = stack.pop()
        if not need:
            yield f, nu_f
        for size, level in enumerate(levels[1:budget + 1], 1):
            for B, B_need in level.items():
                if not B & ~A and not need & ~B:
                    if B not in seen:
                        seen[B] = _multiset_vector(P.n, ((B, 1),)), len(hasse_components(P, B))
                    ind, c = seen[B]
                    stack.append((B, B_need, tuple(map(add, f, ind)), budget - size, nu_f + c))


# -- the tuple walk and the face filter that `series._flag_walk` replaced --


def trivial_multisets_by_tuples(P, N, faces=False):
    """Multisets of pairwise trivially-intersecting connected ideals of
    total size at most N, an ideal weighing its number of elements; with
    faces, the sets of at most N such ideals, each of multiplicity one:
    the faces of the flag complex of Pi.

    Yields tuples of (ideal mask, multiplicity), depth first from a stack
    of open nodes, each node scanning every later index of J_conn against
    the clashes of its ideals.  order is sorted by size, so the first
    ideal over budget ends a node's loop."""
    order, clash = connected_ideals(P), clashes(P)
    stack = [(0, N, (), 0)]  # (next index, budget, chosen, the clashes of chosen)
    while stack:
        idx, budget, chosen, blocked = stack.pop()
        yield chosen
        for i in range(idx, len(order)):
            J = order[i]
            w = 1 if faces else J.bit_count()
            if w > budget:
                break
            if not blocked >> i & 1:
                for m in range(1, (1 if faces else budget // w) + 1):
                    stack.append((i + 1, budget - m * w, chosen + ((J, m),), blocked | clash[i]))


def t_by_face_filter(P, flavor, N, faces=None):
    """The t coefficients of the flavor, as TruncSeries keys, from the
    listed faces of at most N ideals (`trivial_multisets_by_tuples` with
    faces, listed here unless given): a face counts when its ideals
    separate every cover along which the flavor drops strictly, and a
    counted face of i ideals adds C(k - 1, i - 1) to t^k."""
    if faces is None:
        faces = trivial_multisets_by_tuples(P, N, faces=True)
    strict = _strict_covers(P, flavor)
    sep = {J: mask_of(k for k, (a, b) in enumerate(strict, 1)  # bit k - 1: the k-th cover
                      if J >> (a - 1) & 1 and not J >> (b - 1) & 1)
           for J in connected_ideals(P)}
    need = (1 << len(strict)) - 1
    sizes = Counter(len(face) for face in faces
                    if len(face) <= N and reduce(or_, (sep[J] for J, _ in face), 0) == need)
    coeffs = {(0, ()): 1} if sizes[0] else {}
    for k in range(1, N + 1):
        if c := sum(f * math.comb(k - 1, i - 1) for i, f in sizes.items() if 0 < i <= k):
            coeffs[(k, ())] = c
    return coeffs


# -- the ideal-lattice walks that `poset._chain_levels` replaced ----------


def ideals_by_bfs(P):
    """All order ideals of P, the empty one first, by BFS over the ideal
    lattice from the bottom, adding minimal elements of the complement:
    the order `iter_ideals` must keep."""
    seen = {0}
    frontier = [0]
    yield 0
    while frontier:
        nxt = []
        for ideal in frontier:
            for p in P.minimal_elements(P.full_mask & ~ideal):
                grown = ideal | (1 << (p - 1))
                if grown not in seen:
                    seen.add(grown)
                    nxt.append(grown)
                    yield grown
        frontier = nxt


def _count_by_ideals(P):
    """|L(P)| as the number of maximal chains from the empty ideal to the
    full one, with the counts of every ideal of the lattice kept."""
    counts = {0: 1}
    frontier = [0]
    while frontier:
        by_size = {}
        for ideal in frontier:
            c = counts[ideal]
            for p in P.minimal_elements(P.full_mask & ~ideal):
                grown = ideal | (1 << (p - 1))
                by_size[grown] = by_size.get(grown, 0) + c
        for ideal, c in by_size.items():
            counts[ideal] = counts.get(ideal, 0) + c
        frontier = list(by_size)
    return counts[P.full_mask]


# -- the hand-made order closures that `Poset.__init__` replaced ----------


def replay_by_up_sets(node):
    """(element mask, {p: mask of the elements above p}) for a recipe tree,
    each operation closing the order as it goes: a hang puts the lower
    piece below the target and all above it, a duplicate a2 of a goes
    above all below a and below all above a."""
    if isinstance(node, Leaf):
        return 1 << (node.label - 1), {node.label: 0}
    if isinstance(node, DisjointUnion):
        mask, rel = 0, {}
        for part in node.parts:
            pmask, prel = replay_by_up_sets(part)
            mask |= pmask
            rel.update(prel)
        return mask, rel
    if isinstance(node, Hang):
        umask, urel = replay_by_up_sets(node.upper)
        lmask, lrel = replay_by_up_sets(node.lower)
        above = urel[node.target] | (1 << (node.target - 1))
        rel = dict(urel)
        for p, up in lrel.items():
            rel[p] = up | above
        return umask | lmask, rel
    cmask, crel = replay_by_up_sets(node.child)
    a, a2 = node.hanger, node.duplicate
    abit, a2bit = 1 << (a - 1), 1 << (a2 - 1)
    rel = {p: up | a2bit if up & abit else up for p, up in crel.items()}
    rel[a2] = crel[a]
    return cmask | a2bit, rel


def principal_ideals_by_recursion(forest):
    """A forest's principal ideals, each node's mask filled from its
    children's, sorted by ideal_key."""
    children = {}
    for i, p in forest.covers():
        children.setdefault(p, []).append(i)
    masks = [0] * (forest.n + 1)

    def fill(i):
        if not masks[i]:
            masks[i] = 1 << (i - 1)
            for c in children.get(i, ()):
                masks[i] |= fill(c)
        return masks[i]

    ideals = [fill(i) for i in range(1, forest.n + 1)]
    del fill  # its closure cycle would keep masks alive until a full collection
    return tuple(sorted(ideals, key=ideal_key))


def posets_by_matrix(n):
    """Every labelled poset on {1..n}, one per choice of a < b, b < a or
    neither for each pair, kept when its boolean matrix is transitive."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for choice in itertools.product((0, 1, 2), repeat=len(pairs)):
        lt = [[False] * (n + 1) for _ in range(n + 1)]
        for (a, b), c in zip(pairs, choice):
            if c == 1:
                lt[a][b] = True
            elif c == 2:
                lt[b][a] = True
        r = range(1, n + 1)
        if all(lt[a][c] for a in r for b in r if lt[a][b] for c in r if lt[b][c]):
            yield Poset(n, [(a, b) for a in r for b in r if lt[a][b]])


def stanley_chain_by_heights(P):
    """True iff for every element all maximal chains above it have equal
    length, by the height above each element down a reversed linear
    extension."""
    height = [0] * (P.n + 1)
    for p in reversed(lex_min_extension(P)):
        vals = [height[b] + 1 for b in P.upper_covers[p]]
        if vals:
            if min(vals) != max(vals):
                return False
            height[p] = vals[0]
    return True


def ci_counts_by_clashes(P):
    """The CI count test on the whole clash matrix, kept on P:
    |Pi| = |J_conn| - n, with |Pi| half the sum of the rows' popcounts."""
    clash = clashes(P)
    return sum(c.bit_count() for c in clash) == 2 * (len(clash) - P.n)


def random_fwd_poset(rng, n):
    """A random forest with duplications on n elements: a random forest
    (roots at the top) on the first elements, then twins of distinct
    non-minimal ones, each with its original's upper and lower covers,
    under shuffled labels."""
    while True:
        dups = rng.randint(0, n // 3)
        base = n - dups
        parent = [None] + [rng.randrange(i) if rng.random() < 0.8 else None
                           for i in range(1, base)]
        hangers = sorted({p for p in parent if p is not None})
        if len(hangers) >= dups:
            break
    covers = [(i, p) for i, p in enumerate(parent) if p is not None]
    for a2, a in enumerate(rng.sample(hangers, dups), start=base):
        covers += [(a2, p) for i, p in covers if i == a] + [(i, a2) for i, p in covers if p == a]
    label = list(range(1, n + 1))
    rng.shuffle(label)
    return Poset(n, [(label[i], label[p]) for i, p in covers])
