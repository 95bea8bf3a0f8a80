import functools
import math
import random
import tracemalloc

import pytest

import ppart.extensions
from conftest import (
    _count_by_ideals,
    graded_key,
    one_minus,
    plus,
    random_posets,
    specialized,
    truncated,
)
from ppart import (
    ExplosionError,
    Poset,
    QPolynomial,
    count_extensions,
    enumerate_posets,
    hasse_components,
    is_ideal,
    is_naturally_labelled,
    linear_extensions,
    maj_polynomial,
    mask_of,
    natural_relabel,
    q_factorial,
    q_int,
    rational_sum_truncated,
    semigroup_ideal,
)
from ppart.extensions import DEFAULT_CAP, _halves, maj_coefficients
from ppart.fixtures import EX33, FIG1, P1, P2
from ppart.partitions import _multiset_vector


BIPARTITE44 = Poset(8, [(a, b) for a in (1, 2, 3, 4) for b in (5, 6, 7, 8)])

ANTICHAIN8 = Poset(8)
CLAW9 = Poset(9, [(1, k) for k in range(2, 10)])

# shapes whose halves differ in kind: one ideal per level, 720 to 40,320
# extensions with many ideals per level, and a middle level of one ideal
SHAPES = [Poset(6, [(k, k + 1) for k in range(1, 6)]), Poset(6), Poset(7), ANTICHAIN8, CLAW9,
          BIPARTITE44]


def random_forests(seed, count, upward):
    """count random forests of 6 to 10 elements, in which every element has
    at most one upper cover (upward) or at most one lower cover."""
    rng = random.Random(seed)
    forests = []
    for _ in range(count):
        n = rng.randrange(6, 11)
        label = rng.sample(range(1, n + 1), n)
        edges = [(label[k], label[rng.randrange(k)]) for k in range(1, n) if rng.random() < 0.8]
        forests.append(Poset(n, [(a, b) if upward else (b, a) for a, b in edges]))
    return forests


class TestEnumeration:
    def test_ex33(self):
        exts = linear_extensions(EX33)
        assert [e.w for e in exts] == [
            (1, 2, 3, 4, 5),
            (1, 2, 3, 5, 4),
            (1, 2, 4, 3, 5),
            (2, 1, 3, 4, 5),
            (2, 1, 3, 5, 4),
            (2, 1, 4, 3, 5),
            (2, 4, 1, 3, 5),
        ]
        assert [e.des_p for e in exts] == [0, 1, 2, 1, 2, 3, 1]

    def test_fig1_count(self):
        assert len(linear_extensions(FIG1)) == 300

    def test_chain(self):
        chain = Poset(4, [(1, 2), (2, 3), (3, 4)])
        exts = linear_extensions(chain)
        assert len(exts) == 1
        assert exts[0].w == (1, 2, 3, 4)
        assert exts[0].maj == 0

    def test_prefixes_are_ideals(self):
        for e in linear_extensions(EX33):
            for i in range(1, 6):
                assert is_ideal(EX33, e.prefix_mask(i))

    def test_cap(self):
        with pytest.raises(ExplosionError, match=r"^\|L\(P\)\| = 720 exceeds cap 100$"):
            linear_extensions(Poset(6, []), cap=100)

    def test_matches_recursive_listing(self, posets_to5):
        # n = 1 and 2 leave one half empty, so no descent may fall at position n
        for P in posets_to5 + random_posets(53, 40, (6, 7, 8)) + SHAPES:
            got = [(e.w, e.des_set, e.maj, e.des_p) for e in linear_extensions(P)]
            assert got == _extensions_by_recursion(P), P

    def test_the_halves_meet_at_a_single_ideal(self):
        # the prefixes all list {1, 2, 3, 4} and the suffixes its rest
        prefixes, suffixes, _ = _halves(BIPARTITE44, lambda ideal: 0, DEFAULT_CAP)
        assert list(suffixes) == [0b1111]
        assert (len(prefixes), len(suffixes[0b1111])) == (24, 24)

    def test_descent_sets_are_shared(self):
        for P in [FIG1, *SHAPES, *random_posets(59, 10, (7, 8))]:
            exts = linear_extensions(P)
            assert len({id(e.des_set) for e in exts}) == len({e.des_set for e in exts}), P


@functools.cache
def _extensions_by_recursion(P):
    """(w, Des(w), maj, des_P) over L(P) in lexicographic order of w, by
    extending a prefix with each minimal element of the rest in turn.
    Kept per poset: callers must not change the list."""
    out = []
    w = []

    def extend(taken, last, des, maj, des_p):
        i = len(w)
        if i == P.n:
            out.append((tuple(w), des, maj, des_p))
            return
        for p in P.minimal_elements(P.full_mask & ~taken):
            w.append(p)
            grown = taken | (1 << (p - 1))
            if last > p:
                c = len(hasse_components(P, taken))
                extend(grown, p, des + (i,), maj + i, des_p + c)
            else:
                extend(grown, p, des, maj, des_p)
            w.pop()

    extend(0, 0, (), 0, 0)
    return out


class TestCount:
    def test_fig1(self):
        assert count_extensions(FIG1) == 300

    def test_antichain(self):
        assert count_extensions(Poset(5, [])) == math.factorial(5)

    def test_ex33(self):
        assert count_extensions(EX33) == 7

    def test_agrees_with_enumeration(self, posets5):
        for P in posets5[::17]:
            assert count_extensions(P) == len(linear_extensions(P))

    def test_forest_formula_matches_ideal_walk(self, posets3, posets4, posets5):
        for P in posets3 + posets4 + posets5 + random_posets(61, 40, range(6, 11)):
            assert count_extensions(P) == _count_by_ideals(P), P

    @pytest.mark.parametrize("upward", [True, False], ids=["roots-on-top", "roots-below"])
    def test_forests_skip_the_ideal_walk(self, upward, monkeypatch):
        # random forests (every element has at most one upper cover, or
        # at most one lower cover) are counted by the hook length formula
        forests = random_forests(67 + upward, 40, upward)
        expect = [_count_by_ideals(P) for P in forests]

        def walk(P):
            raise AssertionError("walked the ideal lattice of a forest")

        monkeypatch.setattr(ppart.extensions, "_chain_levels", walk)
        assert [count_extensions(P) for P in forests] == expect
        assert count_extensions(Poset(22, [])) == math.factorial(22)


class TestMajPolynomial:
    def test_p1(self):
        assert maj_polynomial(P1).coeffs == (1, 0, 1)

    def test_p2(self):
        # q + q^2: descents of (2,1,3) and (2,3,1) sit at positions 1 and 2
        assert maj_polynomial(P2).coeffs == (0, 1, 1)

    def test_fig1_product_form(self):
        expect = (
            q_int(2).substitute_power(7)
            * q_int(5)
            * q_int(5)
            * q_int(6)
        )
        assert maj_polynomial(FIG1) == expect

    def test_value_at_one_is_count(self, posets4):
        for P in posets4[::7]:
            assert maj_polynomial(P)(1) == count_extensions(P)


# -- oracles: the L(P)-enumeration formulas that fold_extensions replaces --


def _words(P):
    return [w for w, _, _, _ in _extensions_by_recursion(P)]


def _descents(w):
    return [i for i in range(1, len(w)) if w[i - 1] > w[i]]


def _maj_by_enumeration(P):
    coeffs = [0] * (P.n * (P.n - 1) // 2 + 1)
    for w in _words(P):
        coeffs[sum(_descents(w))] += 1
    return QPolynomial(tuple(coeffs))


def _descent_vectors_by_enumeration(P):
    gens = set()
    for w in _words(P):
        f = [0] * P.n
        for i in _descents(w):
            for p in w[:i]:
                f[p - 1] += 1
        gens.add(tuple(f))
    return tuple(sorted(gens))


def _rational_sum_by_enumeration(P, grading, N):
    zero, key = graded_key(P, grading, N)
    factors = {}

    def factor(prefix, descent):
        if (prefix, descent) not in factors:
            c = len(hasse_components(P, prefix))
            f = one_minus(zero, key(_multiset_vector(P.n, ((prefix, 1),)), c)).inverse()
            factors[(prefix, descent)] = plus(f, f.one_like(), -1) if descent else f
        return factors[(prefix, descent)]

    total = zero
    for w in _words(P):
        term = zero.one_like()
        descents = set(_descents(w))
        for i in range(1, P.n + 1):
            term = term * factor(mask_of(w[:i]), i in descents)
        total = plus(total, term)
    return total


class TestFoldOracle:
    """Every statistic computed over the (ideal, last) states equals the
    sum over L(P) it replaces, in natural and non-natural labellings."""

    @pytest.fixture(scope="class")
    def small(self, posets3, posets4, posets5):
        return [*enumerate_posets(1), *enumerate_posets(2), *posets3, *posets4, *posets5]

    @pytest.fixture(scope="class")
    def random_sample(self):
        posets = random_posets(71, 12, (6, 7, 8))
        return posets + [natural_relabel(P)[0] for P in posets]

    def test_maj(self, small, random_sample):
        for P in small + random_sample:
            assert maj_polynomial(P) == _maj_by_enumeration(P), P

    def test_maj_truncated(self, small, random_sample):
        # below the largest maj the walk stops at N + 1 and completes each
        # state by the descent-free rest, if there is one
        for P in small[::5] + random_sample:
            full = list(_maj_by_enumeration(P).coeffs)
            for N in range(len(full) + 1):
                want = (full + [0] * N)[: N + 1]
                assert maj_coefficients(P, N) == want, (P, N)

    def test_semigroup_generators(self, small, random_sample):
        # the 8-antichain and the 9-claw have 40,320 generators each
        for P in small + random_sample + [ANTICHAIN8, CLAW9]:
            assert semigroup_ideal(P).generators == _descent_vectors_by_enumeration(P), P

    def test_des_p(self, small, random_sample):
        for P in small[::3] + random_sample:
            for e in linear_extensions(P):
                expect = sum(
                    len(hasse_components(P, mask_of(e.w[:i]))) for i in _descents(e.w)
                )
                assert (e.des_set, e.maj, e.des_p) == (
                    tuple(_descents(e.w)), sum(_descents(e.w)), expect
                ), (P, e.w)

    @pytest.fixture(scope="class")
    def tx_sums(self):
        """P -> the (t,x) sum over L(P) at P's deepest N, enumerated once
        for every grading with an x variable: the x, q and (t,q) sums are
        its specializations, which commute with products and inverses."""
        return {}

    @pytest.mark.parametrize("grading", ["x", "tx", "q", "tq", "t"])
    def test_rational_sum(self, grading, small, random_sample, tx_sums):
        # with an x variable the fold stops at depth min(n, N + 1), so
        # N = n - 1, n and n + 1 are where the two meet: checked on every
        # poset with n <= 4 and every fourth with n = 5
        naturals = [P for P in small + random_sample if is_naturally_labelled(P)]
        for i, P in enumerate(naturals):
            boundary = P.n < 5 or P.n == 5 and i % 4 == 0
            Ns = {0, 1, 3} | ({P.n - 1, P.n, P.n + 1} if boundary else set())
            if grading == "t":  # truncated by t degree, so no specialization of (t,x)
                want = _rational_sum_by_enumeration(P, grading, max(Ns))
            else:
                if P not in tx_sums:
                    tx_sums[P] = _rational_sum_by_enumeration(P, "tx", max(Ns))
                want = specialized(tx_sums[P], P, grading)
            for N in sorted(Ns):  # a truncated product is exact up to its truncation
                got = rational_sum_truncated(P, grading, N)
                assert (got.trunc, got) == (N, truncated(want, N)), (P, N)

    def test_cap_applies_to_every_statistic(self):
        for fn in (maj_polynomial, semigroup_ideal, linear_extensions):
            with pytest.raises(ExplosionError, match="= 300 exceeds cap 299"):
                fn(FIG1, cap=299)
            fn(FIG1, cap=300)

    def test_cap_zero_names_the_first_level(self):
        # the empty prefix is not checked: the first count is FIG1's four
        # minimal elements, a lower bound of |L(P)| = 300
        for fn in (maj_polynomial, semigroup_ideal, linear_extensions):
            with pytest.raises(ExplosionError, match=r"^\|L\(P\)\| >= 4 exceeds cap 0$"):
                fn(FIG1, cap=0)

    def test_a_capped_non_forest_builds_no_half(self, monkeypatch):
        # FIG1 is no forest; the halves are built from the memoized
        # weight on, so only after the cap
        def unreachable(*args):
            raise AssertionError("built a half past the cap")

        monkeypatch.setattr(ppart.extensions, "_Memo", unreachable)
        for fn in (semigroup_ideal, linear_extensions):
            with pytest.raises(ExplosionError, match=r"^\|L\(P\)\| = 300 exceeds cap 299$"):
                fn(FIG1, cap=299)

    def test_an_uncapped_non_forest_is_counted_once(self, monkeypatch):
        # |L(P)| under the cap is the halves' own forward count, and
        # maj_polynomial's one count for its cap
        fns = (linear_extensions, semigroup_ideal, maj_polynomial)
        want = [fn(FIG1) for fn in fns]
        walk, walks = ppart.extensions._chain_levels, []

        def counted(P):
            walks.append(P)
            return walk(P)

        monkeypatch.setattr(ppart.extensions, "_chain_levels", counted)
        for fn, expect in zip(fns, want):
            walks.clear()
            assert fn(FIG1, cap=300) == expect
            assert walks == [FIG1], fn

    def test_a_capped_walk_stops_at_the_cap(self):
        # a non-forest with 2,048 ideals: its 91 prefixes of two elements
        # outnumber the cap, so the halves' walk stops there, holding less
        # than the oracle's count of L(P), which keeps every ideal's count
        # (6.4 times as much if the halves' walk ran to the top), and the
        # error names 91 as a lower bound of |L(P)| = 99,792,000
        P = Poset(12, [(1, 3), (2, 3), (1, 4)])
        tracemalloc.start()
        try:
            _count_by_ideals(P)
            counted = tracemalloc.get_traced_memory()[1]
            for fn in (semigroup_ideal, linear_extensions):
                tracemalloc.reset_peak()
                with pytest.raises(ExplosionError, match=r"^\|L\(P\)\| >= 91 exceeds cap 10$"):
                    fn(P, cap=10)
                assert tracemalloc.get_traced_memory()[1] < 1.5 * counted, fn
        finally:
            tracemalloc.stop()

    def test_a_capped_non_forest_is_not_counted(self, monkeypatch):
        # 16 prefixes of one element outnumber the cap, and the error names
        # that lower bound: no walk over the 3 * 2^15 ideals counts L(P)
        walk = ppart.extensions._chain_levels

        def levels_to_1(P):
            for k, level in enumerate(walk(P)):
                assert k <= 1, "counted L(P) past the cap"
                yield level

        monkeypatch.setattr(ppart.extensions, "_chain_levels", levels_to_1)
        P = Poset(18, [(1, 3), (2, 3), (1, 4)])
        for fn in (maj_polynomial, semigroup_ideal, linear_extensions):
            with pytest.raises(ExplosionError, match=r"^\|L\(P\)\| >= 16 exceeds cap 10$"):
                fn(P, cap=10)

    def test_a_capped_forest_is_counted_by_its_hooks(self, monkeypatch):
        # a forest or its dual is checked once by its hook count, the
        # exact |L(P)|, before the ideal lattice is walked at all
        forests = random_forests(71, 10, True)
        forests += [Poset(P.n, [(b, a) for a, b in P.covers]) for P in forests]
        hooks = [count_extensions(P) for P in forests]

        def walk(P):
            raise AssertionError("walked the ideal lattice of a capped forest")

        monkeypatch.setattr(ppart.extensions, "_chain_levels", walk)
        for P, count in zip(forests, hooks):
            for cap in {0, count - 1}:
                for fn in (linear_extensions, semigroup_ideal, maj_polynomial):
                    with pytest.raises(ExplosionError,
                                       match=rf"^\|L\(P\)\| = {count} exceeds cap {cap}$"):
                        fn(P, cap=cap)

    def test_maj_at_scale(self):
        assert maj_polynomial(Poset(10, [])) == q_factorial(10)
