import itertools
from collections import Counter

import pytest

from ppart import (
    FlavorError,
    Poset,
    classify_map,
    connected_decomposition,
    count_by_size,
    delta_counterexample,
    delta_data,
    enumerate_partitions,
    enumerate_posets,
    fundamental_permutation,
    is_naturally_labelled,
    mask_of,
    members,
    nested_decomposition,
    nu,
    satisfies,
    stanley_delta_chain,
    trivially_intersecting,
)
from conftest import enumerate_by_assignment, random_posets, stanley_chain_by_heights
from ppart.fixtures import BOWTIE, EX33, FIG1, FORB1, FORB2, FORB3, P1, P2, P3
from ppart.partitions import _level_chains, _levels
from ppart.series import _graded

CHAIN2 = Poset(2, [(1, 2)])
FIG1_F = (5, 4, 2, 1, 2, 4, 0, 1)


def msk(*elems):
    return mask_of(elems)


class TestClassify:
    def test_p2_flavors(self):
        # (0,1,0) drops strictly along both covers of P2; (0,1,1) only
        # along the label-decreasing one
        assert classify_map(P2, (0, 1, 0)) == "strict"
        assert classify_map(P2, (0, 1, 1)) == "standard"

    def test_zero_vector(self):
        assert classify_map(P2, (0, 0, 0)) == "weak"
        assert classify_map(P1, (0, 0, 0)) == "standard"
        assert classify_map(Poset(2, []), (0, 0)) == "strict"

    def test_fig1_example(self):
        assert classify_map(FIG1, FIG1_F) in ("standard", "strict")
        assert satisfies(FIG1, FIG1_F, "standard")
        assert not satisfies(FIG1, FIG1_F, "strict")

    def test_none(self):
        assert classify_map(CHAIN2, (0, 1)) == "none"

    def test_one_pass_matches_the_definition(self, posets3):
        # the flavors f has, by their definition on the covers a < b
        def held(P, f):
            drops = [(f[a - 1] - f[b - 1], a > b) for a, b in P.covers]
            return {"weak": all(d >= 0 for d, _ in drops),
                    "standard": all(d > 0 if down else d >= 0 for d, down in drops),
                    "strict": all(d > 0 for d, _ in drops)}

        for P in posets3 + list(enumerate_posets(4)):
            for f in itertools.product(range(3), repeat=P.n):
                h = held(P, f)
                assert {flavor: satisfies(P, f, flavor) for flavor in h} == h, (P, f)
                strongest = [flavor for flavor in ("strict", "standard", "weak") if h[flavor]]
                assert classify_map(P, f) == (strongest + ["none"])[0], (P, f)

    def test_unknown_flavor(self):
        with pytest.raises(FlavorError):
            satisfies(P2, (0, 0, 0), "bogus")


class TestNested:
    def test_fig1(self):
        assert nested_decomposition(FIG1, FIG1_F) == [
            msk(1, 2, 3, 4, 5, 6, 8),
            msk(1, 2, 3, 5, 6),
            msk(1, 2, 6),
            msk(1, 2, 6),
            msk(1),
        ]

    def test_zero(self):
        assert nested_decomposition(P1, (0, 0, 0)) == []

    def test_chain(self):
        assert nested_decomposition(CHAIN2, (2, 1)) == [msk(1, 2), msk(1)]

    def test_not_weak(self):
        with pytest.raises(FlavorError):
            nested_decomposition(CHAIN2, (0, 1))


class TestConnected:
    def test_fig1(self):
        dec = connected_decomposition(FIG1, FIG1_F)
        assert dec.nu == 6
        parts = dict(dec.parts)
        assert parts[msk(3)] == 1
        assert parts[msk(1, 2, 5, 6)] == 1
        assert dec.as_vector(8) == FIG1_F

    def test_single_ideal(self):
        dec = connected_decomposition(EX33, (1, 1, 1, 0, 0))
        assert dec.parts == ((msk(1, 2, 3), 1),)
        assert dec.nu == 1

    def test_ex33_level_split(self):
        # levels are {1,2,3,4} then {2}; both are connected, so the
        # decomposition keeps them whole
        dec = connected_decomposition(EX33, (1, 2, 1, 1, 0))
        assert dec.parts == ((msk(2), 1), (msk(1, 2, 3, 4), 1))
        assert dec.nu == 2

    def test_round_trip_and_uniqueness(self, posets4):
        # the decomposition reproduces f; it is the only pairwise
        # trivially-intersecting multiset doing so (brute force)
        for P in posets4[::11]:
            from ppart import connected_ideals

            conn = connected_ideals(P)
            for f in enumerate_partitions(P, "weak", 4):
                dec = connected_decomposition(P, f)
                assert dec.as_vector(P.n) == f
                assert all(
                    trivially_intersecting(a, b)
                    for (a, _), (b, _) in itertools.combinations(dec.parts, 2)
                )
                count = sum(1 for _ in _multisets_with_vector(P, conn, f))
                assert count == 1

    def test_nu_vs_max(self, posets4):
        # nu(f) >= max(f); equality for every f iff P has a minimum
        for P in posets4[::5]:
            has_min = len(P.minimal_elements(P.full_mask)) == 1
            always_equal = True
            for f in enumerate_partitions(P, "weak", 4):
                v = nu(P, f)
                assert v >= max(f)
                if v != max(f):
                    always_equal = False
            assert always_equal == has_min

    def test_nu_is_decomposition_size(self):
        for n in range(1, 5):
            for P in enumerate_posets(n):
                for f in enumerate_partitions(P, "weak", 6):
                    assert nu(P, f) == connected_decomposition(P, f).nu, (P, f)

    def test_nu_keeps_weak_check(self):
        with pytest.raises(FlavorError):
            nu(CHAIN2, (0, 1))


def _multisets_with_vector(P, conn, f):
    target = tuple(f)

    def rec(idx, acc, chosen):
        if acc == target:
            yield list(chosen)
            return
        if idx == len(conn):
            return
        J = conn[idx]
        add = tuple(1 if J >> (p - 1) & 1 else 0 for p in range(1, P.n + 1))
        yield from rec(idx + 1, acc, chosen)
        if all(trivially_intersecting(J, K) for K, _ in chosen):
            cur, m = acc, 0
            while True:
                cur = tuple(a + b for a, b in zip(cur, add))
                m += 1
                if any(a > b for a, b in zip(cur, target)):
                    break
                chosen.append((J, m))
                yield from rec(idx + 1, cur, chosen)
                chosen.pop()

    yield from rec(0, (0,) * P.n, [])


class TestFundamental:
    def test_fig1(self):
        w, terms = fundamental_permutation(FIG1, FIG1_F)
        assert tuple(w) == (1, 2, 6, 3, 5, 4, 8, 7)

    def test_antichain_tie(self):
        w, _ = fundamental_permutation(Poset(2, []), (1, 1))
        assert tuple(w) == (1, 2)

    def test_p2(self):
        w, _ = fundamental_permutation(P2, (0, 1, 0))
        assert tuple(w) == (2, 1, 3)

    def test_not_standard(self):
        with pytest.raises(FlavorError):
            fundamental_permutation(P2, (0, 0, 0))

    def test_conditions_and_telescoping(self, posets4):
        for P in posets4[::9]:
            for f in enumerate_partitions(P, "standard", 5):
                w, terms = fundamental_permutation(P, f)
                vals = [f[p - 1] for p in w]
                assert vals == sorted(vals, reverse=True)
                for i in range(P.n - 1):
                    if w[i] > w[i + 1]:
                        assert vals[i] > vals[i + 1]
                total = [0] * P.n
                for coeff, prefix in terms:
                    assert coeff >= 0
                    for p in members(prefix):
                        total[p - 1] += coeff
                assert tuple(total) == f


class TestEnumerate:
    def test_chain_weak(self):
        assert enumerate_partitions(CHAIN2, "weak", 2) == [
            (0, 0),
            (1, 0),
            (1, 1),
            (2, 0),
        ]

    def test_trivial(self):
        assert enumerate_partitions(P1, "weak", 0) == [(0, 0, 0)]

    def test_p2_standard_minimal(self):
        assert enumerate_partitions(P2, "standard", 1) == [(0, 1, 0)]

    def test_exhaustive_against_brute_force(self, posets3, posets4):
        for P, N in [(P, 4) for P in posets3] + [(P, 3) for P in posets4]:
            for flavor in ("weak", "standard", "strict"):
                got = enumerate_partitions(P, flavor, N)
                brute = [
                    f
                    for f in itertools.product(range(N + 1), repeat=P.n)
                    if sum(f) <= N and satisfies(P, f, flavor)
                ]
                assert got == sorted(brute)

    def test_negative_total_lists_nothing(self):
        # the walk starts from P, whose chain would be the zero vector
        for P in (P1, FIG1, Poset(2, [])):
            for flavor in ("weak", "standard", "strict"):
                assert enumerate_partitions(P, flavor, -1) == []
                assert count_by_size(P, flavor, -1) == []


def _walk(P, flavor, N):
    """(f, nu(f)) for each vector the walk yields, its monomials t^nu x^f
    packed and unpacked by the (t,x) codec."""
    _, codec, mono = _graded(P, "tx", max(N, 0))
    return Counter((xs, t) for t, xs in map(codec.unpack, _level_chains(P, flavor, N, mono)))


class TestLevelChains:
    """The walk over chains of level ideals against the assignment
    enumeration it replaced, with nu from the connected decomposition.
    One oracle listing up to the deepest N serves every shallower one; on
    the posets with n <= 5 it is `conftest.small_vectors`."""

    FLAVORS = ("weak", "standard", "strict")

    def _check(self, P, Ns, listing=None):
        """listing: {flavor: the oracle's vectors up to some N >= max(Ns)}."""
        for flavor in self.FLAVORS:
            vectors = listing[flavor] if listing else enumerate_by_assignment(P, flavor, max(Ns))
            oracle = [(f, nu(P, f)) for f in vectors if sum(f) <= max(Ns)]
            for N in Ns:
                expect = [(f, c) for f, c in oracle if sum(f) <= N]
                assert enumerate_partitions(P, flavor, N) == [f for f, _ in expect], (P, flavor, N)
                assert _walk(P, flavor, N) == Counter(expect), (P, flavor, N)

    def test_every_small_poset(self, small_vectors):
        for P, by_flavor in small_vectors.items():
            self._check(P, (0, 1, 4), {flavor: short for flavor, (_, short) in by_flavor.items()})

    def test_random_posets(self):
        for P in random_posets(19, 40, (6, 7, 8)):
            self._check(P, (5,))

    def test_fixtures(self):
        for P in (P1, P2, P3, FORB1, FORB2, FORB3, BOWTIE, EX33, FIG1):
            self._check(P, (6,))


class TestNeedBeyondN:
    """Every vector has |f| >= |A_1| >= |need(P)|, so when need(P) has
    more than N elements `_levels` builds no ideal but 0 and P, and the
    listing and the count are empty."""

    TREE18_TOP = Poset(18, [(k, k // 2) for k in range(2, 19)])  # standard, strict: need(P) = P - root

    def test_small_posets_and_tree18(self, small_vectors):
        small = {P: {flavor: short for flavor, (_, short) in by_flavor.items()}
                 for P, by_flavor in small_vectors.items() if P.n <= 4}
        beyond = 0
        for P in [*small, self.TREE18_TOP]:
            for flavor in ("weak", "standard", "strict"):
                oracle = small[P][flavor] if P in small else enumerate_by_assignment(P, flavor, 6)
                for N in range(7):
                    levels = _levels(P, flavor, N)
                    expect = [f for f in oracle if sum(f) <= N]
                    assert enumerate_partitions(P, flavor, N) == expect, (P, flavor, N)
                    sizes = Counter(sum(f) for f in expect)
                    assert count_by_size(P, flavor, N) == [sizes[d] for d in range(N + 1)]
                    if levels[-1][P.full_mask].bit_count() > N:
                        beyond += 1
                        assert expect == [] and sum(map(len, levels)) == 2, (P, flavor, N)
        assert beyond > 100


def _sizes_by_enumeration(P, flavor, N):
    """c[d] for d = 0..N the plain way: the vectors of the flavor listed
    by assignment, not by the chains of level ideals the count shares
    with `enumerate_partitions`, and counted by |f|."""
    counts = Counter(sum(f) for f in enumerate_by_assignment(P, flavor, N))
    return [counts[d] for d in range(N + 1)]


class TestCountBySize:
    """count_by_size, by chains of level ideals, against the assignment
    enumeration.  One enumeration up to the deepest N serves every
    shallower one; on the posets with n <= 5 it is the session's weak
    listing sorted into flavors (`conftest.small_vectors`)."""

    FLAVORS = ("weak", "standard", "strict")

    def _check(self, P, Ns, sizes=None):
        """sizes: {flavor: the oracle's counts by size up to max(Ns) or deeper}."""
        for flavor in self.FLAVORS:
            expect = sizes[flavor] if sizes else _sizes_by_enumeration(P, flavor, max(Ns))
            for N in Ns:
                assert count_by_size(P, flavor, N) == expect[: N + 1], (P, flavor, N)

    def test_every_small_poset(self, small_vectors):
        for P, by_flavor in small_vectors.items():
            self._check(P, (0, 1, 5, 9), {flavor: sizes for flavor, (sizes, _) in by_flavor.items()})

    def test_random_posets(self):
        for P in random_posets(15, 40, (6, 7, 8)):
            self._check(P, (0, 1, 5, 9))

    def test_fixtures(self):
        for P in (P1, P2, P3, FORB1, FORB2, FORB3, BOWTIE, EX33, FIG1):
            self._check(P, (0, 1, 5, 9, 12))

    def test_selftest_depth_on_fig1(self):
        # the eq. 3.5 check of `ppart selftest` counts fig1's standard
        # vectors up to the degree of its maj polynomial, 20
        expect = _sizes_by_enumeration(FIG1, "standard", 20)
        assert sum(expect) == 84171
        assert count_by_size(FIG1, "standard", 20) == expect

    def test_unknown_flavor_rejected(self):
        with pytest.raises(FlavorError):
            count_by_size(P2, "bogus", 3)

class TestDelta:
    def test_p3(self):
        d = delta_data(P3)
        assert d.delta == (0, 0, 1)
        assert d.satisfies_labelled_condition
        assert d.maj_p == 1

    def test_p2(self):
        d = delta_data(P2)
        assert not d.satisfies_labelled_condition
        assert d.maj_p is None

    def test_natural_is_zero(self, posets4):
        for P in posets4:
            if is_naturally_labelled(P):
                d = delta_data(P)
                assert d.delta == (0,) * P.n
                assert d.satisfies_labelled_condition
                assert d.maj_p == 0

    def test_principality_both_directions(self, posets4):
        # condition holds: standard vectors are exactly delta + weak;
        # condition fails: the constructed witness is standard with
        # witness - delta not weak
        N = 5
        for P in posets4[::3]:
            d = delta_data(P)
            if d.satisfies_labelled_condition:
                delta = d.delta
                shifted = {
                    tuple(a + b for a, b in zip(delta, g))
                    for g in enumerate_partitions(P, "weak", N - sum(delta))
                }
                standard = {
                    f for f in enumerate_partitions(P, "standard", N)
                }
                assert standard == {s for s in shifted if sum(s) <= N}
            else:
                f = delta_counterexample(P)
                assert f is not None
                assert satisfies(P, f, "standard")
                diff = tuple(a - b for a, b in zip(f, d.delta))
                assert min(diff) >= 0
                assert not satisfies(P, diff, "weak")


class TestStanleyChain:
    def test_chain(self):
        assert stanley_delta_chain(Poset(3, [(1, 2), (2, 3)]))

    def test_ex33(self):
        assert not stanley_delta_chain(EX33)

    def test_p1(self):
        assert stanley_delta_chain(P1)

    def test_matches_the_heights(self, posets_to5):
        for P in posets_to5 + random_posets(27, 200, range(6, 11)):
            assert stanley_delta_chain(P) == stanley_chain_by_heights(P)
