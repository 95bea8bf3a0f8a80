import inspect
import math
import random
import sys
from collections import Counter

import pytest

from ppart import (
    ArgError,
    BuildRecipe,
    CapError,
    ExplosionError,
    FlavorError,
    InstabilityError,
    LabelError,
    NotFWDError,
    Poset,
    TruncSeries,
    classify,
    connected_ideals,
    count_ideals,
    duplication_product,
    enumerate_partitions,
    enumerate_posets,
    hilbert_truncated,
    hook_count,
    hook_formula,
    initial_quotient_hilbert,
    is_naturally_labelled,
    koszul_inverse,
    maj_polynomial,
    numerator_polynomial,
    q_int,
    rational_sum_truncated,
)
from conftest import random_posets
from ppart import extensions, series
from ppart.extensions import DEFAULT_CAP
from ppart.fixtures import BOWTIE, EX33, FIG1, FORB1, FORB2, FORB3, P1, P2, P3
from ppart.partitions import WEAK, _multiset_vector
from ppart.series import _graded, _hook_sizes, _numerator_bounds, normalize_grading

FIXTURES = [P1, P2, P3, FORB1, FORB2, FORB3, BOWTIE, EX33, FIG1]
CHAIN2 = Poset(2, [(1, 2)])
CHAIN3 = Poset(3, [(1, 2), (2, 3)])


def geometric(base_t, base_x, like):
    """1 / (1 - t^a x^e) truncated like `like`."""
    f = like.one_like()
    f.add_term(base_t, base_x, -1)
    return f.inverse()


# -- oracles for the series kernel: the plain algorithms it replaces ------


def naive_mul(a, b):
    """Every term pair multiplied, then the terms above trunc dropped."""
    out = TruncSeries(a.nx, a.trunc, a.has_t, xnames=a.xnames)
    for (t1, x1), c1 in a.coeffs.items():
        for (t2, x2), c2 in b.coeffs.items():
            out.add_term(t1 + t2, [p + q for p, q in zip(x1, x2)], c1 * c2)
    return out


def fixed_point_inverse(s):
    """trunc rounds of inv <- 1 + (1 - a) inv, for a = c0 * s."""
    a = s if s.constant_term() == 1 else -s
    one = a.one_like()
    inv = one
    for _ in range(s.trunc):
        inv = one + naive_mul(one - a, inv)
    return inv if s.constant_term() == 1 else -inv


def truncated_degree(s, t, xs):
    return sum(xs) if s.nx else t


def random_series(rng, nx, has_t, trunc, c0):
    """c0 plus a few random terms of positive truncated degree, with
    exponents small enough that products collide and cancel."""
    s = TruncSeries(nx, trunc, has_t)
    s.add_term(0, (0,) * nx, c0)
    for _ in range(rng.randint(1, 6)):
        t = rng.randint(0, 2) if has_t else 0
        xs = tuple(rng.randint(0, 2) for _ in range(nx))
        if truncated_degree(s, t, xs) > 0:
            s.add_term(t, xs, rng.choice((-2, -1, 1, 2)))
    return s


def assert_canonical(s):
    """No zero coefficient stored and no term above the truncation."""
    assert all(s.coeffs.values())
    assert all(truncated_degree(s, t, xs) <= s.trunc for t, xs in s.coeffs)


SHAPES = [
    pytest.param(0, True, 6, id="nx0-by-t"),
    pytest.param(1, False, 7, id="nx1"),
    pytest.param(1, True, 6, id="nx1-t"),
    pytest.param(3, True, 4, id="nx3-t"),
    pytest.param(3, False, 4, id="nx3"),
]


class TestTruncSeries:
    def test_grading_aliases(self):
        assert normalize_grading("x-multi") == "x"
        assert normalize_grading("(t,x)") == "tx"
        assert normalize_grading("(T,Q)") == "tq"
        with pytest.raises(ArgError):
            normalize_grading("z")

    @pytest.mark.parametrize("name, canonical", [
        ("x-multi", "x"), ("x", "x"),
        ("(t,x)", "tx"), ("tx", "tx"), ("t,x", "tx"),
        ("(t,q)", "tq"), ("tq", "tq"), ("t,q", "tq"),
        ("q", "q"), ("t", "t"),
    ])
    def test_grading_names(self, name, canonical):
        assert normalize_grading(name) == canonical
        assert normalize_grading(name.upper()) == canonical
        # every spelling of a grading yields the same series
        got = hilbert_truncated(P2, "weak", name, 4).to_json()
        assert got == hilbert_truncated(P2, "weak", canonical, 4).to_json()

    def test_t_series_truncates_by_t_degree(self):
        got = hilbert_truncated(CHAIN2, "weak", "t", 3)
        assert got.nx == 0
        assert got.to_json()["trunc_on"] == "t"
        # a 2-chain's two connected ideals are nested: k + 1 multisets of size k
        assert got.coeffs == {(k, ()): k + 1 for k in range(4)}
        got.add_term(4, (), 1)
        assert (4, ()) not in got.coeffs
        x_series = hilbert_truncated(CHAIN2, "weak", "tx", 3)
        assert x_series.to_json()["trunc_on"] == "x"
        assert max(sum(xs) for _, xs in x_series.coeffs) == 3

    def test_mul_truncates(self):
        s = TruncSeries(1, 3)
        s.add_term(0, (2,), 1)
        prod = s * s
        assert prod.coeffs == {}

    def test_inverse(self):
        s = TruncSeries(1, 5)
        s.add_term(0, (0,), 1)
        s.add_term(1, (1,), -1)
        inv = s.inverse()
        assert s * inv == s.one_like()
        assert all(c == 1 for c in inv.coeffs.values())

    def test_inverse_needs_unit(self):
        s = TruncSeries(1, 3)
        s.add_term(0, (0,), 2)
        with pytest.raises(ArgError):
            s.inverse()

    def test_inverse_needs_positive_degree(self):
        # t has x degree 0, so the powers of 1 - t never die out
        s = TruncSeries(1, 3)
        s.add_term(0, (0,), 1)
        s.add_term(1, (0,), -1)
        with pytest.raises(ArgError, match="positive degree"):
            s.inverse()

    @pytest.mark.parametrize("c0", [1, -1])
    @pytest.mark.parametrize("nx, has_t, trunc", SHAPES)
    def test_kernel_matches_oracles(self, nx, has_t, trunc, c0):
        rng = random.Random(1000 * nx + 10 * trunc + 2 * has_t + (c0 > 0))
        for _ in range(20):
            a = random_series(rng, nx, has_t, trunc, c0)
            b = random_series(rng, nx, has_t, trunc, rng.choice((1, -1)))
            products = [a * b, b * a, a * a]
            assert products == [naive_mul(a, b), naive_mul(b, a), naive_mul(a, a)]
            inv = a.inverse()
            assert inv == fixed_point_inverse(a)
            assert a * inv == 1
            for s in products + [inv]:
                assert_canonical(s)

    @pytest.mark.parametrize("nx, has_t, trunc", SHAPES)
    def test_kernel_cancellation(self, nx, has_t, trunc):
        # a * a(-t) has no odd powers of t, and (1 - m)(1 + m) = 1 - m^2
        rng = random.Random(nx + trunc)
        for _ in range(20):
            a = random_series(rng, nx, has_t, trunc, 1)
            for b in (a.substitute_neg_t(), a.one_like() + a.one_like() - a, -a):
                got = a * b
                assert got == naive_mul(a, b)
                assert_canonical(got)
        m = TruncSeries(nx, trunc, has_t)
        m.add_term(1 if has_t else 0, (1,) * nx, 1)
        one = m.one_like()
        got = (one - m) * (one + m)
        assert got == one - naive_mul(m, m)
        assert_canonical(got)

    def test_randomized_ring_axioms(self):
        rng = random.Random(7)
        for _ in range(25):
            series = []
            for _ in range(3):
                s = TruncSeries(2, 4)
                s.add_term(0, (0, 0), 1)
                for _ in range(4):
                    xs = (rng.randint(0, 2), rng.randint(0, 2))
                    if sum(xs) == 0:
                        continue
                    s.add_term(rng.randint(0, 2), xs, rng.randint(-3, 3))
                series.append(s)
            a, b, c = series
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if a.constant_term() == 1:
                assert a * a.inverse() == a.one_like()


class TestHilbert:
    def test_trunc_zero(self):
        assert hilbert_truncated(EX33, "weak", "q", 0) == 1

    def test_p2_weak_q_product_form(self):
        # (1 - q^4) / ((1-q)(1-q^2)^2(1-q^3)) up to q^6
        got = hilbert_truncated(P2, "weak", "q", 6)
        expect = got.one_like()
        expect.add_term(0, (4,), -1)
        for d in (1, 2, 2, 3):
            expect = expect * geometric(0, (d,), got)
        assert got == expect

    def test_ex33_weak_tx_matches_rational_form(self):
        # numerator over the product of (1 - t x^J) for connected J
        N = 12
        got = hilbert_truncated(EX33, "weak", "(t,x)", N)
        g = _ex33_numerator(got)
        denom = got.one_like()
        from ppart import connected_ideals

        for J in connected_ideals(EX33):
            exps = tuple(1 if J >> i & 1 else 0 for i in range(5))
            denom = denom * geometric(1, exps, got)
        assert got == g * denom

    def test_t_grading_matches_tx_collapse(self, posets4):
        # coefficient of t^k counts vectors of the flavor with nu = k;
        # compare with a (t,x) series at a truncation deep enough to
        # cover nu <= 2
        for P in posets4[::13] + [EX33, P2]:
            for flavor in ("weak", "standard", "strict"):
                t_series = hilbert_truncated(P, flavor, "t", 2)
                tx = hilbert_truncated(P, flavor, "(t,x)", 2 * P.n)
                for k in (0, 1, 2):
                    direct = sum(c for (t, _), c in tx.coeffs.items() if t == k)
                    assert t_series.coeffs.get((k, ()), 0) == direct

    @pytest.mark.parametrize("grading", ["x", "tx", "q", "tq", "t"])
    def test_unknown_flavor_rejected(self, grading):
        with pytest.raises(FlavorError):
            hilbert_truncated(P2, "bogus", grading, 2)

    def test_standard_flavors_nest(self):
        for P in (P2, P3, EX33):
            weak = hilbert_truncated(P, "weak", "q", 6)
            std = hilbert_truncated(P, "standard", "q", 6)
            strict = hilbert_truncated(P, "strict", "q", 6)
            for d in range(7):
                w = weak.coeffs.get((0, (d,)), 0)
                s = std.coeffs.get((0, (d,)), 0)
                t = strict.coeffs.get((0, (d,)), 0)
                assert t <= s <= w


def _q_by_enumeration(P, flavor, N):
    """The q series the plain way: the vectors of the flavor counted by |f|."""
    counts = Counter(sum(f) for f in enumerate_partitions(P, flavor, N))
    return {(0, (d,)): c for d, c in counts.items()}


def _expanded_sizes(monkeypatch):
    """The sizes of the ideals that the (ideal, last) walk expands from
    now on: those whose complements it asks P.minimal_elements for."""
    sizes = []
    walk = extensions.fold_levels

    def counting_walk(P, *args):
        minimal = P.minimal_elements

        def counting(mask):
            sizes.append(P.n - mask.bit_count())
            return minimal(mask)

        monkeypatch.setattr(P, "minimal_elements", counting)
        return walk(P, *args)

    monkeypatch.setattr(extensions, "fold_levels", counting_walk)
    return sizes


class TestStanleyQ:
    """The q grading, W(q) / (q)_n over the (ideal, last) states, against
    the enumeration it replaced, in all three flavors."""

    FLAVORS = ("weak", "standard", "strict")

    def test_every_small_poset(self):
        for n in range(1, 5):
            for P in enumerate_posets(n):
                for flavor in self.FLAVORS:
                    for N in (0, 1, 5, 9):
                        got = hilbert_truncated(P, flavor, "q", N)
                        assert got.coeffs == _q_by_enumeration(P, flavor, N), (P, flavor, N)

    def test_random_posets(self):
        posets = random_posets(11, 40, (5, 6, 7, 8))
        # shuffled labels: most of these are not naturally labelled
        assert sum(not is_naturally_labelled(P) for P in posets) >= 20
        for P in posets:
            for flavor in self.FLAVORS:
                got = hilbert_truncated(P, flavor, "q", 7)
                assert got.coeffs == _q_by_enumeration(P, flavor, 7), (P, flavor)

    def test_fixtures(self):
        for P in FIXTURES:
            for flavor in self.FLAVORS:
                got = hilbert_truncated(P, flavor, "q", 12)
                assert got.coeffs == _q_by_enumeration(P, flavor, 12), (P, flavor)

    def test_antichain_above_the_extension_cap(self, monkeypatch):
        # 14! linear extensions, far above the cap, which the q path never
        # lists; each element is a free part, so the series is 1/(1 - q)^14.
        P = Poset(14)
        assert math.factorial(14) > DEFAULT_CAP
        with pytest.raises(ExplosionError):
            maj_polynomial(P)
        sizes = _expanded_sizes(monkeypatch)
        got = hilbert_truncated(P, "weak", "q", 6)
        assert got.coeffs == {(0, (d,)): math.comb(d + 13, 13) for d in range(7)}
        assert max(sizes) <= 6 + 1
        assert len(sizes) < count_ideals(P)

    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("N", [0, 3, 8])
    def test_walk_stops_at_n_plus_one(self, monkeypatch, flavor, N):
        # two 6-element chains: 49 ideals, of up to 12 elements
        P = Poset(12, [(i, i + 1) for i in (1, 2, 3, 4, 5, 7, 8, 9, 10, 11)])
        sizes = _expanded_sizes(monkeypatch)
        got = hilbert_truncated(P, flavor, "q", N)
        assert sizes and max(sizes) <= N + 1
        monkeypatch.undo()
        assert got.coeffs == _q_by_enumeration(P, flavor, N)

    @pytest.mark.parametrize("flavor, P", [
        # a 10-chain: a strict vector has |f| >= 0 + 1 + ... + 9 = 45
        ("strict", Poset(10, [(i, i + 1) for i in range(1, 10)])),
        # the root-at-top 18-tree, labels falling along every cover: a
        # standard vector has |f| >= the sum of the depths, 46
        ("standard", Poset(18, [(k, k // 2) for k in range(2, 19)])),
    ], ids=["chain10-strict", "tree18-standard"])
    def test_hopeless_states_are_dropped(self, monkeypatch, flavor, P):
        # The least |f| is the least maj its rest can add, so the only
        # state is dropped at the first step.
        sizes = _expanded_sizes(monkeypatch)
        assert hilbert_truncated(P, flavor, "q", 12).coeffs == {}
        assert sizes == [0]


def _ex33_numerator(like):
    g = like.one_like()
    g.add_term(2, (1, 2, 1, 1, 0), -1)
    g.add_term(2, (1, 2, 1, 1, 1), -1)
    g.add_term(2, (2, 2, 2, 1, 1), -1)
    g.add_term(3, (2, 3, 2, 1, 1), 1)
    g.add_term(3, (2, 3, 2, 2, 1), 1)
    return g


class TestRationalSum:
    def test_ex33_tx(self):
        lhs = rational_sum_truncated(EX33, "(t,x)", 10)
        rhs = hilbert_truncated(EX33, "standard", "(t,x)", 10)
        assert lhs == rhs

    def test_chain_q(self):
        got = rational_sum_truncated(CHAIN2, "q", 5)
        assert [got.coeffs.get((0, (d,)), 0) for d in range(6)] == [1, 1, 2, 2, 3, 3]

    def test_p1_q_matches_enumeration(self):
        assert rational_sum_truncated(P1, "q", 4) == hilbert_truncated(
            P1, "standard", "q", 4
        )

    def test_needs_natural_labels(self):
        with pytest.raises(LabelError):
            rational_sum_truncated(P2, "q", 4)


def _numerator_at(P, N):
    """Oracle for the numerator: the weak (t,x) series of enumerated
    P-partitions times prod_J (1 - t x^J), exact in every x degree up to
    its truncation N."""
    h = hilbert_truncated(P, WEAK, "tx", N)
    _, key = _graded(P, "tx", N)
    out = h
    for J in connected_ideals(P):
        out = out * h.one_minus(*key(_multiset_vector(P.n, ((J, 1),)), 1))
    return out


class TestNumerator:
    def test_ex33(self):
        g = numerator_polynomial(EX33, 12)
        assert g == _ex33_numerator(g)

    def test_chain(self):
        assert numerator_polynomial(CHAIN3, 6) == 1

    def test_p1(self):
        g = numerator_polynomial(P1, 8)
        expect = g.one_like()
        expect.add_term(2, (2, 1, 1), -1)
        assert g == expect

    def test_unstable_truncation(self):
        # FIG1's numerator has x-degree 19, far above this truncation
        with pytest.raises(InstabilityError):
            numerator_polynomial(FIG1, 6)

    # Truncations at which the N + 2 probe alone passes although the
    # numerator has a term above N (x degrees 15, 15, 10, 8).
    @pytest.mark.parametrize("P,N", [
        *((FORB2, N) for N in (0, 1, 2, 10, 11, 12)),
        *((FORB3, N) for N in (0, 1, 11, 12)),
        *((EX33, N) for N in (0, 1, 2)),
        *((FORB1, N) for N in (0, 1)),
    ])
    def test_probe_blind_spots_raise(self, P, N):
        with pytest.raises(InstabilityError):
            numerator_polynomial(P, N)

    @pytest.fixture(scope="class")
    def small_posets(self, posets3, posets4):
        return [Poset(1), CHAIN2, Poset(2), *posets3, *posets4]

    def test_degree_bounds(self, small_posets):
        for P in small_posets:
            lo, hi = _numerator_bounds(P)
            g = _numerator_at(P, hi + 2)  # nothing may appear above hi
            degree = max(sum(xs) for _, xs in g.coeffs)
            assert lo <= degree <= hi, P
            if isinstance(classify(P), BuildRecipe):
                assert hi == sum(_hook_sizes(P)[0]), P

    def test_exact_or_raises(self, small_posets):
        cases = [(P, (0, 4, 5, 6, 8, 12)) for P in small_posets]
        cases += [
            (P, (0, 1, 2, 4, 6, 8, 10, 11, 12, 14, 20))
            for P in random_posets(5, 30, (5, 6))
            + [FIG1, EX33, P1, P2, P3, FORB1, FORB2, FORB3, BOWTIE]
        ]
        for P, truncations in cases:
            exact = _numerator_at(P, _numerator_bounds(P)[1])
            degree = max(sum(xs) for _, xs in exact.coeffs)
            for N in truncations:
                if degree > N:
                    with pytest.raises(InstabilityError):
                        numerator_polynomial(P, N)
                else:
                    assert numerator_polynomial(P, N) == exact, (P, N)

    def test_one_path(self, monkeypatch):
        # g comes from Pi alone: no classification, no enumeration
        def forbidden(*args):
            raise AssertionError("numerator_polynomial must not call this")

        for name in ("classify", "hilbert_truncated", "enumerate_partitions"):
            monkeypatch.setattr(series, name, forbidden)
        g = numerator_polynomial(EX33, 12)
        assert g == _ex33_numerator(g)
        assert len(numerator_polynomial(FIG1, 20).coeffs) == 4

    def test_deep_recursion_is_a_cap_error(self):
        # The recursion is as deep as the non-cone ideals along its S - v
        # chain; past the interpreter's limit it ends in a CapError, never
        # a RecursionError.  A low limit stands in for a large poset.
        tree = Poset(8, [(k // 2, k) for k in range(2, 9)])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 30)
        try:
            with pytest.raises(CapError, match="over 33 non-cone"):
                numerator_polynomial(tree, 20)
        finally:
            sys.setrecursionlimit(limit)
        with pytest.raises(InstabilityError):  # the result at the full limit
            numerator_polynomial(tree, 20)


class TestHook:
    def test_fig1(self):
        expect = q_int(2).substitute_power(7) * q_int(5) * q_int(5) * q_int(6)
        assert hook_formula(FIG1) == expect
        assert hook_count(FIG1) == 300

    def test_p1(self):
        assert hook_formula(P1).coeffs == (1, 0, 1)

    def test_p3_count_only(self):
        assert hook_count(P3) == 2
        with pytest.raises(LabelError):
            hook_formula(P3)

    def test_not_fwd(self):
        with pytest.raises(NotFWDError):
            hook_formula(EX33)
        with pytest.raises(NotFWDError):
            hook_count(EX33)


class TestDuplicationProduct:
    def test_fig1_q(self):
        r = classify(FIG1)
        assert duplication_product(FIG1, r, "q", 10) == hilbert_truncated(
            FIG1, "weak", "q", 10
        )

    def test_single_element(self):
        P = Poset(1, [])
        r = classify(P)
        got = duplication_product(P, r, "(t,x)", 5)
        assert got == geometric(1, (1,), got)

    def test_p1_tx(self):
        r = classify(P1)
        got = duplication_product(P1, r, "(t,x)", 6)
        expect = got.one_like()
        expect.add_term(2, (2, 1, 1), -1)
        for exps in ((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)):
            expect = expect * geometric(1, exps, got)
        assert got == expect

    def test_rejects_witness(self):
        w = classify(EX33)
        with pytest.raises(NotFWDError):
            duplication_product(EX33, w, "q", 4)


class TestKoszul:
    def test_p1(self):
        _, ok = koszul_inverse(P1, 6)
        assert ok

    def test_ex33(self):
        _, ok = koszul_inverse(EX33, 8)
        assert ok

    @pytest.mark.parametrize("P", [
        pytest.param(Poset(8, []), id="antichain8"),
        # one bottom element covered by eight pairwise incomparable ones
        pytest.param(Poset(9, [(1, k) for k in range(2, 10)]), id="claw9"),
    ])
    def test_cor_1_5_wide(self, P):
        inv, ok = koszul_inverse(P, 6)
        assert ok is True
        h = hilbert_truncated(P, "weak", "tx", 6)
        assert inv * h.substitute_neg_t() == 1

    def test_antichain2_closed_form(self):
        P = Poset(2, [])
        inv, ok = koszul_inverse(P, 4)
        assert ok
        expect = inv.one_like()
        expect.add_term(1, (1, 0), 1)
        expect.add_term(1, (0, 1), 1)
        expect.add_term(2, (1, 1), 1)
        assert inv == expect


class TestInitialQuotient:
    def test_matches_weak_series(self):
        for P in (P1, P2, P3, EX33, CHAIN3):
            assert initial_quotient_hilbert(P, "x-multi", 6) == hilbert_truncated(
                P, "weak", "x-multi", 6
            )

    @pytest.mark.parametrize("grading", ["tx", "tq"])
    def test_graded_prop_6_2(self, posets4, grading):
        # Prop 6.2 keeps nu: a weak vector's multiset has size nu(f)
        for P in posets4:
            assert initial_quotient_hilbert(P, grading, 6) == hilbert_truncated(
                P, "weak", grading, 6
            ), sorted(P.covers)
