import inspect
import itertools
import math
import random
import sys
import time
from collections import Counter
from functools import reduce
from operator import or_

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
    QPolynomial,
    TruncSeries,
    ci_test_counts,
    clashes,
    classify,
    connected_ideals,
    count_ideals,
    delta_complex,
    hasse_components,
    duplication_product,
    enumerate_partitions,
    enumerate_posets,
    hilbert_truncated,
    hook_count,
    hook_formula,
    initial_quotient_hilbert,
    is_ideal,
    is_naturally_labelled,
    koszul_inverse,
    maj_polynomial,
    natural_relabel,
    nontrivial_pairs,
    numerator_polynomial,
    q_int,
    rational_sum_truncated,
    trivially_intersecting,
)
from cli_golden import run_cli
from conftest import (
    add_terms,
    codec_of,
    graded_key,
    inverse_by_tuples,
    level_chains_by_tuples,
    mul_by_tuples,
    one_minus,
    over_one_minus,
    packed,
    plus,
    plus_times,
    random_fwd_poset,
    random_posets,
    specialized,
    t_by_face_filter,
    t_series_by_walk,
    times_one_minus,
    trivial_multisets_by_tuples,
    truncated,
    unpacked,
)
from ppart import extensions, partitions, series
from ppart.extensions import DEFAULT_CAP, maj_coefficients
from ppart.fixtures import BOWTIE, EX33, FIG1, FORB1, FORB2, FORB3, P1, P2, P3
from ppart.partitions import FLAVORS, WEAK, _Monomials, _multiset_vector, _strict_covers
from ppart.series import (
    _graded,
    _hilbert_walk,
    _hook_sizes,
    _koszul_walk,
    _numerator_bounds,
    _over_one_minus,
    _plus_times,
    _stanley_q,
    _times_one_minus,
    normalize_grading,
)

FIXTURES = [P1, P2, P3, FORB1, FORB2, FORB3, BOWTIE, EX33, FIG1]
CHAIN2 = Poset(2, [(1, 2)])
CHAIN3 = Poset(3, [(1, 2), (2, 3)])


def geometric(base_t, base_x, like):
    """1 / (1 - t^a x^e) truncated like `like`."""
    return add_terms(like.one_like(), [(base_t, base_x, -1)]).inverse()


# -- oracles for the series kernel: the plain algorithms it replaces ------


def naive_mul(a, b):
    """Every term pair multiplied, then the terms above trunc dropped."""
    out = TruncSeries(a.nx, a.trunc, a.has_t, xnames=a.xnames)
    return add_terms(out, [(t1 + t2, [p + q for p, q in zip(x1, x2)], c1 * c2)
                           for (t1, x1), c1 in a.coeffs.items()
                           for (t2, x2), c2 in b.coeffs.items()])


def fixed_point_inverse(s):
    """trunc rounds of inv <- 1 + (1 - a) inv, for a = c0 * s."""
    c0, zero = s.coeffs[0, (0,) * s.nx], TruncSeries(s.nx, s.trunc, s.has_t)
    a = plus(zero, s, c0)
    one = a.one_like()
    inv = one
    for _ in range(s.trunc):
        inv = plus(one, naive_mul(plus(one, a, -1), inv))
    return plus(zero, inv, c0)


def truncated_degree(s, t, xs):
    return sum(xs) if s.nx else t


def random_series(rng, nx, has_t, trunc, c0):
    """c0 plus a few random terms of positive truncated degree, with
    exponents small enough that products collide and cancel."""
    s = add_terms(TruncSeries(nx, trunc, has_t), [(0, (0,) * nx, c0)])
    for _ in range(rng.randint(1, 6)):
        t = rng.randint(0, 2) if has_t else 0
        xs = tuple(rng.randint(0, 2) for _ in range(nx))
        if truncated_degree(s, t, xs) > 0:
            add_terms(s, [(t, xs, rng.choice((-2, -1, 1, 2)))])
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
        x_series = hilbert_truncated(CHAIN2, "weak", "tx", 3)
        assert x_series.to_json()["trunc_on"] == "x"
        assert max(sum(xs) for _, xs in x_series.coeffs) == 3

    def test_builds_no_series(self):
        # tests write .coeffs (conftest.add_terms); no engine adds terms one by one
        assert not hasattr(TruncSeries, "add_term")
        assert not hasattr(TruncSeries, "constant_term")

    def test_mul_truncates(self):
        s = add_terms(TruncSeries(1, 3), [(0, (2,), 1)])
        prod = s * s
        assert prod.coeffs == {}

    def test_inverse(self):
        s = add_terms(TruncSeries(1, 5), [(0, (0,), 1), (1, (1,), -1)])
        inv = s.inverse()
        assert s * inv == s.one_like()
        assert all(c == 1 for c in inv.coeffs.values())

    def test_inverse_needs_unit(self):
        s = add_terms(TruncSeries(1, 3), [(0, (0,), 2)])
        with pytest.raises(ArgError):
            s.inverse()

    def test_inverse_needs_positive_degree(self):
        # t has x degree 0, so the powers of 1 - t never die out
        s = add_terms(TruncSeries(1, 3), [(0, (0,), 1), (1, (0,), -1)])
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
            assert products == [mul_by_tuples(a, b), mul_by_tuples(b, a), mul_by_tuples(a, a)]
            inv = a.inverse()
            assert inv == fixed_point_inverse(a) == inverse_by_tuples(a)
            assert a * inv == 1
            for s in products + [inv]:
                assert_canonical(s)

    @pytest.mark.parametrize("nx, has_t, trunc", SHAPES)
    def test_kernel_cancellation(self, nx, has_t, trunc):
        # a * a(-t) has no odd powers of t, and (1 - m)(1 + m) = 1 - m^2
        rng = random.Random(nx + trunc)
        for _ in range(20):
            a = random_series(rng, nx, has_t, trunc, 1)
            one, zero = a.one_like(), TruncSeries(nx, trunc, has_t)
            for b in (a.substitute_neg_t(), plus(plus(one, one), a, -1), plus(zero, a, -1)):
                got = a * b
                assert got == naive_mul(a, b)
                assert_canonical(got)
        m = add_terms(TruncSeries(nx, trunc, has_t), [(1 if has_t else 0, (1,) * nx, 1)])
        one = m.one_like()
        got = plus(one, m, -1) * plus(one, m)
        assert got == plus(one, naive_mul(m, m), -1)
        assert_canonical(got)

    def test_randomized_ring_axioms(self):
        rng = random.Random(7)
        for _ in range(25):
            series = []
            for _ in range(3):
                s = add_terms(TruncSeries(2, 4), [(0, (0, 0), 1)])
                for _ in range(4):
                    xs = (rng.randint(0, 2), rng.randint(0, 2))
                    if sum(xs) == 0:
                        continue
                    add_terms(s, [(rng.randint(0, 2), xs, rng.randint(-3, 3))])
                series.append(s)
            a, b, c = series
            assert (a * b) * c == a * (b * c)
            assert a * plus(b, c) == plus(a * b, a * c)
            if a.coeffs.get((0, (0, 0))) == 1:
                assert a * a.inverse() == a.one_like()


class TestPackedMonomials:
    """The codec of `partitions._Monomials` and the series kernels at the
    edges of its layout: the field width that holds 2 * trunc, and the
    unbounded t field on top."""

    @pytest.mark.parametrize("trunc, size", [(127, 1), (128, 2)])
    def test_field_width_step(self, trunc, size):
        # 2 * 127 fits a byte, 2 * 128 does not
        codec = _Monomials(3, trunc)
        assert codec.fields.size == 3 * size
        for xs in ((2 * trunc, 0, 0), (0, trunc, trunc), (1, 0, 2 * trunc - 1)):
            k = codec.pack(5, xs)
            assert codec.unpack(k) == (5, xs) and k >> codec.shift & codec.mask == 2 * trunc
        # 1 / (1 - x1 - x2) has C(a + b, a) at x1^a x2^b, up to a + b = trunc
        s = add_terms(TruncSeries(2, trunc, has_t=False),
                      [(0, (0, 0), 1), (0, (1, 0), -1), (0, (0, 1), -1)])
        inv = s.inverse()
        assert inv.coeffs == {(0, (a, d - a)): math.comb(d, a)
                              for d in range(trunc + 1) for a in range(d + 1)}
        assert s * inv == 1
        # weak vectors f1 >= f2 of the 2-chain, t^f1 x1^f1 x2^f2, up to f1 + f2 = trunc
        expect = {(a, (a, b)): 1 for a in range(trunc + 1) for b in range(a + 1) if a + b <= trunc}
        for got in (hilbert_truncated(CHAIN2, "weak", "tx", trunc),
                    rational_sum_truncated(CHAIN2, "tx", trunc),
                    initial_quotient_hilbert(CHAIN2, "tx", trunc),
                    duplication_product(CHAIN2, classify(CHAIN2), "tx", trunc)):
            assert got.coeffs == expect

    @pytest.mark.parametrize("nx", [1, 2])
    def test_t_exponents_past_two_bytes(self, nx):
        big = 1 << 16
        rng = random.Random(nx)
        a, b = TruncSeries(nx, 4), TruncSeries(nx, 4)
        for s in (a, b):
            add_terms(s, [(0, (0,) * nx, 1)])
            for _ in range(5):
                xs = tuple(rng.randint(0, 2) for _ in range(nx))
                if sum(xs):
                    t = big * rng.randint(1, 3) + rng.randint(0, 1)
                    add_terms(s, [(t, xs, rng.choice((-1, 1)))])
        assert max(t for t, _ in (a * b).coeffs) >= 2 * big
        assert a * b == naive_mul(a, b) == mul_by_tuples(a, b)
        assert a.inverse() == fixed_point_inverse(a) == inverse_by_tuples(a)
        # 1 / (1 - t^big x1) = sum of t^(big d) x1^d
        g = geometric(big, (1,) + (0,) * (nx - 1), a)
        assert g.coeffs == {(big * d, (d,) + (0,) * (nx - 1)): 1 for d in range(5)}


def _monomial(like, t, xs):
    return add_terms(TruncSeries(like.nx, like.trunc, like.has_t), [(t, xs, 1)])


def _random_monomials(rng, nx, has_t, trunc):
    """Keys of positive degree, up to one above the truncation."""
    out = []
    while len(out) < 4:
        t = rng.randint(0, 2) if has_t else 0
        xs = tuple(rng.randint(0, 2) for _ in range(nx))
        if 0 < (sum(xs) if nx else t) <= trunc + 1:
            out.append((t, xs))
    above = (0, (trunc + 1,) + (0,) * (nx - 1)) if nx else (trunc + 1, ())
    return out + [above]


class TestOneMinusKernels:
    """Multiplying and dividing by 1 - m in place against the series
    products they replace and against the tuple-key kernels, in the
    shapes of the x, (t,x), q, (t,q) and t gradings; the kernels read and
    write packed monomials, so each call packs its input and unpacks its
    result."""

    @pytest.mark.parametrize("nx, has_t, trunc", SHAPES)
    def test_match_products(self, nx, has_t, trunc):
        rng = random.Random(31 * nx + trunc + has_t)
        for _ in range(15):
            c = random_series(rng, nx, has_t, trunc, rng.choice((0, 1, -2)))
            codec = codec_of(c)
            pc = packed(c.coeffs, codec)
            for m in _random_monomials(rng, nx, has_t, trunc):
                pm = codec.pack(*m)
                times_m = naive_mul(c, _monomial(c, *m))
                got = unpacked(_plus_times({}, pc, pm, codec, sign=1), codec)
                assert got == times_m.coeffs == plus_times({}, c.coeffs, m, trunc, sign=1), m
                acc = unpacked(_plus_times(dict(pc), pc, pm, codec, sign=1), codec)
                assert {k: v for k, v in acc.items() if v} == plus(c, times_m).coeffs, m
                over = c * one_minus(c, m).inverse()
                got = unpacked(_times_one_minus(pc, pm, codec), codec)
                assert got == (c * one_minus(c, m)).coeffs == times_one_minus(c.coeffs, m, trunc), m
                got = unpacked(_over_one_minus(pc, pm, codec), codec)
                assert got == over.coeffs == over_one_minus(c.coeffs, m, trunc), m
                shifted = unpacked(_over_one_minus(pc, pm, codec, shift=True), codec)
                assert shifted == (over * _monomial(c, *m)).coeffs, m
                assert shifted == plus(over, c, -1).coeffs, m
                assert shifted == over_one_minus(c.coeffs, m, trunc, shift=True), m

    @pytest.mark.parametrize("nx, has_t, trunc", SHAPES)
    def test_cancellation_stores_no_zero(self, nx, has_t, trunc):
        one = TruncSeries(nx, trunc, has_t).one_like()
        codec = codec_of(one)

        def over(c, m, shift=False):
            return unpacked(_over_one_minus(packed(c, codec), codec.pack(*m), codec, shift), codec)

        def times(c, m):
            return unpacked(_times_one_minus(packed(c, codec), codec.pack(*m), codec), codec)

        m = (int(has_t), (1,) + (0,) * (nx - 1)) if nx else (1, ())  # of degree 1
        m2 = (2 * m[0], tuple(2 * e for e in m[1]))
        geometric_m = one_minus(one, m).inverse().coeffs
        assert over(one_minus(one, m).coeffs, m) == one.coeffs
        assert times(geometric_m, m) == one.coeffs
        # (1 - m^2) / (1 - m) = 1 + m: every power from m^2 up cancels in the pass
        one_minus_m2 = {**one.coeffs, m2: -1}
        assert over(one_minus_m2, m) == {**one.coeffs, m: 1}
        assert over(one_minus_m2, m, shift=True) == {m: 1, m2: 1}
        assert times({**one.coeffs, m: 1}, m) == one_minus_m2

    @pytest.mark.parametrize("nx, has_t, trunc", SHAPES)
    def test_degree_zero_raises(self, nx, has_t, trunc):
        one = TruncSeries(nx, trunc, has_t).one_like()
        codec = codec_of(one)
        zero_degree = [(0, (0,) * nx)] + ([(1, (0,) * nx)] if has_t and nx else [])
        for m in zero_degree:
            for kernel in (_times_one_minus, _over_one_minus):
                with pytest.raises(ArgError, match="positive degree"):
                    kernel(packed(one.coeffs, codec), codec.pack(*m), codec)

    @pytest.mark.parametrize("P, N", [
        pytest.param(FIG1, 20, id="fig1"),
        pytest.param(EX33, 12, id="ex33"),
        pytest.param(P1, 8, id="p1"),
    ])
    def test_no_series_product(self, monkeypatch, P, N):
        # the rational sum, the duplication product and the numerator at
        # a truncation N it is exact at work in place: none multiplies or
        # inverts a TruncSeries
        gradings = ("x", "tx", "q", "tq", "t")
        calls = [(rational_sum_truncated, (P, g, 5)) for g in gradings]
        calls.append((numerator_polynomial, (P, N)))
        if isinstance(r := classify(P), BuildRecipe):
            calls += [(duplication_product, (P, r, g, 8)) for g in gradings]
        expected = [f(*args).to_json() for f, args in calls]

        def forbidden(*args):
            raise AssertionError("a TruncSeries product or inverse")

        for name in ("inverse", "__mul__"):
            monkeypatch.setattr(series.TruncSeries, name, forbidden)
        assert [f(*args).to_json() for f, args in calls] == expected


class TestHilbert:
    def test_trunc_zero(self):
        assert hilbert_truncated(EX33, "weak", "q", 0) == 1

    def test_negative_truncation_raises(self):
        # one check in `_graded` covers every truncated series, in every grading;
        # the numerator checks N itself, before its degree bounds
        calls = [(koszul_inverse, (FIG1, -1)), (numerator_polynomial, (CHAIN3, -1)),
                 (numerator_polynomial, (FIG1, -1))]
        for g in ("x", "tx", "q", "tq", "t"):
            calls += [(hilbert_truncated, (FIG1, "weak", g, -1)),
                      (initial_quotient_hilbert, (FIG1, g, -1)),
                      (rational_sum_truncated, (FIG1, g, -1)),
                      (duplication_product, (FIG1, classify(FIG1), g, -1))]
        for f, args in calls:
            with pytest.raises(ArgError, match="negative truncation -1"):
                f(*args)

    def test_p2_weak_q_product_form(self):
        # (1 - q^4) / ((1-q)(1-q^2)^2(1-q^3)) up to q^6
        got = hilbert_truncated(P2, "weak", "q", 6)
        expect = add_terms(got.one_like(), [(0, (4,), -1)])
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


def _expanded_sizes(monkeypatch, P=None):
    """The sizes of the ideals that an (ideal, last) walk expands from
    now on: those whose complements it asks P.minimal_elements for.
    With P, the walk of `rational_sum_truncated` on P; without, each
    walk of `fold_extensions` (`maj_coefficients`), on its own poset."""
    sizes = []

    def watch(P):
        minimal = P.minimal_elements

        def counting(mask):
            sizes.append(P.n - mask.bit_count())
            return minimal(mask)

        monkeypatch.setattr(P, "minimal_elements", counting)

    if P is not None:
        watch(P)
        return sizes
    walk = extensions.fold_extensions

    def counting_walk(P, *args):
        watch(P)
        return walk(P, *args)

    monkeypatch.setattr(extensions, "fold_extensions", counting_walk)
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
        got = _stanley_q(P, "weak", 6)
        assert got == {(0, (d,)): math.comb(d + 13, 13) for d in range(7)}
        assert max(sizes) <= 6 + 1
        assert len(sizes) < count_ideals(P)

    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("N", [0, 3, 8])
    def test_walk_stops_at_n_plus_one(self, monkeypatch, flavor, N):
        # two 6-element chains: 49 ideals, of up to 12 elements
        P = Poset(12, [(i, i + 1) for i in (1, 2, 3, 4, 5, 7, 8, 9, 10, 11)])
        sizes = _expanded_sizes(monkeypatch)
        got = _stanley_q(P, flavor, N)
        assert sizes and max(sizes) <= N + 1
        monkeypatch.undo()
        assert got == _q_by_enumeration(P, flavor, N)

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
    return add_terms(like.one_like(), [
        (2, (1, 2, 1, 1, 0), -1), (2, (1, 2, 1, 1, 1), -1), (2, (2, 2, 2, 1, 1), -1),
        (3, (2, 3, 2, 1, 1), 1), (3, (2, 3, 2, 2, 1), 1)])


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

    @pytest.mark.parametrize("N", [0, 3, 8, 12])
    def test_fold_stops_at_n_plus_one(self, monkeypatch, N):
        # two 6-element chains: with an x variable no factor past |I| = N
        # counts, so no ideal of more than N elements is expanded; the t
        # grading is truncated by t degree and expands every level
        P = Poset(12, [(i, i + 1) for i in (1, 2, 3, 4, 5, 7, 8, 9, 10, 11)])
        for grading in ("x", "tx", "q", "tq", "t"):
            sizes = _expanded_sizes(monkeypatch, P)
            got = rational_sum_truncated(P, grading, N)
            monkeypatch.undo()
            assert max(sizes) == (P.n - 1 if grading == "t" else min(P.n - 1, N)), grading
            assert got == hilbert_truncated(P, "standard", grading, N), grading

    def test_antichain_above_the_extension_cap(self, monkeypatch):
        # 14! extensions, but the x fold stops at |I| = 5; the series is
        # prod 1 / (1 - x_i), every monomial of degree <= 4 once
        P = Poset(14)
        sizes = _expanded_sizes(monkeypatch, P)
        got = rational_sum_truncated(P, "x", 4)
        assert max(sizes) == 4
        assert len(got.coeffs) == math.comb(18, 4) == 3060
        assert set(got.coeffs.values()) == {1}

    @pytest.mark.parametrize("P, grading, N", [
        (Poset(8), "t", 12),
        (natural_relabel(Poset(9, [(1, k) for k in range(2, 10)]))[0], "(t,q)", 12),
        (FIG1, "(t,x)", 6),
    ], ids=["antichain8-t", "claw9-tq", "fig1-tx"])
    def test_one_division_per_ideal(self, monkeypatch, P, grading, N):
        # the edges out of the states of an ideal I sum to A_p + m T / (1 - m),
        # so each nonempty expanded ideal divides once, and the full ideal's
        # factor once more, however many states (I, last) it has
        divisions = []

        def counting(*args, **kwargs):
            divisions.append(args)
            return _over_one_minus(*args, **kwargs)

        monkeypatch.setattr(series, "_over_one_minus", counting)
        sizes = _expanded_sizes(monkeypatch, P)
        got = rational_sum_truncated(P, grading, N)
        monkeypatch.undo()
        assert len(divisions) == sum(1 for k in sizes if k) + 1
        assert got == _rational_sum_by_tuples(P, grading, N)

    @pytest.mark.parametrize("P, gradings, N", [
        (Poset(8), ("t", "tx"), 4),
        (natural_relabel(Poset(9, [(1, k) for k in range(2, 10)]))[0], ("(t,q)",), 12),
    ] + [(natural_relabel(P)[0], ("x", "tx", "q", "tq", "t"), 6)
         for P in random_posets(34, 12, (8, 9), p=0.15)],
        ids=["antichain8", "claw9"] + [f"random{i}" for i in range(12)])
    def test_wide_posets_against_the_state_fold(self, P, gradings, N):
        # many states (I, last) per ideal, so many edges share each division
        for grading in gradings:
            start = time.perf_counter()
            got = rational_sum_truncated(P, grading, N)
            assert time.perf_counter() - start < 2, grading
            assert got == _rational_sum_by_tuples(P, grading, N), grading


def _numerator_at(P, N):
    """Oracle for the numerator: the weak (t,x) series of enumerated
    P-partitions times prod_J (1 - t x^J), exact in every x degree up to
    its truncation N."""
    h = hilbert_truncated(P, WEAK, "tx", N)
    _, key = graded_key(P, "tx", N)
    out = h
    for J in connected_ideals(P):
        out = out * one_minus(h, key(_multiset_vector(P.n, ((J, 1),)), 1))
    return out


class TestNumerator:
    def test_ex33(self):
        g = numerator_polynomial(EX33, 12)
        assert g == _ex33_numerator(g)

    def test_chain(self):
        assert numerator_polynomial(CHAIN3, 6) == 1

    def test_p1(self):
        g = numerator_polynomial(P1, 8)
        expect = add_terms(g.one_like(), [(2, (2, 1, 1), -1)])
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

        for name in ("ci_test_counts", "hilbert_truncated", "_level_chains"):
            monkeypatch.setattr(series, name, forbidden)
        g = numerator_polynomial(EX33, 12)
        assert g == _ex33_numerator(g)
        assert len(numerator_polynomial(FIG1, 20).coeffs) == 4

    def test_bounds_match_pairwise_loop(self, small_posets):
        def pairwise_bounds(P):  # the bounds as computed before the clash masks
            lo, in_pairs = 0, set()
            for j1, j2 in itertools.combinations(connected_ideals(P), 2):
                if not trivially_intersecting(j1, j2):
                    lo = max(lo, j1.bit_count() + j2.bit_count())
                    in_pairs.update((j1, j2))
            return lo, sum(J.bit_count() for J in in_pairs)

        for P in small_posets + random_posets(8, 40, (5, 6, 7, 8)):
            assert _numerator_bounds(P) == pairwise_bounds(P), P

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

    def test_cancelled_factors_match_maj_fold(self, posets3, posets4, posets5):
        # The factors shared by numerator and denominator cancel before any
        # product; the quotient must still be the maj generating polynomial.
        small = [P for n in (1, 2) for P in enumerate_posets(n)] + posets3 + posets4 + posets5
        rng = random.Random(30)
        forests = [random_fwd_poset(rng, n) for n in range(6, 13) for _ in range(4)]
        for P in [P for P, _ in _fwd(small)] + forests:
            Q, _ = natural_relabel(P)
            want = QPolynomial(maj_coefficients(Q, Q.n * (Q.n - 1) // 2))
            assert hook_formula(Q) == want, P

    def test_not_fwd(self):
        with pytest.raises(NotFWDError):
            hook_formula(EX33)
        with pytest.raises(NotFWDError):
            hook_count(EX33)


def _duplication_by_products(P, grading, N):
    """Oracle for the duplication product: a series product by 1 - m per
    pair of Pi and by the inverse of 1 - m per connected ideal."""
    out, key = graded_key(P, grading, N)
    out = out.one_like()
    for pr in nontrivial_pairs(P):
        out = out * one_minus(out, key(_multiset_vector(P.n, ((pr.j1, 1), (pr.j2, 1))), 2))
    for J in connected_ideals(P):
        out = out * one_minus(out, key(_multiset_vector(P.n, ((J, 1),)), 1)).inverse()
    return out


def _fwd(posets):
    return [(P, r) for P in posets if isinstance(r := classify(P), BuildRecipe)]


class TestDuplicationProduct:
    """The in-place passes against the series products they replace."""

    GRADINGS = ("x", "tx", "q", "tq", "t")

    def _check(self, fwd, Ns, products=GRADINGS):
        """Each grading against one product at the deepest N, since a
        truncated product is exact in every degree up to its truncation.
        A grading with an x variable but no product of its own is checked
        against the (t,x) product specialized to it."""
        for P, r in fwd:
            want = {g: _duplication_by_products(P, g, max(Ns)) for g in products}
            for grading in self.GRADINGS:
                if grading not in want:
                    want[grading] = specialized(want["tx"], P, grading)
                for N in Ns:
                    got = duplication_product(P, r, grading, N)
                    assert (got.trunc, got) == (N, truncated(want[grading], N)), (P, grading, N)

    def test_every_small_fwd_poset(self, posets3, posets4, posets5):
        # 2596 of the 4231 posets on 5 elements are forests with duplications
        small = [P for n in (1, 2) for P in enumerate_posets(n)] + posets3 + posets4 + posets5
        self._check(_fwd(small), (3,), products=("tx", "t"))

    def test_random_fwd_posets(self):
        fwd = _fwd(random_posets(23, 200, (6, 7, 8)))[:20]
        assert len(fwd) == 20
        self._check(fwd, (0, 1, 6))

    def test_fwd_fixtures(self):
        fwd = _fwd(FIXTURES)
        assert len(fwd) == 5
        self._check(fwd, (0, 1, 6, 10))

    def test_fig1_q(self):
        r = classify(FIG1)
        assert duplication_product(FIG1, r, "q", 10).coeffs == _stanley_q(FIG1, "weak", 10)

    def test_single_element(self):
        P = Poset(1, [])
        r = classify(P)
        got = duplication_product(P, r, "(t,x)", 5)
        assert got == geometric(1, (1,), got)

    def test_p1_tx(self):
        r = classify(P1)
        got = duplication_product(P1, r, "(t,x)", 6)
        expect = add_terms(got.one_like(), [(2, (2, 1, 1), -1)])
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
        h = _hilbert_walk(P, "weak", "tx", 6)
        assert inv * h.substitute_neg_t() == 1

    def test_packed_inverse_matches_the_series_inverse(self, posets_to5):
        # the walk's packed terms, t -> -t and inverted without unpacking,
        # against the series composition they replace
        cases = [(P, N) for P in posets_to5 for N in (0, 1, 4)]
        for P, N in cases + [(P, N) for P in FIXTURES for N in (0, 4, 6)]:
            want = _hilbert_walk(P, "weak", "tx", N).substitute_neg_t().inverse()
            assert _koszul_walk(P, N) == (want, want.is_nonnegative()), (P, N)

    def test_antichain2_closed_form(self):
        P = Poset(2, [])
        inv, ok = koszul_inverse(P, 4)
        assert ok
        expect = add_terms(inv.one_like(), [(1, (1, 0), 1), (1, (0, 1), 1), (2, (1, 1), 1)])
        assert inv == expect


class TestCIRoutes:
    """On a complete intersection (a forest with duplications) the weak
    series, and the standard one of a naturally labelled poset, the Koszul
    inverse and the maj polynomial take the product formulas; each against
    the walk it replaces there, called by name.  The posets are fresh
    copies, so the gate runs the count test rather than reading a kept
    classification.  Each walk runs once, at the deepest N: a truncated
    answer is exact up to its truncation."""

    GRADINGS = ("q", "t", "tq", "x", "tx")

    def _check(self, P, Ns=(0, 3, 6), koszul=(0, 1, 2, 3, 4)):
        P = Poset(P.n, sorted(P.covers))
        natural = is_naturally_labelled(P)
        for g in self.GRADINGS:
            # on a naturally labelled P no cover drops strictly in either
            # flavor, so the two walks are one
            want = _hilbert_walk(P, "weak", g, max(Ns))
            for flavor in ("weak", "standard") if natural else ("weak",):
                for N in Ns:
                    got = hilbert_truncated(P, flavor, g, N)
                    assert got == truncated(want, N), (P, flavor, g, N)
        want, _ = _koszul_walk(P, max(koszul))
        for N in koszul:
            inv = truncated(want, N)
            assert koszul_inverse(P, N) == (inv, inv.is_nonnegative()), (P, N)
        if natural:
            assert maj_polynomial(P) == QPolynomial(maj_coefficients(P, P.n * (P.n - 1) // 2)), P
        assert series.ci_test_counts(P)

    def test_every_small_fwd_poset(self, posets_to5):
        fwd = _fwd(posets_to5)
        assert len(fwd) == 1 + 3 + 19 + 191 + 2596
        for P, _ in fwd:
            self._check(P)

    def test_random_fwd_posets(self):
        rng = random.Random(31)
        for n in (6, 7, 8, 9):
            for _ in range(6):
                P = random_fwd_poset(rng, n)
                self._check(P)
                self._check(natural_relabel(P)[0], Ns=(6,), koszul=(4,))

    def test_maj_polynomial_on_every_small_poset(self, posets_to5):
        for P in posets_to5:
            assert maj_polynomial(P) == QPolynomial(maj_coefficients(P, P.n * (P.n - 1) // 2)), P

    @staticmethod
    def _patch(monkeypatch, names, modules=(series, extensions)):
        def forbidden(*args):
            raise AssertionError(f"one of {names} ran")

        for module in modules:
            for name in names:
                monkeypatch.setattr(module, name, forbidden, raising=False)

    def test_other_posets_walk(self, monkeypatch, posets_to5):
        # with every product route raising, no poset that is not a
        # complete intersection reaches one
        others = [Poset(P.n, sorted(P.covers)) for P in posets_to5[::7]
                  if not isinstance(classify(P), BuildRecipe)]
        others += [Poset(P.n, sorted(P.covers)) for P in (EX33, FORB1, FORB2, FORB3)]
        self._patch(monkeypatch, ("_ci_product", "_ci_koszul", "_hook_coefficients"))
        for P in others:
            for g in self.GRADINGS:
                hilbert_truncated(P, "weak", g, 3)
            koszul_inverse(P, 3)
            maj_polynomial(P)
            assert not series.ci_test_counts(P)
        assert len(others) > 150

    def test_factors_past_the_truncation_are_skipped(self, monkeypatch):
        # every factor of fig1 has degree at least 1, so at N = 0 each is 1
        P = Poset(FIG1.n, sorted(FIG1.covers))
        want = [_hilbert_walk(P, "weak", g, 0) for g in ("x", "tx", "tq")], _koszul_walk(P, 0)
        self._patch(monkeypatch, ("_times_one_minus", "_over_one_minus", "_plus_times"), (series,))
        got = [hilbert_truncated(P, "weak", g, 0) for g in ("x", "tx", "tq")], koszul_inverse(P, 0)
        assert got == want

    @pytest.mark.parametrize("P", [
        pytest.param(Poset(22), id="anti22"),
        pytest.param(Poset(18, [(k, 18) for k in range(1, 18)]), id="star18-top"),
        pytest.param(Poset(18, [(k, k // 2) for k in range(2, 19)]), id="tree18-top"),
    ])
    def test_walks_not_taken_at_scale(self, monkeypatch, P):
        # walking J(P) or the vectors would take seconds here
        self._patch(monkeypatch, ("_hilbert_walk", "_stanley_q", "_t_by_faces", "_level_chains",
                                  "_koszul_walk", "maj_coefficients"))
        for g in ("q", "tq", "t"):
            start = time.perf_counter()
            got = hilbert_truncated(Poset(P.n, sorted(P.covers)), "weak", g, 12)
            assert time.perf_counter() - start < 0.1, g
            assert got.coeffs
        assert koszul_inverse(P, 3)[1] is True

    def test_fixtures_take_the_routes(self, monkeypatch):
        fwd = [Poset(P.n, sorted(P.covers)) for P, _ in _fwd(FIXTURES)]
        want = [([hilbert_truncated(P, "weak", g, 6) for g in self.GRADINGS],
                 koszul_inverse(P, 4), maj_polynomial(P) if is_naturally_labelled(P) else None)
                for P in fwd]
        self._patch(monkeypatch, ("_hilbert_walk", "_stanley_q", "_t_by_faces", "_level_chains",
                                  "_koszul_walk", "maj_coefficients"))
        got = [([hilbert_truncated(P, "weak", g, 6) for g in self.GRADINGS],
                koszul_inverse(P, 4), maj_polynomial(P) if is_naturally_labelled(P) else None)
               for P in fwd]
        assert got == want


# -- the public series functions on tuple keys, from the conftest kernels


def _hilbert_by_tuples(P, walk, grading, N):
    """Every vector's key from a Counter of the walk on tuples, in a
    grading with x."""
    out, key = graded_key(P, grading, N)
    coeffs = Counter()
    for (f, nu), c in walk.items():
        coeffs[key(f, nu)] += c
    out.coeffs = dict(coeffs)
    return out


def _initial_quotient_by_tuples(P, grading, N, multisets=None):
    """Every multiset's key from the tuple walk, listed here unless given."""
    out, key = graded_key(P, grading, N)
    if multisets is None:
        multisets = trivial_multisets_by_tuples(P, N)
    out.coeffs = dict(Counter(key(_multiset_vector(P.n, ms), sum(m for _, m in ms))
                              for ms in multisets))
    return out


def _rational_sum_by_tuples(P, grading, N):
    out, key = graded_key(P, grading, N)
    m = {I: key(_multiset_vector(P.n, ((I, 1),)), len(hasse_components(P, I)))
         for I in range(1, P.full_mask + 1) if is_ideal(P, I)}

    def step(term, prefix, descent):
        return over_one_minus(term, m[prefix], N, shift=descent) if prefix else term

    total = extensions.fold_extensions(
        P, {(0, (0,) * out.nx): 1}, step,
        lambda a, b: {**a, **{k: a.get(k, 0) + v for k, v in b.items()}}, P.n)
    out.coeffs = over_one_minus(total, m[P.full_mask], N)
    return out


def _duplication_by_tuples(P, grading, N):
    out, key = graded_key(P, grading, N)
    c = {(0, (0,) * out.nx): 1}
    for pr in nontrivial_pairs(P):
        c = times_one_minus(c, key(_multiset_vector(P.n, ((pr.j1, 1), (pr.j2, 1))), 2), N)
    for J in connected_ideals(P):
        c = over_one_minus(c, key(_multiset_vector(P.n, ((J, 1),)), 1), N)
    out.coeffs = c
    return out


class TestAgainstTupleOracles:
    """Every public series function on packed monomials against the same
    algorithm on (t, xs) keys, in the x, (t,x), q and (t,q) gradings and
    every flavor: every poset with n <= 4 at N in {0, 1, 4}, every 25th
    with n = 5 at N = 3, and the fixtures at N in {0, 1, 4, 6}."""

    GRADINGS = ("x", "tx", "q", "tq")

    def _check(self, P, Ns):
        """Each oracle once, at the deepest N: a truncated answer is exact
        in every degree up to its truncation."""
        Q = P if is_naturally_labelled(P) else natural_relabel(P)[0]
        recipe, deepest = classify(P), max(Ns)
        walks = {flavor: Counter(level_chains_by_tuples(P, flavor, deepest)) for flavor in FLAVORS}
        want = {}
        for g in self.GRADINGS:
            for flavor, walk in walks.items():
                want[hilbert_truncated, flavor, g] = _hilbert_by_tuples(P, walk, g, deepest)
            want[initial_quotient_hilbert, g] = _initial_quotient_by_tuples(P, g, deepest)
            want[rational_sum_truncated, g] = _rational_sum_by_tuples(Q, g, deepest)
            if isinstance(recipe, BuildRecipe):
                want[duplication_product, g] = _duplication_by_tuples(P, g, deepest)
        h = want[hilbert_truncated, WEAK, "tx"].substitute_neg_t()
        want[koszul_inverse] = inverse_by_tuples(h)
        for N in Ns:
            got = {(hilbert_truncated, flavor, g): hilbert_truncated(P, flavor, g, N)
                   for g in self.GRADINGS for flavor in FLAVORS}
            for g in self.GRADINGS:
                got[initial_quotient_hilbert, g] = initial_quotient_hilbert(P, g, N)
                got[rational_sum_truncated, g] = rational_sum_truncated(Q, g, N)
                if isinstance(recipe, BuildRecipe):
                    got[duplication_product, g] = duplication_product(P, recipe, g, N)
            got[koszul_inverse] = koszul_inverse(P, N)[0]
            for case, series_ in got.items():
                assert series_ == truncated(want[case], N), (P, N, case)

    def test_small_posets(self, posets3, posets4, posets5):
        for P in [P for n in (1, 2) for P in enumerate_posets(n)] + posets3 + posets4:
            self._check(P, (0, 1, 4))
        for P in posets5[::25]:
            self._check(P, (3,))

    def test_fixtures(self):
        for P in FIXTURES:
            self._check(P, (0, 1, 4, 6))


class TestNuFromTheWalk:
    """The x, (t,x) and (t,q) series take f and nu(f) from the walk over
    chains of level ideals: with the listing and the decomposition of a
    vector raising in both modules, the series and `ppart selftest`
    answer as before."""

    @staticmethod
    def _forbid(monkeypatch):
        def forbidden(*args):
            raise AssertionError("the walk yields f and nu(f)")

        for module in (series, partitions):
            for name in ("nu", "nested_decomposition", "enumerate_partitions"):
                monkeypatch.setattr(module, name, forbidden, raising=False)

    @pytest.mark.parametrize("P", [FIG1, EX33, FORB2], ids=["fig1", "ex33", "forb2"])
    def test_series(self, monkeypatch, P):
        calls = [(flavor, g) for flavor in FLAVORS for g in ("x", "tx", "tq")]
        expected = [hilbert_truncated(P, flavor, g, 6).to_json() for flavor, g in calls]
        self._forbid(monkeypatch)
        assert [hilbert_truncated(P, flavor, g, 6).to_json() for flavor, g in calls] == expected

    def test_selftest_on_tree18_bottom(self, monkeypatch, tmp_path):
        path = tmp_path / "tree18.poset"
        path.write_text("n 18\n" + "".join(f"{k // 2} {k}\n" for k in range(2, 19)))
        argv = ["selftest", str(path), "--trunc", "8"]
        expected = run_cli(argv)
        self._forbid(monkeypatch)
        assert run_cli(argv) == expected


class TestPiInPosetOnly:
    @pytest.mark.parametrize("P", [FIG1, EX33, FORB2], ids=["fig1", "ex33", "forb2"])
    def test_no_pairwise_test_outside_poset(self, monkeypatch, P):
        # Only ppart.poset decides Pi: with the pairwise test raising in
        # every ppart namespace, each consumer of Pi answers as before.
        def results(Q):
            return [
                ci_test_counts(Q),
                numerator_polynomial(Q, 20),
                delta_complex(Q),
                initial_quotient_hilbert(Q, "x", 6),
                initial_quotient_hilbert(Q, "tx", 6),
                hilbert_truncated(Q, "weak", "t", 4),
                hilbert_truncated(Q, "strict", "t", 4),
            ]

        def fresh():
            return Poset(P.n, sorted(P.covers))

        expected = results(fresh())

        def forbidden(*args):
            raise AssertionError("Pi is decided in ppart.poset only")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "ppart" and hasattr(module, "trivially_intersecting"):
                monkeypatch.setattr(module, "trivially_intersecting", forbidden)
        assert results(fresh()) == expected


class TestTrivialMultisets:
    @pytest.mark.parametrize("P,N", [
        (FIG1, 6), (EX33, 5), (Poset(8, [(k // 2, k) for k in range(2, 9)]), 7),
    ])
    def test_walk_stops_at_first_heavy_ideal(self, P, N):
        # A node of the multiset walk looks only at the candidates within
        # its budget (J_conn is sorted by size, so they end at the first
        # heavier one), and each ideal it looks at makes at least one
        # child.  So the walk looks at ideals fewer times than it has
        # nodes, while its nodes have more candidates than that in all.
        order, clash = connected_ideals(P), clashes(P)
        looked = []

        class Watched(list):
            def __getitem__(self, i):
                looked.append(i)
                return list.__getitem__(self, i)

        nodes = sum(series._flag_walk(P, N, Watched([0] * len(order))).values())
        multisets = list(trivial_multisets_by_tuples(P, N))
        index, full = {J: i for i, J in enumerate(order)}, (1 << len(order)) - 1
        unpruned = 0
        for ms in multisets:
            start = max((index[J] + 1 for J, _ in ms), default=0)
            blocked = reduce(or_, (clash[index[J]] for J, _ in ms), 0)
            unpruned += (full >> start << start & ~blocked).bit_count()
        assert nodes == len(multisets)
        assert len(looked) < nodes < unpruned


class TestFaceCount:
    """The t series from the faces of the flag complex against the walk
    over every multiset and the flavor test it replaced, in all three
    flavors and through both public entry points.  One walk up to the
    deepest N serves every flavor and every shallower N, and the posets
    with n <= 5 are walked once per session (`conftest.t_walks`)."""

    @staticmethod
    def _check(P, Ns, walks=t_series_by_walk):
        walk = walks(P, max(Ns))
        for N in Ns:
            expect = {flavor: {k: c for k, c in coeffs.items() if k[0] <= N}
                      for flavor, coeffs in walk.items()}
            for flavor in expect:
                assert hilbert_truncated(P, flavor, "t", N).coeffs == expect[flavor], (P, flavor, N)
            assert initial_quotient_hilbert(P, "t", N).coeffs == expect["weak"], (P, N)

    def test_every_small_poset(self, posets_to5, t_walks):
        # N = 9 is above every face size when n <= 4: a face is a laminar
        # family, of at most 2n - 1 ideals
        for P in posets_to5:
            self._check(P, (0, 1, 5, 9) if P.n <= 4 else (0, 1, 3), t_walks)

    def test_random_posets(self):
        for P in random_posets(16, 40, (6, 7, 8)):
            self._check(P, (0, 1, 5, 6))

    def test_fixtures(self):
        for P in FIXTURES:
            self._check(P, (0, 1, 5, 8))

    @pytest.mark.parametrize("P,N", [(CHAIN3, 1), (FIG1, 0)], ids=["chain3", "fig1"])
    def test_no_face_separates_every_cover(self, P, N):
        # no face of at most N ideals separates every cover: the empty series
        assert hilbert_truncated(P, "strict", "t", N).coeffs == {}

    @staticmethod
    def _no_walk(*args, **kwargs):
        raise AssertionError("a face was walked")

    def test_cover_bound_against_the_walk(self, monkeypatch, posets_to5, t_walks):
        # the face count is empty at once, walking no face, when the N ideals
        # that separate the most strict covers miss one; the walk oracle must
        # find no vector there
        monkeypatch.setattr(series, "_flag_walk", self._no_walk)
        fired = 0
        for P in posets_to5:
            deepest = {}  # flavor -> the largest N <= 4 at which the bound fires
            for flavor in FLAVORS:
                strict = _strict_covers(P, flavor)
                best = sorted((sum(J >> (a - 1) & 1 and not J >> (b - 1) & 1 for a, b in strict)
                               for J in connected_ideals(P)), reverse=True)
                fires = [N for N in range(5) if sum(best[:N]) < len(strict)]
                if fires:
                    deepest[flavor] = max(fires)  # it fires at every smaller N too
            if deepest:
                walk = t_walks(P, max(deepest.values()))
                for flavor, N in deepest.items():
                    assert all(nu > N for nu, _ in walk[flavor]), (P, flavor, N)
                    for n in range(N + 1):
                        assert hilbert_truncated(P, flavor, "t", n).coeffs == {}
                    fired += N + 1
        assert fired == 18295

    def test_cover_bound_ends_the_walk(self, monkeypatch):
        # root-at-top 18-tree: each connected ideal separates one of 17 covers
        tree = Poset(18, [(k, k // 2) for k in range(2, 19)])
        monkeypatch.setattr(series, "_flag_walk", self._no_walk)
        for flavor in ("standard", "strict"):
            start = time.perf_counter()
            assert hilbert_truncated(tree, flavor, "t", 10).coeffs == {}
            assert time.perf_counter() - start < 0.05

    @pytest.mark.parametrize("P", [FIG1, EX33, FORB2], ids=["fig1", "ex33", "forb2"])
    def test_lists_no_vector(self, monkeypatch, P):
        expected = t_series_by_walk(P, 6)

        def forbidden(*args):
            raise AssertionError("the t grading lists no vector")

        for module in (series, partitions):
            for name in ("satisfies", "_multiset_vector", "enumerate_partitions", "_level_chains"):
                monkeypatch.setattr(module, name, forbidden, raising=False)
        for flavor, coeffs in expected.items():
            assert hilbert_truncated(P, flavor, "t", 6).coeffs == coeffs, flavor
        assert initial_quotient_hilbert(P, "t", 6).coeffs == expected["weak"]


CLAW10 = Poset(10, [(1, k) for k in range(2, 11)])  # one element below nine others
TREE18_BOTTOM = Poset(18, [(k // 2, k) for k in range(2, 19)])  # root-at-bottom binary tree


class TestFlagWalk:
    """`_flag_walk` in both modes against the tuple walk and the face
    filter it replaced (`conftest.trivial_multisets_by_tuples`,
    `t_by_face_filter`): the t series in every flavor and
    `initial_quotient_hilbert` in every grading, on every poset with
    n <= 5, the fixtures and seeded random posets.  Each oracle walks once,
    at the deepest N: a truncated answer is exact up to its truncation."""

    GRADINGS = ("x", "tx", "q", "tq")

    def _check(self, P, Ns):
        deepest = max(Ns)
        faces = list(trivial_multisets_by_tuples(P, deepest, faces=True))
        t = {flavor: t_by_face_filter(P, flavor, deepest, faces) for flavor in FLAVORS}
        multisets = list(trivial_multisets_by_tuples(P, deepest))
        x = {g: _initial_quotient_by_tuples(P, g, deepest, multisets) for g in self.GRADINGS}
        for N in Ns:
            want = {flavor: {k: c for k, c in coeffs.items() if k[0] <= N}
                    for flavor, coeffs in t.items()}
            for flavor in FLAVORS:
                assert hilbert_truncated(P, flavor, "t", N).coeffs == want[flavor], (P, flavor, N)
            assert initial_quotient_hilbert(P, "t", N).coeffs == want[WEAK], (P, N)
            for g, series_ in x.items():
                assert initial_quotient_hilbert(P, g, N) == truncated(series_, N), (P, g, N)

    def test_every_small_poset(self, posets_to5):
        for P in posets_to5:
            self._check(P, (0, 1, 3, 5) if P.n <= 4 else (0, 1, 3))

    def test_fixtures(self):
        for P in FIXTURES:
            self._check(P, (0, 1, 4, 6, 8))

    def test_random_posets(self):
        for P in random_posets(28, 40, (6, 7, 8)):
            self._check(P, (0, 1, 4, 6))

    # The coefficients were recorded with the tuple walk, which took about
    # 3 s for each claw10 flavor and 28 s for tree18-bottom.  The mask walk
    # takes 0.1-0.3 s for each on a shared 2-core host.
    @pytest.mark.parametrize("P,flavor,N,want", [
        (CLAW10, "weak", 4, [1, 512, 19683, 262144, 1953125]),
        (CLAW10, "standard", 4, [1, 512, 19683, 262144, 1953125]),
        (CLAW10, "strict", 4, [0, 1, 512, 19683, 262144]),
        (TREE18_BOTTOM, "weak", 3, [1, 2106, 328782, 15125682]),
    ], ids=["claw10-weak", "claw10-standard", "claw10-strict", "tree18-bottom-weak"])
    def test_scale(self, P, flavor, N, want):
        P = Poset(P.n, sorted(P.covers))  # J_conn and Pi are part of the call
        start = time.perf_counter()
        got = hilbert_truncated(P, flavor, "t", N).coeffs
        assert time.perf_counter() - start < 2
        assert got == {(k, ()): c for k, c in enumerate(want) if c}


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
