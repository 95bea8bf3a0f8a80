import math

import pytest

from conftest import random_posets
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
from ppart.extensions import maj_coefficients
from ppart.fixtures import EX33, FIG1, P1, P2
from ppart.partitions import _multiset_vector
from ppart.series import _graded


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
    return [e.w for e in linear_extensions(P)]


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
    zero, key = _graded(P, grading, N)
    factors = {}

    def factor(prefix, descent):
        if (prefix, descent) not in factors:
            c = len(hasse_components(P, prefix))
            t, xs = key(_multiset_vector(P.n, ((prefix, 1),)), c)
            f = zero.one_minus(t, xs).inverse()
            factors[(prefix, descent)] = f - f.one_like() if descent else f
        return factors[(prefix, descent)]

    total = zero
    for w in _words(P):
        term = zero.one_like()
        descents = set(_descents(w))
        for i in range(1, P.n + 1):
            term = term * factor(mask_of(w[:i]), i in descents)
        total = total + term
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
        for P in small + random_sample:
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

    @pytest.mark.parametrize("grading", ["x", "tx", "q", "tq", "t"])
    def test_rational_sum(self, grading, small, random_sample):
        naturals = [P for P in small + random_sample if is_naturally_labelled(P)]
        for P in naturals:
            got = rational_sum_truncated(P, grading, 3)
            assert got == _rational_sum_by_enumeration(P, grading, 3), P

    def test_cap_applies_to_every_statistic(self):
        for fn in (maj_polynomial, semigroup_ideal, linear_extensions):
            with pytest.raises(ExplosionError, match="= 300 exceeds cap 299"):
                fn(FIG1, cap=299)
            fn(FIG1, cap=300)

    def test_maj_at_scale(self):
        assert maj_polynomial(Poset(10, [])) == q_factorial(10)
