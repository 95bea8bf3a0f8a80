import random

import pytest
from hypothesis import given, strategies as st

from ppart import QPolynomial, RemainderError, q_factorial, q_int
from ppart.qpoly import _q_product

polys = st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(
    lambda cs: QPolynomial(tuple(cs))
)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


class TestBasics:
    def test_q_int(self):
        assert q_int(3).coeffs == (1, 1, 1)
        assert q_int(0).is_zero()
        assert q_int(1) == 1

    def test_q_factorial(self):
        assert q_factorial(0) == 1
        assert q_factorial(1) == 1
        assert q_factorial(3).coeffs == (1, 2, 2, 1)

    def test_trimming(self):
        assert QPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert QPolynomial((0, 0)).coeffs == (0,)

    def test_evaluation(self):
        assert q_factorial(4)(1) == 24
        assert q_int(5)(2) == 31

    def test_substitute_power(self):
        assert q_int(2).substitute_power(7).coeffs == (1,) + (0,) * 6 + (1,)


class TestDivision:
    def test_exact(self):
        a = q_int(6)
        b = q_int(3)
        q = a.exact_div(b)
        assert q * b == a

    def test_remainder_raises(self):
        with pytest.raises(RemainderError):
            q_int(5).exact_div(q_int(2))

    def test_degree_mismatch(self):
        with pytest.raises(RemainderError):
            q_int(2).exact_div(q_int(4))

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            q_int(2).exact_div(QPolynomial.zero())

    @given(polys, nonzero_polys)
    def test_round_trip(self, a, b):
        assert (a * b).exact_div(b) == a


class TestQIntKernels:
    """The window multiply by [m]_q against the dense product, on random
    integer polynomials and m = 1..25, and at m = -3, -1 and 0, where it
    returns or raises what the product does; and the dense series
    quotient `_q_product` against the polynomial product."""

    OUTSIDE = (-3, -1, 0)

    @staticmethod
    def _polys(seed):
        rng = random.Random(seed)
        out = [QPolynomial.zero(), QPolynomial.one()]
        for _ in range(60):
            degree = rng.randrange(30)
            out.append(QPolynomial(tuple(rng.randint(-9, 9) for _ in range(degree + 1))))
        return out

    def test_times_matches_product(self):
        for a in self._polys(1):
            for m in (*self.OUTSIDE, *range(1, 26)):
                try:
                    want = a * q_int(m)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=str(exc)):
                        a.times_q_int(m)
                else:
                    assert a.times_q_int(m) == want, (a, m)

    def test_series_quotient_matches_products(self):
        # 1 / (1 - q^b) up to degree N is the polynomial sum of q^(k b), k b <= N
        rng = random.Random(5)
        for a in self._polys(6):
            N = rng.randrange(25)
            times = [rng.randint(1, 30) for _ in range(rng.randrange(4))]
            over = [rng.randint(1, 30) for _ in range(rng.randrange(4))]
            want = a
            for m in times:
                want = want * QPolynomial((1,) + (0,) * (m - 1) + (-1,))
            for m in over:
                want = want * QPolynomial(tuple(int(d % m == 0) for d in range(N + 1)))
            got = _q_product([a[d] for d in range(N + 1)], times, over)
            assert got == [want[d] for d in range(N + 1)], (a, N, times, over)


class TestArithmetic:
    @given(polys, polys)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(polys, polys, polys)
    def test_associativity_and_distribution(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(polys)
    def test_additive_inverse(self, a):
        assert a - a == QPolynomial.zero()
