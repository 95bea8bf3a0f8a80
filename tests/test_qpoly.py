import random

import pytest
from hypothesis import given, strategies as st

from ppart import QPolynomial, RemainderError, q_factorial, q_int

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
    """The window multiply and divide by [m]_q against the dense product
    and long division, on random integer polynomials and m = 1..25, and
    at m = -3, -1 and 0, where each returns or raises what those do."""

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

    def test_over_inverts_times(self):
        for a in self._polys(2):
            for m in range(1, 26):
                b = a * q_int(m)
                assert b.over_q_int(m) == b.exact_div(q_int(m)) == a, (a, m)

    def test_over_raises_where_exact_div_raises(self):
        # a product with one coefficient moved, and random polynomials,
        # are mostly not multiples of [m]_q
        rng = random.Random(3)
        cases = []
        for a in self._polys(4):
            for m in range(1, 26):
                b = list((a * q_int(m)).coeffs)
                b[rng.randrange(len(b))] += rng.choice((-1, 1))
                cases += [(QPolynomial(tuple(b)), m), (a, m)]
            cases += [(a, m) for m in self.OUTSIDE]
        raised = 0
        for b, m in cases:
            try:
                want = b.exact_div(q_int(m))
            except (RemainderError, ValueError, ZeroDivisionError) as exc:
                raised += 1
                with pytest.raises(type(exc), match=str(exc)):
                    b.over_q_int(m)
            else:
                assert b.over_q_int(m) == want, (b, m)
        assert raised > len(cases) // 2

    def test_not_divisible(self):
        with pytest.raises(RemainderError, match="nonzero remainder"):
            q_int(5).over_q_int(2)
        with pytest.raises(RemainderError, match="degree"):
            q_int(2).over_q_int(4)


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
