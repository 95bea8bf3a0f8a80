"""Exact integer polynomials in one variable q."""

from __future__ import annotations

from itertools import accumulate
from operator import sub

from .errors import RemainderError


class QPolynomial:
    """Dense integer coefficient vector indexed by degree; exact arithmetic.

    Instances are value-like: arithmetic returns new objects and trailing
    zeros are always trimmed.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=(0,)):
        cs = list(coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [0]
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls((0,))

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls((1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    def __getitem__(self, d: int) -> int:
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else 0

    def __eq__(self, other):
        if isinstance(other, int):
            other = QPolynomial((other,))
        return isinstance(other, QPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return QPolynomial(
            tuple(x + (b[i] if i < len(b) else 0) for i, x in enumerate(a))
        )

    def __neg__(self) -> "QPolynomial":
        return QPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        return self + (-other)

    def __mul__(self, other: "QPolynomial") -> "QPolynomial":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return QPolynomial(tuple(out))

    def exact_div(self, other: "QPolynomial") -> "QPolynomial":
        """Long division over the integers; nonzero remainder is an error."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return QPolynomial.zero()
        rem = list(self.coeffs)
        dlead = other.coeffs[-1]
        ddeg = other.degree
        if self.degree < ddeg:
            raise RemainderError("divisor degree exceeds dividend degree")
        quot = [0] * (self.degree - ddeg + 1)
        for k in range(self.degree - ddeg, -1, -1):
            c = rem[k + ddeg]
            if c % dlead != 0:
                raise RemainderError("leading coefficient does not divide")
            q = c // dlead
            quot[k] = q
            if q:
                for i, d in enumerate(other.coeffs):
                    rem[k + i] -= q * d
        if any(rem):
            raise RemainderError("nonzero remainder in exact division")
        return QPolynomial(tuple(quot))

    def times_q_int(self, m: int) -> "QPolynomial":
        """self * [m]_q by a running window sum: coefficient d of the
        product is the sum of coefficients d - m + 1 .. d of self."""
        if m < 1:  # the dense product, which raises as q_int(m) for m < 0
            return self * q_int(m)
        sums = list(accumulate(self.coeffs + (0,) * (m - 1)))
        return QPolynomial(sums[:m] + list(map(sub, sums[m:], sums)))

    def over_q_int(self, m: int) -> "QPolynomial":
        """self / [m]_q, exact, as `exact_div(q_int(m))` (called for m < 1,
        so it raises there as that does) but in O(degree).

        With b = self, the quotient a satisfies a(1 - q^m) = b(1 - q), so
        a_d = a_{d-m} + b_d - b_{d-1}: m interleaved running sums of the
        differences of b.  The m terms of that recurrence past the
        quotient's degree are all zero exactly when [m]_q divides b (from
        there on it only repeats them); otherwise RemainderError."""
        if m < 1:
            return self.exact_div(q_int(m))
        b = self.coeffs
        if self.is_zero():
            return QPolynomial.zero()
        if len(b) < m:
            raise RemainderError("divisor degree exceeds dividend degree")
        diff = list(map(sub, b + (0,), (0,) + b))
        a = [0] * len(diff)
        for r in range(m):
            a[r::m] = accumulate(diff[r::m])
        top = len(b) - m + 1
        if any(a[top:]):
            raise RemainderError("nonzero remainder in exact division")
        return QPolynomial(a[:top])

    def __call__(self, value: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def substitute_power(self, k: int) -> "QPolynomial":
        """q -> q^k."""
        out = [0] * (self.degree * k + 1)
        for d, c in enumerate(self.coeffs):
            out[d * k] += c
        return QPolynomial(tuple(out))

    def __repr__(self):
        terms = []
        for d, c in enumerate(self.coeffs):
            if c == 0 and not (d == 0 and len(self.coeffs) == 1):
                continue
            if d == 0:
                terms.append(str(c))
            elif d == 1:
                terms.append(f"{c}*q" if c != 1 else "q")
            else:
                terms.append(f"{c}*q^{d}" if c != 1 else f"q^{d}")
        return " + ".join(terms) if terms else "0"


def q_int(n: int) -> QPolynomial:
    """[n]_q = 1 + q + ... + q^(n-1); [0]_q = 0."""
    if n < 0:
        raise ValueError("q_int needs n >= 0")
    if n == 0:
        return QPolynomial.zero()
    return QPolynomial((1,) * n)


def q_factorial(n: int) -> QPolynomial:
    """[n]!_q = [1]_q [2]_q ... [n]_q; [0]!_q = 1."""
    if n < 0:
        raise ValueError("q_factorial needs n >= 0")
    out = QPolynomial.one()
    for k in range(1, n + 1):
        out = out.times_q_int(k)
    return out
