import random

import pytest

from ppart import (
    ArgError,
    InstabilityError,
    LabelError,
    NotFWDError,
    Poset,
    TruncSeries,
    classify,
    duplication_product,
    hilbert_truncated,
    hook_count,
    hook_formula,
    initial_quotient_hilbert,
    koszul_inverse,
    maj_polynomial,
    numerator_polynomial,
    q_int,
    rational_sum_truncated,
)
from ppart.fixtures import EX33, FIG1, P1, P2, P3
from ppart.series import normalize_grading

CHAIN2 = Poset(2, [(1, 2)])
CHAIN3 = Poset(3, [(1, 2), (2, 3)])


def geometric(base_t, base_x, like):
    """1 / (1 - t^a x^e) truncated like `like`."""
    f = like.one_like()
    f.add_term(base_t, base_x, -1)
    return f.inverse()


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
