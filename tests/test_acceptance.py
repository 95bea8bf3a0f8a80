"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line (run with -s to see them).  Failures carry the offending detail."""

import json
import time

from ppart import (
    BuildRecipe,
    Witness,
    ci_test_counts,
    ci_test_ideals,
    classify,
    connected_decomposition,
    connected_ideals,
    count_extensions,
    duplication_product,
    enumerate_partitions,
    forbidden_scan,
    forest_consistency,
    hasse_components,
    hilbert_truncated,
    hook_formula,
    initial_quotient_hilbert,
    is_naturally_labelled,
    iter_ideals,
    koszul_inverse,
    linear_extensions,
    maj_polynomial,
    mask_of,
    natural_relabel,
    nontrivial_pairs,
    numerator_polynomial,
    q_int,
    rational_sum_truncated,
    semigroup_ideal,
    toric_generators,
)
from ppart.extensions import maj_coefficients
from ppart.fixtures import EX33, FIG1, P2, P3
from ppart.qpoly import QPolynomial
from ppart.series import _stanley_q

from conftest import add_terms, random_posets
from cli_golden import capture, case_name, iter_cases, GOLDEN


def msk(*elems):
    return mask_of(elems)


def _finish(name, failures, started):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({time.monotonic() - started:.1f}s)")
    assert not failures, failures


def _check(failures, ok, detail):
    if not ok:
        failures.append(detail)


def test_criterion_1_fig1_regression():
    started = time.monotonic()
    failures = []
    conn = connected_ideals(FIG1)
    _check(
        failures,
        sorted(bin(J).count("1") for J in conn) == [1, 1, 1, 1, 2, 3, 4, 7, 7, 8],
        "connected ideal sizes",
    )
    pairs = nontrivial_pairs(FIG1)
    sums = [bin(p.j1).count("1") + bin(p.j2).count("1") for p in pairs]
    _check(failures, sums == [5, 14], "pair size sums")
    _check(failures, count_extensions(FIG1) == 300, "extension count")
    expect = q_int(2).substitute_power(7) * q_int(5) * q_int(5) * q_int(6)
    mp = maj_polynomial(FIG1)
    _check(failures, mp == expect, "maj polynomial product form")
    _check(failures, hook_formula(FIG1) == mp, "hook formula equality")
    rendered = [g.render(False) for g in toric_generators(FIG1)]
    _check(
        failures,
        rendered
        == [
            "U15*U126 - U1256*U1",
            "U1234567*U1234568 - U12345678*U1256*U3*U4",
        ],
        "toric generators",
    )
    recipe = classify(FIG1)
    _check(
        failures,
        isinstance(recipe, BuildRecipe)
        and recipe.duplication_set
        == frozenset({frozenset({5, 6}), frozenset({7, 8})}),
        "duplication set",
    )
    _finish("1 (8-element fixture regression)", failures, started)


def test_criterion_2_ex33_regression():
    started = time.monotonic()
    failures = []
    cp_table = {
        msk(1): 1,
        msk(2): 1,
        msk(1, 2): 2,
        msk(2, 4): 1,
        msk(1, 2, 3): 1,
        msk(1, 2, 4): 2,
        msk(1, 2, 3, 4): 1,
        msk(1, 2, 3, 5): 1,
        msk(1, 2, 3, 4, 5): 1,
    }
    ideals = [J for J in iter_ideals(EX33) if J]
    _check(failures, len(ideals) == 9, "ideal count")
    for J in ideals:
        _check(
            failures,
            len(hasse_components(EX33, J)) == cp_table.get(J),
            f"component count of {J:b}",
        )
    exts = linear_extensions(EX33)
    _check(failures, len(exts) == 7, "extension count")
    _check(
        failures,
        [e.des_p for e in exts] == [0, 1, 2, 1, 2, 3, 1],
        "des_P values",
    )
    g = numerator_polynomial(EX33, 12)
    expect = add_terms(g.one_like(), [
        (2, (1, 2, 1, 1, 0), -1), (2, (1, 2, 1, 1, 1), -1), (2, (2, 2, 2, 1, 1), -1),
        (3, (2, 3, 2, 1, 1), 1), (3, (2, 3, 2, 2, 1), 1)])
    _check(failures, g == expect, "numerator polynomial")
    _check(failures, not ci_test_counts(EX33), "count test false")
    _check(failures, not ci_test_ideals(EX33), "ideal test false")
    _check(failures, isinstance(classify(EX33), Witness), "classify witness")
    _finish("2 (5-element fixture regression)", failures, started)


def test_criterion_3_three_element_regression():
    started = time.monotonic()
    failures = []
    sg3 = semigroup_ideal(P3)
    _check(failures, sg3.principal == (0, 0, 1), "P3 principal generator")
    sg2 = semigroup_ideal(P2)
    _check(
        failures,
        sg2.generators == ((0, 1, 0), (0, 1, 1)) and sg2.principal is None,
        "P2 generators",
    )
    # (1-q)(1-q^2)(1-q^3) times the standard-vector series is q + q^2
    h = hilbert_truncated(P2, "standard", "q", 13)
    prod = h.one_like()
    for i in (1, 2, 3):
        prod = prod * add_terms(h.one_like(), [(0, (i,), -1)])
    res = prod * h
    got = {d: res.coeffs.get((0, (d,)), 0) for d in range(11)}
    _check(
        failures,
        got == {d: (1 if d in (1, 2) else 0) for d in range(11)},
        f"P2 series identity, got {got}",
    )
    _finish("3 (3-element fixture regression)", failures, started)


class TestCriterion4:
    """Identity suite.  Exhaustive over all labelled posets with n <= 5;
    randomized for n in {6,7}.  Truncations are scaled to the variable
    count where the full default would be out of reach in pure Python;
    each identity is exact at every truncation order."""

    def test_eq_3_5_maj_vs_standard_series(self, posets5):
        started = time.monotonic()
        failures = []
        naturals = [P for P in posets5 if is_naturally_labelled(P)]
        naturals += [
            natural_relabel(P)[0] for P in random_posets(35, 30, (6,))
        ]
        for P in naturals:
            # The standard vectors counted by |f| straight from the
            # enumeration (hilbert_truncated's q grading computes them from
            # maj), times (1 - q)...(1 - q^n), up to the degree of maj.
            mp = maj_polynomial(P)
            c = [0] * (mp.degree + 1)
            for f in enumerate_partitions(P, "standard", mp.degree):
                c[sum(f)] += 1
            for i in range(1, P.n + 1):
                for d in range(mp.degree, i - 1, -1):
                    c[d] -= c[d - i]
            _check(failures, tuple(c) == mp.coeffs, f"eq3.5 fails on {sorted(P.covers)}")
        _finish("4a (descent polynomial vs series)", failures, started)

    def test_eq_3_1_rational_sum(self, posets4, posets5):
        started = time.monotonic()
        failures = []
        cases = [
            (P, 8) for P in posets4 if is_naturally_labelled(P)
        ] + [(P, 5) for P in posets5 if is_naturally_labelled(P)]
        for P, N in cases:
            ok = rational_sum_truncated(P, "(t,x)", N) == hilbert_truncated(
                P, "standard", "(t,x)", N
            )
            _check(failures, ok, f"eq3.1 fails on {sorted(P.covers)}")
        _finish("4b (rational sum vs enumeration)", failures, started)

    def test_decomposition_round_trip(self, posets4, posets5):
        started = time.monotonic()
        failures = []
        sample = posets4 + posets5[::37]
        for P in sample:
            for f in enumerate_partitions(P, "weak", 8):
                dec = connected_decomposition(P, f)
                _check(
                    failures,
                    dec.as_vector(P.n) == f,
                    f"round trip fails on {sorted(P.covers)} at {f}",
                )
        _finish("4c (decomposition round trip)", failures, started)

    def test_theorem_4_2_and_hook(self, posets5):
        started = time.monotonic()
        failures = []
        fwds = [
            (P, r)
            for P in posets5
            for r in [classify(P)]
            if isinstance(r, BuildRecipe)
        ]
        bigger = [
            (P, r)
            for P in random_posets(42, 200, (6, 7), p=0.18)
            for r in [classify(P)]
            if isinstance(r, BuildRecipe)
        ]
        # each formula against the walk it replaces on these posets, by name
        for P, r in fwds + bigger:
            ok = duplication_product(P, r, "q", 12).coeffs == _stanley_q(P, "weak", 12)
            _check(failures, ok, f"product formula fails on {sorted(P.covers)}")
            Q, _ = natural_relabel(P)
            _check(
                failures,
                hook_formula(Q) == QPolynomial(maj_coefficients(Q, Q.n * (Q.n - 1) // 2)),
                f"hook formula fails on {sorted(Q.covers)}",
            )
        _check(failures, len(bigger) >= 20, "too few random classified posets")
        _finish("4d (product and hook formulas)", failures, started)

    def test_ci_equivalence(self, posets5):
        started = time.monotonic()
        failures = []
        for P in posets5 + random_posets(99, 200, (6, 7)):
            built = isinstance(classify(P), BuildRecipe)
            agree = (
                built
                == ci_test_ideals(P)
                == ci_test_counts(P)
                == (forbidden_scan(P) is None)
            )
            _check(failures, agree, f"CI tests disagree on {sorted(P.covers)}")
        _finish("4e (three-way CI equivalence)", failures, started)

    def test_prop_6_2_initial_hilbert(self, posets5):
        started = time.monotonic()
        failures = []
        cases = [(P, 6) for P in posets5] + [
            (P, 4) for P in random_posets(62, 30, (6, 7))
        ]
        for P, N in cases:
            ok = initial_quotient_hilbert(P, "x", N) == hilbert_truncated(
                P, "weak", "x", N
            )
            _check(failures, ok, f"multiset count differs on {sorted(P.covers)}")
        _finish("4f (initial ideal Hilbert series)", failures, started)

    def test_cor_1_5_koszul(self, posets3, posets4, posets5):
        started = time.monotonic()
        failures = []
        cases = (
            [(P, 12) for P in posets3]
            + [(P, 8) for P in posets4[::3]]
            + [(P, 6) for P in posets5[::17]]
            + [(P, 4) for P in random_posets(15, 20, (6, 7))]
        )
        for P, N in cases:
            _, ok = koszul_inverse(P, N)
            _check(failures, ok, f"negative coefficient on {sorted(P.covers)}")
        _finish("4g (inverse series nonnegativity)", failures, started)

    def test_forest_counts(self, posets5):
        started = time.monotonic()
        failures = []
        for P in posets5 + random_posets(10, 100, (6,)):
            _check(
                failures,
                forest_consistency(P).ok,
                f"forest counts fail on {sorted(P.covers)}",
            )
        _finish("4h (facet forest counts)", failures, started)


def test_criterion_5_cli_determinism():
    started = time.monotonic()
    failures = []
    for command, fixture, argv in iter_cases():
        expected = json.loads((GOLDEN / case_name(command, fixture)).read_text())
        for attempt in range(2):
            got = capture(argv)
            _check(
                failures,
                got == expected,
                f"{fixture} {command} run {attempt} deviates from golden",
            )
    _finish("5 (CLI determinism)", failures, started)
