import math

import pytest

import ppart.presentation as presentation
from ppart import (
    ArgError,
    Poset,
    ci_test_counts,
    connected_ideals,
    enumerate_posets,
    export,
    graded_generators,
    hibi_check,
    initial_generators,
    is_graded_iso,
    maj_polynomial,
    mask_of,
    nontrivial_pairs,
    presentation_of,
    q_int,
    semigroup_ideal,
    toric_generators,
    verify_vanishing,
)
from ppart.fixtures import EX33, FIG1, P1, P2, P3
from ppart.presentation import var_name

CHAIN3 = Poset(3, [(1, 2), (2, 3)])


class TestGenerators:
    def test_fig1_toric(self):
        rendered = [g.render(False) for g in toric_generators(FIG1)]
        assert rendered == [
            "U15*U126 - U1256*U1",
            "U1234567*U1234568 - U12345678*U1256*U3*U4",
        ]

    def test_fig1_graded(self):
        rendered = [g.render(False) for g in graded_generators(FIG1)]
        assert rendered == [
            "U15*U126 - U1256*U1",
            "U1234567*U1234568",
        ]

    def test_fig1_initial(self):
        rendered = [g.render(False) for g in initial_generators(FIG1)]
        assert rendered == ["U15*U126", "U1234567*U1234568"]

    def test_chain_empty(self):
        assert toric_generators(CHAIN3) == []

    def test_counts_match_pairs(self, posets4):
        for P in posets4:
            k = len(nontrivial_pairs(P))
            assert len(toric_generators(P)) == k
            assert len(graded_generators(P)) == k
            assert len(initial_generators(P)) == k

    def test_toric_rhs_components(self, posets4):
        for P in posets4:
            for g in toric_generators(P):
                assert g.rhs[0] == g.pair.union
                assert g.rhs[1:] == g.pair.intersection_components

    def test_graded_quadratic(self, posets4):
        for P in posets4:
            for g in graded_generators(P):
                assert len(g.lhs) == 2
                assert len(g.rhs) in (0, 2)


class TestVanishing:
    def test_fig1(self):
        assert verify_vanishing(FIG1, toric_generators(FIG1))

    def test_ex33(self):
        assert verify_vanishing(EX33, toric_generators(EX33))

    def test_empty(self):
        assert verify_vanishing(CHAIN3, [])

    def test_everywhere(self, posets5):
        for P in posets5[::19]:
            assert verify_vanishing(P, toric_generators(P))


class TestFlags:
    def test_fig1(self):
        assert not is_graded_iso(FIG1)

    def test_p1(self):
        assert is_graded_iso(P1)
        assert hibi_check(P1)

    def test_antichain(self):
        P = Poset(2, [])
        assert is_graded_iso(P)
        assert not hibi_check(P)

    def test_graded_iso_is_connected_intersections(self, posets3, posets4):
        # the per-pair definition: every intersection has one component
        small = [P for n in (1, 2) for P in enumerate_posets(n)]
        for P in small + posets3 + posets4:
            expected = all(
                len(pr.intersection_components) == 1 for pr in nontrivial_pairs(P)
            )
            assert presentation_of(P).graded_iso == is_graded_iso(P) == expected


class TestSemigroupIdeal:
    def test_p3(self):
        data = semigroup_ideal(P3)
        assert data.generators == ((0, 0, 1), (0, 1, 2))
        assert data.principal == (0, 0, 1)

    def test_p2(self):
        data = semigroup_ideal(P2)
        assert data.generators == ((0, 1, 0), (0, 1, 1))
        assert data.principal is None

    def test_natural_contains_zero(self):
        data = semigroup_ideal(EX33)
        assert (0, 0, 0, 0, 0) in data.generators
        assert data.principal == (0, 0, 0, 0, 0)

    def test_entry_reaches_n_minus_one(self):
        # on the 9-antichain w = 9 8 ... 1 descends at every position, so
        # element p lies in p - 1 descent prefixes and element 9 in all 8
        gens = semigroup_ideal(Poset(9, [])).generators
        assert len(gens) == math.factorial(9)
        assert tuple(range(9)) in gens
        assert max(max(g) for g in gens) == 8
        assert list(gens) == sorted(gens)

    def test_maj_identity_when_principal(self, posets4):
        # when the per-element chain condition holds, the maj polynomial
        # factors through the weak series shifted by the minimal vector
        from ppart import delta_data, hilbert_truncated

        for P in posets4[::5]:
            d = delta_data(P)
            if not d.satisfies_labelled_condition:
                continue
            mp = maj_polynomial(P)
            N = mp.degree + P.n
            h = hilbert_truncated(P, "weak", "q", N)
            prod = h.one_like()
            for i in range(1, P.n + 1):
                f = h.one_like()
                f.add_term(0, (i,), -1)
                prod = prod * f
            lhs = prod * h
            for deg in range(mp.degree + 1):
                shifted = deg - d.maj_p
                got = lhs.coeffs.get((0, (shifted,)), 0) if shifted >= 0 else 0
                assert got == mp[deg]


class TestExport:
    def test_fig1_text(self):
        text = export(FIG1, "text")
        assert text.startswith("S = k[U1, U2, U3, U4, U15, U126,")
        assert "U15*U126 - U1256*U1" in text

    def test_chain_text(self):
        text = export(CHAIN3, "text")
        assert "S = k[U1, U12, U123]" in text
        assert "(none)" in text

    def test_wide_names(self):
        P = Poset(10, [(1, 10)])
        assert var_name(P.full_mask & 0b1000000001, True) == "U_1_10"
        assert "U_1_10" in export(P, "text")

    def test_wide_m2_names(self):
        # Macaulay2 reads "_" as indexing, so wide M2 names glue with "x"
        P = Poset(10, [(1, 9), (1, 10), (2, 10)])
        assert export(P, "m2").splitlines()[1:] == [
            "S = QQ[U1, U2, U3, U4, U5, U6, U7, U8, U1x9, U1x2x10, U1x2x9x10];",
            "Itoric = ideal(U1x9*U1x2x10 - U1x2x9x10*U1);",
            "Igraded = ideal(U1x9*U1x2x10 - U1x2x9x10*U1);",
            "Iinitial = ideal(U1x9*U1x2x10);",
        ]

    def test_m2_golden(self):
        import pathlib

        golden = pathlib.Path(__file__).parent / "golden" / "ex33.m2"
        assert export(EX33, "m2") == golden.read_text()

    def test_unknown_format(self):
        with pytest.raises(ArgError):
            export(P1, "latex")

    def test_names_each_ideal_once(self, monkeypatch):
        # a render names each connected ideal once, and the text export
        # reuses the families the caller already rendered
        pres = presentation_of(FIG1)
        want = pres.export("text")
        named = []
        real = presentation.members
        monkeypatch.setattr(presentation, "members", lambda mask: named.append(mask) or real(mask))
        families = pres.rendered()
        assert sorted(named) == sorted(connected_ideals(FIG1))

        def render(*args):
            raise AssertionError("rendered a generator twice")

        named.clear()
        monkeypatch.setattr(presentation.SyzGenerator, "render", render)
        assert pres.export("text", families) == want
        assert sorted(named) == sorted(connected_ideals(FIG1))


class TestCIConsistency:
    def test_presentation_count_identity(self, posets4):
        for P in posets4:
            diff = len(connected_ideals(P)) - len(nontrivial_pairs(P))
            assert ci_test_counts(P) == (diff == P.n)
