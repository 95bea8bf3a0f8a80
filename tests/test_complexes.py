import pytest

from ppart import (
    CapError,
    PForest,
    Poset,
    connected_ideals,
    count_extensions,
    delta_complex,
    enumerate_posets,
    forest_consistency,
    mask_of,
    nontrivial_pairs,
    p_forests,
)
from ppart.fixtures import BOWTIE, EX33, FIG1, P1

from conftest import principal_ideals_by_recursion, random_posets

CHAIN3 = Poset(3, [(1, 2), (2, 3)])


def msk(*elems):
    return mask_of(elems)


class TestComplex:
    def test_chain_single_facet(self):
        c = delta_complex(CHAIN3)
        assert c.facets == ((msk(1), msk(1, 2), msk(1, 2, 3)),)

    def test_p1(self):
        c = delta_complex(P1)
        assert c.vertices == (msk(1), msk(1, 2), msk(1, 3), msk(1, 2, 3))
        assert c.facets == (
            (msk(1), msk(1, 2), msk(1, 2, 3)),
            (msk(1), msk(1, 3), msk(1, 2, 3)),
        )

    def test_minimal_non_faces_are_pairs(self):
        for P in (FIG1, EX33, BOWTIE):
            c = delta_complex(P)
            faces = set()
            for f in c.facets:
                n = len(f)
                for bits in range(1 << n):
                    faces.add(frozenset(f[i] for i in range(n) if bits >> i & 1))
            pairs = {
                frozenset({p.j1, p.j2}) for p in nontrivial_pairs(P)
            }
            verts = c.vertices
            for i in range(len(verts)):
                for j in range(i + 1, len(verts)):
                    pair = frozenset({verts[i], verts[j]})
                    assert (pair in faces) == (pair not in pairs)

    def test_full_ideal_in_every_facet_when_connected(self, posets5):
        for P in posets5[::21]:
            if len(P.minimal_elements(P.full_mask)) and P.full_mask in set(
                connected_ideals(P)
            ):
                for f in delta_complex(P).facets:
                    assert P.full_mask in f

    def test_cap(self):
        with pytest.raises(CapError):
            delta_complex(EX33, cap=3)


class TestPForests:
    def test_bowtie(self):
        forests = p_forests(BOWTIE)
        assert sorted(f.parent for f in forests) == [(2, 4, 2, 0), (4, 0, 4, 2)]

    def test_chain(self):
        forests = p_forests(CHAIN3)
        assert [f.parent for f in forests] == [(2, 3, 0)]

    def test_p1(self):
        assert sorted(f.parent for f in p_forests(P1)) == [(2, 3, 0), (3, 0, 2)]

    def test_invariants(self, posets4):
        from ppart import hasse_components, is_ideal

        for P in posets4[::3]:
            for forest in p_forests(P):
                for J in forest.principal_ideals():
                    assert is_ideal(P, J)
                    assert len(hasse_components(P, J)) == 1
                # incomparable forest elements have principal ideals
                # whose union is disconnected in P
                F = forest.as_poset()
                down = {
                    i: F.down_strict(i) | (1 << (i - 1))
                    for i in range(1, P.n + 1)
                }
                for i in range(1, P.n + 1):
                    for j in range(i + 1, P.n + 1):
                        if not F.comparable(i, j):
                            union = down[i] | down[j]
                            assert len(hasse_components(P, union)) > 1

    def test_facet_bijection(self, posets4):
        for P in posets4[::3]:
            c = delta_complex(P)
            forests = p_forests(P)
            assert len(forests) == len(c.facets)
            for forest, facet in zip(forests, c.facets):
                assert forest.principal_ideals() == tuple(
                    sorted(facet, key=lambda m: (bin(m).count("1"), m))
                )

    def test_principal_ideals_match_the_recursion(self, posets_to5):
        for P in posets_to5:
            for forest in p_forests(P):
                assert forest.principal_ideals() == principal_ideals_by_recursion(forest)


class TestConsistency:
    def test_sizes_come_from_the_facets(self, monkeypatch):
        def unused(self):
            raise AssertionError("forest_consistency listed a forest's principal ideals")

        monkeypatch.setattr(PForest, "principal_ideals", unused)
        for P in (BOWTIE, CHAIN3, FIG1, EX33, P1):
            assert forest_consistency(P).ok

    def test_bowtie(self):
        r = forest_consistency(BOWTIE)
        assert sorted(c for _, c in r.terms) == [2, 2]
        assert r.total == r.expected == 4

    def test_chain(self):
        r = forest_consistency(CHAIN3)
        assert r.total == r.expected == 1

    def test_fig1(self):
        r = forest_consistency(FIG1)
        assert r.expected == 300
        assert r.ok

    def test_report_keeps_the_checked_complex(self):
        for P in (BOWTIE, CHAIN3, FIG1, EX33):
            r = forest_consistency(P)
            assert r.complex == delta_complex(P)
            assert [parent for parent, _ in r.terms] == [f.parent for f in p_forests(P)]

    def test_exhaustive_small(self, posets5):
        for P in posets5[::11]:
            assert forest_consistency(P).ok

    def test_random_n6(self):
        for P in random_posets(66, 60, (6,)):
            assert forest_consistency(P).ok

    @staticmethod
    def _assert_terms_match_walk(P):
        # each forest's hook length count against a walk of its ideal lattice
        for parent, count in forest_consistency(P, cap=64).terms:
            assert count == count_extensions(PForest(parent).as_poset())

    def test_hook_counts_match_walk_up_to_5(self, posets3, posets4, posets5):
        small = [P for n in (1, 2) for P in enumerate_posets(n)]
        for P in small + posets3 + posets4 + posets5:
            self._assert_terms_match_walk(P)

    def test_hook_counts_match_walk_random(self):
        for P in random_posets(68, 60, (6, 7, 8)):
            self._assert_terms_match_walk(P)
