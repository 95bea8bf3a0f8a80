import dataclasses
import gc
import importlib
import itertools
import weakref

import pytest

import ppart.poset
from conftest import ideals_by_bfs, posets_by_matrix, random_posets
from ppart import (
    CycleError,
    ExplosionError,
    PiPair,
    Poset,
    PosetSyntaxError,
    RangeError,
    clashes,
    connected_ideals,
    count_ideals,
    enumerate_posets,
    hasse_components,
    induced_occurrences,
    is_ideal,
    is_naturally_labelled,
    iter_ideals,
    linear_extensions,
    mask_of,
    members,
    natural_relabel,
    nontrivial_pairs,
    parse_poset,
    principal_ideal,
    semigroup_ideal,
    trivially_intersecting,
)
from ppart.fixtures import EX33, FIG1, FORB1, FORB3, P1, P2, P3
from ppart.poset import _collector_paused, _Memo, ideal_key

CHAIN3 = Poset(3, [(1, 2), (2, 3)])
ANTICHAIN3 = Poset(3, [])
TREE14 = Poset(14, [(k // 2, k) for k in range(2, 15)])  # root at the bottom


def walked_connected_ideals(P):
    """J_conn by filtering all of J(P), the oracle for connected_ideals."""
    conn = [J for J in iter_ideals(P) if J and len(hasse_components(P, J)) == 1]
    return sorted(conn, key=ideal_key)


@dataclasses.dataclass(frozen=True)
class DataclassPair:
    """The record Pi pairs were before they became named tuples."""

    j1: int
    j2: int
    union: int
    intersection_components: tuple[int, ...]

    @property
    def intersection(self):
        return self.j1 & self.j2


def msk(*elems):
    return mask_of(elems)


class TestParse:
    def test_p1(self):
        P = parse_poset("n 3\n1 2\n1 3")
        assert P == P1

    def test_single_element(self):
        P = parse_poset("n 1")
        assert P.n == 1 and P.covers == frozenset()

    def test_redundant_relation_dropped(self):
        P = parse_poset("n 3\n1 2\n2 3\n1 3")
        assert P.covers == frozenset({(1, 2), (2, 3)})

    def test_comments_and_blanks(self):
        P = parse_poset("# a chain\n\nn 2\n1 2  # cover\n")
        assert P.covers == frozenset({(1, 2)})

    def test_cycle(self):
        with pytest.raises(CycleError):
            parse_poset("n 3\n1 2\n2 3\n3 1")

    def test_label_out_of_range(self):
        with pytest.raises(RangeError):
            parse_poset("n 2\n1 3")

    def test_n_too_large(self):
        with pytest.raises(RangeError):
            parse_poset("n 65")

    def test_malformed(self):
        with pytest.raises(PosetSyntaxError):
            parse_poset("n 2\n1 2 3")
        with pytest.raises(PosetSyntaxError):
            parse_poset("1 2")


class TestIdeals:
    def test_ex33_examples(self):
        assert is_ideal(EX33, msk(2, 4))
        assert not is_ideal(EX33, msk(4))
        assert is_ideal(EX33, 0)

    def test_hasse_components_ex33(self):
        assert hasse_components(EX33, msk(1, 2, 4)) == [msk(1), msk(2, 4)]
        assert hasse_components(EX33, msk(1, 2, 3, 4)) == [msk(1, 2, 3, 4)]
        assert hasse_components(EX33, 0) == []

    def test_ex33_cp_table(self):
        # every nonempty ideal with its component count
        expected = {
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
        assert len(ideals) == len(expected)
        for J in ideals:
            assert len(hasse_components(EX33, J)) == expected[J]

    def test_connected_ideals_ex33(self):
        assert connected_ideals(EX33) == [
            msk(1),
            msk(2),
            msk(2, 4),
            msk(1, 2, 3),
            msk(1, 2, 3, 4),
            msk(1, 2, 3, 5),
            msk(1, 2, 3, 4, 5),
        ]

    def test_connected_ideals_fig1_sizes(self):
        sizes = sorted(len(members(J)) for J in connected_ideals(FIG1))
        assert sizes == [1, 1, 1, 1, 2, 3, 4, 7, 7, 8]

    def test_antichain_connected_ideals(self):
        assert connected_ideals(ANTICHAIN3) == [msk(1), msk(2), msk(3)]

    def test_growth_equals_walk_small(self, posets5):
        for P in [*(P for n in range(1, 5) for P in enumerate_posets(n)), *posets5]:
            assert connected_ideals(P) == walked_connected_ideals(P), P

    def test_growth_equals_walk_random(self):
        for P in random_posets(11, 200, range(6, 13)):
            assert connected_ideals(P) == walked_connected_ideals(P), P

    def test_growth_walks_no_ideal_lattice(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("connected_ideals must not call this")

        for name in ("iter_ideals", "hasse_components"):
            monkeypatch.setattr(ppart.poset, name, forbidden)
        fresh = Poset(14, sorted(TREE14.covers))  # no J_conn kept on it yet
        assert len(connected_ideals(fresh)) == 416

    def test_iter_ideals_keeps_the_bfs_order(self, posets5):
        small = [*(P for n in range(1, 5) for P in enumerate_posets(n)), *posets5]
        for P in small + random_posets(13, 100, range(6, 13)):
            assert list(iter_ideals(P)) == list(ideals_by_bfs(P)), P

    def test_count_ideals(self, posets5):
        for P in [*posets5, *random_posets(12, 100, range(6, 13))]:
            assert count_ideals(P) == sum(1 for _ in iter_ideals(P)), P
        assert count_ideals(Poset(22)) == 1 << 22
        assert count_ideals(Poset(64)) == 1 << 64

    def test_completeness_brute_force(self):
        # no nonempty connected ideal missed, checked over all subsets
        for P in (EX33, FIG1, P2, FORB1):
            brute = [
                S
                for S in range(1, 1 << P.n)
                if is_ideal(P, S) and len(hasse_components(P, S)) == 1
            ]
            assert sorted(brute) == sorted(connected_ideals(P))


class TestPairs:
    def test_ex33_pairs(self):
        pairs = nontrivial_pairs(EX33)
        assert [(p.j1, p.j2) for p in pairs] == [
            (msk(2, 4), msk(1, 2, 3)),
            (msk(2, 4), msk(1, 2, 3, 5)),
            (msk(1, 2, 3, 4), msk(1, 2, 3, 5)),
        ]

    def test_fig1_pair_sizes(self):
        pairs = nontrivial_pairs(FIG1)
        sizes = [(len(members(p.j1)), len(members(p.j2))) for p in pairs]
        assert sizes == [(2, 3), (7, 7)]

    def test_chain_has_none(self):
        assert nontrivial_pairs(CHAIN3) == []

    def test_pair_invariants(self, posets4):
        for P in posets4:
            conn = set(connected_ideals(P))
            for pr in nontrivial_pairs(P):
                assert pr.j1 in conn and pr.j2 in conn
                assert pr.j1 & pr.j2
                assert pr.j1 | pr.j2 == pr.union
                assert pr.union in conn
                assert not trivially_intersecting(pr.j1, pr.j2)
                for comp in pr.intersection_components:
                    assert comp in conn

    def test_one_component_walk_per_intersection(self, monkeypatch):
        calls = []
        walk = ppart.poset.hasse_components

        def counting(Q, mask):
            calls.append(mask)
            return walk(Q, mask)

        monkeypatch.setattr(ppart.poset, "hasse_components", counting)
        pairs = nontrivial_pairs(TREE14)
        assert len(calls) == len(set(calls)) == len({pr.intersection for pr in pairs})
        assert len(pairs) == 64536 > len(calls)

    @pytest.mark.parametrize("P", [FIG1, EX33, TREE14], ids=["fig1", "ex33", "tree14"])
    def test_records_match_dataclass(self, P):
        old = [
            DataclassPair(j1, j2, j1 | j2, tuple(hasse_components(P, j1 & j2)))
            for j1, j2 in itertools.combinations(connected_ideals(P), 2)
            if not trivially_intersecting(j1, j2)
        ]
        new = nontrivial_pairs(P)
        assert len(new) == len(old)
        for pr, ref in zip(new, old):
            assert isinstance(pr, PiPair)
            assert dataclasses.astuple(ref) == tuple(pr)
            assert (pr.j1, pr.j2, pr.union, pr.intersection_components,
                    pr.intersection) == (ref.j1, ref.j2, ref.union,
                                         ref.intersection_components,
                                         ref.intersection)

    def test_record_is_immutable(self):
        pr = nontrivial_pairs(EX33)[0]
        with pytest.raises(AttributeError):
            pr.j1 = 0
        with pytest.raises(AttributeError):
            pr.extra = 0


def pairwise_clashes(P):
    """The clash masks by testing every ordered pair, the oracle for clashes."""
    conn = connected_ideals(P)
    return [
        sum(1 << j for j, K in enumerate(conn) if not trivially_intersecting(J, K))
        for J in conn
    ]


class TestClashes:
    def check(self, P):
        clash = clashes(P)
        assert list(clash) == pairwise_clashes(P), P
        for i, c in enumerate(clash):
            assert not c >> i & 1
            partners = [j for j in range(len(clash)) if c >> j & 1]
            assert all(clash[j] >> i & 1 for j in partners)

    def test_small(self):
        for n in range(1, 6):
            for P in enumerate_posets(n):
                self.check(P)

    def test_random(self):
        for P in random_posets(12, 200, range(6, 13)):
            self.check(P)

    def test_tree14(self):
        self.check(TREE14)
        assert sum(c.bit_count() for c in clashes(TREE14)) == 2 * 64536

    def test_kept_on_the_poset(self):
        P = Poset(EX33.n, sorted(EX33.covers))
        assert clashes(P) is clashes(P)


class TestPrincipal:
    def test_fig1(self):
        assert principal_ideal(FIG1, 7) == msk(1, 2, 3, 4, 5, 6, 7)
        assert principal_ideal(FIG1, 5) == msk(1, 5)
        assert principal_ideal(FIG1, 1) == msk(1)

    def test_range(self):
        with pytest.raises(RangeError):
            principal_ideal(P1, 4)


class TestLabelling:
    def test_flags(self):
        assert is_naturally_labelled(P1)
        assert not is_naturally_labelled(P2)
        assert not is_naturally_labelled(P3)

    def test_relabel_reversed_chain(self):
        rev = Poset(3, [(3, 2), (2, 1)])
        Q, perm = natural_relabel(rev)
        assert Q == CHAIN3
        assert perm == (3, 2, 1)

    def test_relabel_identity_when_natural(self):
        Q, perm = natural_relabel(P1)
        assert Q == P1
        assert perm == (1, 2, 3)

    def test_relabel_is_isomorphism(self, posets4):
        for P in posets4[::7]:
            Q, perm = natural_relabel(P)
            assert is_naturally_labelled(Q)
            for a, b in P.covers:
                assert (perm[a - 1], perm[b - 1]) in Q.covers
            assert len(Q.covers) == len(P.covers)


class TestInducedOccurrences:
    def test_self_occurrence(self):
        occs = induced_occurrences(FORB1, FORB1)
        assert (1, 2, 3, 4) in occs

    def test_chain_has_no_antichain(self):
        assert induced_occurrences(CHAIN3, Poset(2, [])) == []

    def test_fig1_forbidden_free(self):
        from ppart.fixtures import FORB2

        for Q in (FORB1, FORB2, FORB3):
            assert induced_occurrences(FIG1, Q) == []

    def test_occurrence_is_induced(self):
        for emb in induced_occurrences(EX33, P1):
            for a in (1, 2, 3):
                for b in (1, 2, 3):
                    assert P1.lt(a, b) == EX33.lt(emb[a - 1], emb[b - 1])


class TestEnumeration:
    def test_counts(self):
        assert len(list(enumerate_posets(1))) == 1
        assert len(list(enumerate_posets(2))) == 3
        assert len(list(enumerate_posets(3))) == 19

    def test_cap(self):
        with pytest.raises(RangeError):
            list(enumerate_posets(6))

    def test_matches_the_matrix_census(self, posets5):
        for n in range(1, 5):
            assert list(enumerate_posets(n)) == list(posets_by_matrix(n))
        assert posets5 == list(posets_by_matrix(5))
        assert len(posets5) == 4231

    def test_no_duplicates(self, posets4):
        seen = {(P.n, P.covers) for P in posets4}
        assert len(seen) == len(posets4) == 219


class TestDeterminism:
    def test_repeatable(self):
        assert connected_ideals(FIG1) == connected_ideals(FIG1)
        assert nontrivial_pairs(EX33) == nontrivial_pairs(EX33)


class TestCollectorPause:
    """The kernels that build Pi- and L(P)-sized results run with the
    cyclic collector off and leave its state as they found it."""

    PAUSED = (("pairs_among", "ppart.poset"), ("linear_extensions", "ppart.extensions"),
              ("semigroup_ideal", "ppart.presentation"))

    @pytest.fixture(autouse=True)
    def collector_on(self):
        assert gc.isenabled()
        yield
        gc.enable()  # a failing test leaves the next one its collector

    def test_restored_after_return(self):
        assert len(nontrivial_pairs(FIG1)) == 2
        assert len(linear_extensions(FIG1)) == 300
        semigroup_ideal(FIG1)
        assert gc.isenabled()

    @pytest.mark.parametrize("fn", [linear_extensions, semigroup_ideal])
    def test_restored_after_a_raise_inside(self, fn):
        with pytest.raises(ExplosionError):
            fn(FIG1, cap=1)
        assert gc.isenabled()

    def test_off_stays_off(self):
        gc.disable()
        nontrivial_pairs(FIG1)
        linear_extensions(FIG1)
        assert not gc.isenabled()

    def test_nested_pause_keeps_it_off(self):
        seen = []
        inner = _collector_paused(lambda: seen.append(gc.isenabled()))

        @_collector_paused
        def outer():
            inner()
            seen.append(gc.isenabled())

        outer()
        assert seen == [False, False] and gc.isenabled()

    def test_no_collection_while_listing_pi(self):
        connected_ideals(TREE14)  # J_conn is built outside the pause
        starts = []

        def record(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.collect()
        gc.callbacks.append(record)
        try:
            pairs = nontrivial_pairs(TREE14)
            during = len(starts)
        finally:
            gc.callbacks.remove(record)
        assert len(pairs) == 64536 and during == 0

    def test_due_full_collection_runs_before_the_pause(self):
        gens = []

        def record(phase, info):
            if phase == "start":
                gens.append((info["generation"], gc.isenabled()))

        thresholds = gc.get_threshold()
        gc.collect()
        gc.collect(1)  # the oldest generation's count is now 1
        gc.set_threshold(thresholds[0], thresholds[1], 0)
        gc.callbacks.append(record)
        try:
            linear_extensions(FIG1)
        finally:
            gc.callbacks.remove(record)
            gc.set_threshold(*thresholds)
        assert (2, True) in gens and gc.isenabled()

    def test_wrapped_names(self):
        for name, module in self.PAUSED:
            fn = getattr(importlib.import_module(module), name)
            assert (fn.__name__, fn.__module__) == (name, module)
            assert fn.__wrapped__.__name__ == name


class TestMemo:
    """`poset._Memo`, the per-call memo of the walks: fn runs once per
    key, a hit calls nothing, and falsy values are kept like any other."""

    def test_once_per_key(self):
        calls = []
        memo = _Memo(lambda key: calls.append(key) or key % 3)
        assert [memo[k] for k in (4, 5, 4, 6, 5, 6, 3)] == [1, 2, 1, 0, 2, 0, 0]
        assert calls == [4, 5, 6, 3]
        assert memo == {4: 1, 5: 2, 6: 0, 3: 0}

    def test_a_hit_calls_nothing(self):
        memo = _Memo(lambda key: key + 1)
        assert memo[1] == 2
        memo.fn = None  # calling it now would raise TypeError
        assert memo[1] == 2

    @pytest.mark.parametrize("falsy", [0, None], ids=["zero", "none"])
    def test_a_falsy_value_is_stored_once(self, falsy):
        calls = []
        memo = _Memo(lambda key: calls.append(key) or falsy)
        assert memo[7] is falsy and memo[7] is falsy
        assert calls == [7] and memo == {7: falsy}

    def test_freed_without_the_collector(self):
        class Value:
            pass

        gc.disable()
        try:
            memo = _Memo(lambda key: Value())
            held = weakref.ref(memo[0])
            del memo
            assert held() is None  # no cycle kept the memo or its value alive
        finally:
            gc.enable()
