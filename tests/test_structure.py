import inspect
import random

import pytest

from ppart import (
    ArgError,
    BuildRecipe,
    NotFWDError,
    Poset,
    Witness,
    ci_test_counts,
    ci_test_ideals,
    clashes,
    classify,
    connected_ideals,
    enumerate_posets,
    forbidden_scan,
    hasse_components,
    hook_count,
    hook_formula,
    lemma41_predictions,
    mask_of,
    members,
    nearly_principal,
    nontrivial_pairs,
    pi_fiber,
    principal_ideal,
    recipe_poset,
)
from ppart.complexes import ForestReport, PForest, SimplicialComplex
from ppart.fixtures import EX33, FIG1, FORB1, FORB2, FORB3, P1
from ppart.partitions import ConnDecomposition, DeltaData
from ppart.presentation import SemigroupIdealData, SyzGenerator
from ppart import series, structure
from ppart.structure import (DisjointUnion, Duplicate, Hang, Leaf, StructureReport, _replay,
                             is_principal)

from conftest import ci_counts_by_clashes, random_fwd_poset, random_posets, replay_by_up_sets

CHAIN3 = Poset(3, [(1, 2), (2, 3)])


def msk(*elems):
    return mask_of(elems)


class TestClassify:
    def test_fig1(self):
        r = classify(FIG1)
        assert isinstance(r, BuildRecipe)
        assert r.duplication_set == frozenset(
            {frozenset({5, 6}), frozenset({7, 8})}
        )

    def test_chain(self):
        r = classify(CHAIN3)
        assert isinstance(r, BuildRecipe)
        assert r.duplication_set == frozenset()

    def test_forb3_witness(self):
        w = classify(FORB3)
        assert isinstance(w, Witness)
        assert w.kind == "BadIdeal"
        assert w.ideal == msk(1, 2, 3, 4)

    def test_replay_equality(self, posets5):
        for P in posets5[::5]:
            r = classify(P)
            if isinstance(r, BuildRecipe):
                assert recipe_poset(r) == P

    def test_duplication_pairs_disjoint(self, posets5):
        for P in posets5[::5]:
            r = classify(P)
            if isinstance(r, BuildRecipe):
                seen = set()
                for pair in r.duplication_set:
                    assert not (pair & seen)
                    seen |= pair

    def test_duplication_set_choice_independent(self, posets5):
        # D(P) must not depend on which candidate the recursion picks;
        # classify picks the least label, so a relabelling sigma changes
        # the picks, and D(sigma P) must still be sigma applied to D(P)
        assert list(inspect.signature(structure._classify).parameters) == ["P"]
        rng = random.Random(11)
        for P in posets5[::5]:
            base = classify(P)
            if not isinstance(base, BuildRecipe):
                continue
            for _ in range(3):
                sigma = dict(zip(range(1, P.n + 1), rng.sample(range(1, P.n + 1), P.n)))
                again = classify(Poset(P.n, [(sigma[a], sigma[b]) for a, b in P.covers]))
                assert isinstance(again, BuildRecipe)
                assert again.duplication_set == {
                    frozenset(map(sigma.get, pair)) for pair in base.duplication_set}


def retargeted(node):
    """Each copy of a recipe tree with one Hang moved to the least other
    element of its upper piece."""
    if isinstance(node, Leaf):
        return
    if isinstance(node, DisjointUnion):
        for i, part in enumerate(node.parts):
            for moved in retargeted(part):
                yield DisjointUnion(node.parts[:i] + (moved,) + node.parts[i + 1:])
    elif isinstance(node, Hang):
        others = [p for p in members(_replay(node.upper)[0]) if p != node.target]
        if others:
            yield node._replace(target=others[0])
        for moved in retargeted(node.upper):
            yield node._replace(upper=moved)
        for moved in retargeted(node.lower):
            yield node._replace(lower=moved)
    else:
        for moved in retargeted(node.child):
            yield node._replace(child=moved)


class TestReplay:
    """`_replay` hands unclosed relations to `Poset`, against the replay
    that closed the order itself with up-set dicts."""

    @pytest.fixture(scope="class")
    def fwd_posets(self, posets_to5):
        rng = random.Random(26)
        fwd = [P for P in posets_to5 if isinstance(classify(P), BuildRecipe)]
        return fwd + [random_fwd_poset(rng, rng.randint(6, 12)) for _ in range(60)]

    def test_replay_matches_up_sets(self, fwd_posets):
        for P in fwd_posets:
            recipe = classify(P)
            assert isinstance(recipe, BuildRecipe)
            assert recipe_poset(recipe) == P
            mask, rel = _replay(recipe.root)
            closed = Poset(P.n, rel)
            assert mask == P.full_mask
            assert replay_by_up_sets(recipe.root) == (
                mask, {p: closed.up_strict(p) for p in range(1, P.n + 1)})

    def test_retargeted_hang_is_caught(self, fwd_posets):
        moved_any = 0
        for P in fwd_posets:
            for root in retargeted(classify(P).root):
                moved_any += 1
                try:
                    rebuilt = recipe_poset(BuildRecipe(root, frozenset()))
                except AssertionError:
                    continue
                assert rebuilt != P
        assert moved_any > len(fwd_posets) // 2  # a chain or an antichain has none

    def test_bad_recipes_raise(self):
        with pytest.raises(AssertionError, match="disjoint union pieces overlap"):
            _replay(DisjointUnion((Leaf(1), Leaf(1))))
        with pytest.raises(AssertionError, match="hang pieces overlap"):
            _replay(Hang(Leaf(1), 1, Leaf(1)))
        with pytest.raises(AssertionError, match="hang target missing"):
            _replay(Hang(Leaf(1), 3, Leaf(2)))
        with pytest.raises(AssertionError, match="duplication hanger missing"):
            _replay(Duplicate(Leaf(1), 2, 3))
        with pytest.raises(AssertionError, match="duplicate label already present"):
            _replay(Duplicate(Hang(Leaf(1), 1, Leaf(2)), 1, 2))
        with pytest.raises(AssertionError, match="do not cover"):
            recipe_poset(BuildRecipe(Hang(Leaf(1), 1, Leaf(3)), frozenset()))


class TestNearlyPrincipal:
    def test_p1(self):
        assert nearly_principal(P1, msk(1, 2, 3))

    def test_forb1(self):
        assert not nearly_principal(FORB1, msk(1, 2, 3, 4))

    def test_forb3(self):
        assert not nearly_principal(FORB3, msk(1, 2, 3, 4))

    def test_rejects_principal(self):
        with pytest.raises(ArgError):
            nearly_principal(CHAIN3, msk(1, 2))

    def test_agrees_with_fiber_size(self, posets5):
        # nearly principal is the same as having exactly one pair
        # decomposition
        for P in posets5[::9]:
            for J in connected_ideals(P):
                if is_principal(P, J):
                    continue
                assert nearly_principal(P, J) == (len(pi_fiber(P, J)) == 1)


class TestCITests:
    def test_examples(self):
        assert ci_test_ideals(FIG1)
        assert not ci_test_ideals(FORB2)
        assert ci_test_ideals(Poset(1, []))
        assert ci_test_counts(FIG1)
        assert not ci_test_counts(EX33)
        assert ci_test_counts(Poset(4, []))

    def test_fig1_count_arithmetic(self):
        from ppart import nontrivial_pairs

        assert len(connected_ideals(FIG1)) == 10
        assert len(nontrivial_pairs(FIG1)) == 2

    def test_counts_pi_without_building_it(self, monkeypatch):
        from ppart import poset, structure

        def forbidden(*args):
            raise AssertionError("ci_test_counts built an intersection")

        for P in (FIG1, EX33, FORB2):
            connected_ideals(P)  # J_conn itself is walked with components
        for module in (poset, structure):
            monkeypatch.setattr(module, "hasse_components", forbidden)
        assert ci_test_counts(FIG1)
        assert not ci_test_counts(EX33)
        assert not ci_test_counts(FORB2)

    def test_count_side_never_exceeds_n(self, posets5):
        # the difference |J_conn| - |Pi| lands at n exactly for complete
        # intersections and can fall on either side in general; record
        # that equality is what the CI tests use
        for P in posets5[::31]:
            from ppart import nontrivial_pairs

            diff = len(connected_ideals(P)) - len(nontrivial_pairs(P))
            assert (diff == P.n) == ci_test_counts(P)


    def test_counts_match_the_clash_matrix(self, posets_to5):
        # the early-exit row count on a fresh poset against the full matrix
        for P in posets_to5:
            assert ci_test_counts(Poset(P.n, sorted(P.covers))) == ci_counts_by_clashes(P), P

    def test_count_stops_early_and_is_kept(self, monkeypatch):
        tree = Poset(18, [(k // 2, k) for k in range(2, 19)])  # |J_conn| = 2106, not CI
        drawn = []
        rows = structure._clash_rows

        def counting(P):
            for row in rows(P):
                drawn.append(row)
                yield row

        monkeypatch.setattr(structure, "_clash_rows", counting)
        assert not ci_test_counts(tree)
        assert 0 < len(drawn) < len(connected_ideals(tree)) // 10
        assert tree._clashes is None  # the matrix was never built
        drawn.clear()
        assert not ci_test_counts(tree)
        assert drawn == []

    def test_a_passing_count_keeps_its_rows(self):
        P, Q = (Poset(FIG1.n, sorted(FIG1.covers)) for _ in range(2))
        assert ci_test_counts(P)
        assert P._clashes == clashes(Q)


def _forbidden(*args):
    raise AssertionError("the gate asked for more than it needs")


class TestGate:
    """The count test `ci_test_counts` is the gate of every formula route:
    it never classifies, and the hook formulas ask it rather than
    `classify`."""

    @pytest.mark.parametrize("Q, ci", [(FIG1, True), (EX33, False), (FORB2, False)],
                             ids=["fig1", "ex33", "forb2"])
    def test_counts_without_a_classification(self, monkeypatch, Q, ci):
        monkeypatch.setattr(structure, "_classify", _forbidden)
        P = Poset(Q.n, sorted(Q.covers))
        assert ci_test_counts(P) is ci
        assert P._classification is None

    def test_hooks_do_not_classify(self, monkeypatch):
        monkeypatch.setattr(structure, "_classify", _forbidden)
        fresh = [Poset(Q.n, sorted(Q.covers)) for Q in (FIG1, EX33)]
        assert hook_count(fresh[0]) == 300
        assert hook_formula(fresh[0]) == hook_formula(FIG1)
        with pytest.raises(NotFWDError):
            hook_count(fresh[1])

    def test_hook_count_after_classify(self, monkeypatch):
        # a kept classification does not stand in for the count test
        P, asked = Poset(FIG1.n, sorted(FIG1.covers)), []
        classify(P)
        monkeypatch.setattr(series, "ci_test_counts", lambda Q: asked.append(Q) or ci_test_counts(Q))
        assert hook_count(P) == 300
        assert asked == [P]


class TestForbidden:
    def test_ex33_hit(self):
        hit = forbidden_scan(EX33)
        assert hit is not None
        name, emb = hit
        assert name in ("forb1", "forb2", "forb3")

    def test_fig1_clean(self):
        assert forbidden_scan(FIG1) is None

    def test_small_posets_clean(self, posets3):
        for P in posets3:
            assert forbidden_scan(P) is None


class TestEquivalence:
    def test_three_way_exhaustive(self, posets5):
        for P in posets5:
            built = isinstance(classify(P), BuildRecipe)
            assert built == ci_test_ideals(P)
            assert built == ci_test_counts(P)
            assert built == (forbidden_scan(P) is None)

    def test_three_way_random(self):
        for P in random_posets(515, 200, (6, 7)):
            built = isinstance(classify(P), BuildRecipe)
            assert built == ci_test_ideals(P)
            assert built == ci_test_counts(P)
            assert built == (forbidden_scan(P) is None)

    def test_hereditary(self, posets5):
        # induced subposets of classified posets classify as well
        rng = random.Random(3)
        for P in posets5[::7]:
            if not isinstance(classify(P), BuildRecipe):
                continue
            keep = sorted(rng.sample(range(1, P.n + 1), rng.randint(1, P.n)))
            relabel = {old: new for new, old in enumerate(keep, start=1)}
            rels = [
                (relabel[a], relabel[b])
                for a in keep
                for b in keep
                if P.lt(a, b)
            ]
            Q = Poset(len(keep), rels)
            assert isinstance(classify(Q), BuildRecipe)


class TestLemma41:
    def test_fig1(self):
        r = classify(FIG1)
        report = lemma41_predictions(FIG1, r)
        assert report.match
        assert len(report.predicted_ideals) == 10
        assert len(report.predicted_pairs) == 2

    def test_chain(self):
        report = lemma41_predictions(CHAIN3, classify(CHAIN3))
        assert report.match
        assert report.predicted_pairs == ()

    def test_p1(self):
        report = lemma41_predictions(P1, classify(P1))
        assert report.match
        assert report.predicted_pairs == (
            (principal_ideal(P1, 2), principal_ideal(P1, 3)),
        )

    def test_all_classified(self, posets5):
        for P in posets5[::13]:
            r = classify(P)
            if isinstance(r, BuildRecipe):
                assert lemma41_predictions(P, r).match


class TestWitnessRecheck:
    def test_bad_ideal_is_recheckable(self, posets4):
        for P in posets4:
            w = classify(P)
            if not isinstance(w, Witness):
                continue
            J = w.ideal
            assert len(hasse_components(P, J)) == 1
            assert not is_principal(P, J)
            assert not nearly_principal(P, J)
            for j1, j2 in w.decompositions:
                assert j1 | j2 == J


class TestPerPosetFacts:
    def test_pi_fiber_is_the_union_filter_of_pi(self, posets3, posets4, posets5):
        small = [P for n in (1, 2) for P in enumerate_posets(n)]
        for P in small + posets3 + posets4 + posets5 + random_posets(
            77, 100, (6, 7)
        ):
            pairs = nontrivial_pairs(P)
            for J in connected_ideals(P):
                assert pi_fiber(P, J) == [pr for pr in pairs if pr.union == J]

    def test_connected_ideals_returns_a_new_list(self):
        P = Poset(3, [(1, 2), (1, 3)])
        for _ in range(3):
            conn = connected_ideals(P)
            assert conn == [msk(1), msk(1, 2), msk(1, 3), msk(1, 2, 3)]
            conn.reverse()
            conn.append(0)

    def test_classify_is_computed_once(self):
        for Q in (FIG1, EX33):
            P = Poset(Q.n, Q.covers)
            assert classify(P) is classify(P)


# Every record with the fields, in the order, of the frozen dataclass it
# replaced; a NamedTuple is created without generating and exec-ing methods.
RECORDS = {
    Leaf: ("label",),
    DisjointUnion: ("parts",),
    Hang: ("upper", "target", "lower"),
    Duplicate: ("child", "hanger", "duplicate"),
    BuildRecipe: ("root", "duplication_set"),
    Witness: ("kind", "ideal", "decompositions"),
    StructureReport: ("match", "predicted_ideals", "actual_ideals", "predicted_pairs",
                      "actual_pairs"),
    SimplicialComplex: ("vertices", "facets"),
    PForest: ("parent",),
    ForestReport: ("terms", "total", "expected", "complex"),
    ConnDecomposition: ("parts", "nu"),
    DeltaData: ("delta", "satisfies_labelled_condition", "maj_p"),
    SyzGenerator: ("pair", "lhs", "rhs"),
    SemigroupIdealData: ("generators", "principal"),
}


class TestRecords:
    @pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
    def test_named_tuple_with_the_old_fields(self, cls):
        fields = RECORDS[cls]
        assert issubclass(cls, tuple) and cls._fields == fields
        assert cls._field_defaults == ({"ideal": 0, "decompositions": ()} if cls is Witness else {})
        record = cls(*range(len(fields)))
        assert repr(record) == f"{cls.__name__}({', '.join(f'{f}={i}' for i, f in enumerate(fields))})"
        for name in fields + tuple(n for n in ("n", "ok") if hasattr(cls, n)):
            with pytest.raises(AttributeError):
                setattr(record, name, -1)
        with pytest.raises(AttributeError):
            record.extra = -1

    def test_reprs_of_classify(self):
        assert repr(Leaf(3)) == "Leaf(label=3)"
        assert repr(classify(Poset(4, [(1, 3), (2, 3), (1, 4), (2, 4)]))) == (
            "BuildRecipe(root=Duplicate(child=Hang(upper=Leaf(label=3), target=3, "
            "lower=DisjointUnion(parts=(Leaf(label=1), Leaf(label=2)))), hanger=3, duplicate=4), "
            "duplication_set=frozenset({frozenset({3, 4})}))")
        assert repr(classify(FORB3)) == (
            "Witness(kind='BadIdeal', ideal=15, decompositions=((3, 13), (5, 11)))")
