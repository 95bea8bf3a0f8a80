"""Recognition of forests with duplications.

A poset built from singletons by disjoint union, hanging, and duplication
of a hanger admits a complete-intersection presentation; this module
recovers such a build recipe (or a certificate that none exists) and
checks the equivalent ideal-counting characterizations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ArgError
from .fixtures import FORB1, FORB2, FORB3
from .poset import (
    Poset,
    PiPair,
    clashes,
    connected_ideals,
    hasse_components,
    ideal_key,
    induced_occurrences,
    members,
    nontrivial_pairs,
    pairs_among,
    principal_ideal,
)

# -- recipe tree --------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    label: int


@dataclass(frozen=True)
class DisjointUnion:
    parts: tuple


@dataclass(frozen=True)
class Hang:
    upper: object
    target: int
    lower: object


@dataclass(frozen=True)
class Duplicate:
    child: object
    hanger: int
    duplicate: int


@dataclass(frozen=True)
class BuildRecipe:
    """Operation tree whose replay reconstructs the poset exactly."""

    root: object
    duplication_set: frozenset  # frozenset of frozenset({a, a'})

    def to_json(self):
        return {
            "kind": "recipe",
            "tree": _node_json(self.root),
            "duplication_set": sorted(sorted(p) for p in self.duplication_set),
        }


@dataclass(frozen=True)
class Witness:
    """Certificate that the poset is not a complete intersection.

    kind is always "BadIdeal": a connected ideal that is neither principal
    nor nearly principal, with its distinct pair decompositions (two of
    them normally, none when the ideal is not a pair union at all).
    """

    kind: str
    ideal: int = 0
    decompositions: tuple = ()

    def to_json(self):
        return {
            "kind": self.kind,
            "ideal": members(self.ideal),
            "decompositions": [
                [members(j1), members(j2)] for j1, j2 in self.decompositions
            ],
        }


def _node_json(node):
    if isinstance(node, Leaf):
        return {"op": "leaf", "label": node.label}
    if isinstance(node, DisjointUnion):
        return {"op": "disjoint_union", "parts": [_node_json(p) for p in node.parts]}
    if isinstance(node, Hang):
        return {
            "op": "hang",
            "target": node.target,
            "upper": _node_json(node.upper),
            "lower": _node_json(node.lower),
        }
    return {
        "op": "duplicate",
        "hanger": node.hanger,
        "duplicate": node.duplicate,
        "child": _node_json(node.child),
    }


# -- replay -------------------------------------------------------------


def _replay(node):
    """Rebuild (element mask, relations) from a recipe tree, the relations
    left unclosed for `Poset` to close.  A hang puts every element of the
    lower piece below the target.  A duplicate a2 of a gets a pair (p, a2)
    for each pair (p, a) and (a2, b) for each (a, b): every chain into or
    out of a ends in such a direct pair, so the closure puts a2 above all
    below a and below all above a.  A later hang on a reaches a only."""
    if isinstance(node, Leaf):
        return 1 << (node.label - 1), []
    if isinstance(node, DisjointUnion):
        mask, rel = 0, []
        for part in node.parts:
            pmask, prel = _replay(part)
            if mask & pmask:
                raise AssertionError("disjoint union pieces overlap")
            mask |= pmask
            rel += prel
        return mask, rel
    if isinstance(node, Hang):
        umask, urel = _replay(node.upper)
        lmask, lrel = _replay(node.lower)
        if umask & lmask:
            raise AssertionError("hang pieces overlap")
        if not umask & (1 << (node.target - 1)):
            raise AssertionError("hang target missing from upper piece")
        return umask | lmask, urel + lrel + [(p, node.target) for p in members(lmask)]
    # Duplicate
    cmask, crel = _replay(node.child)
    a, a2 = node.hanger, node.duplicate
    if not cmask & (1 << (a - 1)):
        raise AssertionError("duplication hanger missing")
    if cmask & (1 << (a2 - 1)):
        raise AssertionError("duplicate label already present")
    twins = [(p, a2) for p, b in crel if b == a] + [(a2, b) for p, b in crel if p == a]
    return cmask | 1 << (a2 - 1), crel + twins


def recipe_poset(recipe: BuildRecipe) -> Poset:
    """The poset a recipe builds (labels must cover 1..n): `Poset` closes
    the relations of `_replay`."""
    mask, rel = _replay(recipe.root)
    n = max(members(mask))
    if mask != (1 << n) - 1:
        raise AssertionError("recipe labels do not cover 1..n")
    return Poset(n, rel)


# -- principal / nearly principal ideals --------------------------------


def is_principal(P: Poset, J: int) -> bool:
    maxima = P.maximal_elements(J)
    return len(maxima) == 1 and principal_ideal(P, maxima[0]) == J


def nearly_principal(P: Poset, J: int) -> bool:
    """Exactly two maximal elements, and above every common lower bound
    the open intervals up to each maximal element coincide."""
    if len(hasse_components(P, J)) != 1 or is_principal(P, J):
        raise ArgError("nearly_principal needs a connected nonprincipal ideal")
    maxima = P.maximal_elements(J)
    if len(maxima) != 2:
        return False
    j1, j2 = maxima
    common = P.down_strict(j1) & P.down_strict(j2)
    for ell in members(common):
        open1 = P.up_strict(ell) & P.down_strict(j1)
        open2 = P.up_strict(ell) & P.down_strict(j2)
        if open1 != open2:
            return False
    return True


def pi_fiber(P: Poset, J: int) -> list[PiPair]:
    """Nontrivially-intersecting pairs of connected ideals with union J,
    in Pi order.  Both members of such a pair lie inside J, so only the
    connected ideals inside J are paired."""
    inside = [K for K in connected_ideals(P) if not K & ~J]
    return [pr for pr in pairs_among(P, inside) if pr.union == J]


def _find_bad_ideal(P: Poset):
    for J in connected_ideals(P):
        if not is_principal(P, J) and not nearly_principal(P, J):
            return J
    return None


def ci_test_ideals(P: Poset) -> bool:
    """True iff every connected order ideal is principal or nearly principal."""
    return _find_bad_ideal(P) is None


def ci_test_counts(P: Poset) -> bool:
    """True iff |J_conn(P)| - |Pi(P)| = n, with |Pi| half the sum of
    the popcounts of the clash masks."""
    clash = clashes(P)
    return sum(c.bit_count() for c in clash) == 2 * (len(clash) - P.n)


def forbidden_scan(P: Poset):
    """First induced occurrence of a forbidden 4/5-element pattern, as
    (name, embedding), or None."""
    for name, Q in (("forb1", FORB1), ("forb2", FORB2), ("forb3", FORB3)):
        occurrences = induced_occurrences(P, Q)
        if occurrences:
            return (name, occurrences[0])
    return None


# -- classification -----------------------------------------------------


def classify(P: Poset):
    """Decompose P as a forest with duplications, or return a Witness; once per Poset."""
    if P._classification is None:
        P._classification = _classify(P, min)
    return P._classification


def _classify(P: Poset, choose):
    """`classify` with choose picking among candidates: any choice gives one duplication set."""
    bad = _find_bad_ideal(P)
    if bad is not None:
        fiber = pi_fiber(P, bad)
        if len(fiber) == 1:
            raise AssertionError("bad ideal with a unique pair decomposition")
        decs = tuple((pr.j1, pr.j2) for pr in fiber[:2])
        return Witness(kind="BadIdeal", ideal=bad, decompositions=decs)

    dup_pairs = []

    def build(mask: int):
        elems = members(mask)
        if len(elems) == 1:
            return Leaf(elems[0])
        # build only sees convex sets, where the cover graph and the
        # comparability graph have the same components.
        comps = hasse_components(P, mask)
        if len(comps) > 1:
            return DisjointUnion(tuple(build(c) for c in comps))
        nonmin = [p for p in elems if P.down_strict(p) & mask]
        a = choose(nonmin)
        below_a = P.down_strict(a) & mask
        incomp = [
            p
            for p in elems
            if p != a and not (P.lt(a, p) or P.lt(p, a))
        ]
        partners = [p for p in incomp if P.down_strict(p) & below_a]
        if not partners:
            # Hang the strict down-set of a below a in the rest.
            return Hang(build(mask & ~below_a), a, build(below_a))
        a2 = choose(partners)
        a2bit = 1 << (a2 - 1)
        below_a2 = P.down_strict(a2) & mask
        common = below_a & below_a2
        if not common:
            raise AssertionError("duplication partner shares no lower bound")
        hat = mask & ~(below_a | below_a2)
        node = build(hat & ~a2bit)
        node = Hang(node, a, build(common))
        node = Duplicate(node, a, a2)
        dup_pairs.append(frozenset((a, a2)))
        only_a = below_a & ~below_a2
        only_a2 = below_a2 & ~below_a
        if only_a:
            node = Hang(node, a, build(only_a))
        if only_a2:
            node = Hang(node, a2, build(only_a2))
        return node

    root = build(P.full_mask)
    del build  # its closure cycle would keep dup_pairs alive until a full collection
    recipe = BuildRecipe(root, frozenset(dup_pairs))
    rebuilt = recipe_poset(recipe)
    if rebuilt != P:
        raise AssertionError("recipe replay does not reproduce the poset")
    return recipe


# -- structural predictions from the duplication set --------------------


@dataclass(frozen=True)
class StructureReport:
    match: bool
    predicted_ideals: tuple
    actual_ideals: tuple
    predicted_pairs: tuple
    actual_pairs: tuple


def lemma41_predictions(P: Poset, recipe: BuildRecipe) -> StructureReport:
    """Predict J_conn and Pi from the duplication set alone (principal
    ideals plus pair unions) and diff against direct enumeration."""
    predicted = {principal_ideal(P, p) for p in range(1, P.n + 1)}
    pred_pairs = set()
    for pair in recipe.duplication_set:
        a, a2 = sorted(pair)
        ja, ja2 = principal_ideal(P, a), principal_ideal(P, a2)
        predicted.add(ja | ja2)
        pred_pairs.add(tuple(sorted((ja, ja2), key=ideal_key)))
    actual = tuple(connected_ideals(P))
    actual_pairs = tuple((pr.j1, pr.j2) for pr in nontrivial_pairs(P))
    pred_ideals = tuple(sorted(predicted, key=ideal_key))
    pred_pair_t = tuple(sorted(pred_pairs, key=lambda t: (ideal_key(t[0]), ideal_key(t[1]))))
    match = pred_ideals == actual and pred_pair_t == actual_pairs
    return StructureReport(match, pred_ideals, actual, pred_pair_t, actual_pairs)
