"""The flag complex on connected order ideals and its facet forests.

Vertices are the nonempty connected order ideals; a set of vertices is a
face exactly when its members pairwise intersect trivially (disjoint or
nested), so the minimal non-faces are the nontrivial pairs.  Facets
correspond to forests on the ground set whose principal ideals are the
facet members.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import CapError
from .extensions import count_extensions
from .poset import (
    Poset,
    clashes,
    connected_ideals,
    ideal_key,
    members,
    principal_ideal,
)

DEFAULT_VERTEX_CAP = 24


class SimplicialComplex(NamedTuple):
    vertices: tuple[int, ...]          # connected ideal masks, canonical order
    facets: tuple[tuple[int, ...], ...]  # each facet a tuple of masks

    def to_json(self):
        return {
            "vertices": [members(v) for v in self.vertices],
            "facets": [[members(v) for v in f] for f in self.facets],
        }


class PForest(NamedTuple):
    """Forest on 1..n as a parent vector (0 for roots); i sits below its
    parent, so each principal ideal of the forest is an ideal of P."""

    parent: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.parent)

    def covers(self):
        return [(i, p) for i, p in enumerate(self.parent, start=1) if p]

    def as_poset(self) -> Poset:
        return Poset(self.n, self.covers())

    def principal_ideals(self) -> tuple[int, ...]:
        """Each element with all below it in the forest, by ideal_key."""
        F = self.as_poset()
        return tuple(sorted((principal_ideal(F, p) for p in range(1, self.n + 1)), key=ideal_key))


def _max_cliques(adj, nv):
    """Pivoting Bron-Kerbosch over vertex index bitmasks, deterministic."""
    out = []

    def expand(r, p, x):
        if not p and not x:
            out.append(r)
            return
        pivot_pool = p | x
        pivot = max(
            (i for i in range(nv) if pivot_pool >> i & 1),
            key=lambda i: (p & adj[i]).bit_count(),
        )
        candidates = p & ~adj[pivot]
        for i in range(nv):
            if candidates >> i & 1:
                bit = 1 << i
                expand(r | bit, p & adj[i], x & adj[i])
                p &= ~bit
                x |= bit

    expand(0, (1 << nv) - 1, 0)
    del expand  # its closure cycle would keep out alive until a full collection
    return out


def delta_complex(P: Poset, cap: int = DEFAULT_VERTEX_CAP) -> SimplicialComplex:
    """Facets as maximal cliques of the trivial-intersection graph."""
    conn = connected_ideals(P)
    if len(conn) > cap:
        raise CapError(f"{len(conn)} vertices exceeds the cap {cap}")
    nv = len(conn)
    adj = [((1 << nv) - 1) & ~(c | 1 << i) for i, c in enumerate(clashes(P))]
    facets = []
    for clique in _max_cliques(adj, nv):
        facets.append(tuple(conn[i] for i in range(nv) if clique >> i & 1))
    facets.sort(key=lambda f: tuple(ideal_key(m) for m in f))
    return SimplicialComplex(tuple(conn), tuple(facets))


def _facet_to_forest(P: Poset, facet) -> PForest:
    """A facet is a laminar family of n connected ideals; peel each set to
    the element it introduces and read parents off strict containment."""
    family = sorted(facet, key=ideal_key)
    if len(family) != P.n:
        raise AssertionError("facet does not have one set per element")
    elem_of = {}
    parent = [0] * P.n
    for J in family:
        residual = J
        for K in family:
            if K != J and K & J == K:
                residual &= ~K
        picked = members(residual)
        if len(picked) != 1:
            raise AssertionError("facet member does not introduce one element")
        elem_of[J] = picked[0]
    for J in family:
        supersets = [K for K in family if K != J and K & J == J]
        if supersets:
            smallest = min(supersets, key=ideal_key)
            parent[elem_of[J] - 1] = elem_of[smallest]
    return PForest(tuple(parent))


def p_forests(P: Poset, cap: int = DEFAULT_VERTEX_CAP) -> list[PForest]:
    """All facet forests, in facet order."""
    return [_facet_to_forest(P, f) for f in delta_complex(P, cap).facets]


class ForestReport(NamedTuple):
    terms: tuple[tuple[tuple[int, ...], int], ...]  # (parent vector, count)
    total: int
    expected: int
    complex: SimplicialComplex  # the flag complex whose facets were checked

    @property
    def ok(self) -> bool:
        return self.total == self.expected

    def to_json(self):
        return {
            "terms": [{"parents": list(p), "count": c} for p, c in self.terms],
            "total": self.total,
            "expected": self.expected,
            "ok": self.ok,
        }


def forest_consistency(P: Poset, cap: int = DEFAULT_VERTEX_CAP) -> ForestReport:
    """Check that the facet forests partition the linear extensions:
    the forest counts, each n! over the product of its principal ideal
    sizes (Knuth's hook length formula for forests), must add up to
    `count_extensions(P)`.  A facet is its forest's set of principal
    ideals, so the sizes are read off the facet.  The report keeps the
    complex, so a caller never builds it twice."""
    complex_ = delta_complex(P, cap)
    terms = []
    for facet in complex_.facets:
        hooks = math.prod(J.bit_count() for J in facet)
        terms.append((_facet_to_forest(P, facet).parent, math.factorial(P.n) // hooks))
    total = sum(c for _, c in terms)
    return ForestReport(tuple(terms), total, count_extensions(P), complex_)
