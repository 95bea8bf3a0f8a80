"""Generator families for the three presentation ideals (toric, graded,
initial) in the polynomial ring on the U_J, the descent-monomial ideal of
standard value vectors inside the partition ring, and plain-text /
computer-algebra export of all of it.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

from .errors import ArgError
from .extensions import DEFAULT_CAP, _halves
from .partitions import _multiset_vector, delta_data
from .poset import PiPair, Poset, _collector_paused, connected_ideals, members, nontrivial_pairs


def var_name(mask: int, wide: bool) -> str:
    """U followed by the sorted member labels; underscore-separated once
    labels can reach two digits, so names stay unambiguous."""
    elems = members(mask)
    if wide:
        return "U_" + "_".join(str(p) for p in elems)
    return "U" + "".join(str(p) for p in elems)


def _m2_var_name(mask: int, wide: bool) -> str:
    """var_name for Macaulay2, where underscores mean indexing: wide names
    glue their labels with "x"."""
    if wide:
        return "U" + "x".join(str(p) for p in members(mask))
    return var_name(mask, wide)


class SyzGenerator(NamedTuple):
    """One relation per nontrivially-intersecting pair of connected ideals.

    lhs and rhs are monomials given as tuples of ideal masks; rhs is empty
    when the generator is a plain monomial.
    """

    pair: PiPair
    lhs: tuple[int, ...]
    rhs: tuple[int, ...]

    def render(self, wide: bool, name=var_name) -> str:
        """'lhs - rhs' (or the bare monomial), variables named by name."""
        left = "*".join(name(m, wide) for m in self.lhs)
        if not self.rhs:
            return left
        right = "*".join(name(m, wide) for m in self.rhs)
        return f"{left} - {right}"


class Presentation(NamedTuple):
    """The three generator families of P's presentation ideals, one
    generator of each per pair of Pi, in the canonical pair order."""

    poset: Poset
    toric: list[SyzGenerator]
    graded: list[SyzGenerator]
    initial: list[SyzGenerator]

    @property
    def graded_iso(self) -> bool:
        """True iff every graded generator is a binomial, i.e. every
        intersection is connected and the graded ideal is the toric one."""
        return all(g.rhs for g in self.graded)

    def rendered(self) -> tuple[list[str], ...]:
        """The toric, graded and initial generators as strings."""
        return self._render(self._names(var_name))

    def _names(self, name) -> dict[int, str]:
        """Each connected ideal's variable name, in J_conn order.  Every
        mask in a generator is a connected ideal: J1, J2, their union and
        the components of their intersection."""
        P = self.poset
        return {J: name(J, P.n > 9) for J in connected_ideals(P)}

    def _render(self, names: dict[int, str]) -> tuple[list[str], ...]:
        def named(mask, wide):
            return names[mask]

        wide = self.poset.n > 9
        return tuple([g.render(wide, named) for g in gens] for gens in self[1:])

    def export(self, format: str = "text", families=None) -> str:
        """The ring and the three ideals as plain text or Macaulay2.

        families, the result of `rendered()` if the caller has it, is
        reused by the formats that name variables by var_name."""
        if format not in _FORMATS:
            raise ArgError(f"unknown export format {format!r}")
        head, name, family = _FORMATS[format]
        names = self._names(name)
        if families is None or name is not var_name:
            families = self._render(names)
        lines = head(self.poset, ", ".join(names.values()))
        for label, gens in zip(("toric", "graded", "initial"), families):
            lines += family(label, gens)
        return "\n".join(lines) + "\n"


def _m2_head(P: Poset, names: str) -> list[str]:
    covers = " ".join(f"{a}<{b}" for a, b in sorted(P.covers))
    return [
        f"-- presentation data for a labelled poset on {P.n} elements; covers: {covers}",
        f"S = QQ[{names}];",
    ]


# format -> (lines before the ideals, variable names, lines of one ideal)
_FORMATS = {
    "text": (
        lambda P, names: [f"S = k[{names}]"],
        var_name,
        lambda label, gens: [f"{label}:"] + ["  " + g for g in gens or ["(none)"]],
    ),
    "m2": (
        _m2_head,
        _m2_var_name,
        lambda label, gens: [f"I{label} = ideal({', '.join(gens) or '0_S'});"],
    ),
}


def presentation_of(P: Poset) -> Presentation:
    """All three families from one listing of Pi.  A toric generator
    U_J1 U_J2 - U_{J1 u J2} times one variable per component of the
    intersection is also the graded one when the intersection is
    connected; otherwise the graded generator is the initial monomial."""
    toric, graded, initial = [], [], []
    for pr in nontrivial_pairs(P):
        lhs = (pr.j1, pr.j2)
        comps = pr.intersection_components
        binomial = SyzGenerator(pr, lhs, (pr.union,) + comps)
        monomial = SyzGenerator(pr, lhs, ())
        toric.append(binomial)
        graded.append(binomial if len(comps) == 1 else monomial)
        initial.append(monomial)
    return Presentation(P, toric, graded, initial)


def toric_generators(P: Poset) -> list[SyzGenerator]:
    return presentation_of(P).toric


def graded_generators(P: Poset) -> list[SyzGenerator]:
    return presentation_of(P).graded


def initial_generators(P: Poset) -> list[SyzGenerator]:
    return presentation_of(P).initial


def verify_vanishing(P: Poset, gens) -> bool:
    """Substitute U_J -> indicator exponent of J and check that both
    monomials of every binomial get the same multidegree."""
    def total(masks):
        return _multiset_vector(P.n, [(m, 1) for m in masks])

    return all(not g.rhs or total(g.lhs) == total(g.rhs) for g in gens)


def is_graded_iso(P: Poset) -> bool:
    return presentation_of(P).graded_iso


def export(P: Poset, format: str = "text") -> str:
    return presentation_of(P).export(format)


def hibi_check(P: Poset) -> bool:
    """True iff P has a unique minimal element."""
    return len(P.minimal_elements(P.full_mask)) == 1


class SemigroupIdealData(NamedTuple):
    """Descent-monomial generators of the standard-vector ideal, as
    exponent vectors; principal holds the minimal vector when the ideal
    is principal (per-element chain condition), else None."""

    generators: tuple[tuple[int, ...], ...]
    principal: tuple[int, ...] | None


@_collector_paused
def semigroup_ideal(P: Poset, cap: int = DEFAULT_CAP) -> SemigroupIdealData:
    """The distinct descent vectors sum_{i in Des(w)} 1_{w[:i]} over L(P),
    joined from the two halves of `_halves`.

    A vector is packed into one integer, a byte per entry with element 1
    in the most significant one, so adding the indicator of a prefix is
    one addition, integer order is the lexicographic order of vectors,
    and `int.to_bytes` unpacks it.  An entry counts descents, so it stays
    below n <= MAX_ELEMENTS = 64 < 256.  The prefix vectors are gathered
    into a set per (ideal, last element), and so are the vectors of the
    ideal's suffixes, plus the ideal's indicator for those that begin
    below last; the result is every sum of one of each.
    Raises ExplosionError when more than cap extensions exist."""
    shift = [0] + [8 * (P.n - p) for p in range(1, P.n + 1)]
    prefixes, suffixes, weighed = _halves(
        P, lambda ideal: sum(1 << shift[p] for p in members(ideal)), cap)
    heads = {}  # (ideal, last) -> its prefix vectors
    for _, ideal, last, v in prefixes:
        heads.setdefault((ideal, last), set()).add(v)
    packed = set()
    for (ideal, last), vectors in heads.items():
        tails = suffixes[ideal]
        cut = bisect_left(tails, (last,))  # the suffixes that begin below last
        ends = {v for _, _, v in tails[cut:]}
        if cut:
            junction = weighed[ideal]
            ends.update([v + junction for _, _, v in tails[:cut]])
        for a in vectors:
            packed.update([a + b for b in ends])
    gens = tuple(tuple(v.to_bytes(P.n, "big")) for v in sorted(packed))
    data = delta_data(P)
    principal = data.delta if data.satisfies_labelled_condition else None
    return SemigroupIdealData(gens, principal)
