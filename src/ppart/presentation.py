"""Generator families for the three presentation ideals (toric, graded,
initial) in the polynomial ring on the U_J, the descent-monomial ideal of
standard value vectors inside the partition ring, and plain-text /
computer-algebra export of all of it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .extensions import DEFAULT_CAP, linear_extensions
from .partitions import _multiset_vector, delta_data
from .poset import (
    Poset,
    PiPair,
    connected_ideals,
    members,
    nontrivial_pairs,
)

TORIC = "toric"
GRADED = "graded"
INITIAL = "initial"


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
    elems = members(mask)
    if wide:
        return "U" + "x".join(str(p) for p in elems)
    return "U" + "".join(str(p) for p in elems)


@dataclass(frozen=True)
class SyzGenerator:
    """One relation per nontrivially-intersecting pair of connected ideals.

    lhs and rhs are monomials given as tuples of ideal masks; rhs is empty
    when the generator is a plain monomial.
    """

    pair: PiPair
    kind: str
    lhs: tuple[int, ...]
    rhs: tuple[int, ...]

    def render(self, wide: bool, name=var_name) -> str:
        """'lhs - rhs' (or the bare monomial), variables named by name."""
        left = "*".join(name(m, wide) for m in self.lhs)
        if not self.rhs:
            return left
        right = "*".join(name(m, wide) for m in self.rhs)
        return f"{left} - {right}"


def toric_generators(P: Poset) -> list[SyzGenerator]:
    """U_J1 U_J2 - U_{J1 u J2} times one variable per component of the
    intersection; one generator per pair, in the canonical pair order."""
    out = []
    for pr in nontrivial_pairs(P):
        rhs = (pr.union,) + pr.intersection_components
        out.append(SyzGenerator(pr, TORIC, (pr.j1, pr.j2), rhs))
    return out


def graded_generators(P: Poset) -> list[SyzGenerator]:
    """Quadratic form: binomial when the intersection is connected,
    monomial when it is not."""
    out = []
    for pr in nontrivial_pairs(P):
        if len(pr.intersection_components) == 1:
            rhs = (pr.union, pr.intersection)
        else:
            rhs = ()
        out.append(SyzGenerator(pr, GRADED, (pr.j1, pr.j2), rhs))
    return out


def initial_generators(P: Poset) -> list[SyzGenerator]:
    return [
        SyzGenerator(pr, INITIAL, (pr.j1, pr.j2), ())
        for pr in nontrivial_pairs(P)
    ]


def verify_vanishing(P: Poset, gens) -> bool:
    """Substitute U_J -> indicator exponent of J and check that both
    monomials of every binomial get the same multidegree."""
    def total(masks):
        return _multiset_vector(P.n, [(m, 1) for m in masks])

    return all(not g.rhs or total(g.lhs) == total(g.rhs) for g in gens)


def is_graded_iso(P: Poset) -> bool:
    """True iff every nontrivial pair has connected intersection (the
    graded presentation then coincides with the toric one)."""
    return all(
        len(pr.intersection_components) == 1 for pr in nontrivial_pairs(P)
    )


def hibi_check(P: Poset) -> bool:
    """True iff P has a unique minimal element."""
    return len(P.minimal_elements(P.full_mask)) == 1


@dataclass(frozen=True)
class SemigroupIdealData:
    """Descent-monomial generators of the standard-vector ideal, as
    exponent vectors; principal holds the minimal vector when the ideal
    is principal (per-element chain condition), else None."""

    generators: tuple[tuple[int, ...], ...]
    principal: tuple[int, ...] | None


def semigroup_ideal(P: Poset, cap: int = DEFAULT_CAP) -> SemigroupIdealData:
    gens = set()
    for ext in linear_extensions(P, cap=cap):
        f = [0] * P.n
        for i in ext.des_set:
            for p in ext.w[:i]:
                f[p - 1] += 1
        gens.add(tuple(f))
    data = delta_data(P)
    principal = data.delta if data.satisfies_labelled_condition else None
    return SemigroupIdealData(tuple(sorted(gens)), principal)


# -- export -------------------------------------------------------------


def export(P: Poset, format: str = "text") -> str:
    if format == "text":
        return _export_text(P)
    if format == "m2":
        return _export_m2(P)
    raise ValueError(f"unknown export format {format!r}")


def _export_text(P: Poset) -> str:
    wide = P.n > 9
    lines = ["S = k[" + ", ".join(var_name(J, wide) for J in connected_ideals(P)) + "]"]
    for label, gens in (
        ("toric", toric_generators(P)),
        ("graded", graded_generators(P)),
        ("initial", initial_generators(P)),
    ):
        lines.append(f"{label}:")
        if not gens:
            lines.append("  (none)")
        for g in gens:
            lines.append("  " + g.render(wide))
    return "\n".join(lines) + "\n"


def _export_m2(P: Poset) -> str:
    wide = P.n > 9
    names = [_m2_var_name(J, wide) for J in connected_ideals(P)]

    def body(gens):
        if not gens:
            return "ideal(0_S)"
        return "ideal(" + ", ".join(g.render(wide, _m2_var_name) for g in gens) + ")"

    lines = [
        "-- presentation data for a labelled poset on "
        + f"{P.n} elements; covers: "
        + " ".join(f"{a}<{b}" for a, b in sorted(P.covers)),
        "S = QQ[" + ", ".join(names) + "];",
        "Itoric = " + body(toric_generators(P)) + ";",
        "Igraded = " + body(graded_generators(P)) + ";",
        "Iinitial = " + body(initial_generators(P)) + ";",
    ]
    return "\n".join(lines) + "\n"
