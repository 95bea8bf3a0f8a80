"""The recursive enumerations free their results by reference counting.

A nested function that calls itself forms a reference cycle through its
closure, and that cycle keeps whatever the closure holds (typically the
output list) alive until a full garbage collection.  When that comes
depends on everything allocated before, so a process's peak memory would
depend on where the collector happens to run.  Each enumeration breaks
its cycle before returning; these tests check that a call leaves nothing
for the collector.  Every kernel that runs with the collector paused
(`poset._collector_paused`) is among CALLS, which `test_imports` checks.
"""

import gc

import pytest

from ppart import (
    BuildRecipe,
    PForest,
    Poset,
    classify,
    clashes,
    connected_ideals,
    count_by_size,
    count_ideals,
    delta_complex,
    enumerate_partitions,
    hilbert_truncated,
    induced_occurrences,
    initial_quotient_hilbert,
    linear_extensions,
    nontrivial_pairs,
    numerator_polynomial,
    pi_fiber,
    semigroup_ideal,
)
from ppart.fixtures import FIG1, FORB1


CLAW9 = Poset(9, [(1, k) for k in range(2, 10)])


def fresh(P):
    """A new Poset equal to P, with none of P's cached facts."""
    return Poset(P.n, sorted(P.covers))


CALLS = {
    "enumerate_partitions": lambda: enumerate_partitions(FIG1, "weak", 6),
    "linear_extensions": lambda: linear_extensions(FIG1),
    "delta_complex": lambda: delta_complex(FIG1),
    "induced_occurrences": lambda: induced_occurrences(FIG1, FORB1),
    "classify": lambda: classify(fresh(FIG1)),
    "connected_ideals": lambda: connected_ideals(fresh(FIG1)),
    "clashes": lambda: clashes(fresh(FIG1)),
    "nontrivial_pairs": lambda: nontrivial_pairs(fresh(FIG1)),
    "pi_fiber": lambda: pi_fiber(FIG1, connected_ideals(FIG1)[-1]),
    "semigroup_ideal fig1": lambda: semigroup_ideal(FIG1),
    "semigroup_ideal claw9": lambda: semigroup_ideal(CLAW9),
    "count_ideals": lambda: count_ideals(FIG1),
    "principal_ideals": lambda: PForest((0, 1, 1, 2)).principal_ideals(),
    "hilbert_truncated t": lambda: hilbert_truncated(FIG1, "weak", "t", 4),
    "hilbert_truncated tx": lambda: hilbert_truncated(FIG1, "weak", "tx", 6),
    "hilbert_truncated standard t": lambda: hilbert_truncated(FIG1, "standard", "t", 4),
    "hilbert_truncated strict t": lambda: hilbert_truncated(FIG1, "strict", "t", 4),
    "initial_quotient_hilbert t": lambda: initial_quotient_hilbert(FIG1, "t", 4),
    "initial_quotient_hilbert x": lambda: initial_quotient_hilbert(FIG1, "x", 6),
    "count_by_size": lambda: count_by_size(FIG1, "standard", 20),
    "numerator_polynomial": lambda: numerator_polynomial(FIG1, 20),
}


def test_classify_builds_a_recipe():
    assert isinstance(classify(fresh(FIG1)), BuildRecipe)


@pytest.mark.parametrize("name", CALLS)
def test_call_leaves_no_cycle(name):
    CALLS[name]()  # warm caches on the fixture posets
    gc.collect()
    gc.disable()
    try:
        result = CALLS[name]()
        del result
        assert gc.collect() == 0
    finally:
        gc.enable()
