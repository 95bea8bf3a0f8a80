"""Seeded poset generators.

Every generator returns a cover list `(n, [(a, b), ...])` with a < b in
the order, so a workload's inputs are plain data that set-up turns into
`ppart.Poset` objects.  The same `random.Random` state gives the same
posets.
"""

from __future__ import annotations

import random


def antichain(n):
    return n, []


def claw(n):
    """One bottom element covered by n - 1 pairwise incomparable ones."""
    return n, [(1, k) for k in range(2, n + 1)]


def binary_tree(n, root_at_top):
    """Heap-shaped binary tree on 1..n; element k hangs off k // 2."""
    if root_at_top:
        return n, [(k, k // 2) for k in range(2, n + 1)]
    return n, [(k // 2, k) for k in range(2, n + 1)]


def random_poset(rng: random.Random, n, p):
    """Forward edges along a shuffled order, each kept with probability p
    (the construction of the test suite's `random_poset`)."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    rels = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rels.append((perm[i], perm[j]))
    return n, rels


NEW_TREE_P = 0.15


def forest_with_duplications(rng: random.Random, n_base, n_dup):
    """A random rooted forest (roots at the top) plus twin duplications.

    Node i > 0 starts a new tree with probability NEW_TREE_P, otherwise it
    hangs below a uniformly chosen earlier node.  Then n_dup distinct
    non-minimal base nodes a each get a twin a' with the same upper and
    lower covers.  Returns (n, relations, twins) with twins the set of
    duplicated label pairs, which is the duplication set that
    `classify` must recover.
    """
    ups = {0: []}
    downs = {0: []}
    for i in range(1, n_base):
        downs[i] = []
        if rng.random() < NEW_TREE_P:
            ups[i] = []
        else:
            parent = rng.randrange(i)
            ups[i] = [parent]
            downs[parent].append(i)
    hangers = [i for i in range(n_base) if downs[i]]
    rng.shuffle(hangers)
    pairs = []
    for a in hangers[:n_dup]:
        b = len(ups)
        ups[b] = list(ups[a])
        downs[b] = list(downs[a])
        for u in ups[a]:
            downs[u].append(b)
        for d in downs[a]:
            ups[d].append(b)
        pairs.append((a, b))
    n = len(ups)
    label = list(range(1, n + 1))
    rng.shuffle(label)
    rels = [(label[d], label[u]) for u in range(n) for d in downs[u]]
    twins = frozenset(frozenset((label[a], label[b])) for a, b in pairs)
    return n, rels, twins
