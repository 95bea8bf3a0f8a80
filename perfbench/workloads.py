"""The three benchmark workloads.

A workload is built in four steps, and only `build` is timed (as set-up):

- `draw(pp)` picks the inputs from the seed.  It may call ppart, for
  example to keep only random forests that `classify` accepts.
- `build(pp)` turns the drawn cover lists into `Poset` objects (or
  parses poset files) with a freshly imported ppart.  It runs again,
  untimed, before every round, so each round gets new objects.
- `census()` records |J(P)|, |J_conn|, |Pi| and |L(P)| of every poset.
- `ops(pp)` computes the reference answers and returns the operations.

An `Op` calls ppart through the package namespace at call time, so the
traced run sees the wrapped functions, and its `check` compares the
result with a reference from an independent path (see `oracle`).
"""

from __future__ import annotations

import importlib.util
import io
import json
import random
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from . import gen, oracle

Op = namedtuple("Op", "name call check")

HERE = Path(__file__).resolve().parent


def run_cli(pp, argv):
    """ppart.cli.main in-process: (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = pp.cli.main(argv)
    return code, out.getvalue()


def golden_cases(root):
    """Every case of tests/cli_golden.py as (name, argv, (exit code,
    stdout)), with the loaded module."""
    spec = importlib.util.spec_from_file_location("cli_golden", root / "tests" / "cli_golden.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    cases = []
    for command, fixture, argv in golden.iter_cases():
        doc = json.loads((golden.GOLDEN / golden.case_name(command, fixture)).read_text())
        cases.append((f"{command} {fixture}", argv, (doc["exit"], doc["stdout"])))
    return cases, golden


def cli_op(pp, case):
    """A CLI run whose exit code and stdout must match byte for byte."""
    name, argv, want = case
    return Op(name, lambda: run_cli(pp, argv), lambda got: got == want)


def golden_op(pp, root, name):
    """One golden CLI case.  A workload whose own operations leave the cli
    layer (or another) idle runs one, so every layer's traced self time
    measures some work rather than reading a constant zero."""
    case = next(c for c in golden_cases(root)[0] if c[0] == name)
    return cli_op(pp, case)


def census_row(name, n, covers):
    conn = oracle.connected_ideals(n, covers)
    pi, _ = oracle.pairs_digest(n, covers, conn)
    ideals = sum(len(level) for level in oracle.ideal_levels(n, covers))
    return name, n, ideals, len(conn), pi, oracle.extension_count(n, covers)


def _covers(P):
    return sorted(P.covers)


class Workload:
    def __init__(self, root: Path, seed: int):
        self.root = root
        self.rng = random.Random(seed)
        self.posets = {}  # name -> Poset, filled by build

    def census(self):
        return [census_row(name, P.n, _covers(P)) for name, P in self.posets.items()]


class CliFixtures(Workload):
    """Every golden CLI case, plus three expected failures."""

    def draw(self, pp):
        self.cases, golden = golden_cases(self.root)
        fixtures = Path(golden.FIXTURES)
        for argv, code in (
            (["extensions", fixtures / "fig1.poset", "--cap", "10"], 4),
            (["hook", fixtures / "forb1.poset"], 3),
            (["analyze", HERE / "data" / "malformed.poset"], 2),
        ):
            argv[1] = str(argv[1])
            self.cases.append((f"{argv[0]} {Path(argv[1]).stem} (exit {code})", argv, (code, "")))
        self.fixtures = [fixtures / f"{name}.poset" for name in golden.ALL_FIXTURES]

    def build(self, pp):
        self.posets = {f.stem: pp.parse_poset(f.read_text()) for f in self.fixtures}

    def ops(self, pp):
        return [cli_op(pp, case) for case in self.cases]


# Example 3.3 of the paper: the numerator of the (t,x) Hilbert series of ex33.
EX33_NUMERATOR = {
    (0, (0, 0, 0, 0, 0)): 1,
    (2, (1, 2, 1, 1, 0)): -1,
    (2, (1, 2, 1, 1, 1)): -1,
    (2, (2, 2, 2, 1, 1)): -1,
    (3, (2, 3, 2, 1, 1)): 1,
    (3, (2, 3, 2, 2, 1)): 1,
}


class SeriesKoszul(Workload):
    """Truncated series and their inverses on posets with small J(P)."""

    RANDOM_FWD = 10     # random posets that classify as forests with duplications
    RANDOM_OTHER = 10   # and random posets that do not
    # Random 7-element posets are drawn until |J(P)|, |J_conn| and |L(P)|
    # fall in these ranges, which hold the cost of each of their
    # operations within a narrow band; unbounded, one draw with a large
    # L(P) outweighs all the others and the run's figures follow the seed.
    # With 20 such posets the median and p90 latencies fall inside groups
    # of their operations rather than between two kinds of operation.
    RANDOM_SIZES = {"ideals": (28, 36), "connected": (7, 9), "extensions": (120, 170)}
    Q_TRUNC = 10        # standard q series, eq. 3.5
    T_TRUNC = 5         # t-graded weak series
    TX_TRUNC = 3        # rational sum, eq. 3.1
    X_TRUNC = 4         # initial quotient, Prop. 6.2
    DUP_TRUNC = 12      # duplication product, Thm 4.2

    def draw(self, pp):
        self.specs = {}
        fixtures = self.root / "src" / "ppart" / "fixtures"
        self.files = {name: fixtures / f"{name}.poset" for name in ("fig1", "ex33")}
        self.specs["antichain6"] = gen.antichain(6)
        want = {True: self.RANDOM_FWD, False: self.RANDOM_OTHER}
        while any(want.values()):
            n, rels = gen.random_poset(self.rng, 7, 0.3)
            P = pp.Poset(n, rels)
            _, _, ideals, connected, _, extensions = census_row("", n, _covers(P))
            sizes = {"ideals": ideals, "connected": connected, "extensions": extensions}
            if any(not lo <= sizes[k] <= hi for k, (lo, hi) in self.RANDOM_SIZES.items()):
                continue
            fwd = isinstance(pp.classify(P), pp.BuildRecipe)
            if want[fwd]:
                want[fwd] -= 1
                self.specs[f"random{len(self.specs)}{'-fwd' if fwd else ''}"] = (n, rels)

    def build(self, pp):
        self.posets = {name: pp.parse_poset(f.read_text()) for name, f in self.files.items()}
        self.posets.update({name: pp.Poset(n, rels) for name, (n, rels) in self.specs.items()})
        self.natural = {name: P if pp.is_naturally_labelled(P) else pp.natural_relabel(P)[0]
                        for name, P in self.posets.items()}

    def ops(self, pp):
        ops = []
        for name, P in self.posets.items():
            Q = self.natural[name]
            N = 6 if name == "fig1" else 4
            ops += [
                Op(f"koszul_inverse {name} N={N}",
                   lambda n=name, N=N: pp.koszul_inverse(self.posets[n], N),
                   self._koszul_check(pp, P, N)),
                Op(f"hilbert t {name}",
                   lambda n=name: pp.hilbert_truncated(self.posets[n], "weak", "t", self.T_TRUNC),
                   self._t_check(P)),
                Op(f"hilbert standard q {name}",
                   lambda n=name: pp.hilbert_truncated(
                       self.natural[n], "standard", "q", self.Q_TRUNC),
                   self._eq35_check(Q)),
                Op(f"rational_sum {name}",
                   lambda n=name: pp.rational_sum_truncated(
                       self.natural[n], "(t,x)", self.TX_TRUNC),
                   _equals(pp.hilbert_truncated(Q, "standard", "(t,x)", self.TX_TRUNC))),
                Op(f"initial_quotient {name}",
                   lambda n=name: pp.initial_quotient_hilbert(self.posets[n], "x", self.X_TRUNC),
                   _equals(pp.hilbert_truncated(P, "weak", "x", self.X_TRUNC))),
            ]
            recipe = pp.classify(P)
            if isinstance(recipe, pp.BuildRecipe):
                ops.append(Op(
                    f"duplication_product {name}",
                    lambda n=name, r=recipe: pp.duplication_product(
                        self.posets[n], r, "q", self.DUP_TRUNC),
                    _equals(pp.hilbert_truncated(P, "weak", "q", self.DUP_TRUNC))))
        ops.append(Op("numerator ex33",
                      lambda: pp.numerator_polynomial(self.posets["ex33"], 12),
                      lambda got: got.coeffs == EX33_NUMERATOR))
        argv = ["selftest", str(self.files["fig1"]), "--trunc", "6"]
        ops.append(Op("selftest fig1", lambda: run_cli(pp, argv), _selftest_passes))
        ops.append(golden_op(pp, self.root, "presentation ex33"))
        return ops

    @staticmethod
    def _koszul_check(pp, P, N):
        """Cor. 1.5: the inverse is nonnegative, and it is an inverse."""
        h = pp.hilbert_truncated(P, "weak", "tx", N).substitute_neg_t()
        one = h.one_like()

        def check(got):
            inv, nonneg = got
            return (nonneg is True and all(c >= 0 for c in inv.coeffs.values())
                    and inv * h == one)
        return _remembering(check)

    @staticmethod
    def _t_check(P):
        counts = oracle.trivial_multiset_counts(
            oracle.connected_ideals(P.n, _covers(P)), SeriesKoszul.T_TRUNC)
        want = {(t, ()): c for t, c in enumerate(counts) if c}
        return lambda got: got.coeffs == want

    @staticmethod
    def _eq35_check(Q):
        """eq. 3.5: prod (1 - q^i) times the standard series is the maj
        polynomial."""
        N = SeriesKoszul.Q_TRUNC
        maj = oracle.maj_coeffs(Q.n, _covers(Q))
        want = [maj[d] if d < len(maj) else 0 for d in range(N + 1)]

        def check(got):
            h = [got.coeffs.get((0, (d,)), 0) for d in range(N + 1)]
            return (len(got.coeffs) == sum(1 for c in h if c)
                    and oracle.times_q_factorial_denominator(h, Q.n, N) == want)
        return check


def _equals(reference):
    return lambda got: got == reference


def _remembering(check):
    """Skip the full check for a result equal to one already verified."""
    verified = []

    def remembered(got):
        if any(got == v for v in verified):
            return True
        ok = check(got)
        if ok:
            verified.append(got)
        return ok
    return remembered


def _selftest_passes(got):
    code, stdout = got
    doc = json.loads(stdout)["results"]
    return (code == 0 and doc["ok"] is True
            and all(c["status"] == "pass" for c in doc["identities"]))


class LatticeScale(Workload):
    """Extension enumeration, FWD structure and Pi on larger posets."""

    # Random draws are kept only inside these size ranges, so that the
    # work of a round changes little from seed to seed.  The median
    # latency then falls inside the group of like-priced forest and
    # random-poset operations, and the p90 inside the 9-claw's
    # operations, rather than on the border between two kinds.
    RANDOM = 4                  # random posets, n = 10, p = 0.25
    RANDOM_EXTENSIONS = (1500, 2000)
    FORESTS = 10                # random forests with duplications, n = 20..22
    FOREST_IDEALS = (2500, 3500)

    def draw(self, pp):
        self.specs = {
            "antichain8": gen.antichain(8),
            "claw9": gen.claw(9),
        }
        lo, hi = self.RANDOM_EXTENSIONS
        while len(self.specs) < 2 + self.RANDOM:
            n, rels = gen.random_poset(self.rng, 10, 0.25)
            P = pp.Poset(n, rels)
            if lo <= oracle.extension_count(n, _covers(P)) <= hi:
                self.specs[f"random{len(self.specs) - 1}"] = (n, rels)
        self.enumerated = list(self.specs)
        self.specs["tree20-top"] = gen.binary_tree(20, root_at_top=True)
        self.twins = {}
        lo, hi = self.FOREST_IDEALS
        while len(self.twins) < self.FORESTS:
            n, rels, twins = gen.forest_with_duplications(
                self.rng, 17, self.rng.choice((3, 4, 5)))
            P = pp.Poset(n, rels)
            ideals = sum(len(level) for level in oracle.ideal_levels(n, _covers(P)))
            if not lo <= ideals <= hi:
                continue
            recipe = pp.classify(P)
            if isinstance(recipe, pp.BuildRecipe) and recipe.duplication_set == twins:
                name = f"forest{len(self.twins) + 1}"
                self.specs[name] = (n, rels)
                self.twins[name] = twins
        for n in (14, 16):
            self.specs[f"tree{n}-bottom"] = gen.binary_tree(n, root_at_top=False)

    def build(self, pp):
        self.posets = {name: pp.Poset(n, rels) for name, (n, rels) in self.specs.items()}
        self.natural = {name: pp.natural_relabel(self.posets[name])[0] for name in self.twins}

    def ops(self, pp):
        ops = []
        for name in self.enumerated:
            P = self.posets[name]
            count, digest, gens = oracle.extensions(P.n, _covers(P))
            maj = oracle.maj_coeffs(P.n, _covers(P))
            ops += [
                Op(f"maj_polynomial {name}",
                   lambda n=name: pp.maj_polynomial(self.posets[n]),
                   lambda got, maj=maj: got.coeffs == maj),
                Op(f"linear_extensions {name}",
                   lambda n=name: pp.linear_extensions(self.posets[n]),
                   lambda got, c=count, d=digest:
                       len(got) == c and oracle.extensions_digest(got) == d),
                Op(f"semigroup_ideal {name}",
                   lambda n=name: pp.semigroup_ideal(self.posets[n]),
                   lambda got, gens=gens: got.generators == gens and (
                       got.principal is None or all(
                           all(a <= b for a, b in zip(got.principal, g)) for g in gens))),
            ]
        tree = self.posets["tree20-top"]
        hooks = oracle.forest_extension_count(tree.n, _covers(tree))
        ops.append(Op("count_extensions tree20-top",
                      lambda: pp.count_extensions(self.posets["tree20-top"]),
                      lambda got: got == hooks))
        for name, twins in self.twins.items():
            ops += self._forest_ops(pp, name, twins)
        for n in (14, 16):
            ops += self._tree_ops(pp, f"tree{n}-bottom")
        ops.append(golden_op(pp, self.root, "complex fig1"))
        return ops

    def _forest_ops(self, pp, name, twins):
        P, Q = self.posets[name], self.natural[name]
        recipe = pp.classify(P)
        # Both CI tests must accept a poset that classify builds.
        ci = pp.ci_test_counts(P) is pp.ci_test_ideals(P) is True
        count = pp.count_extensions(P)
        maj = oracle.maj_coeffs(Q.n, _covers(Q))

        def balanced(generator):
            def degree(masks):
                return sorted(p for m in masks for p in range(1, P.n + 1) if m >> (p - 1) & 1)
            return degree(generator.lhs) == degree(generator.rhs)

        return [
            Op(f"classify {name}", lambda: pp.classify(self.posets[name]),
               lambda got: ci and isinstance(got, pp.BuildRecipe)
               and got.duplication_set == twins and pp.recipe_poset(got) == P),
            Op(f"hook_count {name}", lambda: pp.hook_count(self.posets[name]),
               lambda got: got == count),
            Op(f"hook_formula {name}", lambda: pp.hook_formula(self.natural[name]),
               lambda got: got.coeffs == maj and sum(maj) == count),
            Op(f"toric_generators {name}", lambda: pp.toric_generators(self.posets[name]),
               lambda got: len(got) == len(twins) and all(balanced(g) for g in got)),
            Op(f"lemma41_predictions {name}",
               lambda: pp.lemma41_predictions(self.posets[name], recipe),
               lambda got: got.match is True and len(got.actual_ideals) == P.n + len(twins)),
        ]

    def _tree_ops(self, pp, name):
        P = self.posets[name]
        conn = oracle.connected_ideals(P.n, _covers(P))
        pi, digest = oracle.pairs_digest(P.n, _covers(P), conn)
        conn_set = set(conn)

        def witness_ok(got):
            decs = got.decompositions
            return (isinstance(got, pp.Witness) and got.kind == "BadIdeal"
                    and len(set(decs)) == len(decs) >= 2
                    and all(j1 in conn_set and j2 in conn_set and j1 | j2 == got.ideal
                            and not oracle.disjoint_or_nested(j1, j2) for j1, j2 in decs))

        return [
            Op(f"classify {name}", lambda: pp.classify(self.posets[name]), witness_ok),
            Op(f"nontrivial_pairs {name}", lambda: pp.nontrivial_pairs(self.posets[name]),
               lambda got: len(got) == pi and oracle.pi_digest(got) == digest),
        ]


WORKLOADS = {
    "cli_fixtures": CliFixtures,
    "series_koszul": SeriesKoszul,
    "lattice_scale": LatticeScale,
}
