import argparse
import enum
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stdout
from typing import NamedTuple

import pytest

from cli_golden import FIXTURES, GOLDEN, capture, case_name, iter_cases, run_cli
from conftest import add_terms, random_poset, t_series_by_walk
from ppart import cli, extensions, series
from ppart.cli import main
from ppart.errors import CapError, InputError, PPartError
from ppart.fixtures import fixture
from ppart.partitions import enumerate_partitions
from ppart.poset import parse_poset
from ppart.qpoly import QPolynomial

EX33 = str(FIXTURES / "ex33.poset")
FIG1 = str(FIXTURES / "fig1.poset")
P2 = str(FIXTURES / "p2.poset")


class TestExitCodes:
    def test_usage(self):
        code, _ = run_cli([])
        assert code == 1
        code, _ = run_cli(["frobnicate", EX33])
        assert code == 1

    def test_missing_file(self):
        code, _ = run_cli(["analyze", "/nonexistent.poset"])
        assert code == 2

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.poset"
        bad.write_text("n 3\n1 2\n2 3\n3 1\n")
        code, _ = run_cli(["analyze", str(bad)])
        assert code == 2

    def test_hook_non_fwd(self):
        code, out = run_cli(["hook", EX33])
        assert code == 3
        assert out == ""

    def test_cap_exceeded(self):
        code, _ = run_cli(["extensions", FIG1, "--cap", "10"])
        assert code == 4

    # Error classes unknown to the CLI get the exit code of their family.
    @pytest.mark.parametrize("base,expected", [
        (PPartError, 3), (InputError, 2), (CapError, 4),
    ], ids=["PPartError", "InputError", "CapError"])
    def test_exit_code_follows_error_family(self, base, expected, monkeypatch, capsys):
        class NewError(base):
            pass

        def handler(P, args):
            raise NewError("raised by a handler")

        monkeypatch.setitem(cli._COMMANDS, "analyze", (handler, ()))
        code = main(["analyze", P2])
        out, err = capsys.readouterr()
        assert code == expected
        assert out == ""
        assert err.splitlines() == [err.strip()]
        assert err.startswith("error: ") and "raised by a handler" in err

    @staticmethod
    def _assert_input_error(argv, capsys):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_non_utf8_input(self, tmp_path, capsys):
        bad = tmp_path / "latin1.poset"
        bad.write_bytes(b"n 2\n# caf\xe9\n1 2\n")
        self._assert_input_error(["analyze", str(bad)], capsys)

    def test_out_is_a_directory(self, tmp_path, capsys):
        self._assert_input_error(["presentation", EX33, "--out", str(tmp_path)], capsys)

    def test_out_in_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "missing" / "ring.m2"
        self._assert_input_error(["presentation", EX33, "--out", str(target)], capsys)

    def test_capped_presentation_writes_no_out_file(self, tmp_path):
        target = tmp_path / "f"
        code, out = run_cli(["presentation", FIG1, "--cap", "1", "--out", str(target)])
        assert code == 4
        assert out == ""
        assert not target.exists()

    def test_unknown_grading(self, capsys):
        code = main(["hilbert", P2, "--grading", "bogus"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert "unknown grading 'bogus'" in err

    @pytest.mark.parametrize("grading", [
        "x-multi", "x", "(t,x)", "t,x", "tx", "(t,q)", "t,q", "tq", "q", "t",
    ])
    def test_grading_names(self, grading):
        for spelling in (grading, grading.upper()):
            code, out = run_cli(["hilbert", P2, "--grading", spelling, "--trunc", "2"])
            assert code == 0
            assert json.loads(out)["results"]["grading"] == spelling

    @pytest.mark.parametrize(
        "flag,command",
        [("--trunc", "hilbert"), ("--cap", "extensions"), ("--complex-cap", "complex")],
        ids=["--trunc", "--cap", "--complex-cap"],
    )
    def test_negative_count(self, flag, command):
        code, out = run_cli([command, P2, flag, "-1"])
        assert code == 1
        assert out == ""

    # `int` reads all of these; the file format and the counts are ASCII
    # decimal, [0-9]+.
    NOT_DECIMAL = ["1_0", "+3", "３", "٣", "²", " 3", "3 ", "0x3", "", "-0"]

    @pytest.mark.parametrize("text,line", [
        *[(f"n {v}\n", 1) for v in NOT_DECIMAL if v.strip() == v != ""],
        ("n 3\n+1 2\n", 2), ("n 3\n1 ２\n", 2), ("n 3\n1 2\n2 3_0\n", 3),
        ("# n 4\n\nn 3\n1 2\n-2 3\n", 5),
    ])
    def test_labels_and_count_are_ascii_decimal(self, tmp_path, capsys, text, line):
        path = tmp_path / "odd.poset"
        path.write_text(text, encoding="utf-8")
        code = main(["analyze", str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith(f"error: line {line}: ")

    def test_leading_zeros_parse(self, tmp_path, capsys):
        path = tmp_path / "zeros.poset"
        path.write_text("n 03\n01 0002\n2 3\n")
        assert parse_poset(path.read_text()) == parse_poset("n 3\n1 2\n2 3\n")
        outs = []
        for trunc in ("004", "4"):
            assert main(["hilbert", str(path), "--trunc", trunc]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and '"trunc": 4' in outs[0]

    @pytest.mark.parametrize("flag", ["--trunc", "--cap", "--complex-cap"])
    @pytest.mark.parametrize("value", NOT_DECIMAL)
    def test_counts_are_ascii_decimal(self, capsys, flag, value):
        code = main(["selftest", P2, flag, value])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert f"expected an integer >= 0, got {value!r}" in err

    @pytest.mark.parametrize(
        "command,flag",
        [(c, f) for c in ("analyze", "classify", "hook")
         for f in ("--trunc", "--cap", "--complex-cap")]
        + [("extensions", "--trunc"), ("extensions", "--complex-cap"),
           ("hilbert", "--cap"), ("hilbert", "--complex-cap"),
           ("presentation", "--trunc"), ("presentation", "--complex-cap"),
           ("complex", "--trunc"), ("complex", "--cap")],
    )
    def test_unread_option_rejected(self, command, flag):
        code, out = run_cli([command, P2, flag, "5"])
        assert code == 1
        assert out == ""

    @pytest.mark.parametrize("command,options", [
        pytest.param(command, options, id=command) for command, options in {
            "analyze": set(),
            "extensions": {"--cap", "--list"},
            "classify": set(),
            "hook": set(),
            "hilbert": {"--trunc", "--flavor", "--grading"},
            "presentation": {"--cap", "--format", "--out"},
            "complex": {"--complex-cap"},
            "selftest": {"--trunc", "--cap", "--complex-cap"},
        }.items()
    ])
    def test_help(self, command, options):
        code, out = run_cli([command, "-h"])
        assert code == 0
        assert out.startswith(f"usage: ppart {command} ")
        assert set(re.findall(r"--[a-z][a-z-]*", out)) == options | {"--help"}

    def test_parser_built_once(self, monkeypatch, capsys):
        main(["hook", P2])  # builds the parser if nothing has yet
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(["hook", P2]) == 0
        assert built == []

    def test_closed_stdout(self):
        # The read end is closed before the child starts, so its first
        # write to stdout fails with EPIPE.
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(FIXTURES.parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ppart.cli", "analyze", P2],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                text=True, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert len(proc.stderr.splitlines()) == 1


class TestBoundaryFuzz:
    """Every command on malformed files, bad option values and small
    random posets, in-process through `main`: it returns an exit code in
    0..4 and raises nothing, stderr holds no traceback, and an exit-4
    message names a number.  Cases that can grow run elsewhere, as
    processes under a memory ceiling."""

    MALFORMED = {
        "empty": b"",
        "comments only": b"# n 3\n\n",
        "no header": b"1 2\n",
        "relation before header": b"1 2\nn 3\n",
        "repeated header": b"n 3\nn 3\n1 2\n",
        "header without count": b"n\n",
        "header with two counts": b"n 3 4\n",
        "n 0": b"n 0\n",
        "n 65": b"n 65\n",
        "n 1_0": b"n 1_0\n",
        "n -3": b"n -3\n",
        "n +3": b"n +3\n",
        "n 3.0": b"n 3.0\n",
        "full-width count": "n ３\n".encode(),
        "full-width label": "n 3\n1 ２\n".encode(),
        "signed label": b"n 3\n+1 2\n",
        "negative label": b"n 3\n-1 2\n",
        "three tokens": b"n 3\n1 2 3\n",
        "one token": b"n 3\n1\n",
        "word label": b"n 3\na b\n",
        "self-loop": b"n 3\n2 2\n",
        "2-cycle": b"n 3\n1 2\n2 1\n",
        "3-cycle": b"n 3\n1 2\n2 3\n3 1\n",
        "label 0": b"n 3\n0 1\n",
        "label past n": b"n 3\n1 4\n",
        "huge label": b"n 3\n1 99999999999999999999\n",
        "non-UTF-8 comment": b"n 2\n# caf\xe9\n1 2\n",
        "non-UTF-8 header": b"\xff\xfe n 2\n",
        "every byte": bytes(range(256)),
        "NUL in a line": b"n 3\n1\x002\n",
    }

    # (command, options): values each option's parser refuses, options a
    # command does not read, and an --out that cannot be written
    BAD_OPTIONS = [
        *[(c, [flag, value]) for c in ("hilbert", "extensions", "complex", "selftest")
          for flag in {"hilbert": ["--trunc"], "extensions": ["--cap"],
                       "complex": ["--complex-cap"],
                       "selftest": ["--trunc", "--cap", "--complex-cap"]}[c]
          for value in ("-1", "x", "", "1e3", "1_0", "３")],
        ("hilbert", ["--flavor", "bogus"]), ("hilbert", ["--grading", "z"]),
        ("hilbert", ["--trunc"]), ("presentation", ["--format", "pdf"]),
        ("presentation", ["--out", "{tmp}"]), ("presentation", ["--out", "{tmp}/no/file"]),
        ("analyze", ["--trunc", "3"]), ("hook", ["--list"]), ("classify", ["--flavor", "weak"]),
        ("analyze", ["--bogus"]), ("analyze", []), ("bogus", []),
    ]

    @staticmethod
    def _run(argv, capsys, failures):
        try:
            code = main(argv)
        except BaseException as exc:  # noqa: BLE001 - the rule is that nothing escapes
            failures.append((argv, f"raised {exc!r}"))
            return
        err = capsys.readouterr().err
        if code not in range(5) or "Traceback" in err:
            failures.append((argv, code, err))
        elif code == 4 and not re.search(r"\d", err):
            failures.append((argv, "exit 4 names no number", err))

    def test_every_command_at_the_boundary(self, tmp_path, capsys):
        failures = []
        paths = []
        for i, data in enumerate(self.MALFORMED.values()):
            paths.append(tmp_path / f"bad{i}.poset")
            paths[-1].write_bytes(data)
        for path in paths + [tmp_path / "missing.poset"]:
            for command in cli._COMMANDS:
                self._run([command, str(path)], capsys, failures)
        for command, options in self.BAD_OPTIONS:
            options = [o.replace("{tmp}", str(tmp_path)) for o in options]
            self._run([command, P2, *options], capsys, failures)
        rng = random.Random(33)
        for i in range(20):
            P = random_poset(rng, rng.randint(1, 5), rng.choice((0.2, 0.5)))
            path = tmp_path / f"random{i}.poset"
            path.write_text(f"n {P.n}\n" + "".join(f"{a} {b}\n" for a, b in P.covers))
            for command, (_, reads) in cli._COMMANDS.items():
                self._run([command, str(path)], capsys, failures)
                for flag in {"--cap", "--complex-cap"} & set(reads):
                    self._run([command, str(path), flag, "0"], capsys, failures)
        assert failures == []


class TestPayloads:
    def test_fig1_extensions(self):
        code, out = run_cli(["extensions", FIG1])
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "ppart/1"
        assert doc["results"]["count"] == 300

    def test_hook_reads_the_count_off_the_q_polynomial(self, monkeypatch):
        # fig1 is naturally labelled, so |L(P)| is W(1) and Pi is listed once
        def unused(P):
            raise AssertionError("hook_count called on a naturally labelled poset")

        monkeypatch.setattr(cli, "hook_count", unused)
        code, out = run_cli(["hook", FIG1])
        assert code == 0
        results = json.loads(out)["results"]
        assert results["count"] == sum(results["q_polynomial"]) == 300

    def test_classify_witness(self):
        code, out = run_cli(["classify", str(FIXTURES / "forb3.poset")])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["result"]["kind"] == "BadIdeal"

    def test_classify_recipe(self):
        code, out = run_cli(["classify", FIG1])
        doc = json.loads(out)
        assert doc["results"]["result"]["duplication_set"] == [[5, 6], [7, 8]]

    def test_hilbert_flags(self):
        code, out = run_cli(
            ["hilbert", P2, "--flavor", "standard", "--grading", "q",
             "--trunc", "4"]
        )
        assert code == 0
        doc = json.loads(out)
        terms = doc["results"]["series"]["terms"]
        assert terms[0] == [0, [1], 1]

    def test_selftest_passes(self):
        code, out = run_cli(["selftest", P2, "--trunc", "6"])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["ok"]

    def test_selftest_times_each_check(self, capsys):
        assert main(["selftest", P2, "--trunc", "6"]) == 0
        out, err = capsys.readouterr()
        checks = json.loads(out)["results"]["identities"]
        lines = err.splitlines()[: len(checks)]
        for check, line in zip(checks, lines):
            assert re.fullmatch(
                rf" *{check['status']}  {check['name']}  \d+\.\d{{3}}s", line)

    def test_selftest_eq_3_5_check_compares(self, monkeypatch):
        # fig1's maj polynomial with one coefficient off by one: the count
        # of the standard vectors must disagree with it
        coeffs = list(cli.maj_polynomial(fixture("fig1")).coeffs)
        coeffs[3] += 1
        monkeypatch.setattr(cli, "maj_polynomial", lambda P, cap: QPolynomial(coeffs))
        code, out = run_cli(["selftest", FIG1, "--trunc", "6"])
        assert code == 3
        checks = {c["name"]: c["status"] for c in json.loads(out)["results"]["identities"]}
        assert checks["maj_equals_standard_series"] == "fail"

    @pytest.mark.parametrize("flavor", ["weak", "standard", "strict"])
    def test_hilbert_deep_t_truncation(self, flavor):
        # the t series is counted from the faces of the flag complex; the
        # walk over every multiset of size <= 1000 would not finish
        start = time.perf_counter()
        code, out = run_cli(["hilbert", FIG1, "--flavor", flavor, "--grading", "t",
                             "--trunc", "1000"])
        assert time.perf_counter() - start < 2.0
        assert code == 0
        terms = json.loads(out)["results"]["series"]["terms"]
        assert [t for t, _, _ in terms] == list(range(terms[0][0], 1001))
        walk = t_series_by_walk(fixture("fig1"), 6)[flavor]
        assert {(t, ()): c for t, _, c in terms if t <= 6} == walk

    def test_complex_builds_the_complex_once(self, monkeypatch):
        import ppart.complexes

        runs = []  # Bron-Kerbosch runs, one per flag complex built
        max_cliques = ppart.complexes._max_cliques

        def counting(*args):
            runs.append(args)
            return max_cliques(*args)

        monkeypatch.setattr(ppart.complexes, "_max_cliques", counting)
        code, _ = run_cli(["complex", FIG1])
        assert code == 0
        assert len(runs) == 1

    def test_analyze_counts_ideals_without_walking_them(self, tmp_path):
        poset = tmp_path / "antichain22.poset"
        poset.write_text("n 22\n")
        start = time.perf_counter()
        code, out = run_cli(["analyze", str(poset)])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert '"ideal_count": 4194304' in out

    @pytest.mark.parametrize("flavor", ["weak", "standard", "strict"])
    def test_hilbert_q_on_a_tree_matches_the_enumeration(self, tmp_path, flavor):
        # 18-element binary tree with its root on top (k hangs below k // 2)
        poset = tmp_path / "tree18.poset"
        poset.write_text("n 18\n" + "".join(f"{k} {k // 2}\n" for k in range(2, 19)))
        code, out = run_cli(["hilbert", str(poset), "--flavor", flavor,
                             "--grading", "q", "--trunc", "8"])
        assert code == 0
        counts = Counter(sum(f) for f in enumerate_partitions(parse_poset(poset.read_text()),
                                                              flavor, 8))
        expect = [[0, [d], counts[d]] for d in sorted(counts)]
        assert json.loads(out)["results"]["series"]["terms"] == expect

    def test_m2_out_file(self, tmp_path):
        target = tmp_path / "out.m2"
        code, out = run_cli(
            ["presentation", EX33, "--format", "m2", "--out", str(target)]
        )
        assert code == 0
        assert target.read_text().startswith("--")


class TestAntichain22:
    """|L(P)| = 22! is counted by the hook length formula for forests, so
    the L(P) cap trips before any walk over the 2^22 ideals."""

    @pytest.fixture
    def poset(self, tmp_path):
        path = tmp_path / "antichain22.poset"
        path.write_text("n 22\n")
        return path

    @staticmethod
    def _run(argv, capsys):
        start = time.perf_counter()
        code = main(argv)
        assert time.perf_counter() - start < 2.0
        return (code, *capsys.readouterr())

    def test_extensions_exits_at_the_cap(self, poset, capsys):
        code, out, err = self._run(["extensions", str(poset)], capsys)
        assert code == 4
        assert out == ""
        assert "|L(P)| = 1124000727777607680000" in err

    def test_presentation_exits_at_the_cap(self, poset, tmp_path, capsys):
        target = tmp_path / "f"
        code, out, _ = self._run(["presentation", str(poset), "--out", str(target)], capsys)
        assert code == 4
        assert out == ""
        assert not target.exists()

    def test_complex_finishes(self, poset, capsys):
        code, out, _ = self._run(["complex", str(poset)], capsys)
        assert code == 0
        consistency = json.loads(out)["results"]["consistency"]
        assert consistency["ok"] is True
        assert consistency["expected"] == 1124000727777607680000


class TestTree18Bottom:
    """The root-at-bottom binary tree on 18 elements: |Pi| = 1,889,889,
    and the L(P) cap trips before Pi is listed."""

    def test_presentation_exits_at_the_cap(self, tmp_path, capsys):
        path = tmp_path / "tree18.poset"
        path.write_text("n 18\n" + "".join(f"{k // 2} {k}\n" for k in range(2, 19)))
        start = time.perf_counter()
        code = main(["presentation", str(path)])
        assert time.perf_counter() - start < 2.0
        out, err = capsys.readouterr()
        assert code == 4
        assert out == ""
        assert "|L(P)| = 5227622400" in err


class TestCappedNonForest:
    """A non-forest whose 16 minimal elements outnumber a cap of 10, with
    |L(P)| = 1,333,827,855,360,000 over 3 * 2^15 ideals: the cap trips at
    the first level of the ideal lattice, and L(P) is not counted."""

    def test_extensions_exits_at_the_cap(self, tmp_path, capsys):
        path = tmp_path / "wide18.poset"
        path.write_text("n 18\n1 3\n2 3\n1 4\n")
        start = time.perf_counter()
        code = main(["extensions", str(path), "--cap", "10"])
        assert time.perf_counter() - start < 0.2
        out, err = capsys.readouterr()
        assert (code, out) == (4, "")
        assert "|L(P)| >= 16 exceeds cap 10" in err


class TestSelftestTable:
    NAMES = (
        "maj_equals_standard_series",
        "duplication_product_equals_enumeration",
        "hook_equals_maj",
        "ci_tests_agree",
        "initial_quotient_hilbert",
        "koszul_inverse_nonnegative",
        "forest_counts",
    )
    MAJ = ("maj_equals_standard_series",)
    BOTH_MAJ = ("maj_equals_standard_series", "hook_equals_maj")
    CAP10, CAP0, COMPLEX0 = ("--cap", "10"), ("--cap", "0"), ("--complex-cap", "0")
    RUNS = list(itertools.product(
        ("p1", "p2", "p3", "forb1", "forb2", "forb3", "bowtie", "ex33", "fig1"),
        ((), CAP10, CAP0, COMPLEX0)))
    # the rows these runs skipped before the table; --complex-cap 0 skips
    # forest_counts on every fixture, every other row of every run passes
    # and ok is true
    SKIPPED = {
        ("p1", CAP0): BOTH_MAJ,
        ("forb1", CAP0): MAJ,
        ("forb2", CAP10): MAJ, ("forb2", CAP0): MAJ,
        ("forb3", CAP0): MAJ,
        ("ex33", CAP0): MAJ,
        ("fig1", CAP10): BOTH_MAJ, ("fig1", CAP0): BOTH_MAJ,
    }

    @staticmethod
    def statuses(name, flags=()):
        code, out = run_cli(["selftest", str(FIXTURES / f"{name}.poset"), *flags])
        results = json.loads(out)["results"]
        return code, [(c["name"], c["status"]) for c in results["identities"]], results["ok"]

    @pytest.mark.parametrize("name,flags", [
        pytest.param(name, flags, id="-".join((name, *(f.lstrip("-") for f in flags))))
        for name, flags in RUNS])
    def test_statuses(self, name, flags):
        if flags == self.COMPLEX0:
            skipped = ("forest_counts",)
        else:
            skipped = self.SKIPPED.get((name, flags), ())
        expect = [(n, "skipped" if n in skipped else "pass") for n in self.NAMES]
        assert self.statuses(name, flags) == (0, expect, True)

    def test_maj_is_computed_once(self, monkeypatch):
        calls = []
        maj_polynomial = cli.maj_polynomial

        def counting(P, cap):
            calls.append(P)
            return maj_polynomial(P, cap=cap)

        monkeypatch.setattr(cli, "maj_polynomial", counting)
        code, _, ok = self.statuses("fig1", ("--trunc", "6"))
        assert (code, ok) == (0, True)
        assert len(calls) == 1

    @pytest.mark.parametrize("name,fwd,natural,engines", [
        ("bowtie", True, False, ("count_by_size", "maj_polynomial", "hook_formula")),
        ("forb3", False, True, ("duplication_product", "hook_formula")),
    ], ids=["bowtie", "forb3"])
    def test_guards_run_no_engine(self, monkeypatch, name, fwd, natural, engines):
        P = fixture(name)
        assert isinstance(cli.classify(P), cli.BuildRecipe) == fwd
        assert cli.is_naturally_labelled(P) == natural

        def unused(*args, **kwargs):
            raise AssertionError("an engine ran for a row that does not apply")

        for engine in engines:
            monkeypatch.setattr(cli, engine, unused)
        code, checks, ok = self.statuses(name, ("--trunc", "6"))
        assert (code, ok) == (0, True)
        assert checks == [(n, "pass") for n in self.NAMES]


    # On a forest with duplications maj() and the weak series take the
    # product formulas: each row that checks a formula reads a walk by name.
    FORMULA_ROWS = {"_stanley_q": "duplication_product_equals_enumeration",
                    "maj_coefficients": "hook_equals_maj",
                    "_koszul_walk": "koszul_inverse_nonnegative"}

    @pytest.mark.parametrize("name", ["p1", "fig1", "bowtie"])
    def test_formulas_are_checked_against_walks(self, monkeypatch, name):
        called = []
        for walk in self.FORMULA_ROWS:
            def recorded(*args, walk=walk, fn=getattr(cli, walk)):
                called.append(walk)
                return fn(*args)
            monkeypatch.setattr(cli, walk, recorded)
        code, checks, ok = self.statuses(name, ("--trunc", "6"))
        assert (code, ok) == (0, True)
        natural = cli.is_naturally_labelled(fixture(name))
        assert sorted(called) == sorted(w for w in self.FORMULA_ROWS
                                        if natural or w != "maj_coefficients")

    @pytest.mark.parametrize("name", ["p1", "fig1"])
    def test_a_wrong_formula_fails_its_rows(self, monkeypatch, name):
        # one added to the constant term of every product, then of the hook
        product, hook = series._ci_product, extensions._hook_coefficients

        def wrong_product(*args):
            out = product(*args)
            return add_terms(out, [(0, (0,) * out.nx, 1)])

        monkeypatch.setattr(series, "_ci_product", wrong_product)
        code, checks, ok = self.statuses(name, ("--trunc", "6"))
        assert (code, ok) == (3, False)
        assert {n for n, status in checks if status == "fail"} == {
            "duplication_product_equals_enumeration", "initial_quotient_hilbert"}
        monkeypatch.undo()
        monkeypatch.setattr(extensions, "_hook_coefficients", lambda P: [2] + hook(P)[1:])
        code, checks, ok = self.statuses(name, ("--trunc", "6"))
        assert (code, ok) == (3, False)
        assert {n for n, status in checks if status == "fail"} == {
            "maj_equals_standard_series", "hook_equals_maj"}

    @pytest.mark.parametrize("name", ["ex33", "forb1", "forb2", "forb3"])
    def test_other_posets_take_no_formula(self, monkeypatch, name):
        # with every product route raising, the rows of a poset that is
        # not a complete intersection all compute and pass
        def unused(*args):
            raise AssertionError("a product formula ran")

        for module, route in ((series, "_ci_product"), (series, "_ci_koszul"),
                              (series, "_hook_coefficients"),
                              (extensions, "_hook_coefficients")):
            monkeypatch.setattr(module, route, unused)
        code, checks, ok = self.statuses(name, ("--trunc", "6"))
        assert (code, ok) == (0, True)
        assert checks == [(n, "pass") for n in self.NAMES]


class TestPiListings:
    # (fewest, most) calls of nontrivial_pairs per command.  hook and
    # selftest list Pi only for forests with duplications, where
    # |Pi| = |J_conn| - n is small.
    LISTINGS = {
        "presentation": (1, 1),
        "analyze": (1, 1),
        "hook": (0, 2),
        "selftest": (0, 2),
        "classify": (0, 0),
        "complex": (0, 0),
        "extensions": (0, 0),
        "hilbert": (0, 0),
    }

    @pytest.mark.parametrize("fixture", ["fig1", "ex33", "forb2"])
    @pytest.mark.parametrize("command", list(LISTINGS))
    def test_listings_per_command(self, monkeypatch, command, fixture):
        import ppart.poset

        listed = []
        nontrivial_pairs = ppart.poset.nontrivial_pairs

        def counting(P):
            listed.append(P)
            return nontrivial_pairs(P)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "ppart" and hasattr(module, "nontrivial_pairs"):
                monkeypatch.setattr(module, "nontrivial_pairs", counting)
        flags = ["--trunc", "6"] if command == "selftest" else []
        run_cli([command, str(FIXTURES / f"{fixture}.poset")] + flags)
        fewest, most = self.LISTINGS[command]
        assert fewest <= len(listed) <= most


class TestGolden:
    @pytest.mark.parametrize(
        "command,fixture,argv",
        [pytest.param(*case, id=f"{case[1]}-{case[0]}") for case in iter_cases()],
    )
    def test_matches_golden(self, command, fixture, argv):
        golden = GOLDEN / case_name(command, fixture)
        expected = json.loads(golden.read_text())
        assert capture(argv) == expected

    def test_repeat_run_is_identical(self):
        argv = ["analyze", EX33]
        assert capture(argv) == capture(argv)

    def test_golden_is_json_output(self):
        # the goldens hold json's own encoding, so they check the writer
        # rather than repeat what it wrote
        for command, fixture, _ in iter_cases():
            doc = json.loads((GOLDEN / case_name(command, fixture)).read_text())
            stdout = doc["stdout"]
            if stdout or doc["exit"] == 0:
                assert stdout == json.dumps(json.loads(stdout), indent=2, sort_keys=True) + "\n", (
                    command, fixture)


class _Pair(NamedTuple):
    left: object
    right: object


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = -7


class TestWriter:
    """The writer of cli._emit against json.dumps(doc, indent=2,
    sort_keys=True) on seeded random documents."""

    SCALARS = [
        0, 1, -1, 2 ** 64, -(3 ** 45), True, False, None,
        0.0, -0.0, 1.5, -2.25e-300, 1e300, float("inf"), float("-inf"), float("nan"),
        "", "plain", "\u00e9t\u00e9 \u2264 \U0001d4ab", "tab\tnew\nline\x00\x1f\x7f",
        'quote " and \\ backslash', _Level.LOW, _Level.HIGH,
    ]

    def _value(self, rng, depth):
        r = rng.random()
        if depth == 0 or r < 0.35:
            if rng.random() < 0.3:  # a fresh int or string
                return rng.choice([rng.randrange(-10 ** 30, 10 ** 30),
                                   "".join(map(chr, rng.sample(range(1, 0x3000), 3)))])
            return rng.choice(self.SCALARS)
        if r < 0.45:  # one kind of item, written by the C-level map where it is int or str
            kind = rng.choice([int, str, bool])
            return [kind(rng.randrange(3)) for _ in range(rng.randrange(6))]
        items = [self._value(rng, depth - 1) for _ in range(rng.randrange(5))]
        if r < 0.6:
            return items
        if r < 0.7:
            return tuple(items)
        if r < 0.75:
            return _Pair(*(items + [None, None])[:2])
        if r < 0.8:  # non-str keys, left to json
            return {rng.randrange(-50, 50): v for v in items}
        return self._dict(rng, depth)

    def _dict(self, rng, depth):
        keys = ["a", "B", "z", "\u00e9", "k\n", "", "10", "9"]
        return {rng.choice(keys): self._value(rng, depth - 1) for _ in range(rng.randrange(6))}

    # with _LONG = 2, every container below the streamed levels that has
    # more than two members is written member by member too
    @pytest.mark.parametrize("long", [None, 2], ids=["long-as-is", "long-2"])
    def test_matches_json(self, long, monkeypatch):
        if long:
            monkeypatch.setattr(cli, "_LONG", long)
        rng = random.Random(73)
        for _ in range(1500):
            payload = self._dict(rng, 7) if rng.random() < 0.8 else self._value(rng, 7)
            doc = {"schema": cli.SCHEMA, "command": "c", "input_sha256": "0", "results": payload}
            want = json.dumps(doc, indent=2, sort_keys=True)
            assert cli._json(doc, "\n") == want
            out = io.StringIO()
            with redirect_stdout(out):
                cli._emit("c", "0", payload)
            assert out.getvalue() == want + "\n"
