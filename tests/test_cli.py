import argparse
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter

import pytest

from cli_golden import FIXTURES, GOLDEN, capture, case_name, iter_cases, run_cli
from ppart import cli
from ppart.cli import main
from ppart.errors import CapError, InputError, PPartError
from ppart.partitions import enumerate_partitions
from ppart.poset import parse_poset

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


class TestPayloads:
    def test_fig1_extensions(self):
        code, out = run_cli(["extensions", FIG1])
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "ppart/1"
        assert doc["results"]["count"] == 300

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
