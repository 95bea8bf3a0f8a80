import json

import pytest

from cli_golden import FIXTURES, GOLDEN, capture, case_name, iter_cases, run_cli
from ppart.cli import main

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

    @pytest.mark.parametrize("flag", ["--trunc", "--cap", "--complex-cap"])
    def test_negative_count(self, flag):
        code, out = run_cli(["hilbert", P2, flag, "-1"])
        assert code == 1
        assert out == ""


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
