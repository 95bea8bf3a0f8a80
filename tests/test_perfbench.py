"""One verified, traced round of two benchmark workloads.

`perfbench/` calls `TruncSeries` and `QPolynomial` methods directly, and
its tracer wraps some of them by name (`trace.METHODS`), so a method the
library no longer needs can still be one the benchmark needs.  These runs
fail when it goes.  `lattice_scale` is left out: one round of it takes
about 17 s.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent


@pytest.mark.parametrize("workload", ["series_koszul", "cli_fixtures"])
def test_smoke_round(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), run.stderr[-2000:]
