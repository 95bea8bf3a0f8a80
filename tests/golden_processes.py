"""Every golden CLI case run as its own `python -m ppart.cli` process.

The golden tests call `ppart.cli.main` with stdout redirected to a
StringIO; here the output goes through the real stdout of a process, and
its bytes and exit code must match the golden file.  Needs no pytest:

    PYTHONPATH=src python tests/golden_processes.py

Prints each mismatch and exits 1 if there is one.
"""

import json
import os
import subprocess
import sys

from cli_golden import FIXTURES, GOLDEN, case_name, iter_cases


def main() -> int:
    src = str(FIXTURES.parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    cases = failed = 0
    for command, fixture, argv in iter_cases():
        name = case_name(command, fixture)
        want = json.loads((GOLDEN / name).read_text())
        proc = subprocess.run([sys.executable, "-m", "ppart.cli", *argv],
                              capture_output=True, env=env, timeout=120)
        cases += 1
        if (proc.returncode, proc.stdout) != (want["exit"], want["stdout"].encode("ascii")):
            failed += 1
            print(f"MISMATCH {name}: exit {proc.returncode}, want {want['exit']}")
    print(f"{cases - failed} of {cases} golden cases match as processes")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
