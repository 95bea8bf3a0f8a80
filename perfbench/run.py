"""Run one ppart benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lattice_scale --seed 1 --seconds 25 --trace 0

The run is a single closed-loop client in one process: each operation is
issued only after the previous one returned and was verified.  Rounds of
the workload's operations repeat until --seconds of wall time have
passed; the last round is always completed, so every round does the same
work.  Times are scaled to a reference host speed (see CALIBRATION_REF_S).
The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  A readable
report goes to stderr.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 31

# The host's speed drifts: on a shared 2-core machine the same round ran
# up to 1.6x faster from one minute to the next.  So every timing is
# scaled to a reference speed.  Between operations, at most every
# CALIBRATION_EVERY_S, the run times `calibrate()`, a fixed piece of the
# benchmark's own pure-Python work, and an operation's time is multiplied
# by CALIBRATION_REF_S over the median calibration time within
# CALIBRATION_WINDOW_S of it.  CALIBRATION_REF_S is a fixed reference,
# near the median time of `calibrate()` on the machine in README.md, so
# figures there read as milliseconds and seconds of that machine.
CALIBRATION_EVERY_S = 0.2
CALIBRATION_WINDOW_S = 1.0
CALIBRATION_REF_S = 0.0031


def calibrate():
    """Seconds taken by fixed work of the kind ppart does: an extension
    walk, a pair scan over connected ideals and a DP over ideals."""
    from perfbench import gen, oracle

    started = time.perf_counter()
    oracle.extensions(*gen.antichain(5))
    n, covers = gen.binary_tree(10, root_at_top=False)
    oracle.pairs_digest(n, covers, oracle.connected_ideals(n, covers))
    oracle.maj_coeffs(*gen.claw(7))
    return time.perf_counter() - started


def fresh_setup(workload):
    """Import ppart from scratch and build the workload's posets; returns
    (seconds scaled to the reference speed, package)."""
    for name in [m for m in sys.modules if m == "ppart" or m.startswith("ppart.")]:
        del sys.modules[name]
    gc.collect()
    started = time.perf_counter()
    pp = importlib.import_module("ppart")
    importlib.import_module("ppart.cli")
    workload.build(pp)
    elapsed = time.perf_counter() - started
    return elapsed * CALIBRATION_REF_S / statistics.median(calibrate() for _ in range(3)), pp


class Phase:
    """Latencies and outcomes of one measured phase."""

    def __init__(self):
        self.calls = []        # (operation name, start, end)
        self.calibrations = [] # (time, seconds of calibrate())
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.failures = []
        self.first_round_rss_mb = None

    @property
    def busy_s(self):
        return sum(t1 - t0 for _, t0, t1 in self.calls)

    def calibrate_if_due(self):
        now = time.perf_counter()
        if not self.calibrations or now - self.calibrations[-1][0] >= CALIBRATION_EVERY_S:
            self.calibrations.append((time.perf_counter(), calibrate()))

    def scaled(self):
        """{operation name: [latency at the reference speed, ...]}."""
        times = [t for t, _ in self.calibrations]
        out = {}
        for name, t0, t1 in self.calls:
            lo = bisect.bisect_left(times, t0 - CALIBRATION_WINDOW_S)
            hi = bisect.bisect_right(times, t1 + CALIBRATION_WINDOW_S)
            near = [c for _, c in self.calibrations[lo:hi]]
            out.setdefault(name, []).append(
                (t1 - t0) * CALIBRATION_REF_S / statistics.median(near))
        return out

    def throughput(self, by_op):
        """Verified operations per second of a typical round: the round's
        operations over the sum of each operation's median latency, so a
        burst of slowness from a shared host moves it less than a mean."""
        typical = sum(statistics.median(lat) for lat in by_op.values())
        return len(by_op) * (1 - self.failed / self.attempted) / typical


def run_round(phase, workload, pp, ops, recorder=None):
    """Issue every operation once, closed-loop, and check each result."""
    clock = time.perf_counter
    # Fresh Poset objects each round: a result cached on a poset object
    # may serve the rest of its round, not the next one.
    workload.build(pp)
    phase.calibrate_if_due()
    for op in ops:
        t0 = clock()
        try:
            result = recorder.op(op.call) if recorder else op.call()
            ok = True
        except Exception as exc:  # an unexpected exception is a failed operation
            result, ok = exc, False
        t1 = clock()
        phase.calls.append((op.name, t0, t1))
        try:
            ok = ok and bool(op.check(result))
        except Exception:
            ok = False
        phase.attempted += 1
        if not ok:
            phase.failed += 1
            phase.failures.append(f"{op.name}: {result!r:.200}")
        del result
        phase.calibrate_if_due()
    phase.rounds += 1
    if phase.rounds == 1:
        phase.first_round_rss_mb = peak_rss_mb()


def measure(workload, pp, ops, seconds):
    phase = Phase()
    started = time.perf_counter()
    while phase.rounds == 0 or time.perf_counter() - started < seconds:
        run_round(phase, workload, pp, ops)
    return phase


def measure_traced(workload, pp, ops, seconds, recorder):
    """Alternate untraced and traced rounds, so that both phases see the
    same stretches of a shared host's varying speed."""
    plain, traced = Phase(), Phase()
    started = time.perf_counter()
    while traced.rounds == 0 or time.perf_counter() - started < seconds:
        run_round(plain, workload, pp, ops)
        recorder.install(pp)
        try:
            run_round(traced, workload, pp, ops, recorder)
        finally:
            recorder.uninstall()
    return plain, traced


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def report_ops(phase):
    slowness = statistics.median(c for _, c in phase.calibrations) / CALIBRATION_REF_S
    print(f"host speed: calibration took {slowness:.3f}x its reference time",
          file=sys.stderr)
    print(f"{'operation':<40} {'calls':>6} {'median ms':>11} {'scaled ms':>11}",
          file=sys.stderr)
    raw = {}
    for name, t0, t1 in phase.calls:
        raw.setdefault(name, []).append(t1 - t0)
    for name, lat in sorted(phase.scaled().items()):
        print(f"{name:<40} {len(lat):>6} {1e3 * statistics.median(raw[name]):>11.3f}"
              f" {1e3 * statistics.median(lat):>11.3f}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ppart" / "__init__.py").is_file():
        print(f"error: no ppart sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.trace import Recorder
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    # Set-up times an import from cached bytecode, as an installed package
    # has; the first import writes the cache if it is missing.
    sys.dont_write_bytecode = False
    pp = importlib.import_module("ppart")
    importlib.import_module("ppart.cli")
    workload.draw(pp)
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, pp = fresh_setup(workload)
        setups.append(seconds)

    print(f"workload {args.workload} seed {args.seed} | python {platform.python_version()}"
          f" | nproc {os.cpu_count()}", file=sys.stderr)
    print(f"{'poset':<16} {'n':>3} {'|J(P)|':>8} {'|J_conn|':>9} {'|Pi|':>8} {'|L(P)|':>24}",
          file=sys.stderr)
    for row in workload.census():
        print("{:<16} {:>3} {:>8} {:>9} {:>8} {:>24}".format(*row), file=sys.stderr)

    ops = workload.ops(pp)
    if args.trace == 0:
        phase = measure(workload, pp, ops, args.seconds)
        phases = [phase]
        by_op = phase.scaled()
        lat = [x for v in by_op.values() for x in v]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "throughput_ops_s": (phase.throughput(by_op), "1/s"),
            "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
            "latency_p90_ms": (1e3 * statistics.quantiles(lat, n=10)[-1], "ms"),
            # After the first round: later rounds only add allocator
            # history (fragmentation), which varies from run to run.
            "peak_rss_mb": (phase.first_round_rss_mb, "MB"),
        }
    else:
        recorder = Recorder()
        plain, traced = measure_traced(workload, pp, ops, args.seconds, recorder)
        phases = [plain, traced]
        per_round = traced.busy_s / traced.rounds
        values = recorder.metrics(traced.rounds)
        values["trace.wall_s"] = per_round
        values["trace.overhead_ratio"] = per_round / (plain.busy_s / plain.rounds)
        metrics = {name: (value, _layer_unit(name)) for name, value in values.items()}
        phase = traced

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    report_ops(phase)
    for p in phases:
        for line in p.failures[:20]:
            print(f"FAILED {line}", file=sys.stderr)
    print(f"rounds {'+'.join(str(p.rounds) for p in phases)}, {len(ops)} operations per round, "
          f"attempted {attempted}, failed {failed}, error_rate {failed / attempted:.6f}",
          file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:<32} {value:>16.6f} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
