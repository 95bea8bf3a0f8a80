"""Benchmark of ppart: seeded workloads, verified outputs, end-to-end and
per-layer metrics.  Run it with `python3 perfbench/run.py`; see README.md."""
