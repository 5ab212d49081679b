"""Benchmark for qres: seeded workloads, correctness oracles and a
module-level trace.  Run it with ``python3 perfbench/run.py --help``."""
