"""The repository benchmark: four workloads, end-to-end metrics, layer tracing.

Run it with ``python3 benchmarks/perf/run.py``; see README.md beside
this file.
"""
