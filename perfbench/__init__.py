"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Entry point: ``python3 perfbench/run.py`` (see :mod:`perfbench.run`).
"""
