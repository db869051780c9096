"""The repo's end-to-end, per-layer benchmark (see README.md in this directory).

Entry point: ``python3 benchmarks/e2e/run.py`` — the command recorded in
``BENCHMARK.json`` at the repo root.
"""
