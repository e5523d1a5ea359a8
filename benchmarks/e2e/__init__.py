"""The repository's one end-to-end benchmark (see ``README.md`` here).

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S
--trace 0|1`` runs one workload in a fresh child process and prints the
metrics ``BENCHMARK.json`` names.  Nothing here is imported by ``repro``.
"""
