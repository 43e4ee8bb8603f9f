"""The repo benchmark: four fixed-work workloads driven from the outside.

See ``bench/README.md``. Nothing here is imported by ``src/``; importing
this package starts nothing and does not import ``repro``.
"""
