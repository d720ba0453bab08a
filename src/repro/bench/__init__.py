"""The experiments of DESIGN.md §4 / EXPERIMENTS.md, one module each.

``python -m repro.bench [--fast] [--only E8,E12] [--out-dir DIR]`` is the
only entry point; its registry (``repro.bench.__main__.EXPERIMENTS``)
names every experiment.  Importing this package loads none of them.
"""
