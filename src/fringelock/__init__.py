"""Simulator of a 128-path variable-delay interferometer with active
phase stabilization and RRDPS key-rate math.

The package re-exports nothing: import from the submodules, e.g.
``from fringelock.controller import run_experiment``.
"""
