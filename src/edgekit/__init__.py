"""Deterministic simulation and optimization toolkit for IoT edge
energy-performance studies.

Sub-packages:

    learning    decentralized ADMM variants with per-message energy accounting
    placement   energy-optimal assignment of app components to device networks
    radio       NB-IoT access and proof-of-work ledger latency/energy model

Top-level modules:

    core        integer and finite-number checks, seeded RNG streams,
                ordered sum, YAML loader
    scenario    experiment description files (YAML) and their validation
    pipeline    scenario execution and deterministic CSV reports
    cli         the `edgekit` command
"""
from . import core, learning, placement, radio
from .scenario import ParseError, Scenario, SweepSpec, ValidationError, parse_scenario
from .pipeline import run_scenario

__version__ = "0.1.0"

__all__ = [
    "core",
    "learning",
    "placement",
    "radio",
    "ParseError",
    "Scenario",
    "SweepSpec",
    "ValidationError",
    "parse_scenario",
    "run_scenario",
    "__version__",
]
