"""Unified chaos engine: declarative fault plans, invariant monitoring,
seed sweeps with shrinking — deterministic-simulation testing for the
paper's fault-tolerant applications. Import from the modules:
``plan`` (what a run does to the world), ``engine`` (how a plan is
installed), ``harness`` (the scenario template), ``history`` (the
recorded client history and its checker), ``invariants`` (the monitor),
the scenarios, and ``runner`` (sweeps, shrinking and the CLI)."""
