"""Pairwise ping-pong with wildcard receives: deadlock-free, and only
the explorer (with partial-order reduction) can prove it."""
from repro.workloads import wildcard_stress_programs

LINT_PROGRAMS = wildcard_stress_programs(8, rounds=3)
