"""``--smoke`` size of wildcard_pingpong.py."""
from repro.workloads import wildcard_stress_programs

LINT_PROGRAMS = wildcard_stress_programs(4, rounds=2)
