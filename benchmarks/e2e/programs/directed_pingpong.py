"""Pairwise ping-pong with directed receives at 256 ranks: wildcard
free, so `repro verify` decides it on the linear fast path."""
from repro.workloads import ping_pong_pairs_programs

LINT_PROGRAMS = ping_pong_pairs_programs(256, rounds=3)
