"""Three ranks whose deadlock hinges on one wildcard match: the
explorer must answer deadlock-possible and its witness must replay."""
from repro.workloads import wildcard_master_worker_programs

LINT_PROGRAMS = wildcard_master_worker_programs()
