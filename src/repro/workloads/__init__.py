"""Workloads: paper micro examples, stress tests, SPEC MPI2007 proxies."""
from repro.workloads.micro import (
    fig2a_programs,
    fig2b_programs,
    fig4_programs,
    head_to_head_sendrecv_programs,
    waitall_deadlock_programs,
    waitany_survivor_programs,
)
from repro.workloads.patterns import (
    butterfly_programs,
    comm_pipeline_programs,
    deferred_deadlock_programs,
    master_worker_programs,
    software_bcast_programs,
    stencil3d_programs,
)
from repro.workloads.randomgen import (
    GeneratedPrograms,
    mutate_program_set,
    safe_program_set,
)
from repro.workloads.softhang import (
    soft_hang_imbalance_programs,
    straggler_collective_programs,
)
from repro.workloads.specmpi import (
    EXCLUDED_FROM_AVERAGE,
    SPEC_PROFILES,
    figure12_apps,
    gapgeofem_skeleton_programs,
    halo2d_programs,
    lammps_skeleton_programs,
    lu_skeleton_programs,
)
from repro.workloads.stress import (
    build_stress_trace,
    stress_programs,
    unsafe_blocking_ring_programs,
)
from repro.workloads.wildcard import (
    build_wildcard_trace,
    ping_pong_pairs_programs,
    wildcard_deadlock_programs,
    wildcard_groups_programs,
    wildcard_master_worker_programs,
    wildcard_stress_programs,
)

__all__ = [
    "EXCLUDED_FROM_AVERAGE",
    "GeneratedPrograms",
    "butterfly_programs",
    "comm_pipeline_programs",
    "deferred_deadlock_programs",
    "master_worker_programs",
    "mutate_program_set",
    "ping_pong_pairs_programs",
    "safe_program_set",
    "software_bcast_programs",
    "stencil3d_programs",
    "SPEC_PROFILES",
    "build_stress_trace",
    "build_wildcard_trace",
    "fig2a_programs",
    "fig2b_programs",
    "fig4_programs",
    "figure12_apps",
    "gapgeofem_skeleton_programs",
    "halo2d_programs",
    "head_to_head_sendrecv_programs",
    "lammps_skeleton_programs",
    "lu_skeleton_programs",
    "soft_hang_imbalance_programs",
    "straggler_collective_programs",
    "stress_programs",
    "unsafe_blocking_ring_programs",
    "waitall_deadlock_programs",
    "waitany_survivor_programs",
    "wildcard_deadlock_programs",
    "wildcard_groups_programs",
    "wildcard_master_worker_programs",
    "wildcard_stress_programs",
]
