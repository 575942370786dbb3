"""What a program set statically unrolls to is what it records.

``repro lint``/``verify`` decide on the sequences
:func:`~repro.analysis.extract.extract_programs` produces and the
runtime tool on the sequences the engine records; the split only works
if, wherever the extraction is ``exact``, the two are the same
sequence. Both now record through one
:class:`~repro.runtime.recording.CallRecorder`, and this suite is the
guard for that: field for field, over the random program sets, the
lammps skeleton, the stress ring (also against its hand-built trace)
and a program using every recording path that has state — derived
communicators, persistent requests, ``sendrecv`` groups, PROC_NULL.

Communicators are compared by group: the registry numbers them in
wave-completion order, which in the engine depends on the schedule. A
run that hangs (or that the engine rejects part-way) compares the
prefix it recorded.
"""
import pytest

from repro.analysis import extract_programs
from repro.mpi.constants import PROC_NULL
from repro.util.errors import ReproError
from repro.workloads.randomgen import mutate_program_set, safe_program_set
from repro.workloads.specmpi import lammps_skeleton_programs
from repro.workloads.stress import build_stress_trace, stress_programs
from tests.conftest import run_strict

SEEDS = range(100)
ENGINE_SEEDS = (0, 7)

_FIELDS = (
    "kind", "rank", "ts", "peer", "tag", "root", "request", "requests",
    "nbytes", "sendrecv_group", "location",
)


def comm_persistent_program(rank):
    """Split, dup, persistent ring on the dup, sendrecv, PROC_NULL in
    every flavour, a ``Comm_create`` only half the ranks get, frees."""
    right = (rank.rank + 1) % rank.size
    left = (rank.rank - 1) % rank.size
    half = yield rank.comm_split(color=rank.rank % 2)
    dup = yield rank.comm_dup()
    sreq = yield rank.send_init(right, tag=1, comm=dup, nbytes=16)
    rreq = yield rank.recv_init(left, tag=1, comm=dup, nbytes=16)
    for _ in range(2):
        yield from rank.startall([sreq, rreq])
        yield rank.waitall([sreq, rreq])
    yield rank.request_free(sreq)
    yield rank.request_free(rreq)
    yield from rank.sendrecv(right, left, sendtag=2, recvtag=2)
    yield rank.send(PROC_NULL)
    yield rank.recv(PROC_NULL, tag=4)
    nreq = yield rank.irecv(PROC_NULL, tag=4)
    yield rank.wait(nreq)
    null = yield rank.send_init(PROC_NULL)
    yield rank.start(null)
    yield rank.wait(null)
    yield rank.request_free(null)
    yield rank.barrier(comm=half)
    evens = yield rank.comm_create([0, 2])
    if evens is not None:
        yield rank.allreduce(comm=evens)
        yield rank.comm_free(evens)
    yield from rank.sendrecv(left, right, sendtag=3, recvtag=3, comm=half)
    yield rank.comm_free(half)
    yield rank.finalize()


def _assert_same_sequence(got, got_comms, want, want_comms, fields=_FIELDS):
    for a, b in zip(got, want):
        for name in fields:
            assert getattr(a, name) == getattr(b, name), (
                f"{a.describe()} against {b.describe()}: {name}"
            )
        assert (
            got_comms.get(a.comm_id).group == want_comms.get(b.comm_id).group
        ), f"{a.describe()}: communicator group"


def _assert_engine_records_the_extraction(programs):
    """Returns False when the extraction is not exact (nothing is
    promised then) and True once every engine seed agreed."""
    ext = extract_programs(programs)
    if not ext.exact:
        return False
    assert not ext.truncated
    for seed in ENGINE_SEEDS:
        try:
            res = run_strict(programs, seed=seed)
        except ReproError:
            # Rejected part-way (a collective mismatch a mutation
            # made): no trace to compare, the static checks report it.
            continue
        for rank, want in enumerate(ext.sequences):
            got = res.trace.sequence(rank)
            if not res.deadlocked:
                assert len(got) == len(want), f"rank {rank} length"
            assert len(got) <= len(want), f"rank {rank} recorded more"
            _assert_same_sequence(got, res.matched.comms, want, ext.comms)
    return True


def _generated(seed):
    return safe_program_set(
        2 + seed % 4, 10 + seed % 9, seed, allow_wildcards=False
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_safe_sets_record_what_they_extract_to(seed):
    assert _assert_engine_records_the_extraction(_generated(seed).programs())


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_sets_record_what_they_extract_to(seed):
    mutated = mutate_program_set(
        _generated(seed), seed + 10_000, mutations=1 + seed % 3
    )
    assert _assert_engine_records_the_extraction(mutated.programs())


def test_lammps_skeleton_records_what_it_extracts_to():
    # Hangs under strict semantics: the recorded prefix is compared.
    assert _assert_engine_records_the_extraction(lammps_skeleton_programs(8))


def test_communicators_persistent_requests_sendrecv_and_proc_null():
    assert _assert_engine_records_the_extraction(
        [comm_persistent_program] * 4
    )


def test_stress_ring_equals_its_hand_built_trace():
    programs = stress_programs(6, 10)
    assert _assert_engine_records_the_extraction(programs)
    built = build_stress_trace(6, 10)
    ext = extract_programs(programs)
    no_location = tuple(f for f in _FIELDS if f != "location")
    for seed in ENGINE_SEEDS:
        res = run_strict(programs, seed=seed)
        for rank in range(6):
            want = built.trace.sequence(rank)
            for got, comms in (
                (res.trace.sequence(rank), res.matched.comms),
                (ext.sequences[rank], ext.comms),
            ):
                assert len(got) == len(want)
                _assert_same_sequence(
                    got, comms, want, built.comms, no_location
                )
