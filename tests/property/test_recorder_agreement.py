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
from repro.mpi.constants import ANY_TAG, PROC_NULL
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


# The symbolic pass is the third source: wherever it has a term tree for
# the set's program, `symbolic.instantiate` must unroll it to the
# extracted sequence too, defaults and byte counts included — it calls
# the same `Rank` builders, on symbolic arguments. (Below
# `comm_persistent_program`, whose line numbers `benchmarks/diff
# recorders` compares across checkouts.)

#: The symbolic pass names the file as it was told to: lines compare.
_NO_LOCATION = _FIELDS[:-1]


def fragment_program(rank):
    """Every builder of the symbolic fragment, with its defaults, with
    keywords in any order and with ``nbytes`` given or not."""
    right = (rank.rank + 1) % rank.size
    left = (rank.rank - 1) % rank.size
    sreq = yield rank.isend(right, 1)
    rreq = yield rank.irecv(tag=1, source=left, nbytes=32)
    yield rank.waitall([sreq, rreq])
    for builder_tag in range(2, 5):
        req = yield rank.issend(nbytes=4, tag=builder_tag, dest=right)
        yield rank.probe(left, builder_tag)
        yield rank.recv(left)
        yield rank.wait(req)
    breq = yield rank.ibsend(right)
    qreq = yield rank.irsend(dest=right, tag=6)
    yield rank.bsend(right, 7)
    yield rank.recv(left, 0)
    yield rank.recv(left, 6)
    yield rank.recv(left, ANY_TAG, nbytes=16)
    yield rank.waitall((breq, qreq))
    yield from rank.sendrecv(
        recvtag=9, sendtag=9, source=left, dest=right, nbytes=64
    )
    yield from rank.sendrecv(right, left)
    if rank.rank == 0:
        yield rank.ssend(1, 10)
        yield rank.send(1, tag=11, nbytes=0)
        yield rank.rsend(PROC_NULL)
    elif rank.rank == 1:
        yield rank.recv(0, 10)
        yield rank.recv(tag=11, source=0)
    yield rank.barrier()
    yield rank.bcast(0)
    yield rank.reduce(root=rank.size - 1, nbytes=24)
    yield rank.allreduce()
    yield rank.gather(0, nbytes=4)
    yield rank.scatter(1)
    yield rank.allgather(nbytes=12)
    yield rank.alltoall()
    yield rank.scan()
    yield rank.reduce_scatter(nbytes=40)
    yield rank.finalize()


def _instantiated(programs):
    """What the symbolic pass unrolls the set's one SPMD program to, per
    rank, or None where it has no term tree for it (an MPMD set, a call
    outside its fragment). The integers a closure was built over are
    module constants to it."""
    import inspect
    import textwrap

    from repro.analysis.symbolic import instantiate, summarize_source

    fn = programs[0]
    if any(program is not fn for program in programs):
        return None
    lines, start = inspect.getsourcelines(fn)
    cells = zip(fn.__code__.co_freevars, fn.__closure__ or ())
    constants = "; ".join(
        f"{name} = {cell.cell_contents}" for name, cell in cells
        if isinstance(cell.cell_contents, int)
    )
    source = constants + "\n" * (start - 1) + textwrap.dedent("".join(lines))
    (summary,) = summarize_source(source, inspect.getsourcefile(fn))
    if not summary.supported:
        return None
    return [
        instantiate(summary.terms, rank, len(programs))
        for rank in range(len(programs))
    ]


def _line(op):
    return op.location.rsplit(":", 1)[1]


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
    promised of the engine then) and True once every engine seed
    agreed. What the symbolic pass unrolls is compared either way: it
    has no term tree where a fabricated status could steer a call."""
    ext = extract_programs(programs)
    unrolled = _instantiated(programs)
    if unrolled is not None:
        from repro.mpi.communicator import CommRegistry

        assert not ext.truncated
        world = CommRegistry(len(programs))
        for got, want in zip(unrolled, ext.sequences):
            assert len(got) == len(want), f"rank {want[0].rank} unrolled"
            _assert_same_sequence(got, world, want, ext.comms, _NO_LOCATION)
            assert [_line(op) for op in got] == [_line(op) for op in want]
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
    assert _instantiated(lammps_skeleton_programs(8)) is not None


@pytest.mark.parametrize("size", [2, 3, 5])
def test_every_builder_of_the_symbolic_fragment(size):
    programs = [fragment_program] * size
    assert _instantiated(programs) is not None
    # Receives with the default ANY_TAG: inexact, so the engine is not
    # held to it, and a deadlock-free run all the same.
    assert not _assert_engine_records_the_extraction(programs)
    assert not run_strict(programs).deadlocked


def test_communicators_persistent_requests_sendrecv_and_proc_null():
    assert _assert_engine_records_the_extraction(
        [comm_persistent_program] * 4
    )


def test_stress_ring_equals_its_hand_built_trace():
    programs = stress_programs(6, 10)
    assert _assert_engine_records_the_extraction(programs)
    assert _instantiated(programs) is not None
    built = build_stress_trace(6, 10)
    ext = extract_programs(programs)
    no_location = _NO_LOCATION
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
