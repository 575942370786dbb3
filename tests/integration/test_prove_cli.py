"""``repro prove`` end to end: exit codes, JSON, witnesses, and the
``--prove`` riders on ``classify``/``verify``."""
import json
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

PROVABLE_MODULE = '''\
"""Parity-split exchange: deadlock-free at every size."""


def parity(rank):
    right = (rank.rank + 1) % rank.size
    left = (rank.rank - 1) % rank.size
    if rank.rank % 2 == 0:
        yield rank.send(dest=right, tag=0)
        yield rank.recv(source=left, tag=0)
    else:
        yield rank.recv(source=left, tag=0)
        yield rank.send(dest=right, tag=0)
    yield rank.finalize()
'''

REFUTABLE_MODULE = '''\
"""All-send-first above p=6: the minimal failing count is 6."""


def guarded_ring(rank):
    nxt = (rank.rank + 1) % rank.size
    prv = (rank.rank - 1) % rank.size
    if rank.size >= 6:
        yield rank.send(dest=nxt, tag=0)
        yield rank.recv(source=prv, tag=0)
    else:
        if rank.rank % 2 == 0:
            yield rank.send(dest=nxt, tag=0)
            yield rank.recv(source=prv, tag=0)
        else:
            yield rank.recv(source=prv, tag=0)
            yield rank.send(dest=nxt, tag=0)
    yield rank.finalize()
'''

WILDCARD_MODULE = '''\
"""Wildcard receive: honestly outside the provable fragment."""
from repro.mpi.constants import ANY_SOURCE


def storm(rank):
    yield rank.recv(source=ANY_SOURCE, tag=0)
    yield rank.finalize()
'''


def test_proved_module_exits_zero(tmp_path, capsys):
    path = tmp_path / "parity.py"
    path.write_text(PROVABLE_MODULE)
    code = main(["prove", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PROVED-ALL-P" in out
    assert "deadlock-free for all p >= 2" in out


def test_refuted_module_exits_one_with_minimal_p(tmp_path, capsys):
    path = tmp_path / "ring.py"
    path.write_text(REFUTABLE_MODULE)
    code = main(["prove", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "REFUTED" in out
    assert "minimal failing p=6" in out


def test_wildcard_module_exits_two(tmp_path, capsys):
    path = tmp_path / "storm.py"
    path.write_text(WILDCARD_MODULE)
    code = main(["prove", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert "UNDECIDABLE" in out


def test_refuted_dominates_unknown_in_the_exit_code(tmp_path, capsys):
    proved = tmp_path / "parity.py"
    proved.write_text(PROVABLE_MODULE)
    refuted = tmp_path / "ring.py"
    refuted.write_text(REFUTABLE_MODULE)
    wildcard = tmp_path / "storm.py"
    wildcard.write_text(WILDCARD_MODULE)
    code = main(["prove", str(proved), str(wildcard), str(refuted)])
    assert code == 1


def test_missing_path_is_a_usage_error(capsys):
    assert main(["prove", "does/not/exist.py"]) == 2


def test_syntax_error_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.py"
    path.write_text("def broken(:\n")
    assert main(["prove", str(path)]) == 2
    assert "does not parse" in capsys.readouterr().err


def test_json_document_and_witness_dir(tmp_path, capsys):
    parity = tmp_path / "parity.py"
    parity.write_text(PROVABLE_MODULE)
    ring = tmp_path / "ring.py"
    ring.write_text(REFUTABLE_MODULE)
    out_json = tmp_path / "prove.json"
    wdir = tmp_path / "witnesses"
    code = main(
        ["prove", str(parity), str(ring),
         "--out", str(out_json), "--witness-dir", str(wdir)]
    )
    assert code == 1
    doc = json.loads(out_json.read_text())
    assert doc["format"] == "repro-prove/1"
    proved = doc["results"][str(parity)][0]
    assert proved["verdict"] == "PROVED-ALL-P"
    assert proved["certificate"]["window"][0] == 2
    assert proved["certificate"]["channels"]
    refuted = doc["results"][str(ring)][0]
    assert refuted["verdict"] == "REFUTED"
    assert refuted["min_p"] == 6
    assert refuted["witness"]["schedule"]
    # The witness was also archived as a replayable artifact.
    files = list(wdir.glob("*.witness.json"))
    assert len(files) == 1
    data = json.loads(files[0].read_text())
    assert data["format"] == "repro-witness/1"


def test_verbose_prints_the_channel_certificate(tmp_path, capsys):
    path = tmp_path / "parity.py"
    path.write_text(PROVABLE_MODULE)
    code = main(["prove", str(path), "-v"])
    out = capsys.readouterr().out
    assert code == 0
    assert "always-matched" in out


def test_obs_summary_renders_the_proof_table(tmp_path, capsys):
    path = tmp_path / "parity.py"
    path.write_text(PROVABLE_MODULE)
    main(["prove", str(path), "--obs"])
    out = capsys.readouterr().out
    assert "parameterized proof (repro prove)" in out
    assert "PROVED-ALL-P" in out


# ----------------------------------------------------------------------
# --prove riders
# ----------------------------------------------------------------------

def test_classify_prove_prints_and_reports_verdicts(tmp_path, capsys):
    path = tmp_path / "parity.py"
    path.write_text(PROVABLE_MODULE)
    out_json = tmp_path / "cls.json"
    code = main(["classify", str(path), "--prove", "--out", str(out_json)])
    out = capsys.readouterr().out
    assert code == 0
    assert "prove: " in out and "PROVED-ALL-P" in out
    doc = json.loads(out_json.read_text())
    entry = doc["programs"][str(path)][0]
    assert entry["prove"]["verdict"] == "PROVED-ALL-P"


def test_classify_prove_folds_refutation_into_the_exit_code(
    tmp_path, capsys
):
    path = tmp_path / "ring.py"
    path.write_text(REFUTABLE_MODULE)
    code = main(["classify", str(path), "--prove"])
    out = capsys.readouterr().out
    assert code == 1
    assert "minimal failing p=6" in out


def test_verify_prove_appends_parameterized_verdicts(tmp_path, capsys):
    path = tmp_path / "ring.py"
    path.write_text(REFUTABLE_MODULE)
    out_json = tmp_path / "verify.json"
    # At p=4 the guarded ring is clean; only the prover sees p=6.
    code = main(
        ["verify", str(path), "-n", "4", "--prove",
         "--out", str(out_json), "--format", "json"]
    )
    out = capsys.readouterr().out
    assert code == 1  # the refutation folds into the exit code
    assert "prove guarded_ring: " in out
    assert "minimal failing p=6" in out
    doc = json.loads(out_json.read_text())
    assert doc["results"][str(path)]["guarded_ring"]["prove"][
        "min_p"
    ] == 6


def test_verify_prove_on_a_provable_module_stays_clean(tmp_path, capsys):
    path = tmp_path / "parity.py"
    path.write_text(PROVABLE_MODULE)
    code = main(["verify", str(path), "-n", "4", "--prove"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PROVED-ALL-P" in out


# ----------------------------------------------------------------------
# A call Rank rejects is never certified
# ----------------------------------------------------------------------

#: call -> what ``Rank``'s signature says about it.
BAD_CALLS = {
    "rank.barrier(3)": "Rank.barrier(): too many positional arguments",
    "rank.send(1, 0, 64)": "Rank.send(): too many positional arguments",
    "rank.probe(0, nbytes=4)":
        "Rank.probe(): got an unexpected keyword argument 'nbytes'",
    "rank.send(dest=1, tga=5)":
        "Rank.send(): got an unexpected keyword argument 'tga'",
    "rank.sendd(1)": "Rank has no call sendd()",
}


def _bad_call_module(tmp_path, call):
    path = tmp_path / "bad.py"
    path.write_text(
        "def prog(rank):\n"
        "    yield rank.barrier()\n"
        f"    yield {call}\n"
        "    yield rank.finalize()\n"
    )
    return path


@pytest.mark.parametrize("call", sorted(BAD_CALLS))
@pytest.mark.parametrize("argv,exit_code", [
    (["prove"], 2), (["classify", "--prove"], 1), (["verify", "--prove"], 2),
], ids=lambda value: "-".join(value) if isinstance(value, list) else None)
def test_a_call_rank_rejects_is_undecidable(
    argv, exit_code, call, tmp_path, capsys
):
    """The program raises at that call, so there is nothing to certify
    and nothing to refute: every prover entry names the call, its line
    and what ``Rank`` said."""
    path = _bad_call_module(tmp_path, call)
    code = main([argv[0], str(path), *argv[1:]])
    out = capsys.readouterr().out
    assert code == exit_code, out
    assert "PROVED-ALL-P" not in out and "REFUTED" not in out
    assert f"UNDECIDABLE — {BAD_CALLS[call]}" in out
    assert f"the program raises at {path}:3" in out


@pytest.mark.parametrize("call", sorted(BAD_CALLS))
def test_lint_reports_a_call_rank_rejects_once_as_an_error(
    call, tmp_path, capsys
):
    path = _bad_call_module(tmp_path, call)
    code = main(["lint", str(path)])
    out = capsys.readouterr().out
    assert code == 1, out
    assert out.count("[ERROR] bad-call") == out.count("bad-call") == 1
    assert f"({path}:3): {BAD_CALLS[call]}" in out
    assert "proved-all-p" not in out and "prove-refuted" not in out


def test_an_unyielded_call_rank_rejects_is_undecidable_too(tmp_path, capsys):
    path = tmp_path / "dropped.py"
    path.write_text(
        "def prog(rank):\n"
        "    rank.barrier(3)\n"
        "    yield rank.finalize()\n"
    )
    assert main(["prove", str(path)]) == 2
    assert "Rank.barrier(): too many positional" in capsys.readouterr().out


@pytest.mark.parametrize("call,said", [
    ("rank.waitall(3)", "Rank.waitall(): 'Affine' object is not iterable"),
    ("rank.waitany(rank.rank)", "Rank.waitany(): 'Affine' object is not"),
    ("rank.send(None)", "send() argument 'dest' is not an affine"),
    ("rank.bcast(None)", "bcast() argument 'root' is not an affine"),
    ("rank.send(1, tag=None)", "send() argument 'tag' is not an affine"),
])
def test_a_call_the_builder_cannot_take_is_undecidable_not_a_crash(
    call, said, tmp_path, capsys
):
    """The signature binds these; the builder's body, or the domain,
    does not take the value. Still one outcome, never a traceback."""
    path = _bad_call_module(tmp_path, call)
    assert main(["prove", str(path)]) == 2
    out = capsys.readouterr().out
    assert f"UNDECIDABLE — {said}" in out
    assert "PROVED-ALL-P" not in out and "REFUTED" not in out
