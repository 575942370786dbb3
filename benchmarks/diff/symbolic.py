"""Matrix: the symbolic pass, source to certificate (``PYTHONPATH=src:.``).

A change to how a call site becomes a term (`symexec`, the argument
rule of `repro.programfile`, the builders of `Rank`) must leave every
term tree, fragment label, proof and instantiated operation where it
was. Sources: every shipped example, every rank-program fixture next to
this checkout's script (the same files for both checkouts) and the 60
templates of ``tests/property/test_prove_agreement.py``. Per rank
program:

(a) `render_terms` of its term tree, or why there is none (reason,
    line, check);
(b) the fragment label with its reason and line;
(c) the `prove_summary` verdict, `min_p`, reason, swept sizes and the
    certificate document;
(d) `instantiate()` at p in {2, 3, 4, 8, 16}: every field of every
    operation of every rank, or the `InstantiationError`.
"""
import dataclasses
import glob
import os

import harness

SIZES = (2, 3, 4, 8, 16)


def _sources():
    from tests.property.test_prove_agreement import SEEDS, _generate_source

    for example in sorted(glob.glob("examples/*.py")):
        with open(example) as fh:
            yield example, fh.read()
    fixtures = os.path.join(harness.FIXTURES, "*.py")
    for fixture in sorted(glob.glob(fixtures)):
        with open(fixture) as fh:
            yield f"fixtures/{os.path.basename(fixture)}", fh.read()
    for seed in SEEDS:
        yield f"template/prog_{seed}.py", _generate_source(seed)


def _instantiated(summary, size):
    from repro.analysis.symbolic import InstantiationError, instantiate

    try:
        return [
            [
                dataclasses.asdict(op)
                for op in instantiate(
                    summary.terms, rank, size, filename=summary.filename
                )
            ]
            for rank in range(size)
        ]
    except InstantiationError as exc:
        return f"InstantiationError: {exc}"


def entries():
    from repro.analysis.symbolic import (
        prove_summary,
        render_terms,
        summarize_source,
    )

    for label, source in _sources():
        try:
            summaries = summarize_source(source, label)
        except SyntaxError as exc:
            yield label, f"SyntaxError: {exc.msg}"
            continue
        for summary in summaries:
            proof = prove_summary(summary)
            cl = proof.classification
            certificate = proof.certificate
            yield f"{label}::{summary.name}", {
                "terms": render_terms(summary.terms),
                "unsupported": None if summary.supported else [
                    summary.reason, summary.reason_line,
                    summary.reason_check,
                ],
                "fragment": [cl.fragment.value, cl.reason, cl.reason_line],
                "prove": {
                    "verdict": proof.verdict.value,
                    "min_p": proof.min_p,
                    "reason": proof.reason,
                    "sizes_checked": list(proof.sizes_checked),
                    "certificate": (
                        certificate.to_json_dict() if certificate else None
                    ),
                },
                "instantiate": {
                    f"p={size}": _instantiated(summary, size)
                    for size in SIZES
                } if summary.supported else None,
            }
