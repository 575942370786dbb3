"""One differential harness: dump a matrix in two checkouts, compare.

A "replace, do not fork" change must leave everything but its stated
fixes where it was. Each module beside this one is a *matrix* — what to
run and what to keep of it — and shares this file's ``dump`` /
``compare`` / ``main``, masking, hashing and error recording:

* ``deciders.py``  the three static deciders (``matchcore`` and drivers);
* ``recorders.py`` everything that records calls (``runtime/recording``);
* ``cli.py``       what the commands print and write (``repro.api``,
  ``cli/``, ``obs/exporters``, ``programfile``);
* ``backends.py``  the distributed tool on both backends, obs off/on
  (``core/detector``, ``backend/``, ``tbon/network``, the matcher);
* ``symbolic.py``  the symbolic pass, source to certificate (``symexec``,
  the argument rule of ``programfile``, the builders of ``Rank``).

Run ``dump`` once in each checkout, from its root so ``src``,
``examples/`` and ``tests/`` are that checkout's, always through *this*
checkout's ``benchmarks/diff`` (a parent needs nothing copied in), then
``compare``; two dumps of one checkout compare equal, so any line
``compare`` prints is real:

    cd PARENT && PYTHONPATH=src:. python CHANGE/benchmarks/diff MATRIX dump /tmp/p.json
    cd CHANGE && PYTHONPATH=src:. python benchmarks/diff MATRIX dump /tmp/c.json
    python benchmarks/diff MATRIX compare /tmp/p.json /tmp/c.json
"""
import hashlib
import json
import os
import re

#: The one mask: any number written with a fraction or an exponent,
#: with the column padding before it. Wall-clock readings are the
#: run-to-run noise and every one is printed or serialized that way;
#: integers (ranks, counts, sequence numbers, logical clocks) stay.
MASK = re.compile(r" *(?:\d+\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)")


#: The rank-program fixture files next to this checkout's script: the
#: same files for both checkouts of a comparison.
FIXTURES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    ))),
    "tests", "fixtures", "program_files",
)


def mask(text, *directories):
    """``text`` with ``directories`` spelled ``.`` and fractions ``#``."""
    for directory in directories:
        text = text.replace(directory, ".")
    return MASK.sub("#", text)


def sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def public_error(exc):
    """The name of the ``repro.util.errors`` class ``exc`` is caught
    under, whatever subclass this checkout raises."""
    return next(
        c.__name__ for c in type(exc).__mro__
        if c.__module__ == "repro.util.errors"
    )


def findings(items):
    return [
        [f.check, f.severity.name, f.rank, f.message,
         list(f.op) if f.op else None, f.location]
        for f in items
    ]


def example_findings(example, program=lambda p: []):
    """`lint_path`/`verify_path` findings on one shipped example;
    ``program(p)`` is what else to keep of each verified program."""
    from repro.analysis import lint_path, verify_path

    lint = lint_path(example)
    verify = verify_path(example)
    return {
        "lint": findings(lint.findings),
        "lint_notes": list(lint.notes),
        "verify": findings(verify.findings) + [
            [p.label, p.verdict_name, p.skipped_reason,
             findings(p.findings), *program(p)]
            for p in verify.programs
        ],
    }


def random_program_sets(seeds):
    """``(label, generated)`` per seed, wildcards off then on; odd seeds
    are mutated (may deadlock)."""
    from repro.workloads.randomgen import (
        mutate_program_set,
        safe_program_set,
    )

    for wildcards in (False, True):
        for seed in seeds:
            generated = safe_program_set(
                2 + seed % 4, 8 + seed % 9, seed, allow_wildcards=wildcards
            )
            if seed % 2:
                generated = mutate_program_set(
                    generated, seed + 10_000, mutations=1 + seed % 3
                )
            yield f"{'wild' if wildcards else 'det'}-{seed}", generated


def dump(path, entries, check=None):
    path = os.path.abspath(path)  # a matrix may change directory
    out = dict(entries)
    with open(path, "w") as fh:
        json.dump(out, fh, sort_keys=True, indent=1, default=str)
    print(f"{len(out)} entries -> {path}")
    for line in check(out) if check else ():
        print(line)
    return 0


def differences(a, b, where=()):
    """``(where, a, b)`` for every leaf that differs; dicts are walked
    by key, lists of one length by index."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            yield from differences(a.get(key), b.get(key), where + (key,))
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for index, (x, y) in enumerate(zip(a, b)):
            yield from differences(x, y, where + (index,))
    elif a != b:
        yield where, a, b


def compare(left_path, right_path, tolerate=None):
    """Print every difference; exit 1 if one is left after ``tolerate``
    (``(where, left, right) -> note or None``, a matrix's rule for
    differences it expects) had its say."""
    with open(left_path) as fh:
        left = json.load(fh)
    with open(right_path) as fh:
        right = json.load(fh)
    diffs, notes = [], []
    for where, a, b in differences(left, right):
        note = tolerate(where, left, right) if tolerate else None
        if note is None:
            diffs.append((where, a, b))
        else:
            notes.append(f"{note}: {'/'.join(map(str, where))}")
    print(
        f"{len(left)} entries compared; {len(diffs)} differences, "
        f"{len(notes)} more tolerated"
    )
    for where, a, b in diffs:
        print("/".join(map(str, where)))
        print("   left: ", json.dumps(a)[:400])
        print("   right:", json.dumps(b)[:400])
    for note in notes:
        print(note)
    return 1 if diffs else 0
