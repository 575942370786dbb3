"""The versioned-document registry: one schema authority for every
``repro-*/N`` JSON format.

Before v1, each subsystem stamped and checked its own ``"format"``
string (``repro-witness/1`` in ``analysis/witness.py``,
``repro-live/1`` in ``obs/live.py``, ...). Those strings are about to
become *wire* formats — the ``repro serve`` protocol ships them inside
request/response envelopes — so this module consolidates them:

* :data:`REGISTRY` — every document family repro emits, with its
  current version and the top-level keys a well-formed document
  carries;
* :func:`doc_header` — the ``{"format": "repro-x/N"}`` fragment
  writers splat into their payloads (one producer, no drifting
  strings);
* :func:`validate_doc` — the loader-side check: family known, version
  supported, required keys present — raising :class:`DocError` (a
  :class:`~repro.util.errors.TraceError`) whose message carries the
  ``file:line`` prefix when the caller knows it, so every CLI can exit
  2 with a pointed diagnosis instead of a stack trace;
* :func:`sniff_path` — "what does this file claim to be?" for CLI
  dispatchers that accept several artifact kinds (``repro stats``,
  ``repro watch``).

Version policy: a loader accepts exactly the versions listed in its
family's :class:`DocFamily.versions`. Bumping a format means adding
the new version there and teaching the loader both shapes; an unknown
version is a *user input* error (their tool is older or newer), never
an internal one.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.util.errors import TraceError


class DocError(TraceError):
    """A versioned document failed validation (unknown family or
    version, missing keys). Message is CLI-ready (``file:line: ...``
    when location is known)."""


@dataclass(frozen=True)
class DocFamily:
    """One ``repro-<name>/<version>`` document family."""

    name: str
    #: Versions the current loaders understand (newest last).
    versions: Tuple[int, ...] = (1,)
    #: Top-level keys every instance carries besides ``format``.
    required_keys: Tuple[str, ...] = ()
    #: One-line description (rendered in diagnostics and docs).
    description: str = ""

    @property
    def current(self) -> int:
        return self.versions[-1]

    @property
    def tag(self) -> str:
        """The current full format tag, e.g. ``repro-live/1``."""
        return f"repro-{self.name}/{self.current}"


#: Every document family repro writes, keyed by short name.
REGISTRY: Dict[str, DocFamily] = {
    family.name: family
    for family in (
        DocFamily(
            "witness", (1,), ("num_ranks", "schedule"),
            "replayable deadlock schedule (repro verify/prove)",
        ),
        DocFamily(
            "blame", (1,), ("root_causes",),
            "wait-state blame report (repro blame)",
        ),
        DocFamily(
            "classify", (1,), ("programs",),
            "decidable-fragment classification (repro classify)",
        ),
        DocFamily(
            "prove", (1,), ("results",),
            "parameterized deadlock-freedom results (repro prove)",
        ),
        DocFamily(
            "profile", (1,), ("rounds", "shards"),
            "BSP round profile of a sharded run (repro profile)",
        ),
        DocFamily(
            "live", (1,), ("kind",),
            "live health feed window/header/final (repro watch)",
        ),
        DocFamily(
            "lint", (1,), ("findings",),
            "static-analysis findings (repro lint)",
        ),
        DocFamily(
            "verify", (1,), ("results",),
            "bounded verification verdicts (repro verify)",
        ),
        DocFamily(
            "stats", (1,), (),
            "observability summary (repro stats)",
        ),
        DocFamily(
            "figures", (1,), ("figure9", "figure12"),
            "overhead-model tables (repro figures)",
        ),
        DocFamily(
            "serve", (1,), ("kind",),
            "analysis-service protocol envelope (repro serve)",
        ),
        DocFamily(
            "deadlock-report", (1,), ("deadlocked", "conditions", "wfg"),
            "deadlock report of one detection (repro analyze/demo)",
        ),
    )
}

#: ``repro-<name>/<version>`` — the only accepted tag shape.
_TAG_RE = re.compile(r"^repro-([a-z0-9-]+)/(\d+)$")


def parse_format(tag: Any) -> Optional[Tuple[str, int]]:
    """``"repro-live/1"`` -> ``("live", 1)``; None when not a tag."""
    if not isinstance(tag, str):
        return None
    match = _TAG_RE.match(tag)
    if match is None:
        return None
    return match.group(1), int(match.group(2))


def format_tag(name: str) -> str:
    """The current format tag of a registered family."""
    return REGISTRY[name].tag


def doc_header(name: str) -> Dict[str, str]:
    """The ``{"format": ...}`` fragment writers merge into payloads."""
    return {"format": REGISTRY[name].tag}


def _where(path: Optional[str], lineno: Optional[int]) -> str:
    if path is None:
        return ""
    if lineno is None:
        return f"{path}: "
    return f"{path}:{lineno}: "


def supported_line(name: str) -> str:
    """``"supported: repro-live/1"`` — shared diagnostic suffix."""
    family = REGISTRY[name]
    return "supported: " + ", ".join(
        f"repro-{name}/{v}" for v in family.versions
    )


def validate_doc(
    doc: Any,
    expect: Optional[str] = None,
    *,
    path: Optional[str] = None,
    lineno: Optional[int] = None,
    check_keys: bool = False,
) -> Tuple[str, int]:
    """Validate a loaded document's ``format`` tag; return (name, version).

    ``expect`` pins the family (loaders know what they are reading);
    without it any registered family passes. ``check_keys`` also
    requires the family's top-level keys — writers use it as a
    self-check, loaders usually leave shape validation to their own
    parsing. Raises :class:`DocError` with a ``path:line:`` prefix
    when location is provided.
    """
    where = _where(path, lineno)
    if not isinstance(doc, Mapping):
        raise DocError(f"{where}not a JSON object document")
    tag = doc.get("format")
    if tag is None:
        raise DocError(
            f"{where}document has no 'format' tag"
            + (f" (expected {REGISTRY[expect].tag})" if expect else "")
        )
    parsed = parse_format(tag)
    if parsed is None:
        raise DocError(f"{where}not a repro-*/N format tag: {tag!r}")
    name, version = parsed
    if expect is not None and name != expect:
        raise DocError(
            f"{where}expected a {REGISTRY[expect].tag} document, "
            f"found {tag}"
        )
    family = REGISTRY.get(name)
    if family is None:
        known = ", ".join(sorted(REGISTRY))
        raise DocError(
            f"{where}unknown document family {tag!r} (known: {known})"
        )
    if version not in family.versions:
        raise DocError(
            f"{where}unsupported {tag} version ({supported_line(name)})"
        )
    if check_keys:
        missing = [k for k in family.required_keys if k not in doc]
        if missing:
            raise DocError(
                f"{where}{family.tag} document is missing "
                f"key(s): {', '.join(missing)}"
            )
    return name, version


def sniff_path(path: str) -> Optional[Tuple[str, int, int]]:
    """What ``repro-*/N`` format does this file claim to carry?

    Reads just enough of the file: the first non-empty line for JSONL
    feeds, the whole document otherwise. Returns
    ``(name, version, lineno)`` for *any* syntactically valid tag —
    including unknown families and versions, so dispatchers can
    diagnose them — or None when the file carries no tag (raw event
    streams, Chrome traces, foreign JSON). Unreadable or non-JSON
    files also return None: the caller's normal loader owns that
    diagnosis.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                except ValueError:
                    # Not line-delimited: try the whole file as one doc.
                    break
                parsed = (
                    parse_format(doc.get("format"))
                    if isinstance(doc, dict)
                    else None
                )
                if parsed is None:
                    return None
                return parsed[0], parsed[1], lineno
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError):
        return None
    parsed = (
        parse_format(doc.get("format")) if isinstance(doc, dict) else None
    )
    if parsed is None:
        return None
    return parsed[0], parsed[1], 1
