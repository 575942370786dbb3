"""What every ``repro`` subcommand shares.

The unified ``--out/--format/--backend/--shards`` quartet and where
``--out`` lands, the diagnosis of the spellings removed in 1.2, and the
0/1/2 exit-code contract. This module imports nothing of the analysis
stack: ``repro submit --help`` builds its parser from here and from
``repro.cli.serve`` alone.
"""
from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, Optional, Sequence, Tuple

#: Formats ``--out`` understands, per subcommand. ``json`` is the
#: primary machine-readable artifact everywhere; ``jsonl`` selects the
#: raw observability event stream where a run happens; ``html``/``dot``
#: are the rendered deadlock reports of ``analyze``/``demo``.
_FORMATS: Dict[str, Tuple[str, ...]] = {
    "record": ("json", "jsonl"),
    "analyze": ("json", "jsonl", "html", "dot"),
    "demo": ("json", "jsonl", "html", "dot"),
    "lint": ("json",),
    "classify": ("json",),
    "prove": ("json",),
    "verify": ("json", "jsonl"),
    "stats": ("json",),
    "blame": ("json",),
    "profile": ("json",),
    "watch": ("json", "jsonl"),
    "figures": ("json",),
    "submit": ("json",),
    "jobs": ("json",),
}

#: Default of ``--shards``: the value of
#: ``repro.backend.base.DEFAULT_SHARDS`` (``tests/unit/
#: test_lazy_exports.py`` pins the two equal), restated because the
#: quartet is also built for commands that never load a backend.
DEFAULT_SHARDS = 2


def usage_error(message: str) -> int:
    """Exit code 2, with ``message`` on stderr."""
    print(message, file=sys.stderr)
    return 2


def exit_code(found: bool, inconclusive: bool = False) -> int:
    """The 0/1/2 contract: 1 when the command found what it looks for
    (a deadlock, an error finding, a refutation, a root cause), else 2
    when some input was left without a definite verdict, else 0."""
    if found:
        return 1
    return 2 if inconclusive else 0


def _add_common_flags(
    parser: argparse.ArgumentParser, command: str
) -> None:
    """The unified ``--out/--format/--backend/--shards`` quartet."""
    formats = _FORMATS[command]
    parser.add_argument(
        "--out", metavar="PATH",
        help="write the command's primary artifact here (see --format)",
    )
    parser.add_argument(
        "--format", choices=formats, default="json",
        help="artifact format for --out "
        f"(this command supports: {', '.join(formats)}; default json)",
    )
    parser.add_argument(
        "--backend", choices=("inline", "sharded"), default="inline",
        help="execution backend wherever a distributed analysis runs "
        "(default inline)",
    )
    parser.add_argument(
        "--shards", type=int, default=DEFAULT_SHARDS,
        help="worker processes for --backend sharded "
        f"(default {DEFAULT_SHARDS})",
    )


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--obs", action="store_true",
        help="instrument the run and print an observability summary",
    )
    parser.add_argument(
        "--obs-trace", metavar="FILE",
        help="write a Chrome trace_event file (Perfetto-compatible) "
        "with the metrics snapshot embedded; implies --obs",
    )
    # Internal routing attributes: --out FILE --format jsonl lands on
    # obs_jsonl, --out FILE --format json on json_out (the pre-1.1
    # option spellings were removed in 1.2 — see REMOVED_CLI_FLAGS).
    parser.set_defaults(obs_jsonl=None, json_out=None)


#: CLI spellings removed in 1.2 (deprecated aliases since 1.1) and the
#: v1 replacement the hard error names. Checked against raw argv
#: before parsing so the diagnosis beats argparse's generic
#: "unrecognized arguments".
REMOVED_CLI_FLAGS = {
    "--json-out": "--out FILE --format json",
    "--obs-out": "--obs-trace FILE",
    "--obs-jsonl": "--out FILE --format jsonl",
}


def _reject_removed_flags(argv: Sequence[str]) -> Optional[int]:
    """Exit 2 with the replacement spelling for removed aliases."""
    for token in argv:
        flag = token.split("=", 1)[0]
        replacement = REMOVED_CLI_FLAGS.get(flag)
        if replacement is not None:
            return usage_error(
                f"error: {flag} was removed in 1.2 (deprecated since "
                f"1.1); use {replacement}"
            )
    return None


def _normalize_args(args: argparse.Namespace) -> Optional[int]:
    """Route ``--out``/``--format`` onto the writer attributes.

    Returns an exit code for usage errors, None to proceed.
    """
    out = getattr(args, "out", None)
    if out:
        fmt = getattr(args, "format", "json")
        if fmt == "jsonl":
            args.obs_jsonl = out
        elif fmt == "html":
            args.report = out
        elif fmt == "dot":
            args.dot = out
        elif fmt == "json" and hasattr(args, "json_out"):
            args.json_out = out
        # json for record/lint/stats/figures is read by the command
        # itself via _out_path.
    if args.command == "record":
        if not getattr(args, "output", None):
            args.output = _out_path(args, "json")
        if not args.output:
            return usage_error(
                "record: an output path is required "
                "(-o FILE or --out FILE --format json)"
            )
    return None


def _out_path(args: argparse.Namespace, fmt: str) -> Optional[str]:
    """``--out`` when ``--format`` selects ``fmt``, else None."""
    if getattr(args, "out", None) and getattr(args, "format", "json") == fmt:
        return str(args.out)
    return None


def _write_json(path: str, payload: Dict[str, Any]) -> None:
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")
