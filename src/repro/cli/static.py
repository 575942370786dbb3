"""``lint``, ``classify``, ``prove``, ``verify``: the commands that
decide a rank-program file without (or before) running it."""
from __future__ import annotations

import argparse
import os
from typing import Any, Dict

from repro.cli.common import (
    _add_common_flags,
    _add_obs_flags,
    _out_path,
    _write_json,
    exit_code,
    usage_error,
)
from repro.cli.obs import _print_obs
from repro.docs import doc_header
from repro.obs.observer import Observer, make_observer
from repro.programfile import ProgramFile, ProgramFileError
from repro.util.errors import ReproError, TraceError


def _observer(args: argparse.Namespace) -> Observer:
    """``prove`` and ``verify`` run no tool, hence no Session: their
    ``--obs*`` flags count the deciders' work on a plain observer."""
    return make_observer(bool(args.obs or args.obs_trace or args.obs_jsonl))


def _export_obs(
    observer: Observer, args: argparse.Namespace, deadlocked: bool
) -> None:
    if observer.enabled:
        from repro.obs.exporters import export_run

        export_run(
            observer,
            trace_out=args.obs_trace,
            jsonl_out=args.obs_jsonl,
            deadlocked=deadlocked,
        )
        _print_obs(args, observer)


def _unreadable(command: str, path: str, exc: Exception) -> int:
    """The usage error of ``classify``/``prove`` for a file
    :class:`ProgramFile` could not read or parse."""
    if isinstance(exc, ProgramFileError):
        return usage_error(f"{command}: {path}:{exc.lineno}: {exc.reason}")
    return usage_error(f"{command}: cannot read {path}: {exc}")


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import lint_path

    any_errors = False
    doc: Dict[str, list] = {}
    for path in args.paths:
        try:
            report = lint_path(path, ranks=args.ranks)
        except (OSError, TraceError) as exc:
            return usage_error(f"lint: cannot analyze {path}: {exc}")
        doc[path] = [
            {
                "check": f.check,
                "severity": f.severity.value,
                "rank": f.rank,
                "message": f.message,
            }
            for f in report.findings
        ]
        if report.findings:
            errors = len(report.errors())
            warnings = len(report.findings) - errors
            print(
                f"{path}: {errors} error(s), {warnings} warning(s)/"
                "note(s)"
            )
            for finding in report.findings:
                print("  " + finding.render())
        else:
            print(f"{path}: clean")
        if args.verbose:
            for note in report.notes:
                print(f"  note: {note}")
        any_errors = any_errors or report.has_errors
    out = _out_path(args, "json")
    if out:
        _write_json(out, {**doc_header("lint"), "findings": doc})
    return exit_code(any_errors)


def _describe_prove(result) -> str:
    """One-line human rendering of a ProveResult."""
    from repro.analysis.symbolic import ProveVerdict

    line = result.verdict.value
    if result.verdict is ProveVerdict.REFUTED:
        ranks = ", ".join(str(r) for r in result.deadlocked)
        line += (
            f" — minimal failing p={result.min_p} "
            f"(deadlocked ranks {{{ranks}}})"
        )
        if result.predicted:
            line += " [predicted by channel residues]"
    elif result.verdict is ProveVerdict.PROVED_ALL_P:
        cert = result.certificate
        assert cert is not None
        line += (
            f" — deadlock-free for all p >= 2 "
            f"(sizes [2, {cert.window_hi}) confirmed, "
            f"modulus lcm {cert.modulus_lcm})"
        )
    elif result.reason:
        line += f" — {result.reason}"
    return line


def _print_certificate(result, indent: str = "    ") -> None:
    """The per-channel certificate table (verbose prove output)."""
    if result.certificate is None:
        return
    channels = result.certificate.channels.channels
    if not channels:
        return
    print(f"{indent}channel certificate:")
    for channel in channels:
        line = (
            f"{indent}  {channel.classification:>15}  "
            f"{channel.site}  [line {channel.lineno}]"
        )
        if channel.classification != "always-matched":
            line += f"  unmatched: {channel.unmatched.render()}"
        print(line)


def _save_witness(witness: Any, directory: str, path: str, label: str) -> None:
    stem = os.path.splitext(os.path.basename(path))[0]
    wpath = os.path.join(directory, f"{stem}__{label}.witness.json")
    witness.save(wpath)
    print(f"    wrote witness {wpath}")


def _cmd_prove(args: argparse.Namespace) -> int:
    from repro.analysis.symbolic import ProveVerdict, prove_module

    observer = _observer(args)
    if args.witness_dir:
        os.makedirs(args.witness_dir, exist_ok=True)
    doc: Dict[str, list] = {}
    any_refuted = False
    any_open = False
    for path in args.paths:
        try:
            program_file = ProgramFile(path)
        except (OSError, ProgramFileError) as exc:
            return _unreadable("prove", path, exc)
        results = prove_module(
            program_file.tree, path, metrics=observer.metrics
        )
        doc[path] = []
        print(f"{path}:")
        if not results:
            print("  (no rank programs found)")
        for result in results:
            if result.verdict is ProveVerdict.REFUTED:
                any_refuted = True
            elif result.verdict is not ProveVerdict.PROVED_ALL_P:
                any_open = True
            print(f"  {result.name}: {_describe_prove(result)}")
            if args.verbose:
                _print_certificate(result)
            if result.witness is not None and args.witness_dir:
                _save_witness(
                    result.witness, args.witness_dir, path, result.name
                )
            doc[path].append(result.to_json_dict())
    out = _out_path(args, "json")
    if out:
        _write_json(out, {**doc_header("prove"), "results": doc})
    _export_obs(observer, args, any_refuted)
    return exit_code(any_refuted, any_open)


def _cmd_classify(args: argparse.Namespace) -> int:
    from repro.analysis.symbolic import classify_module

    doc: Dict[str, list] = {}
    worst = 0
    for path in args.paths:
        try:
            program_file = ProgramFile(path)
        except (OSError, ProgramFileError) as exc:
            return _unreadable("classify", path, exc)
        classifications = classify_module(program_file.tree, path)
        doc[path] = []
        print(f"{path}:")
        if not classifications:
            print("  (no rank programs found)")
        for cl in classifications:
            line = f"  {cl.name}: {cl.fragment.value}"
            if cl.reason:
                line += f" — {cl.reason}"
                if cl.reason_line is not None:
                    line += f" ({cl.location})"
            print(line)
            for cond, lineno in cl.role_splits:
                print(f"    role split: {cond}  [{path}:{lineno}]")
            for count, lineno in cl.loops:
                print(
                    f"    symbolic loop: repeat {count} times  "
                    f"[{path}:{lineno}]"
                )
            if args.verbose and cl.rendering:
                print("    term tree:")
                for rline in cl.rendering:
                    print(f"      {rline}")
            if not cl.fragment.decidable:
                worst = 1
            entry = {
                "program": cl.name,
                "fragment": cl.fragment.value,
                "reason": cl.reason,
                "line": cl.reason_line,
                "role_splits": [
                    {"condition": cond, "line": lineno}
                    for cond, lineno in cl.role_splits
                ],
                "loops": [
                    {"count": count, "line": lineno}
                    for count, lineno in cl.loops
                ],
                "terms": list(cl.rendering),
            }
            if args.prove and cl.summary is not None:
                from repro.analysis.symbolic import (
                    ProveVerdict,
                    prove_summary,
                )

                proof = prove_summary(cl.summary)
                print(f"    prove: {_describe_prove(proof)}")
                if args.verbose:
                    _print_certificate(proof, indent="      ")
                entry["prove"] = proof.to_json_dict()
                if proof.verdict is ProveVerdict.REFUTED:
                    worst = max(worst, 1)
            doc[path].append(entry)
    out = _out_path(args, "json")
    if out:
        _write_json(
            out, {**doc_header("classify"), "programs": doc}
        )
    return worst


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.analysis import verify_path

    observer = _observer(args)
    if args.witness_dir:
        os.makedirs(args.witness_dir, exist_ok=True)

    doc: Dict[str, Dict[str, Dict[str, object]]] = {}
    any_deadlock = False
    any_error = False
    any_inconclusive = False
    for path in args.paths:
        try:
            report = verify_path(
                path,
                ranks=args.ranks,
                max_states=args.max_states,
                max_depth=args.max_depth,
                por=not args.no_por,
                replay=args.replay,
                fastpath=not args.no_fastpath,
                metrics=observer.metrics,
            )
        except (OSError, ReproError) as exc:
            return usage_error(f"verify: cannot analyze {path}: {exc}")
        doc[path] = {}
        print(f"{path}:")
        if not report.programs:
            print("  (no rank programs found)")
        for prog in report.programs:
            entry: Dict[str, object] = {"verdict": prog.verdict_name}
            result = prog.result
            detail = ""
            if result is None:
                detail = f" — {prog.skipped_reason}"
            elif result.has_deadlock:
                any_deadlock = True
                ranks = ", ".join(str(r) for r in result.deadlocked)
                detail = f" — feasible deadlock of ranks {{{ranks}}}"
                entry["deadlocked"] = list(result.deadlocked)
                entry["witness_cycle"] = list(result.witness_cycle)
            elif result.fragment:
                detail = (
                    f" (fast path: {result.fragment}, "
                    f"{result.stats.transitions} ops linearly matched, "
                    "no state graph)"
                )
            else:
                detail = (
                    f" ({result.stats.states_explored} states, "
                    f"{result.stats.states_pruned} pruned)"
                )
                if result.verdict.value == "bound-exceeded":
                    detail += f" — {result.reason}"
            if result is not None and result.fragment:
                entry["fragment"] = result.fragment
            print(f"  {prog.label}: {prog.verdict_name}{detail}")
            for finding in prog.findings:
                print("    " + finding.render())
            if prog.witness is not None and args.witness_dir:
                _save_witness(
                    prog.witness, args.witness_dir, path, prog.label
                )
            if prog.replay is not None:
                entry["replay_confirmed"] = prog.replay.confirmed
                entry["replay_cycles_match"] = prog.replay.cycles_match
                if prog.replay.confirmed:
                    cyc = (
                        "matching WFG cycle"
                        if prog.replay.cycles_match
                        else "cycle differs"
                    )
                    print(
                        "    replay: confirmed runtime deadlock "
                        f"({cyc})"
                    )
                else:
                    print(
                        "    replay: NOT confirmed — "
                        f"{prog.replay.reason}"
                    )
                    any_error = True
            doc[path][prog.label] = entry
        if getattr(args, "prove", False):
            from repro.analysis.symbolic import ProveVerdict, prove_module

            for presult in prove_module(
                report.program_file.tree, path, metrics=observer.metrics
            ):
                print(
                    f"  prove {presult.name}: "
                    f"{_describe_prove(presult)}"
                )
                doc[path].setdefault(presult.name, {})["prove"] = (
                    presult.to_json_dict()
                )
                if presult.verdict is ProveVerdict.REFUTED:
                    any_deadlock = True
        for note in report.notes:
            print(f"  note: {note}")
        if report.errors():
            any_error = True
        if report.inconclusive:
            any_inconclusive = True

    if args.json_out:
        _write_json(
            args.json_out, {**doc_header("verify"), "results": doc}
        )
    _export_obs(observer, args, any_deadlock)
    return exit_code(any_deadlock or any_error, any_inconclusive)


def _register_lint(lint: argparse.ArgumentParser) -> None:
    lint.add_argument(
        "paths", nargs="+",
        help="Python rank-program files or recorded .json traces",
    )
    lint.add_argument(
        "-n", "--ranks", type=int, default=4,
        help="virtual world size for extracted programs (default 4; "
        "a module-level LINT_RANKS overrides it)",
    )
    lint.add_argument(
        "-v", "--verbose", action="store_true",
        help="also print analysis notes (skipped passes etc.)",
    )
    _add_common_flags(lint, "lint")


def _register_classify(classify: argparse.ArgumentParser) -> None:
    classify.add_argument(
        "paths", nargs="+",
        help="Python rank-program files (as for `repro lint`)",
    )
    classify.add_argument(
        "-v", "--verbose", action="store_true",
        help="also print the extracted symbolic term tree",
    )
    classify.add_argument(
        "--prove", action="store_true",
        help="also run the parameterized prover on each decidable "
        "program (PROVED-ALL-P / REFUTED with minimal p); a "
        "refutation folds into exit code 1",
    )
    _add_common_flags(classify, "classify")


def _register_prove(prove: argparse.ArgumentParser) -> None:
    prove.add_argument(
        "paths", nargs="+",
        help="Python rank-program files (as for `repro lint`)",
    )
    prove.add_argument(
        "-v", "--verbose", action="store_true",
        help="also print the per-channel certificate table",
    )
    prove.add_argument(
        "--witness-dir", metavar="DIR",
        help="save each refutation witness as JSON into this "
        "directory",
    )
    _add_common_flags(prove, "prove")
    _add_obs_flags(prove)


def _register_verify(verify: argparse.ArgumentParser) -> None:
    verify.add_argument(
        "paths", nargs="+",
        help="Python rank-program files (as for `repro lint`)",
    )
    verify.add_argument(
        "-n", "--ranks", type=int, default=4,
        help="virtual world size for extracted programs (default 4; "
        "a module-level LINT_RANKS overrides it)",
    )
    verify.add_argument(
        "--max-states", type=int, default=200_000,
        help="state budget before bailing out with bound-exceeded "
        "(default 200000)",
    )
    verify.add_argument(
        "--max-depth", type=int, default=1_000_000,
        help="schedule-depth budget before bound-exceeded "
        "(default 1000000)",
    )
    verify.add_argument(
        "--replay", action="store_true",
        help="replay each deadlock witness through the runtime engine "
        "to confirm it dynamically",
    )
    verify.add_argument(
        "--no-por", action="store_true",
        help="disable the partial-order reduction (naive enumeration; "
        "for debugging and benchmarks)",
    )
    verify.add_argument(
        "--no-fastpath", action="store_true",
        help="disable the decidable-fragment linear fast path and "
        "always explore the match-set state graph",
    )
    verify.add_argument(
        "--witness-dir", metavar="DIR",
        help="save every deadlock witness as JSON into this directory",
    )
    verify.add_argument(
        "--prove", action="store_true",
        help="also run the parameterized prover on each file; a "
        "REFUTED program counts as a deadlock (exit 1)",
    )
    _add_common_flags(verify, "verify")
    _add_obs_flags(verify)


#: command -> (add its arguments to a parser, run it)
HANDLERS = {
    "lint": (_register_lint, _cmd_lint),
    "classify": (_register_classify, _cmd_classify),
    "prove": (_register_prove, _cmd_prove),
    "verify": (_register_verify, _cmd_verify),
}
