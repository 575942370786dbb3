#!/usr/bin/env python3
"""End-to-end benchmark: wall clock from invocation to verdict.

Two ways to run it, both from the repo root:

``python3 benchmarks/e2e/run.py [--seed N] [--trace] [--smoke] [--out F]``
    every workload, each in a fresh child process, twice round the
    list; prints every metric, checks every verdict, writes the result
    document (and with ``--trace`` the span file next to it).

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    one workload in this process; the last line of output is the JSON
    object the benchmark driver reads.

Exit status is non-zero when any verdict was wrong.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCHEMA = "repro-bench-e2e/1"

#: Times the set-up is repeated so its reported time is a median.
SETUP_REPS = 3
#: Fewest timed units and CLI runs per pass; exactly this many under
#: ``--smoke``.
MIN_REPS = 2
#: Longest one workload's child process may run in a full run.
CHILD_TIMEOUT = 600.0

sys.path[:0] = [str(HERE), str(ROOT / "src")]

# Importing the program under test is part of what set-up costs.
_T0 = time.perf_counter()
import layers  # noqa: E402
import metrics  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from harness import Context, extend  # noqa: E402
from recorder import ROOT_SPAN, Recorder, write_chrome_trace  # noqa: E402

IMPORT_S = time.perf_counter() - _T0


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------


def _guarded(call: Any, what: str) -> Any:
    """A timed unit that raised is a failed attempt, not a crash."""
    try:
        return call()
    except Exception:
        return workloads.Unit(attempted=1, failures=[
            f"{what} raised: {traceback.format_exc(limit=3)}"
        ])


def measure_end_to_end(
    workload: workloads.Workload, ctx: Context
) -> Dict[str, Any]:
    samples: Dict[str, List[float]] = {"setup_s": []}
    for _ in range(1 if ctx.smoke else SETUP_REPS):
        took = ctx.timed(workload.setup)
        samples["setup_s"].append(took.wall + IMPORT_S * took.wall / took.raw)
    attempted, failures, reps = 0, [], 0
    start = time.perf_counter()
    pair = 0.0
    # Warm units and cold CLI runs alternate, so both see the same
    # stretch of machine time; stop when half another pair overshoots.
    while reps < MIN_REPS or (
        not ctx.smoke
        and time.perf_counter() - start + pair / 2 < ctx.seconds
    ):
        t0 = time.perf_counter()
        for unit in (
            _guarded(workload.sample, "verdict"),
            _guarded(workload.cli_sample, "cli"),
        ):
            extend(samples, unit.samples)
            attempted += unit.attempted
            failures.extend(unit.failures)
        pair = time.perf_counter() - t0
        reps += 1
    samples["peak_rss_mb"] = [workload.peak_rss_mb()]
    return {
        "samples": samples,
        "attempted": attempted,
        "failures": failures,
        "reps": reps,
    }


def measure_layers(
    workload: workloads.Workload, ctx: Context
) -> Dict[str, Any]:
    """The traced run: untraced and traced units side by side, then the
    layer probes and the CLI cell."""
    workload.setup()
    rec = Recorder(workload.name, ctx.seed)
    samples: Dict[str, List[float]] = {}
    attempted, failures = 0, []
    untraced: List[float] = []
    traced: List[float] = []
    for _ in range(MIN_REPS):
        unit = _guarded(workload.sample, "verdict")
        with rec.patched():
            spanned = _guarded(lambda: workload.sample(rec), "traced verdict")
        for which, walls in ((unit, untraced), (spanned, traced)):
            walls.extend(which.samples.get("verdict_wall_s", ()))
            attempted += which.attempted
            failures.extend(which.failures)
        extend(samples, unit.samples)
        extend(samples, workload.interleaved())
    layer_self: Dict[str, float] = {}
    if untraced and traced:
        roots = rec.roots()
        for root in roots:
            for layer, seconds in rec.layer_self_times(root).items():
                layer_self[layer] = layer_self.get(layer, 0.0) + seconds
        total = sum(rec.duration(root) for root in roots)
        samples["bench.unattributed_share"] = [
            layer_self.pop(ROOT_SPAN, 0.0) / total
        ]
        verdict_wall = statistics.median(untraced)
        samples["bench.trace_overhead"] = [
            statistics.median(traced) / verdict_wall
        ]
        layer_self = {k: v / len(roots) for k, v in layer_self.items()}
        extend(samples, workload.probes(verdict_wall))
        extend(samples, layers.cli_startup(ctx))
        for _ in range(1 if ctx.smoke else MIN_REPS):
            unit = _guarded(workload.cli_sample, "cli")
            extend(samples, unit.samples)
            attempted += unit.attempted
            failures.extend(unit.failures)
        if "cli_wall_s" in samples:
            samples["cli.overhead_s"] = [
                statistics.median(samples["cli_wall_s"]) - verdict_wall
            ]
        if "obs.on_s" in samples:
            samples["obs.on_over_off"] = [
                statistics.median(samples.pop("obs.on_s")) / verdict_wall
            ]
    return {
        "samples": samples,
        "attempted": attempted,
        "failures": failures,
        "reps": len(untraced),
        "layer_self_s": layer_self,
        "spans": rec.export(),
    }


def run_workload(args: argparse.Namespace) -> Dict[str, Any]:
    """Measure ``args.workload`` here and return its document."""
    ctx = Context(seed=args.seed, seconds=args.seconds, smoke=args.smoke)
    workload = workloads.BY_NAME[args.workload](ctx)
    wall0 = time.perf_counter()
    try:
        try:
            if args.trace:
                measured = measure_layers(workload, ctx)
            else:
                measured = measure_end_to_end(workload, ctx)
            measured["input"] = workload.describe()
        finally:
            workload.close()
    finally:
        ctx.cleanup()
    measured.update(
        why=workload.why,
        traced=bool(args.trace),
        wall_s=time.perf_counter() - wall0,
    )
    return measured


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


def provenance(args: argparse.Namespace) -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_start": os.getloadavg()[0],
    }


def merge(docs: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Pool the passes of one workload. End-to-end samples come from
    untraced passes only; a traced pass contributes the per-layer
    metrics, the layer self times and the spans."""
    out: Dict[str, Any] = {
        "why": docs[0]["why"],
        "input": docs[-1].get("input", {}),
        "wall_s": sum(d["wall_s"] for d in docs),
        "reps": [d["reps"] for d in docs if not d["traced"]],
        "attempted": sum(d["attempted"] for d in docs),
        "failures": [f for d in docs for f in d["failures"]],
        "end_to_end": {},
        "per_layer": {},
    }
    out["failed"] = len(out["failures"])
    for defs, section, traced in (
        (metrics.END_TO_END, "end_to_end", False),
        (metrics.PER_LAYER, "per_layer", True),
    ):
        for m in defs:
            runs = [
                d["samples"][m.name] for d in docs
                if d["traced"] == traced and d["samples"].get(m.name)
            ]
            if not runs:
                continue
            pooled = [v for run in runs for v in run]
            entry = stats.summarize(pooled, m.stat)
            entry.update(
                unit=m.unit, better=m.better,
                runs=[stats.estimate(run, m.stat) for run in runs],
                samples=pooled,
            )
            if m.bound is not None:
                entry["bound"] = m.bound
            raw = [
                v for d in docs if d["traced"] == traced
                for v in d["samples"].get("raw." + m.name, ())
            ]
            if raw:
                entry["raw_median"] = statistics.median(raw)
            out[section][m.name] = entry
    untraced = [d for d in docs if not d["traced"]]
    if untraced:
        tried = sum(d["attempted"] for d in untraced)
        share = sum(len(d["failures"]) for d in untraced) / max(1, tried)
        entry = stats.summarize([share], "median")
        entry.update(
            n=tried, unit="ratio", better="lower", bound=0.0, runs=[share],
            samples=[share],
        )
        out["end_to_end"]["failed_share"] = entry
    for d in docs:
        if d["traced"]:
            out["layer_self_s"] = d["layer_self_s"]
    return out


def driver_line(measured: Dict[str, Any], traced: bool) -> str:
    """The one-line result the benchmark contract asks for: every
    gated end-to-end metric untraced, every other metric traced; a
    layer the workload never enters reads 0."""
    failed = len(measured["failures"])
    attempted = max(1, measured["attempted"])
    values = {}
    for m in metrics.TRACED if traced else metrics.GATED:
        samples = measured["samples"].get(m.name)
        if m.name == "failed_share":
            value = failed / attempted
        else:
            value = stats.estimate(samples, m.stat) if samples else 0.0
        values[m.name] = {"value": value, "unit": m.unit}
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
    })


def print_workload(name: str, doc: Dict[str, Any]) -> None:
    print(f"\n== {name}: {doc['why']}")
    print(f"   input {json.dumps(doc['input'])}; {doc['attempted']} checked, "
          f"{doc['failed']} failed; {doc['wall_s']:.1f} s")
    head = (f"   {'metric':28s} {'unit':>6s} {'value':>12s} {'stat':>6s} "
            f"{'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>4s} {'bound':>6s}"
            f" {'raw median':>12s}")
    for section in ("end_to_end", "per_layer"):
        if not doc[section]:
            continue
        print(f"   -- {section.replace('_', ' ')}")
        print(head)
        for metric, e in doc[section].items():
            bound = f"{e['bound']:.0%}" if "bound" in e else "-"
            raw = f"{e['raw_median']:12.6g}" if "raw_median" in e else ""
            print(
                f"   {metric:28s} {e['unit']:>6s} {e['value']:12.6g} "
                f"{e['stat']:>6s} {e['median']:12.6g} {e['q1']:12.6g} "
                f"{e['q3']:12.6g} {e['n']:4d} {bound:>6s} {raw}".rstrip()
            )
            if "tail" in e:
                t = e["tail"]
                print(f"   {'':28s} highest percentile with 10 samples "
                      f"beyond: p{t['percentile']:g} = {t['value']:.6g}")
    if doc.get("layer_self_s"):
        total = sum(doc["layer_self_s"].values())
        print("   -- layer self time per timed unit (traced run)")
        for layer, seconds in sorted(
            doc["layer_self_s"].items(), key=lambda kv: -kv[1]
        ):
            print(f"   {layer:28s} {seconds:10.4f} s {seconds / total:6.1%}")
    for failure in doc["failures"][:10]:
        print(f"   FAILED: {failure}")


# ---------------------------------------------------------------------------
# every workload, each in a child process
# ---------------------------------------------------------------------------


def run_child(args: argparse.Namespace, name: str, traced: bool) -> Dict[str, Any]:
    """One workload in a fresh process; a child that dies without a
    document is one failed attempt."""
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    fd, path = tempfile.mkstemp(suffix=".json", dir=scratch)
    os.close(fd)
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(int(traced)), "--out", path,
    ] + (["--smoke"] if args.smoke else [])
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT,
        )
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)["workloads"][name]
    except subprocess.TimeoutExpired:
        detail = f"no result within {CHILD_TIMEOUT:.0f} s"
    except (OSError, ValueError, KeyError):
        detail = proc.stderr.strip()[-400:]
    finally:
        os.unlink(path)
        try:
            scratch.rmdir()
        except OSError:
            pass
    return {
        "why": "", "traced": traced, "wall_s": 0.0, "reps": 0,
        "samples": {}, "attempted": 1, "layer_self_s": {},
        "failures": [f"child produced no result: {detail}"],
    }


def run_all(args: argparse.Namespace) -> int:
    names = [cls.name for cls in workloads.WORKLOADS]
    prov = provenance(args)
    if prov["loadavg_start"] > (prov["nproc"] or 1):
        print(f"warning: 1-min load average {prov['loadavg_start']:.2f} "
              f"exceeds nproc {prov['nproc']}; timings will be noisy",
              file=sys.stderr)
    passes = 1 if args.smoke else 2
    raw: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    # Twice round the whole list, so drift on the shared machine lands
    # on every workload alike.
    for _ in range(passes):
        for name in names:
            raw[name].append(run_child(args, name, traced=False))
    if args.trace:
        for name in names:
            raw[name].append(run_child(args, name, traced=True))
    merged = {name: merge(docs) for name, docs in raw.items()}
    for name in names:
        print_workload(name, merged[name])
    prov["loadavg_end"] = os.getloadavg()[0]
    prov["passes"] = passes
    failed = sum(doc["failed"] for doc in merged.values())
    print(f"\n{failed} failed of "
          f"{sum(doc['attempted'] for doc in merged.values())} checked; "
          f"load average {prov['loadavg_start']:.2f} -> "
          f"{prov['loadavg_end']:.2f}")
    out = Path(args.out) if args.out else None
    if args.trace:
        folder = out.parent if out else ROOT / "results" / "e2e"
        folder.mkdir(parents=True, exist_ok=True)
        write_chrome_trace(
            str(folder / "trace.json"),
            [docs[-1].get("spans", {"spans": [], "counts": {}})
             for docs in raw.values()],
        )
        print(f"wrote {folder / 'trace.json'}")
    if out:
        write_document(out, prov, merged)
    return 1 if failed else 0


def write_document(
    path: Path, prov: Dict[str, Any], workloads_doc: Dict[str, Any]
) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"schema": SCHEMA, "provenance": prov, "workloads": workloads_doc}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        run_seconds = json.load(handle)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BY_NAME),
                        help="measure only this workload, in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="how long one pass over a workload measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="also (1) take the traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and two reps: the self-test's run")
    parser.add_argument("--out", help="write the result document here")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    measured = run_workload(args)
    doc = merge([measured])
    print_workload(args.workload, doc)
    if args.out:
        prov = provenance(args)
        prov["loadavg_end"] = os.getloadavg()[0]
        write_document(Path(args.out), prov, {args.workload: measured})
    print(driver_line(measured, bool(args.trace)))
    return 1 if doc["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
