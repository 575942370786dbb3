"""``figures``: the Figure 9 / Figure 12 overhead-model tables."""
from __future__ import annotations

import argparse

from repro.cli.common import _add_common_flags, _out_path, _write_json
from repro.docs import doc_header


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.perf import spec_slowdown, stress_sweep
    from repro.workloads.specmpi import (
        EXCLUDED_FROM_AVERAGE,
        SPEC_PROFILES,
    )

    ps = [16, 64, 256, 1024, 4096]
    data = stress_sweep(ps)
    print("Figure 9 — stress-test slowdown model")
    keys = [k for k in data if k != "p"]
    print(f"{'procs':>6} " + " ".join(f"{k:>22}" for k in keys))
    for i, p in enumerate(ps):
        cells = []
        for k in keys:
            v = data[k][i]
            cells.append(f"{v:22.1f}" if v == v else f"{'-':>22}")
        print(f"{p:6d} " + " ".join(cells))

    print("\nFigure 12 — SPEC MPI2007 slowdown model (fan-in 4)")
    scales = [128, 512, 2048]
    print(f"{'application':>16} " + " ".join(f"p={p:>5}" for p in scales))
    included = []
    for name, profile in sorted(SPEC_PROFILES.items()):
        series = [spec_slowdown(profile, p) for p in scales]
        print(f"{name:>16} " + " ".join(f"{v:7.2f}" for v in series))
        if name not in EXCLUDED_FROM_AVERAGE:
            included.append(series[-1])
    print(
        f"\naverage at 2048 (excl. {', '.join(EXCLUDED_FROM_AVERAGE)}): "
        f"{sum(included) / len(included):.2f}x (paper: 1.34x)"
    )
    out = _out_path(args, "json")
    if out:
        _write_json(
            out,
            {
                **doc_header("figures"),
                "figure9": {"p": ps, **{k: data[k] for k in keys}},
                "figure12": {
                    name: {
                        str(p): spec_slowdown(profile, p) for p in scales
                    }
                    for name, profile in sorted(SPEC_PROFILES.items())
                },
                "figure12_average_at_2048": (
                    sum(included) / len(included)
                ),
            },
        )
    return 0


def _register_figures(figs: argparse.ArgumentParser) -> None:
    _add_common_flags(figs, "figures")


HANDLERS = {"figures": (_register_figures, _cmd_figures)}
