#!/usr/bin/env python3
"""Run the full verification grid and write the aggregated JSON ledger.

Equivalent to `diaglab grid` with the standard group list; kept as a script
so a complete verification run is one command with a saved artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from diaglab.cli import (
    EXIT_USAGE,
    GRID_DEFAULT_GROUPS,
    RunConfig,
    resolve_vertex_cap,
    run_grid,
)
from diaglab.errors import DiagLabError


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--groups", default=",".join(GRID_DEFAULT_GROUPS))
    ap.add_argument("--m-min", type=int, default=2)
    ap.add_argument("--m-max", type=int, default=5)
    ap.add_argument("--max-vertices", type=int, default=4096)
    ap.add_argument("--out", default="grid_report.json")
    args = ap.parse_args(argv)

    cfg = RunConfig()
    try:
        cfg.vertex_cap = resolve_vertex_cap(None)  # DIAGLAB_CAP_VERTICES
    except DiagLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    started = time.time()
    report = run_grid(
        [s for s in args.groups.split(",") if s],
        list(range(args.m_min, args.m_max + 1)),
        cfg,
        args.max_vertices,
    )
    report["elapsed_seconds"] = round(time.time() - started, 1)
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    for entry in report["instances"]:
        if entry.get("skipped"):
            continue
        tag = "ok" if entry.get("ok") else "FAILED"
        claims = len(entry.get("claims", []))
        print(f"{entry['group']:>8} m={entry['m']}  {tag:>6}  ({claims} claims)")
    print(f"\n{report['ran']} instances, {report['failed']} failures, "
          f"{report['elapsed_seconds']}s -> {args.out}")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
