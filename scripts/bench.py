#!/usr/bin/env python3
"""Time ``check-all`` on a fixed ladder of instances and write
``BENCH_check_all.json`` at the root of the checkout.

Each rung runs as ``python -m diaglab check-all`` on this checkout's
``src/`` in a child process of its own, one at a time, so that each peak
is that rung's alone, and each child's address space is limited
(``RLIMIT_AS``), so that a rung that outgrows the host fails alone: a
``MemoryError`` exits 3.  For each rung the file records the wall time of
the child (interpreter start included), its ``ru_maxrss``, its exit code
and the sha256 of the ledger it printed; it also records the machine and
the git revision.  Nothing is gated on the numbers.

Run as ``python scripts/bench.py``; ``--large`` adds the rungs of
``LARGE_RUNGS``, which take a few seconds each.  A rung past the default
vertex cap runs with the environment of ``RUNG_ENV``, which the file
records with it: C4 m=9, C8 m=6 and C64 m=3, 262,144 vertices each, under
``DIAGLAB_CAP_VERTICES=300000``, and C2 m=17, 131,072 vertices, under
``DIAGLAB_CAP_VERTICES=131072``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_check_all.json"

# (group, m), each of at most 65,536 vertices
RUNGS = [("C2", 10), ("C2", 12), ("C3", 8), ("C4", 7), ("C4", 8), ("C16", 4), ("Q8", 4),
         ("C2", 13), ("C2", 14)]
LARGE_RUNGS = [("C2", 15), ("C2", 16), ("C4", 9), ("C2", 17), ("C8", 6), ("C64", 3)]
# Extra environment of a rung's child, for the rungs past the vertex cap.
RUNG_ENV = {("C4", 9): {"DIAGLAB_CAP_VERTICES": "300000"},
            ("C2", 17): {"DIAGLAB_CAP_VERTICES": "131072"},
            ("C8", 6): {"DIAGLAB_CAP_VERTICES": "300000"},
            ("C64", 3): {"DIAGLAB_CAP_VERTICES": "300000"}}

# The address space of each child, in bytes.
ADDRESS_SPACE = 4 << 30


def limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_rung(group: str, m: int) -> dict:
    """One ``check-all`` in a child process, with the rung's ``RUNG_ENV``
    on top of this environment; its own rusage comes from ``os.wait4``."""
    extra = RUNG_ENV.get((group, m), {})
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    cmd = [sys.executable, "-m", "diaglab", "check-all", "--group", group, "--m", str(m)]
    with tempfile.TemporaryFile() as ledger:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=ledger, stderr=subprocess.DEVNULL, env=env,
                                preexec_fn=limit_address_space)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above
        ledger.seek(0)
        digest = hashlib.sha256(ledger.read()).hexdigest()
    return {
        "group": group,
        "m": m,
        "env": extra,
        "wall_s": round(wall, 3),
        "ru_maxrss_kb": usage.ru_maxrss,
        "exit_code": proc.returncode,
        "ledger_sha256": digest,
    }


def git_revision() -> dict:
    def git(*args: str) -> str | None:
        try:
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"revision": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status)}


def machine() -> dict:
    return {
        "system": platform.system(),
        "release": platform.release(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="time check-all on a ladder of instances")
    parser.add_argument("--large", action="store_true",
                        help=f"also run {', '.join(f'{g} m={m}' for g, m in LARGE_RUNGS)}")
    args = parser.parse_args([] if argv is None else argv)
    rungs = []
    for group, m in RUNGS + LARGE_RUNGS * args.large:
        entry = run_rung(group, m)
        rungs.append(entry)
        print(f"{group:>5} m={m:<3} exit {entry['exit_code']}  {entry['wall_s']:7.2f} s  "
              f"{entry['ru_maxrss_kb'] / 1024:7.0f} MB")
    report = {"command": "check-all", "git": git_revision(), "machine": machine(),
              "rungs": rungs}
    OUT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"-> {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
