"""Self-test of the benchmark itself, on tiny instances (C2 m=2, C3 m=2).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a corrupted reference is reported as a mismatch, that a deadline
shorter than one operation is recorded as a failure, that every listed
layer function records at least one call (a binding the tracer missed would
record none) and that tracing restores every original function.  Exits 1
and names each check that failed.
"""

from __future__ import annotations

import copy
import inspect
import json
import signal
import sys

import run
from layertrace import LISTED_KEYS

TINY = [
    ("check-all", "--group", "C2", "--m", "2"),
    ("check-all", "--group", "C3", "--m", "2"),
    ("build", "--group", "C3", "--m", "2", "--format", "graph6"),
    ("cliques", "--group", "C3", "--m", "2"),
    ("spectrum", "--group", "C3", "--m", "2", "--verify", "--paranoid"),
    ("diameter", "--group", "C3", "--m", "2", "--paranoid"),
]
CORRUPTED_OP = "check-all --group C3 --m 2"

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def kinds(result: dict) -> dict[str, str | None]:
    return {r["op"]: r["failure"] for r in result["operations"]}


def main() -> int:
    cli = run.import_cli()
    signal.signal(signal.SIGALRM, run.on_alarm)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    references = {}
    for argv in TINY:
        record = run.run_op(cli, argv, run.DEADLINE_S, {})
        references[record["op"]] = record.get("observed")
    check(all(references.values()), "every tiny operation completes")

    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_workload(cli, TINY, seed=1, seconds=0, trace=trace,
                                  references=references)
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        check(got == want, f"--trace {int(trace)} emits exactly the {section} metrics "
                           f"with their units (missing {sorted(want.keys() - got.keys())}, "
                           f"extra {sorted(got.keys() - want.keys())})")
        check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
              f"--trace {int(trace)} metric values are numbers")
        check(result["correct"] and result["failed"] == 0,
              f"--trace {int(trace)} run passes against fresh references")
        if trace:
            uncalled = [k for k in LISTED_KEYS if result["metrics"][f"{k}.calls"]["value"] < 1]
            check(not uncalled, f"every listed function records a call (uncalled: {uncalled})")

    still_wrapped = [
        f"{modname}.{name}"
        for modname, module in list(sys.modules.items()) if modname.startswith("diaglab")
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and hasattr(obj, "__wrapped__")
    ]
    check(not still_wrapped, f"tracing restores every original ({still_wrapped})")

    corrupted = copy.deepcopy(references)
    claim = corrupted[CORRUPTED_OP]["claims"][0]
    claim[1] = not claim[1]
    result = run.run_workload(cli, TINY, seed=2, seconds=0, trace=False,
                              references=corrupted)
    check(kinds(result)[CORRUPTED_OP] == "mismatch" and result["failed"] == 1
          and not result["correct"], "a corrupted reference is reported as a mismatch")

    result = run.run_workload(cli, TINY[:1], seed=3, seconds=0, trace=False,
                              references=references, deadline=1e-4)
    check(list(kinds(result).values()) == ["deadline"] and result["correct"],
          "a deadline shorter than one operation is recorded as a failure")
    result = run.run_workload(cli, TINY[:2], seed=4, seconds=0, trace=False,
                              references=references)
    check(result["failed"] == 0, "the next operations run normally after a missed deadline")

    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
